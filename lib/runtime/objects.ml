(* SYCL runtime objects: buffers (owning memory, tracking where copies
   live), accessors, handlers and queues with dependency tracking — the
   buffer/accessor programming model of Section II-A. The runtime is the
   same for all three compiler configurations, as in the paper's
   methodology ("the runtime component remains completely unchanged"). *)

module Sycl_types = Sycl_core.Sycl_types
module Memory = Sycl_sim.Memory
module Cost = Sycl_sim.Cost

type buffer = {
  b_dims : int array;
  b_is_float : bool;
  b_host : Memory.allocation;  (** host-side storage (owned) *)
  mutable b_device : Memory.allocation option;
  mutable b_host_dirty : bool;  (** host copy newer than device copy *)
  mutable b_device_dirty : bool;
  (* Dependency tracking: last command writing / reading this buffer. *)
  mutable b_last_writer : int option;
  mutable b_last_readers : int list;
}

let buffer_elems (b : buffer) = Array.fold_left ( * ) 1 b.b_dims

(* Simulated element width: every memory cell models a 4-byte f32/i32
   (the cost model's [transfer_line_elems] assumes the same), so
   telemetry can report transfer volume in bytes. *)
let elem_bytes = 4

let buffer_bytes (b : buffer) = buffer_elems b * elem_bytes

type accessor = {
  acc_buffer : buffer;
  acc_mode : Sycl_types.access_mode;
  acc_range : int array;  (** access range (= buffer range unless ranged) *)
  acc_offset : int array;
}

type capture =
  | Cap_accessor of accessor
  | Cap_scalar of Sycl_sim.Interp.rv
  | Cap_usm of Memory.allocation
  | Cap_host_mem of Memory.view  (** raw host data, e.g. a constant table *)

type handler = {
  mutable h_captures : (int * capture) list;
  mutable h_global : int list;
  mutable h_local : int list option;
  mutable h_kernel : string option;
}

type command = {
  cmd_id : int;
  cmd_kernel : string;
  cmd_deps : int list;  (** command ids this one waited on *)
}

type queue = {
  mutable q_commands : command list;  (** in submission order, newest first *)
  mutable q_next_cmd : int;
}

let make_queue () = { q_commands = []; q_next_cmd = 1 }

let make_buffer ~(dims : int array) ~(is_float : bool)
    (host : Memory.allocation) =
  {
    b_dims = dims;
    b_is_float = is_float;
    b_host = host;
    b_device = None;
    b_host_dirty = true;
    b_device_dirty = false;
    b_last_writer = None;
    b_last_readers = [];
  }

let make_handler () =
  {
    h_captures = [];
    h_global = [];
    h_local = None;
    h_kernel = None;
  }

(** Dependencies a command-group with [captures] must wait on, per the
    buffer/accessor model: RAW on the last writer, WAR on outstanding
    readers, WAW on the last writer. *)
let dependencies_of (captures : (int * capture) list) : int list =
  List.concat_map
    (fun (_, c) ->
      match c with
      | Cap_accessor a -> (
        let b = a.acc_buffer in
        match a.acc_mode with
        | Sycl_types.Read -> Option.to_list b.b_last_writer
        | Sycl_types.Write | Sycl_types.Read_write ->
          Option.to_list b.b_last_writer @ b.b_last_readers)
      | _ -> [])
    captures
  |> List.sort_uniq compare

(** Update buffer dependency state after command [cmd_id] executed. *)
let note_command (captures : (int * capture) list) (cmd_id : int) =
  List.iter
    (fun (_, c) ->
      match c with
      | Cap_accessor a -> (
        let b = a.acc_buffer in
        match a.acc_mode with
        | Sycl_types.Read -> b.b_last_readers <- cmd_id :: b.b_last_readers
        | Sycl_types.Write | Sycl_types.Read_write ->
          b.b_last_writer <- Some cmd_id;
          b.b_last_readers <- [])
      | _ -> ())
    captures

(** Ensure the buffer has an up-to-date device allocation; returns the
    transfer cost in cycles (0 when already resident and clean). *)
let ensure_on_device (p : Cost.params) (b : buffer) : Memory.allocation * int =
  let elems = buffer_elems b in
  let dev =
    match b.b_device with
    | Some d -> d
    | None ->
      let d = Memory.alloc ~label:"device-buffer" ~space:Mlir.Types.Global ~size:elems () in
      b.b_device <- Some d;
      d
  in
  if b.b_host_dirty then begin
    Memory.blit ~src:(Memory.full_view b.b_host) ~dst:(Memory.full_view dev) elems;
    b.b_host_dirty <- false;
    (dev, Cost.transfer_cycles p ~elems)
  end
  else (dev, 0)

(** Write the device copy back to the host; returns the transfer cost. *)
let sync_to_host (p : Cost.params) (b : buffer) : int =
  match b.b_device with
  | Some d when b.b_device_dirty ->
    let elems = buffer_elems b in
    Memory.blit ~src:(Memory.full_view d) ~dst:(Memory.full_view b.b_host) elems;
    b.b_device_dirty <- false;
    Cost.transfer_cycles p ~elems
  | _ -> 0
