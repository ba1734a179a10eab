(** SYCL runtime objects: buffers (owning memory, tracking where copies
    live), accessors, handlers and queues with dependency tracking — the
    buffer/accessor programming model of paper Section II-A. The runtime
    is identical for all three compiler configurations, as in the paper's
    methodology. *)

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
  mutable b_last_writer : int option;  (** command id, for the DAG *)
  mutable b_last_readers : int list;
}

(** Simulated element width in bytes (every memory cell models a 4-byte
    f32/i32), for reporting transfer volume. *)
val elem_bytes : int

val buffer_bytes : buffer -> int

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
  cmd_deps : int list;
}

type queue = {
  mutable q_commands : command list;  (** newest first *)
  mutable q_next_cmd : int;
}

val make_queue : unit -> queue
val make_buffer : dims:int array -> is_float:bool -> Memory.allocation -> buffer
val make_handler : unit -> handler

(** Commands a command group must wait on: RAW on the last writer, WAR on
    outstanding readers, WAW on the last writer. *)
val dependencies_of : (int * capture) list -> int list

(** Update buffer dependency state after a command executed. *)
val note_command : (int * capture) list -> int -> unit

(** Ensure an up-to-date device copy exists; returns it with the transfer
    cost in cycles (0 when already resident and clean). *)
val ensure_on_device : Cost.params -> buffer -> Memory.allocation * int

(** Write the device copy back to the host if dirty; returns the cost. *)
val sync_to_host : Cost.params -> buffer -> int
