(* Simulated device memory: allocations are cell arrays addressed at
   element granularity; views carry offset/shape/stride descriptors
   (memref semantics). SYCL struct types (id, range, item) occupy
   [Sycl_types.flat_cells] integer cells. *)

open Mlir

type cell =
  | I of int
  | F of float

(* A cell is a tag byte plus an unboxed payload: the float in [floats]
   or the int in [ints], whichever the tag names. Storing a cell then
   allocates nothing, and the major GC has no per-cell box to mark. *)
type allocation = {
  aid : int;
  space : Types.memspace;
  tags : Bytes.t;
  floats : Float.Array.t;
  ints : int array;
  (* Host-constant data propagated by the host-device analysis: reads go
     through the constant cache. *)
  mutable constant_cached : bool;
  label : string;
}

let float_tag = '\000'
let int_tag = '\001'

(* Atomic: the parallel simulator backend allocates work-group-local
   memory from several domains at once; racy increments could hand two
   allocations the same id, corrupting the coalescing tables. *)
let aid_counter = Atomic.make 0

let next_aid () = Atomic.fetch_and_add aid_counter 1 + 1

let alloc ?(label = "") ?(space = Types.Global) ~(size : int) () =
  let n = max size 1 in
  { aid = next_aid (); space; tags = Bytes.make n float_tag;
    floats = Float.Array.make n 0.0; ints = Array.make n 0;
    constant_cached = false; label }

let size (a : allocation) = Bytes.length a.tags

let get_float (a : allocation) i =
  if Bytes.get a.tags i = int_tag then float_of_int a.ints.(i)
  else Float.Array.get a.floats i

let set_float (a : allocation) i f =
  Float.Array.set a.floats i f;
  Bytes.set a.tags i float_tag

let set_int (a : allocation) i n =
  a.ints.(i) <- n;
  Bytes.set a.tags i int_tag

let get (a : allocation) i =
  if Bytes.get a.tags i = int_tag then I a.ints.(i) else F (Float.Array.get a.floats i)

(** A memref-style view: element [i0, i1, ...] lives at
    [offset + sum(strides.(k) * ik)] of [base]. *)
type view = {
  base : allocation;
  offset : int;
  dims : int array;
  strides : int array;
}

let full_view ?(dims = [||]) (a : allocation) =
  let dims = if dims = [||] then [| size a |] else dims in
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  { base = a; offset = 0; dims; strides }

exception Out_of_bounds of string

let rank_mismatch (a : allocation) =
  raise (Out_of_bounds (Printf.sprintf "rank mismatch on %s" a.label))

let check (a : allocation) i =
  if i < 0 || i >= size a then
    raise
      (Out_of_bounds
         (Printf.sprintf "index %d out of bounds for %s (size %d)" i a.label
            (size a)))
  else i

let linear_index (v : view) (idx : int array) =
  if Array.length idx > Array.length v.strides then rank_mismatch v.base;
  let i = ref v.offset in
  for k = 0 to Array.length idx - 1 do
    i := !i + (idx.(k) * v.strides.(k))
  done;
  check v.base !i

(** Copy [n] elements between allocations (host<->device transfers). *)
let blit ~(src : view) ~(dst : view) n =
  let s = src.base and d = dst.base and si = src.offset and di = dst.offset in
  Array.blit s.ints si d.ints di n;
  Float.Array.blit s.floats si d.floats di n;
  Bytes.blit s.tags si d.tags di n

(* ------------------------------------------------------------------ *)
(* Footprints (race detection)                                         *)
(* ------------------------------------------------------------------ *)

type touch = { t_item : int; t_op : string; t_loc : Loc.t; t_write : bool }

type conflict = {
  c_aid : int;
  c_cell : int;
  c_label : string;
  c_space : Types.memspace;
  c_first : touch;
  c_second : touch;
}

(* The accesses of one cell in the current barrier phase: the lowest
   writing work-item's first write, and the first accesses of the two
   lowest work-items that touched it. Each is kept by work-item number,
   not by arrival, so the phase's verdict and report do not depend on
   the order in which the executor ran the work-items. *)
type touches = {
  space : Types.memspace;
  mutable writer : touch option;
  mutable lowest : touch option;
  mutable second : touch option;
}

(** What one work-group did to memory under race checking: the set of
    global cells it wrote, for the cross-group check (work-groups of one
    SYCL kernel must write disjoint global locations — the race detector
    intersects these), and, phase by phase, the local and global cells
    its work-items read and wrote, for the intra-group check. *)
type footprint = {
  fp_cells : (int * int, unit) Hashtbl.t;  (** (allocation id, cell) *)
  fp_labels : (int, string) Hashtbl.t;  (** allocation id -> label *)
  (* First writing op's source location per cell, so a race report can
     point at the culprit store in the kernel source. *)
  fp_locs : (int * int, Loc.t) Hashtbl.t;
  fp_phase : (int * int, touches) Hashtbl.t;  (* this phase's accesses *)
  fp_conflicts : (int * int, conflict) Hashtbl.t;  (* earliest per cell *)
}

let footprint () =
  { fp_cells = Hashtbl.create 64; fp_labels = Hashtbl.create 4;
    fp_locs = Hashtbl.create 64; fp_phase = Hashtbl.create 64;
    fp_conflicts = Hashtbl.create 4 }

(* Record a write of cell [lin] of [a], remembering the writing op's
   location [loc] (first writer wins). Only global-space writes are kept
   for the cross-group check: local and private memory are per-group /
   per-item by construction. *)
let footprint_write ~loc (fp : footprint) (a : allocation) (lin : int) =
  match a.space with
  | Types.Global ->
    let aid = a.aid in
    Hashtbl.replace fp.fp_cells (aid, lin) ();
    if Loc.is_known loc && not (Hashtbl.mem fp.fp_locs (aid, lin)) then
      Hashtbl.replace fp.fp_locs (aid, lin) loc;
    if not (Hashtbl.mem fp.fp_labels aid) then
      Hashtbl.replace fp.fp_labels aid a.label
  | Types.Local | Types.Private -> ()

let below (t : touch option) item =
  match t with None -> true | Some t -> item < t.t_item

let is_item (t : touch option) item =
  match t with Some t -> t.t_item = item | None -> false

(** Record work-item [item]'s access of cell [lin] of [a] by op [op] at
    [loc]: a write also goes into the cross-group footprint. Private
    memory belongs to one work-item and is not recorded. *)
let footprint_access (fp : footprint) ~item ~op ~loc ~write (a : allocation) lin =
  if write then footprint_write ~loc fp a lin;
  if a.space <> Types.Private then begin
    let key = (a.aid, lin) in
    let c =
      match Hashtbl.find_opt fp.fp_phase key with
      | Some c -> c
      | None ->
        let c = { space = a.space; writer = None; lowest = None; second = None } in
        Hashtbl.replace fp.fp_phase key c;
        if not (Hashtbl.mem fp.fp_labels a.aid) then
          Hashtbl.replace fp.fp_labels a.aid a.label;
        c
    in
    let touch () = Some { t_item = item; t_op = op; t_loc = loc; t_write = write } in
    if write && below c.writer item then c.writer <- touch ();
    if not (is_item c.lowest item || is_item c.second item) then
      if below c.lowest item then begin
        c.second <- c.lowest;
        c.lowest <- touch ()
      end
      else if below c.second item then c.second <- touch ()
  end

(** Close the current barrier phase: a cell written by one work-item
    and accessed by another in it is a conflict, reported between the
    lowest writer's first write and the first access of the lowest other
    work-item, lower work-item first. A cell keeps its earliest phase's
    conflict. *)
let footprint_end_phase (fp : footprint) =
  Hashtbl.iter
    (fun ((aid, cell) as key) c ->
      match c.writer with
      | Some w when not (Hashtbl.mem fp.fp_conflicts key) -> (
        let other = if is_item c.lowest w.t_item then c.second else c.lowest in
        match other with
        | Some o ->
          let first, second = if o.t_item < w.t_item then (o, w) else (w, o) in
          Hashtbl.replace fp.fp_conflicts key
            { c_aid = aid; c_cell = cell;
              c_label = Option.value ~default:"?" (Hashtbl.find_opt fp.fp_labels aid);
              c_space = c.space; c_first = first; c_second = second }
        | None -> ())
      | _ -> ())
    fp.fp_phase;
  Hashtbl.reset fp.fp_phase

let compare_cells (a1, c1) (a2, c2) =
  match Int.compare a1 a2 with 0 -> Int.compare c1 c2 | n -> n

(** The conflicts found, sorted by (allocation id, cell). *)
let footprint_conflicts (fp : footprint) : conflict list =
  Hashtbl.fold (fun _ c acc -> c :: acc) fp.fp_conflicts []
  |> List.sort (fun a b -> compare_cells (a.c_aid, a.c_cell) (b.c_aid, b.c_cell))

(** Footprinted cells, sorted by (allocation id, cell) so reports are
    deterministic regardless of hash-table iteration order. *)
let footprint_cells (fp : footprint) : (int * int) list =
  Hashtbl.fold (fun k () acc -> k :: acc) fp.fp_cells []
  |> List.sort compare_cells

let footprint_label (fp : footprint) aid =
  Option.value ~default:"?" (Hashtbl.find_opt fp.fp_labels aid)

(** Location of the (first) op that wrote a footprinted cell. *)
let footprint_loc (fp : footprint) key =
  Option.value ~default:Loc.Unknown (Hashtbl.find_opt fp.fp_locs key)
