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
(* Write footprints (cross-group race detection)                       *)
(* ------------------------------------------------------------------ *)

(** The set of global-memory cells a work-group wrote, at element
    granularity, plus the labels of the allocations it touched (for
    reporting). Work-groups of one SYCL kernel must write disjoint
    global locations — the race detector intersects these footprints. *)
type footprint = {
  fp_cells : (int * int, unit) Hashtbl.t;  (** (allocation id, cell) *)
  fp_labels : (int, string) Hashtbl.t;  (** allocation id -> label *)
  (* First writing op's source location per cell, so a race report can
     point at the culprit store in the kernel source. *)
  fp_locs : (int * int, Loc.t) Hashtbl.t;
}

let footprint () =
  { fp_cells = Hashtbl.create 64; fp_labels = Hashtbl.create 4;
    fp_locs = Hashtbl.create 64 }

(** Record a write of cell [lin] of [a], remembering the writing op's
    location [loc] (first writer wins). Only global-space writes are
    footprinted: local and private memory are per-group / per-item by
    construction. *)
let footprint_write ?(loc = Loc.Unknown) (fp : footprint) (a : allocation) (lin : int) =
  match a.space with
  | Types.Global ->
    let aid = a.aid in
    Hashtbl.replace fp.fp_cells (aid, lin) ();
    if Loc.is_known loc && not (Hashtbl.mem fp.fp_locs (aid, lin)) then
      Hashtbl.replace fp.fp_locs (aid, lin) loc;
    if not (Hashtbl.mem fp.fp_labels aid) then
      Hashtbl.replace fp.fp_labels aid a.label
  | Types.Local | Types.Private -> ()

(** Footprinted cells, sorted by (allocation id, cell) so reports are
    deterministic regardless of hash-table iteration order. *)
let footprint_cells (fp : footprint) : (int * int) list =
  Hashtbl.fold (fun k () acc -> k :: acc) fp.fp_cells []
  |> List.sort (fun (a1, c1) (a2, c2) ->
         match Int.compare a1 a2 with 0 -> Int.compare c1 c2 | n -> n)

let footprint_label (fp : footprint) aid =
  Option.value ~default:"?" (Hashtbl.find_opt fp.fp_labels aid)

(** Location of the (first) op that wrote a footprinted cell. *)
let footprint_loc (fp : footprint) key =
  Option.value ~default:Loc.Unknown (Hashtbl.find_opt fp.fp_locs key)
