(** Simulated device memory.

    Allocations are element-granular cell arrays tagged with a memory
    space; views carry offset/shape/stride descriptors (memref
    semantics). SYCL struct types (id, range, item) occupy
    [Sycl_types.flat_cells] integer cells when stored. *)

open Mlir

type cell =
  | I of int
  | F of float

(** An allocation stores cell [i] unboxed: [tags.[i]] is {!float_tag}
    or {!int_tag}, and the payload is [floats.(i)] or [ints.(i)]
    respectively (the other array's entry is meaningless). Go through
    the accessors below; the fields are public so the simulator can read
    and write cells without a function call, through which a float would
    be boxed. *)
type allocation = {
  aid : int;  (** unique id (used by the coalescing tables) *)
  space : Types.memspace;
  tags : Bytes.t;
  floats : Float.Array.t;
  ints : int array;
  mutable constant_cached : bool;
      (** set when compiler/runtime information proves the data constant;
          reads then use the constant-cache latency class *)
  label : string;
}

val float_tag : char
val int_tag : char

(** A float-zero-initialized allocation of [size] cells (at least one). *)
val alloc :
  ?label:string -> ?space:Types.memspace -> size:int -> unit -> allocation

(** Number of cells. *)
val size : allocation -> int

(** {2 Cell access}

    By linear cell index; an index outside the allocation raises
    [Invalid_argument]. [get_float] reads an int cell through
    [float_of_int]; a setter also sets the cell's kind. *)

val get : allocation -> int -> cell
val get_float : allocation -> int -> float
val set_float : allocation -> int -> float -> unit
val set_int : allocation -> int -> int -> unit

(** A memref-style view: element [(i0, i1, ...)] is cell
    [offset + sum(strides.(k) * ik)] of [base]. *)
type view = {
  base : allocation;
  offset : int;
  dims : int array;
  strides : int array;
}

(** Whole-allocation view; [dims] defaults to one flat dimension and
    strides are derived row-major. *)
val full_view : ?dims:int array -> allocation -> view

exception Out_of_bounds of string

(** Linear cell index of a multi-dimensional access (checked). *)
val linear_index : view -> int array -> int

(** The two checks of {!linear_index}, for callers that compute the
    linear index themselves: [rank_mismatch a] raises the error for more
    indices than a view of [a] has dimensions; [check a i] returns [i]
    when it is a cell of [a] and raises {!Out_of_bounds} otherwise. *)
val rank_mismatch : allocation -> 'a

val check : allocation -> int -> int

(** Copy [n] elements between allocations (host<->device transfers). *)
val blit : src:view -> dst:view -> int -> unit

(** {1 Footprints}

    What one work-group did to memory, recorded by the simulator's race
    detector. Across groups: the global cells each group wrote (SYCL
    work-groups of a kernel must write disjoint global locations). Within
    a group: per barrier phase, the local and global cells its
    work-items read and wrote (between two barriers, a cell written by
    one work-item must not be read or written by another). *)

type footprint

val footprint : unit -> footprint

(** A work-item's first access of a cell in a phase: [t_op] at [t_loc]. *)
type touch = { t_item : int; t_op : string; t_loc : Loc.t; t_write : bool }

(** A cell of one allocation that two work-items of a group touched in
    one barrier phase, at least one of them writing: [c_first] is the
    lower work-item. *)
type conflict = {
  c_aid : int;
  c_cell : int;
  c_label : string;
  c_space : Types.memspace;
  c_first : touch;
  c_second : touch;
}

(** [footprint_access fp ~item ~op ~loc ~write a lin]: work-item [item]
    (local linear id) read or wrote cell [lin] of [a] with op [op] at
    [loc]. A global write also goes into the cross-group record, with
    the location of the cell's first writing op; private memory is not
    recorded. What is kept per cell depends only on the work-item
    numbers, not on the order in which accesses arrive. *)
val footprint_access :
  footprint ->
  item:int ->
  op:string ->
  loc:Loc.t ->
  write:bool ->
  allocation ->
  int ->
  unit

(** Close the current barrier phase, turning its cells written by one
    work-item and accessed by another into conflicts (a cell keeps the
    conflict of its earliest phase). Reported are the lowest writer's
    first write and the first access of the lowest other work-item. *)
val footprint_end_phase : footprint -> unit

(** The conflicts of the closed phases, sorted by (allocation id,
    cell). *)
val footprint_conflicts : footprint -> conflict list

(** The cross-group record's (allocation id, cell) pairs, sorted —
    deterministic regardless of insertion order. *)
val footprint_cells : footprint -> (int * int) list

(** Label of a footprinted allocation (["?"] when unknown). *)
val footprint_label : footprint -> int -> string

(** Location of the (first) op that wrote a footprinted cell
    ([Loc.Unknown] when none was recorded). *)
val footprint_loc : footprint -> int * int -> Loc.t
