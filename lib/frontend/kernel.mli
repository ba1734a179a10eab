(** Device-kernel construction EDSL.

    Plays the role of Clang + Polygeist in the paper's Fig. 1: produces
    the device IR a SYCL kernel functor lowers to. Kernels take an
    item-like argument plus the flattened captures and use SYCL dialect
    operations for work-item queries and accessor memory access. *)

open Mlir
module Sycl_types = Sycl_core.Sycl_types
module Sycl_ops = Sycl_core.Sycl_ops

type arg_spec =
  | Acc of int * Sycl_types.access_mode * Types.t
      (** accessor: dims, mode, element type *)
  | Scal of Types.t  (** by-value scalar capture *)
  | Ptr of Types.t  (** USM device pointer (1-D) *)

(** Define a kernel function in a module; the body receives a builder,
    the item argument and the capture arguments. [nd] selects an nd_item
    kernel (local ids / group barriers available in source). The function
    is tagged with the [sycl.kernel] attribute. *)
val define :
  Core.op ->
  name:string ->
  dims:int ->
  ?nd:bool ->
  args:arg_spec list ->
  (Builder.t -> item:Core.value -> args:Core.value list -> unit) ->
  Core.op

(** {2 Body-building helpers} *)

val idx : Builder.t -> int -> Core.value
val fconst : Builder.t -> float -> Core.value

(** Global id / local id / global range of the work-item in a dimension. *)
val gid : Builder.t -> Core.value -> int -> Core.value

val lid : Builder.t -> Core.value -> int -> Core.value
val grange : Builder.t -> Core.value -> int -> Core.value

(** Address of an accessor element as a 1-D view (direct, pure subscript
    form — CSE-able and hoistable). *)
val acc_view : Builder.t -> Core.value -> Core.value list -> Core.value

val acc_get : Builder.t -> Core.value -> Core.value list -> Core.value
val acc_set : Builder.t -> Core.value -> Core.value list -> Core.value -> unit

(** USM pointer element access. *)
val ptr_get : Builder.t -> Core.value -> Core.value -> Core.value

val ptr_set : Builder.t -> Core.value -> Core.value -> Core.value -> unit

(** Read-modify-write of an accessor element through a single subscript
    (what C++ [acc\[i\] op= e] lowers to) — the shape detect-reduction
    recognizes. *)
val acc_update :
  Builder.t ->
  Core.value ->
  Core.value list ->
  (Core.value -> Core.value) ->
  unit

(** Counted loops with unit bodies. *)
val for_up : Builder.t -> Core.value -> (Builder.t -> Core.value -> unit) -> unit

val for_range :
  Builder.t ->
  lb:Core.value ->
  ub:Core.value ->
  step:Core.value ->
  (Builder.t -> Core.value -> unit) ->
  unit

(** Arithmetic shorthands (aliases of the arith dialect builders). *)
val addi : Builder.t -> Core.value -> Core.value -> Core.value

val subi : Builder.t -> Core.value -> Core.value -> Core.value
val muli : Builder.t -> Core.value -> Core.value -> Core.value
val addf : Builder.t -> Core.value -> Core.value -> Core.value
val subf : Builder.t -> Core.value -> Core.value -> Core.value
val mulf : Builder.t -> Core.value -> Core.value -> Core.value
val divf : Builder.t -> Core.value -> Core.value -> Core.value
