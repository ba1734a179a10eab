(** Progressive lowering of the SYCL dialect (Section IV): accessor
    arguments are flattened into DPC++'s kernel ABI and subscripts become
    address arithmetic. *)

open Mlir

(** Per-capture expansion recorded for the runtime: 0 = passthrough
    scalar/pointer, d > 0 = accessor of dimensionality d flattened into
    1 + 3d arguments (data, range, mem_range, offset). [None] for a kernel
    this pass did not lower. *)
val expansion_of_kernel : Core.op -> int list option

val pass : Pass.t
