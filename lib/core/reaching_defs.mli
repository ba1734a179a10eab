(** Reaching-definition analysis (paper Section V-B).

    A forward data-flow analysis computing, for a pointer-like value at a
    program point, the operations that may have modified the memory it
    refers to:

    - {b MODS}: definitions of the value itself or of values definitely
      (must) aliased to it;
    - {b PMODS}: definitions of values possibly (may) aliased to it.

    Built on the generic data-flow framework ({!Mlir.Dataflow}) and the
    SYCL-aware alias analysis; memory effects of every op — including SYCL
    dialect ops — come from the registry's memory-effect interface. *)

open Mlir

type t

(** Analyze the region under a function (typically a kernel), also
    registering the function's arguments so that argument-vs-argument
    queries use the full alias analysis (including host-provided no-alias
    facts). *)
val analyze_with_args : Core.op -> t

type defs = {
  mods : Core.op list;  (** definite modifiers *)
  pmods : Core.op list;  (** potential modifiers *)
}

(** Reaching definitions for the memory referenced by a value, observed
    just before [at]. *)
val defs_at : t -> Core.value -> at:Core.op -> defs
