(** Inter-procedural uniformity analysis (paper Section V-C).

    Tracks whether a value is the same for every work-item of a
    work-group. A branch whose condition is non-uniform is {e divergent};
    loop internalization must not insert group barriers inside divergent
    regions (they would deadlock).

    Lattice: [Uniform < Unknown < Non_uniform] (join = max). Sources of
    non-uniformity are ops carrying the registry's [non_uniform_source]
    trait (the SYCL work-item id getters). Loads are refined through the
    reaching-definition analysis: the uniformity of the (potential)
    modifiers' stored values and of their dominating branch conditions
    propagates to the loaded value. The analysis is inter-procedural over
    the call graph; SYCL kernel entry points have uniform parameters by
    definition. *)

open Mlir

type lattice =
  | Uniform
  | Unknown
  | Non_uniform

val lattice_to_string : lattice -> string

(** Is the function a SYCL kernel entry point? *)
val is_kernel : Core.op -> bool

type t

(** Run the analysis over a module to a fixpoint (or the sweep cap). *)
val analyze : Core.op -> t

(** Did {!analyze} reach a true fixpoint? When [false] (call graph
    deeper than the sweep cap), stored lattices may be stale
    under-approximations; {!value} then answers at least [Unknown] so a
    stale [Uniform] can never license a barrier in a divergent region. *)
val converged : t -> bool

(** Uniformity of an SSA value (defaults to [Uniform] for unvisited
    values, the lattice bottom; never better than [Unknown] when the
    analysis did not converge). *)
val value : t -> Core.value -> lattice

(** Conditions and loop bounds guarding the execution of an op, up to its
    function boundary. *)
val guarding_values : Core.op -> Core.value list

(** Is [op] inside a divergent region — any enclosing condition or loop
    bound not provably uniform? Conservative: [Unknown] counts. *)
val in_divergent_region : t -> Core.op -> bool
