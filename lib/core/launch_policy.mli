(** The runtime's work-group-size selection policy for plain
    [parallel_for(range)] launches.

    Shared between the runtime and the compiler: because SYCL-MLIR sees
    host and device together, it can predict at compile time the
    work-group size the runtime will pick — which is what makes loop
    internalization's tiling legal to plan statically (with a runtime
    re-check in the versioning condition when the prediction could be
    wrong). *)

val preferred_wg_1d : int
val preferred_wg_2d : int

(** Work-group sizes for a global range (each divides its extent). *)
val default_wg_size : int list -> int list
