(** Loop internalization (Section VI-C): reused accessor loads in a
    kernel loop are prefetched tile by tile into work-group local memory. *)

val pass : Mlir.Pass.t
