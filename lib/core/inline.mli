(** Inlining of direct calls to small, defined, non-recursive device
    functions. *)

val pass : Mlir.Pass.t
