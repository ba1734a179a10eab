(** Compile-time fusion of consecutively submitted device kernels
    (Section VII's anticipated extension), on the raised host module. *)

val pass : Mlir.Pass.t
