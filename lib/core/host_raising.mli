(** Host raising (Section VII-A): DPC++ runtime-ABI call patterns in the
    host module become SYCL dialect host operations. *)

val pass : Mlir.Pass.t
