(** The oneAPI-samples stencil workloads of Section VIII: 1-D heat
    transfer (buffer and USM variants), iso2dfd wave propagation and the
    Jacobi solver. *)

val heat_buffer : n:int -> steps:int -> Common.workload
val heat_usm : n:int -> steps:int -> Common.workload
val iso2dfd : n:int -> steps:int -> Common.workload
val jacobi : n:int -> iters:int -> Common.workload

(** All four; [scale] (default 1) multiplies their sizes or step counts. *)
val all : ?scale:int -> unit -> Common.workload list
