(** Array-reduction detection (Section VI-B): a loop that loads, combines
    and stores back one loop-invariant array element accumulates in a
    loop-carried scalar instead. *)

open Mlir

val run_on_func : Core.op -> Pass.Stats.t -> unit
val pass : Pass.t
