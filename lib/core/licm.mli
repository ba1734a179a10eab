(** Loop-invariant code motion (Section VI-A), hoisting loads as well as
    pure ops under alias-analysis and versioning guards. *)

open Mlir

val run_on_func : Core.op -> Pass.Stats.t -> unit
val pass : Pass.t
