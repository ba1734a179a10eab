(** Full unrolling of small constant-trip loops. *)

open Mlir

val run_on_func : Core.op -> Pass.Stats.t -> unit
val pass : Pass.t
