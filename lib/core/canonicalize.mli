(** Canonicalization: greedy constant folding, dead pure op elimination
    and a few algebraic rewrites, applied with {!Mlir.Rewrite}. *)

open Mlir

(** The algebraic rewrites, for driving {!Rewrite} directly. *)
val patterns : Rewrite.pattern list

val pass : Pass.t
