(** Structural dominance for the structured-control-flow subset of the IR
    (regions with single-block bodies executed by nesting, not CFG
    edges). *)

(** Index of an op in its block body, if attached. *)
val index_in_block : Core.op -> int option

(** Lift an op to its ancestor (or itself) whose parent block is the
    given block. *)
val ancestor_in_block : block:Core.block -> Core.op -> Core.op option

(** [properly_dominates a b]: [a] executes strictly before [b] on every
    path (false when [a == b], and false for ops nested inside [a]). *)
val properly_dominates : Core.op -> Core.op -> bool

(** Is the value usable at the given op (defining op dominates it, or it
    is a block argument of an enclosing block)? *)
val value_visible_at : Core.value -> Core.op -> bool

(** Is the block one of the region's blocks or nested below them? *)
val block_in_region : Core.region -> Core.block -> bool

(** Is the value defined outside of the region (loop-invariant w.r.t.
    code inside it)? *)
val defined_outside_region : Core.region -> Core.value -> bool
