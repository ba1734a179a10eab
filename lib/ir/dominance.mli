(** Structural dominance for the structured-control-flow subset of the IR
    (regions with single-block bodies executed by nesting, not CFG
    edges). *)

(** [properly_dominates a b]: [a] executes strictly before [b] on every
    path (false when [a == b], and false for ops nested inside [a]). *)
val properly_dominates : Core.op -> Core.op -> bool

(** Is the value usable at the given op (defining op dominates it, or it
    is a block argument of an enclosing block)? *)
val value_visible_at : Core.value -> Core.op -> bool

(** Is the value defined outside of the region (loop-invariant w.r.t.
    code inside it)? *)
val defined_outside_region : Core.region -> Core.value -> bool
