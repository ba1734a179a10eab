(** Pattern rewriting: a greedy pattern-application driver in the spirit
    of MLIR's [applyPatternsAndFoldGreedily], plus folding based on the
    registry's fold hooks. *)

type pattern = {
  pat_name : string;
  apply : Core.op -> bool;  (** true when it matched and rewrote *)
}

val pattern : string -> (Core.op -> bool) -> pattern

(** Dialects register how to materialize a constant attribute as an op
    (in practice: arith.constant). *)
val set_constant_materializer :
  (Builder.t -> Attr.t -> Types.t -> Core.value) -> unit

(** The constant attribute of a value's defining op, if constant-like. *)
val constant_of_value : Core.value -> Attr.t option

(** Erase the op if it is pure (including nested ops) and unused. *)
val erase_if_dead : Core.op -> bool

(** {2 Drivers} *)

(** What a driver run did. *)
type stats = {
  rw_rewrites : int;  (** rewrites performed (folds, DCE, patterns) *)
  rw_ops_visited : int;  (** attached ops examined by the driver *)
}

(** Raised by the worklist driver when more than [cap] rewrites fire in
    one scope — a pattern set that never reaches fixpoint. Loud on
    purpose: stopping silently would return half-rewritten IR. *)
exception Cap_exceeded of { scope : string; rewrites : int; cap : int }

(** Worklist driver: seed with every op in pre-order — or, given
    [since], with only the ops stamped after generation [since] (see
    {!Core.stamp}), in pre-order — then re-enqueue only the users of
    replaced values, the defining ops of dropped operands, the parents
    of erased ops (every ancestor when the erased op has effects), and
    newly inserted ops. Runs to a true fixpoint with
    cost proportional to rewrites performed. [cap] bounds the number of
    rewrites (default: generous, proportional to the size of the scope,
    not of the seed); exceeding it raises {!Cap_exceeded}. [on_rewrite]
    fires once per rewrite with the enclosing function's symbol
    (captured before the rewrite), the kind ("fold", "dce", or the
    pattern name) and the rewritten op. *)
val apply_worklist :
  ?cap:int ->
  ?since:int ->
  ?on_rewrite:(func:string -> string -> Core.op -> unit) ->
  Core.op ->
  pattern list ->
  stats
