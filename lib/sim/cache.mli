(** Per-core (per-work-group) data cache model.

    Every work-group starts from an empty {!state} ({!reset} between
    groups), probed by the interpreter exactly once per new coalesced
    global transaction, so
    [hits + misses = global_transactions] holds by construction —
    exactly, no epsilon ({!Attribution.check_launches}). Direct-mapped or
    set-associative LRU, selected by {!Cost.cache_model}; the set index
    is [line mod num_sets] (base-aligned allocation model) and the tag
    is the full [(allocation id, line)] pair.

    A group runs on one domain, its sub-groups in order and their lanes
    in lockstep, so the probe sequence is independent of the domain
    count. The per-op counters of the probes live in the one
    {!Attribution} table.

    Warm re-accesses additionally measure their exact LRU stack distance
    (distinct lines touched since the previous access of the same line)
    with a Fenwick tree; [distance < capacity] iff a fully-associative
    LRU cache of that capacity would hit, which grounds the
    [--print-analysis reuse] cross-check. *)

(** {1 Cache state (one per work-group)} *)

type state

(** [None] under {!Cost.Flat} (no cache is simulated). *)
val create : Cost.params -> Cost.cache_model -> state option

(** Empty the cache in place: afterwards it behaves as a fresh
    {!create}d one. *)
val reset : state -> unit

type outcome = { o_hit : bool; o_evicted : bool }

(** Probe for line [(aid, line)], updating LRU state and filling on a
    miss. *)
val access : state -> aid:int -> line:int -> outcome

(** {1 Exact reuse distances} *)

type reuse

val reuse_create : unit -> reuse

(** Forget every probe in place: afterwards the tracker answers as a
    fresh {!reuse_create}d one. *)
val reuse_reset : reuse -> unit

(** Record a probe; returns the exact LRU stack distance of a warm
    re-access, or -1 for a first touch. *)
val reuse_access : reuse -> aid:int -> line:int -> int

val hit_rate : hits:int -> misses:int -> float
