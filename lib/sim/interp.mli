(** The GPU device simulator.

    Executes kernel IR over an ND-range with correct work-group
    semantics: in a kernel with a barrier, work-items of a work-group run
    as OCaml 5 effect-handler fibers; a group barrier suspends the fiber,
    and the scheduler resumes all fibers of the group phase by phase — so
    the cooperative local-memory prefetch generated by loop
    internalization executes correctly, and a barrier in a divergent
    region is detected as the deadlock it would be on hardware
    ({!Barrier_divergence}). Work-items of a kernel without a barrier run
    as plain calls, in the same order.

    Costs are accumulated per work-group: ALU cycles per executed op,
    memory transactions per (instruction, occurrence, sub-group) with
    cache-line coalescing, and barrier costs. Private memory is treated
    as registers (no transaction cost). *)

open Mlir

exception Sim_error of string

(** Raised when part of a work-group reaches a barrier while other
    work-items have already finished — a divergent barrier. *)
exception Barrier_divergence

type _ Effect.t += Barrier : unit Effect.t

(** Runtime accessor descriptor (DPC++'s flattened accessor contents:
    data pointer, access range, underlying memory range, offset). *)
type acc_desc = {
  a_alloc : Memory.allocation;
  a_range : int array;
  a_mem_range : int array;
  a_offset : int array;
  a_is_float : bool;
}

(** Runtime values. *)
type rv =
  | I of int
  | F of float
  | Mem of Memory.view
  | Acc of acc_desc
  | Item  (** the item-like argument: queries read the work-item context *)
  | Unit

val as_int : rv -> int

(** {1 Cross-group race detection}

    SYCL work-groups of one kernel launch must write disjoint global
    locations (inter-group independence, §II-A). Under race checking the
    simulator records a per-group write footprint and intersects them
    after the launch. *)

type race = {
  r_label : string;  (** label of the written allocation *)
  r_aid : int;  (** allocation id *)
  r_cell : int;  (** element-granular cell index *)
  r_group_a : int;  (** first (canonically lower) writing group *)
  r_group_b : int;  (** later writing group *)
  r_loc : Loc.t;
      (** source location of a store that wrote the cell
          ([Loc.Unknown] when no located store was recorded) *)
}

(** Raised after a launch whose work-groups wrote overlapping global
    locations. The list is deterministic: groups are intersected in
    canonical order, cells in sorted order. *)
exception Race_detected of race list

val describe_race : race -> string

(** {1 Decoding} *)

(** A kernel lowered once to its execution form: every SSA value of the
    kernel and of the device functions it calls has a frame slot in the
    int, float or boxed bank its producer writes, every op a dense index
    and a closure that executes it. Executing an op is then a closure
    call on array-backed frames, with no op-name dispatch and no
    hashing, and ints and floats stay unboxed; per-op charges are arrays
    indexed by the op index. *)
type program

(** [decode ~module_op ~kernel] decodes [kernel], a function of
    [module_op], and every device function of [module_op] it calls. A
    malformed op decodes to code that raises the same error when the op
    executes, so ops on paths never taken stay harmless. The program is
    valid for as long as that IR is not mutated; it holds no execution
    state and may be shared across launches and domains. *)
val decode : module_op:Core.op -> kernel:Core.op -> program

(** [apportion ~canonical ~rems ~counts leftover give] hands out
    [leftover] units by largest remainder: [give k] is called once for
    each of the [leftover] ops [k] with the largest [rems.(k)], ties
    broken by position in [canonical] (a permutation of the op
    indices), in [canonical] order; an op with remainder 0 gets
    nothing. Every remainder must be below [Array.length counts], which
    is a work array. This is how a work-group's compute cycles, divided
    once per group, are shared among its ops. *)
val apportion :
  canonical:int array ->
  rems:int array ->
  counts:int array ->
  int ->
  (int -> unit) ->
  unit

(** Launch [kernel] over [global] with work-groups of [wg_size].
    [args.(i)] binds kernel argument [i]; the item-like argument must be
    bound to {!Item}. [global] and [wg_size] must have the same rank, 1
    to 3, and every dimension of [global] must be divisible by the
    corresponding [wg_size]; otherwise {!Sim_error} is raised before
    anything runs. Returns accumulated launch statistics.

    [program] is [kernel] already decoded by {!decode} (decoded here
    when absent), so a caller launching one kernel many times decodes it
    once.
    [config] (default {!Sim_config.default}) holds the run's settings.
    Its [domains] selects the backend: [1] executes work-groups
    sequentially in canonical order; [> 1] partitions the canonical
    order into balanced contiguous chunks run on the shared
    {!Sycl_obs.Pool}, each accumulating private statistics that are
    merged in chunk order — the returned stats are bit-identical to the
    sequential backend's, and a failing group raises the same exception
    the sequential backend would (the canonically first failure). Its
    [check_races] records per-group write footprints and raises
    {!Race_detected} on overlap. The launch is priced with
    {!Cost.default}.
    [metrics] receives device execution counters ([sim.work_groups],
    [sim.work_items], [sim.barriers], and under a non-flat cache model
    [sim.cache.*] and the [sim.cache.reuse_distance] histogram),
    recorded once from the merged statistics, so its contents are
    independent of the domain count.
    [attribution] receives the launch's per-op charges: every cycle and
    transaction is accounted to the charging op's (name, source
    location). Each chunk keeps per-op totals in an array indexed by op;
    the chunks' arrays are summed in chunk order and flushed into the
    table once, so it is byte-identical whatever the domain count and
    conserves against the returned stats exactly
    ({!Attribution.check_launches}). The group totals the stats are made
    of are sums of the same per-op counters.
    [config]'s [cache_model] selects the per-core data cache simulated
    over the coalesced global transactions; under a non-flat model the
    launch stats carry hit/miss/eviction/memory-wait counters with
    [hits + misses = global_transactions] exactly, and
    [attribution] gains its cache view: per-op hits, misses, evictions
    and reuse distances, and the launch's reuse-distance histogram. *)
val launch :
  ?config:Sim_config.t ->
  ?metrics:Sycl_obs.Metrics.registry ->
  ?attribution:Attribution.table ->
  ?program:program ->
  module_op:Core.op ->
  kernel:Core.op ->
  args:rv array ->
  global:int list ->
  wg_size:int list ->
  unit ->
  Cost.launch_stats
