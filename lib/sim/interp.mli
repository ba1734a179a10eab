(** The GPU device simulator.

    Executes kernel IR over an ND-range with correct work-group
    semantics. The work-items of a sub-group ([Cost.default]'s
    [subgroup_size]) run in lockstep under an active-lane mask that
    structured control flow splits and rejoins. In a kernel with a
    barrier, each sub-group of a work-group runs as an OCaml 5
    effect-handler fiber; a barrier reached by all its lanes suspends the
    fiber, and the scheduler resumes the group's sub-groups phase by
    phase — so the cooperative local-memory prefetch generated by loop
    internalization executes correctly, and a barrier reached by part of
    a sub-group or of a group is detected as the deadlock it would be on
    hardware ({!Barrier_divergence}). Sub-groups of a kernel without a
    barrier run as plain calls, in order.

    Costs are accumulated per work-group: ALU cycles per executed op and
    lane, memory transactions per executed instruction, coalesced into
    cache lines over the lanes that execute it, and barrier costs. Under
    a cache model each new global transaction probes the group's cache
    at once, in execution order: sub-groups in order, lanes in lockstep.
    Private memory is treated as registers (no transaction cost). A
    launch's error is the one the work-items of a group running one
    after another, in local-id order, would give. *)

open Mlir

exception Sim_error of string

(** Raised when part of a work-group reaches a barrier while other
    work-items have already finished, or part of a sub-group reaches a
    barrier the rest of it does not reach with it — a divergent
    barrier. *)
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
  | Item  (** the item-like argument: queries read the lanes' ids *)
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

(** {1 Intra-group race detection}

    Within a work-group, work-items are ordered only by barriers: a
    local or global cell written by one work-item and read or written by
    another between two barriers is a race. Under race checking the
    simulator records every work-item's accesses per barrier phase. *)

(** Conflict [ir_conflict] in work-group [ir_group] (canonical linear
    group id). *)
type intra_race = { ir_group : int; ir_conflict : Memory.conflict }

(** Raised after a launch in which some work-group raced within itself
    and no two work-groups raced ({!Race_detected} is raised first). The
    list is sorted by group, then
    allocation and cell; each conflict names its two work-items, lower
    first, with their ops at their source locations, and depends only on
    what each work-item did, not on the order in which the simulator ran
    them. *)
exception Intra_group_race of intra_race list

val describe_intra_race : intra_race -> string

(** The report of {!Intra_group_race}: a count line, then the first ten
    races described, one per line, and how many more there are. *)
val intra_race_report : intra_race list -> string

(** {1 Decoding} *)

(** A kernel lowered once to its execution form: every SSA value of the
    kernel and of the device functions it calls has a frame slot in the
    int, float or boxed bank its producer writes, every op a dense index
    and a closure that executes it for a sub-group's active lanes.
    Executing an op is then one closure call on lane-major array-backed
    frames, with no op-name dispatch and no hashing, and ints and floats
    stay unboxed; per-op charges are arrays indexed by the op index. *)
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
    once. Under race checking the launch decodes its own program, whose
    memory ops also record into the race footprint; without it, no op
    does.
    [config] (default {!Sim_config.default}) holds the run's settings.
    Its [domains] selects the backend: [1] executes work-groups
    sequentially in canonical order; [> 1] partitions the canonical
    order into balanced contiguous chunks run on the shared
    {!Sycl_obs.Pool}, each accumulating private statistics that are
    merged in chunk order — the returned stats are bit-identical to the
    sequential backend's, and a failing group raises the same exception
    the sequential backend would (the canonically first failure). Its
    [check_races] records per-group footprints and raises
    {!Race_detected} when two groups write overlapping global cells,
    else {!Intra_group_race} when work-items of one group touch a cell
    one of them writes between two barriers. The launch is priced with
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
