(** Benchmark metrics pipeline: schema-versioned JSON snapshots of the
    simulated evaluation, and an exact diff of their deterministic
    fields. *)

val schema_version : int

type config_metrics = {
  cm_cycles : int;
  cm_valid : bool;
  cm_device_cycles : int;
  cm_transfer_cycles : int;
  cm_kernel_launches : int;
  cm_global_transactions : int;
  cm_local_transactions : int;
  (* Telemetry (the v2 "metrics" section). *)
  cm_transfer_bytes_h2d : int;
  cm_transfer_bytes_d2h : int;
  cm_dag_wait_edges : int;
  cm_launch_p50 : int;  (** launch-latency percentiles, in cycles *)
  cm_launch_p90 : int;
  cm_launch_p99 : int;
}

(** One hotspot line of a workload's located SYCL-MLIR run (the v4
    "hotspots" section). *)
type hotspot = {
  h_line : string;  (** ["file:line"] into the workload's virtual IR dump *)
  h_cycles : int;
  h_share : float;
}

(** The v5 per-workload "compile" section: deterministic compiler-speed
    counters for the SYCL-MLIR configuration, plus the measured parse +
    pipeline wall time. *)
type compile_metrics = {
  co_parse_ops : int;  (** ops materialized by parsing the printed module *)
  co_parse_chars : int;  (** characters of IR text the parser processed *)
  co_ops_visited : (string * int) list;  (** pass name -> ops examined *)
  co_rewrites : (string * int) list;  (** pass name -> rewrites performed *)
  co_wall_us : int;  (** measured; left out of {!diff} *)
}

(** The v6 per-workload "cache" section: simulated data-cache counters
    from an extra SYCL-MLIR run under the direct-mapped model, plus the
    exact reuse-distance percentiles of that run. All fields are
    deterministic. *)
type cache_metrics = {
  ca_hits : int;
  ca_misses : int;  (** [ca_hits + ca_misses] = global transactions *)
  ca_evictions : int;
  ca_hit_rate : float;
  ca_reuse_p50 : int;  (** LRU stack-distance percentiles, in cache lines *)
  ca_reuse_p90 : int;
  ca_reuse_p99 : int;
}

type entry = {
  e_name : string;
  e_category : string;
  e_problem_size : int;
  e_configs : (string * config_metrics) list;
  e_speedup : float;
  e_pass_stats : (string * int) list;
  e_hotspots : hotspot list;
      (** top-3 source lines by attributed device cycles *)
  e_compile : compile_metrics;  (** compiler-speed counters (v5) *)
  e_cache : cache_metrics;  (** direct-mapped cache counters (v6) *)
}

(** The v3 report-level "service" section: counters and cost-unit
    percentiles from a two-round compile-service sweep of the suite.
    Everything except [sv_wall_us] / [sv_modules_per_sec] (the
    "measured" fields) is deterministic. *)
type service_metrics = {
  sv_requests : int;
  sv_hits : int;
  sv_misses : int;
  sv_evictions : int;
  sv_hit_rate : float;
  sv_cost_p50 : int;  (** compile-latency percentiles, in cost units *)
  sv_cost_p90 : int;
  sv_cost_p99 : int;
  sv_wall_us : int;
  sv_modules_per_sec : float;
}

type report = {
  r_schema_version : int;
  r_label : string;
  r_entries : entry list;
  r_service : service_metrics;
}

(** Measure every workload under the three configurations with the
    simulator settings [sim] (default {!Sycl_sim.Sim_config.default};
    the cache section always runs the direct-mapped model), plus the
    compile-service sweep. *)
val collect :
  ?sim:Sycl_sim.Sim_config.t -> label:string -> Common.workload list -> report

val to_json : report -> string

exception Report_error of string

(** Parse a report; raises {!Report_error} on malformed input or a
    schema-version mismatch. *)
val of_json : string -> report

(** Every deterministic field that differs between two parsed reports,
    as one ["path: old -> new"] line each, in the old report's field
    order. Deterministic means every field except the top-level [label]
    and the ["measured"] subtrees. A list whose objects each carry a
    distinct ["name"] (the workloads) is matched by name, as in
    [workloads[GEMM].configs.sycl-mlir.cycles: 104864 -> 104900], and a
    change of its order is one ["path (order)"] line; other lists are
    matched by index. A value present on one side only reads
    [<missing>] on the other. Values print as compact {!Mlir.Json}, so
    floats are exact. Empty exactly when the deterministic fields are
    equal. *)
val diff : Mlir.Json.t -> Mlir.Json.t -> string list
