(** Benchmark metrics pipeline: schema-versioned JSON snapshots of the
    simulated evaluation, and a regression comparator for CI gating. *)

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
    "hotspots" section — context for cycle regressions, never gated). *)
type hotspot = {
  h_line : string;  (** ["file:line"] into the workload's virtual IR dump *)
  h_cycles : int;
  h_share : float;
}

(** The v5 per-workload "compile" section: deterministic compiler-speed
    counters for the SYCL-MLIR configuration — gated by
    {!compare_reports} like cycles — plus the measured (never gated)
    parse + pipeline wall time. *)
type compile_metrics = {
  co_parse_ops : int;  (** ops materialized by parsing the printed module *)
  co_parse_chars : int;  (** characters of IR text the parser processed *)
  co_ops_visited : (string * int) list;  (** pass name -> ops examined *)
  co_rewrites : (string * int) list;  (** pass name -> rewrites performed *)
  co_wall_us : int;  (** measured; excluded from determinism diffs *)
}

(** The v6 per-workload "cache" section: simulated data-cache counters
    from an extra SYCL-MLIR run under the direct-mapped model, plus the
    exact reuse-distance percentiles of that run. All fields are
    deterministic; the hit rate is gated by {!compare_reports}. *)
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

type issue_kind =
  | Cycle_regression
  | Latency_regression  (** a launch-latency percentile grew past tolerance *)
  | Validity_regression
  | Missing_workload
  | Missing_config
  | Compile_latency_regression
      (** a compile-service cost-unit percentile grew past tolerance *)
  | Hit_rate_regression
      (** a cache hit rate dropped past tolerance — the compile-service
          cache (v3) or a workload's simulated data cache (v6) *)
  | Compiler_speed_regression
      (** a deterministic compiler-speed counter (ops visited, rewrites,
          parser ops/chars) grew past tolerance (v5) *)

type issue = {
  i_kind : issue_kind;
  i_workload : string;
  i_config : string;
  i_detail : string;
}

val issue_to_string : issue -> string

(** Issues in [current] relative to [baseline]; empty means the gate
    passes. [tolerance] is the permitted fractional growth for cycles,
    launch-latency percentiles and compile-service cost-unit
    percentiles, and the permitted fractional drop in the service and
    per-workload data-cache hit rates (default 0.05). Measured service
    wall time / throughput is never gated. *)
val compare_reports :
  ?tolerance:float -> baseline:report -> report -> issue list
