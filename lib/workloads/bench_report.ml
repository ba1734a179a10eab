(* Benchmark metrics pipeline: a schema-versioned JSON snapshot of the
   simulated evaluation (per-workload cycles, memory traffic, validity,
   compile-time pass statistics) plus a comparator. `bench report` writes
   one; `bench compare old.json new.json` flags cycle regressions beyond
   a tolerance, validity regressions, and vanished workloads — the CI
   gate that keeps optimizations from silently rotting. The simulator is
   deterministic, so a self-comparison is exact. *)

open Mlir
module Host_interp = Sycl_runtime.Host_interp
module Cost = Sycl_sim.Cost
module Metrics = Sycl_obs.Metrics
module Service = Sycl_service.Service

(* v2: every config carries a "metrics" section (transfer bytes by
   direction, DAG-wait edge count, launch-latency percentiles) fed by
   the runtime telemetry registry.
   v3: a report-level "service" section from a two-round compile-service
   sweep of the suite — cache hit/miss/eviction counters, compile-latency
   percentiles in deterministic cost units (gated by [compare_reports]
   like cycles), and measured wall-clock throughput (informational only:
   machine-dependent, never gated, excluded from determinism diffs).
   v4: every workload carries a "hotspots" section — the top-3 source
   lines by attributed device cycles from a located SYCL-MLIR run — so a
   cycle regression flagged by [compare_reports] names the line that now
   dominates. Informational context, not a separate gate.
   v5: every workload carries a "compile" section of deterministic
   compiler-speed counters — ops visited per pass (the rewrite drivers,
   CSE and store-forwarding count every op they examine), rewrites per
   pass, and parser ops/chars processed — gated by [compare_reports]
   exactly like cycle regressions, so a pass that quietly returns to
   rescanning the module fails CI. Compile wall time lives in the
   entry's "measured" subobject: machine-dependent, informational,
   excluded from determinism diffs and never gated.
   v6: every workload carries a "cache" section from an extra SYCL-MLIR
   run under the direct-mapped cache model (--cache-model dm):
   hit/miss/eviction counters, the hit rate and the exact
   reuse-distance percentiles. All deterministic (the cache is probed
   in canonical order); [compare_reports] gates the per-workload hit
   rate like the service hit rate, so a transform that quietly destroys
   locality fails CI. *)
let schema_version = 6

(** One hotspot line of a workload's located SYCL-MLIR run. *)
type hotspot = {
  h_line : string;  (** ["file:line"] into the workload's virtual IR dump *)
  h_cycles : int;  (** attributed device cycles *)
  h_share : float;  (** fraction of the workload's attributed cycles *)
}

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

(** The v5 "compile" section: deterministic compiler-speed counters for
    the SYCL-MLIR configuration, plus measured (non-gated) wall time. *)
type compile_metrics = {
  co_parse_ops : int;  (** ops materialized by parsing the printed module *)
  co_parse_chars : int;  (** characters of IR text the parser processed *)
  co_ops_visited : (string * int) list;
      (** pass name -> ops examined, from the merged pipeline stats *)
  co_rewrites : (string * int) list;  (** pass name -> rewrites performed *)
  co_wall_us : int;  (** measured: parse + full pipeline wall time *)
}

(** The v6 "cache" section: hit/miss counters and reuse-distance
    percentiles of an extra SYCL-MLIR run under the direct-mapped cache
    model. Deterministic — the probe order is canonical. *)
type cache_metrics = {
  ca_hits : int;
  ca_misses : int;
  ca_evictions : int;
  ca_hit_rate : float;
  ca_reuse_p50 : int;  (** exact reuse-distance percentiles; 0 when no
                           warm re-access was measured *)
  ca_reuse_p90 : int;
  ca_reuse_p99 : int;
}

type entry = {
  e_name : string;
  e_category : string;
  e_problem_size : int;
  e_configs : (string * config_metrics) list;
      (** keyed "dpcpp" / "acpp" / "sycl-mlir"; "acpp" is absent when the
          workload is unsupported or fails validation there *)
  e_speedup : float;  (** SYCL-MLIR cycles vs. the DPC++ baseline *)
  e_pass_stats : (string * int) list;
      (** merged compile-time statistics of the SYCL-MLIR pipeline *)
  e_hotspots : hotspot list;
      (** top-3 source lines by attributed device cycles (v4) *)
  e_compile : compile_metrics;  (** compiler-speed counters (v5) *)
  e_cache : cache_metrics;  (** direct-mapped cache counters (v6) *)
}

(* The v3 "service" section: one two-round compile-service sweep of the
   whole suite. Counters, hit rate and the cost-unit percentiles are
   deterministic (the cache coalesces duplicate in-flight requests, and
   cost units count ops, not time); wall_us / modules_per_sec are
   measured and vary run to run. *)
type service_metrics = {
  sv_requests : int;
  sv_hits : int;
  sv_misses : int;
  sv_evictions : int;
  sv_hit_rate : float;
  sv_cost_p50 : int;  (** compile-latency percentiles, in cost units *)
  sv_cost_p90 : int;
  sv_cost_p99 : int;
  sv_wall_us : int;  (** measured: total batch wall time *)
  sv_modules_per_sec : float;  (** measured: requests / wall time *)
}

type report = {
  r_schema_version : int;
  r_label : string;
  r_entries : entry list;
  r_service : service_metrics;
}

(* ---------------------------------------------------------------- *)
(* Collection                                                        *)

let metrics_of (m : Common.measurement) : config_metrics =
  let res = m.Common.m_result in
  let sum f =
    List.fold_left (fun acc (_, s) -> acc + f s) 0 res.Host_interp.per_kernel
  in
  let reg = res.Host_interp.metrics in
  let pct p =
    Option.value ~default:0
      (Metrics.percentile reg "runtime.launch_latency_cycles" p)
  in
  {
    cm_cycles = m.Common.m_cycles;
    cm_valid = m.Common.m_valid;
    cm_device_cycles = res.Host_interp.device_cycles;
    cm_transfer_cycles = res.Host_interp.transfer_cycles;
    cm_kernel_launches = res.Host_interp.kernel_launches;
    cm_global_transactions = sum (fun s -> s.Cost.global_transactions);
    cm_local_transactions = sum (fun s -> s.Cost.local_transactions);
    cm_transfer_bytes_h2d = Metrics.counter_value reg "runtime.transfer_bytes_h2d";
    cm_transfer_bytes_d2h = Metrics.counter_value reg "runtime.transfer_bytes_d2h";
    cm_dag_wait_edges = Metrics.counter_value reg "runtime.dag_wait_edges";
    cm_launch_p50 = pct 50.0;
    cm_launch_p90 = pct 90.0;
    cm_launch_p99 = pct 99.0;
  }

(** The workload's top-[n] hotspot lines, from an extra annotated run:
    the located copy (printed and re-parsed under a virtual file name)
    measured under the SYCL-MLIR configuration. Deterministic — the
    simulator and the attribution's canonical ordering are. *)
let top_hotspots ~sim ?(n = 3) (w : Common.workload) : hotspot list =
  let m =
    Common.measure ~sim
      (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
      (Annotate.located_workload w)
  in
  let tab =
    Sycl_sim.Attribution.merge_launches
      m.Common.m_result.Host_interp.per_kernel_attribution
  in
  let total = Sycl_sim.Attribution.total_cycles tab in
  Sycl_sim.Attribution.by_line tab
  |> List.filteri (fun i _ -> i < n)
  |> List.map (fun (r : Sycl_sim.Attribution.line_row) ->
         {
           h_line = r.Sycl_sim.Attribution.l_line;
           h_cycles = r.Sycl_sim.Attribution.l_cycles;
           h_share =
             (if total = 0 then 0.0
              else
                float_of_int r.Sycl_sim.Attribution.l_cycles
                /. float_of_int total);
         })

(** The v6 cache section: compile the workload under SYCL-MLIR and run
    it once more under [sim] with the direct-mapped cache model.
    Counters and reuse percentiles come from the run's merged table. *)
let cache_of_workload ~sim (w : Common.workload) : cache_metrics =
  let m = w.Common.w_module () in
  ignore
    (Sycl_core.Driver.compile
       (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
       m);
  let args, _ = w.Common.w_data () in
  let r =
    Common.run_host
      ~sim:{ sim with Sycl_sim.Sim_config.cache_model = Cost.Direct_mapped }
      m args
  in
  let tab =
    Sycl_sim.Attribution.merge_launches r.Host_interp.per_kernel_attribution
  in
  let sum f =
    List.fold_left
      (fun acc (_, c) -> acc + f c)
      0
      (Sycl_sim.Attribution.rows tab)
  in
  let hits = sum (fun c -> c.Sycl_sim.Attribution.c_hits) in
  let misses = sum (fun c -> c.Sycl_sim.Attribution.c_misses) in
  let pct p =
    Option.value ~default:0
      (Option.bind tab.Sycl_sim.Attribution.reuse (fun h ->
           Metrics.hist_percentile h p))
  in
  {
    ca_hits = hits;
    ca_misses = misses;
    ca_evictions = sum (fun c -> c.Sycl_sim.Attribution.c_evictions);
    ca_hit_rate = Sycl_sim.Cache.hit_rate ~hits ~misses;
    ca_reuse_p50 = pct 50.0;
    ca_reuse_p90 = pct 90.0;
    ca_reuse_p99 = pct 99.0;
  }

(* "pass/stat" -> (pass, stat); merged stats always carry the slash. *)
let split_stat key =
  match String.index_opt key '/' with
  | Some i ->
    (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  | None -> ("", key)

(** Pull the per-pass value of [stat] out of merged "pass/stat" pairs.
    Sorted by pass name (the stats list is already key-sorted, but be
    explicit — this ordering is what the determinism diff compares). *)
let per_pass_stat (pass_stats : (string * int) list) ~stat =
  List.filter_map
    (fun (k, v) ->
      let pass, s = split_stat k in
      if s = stat || s = pass ^ "." ^ stat then Some (pass, v) else None)
    pass_stats
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Compiler-speed counters for one workload: print the module, parse it
    back (counting ops and characters), run the full SYCL-MLIR pipeline
    once under the clock for the measured wall time, and pull the
    deterministic ops-visited / rewrites counters from the measured
    run's merged stats. *)
let compile_of_comparison (c : Common.comparison) : compile_metrics =
  let w = c.Common.c_workload in
  let pass_stats =
    Pass.Stats.to_list (Pass.merged_stats c.Common.c_sycl_mlir.Common.m_compile)
  in
  let text = Mlir.Printer.to_string (w.Common.w_module ()) in
  let t0 = Unix.gettimeofday () in
  let parsed = Parser.parse_module ~file:(w.Common.w_name ^ ".mlir") text in
  let cfg = Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir in
  ignore (Sycl_core.Driver.compile cfg parsed);
  let wall_us =
    max 1 (int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1e6)))
  in
  let parse_ops = ref 0 in
  Core.walk parsed ~f:(fun _ -> incr parse_ops);
  {
    co_parse_ops = !parse_ops;
    co_parse_chars = String.length text;
    co_ops_visited = per_pass_stat pass_stats ~stat:"ops_visited";
    co_rewrites = per_pass_stat pass_stats ~stat:"rewrites";
    co_wall_us = wall_us;
  }

let entry_of_comparison ~sim (c : Common.comparison) : entry =
  let w = c.Common.c_workload in
  {
    e_name = w.Common.w_name;
    e_category = Common.category_to_string w.Common.w_category;
    e_problem_size = w.Common.w_problem_size;
    e_configs =
      (("dpcpp", metrics_of c.Common.c_base)
       ::
       (match c.Common.c_acpp with
       | Some m -> [ ("acpp", metrics_of m) ]
       | None -> []))
      @ [ ("sycl-mlir", metrics_of c.Common.c_sycl_mlir) ];
    e_speedup = Common.speedup c.Common.c_base c.Common.c_sycl_mlir;
    e_pass_stats =
      Pass.Stats.to_list (Pass.merged_stats c.Common.c_sycl_mlir.Common.m_compile);
    e_hotspots = top_hotspots ~sim w;
    e_compile = compile_of_comparison c;
    e_cache = cache_of_workload ~sim w;
  }

(* Sweep every workload module through the compile service twice: round
   one is all cold compiles, round two must be served from the cache, so
   the hit rate lands at exactly 1/2 (the capacity is far above the
   suite size — no evictions, hence deterministic counters). *)
let collect_service (workloads : Common.workload list) : service_metrics =
  let cfg = Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir in
  let pipeline = Sycl_core.Driver.pipeline cfg in
  let service =
    Service.create ~cache_capacity:1024 ~pipeline
      ~pipeline_key:(Sycl_core.Driver.config_key cfg) ()
  in
  let requests =
    List.map
      (fun (w : Common.workload) ->
        { Service.rq_name = w.Common.w_name;
          rq_text = Mlir.Printer.to_string (w.Common.w_module ()) })
      workloads
  in
  ignore (Service.run_batch service requests);
  ignore (Service.run_batch service requests);
  let reg = Service.metrics service in
  let c n = Metrics.counter_value reg n in
  let pct p =
    Option.value ~default:0
      (Metrics.percentile reg "service.compile_cost_units" p)
  in
  let hits = c "service.cache_hits" and misses = c "service.cache_misses" in
  let requests_total = c "service.requests" in
  let wall_us = c "service.batch_wall_us" in
  {
    sv_requests = requests_total;
    sv_hits = hits;
    sv_misses = misses;
    sv_evictions = c "service.cache_evictions";
    sv_hit_rate =
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
    sv_cost_p50 = pct 50.0;
    sv_cost_p90 = pct 90.0;
    sv_cost_p99 = pct 99.0;
    sv_wall_us = wall_us;
    sv_modules_per_sec =
      float_of_int requests_total *. 1e6 /. float_of_int (max 1 wall_us);
  }

let collect ?(sim = Sycl_sim.Sim_config.default) ~label
    (workloads : Common.workload list) : report =
  let entries =
    List.map
      (fun w -> entry_of_comparison ~sim (Common.compare_workload ~sim w))
      workloads
  in
  let service = collect_service workloads in
  {
    r_schema_version = schema_version;
    r_label = label;
    r_entries = entries;
    r_service = service;
  }

(* ---------------------------------------------------------------- *)
(* JSON (via the shared Mlir.Json printer/parser)                    *)

let metrics_to_json (m : config_metrics) : Json.t =
  Json.Obj
    [ ("cycles", Json.Int m.cm_cycles);
      ("valid", Json.Bool m.cm_valid);
      ("device_cycles", Json.Int m.cm_device_cycles);
      ("transfer_cycles", Json.Int m.cm_transfer_cycles);
      ("kernel_launches", Json.Int m.cm_kernel_launches);
      ("global_transactions", Json.Int m.cm_global_transactions);
      ("local_transactions", Json.Int m.cm_local_transactions);
      ( "metrics",
        Json.Obj
          [ ("transfer_bytes_h2d", Json.Int m.cm_transfer_bytes_h2d);
            ("transfer_bytes_d2h", Json.Int m.cm_transfer_bytes_d2h);
            ("dag_wait_edges", Json.Int m.cm_dag_wait_edges);
            ( "launch_latency",
              Json.Obj
                [ ("p50", Json.Int m.cm_launch_p50);
                  ("p90", Json.Int m.cm_launch_p90);
                  ("p99", Json.Int m.cm_launch_p99) ] ) ] ) ]

let hotspot_to_json (h : hotspot) : Json.t =
  Json.Obj
    [ ("line", Json.String h.h_line);
      ("cycles", Json.Int h.h_cycles);
      ("share", Json.Float h.h_share) ]

(* Like the service section, the entry's machine-dependent wall time is
   isolated under "measured" so the CI determinism diff can drop exactly
   that subtree; everything else in "compile" is deterministic and
   gated. *)
let compile_to_json (c : compile_metrics) : Json.t =
  let counts kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
  Json.Obj
    [ ( "parse",
        Json.Obj
          [ ("ops", Json.Int c.co_parse_ops);
            ("chars", Json.Int c.co_parse_chars) ] );
      ("ops_visited", counts c.co_ops_visited);
      ("rewrites", counts c.co_rewrites);
      ("measured", Json.Obj [ ("wall_us", Json.Int c.co_wall_us) ]) ]

let cache_to_json (c : cache_metrics) : Json.t =
  Json.Obj
    [ ("model", Json.String "dm");
      ("hits", Json.Int c.ca_hits);
      ("misses", Json.Int c.ca_misses);
      ("evictions", Json.Int c.ca_evictions);
      ("hit_rate", Json.Float c.ca_hit_rate);
      ( "reuse",
        Json.Obj
          [ ("p50", Json.Int c.ca_reuse_p50);
            ("p90", Json.Int c.ca_reuse_p90);
            ("p99", Json.Int c.ca_reuse_p99) ] ) ]

let entry_to_json (e : entry) : Json.t =
  Json.Obj
    [ ("name", Json.String e.e_name);
      ("category", Json.String e.e_category);
      ("problem_size", Json.Int e.e_problem_size);
      ( "configs",
        Json.Obj (List.map (fun (k, m) -> (k, metrics_to_json m)) e.e_configs) );
      ("speedup_sycl_mlir", Json.Float e.e_speedup);
      ( "pass_stats",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.e_pass_stats) );
      ("hotspots", Json.List (List.map hotspot_to_json e.e_hotspots));
      ("compile", compile_to_json e.e_compile);
      ("cache", cache_to_json e.e_cache) ]

(* The "measured" subobject isolates every machine-dependent field; CI's
   determinism comparison drops exactly that subtree and compares the
   rest byte-for-byte. *)
let service_to_json (s : service_metrics) : Json.t =
  Json.Obj
    [ ("requests", Json.Int s.sv_requests);
      ("cache_hits", Json.Int s.sv_hits);
      ("cache_misses", Json.Int s.sv_misses);
      ("evictions", Json.Int s.sv_evictions);
      ("hit_rate", Json.Float s.sv_hit_rate);
      ( "compile_latency",
        Json.Obj
          [ ("unit", Json.String "cost-units");
            ("p50", Json.Int s.sv_cost_p50);
            ("p90", Json.Int s.sv_cost_p90);
            ("p99", Json.Int s.sv_cost_p99) ] );
      ( "measured",
        Json.Obj
          [ ("wall_us", Json.Int s.sv_wall_us);
            ("modules_per_sec", Json.Float s.sv_modules_per_sec) ] ) ]

let to_json (r : report) : string =
  Json.to_string
    (Json.Obj
       [ ("schema_version", Json.Int r.r_schema_version);
         ("label", Json.String r.r_label);
         ("workloads", Json.List (List.map entry_to_json r.r_entries));
         ("service", service_to_json r.r_service) ])
  ^ "\n"

exception Report_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Report_error s)) fmt

let req name v =
  match v with Some x -> x | None -> fail "missing or ill-typed field %S" name

let get_int j name = req name (Option.bind (Json.member name j) Json.as_int)
let get_str j name = req name (Option.bind (Json.member name j) Json.as_string)
let get_bool j name = req name (Option.bind (Json.member name j) Json.as_bool)

let metrics_of_json (j : Json.t) : config_metrics =
  let mj = req "metrics" (Json.member "metrics" j) in
  let lat = req "launch_latency" (Json.member "launch_latency" mj) in
  {
    cm_cycles = get_int j "cycles";
    cm_valid = get_bool j "valid";
    cm_device_cycles = get_int j "device_cycles";
    cm_transfer_cycles = get_int j "transfer_cycles";
    cm_kernel_launches = get_int j "kernel_launches";
    cm_global_transactions = get_int j "global_transactions";
    cm_local_transactions = get_int j "local_transactions";
    cm_transfer_bytes_h2d = get_int mj "transfer_bytes_h2d";
    cm_transfer_bytes_d2h = get_int mj "transfer_bytes_d2h";
    cm_dag_wait_edges = get_int mj "dag_wait_edges";
    cm_launch_p50 = get_int lat "p50";
    cm_launch_p90 = get_int lat "p90";
    cm_launch_p99 = get_int lat "p99";
  }

let entry_of_json (j : Json.t) : entry =
  {
    e_name = get_str j "name";
    e_category = get_str j "category";
    e_problem_size = get_int j "problem_size";
    e_configs =
      (match Json.member "configs" j with
      | Some (Json.Obj kvs) ->
        List.map (fun (k, v) -> (k, metrics_of_json v)) kvs
      | _ -> fail "missing or ill-typed field %S" "configs");
    e_speedup =
      req "speedup_sycl_mlir"
        (Option.bind (Json.member "speedup_sycl_mlir" j) Json.as_float);
    e_pass_stats =
      (match Json.member "pass_stats" j with
      | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) ->
            match Json.as_int v with
            | Some n -> (k, n)
            | None -> fail "pass_stats value for %S is not an integer" k)
          kvs
      | _ -> fail "missing or ill-typed field %S" "pass_stats");
    e_hotspots =
      (match Json.member "hotspots" j with
      | Some (Json.List items) ->
        List.map
          (fun h ->
            {
              h_line = get_str h "line";
              h_cycles = get_int h "cycles";
              h_share =
                req "share" (Option.bind (Json.member "share" h) Json.as_float);
            })
          items
      | _ -> fail "missing or ill-typed field %S" "hotspots");
    e_compile =
      (let cj = req "compile" (Json.member "compile" j) in
       let pj = req "parse" (Json.member "parse" cj) in
       let counts name =
         match Json.member name cj with
         | Some (Json.Obj kvs) ->
           List.map
             (fun (k, v) ->
               match Json.as_int v with
               | Some n -> (k, n)
               | None -> fail "compile.%s value for %S is not an integer" name k)
             kvs
         | _ -> fail "missing or ill-typed field %S" ("compile." ^ name)
       in
       let measured = req "measured" (Json.member "measured" cj) in
       {
         co_parse_ops = get_int pj "ops";
         co_parse_chars = get_int pj "chars";
         co_ops_visited = counts "ops_visited";
         co_rewrites = counts "rewrites";
         co_wall_us = get_int measured "wall_us";
       });
    e_cache =
      (let cj = req "cache" (Json.member "cache" j) in
       let rj = req "reuse" (Json.member "reuse" cj) in
       {
         ca_hits = get_int cj "hits";
         ca_misses = get_int cj "misses";
         ca_evictions = get_int cj "evictions";
         ca_hit_rate =
           req "hit_rate" (Option.bind (Json.member "hit_rate" cj) Json.as_float);
         ca_reuse_p50 = get_int rj "p50";
         ca_reuse_p90 = get_int rj "p90";
         ca_reuse_p99 = get_int rj "p99";
       });
  }

let get_float j name =
  req name (Option.bind (Json.member name j) Json.as_float)

let service_of_json (j : Json.t) : service_metrics =
  let lat = req "compile_latency" (Json.member "compile_latency" j) in
  let measured = req "measured" (Json.member "measured" j) in
  {
    sv_requests = get_int j "requests";
    sv_hits = get_int j "cache_hits";
    sv_misses = get_int j "cache_misses";
    sv_evictions = get_int j "evictions";
    sv_hit_rate = get_float j "hit_rate";
    sv_cost_p50 = get_int lat "p50";
    sv_cost_p90 = get_int lat "p90";
    sv_cost_p99 = get_int lat "p99";
    sv_wall_us = get_int measured "wall_us";
    sv_modules_per_sec = get_float measured "modules_per_sec";
  }

let of_json (s : string) : report =
  let j =
    match Json.parse s with
    | j -> j
    | exception Json.Parse_error msg -> fail "invalid JSON: %s" msg
  in
  let version = get_int j "schema_version" in
  if version <> schema_version then
    fail "unsupported schema version %d (expected %d)" version schema_version;
  {
    r_schema_version = version;
    r_label = get_str j "label";
    r_entries =
      (match Json.member "workloads" j with
      | Some (Json.List items) -> List.map entry_of_json items
      | _ -> fail "missing or ill-typed field %S" "workloads");
    r_service = service_of_json (req "service" (Json.member "service" j));
  }

(* ---------------------------------------------------------------- *)
(* Comparison                                                        *)

type issue_kind =
  | Cycle_regression
  | Latency_regression  (** a launch-latency percentile grew past tolerance *)
  | Validity_regression
  | Missing_workload
  | Missing_config
  | Compile_latency_regression
      (** a compile-service cost-unit percentile grew past tolerance *)
  | Hit_rate_regression  (** the service cache hit rate dropped past tolerance *)
  | Compiler_speed_regression
      (** a deterministic compiler-speed counter (ops visited, rewrites,
          parser ops/chars) grew past tolerance (v5) *)

type issue = {
  i_kind : issue_kind;
  i_workload : string;
  i_config : string;  (** "" for workload-level issues *)
  i_detail : string;
}

let issue_to_string (i : issue) =
  if i.i_config = "" then Printf.sprintf "%s: %s" i.i_workload i.i_detail
  else Printf.sprintf "%s [%s]: %s" i.i_workload i.i_config i.i_detail

(** Compare [current] against [baseline]: cycle counts and
    launch-latency percentiles may grow by at most [tolerance] (a
    fraction, default 5%), validity must not regress, and every baseline
    workload/config must still be present. New workloads and
    improvements are fine. *)
let compare_reports ?(tolerance = 0.05) ~(baseline : report)
    (current : report) : issue list =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  List.iter
    (fun (old_e : entry) ->
      match
        List.find_opt (fun e -> e.e_name = old_e.e_name) current.r_entries
      with
      | None ->
        add
          { i_kind = Missing_workload; i_workload = old_e.e_name;
            i_config = "";
            i_detail =
              Printf.sprintf "workload present in %s but missing from %s"
                baseline.r_label current.r_label }
      | Some new_e ->
        List.iter
          (fun (cfg, (old_m : config_metrics)) ->
            match List.assoc_opt cfg new_e.e_configs with
            | None ->
              add
                { i_kind = Missing_config; i_workload = old_e.e_name;
                  i_config = cfg;
                  i_detail = "configuration missing from the new report" }
            | Some new_m ->
              let budget_of v =
                int_of_float
                  (Float.round (float_of_int v *. (1.0 +. tolerance)))
              in
              let gate ?(hint = "") kind what old_v new_v =
                if new_v > budget_of old_v then
                  add
                    { i_kind = kind; i_workload = old_e.e_name;
                      i_config = cfg;
                      i_detail =
                        Printf.sprintf
                          "%s regressed %d -> %d (+%.1f%%, tolerance %.1f%%)%s"
                          what old_v new_v
                          (100.0
                          *. (float_of_int new_v /. float_of_int (max 1 old_v)
                             -. 1.0))
                          (100.0 *. tolerance) hint }
              in
              (* A cycle regression names the line that now dominates the
                 workload (the v4 hotspot section) — the gate itself stays
                 on the cycle tolerance. *)
              let hot_hint =
                match new_e.e_hotspots with
                | h :: _ ->
                  Printf.sprintf "; hottest line: %s (%d cycles, %.1f%%)"
                    h.h_line h.h_cycles (100.0 *. h.h_share)
                | [] -> ""
              in
              gate ~hint:hot_hint Cycle_regression "cycles" old_m.cm_cycles
                new_m.cm_cycles;
              gate Latency_regression "launch latency p50"
                old_m.cm_launch_p50 new_m.cm_launch_p50;
              gate Latency_regression "launch latency p90"
                old_m.cm_launch_p90 new_m.cm_launch_p90;
              gate Latency_regression "launch latency p99"
                old_m.cm_launch_p99 new_m.cm_launch_p99;
              if old_m.cm_valid && not new_m.cm_valid then
                add
                  { i_kind = Validity_regression; i_workload = old_e.e_name;
                    i_config = cfg;
                    i_detail = "result validated in the baseline but no longer does" })
          old_e.e_configs;
        (* v5 compiler-speed gate: the deterministic counters obey the
           same growth budget as cycles. Wall time ("measured") is
           deliberately not inspected here. A pass present in the
           baseline but absent from the new report was removed from the
           pipeline — not a regression. *)
        let gate_speed what old_v new_v =
          let budget =
            int_of_float
              (Float.round (float_of_int old_v *. (1.0 +. tolerance)))
          in
          if new_v > budget then
            add
              { i_kind = Compiler_speed_regression; i_workload = old_e.e_name;
                i_config = "sycl-mlir";
                i_detail =
                  Printf.sprintf
                    "%s regressed %d -> %d (+%.1f%%, tolerance %.1f%%)"
                    what old_v new_v
                    (100.0
                    *. (float_of_int new_v /. float_of_int (max 1 old_v)
                       -. 1.0))
                    (100.0 *. tolerance) }
        in
        let c_old = old_e.e_compile and c_new = new_e.e_compile in
        gate_speed "parser ops processed" c_old.co_parse_ops
          c_new.co_parse_ops;
        gate_speed "parser chars processed" c_old.co_parse_chars
          c_new.co_parse_chars;
        List.iter
          (fun (pass, old_v) ->
            match List.assoc_opt pass c_new.co_ops_visited with
            | Some new_v ->
              gate_speed (pass ^ " ops visited") old_v new_v
            | None -> ())
          c_old.co_ops_visited;
        List.iter
          (fun (pass, old_v) ->
            match List.assoc_opt pass c_new.co_rewrites with
            | Some new_v -> gate_speed (pass ^ " rewrites") old_v new_v
            | None -> ())
          c_old.co_rewrites;
        (* v6 cache gate: the simulated data-cache hit rate under the
           direct-mapped model may not drop by more than the tolerance
           fraction. Counters are deterministic, so there is no epsilon
           beyond float-comparison slack. *)
        let ca_old = old_e.e_cache and ca_new = new_e.e_cache in
        if
          ca_new.ca_hit_rate < (ca_old.ca_hit_rate *. (1.0 -. tolerance)) -. 1e-9
        then
          add
            { i_kind = Hit_rate_regression; i_workload = old_e.e_name;
              i_config = "sycl-mlir";
              i_detail =
                Printf.sprintf
                  "data-cache hit rate regressed %.1f%% -> %.1f%% (dm model, \
                   tolerance %.1f%%)"
                  (100.0 *. ca_old.ca_hit_rate) (100.0 *. ca_new.ca_hit_rate)
                  (100.0 *. tolerance) })
    baseline.r_entries;
  (* Report-level compile-service gates: the deterministic cost-unit
     percentiles obey the same growth budget as cycles; the hit rate may
     not drop by more than the tolerance fraction. Wall-clock throughput
     is machine-dependent and deliberately not gated. *)
  let s_old = baseline.r_service and s_new = current.r_service in
  let gate_cost what old_v new_v =
    if
      new_v
      > int_of_float (Float.round (float_of_int old_v *. (1.0 +. tolerance)))
    then
      add
        { i_kind = Compile_latency_regression; i_workload = "<service>";
          i_config = "";
          i_detail =
            Printf.sprintf
              "%s regressed %d -> %d cost units (+%.1f%%, tolerance %.1f%%)"
              what old_v new_v
              (100.0
              *. (float_of_int new_v /. float_of_int (max 1 old_v) -. 1.0))
              (100.0 *. tolerance) }
  in
  gate_cost "compile latency p50" s_old.sv_cost_p50 s_new.sv_cost_p50;
  gate_cost "compile latency p90" s_old.sv_cost_p90 s_new.sv_cost_p90;
  gate_cost "compile latency p99" s_old.sv_cost_p99 s_new.sv_cost_p99;
  if s_new.sv_hit_rate < (s_old.sv_hit_rate *. (1.0 -. tolerance)) -. 1e-9 then
    add
      { i_kind = Hit_rate_regression; i_workload = "<service>"; i_config = "";
        i_detail =
          Printf.sprintf
            "cache hit rate regressed %.1f%% -> %.1f%% (tolerance %.1f%%)"
            (100.0 *. s_old.sv_hit_rate) (100.0 *. s_new.sv_hit_rate)
            (100.0 *. tolerance) };
  List.rev !issues
