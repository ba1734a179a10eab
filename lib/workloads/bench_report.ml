(* Benchmark metrics pipeline: a schema-versioned JSON snapshot of the
   simulated evaluation (per-workload cycles, memory traffic, validity,
   compile-time pass statistics) plus an exact field diff. `bench report`
   writes one; `bench compare old.json new.json` lists every
   deterministic field that differs and fails on any. The simulator is
   deterministic, so every field outside [label] and the "measured"
   subtrees must equal the checked-in baseline's. *)

open Mlir
module Host_interp = Sycl_runtime.Host_interp
module Cost = Sycl_sim.Cost
module Metrics = Sycl_obs.Metrics
module Service = Sycl_service.Service

(* v2: every config carries a "metrics" section (transfer bytes by
   direction, DAG-wait edge count, launch-latency percentiles) fed by
   the runtime telemetry registry.
   v3: a report-level "service" section from a two-round compile-service
   sweep of the suite — cache hit/miss/eviction counters and
   compile-latency percentiles in deterministic cost units, plus measured
   wall-clock throughput under "measured" (machine-dependent, so left out
   of [diff]).
   v4: every workload carries a "hotspots" section — the top-3 source
   lines by attributed device cycles from a located SYCL-MLIR run — so a
   cycle difference comes with the line that now dominates.
   v5: every workload carries a "compile" section of deterministic
   compiler-speed counters — ops visited per pass (the rewrite drivers,
   CSE and store-forwarding count every op they examine), rewrites per
   pass, and parser ops/chars processed — so a pass that quietly returns
   to rescanning the module changes the report. Compile wall time lives
   in the entry's "measured" subobject.
   v6: every workload carries a "cache" section from an extra SYCL-MLIR
   run under the direct-mapped cache model (--cache-model dm):
   hit/miss/eviction counters, the hit rate and the exact
   reuse-distance percentiles. All deterministic (each group probes its
   own cache in execution order), so a transform that quietly destroys
   locality changes the report. *)
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
    the SYCL-MLIR configuration, plus measured wall time. *)
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
    model. Deterministic — each group probes its own cache in execution
    order, sub-groups in order and lanes in lockstep. *)
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

(** The top-[n] hotspot lines of the SYCL-MLIR measurement [m], whose
    located module points them into the workload's IR dump.
    Deterministic — the simulator and the attribution's canonical
    ordering are. *)
let top_hotspots ?(n = 3) (m : Common.measurement) : hotspot list =
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

(** The v6 cache section: the workload measured under SYCL-MLIR once
    more, with [sim]'s direct-mapped cache model. Counters and reuse
    percentiles come from the run's merged table. *)
let cache_of_workload ~sim (w : Common.workload) : cache_metrics =
  let m =
    Common.measure
      ~sim:{ sim with Sycl_sim.Sim_config.cache_model = Cost.Direct_mapped }
      (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
      w
  in
  let tab =
    Sycl_sim.Attribution.merge_launches
      m.Common.m_result.Host_interp.per_kernel_attribution
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

(** Compiler-speed counters for one workload: print the module and parse
    it back under the clock (counting the ops the parse materialized and
    the characters it read), and pull the deterministic ops-visited /
    rewrites counters from the SYCL-MLIR measurement's merged stats. The
    wall time is that parse plus the measurement's own pipeline run. *)
let compile_of_comparison (c : Common.comparison) : compile_metrics =
  let w = c.Common.c_workload in
  let compiled = c.Common.c_sycl_mlir.Common.m_compile in
  let pass_stats = Pass.Stats.to_list (Pass.merged_stats compiled) in
  let text = Mlir.Printer.to_string (w.Common.w_module ()) in
  let t0 = Unix.gettimeofday () in
  let parsed = Parser.parse_module ~file:(w.Common.w_name ^ ".mlir") text in
  let parse_seconds = Unix.gettimeofday () -. t0 in
  let parse_ops = ref 0 in
  Core.walk parsed ~f:(fun _ -> incr parse_ops);
  {
    co_parse_ops = !parse_ops;
    co_parse_chars = String.length text;
    co_ops_visited = per_pass_stat pass_stats ~stat:"ops_visited";
    co_rewrites = per_pass_stat pass_stats ~stat:"rewrites";
    co_wall_us =
      max 1
        (int_of_float
           (Float.round ((parse_seconds +. compiled.Pass.wall) *. 1e6)));
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
    e_hotspots = top_hotspots c.Common.c_sycl_mlir;
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
   isolated under "measured", the subtree [diff] leaves out; everything
   else in "compile" is deterministic. *)
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

(* The "measured" subobject isolates every machine-dependent field; [diff]
   leaves out exactly that subtree and compares the rest. *)
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

(* The one list of run-varying fields: the label, and every "measured"
   subtree (compile wall time, service throughput). *)
let rec deterministic ~top (j : Json.t) : Json.t =
  match j with
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "measured" || (top && k = "label") then None
           else Some (k, deterministic ~top:false v))
         kvs)
  | Json.List l -> Json.List (List.map (deterministic ~top:false) l)
  | j -> j

let union xs ys = xs @ List.filter (fun y -> not (List.mem y xs)) ys

(* The names of a list whose objects each carry a distinct "name". *)
let names (l : Json.t list) =
  let ns =
    List.filter_map
      (fun j -> Option.bind (Json.member "name" j) Json.as_string)
      l
  in
  let n = List.length ns in
  if n = List.length l && List.length (List.sort_uniq compare ns) = n then
    Some ns
  else None

let diff (a : Json.t) (b : Json.t) : string list =
  let out = ref [] in
  let show = function
    | None -> "<missing>"
    | Some v -> Json.to_string ~compact:true v
  in
  let add path x y =
    out := Printf.sprintf "%s: %s -> %s" path (show x) (show y) :: !out
  in
  let rec go path x y =
    match (x, y) with
    | Some (Json.Obj xs), Some (Json.Obj ys) ->
      List.iter
        (fun k ->
          go
            (if path = "" then k else path ^ "." ^ k)
            (List.assoc_opt k xs) (List.assoc_opt k ys))
        (union (List.map fst xs) (List.map fst ys))
    | Some (Json.List xs), Some (Json.List ys) -> (
      match (names xs, names ys) with
      | Some nx, Some ny ->
        let kx = List.combine nx xs and ky = List.combine ny ys in
        List.iter
          (fun n ->
            go
              (Printf.sprintf "%s[%s]" path n)
              (List.assoc_opt n kx) (List.assoc_opt n ky))
          (union nx ny);
        let common ns others = List.filter (fun n -> List.mem n others) ns in
        let order ns = Some (Json.List (List.map (fun n -> Json.String n) ns)) in
        if common nx ny <> common ny nx then
          add (path ^ " (order)") (order (common nx ny)) (order (common ny nx))
      | _ ->
        for i = 0 to max (List.length xs) (List.length ys) - 1 do
          go
            (Printf.sprintf "%s[%d]" path i)
            (List.nth_opt xs i) (List.nth_opt ys i)
        done)
    | _ -> if x <> y then add path x y
  in
  go "" (Some (deterministic ~top:true a)) (Some (deterministic ~top:true b));
  List.rev !out
