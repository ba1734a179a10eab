(* The benchmark-regression pipeline: JSON round-trip of reports, the
   comparator's regression/tolerance/missing-workload semantics, and one
   measured end-to-end snapshot. *)

module BR = Sycl_workloads.Bench_report
module W = Sycl_workloads

let metrics ?(cycles = 1000) ?(valid = true) ?(p99 = 800) () :
    BR.config_metrics =
  {
    BR.cm_cycles = cycles;
    cm_valid = valid;
    cm_device_cycles = cycles / 2;
    cm_transfer_cycles = cycles / 4;
    cm_kernel_launches = 1;
    cm_global_transactions = 64;
    cm_local_transactions = 8;
    cm_transfer_bytes_h2d = 4096;
    cm_transfer_bytes_d2h = 1024;
    cm_dag_wait_edges = 2;
    cm_launch_p50 = min 500 p99;
    cm_launch_p90 = min 700 p99;
    cm_launch_p99 = p99;
  }

let compile ?(ops_visited = 400) ?(rewrites = 20) ?(parse_ops = 120) () :
    BR.compile_metrics =
  {
    BR.co_parse_ops = parse_ops;
    co_parse_chars = parse_ops * 40;
    co_ops_visited = [ ("canonicalize", ops_visited); ("cse", 150) ];
    co_rewrites = [ ("canonicalize", rewrites) ];
    co_wall_us = 777;
  }

let cache ?(hit_rate = 0.75) () : BR.cache_metrics =
  {
    BR.ca_hits = 48;
    ca_misses = 16;
    ca_evictions = 4;
    ca_hit_rate = hit_rate;
    ca_reuse_p50 = 3;
    ca_reuse_p90 = 8;
    ca_reuse_p99 = 12;
  }

let entry ?(name = "w") ?(configs = []) ?(compile = compile ())
    ?(cache = cache ()) () : BR.entry =
  {
    BR.e_name = name;
    e_category = "single-kernel";
    e_problem_size = 256;
    e_configs =
      (if configs = [] then
         [ ("dpcpp", metrics ()); ("sycl-mlir", metrics ~cycles:900 ()) ]
       else configs);
    e_speedup = 1.11;
    e_pass_stats = [ ("licm/licm.hoisted-pure", 3) ];
    e_hotspots =
      [ { BR.h_line = "w.sycl.mlir:17"; h_cycles = 400; h_share = 0.8 };
        { BR.h_line = "w.sycl.mlir:12"; h_cycles = 100; h_share = 0.2 } ];
    e_compile = compile;
    e_cache = cache;
  }

let service ?(hit_rate = 0.5) ?(cost_p99 = 4000) () : BR.service_metrics =
  {
    BR.sv_requests = 20;
    sv_hits = 10;
    sv_misses = 10;
    sv_evictions = 0;
    sv_hit_rate = hit_rate;
    sv_cost_p50 = min 2000 cost_p99;
    sv_cost_p90 = min 3000 cost_p99;
    sv_cost_p99 = cost_p99;
    sv_wall_us = 12345;
    sv_modules_per_sec = 1620.5;
  }

let report ?(label = "base") ?(service = service ()) entries : BR.report =
  {
    BR.r_schema_version = BR.schema_version;
    r_label = label;
    r_entries = entries;
    r_service = service;
  }

let kinds issues = List.map (fun i -> i.BR.i_kind) issues

let tests_list =
  [
    Alcotest.test_case "JSON round-trip preserves the report" `Quick (fun () ->
        let r = report [ entry ~name:"a" (); entry ~name:"b" () ] in
        let r' = BR.of_json (BR.to_json r) in
        Alcotest.(check bool) "equal" true (r = r'));
    Alcotest.test_case "self-comparison is clean" `Quick (fun () ->
        let r = report [ entry () ] in
        Alcotest.(check int) "no issues" 0
          (List.length (BR.compare_reports ~baseline:r r)));
    Alcotest.test_case "cycle regression beyond tolerance flags" `Quick
      (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let worse =
          report ~label:"new"
            [ entry ~name:"w"
                ~configs:
                  [ ("dpcpp", metrics ()); ("sycl-mlir", metrics ~cycles:1200 ()) ]
                () ]
        in
        match BR.compare_reports ~baseline:base worse with
        | [ i ] ->
          Alcotest.(check bool) "kind" true (i.BR.i_kind = BR.Cycle_regression);
          Alcotest.(check string) "config" "sycl-mlir" i.BR.i_config
        | issues -> Alcotest.failf "expected 1 issue, got %d" (List.length issues));
    Alcotest.test_case "tolerance boundary: exactly at budget passes" `Quick
      (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let at_limit cycles =
          report
            [ entry ~name:"w"
                ~configs:
                  [ ("dpcpp", metrics ()); ("sycl-mlir", metrics ~cycles ()) ]
                () ]
        in
        (* baseline sycl-mlir is 900 cycles; 5% budget = 945. *)
        Alcotest.(check int) "945 passes" 0
          (List.length (BR.compare_reports ~baseline:base (at_limit 945)));
        Alcotest.(check int) "946 fails" 1
          (List.length (BR.compare_reports ~baseline:base (at_limit 946)));
        Alcotest.(check int) "wider tolerance admits it" 0
          (List.length
             (BR.compare_reports ~tolerance:0.10 ~baseline:base (at_limit 946))));
    Alcotest.test_case "validity regression flags" `Quick (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let invalid =
          report
            [ entry ~name:"w"
                ~configs:
                  [ ("dpcpp", metrics ());
                    ("sycl-mlir", metrics ~cycles:900 ~valid:false ()) ]
                () ]
        in
        Alcotest.(check bool) "validity issue" true
          (List.mem BR.Validity_regression
             (kinds (BR.compare_reports ~baseline:base invalid))));
    Alcotest.test_case "missing workload and config flag" `Quick (fun () ->
        let base = report [ entry ~name:"kept" (); entry ~name:"dropped" () ] in
        let cur =
          report
            [ entry ~name:"kept" ~configs:[ ("dpcpp", metrics ()) ] () ]
        in
        let ks = kinds (BR.compare_reports ~baseline:base cur) in
        Alcotest.(check bool) "missing workload" true
          (List.mem BR.Missing_workload ks);
        Alcotest.(check bool) "missing config" true (List.mem BR.Missing_config ks));
    Alcotest.test_case "new workloads and improvements are fine" `Quick
      (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let better =
          report
            [ entry ~name:"w"
                ~configs:
                  [ ("dpcpp", metrics ()); ("sycl-mlir", metrics ~cycles:500 ()) ]
                ();
              entry ~name:"extra" () ]
        in
        Alcotest.(check int) "no issues" 0
          (List.length (BR.compare_reports ~baseline:base better)));
    Alcotest.test_case "malformed input raises Report_error" `Quick (fun () ->
        let bad s =
          match BR.of_json s with
          | _ -> Alcotest.failf "expected Report_error for %s" s
          | exception BR.Report_error _ -> ()
        in
        bad "not json";
        bad "{\"schema_version\": 999, \"label\": \"x\", \"workloads\": []}";
        bad "{\"label\": \"x\", \"workloads\": []}";
        bad
          (Printf.sprintf
             "{\"schema_version\": %d, \"label\": \"x\", \"workloads\": \
              [{\"name\": 3}]}"
             BR.schema_version));
    Alcotest.test_case "injected percentile regression fails the gate" `Quick
      (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let worse =
          report ~label:"new"
            [ entry ~name:"w"
                ~configs:
                  [ ("dpcpp", metrics ());
                    ("sycl-mlir", metrics ~cycles:900 ~p99:2000 ()) ]
                () ]
        in
        let issues = BR.compare_reports ~baseline:base worse in
        Alcotest.(check bool) "latency issue" true
          (List.mem BR.Latency_regression (kinds issues));
        Alcotest.(check bool) "no cycle issue" false
          (List.mem BR.Cycle_regression (kinds issues)));
    Alcotest.test_case "service compile-latency regression fails the gate"
      `Quick (fun () ->
        let base = report [ entry () ] in
        (* 5% budget over p99=4000 is 4200. *)
        let ok = report ~service:(service ~cost_p99:4200 ()) [ entry () ] in
        Alcotest.(check int) "at budget passes" 0
          (List.length (BR.compare_reports ~baseline:base ok));
        let worse = report ~service:(service ~cost_p99:4201 ()) [ entry () ] in
        let issues = BR.compare_reports ~baseline:base worse in
        Alcotest.(check bool) "compile-latency issue" true
          (List.mem BR.Compile_latency_regression (kinds issues));
        Alcotest.(check bool) "nothing else" true
          (List.for_all (fun k -> k = BR.Compile_latency_regression)
             (kinds issues)));
    Alcotest.test_case "service hit-rate regression fails the gate" `Quick
      (fun () ->
        let base = report [ entry () ] in
        (* 5% of 0.5 is 0.025: 0.475 passes, anything lower flags. *)
        let ok = report ~service:(service ~hit_rate:0.475 ()) [ entry () ] in
        Alcotest.(check int) "at budget passes" 0
          (List.length (BR.compare_reports ~baseline:base ok));
        let worse = report ~service:(service ~hit_rate:0.4 ()) [ entry () ] in
        Alcotest.(check bool) "hit-rate issue" true
          (List.mem BR.Hit_rate_regression
             (kinds (BR.compare_reports ~baseline:base worse))));
    Alcotest.test_case "workload data-cache hit-rate regression fails (v6)"
      `Quick (fun () ->
        let base = report [ entry ~name:"w" () ] in
        (* Baseline hit rate is 0.75; 5% of that is 0.0375, so 0.7125
           passes and anything lower flags against the workload. *)
        let at hr =
          report ~label:"new"
            [ entry ~name:"w" ~cache:(cache ~hit_rate:hr ()) () ]
        in
        Alcotest.(check int) "at budget passes" 0
          (List.length (BR.compare_reports ~baseline:base (at 0.7125)));
        (match BR.compare_reports ~baseline:base (at 0.6) with
        | [ i ] ->
          Alcotest.(check bool) "kind" true
            (i.BR.i_kind = BR.Hit_rate_regression);
          Alcotest.(check string) "workload" "w" i.BR.i_workload
        | issues ->
          Alcotest.failf "expected 1 issue, got %d" (List.length issues));
        Alcotest.(check int) "wider tolerance admits it" 0
          (List.length
             (BR.compare_reports ~tolerance:0.25 ~baseline:base (at 0.6))));
    Alcotest.test_case "compiler-speed regression fails the gate (v5)" `Quick
      (fun () ->
        let base = report [ entry ~name:"w" () ] in
        (* Baseline canonicalize ops_visited is 400; 5% budget = 420. *)
        let at n =
          report ~label:"new"
            [ entry ~name:"w" ~compile:(compile ~ops_visited:n ()) () ]
        in
        Alcotest.(check int) "at budget passes" 0
          (List.length (BR.compare_reports ~baseline:base (at 420)));
        let issues = BR.compare_reports ~baseline:base (at 421) in
        Alcotest.(check bool) "compiler-speed issue" true
          (List.mem BR.Compiler_speed_regression (kinds issues));
        Alcotest.(check bool) "nothing else" true
          (List.for_all (fun k -> k = BR.Compiler_speed_regression)
             (kinds issues)));
    Alcotest.test_case "parser counters are gated, wall time is not" `Quick
      (fun () ->
        let base = report [ entry ~name:"w" () ] in
        (* Wall time is "measured": a 100x change must not flag. *)
        let slow =
          report ~label:"new"
            [ entry ~name:"w"
                ~compile:{ (compile ()) with BR.co_wall_us = 77_700 }
                () ]
        in
        Alcotest.(check int) "wall time not gated" 0
          (List.length (BR.compare_reports ~baseline:base slow));
        let more_parse =
          report ~label:"new"
            [ entry ~name:"w" ~compile:(compile ~parse_ops:200 ()) () ]
        in
        Alcotest.(check bool) "parse ops gated" true
          (List.mem BR.Compiler_speed_regression
             (kinds (BR.compare_reports ~baseline:base more_parse)));
        (* A pass removed from the pipeline is not a regression. *)
        let removed =
          report ~label:"new"
            [ entry ~name:"w"
                ~compile:
                  { (compile ()) with
                    BR.co_ops_visited = [ ("cse", 150) ];
                    co_rewrites = [];
                  }
                () ]
        in
        Alcotest.(check int) "removed pass is fine" 0
          (List.length (BR.compare_reports ~baseline:base removed)));
    Alcotest.test_case "measured snapshot round-trips and self-compares clean"
      `Slow (fun () ->
        let r =
          BR.collect ~label:"test" [ W.Single_kernel.vec_add ~n:256 ]
        in
        let r' = BR.of_json (BR.to_json r) in
        Alcotest.(check bool) "round-trip equal" true (r = r');
        Alcotest.(check int) "self-compare clean" 0
          (List.length (BR.compare_reports ~baseline:r r'));
        Alcotest.(check bool) "has sycl-mlir config" true
          (List.for_all
             (fun (e : BR.entry) ->
               List.mem_assoc "sycl-mlir" e.BR.e_configs
               && List.mem_assoc "dpcpp" e.BR.e_configs)
             r.BR.r_entries);
        (* The v6 cache section conserves against the sycl-mlir config's
           transaction count: the cache run replays the same addresses. *)
        List.iter
          (fun (e : BR.entry) ->
            let m = List.assoc "sycl-mlir" e.BR.e_configs in
            Alcotest.(check int)
              ("cache conservation for " ^ e.BR.e_name)
              m.BR.cm_global_transactions
              (e.BR.e_cache.BR.ca_hits + e.BR.e_cache.BR.ca_misses))
          r.BR.r_entries;
        (* One workload swept twice: second round is all hits. *)
        let s = r.BR.r_service in
        Alcotest.(check int) "requests" 2 s.BR.sv_requests;
        Alcotest.(check int) "hits" 1 s.BR.sv_hits;
        Alcotest.(check int) "misses" 1 s.BR.sv_misses;
        Alcotest.(check (float 1e-9)) "hit rate" 0.5 s.BR.sv_hit_rate;
        Alcotest.(check bool) "cost percentiles populated" true
          (s.BR.sv_cost_p50 > 0 && s.BR.sv_cost_p99 >= s.BR.sv_cost_p50));
  ]

let tests = ("bench-report", tests_list)
