(* The benchmark-regression pipeline: JSON round-trip of reports, the
   exact field diff's paths, values and ignored fields, and one measured
   end-to-end snapshot. *)

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

let doc r = Mlir.Json.parse (BR.to_json r)
let diff a b = BR.diff (doc a) (doc b)
let check_diff what expected a b =
  Alcotest.(check (list string)) what expected (diff a b)

(* Workload [name] of [r] as a diff line shows it: compact, without its
   "measured" wall time. *)
let workload_json r name =
  let rec strip = function
    | Mlir.Json.Obj kvs ->
      Mlir.Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "measured" then None else Some (k, strip v))
           kvs)
    | j -> j
  in
  match Mlir.Json.member "workloads" (doc r) with
  | Some (Mlir.Json.List ws) ->
    strip
      (List.find
         (fun w -> Mlir.Json.member "name" w = Some (Mlir.Json.String name))
         ws)
  | _ -> Alcotest.fail "no workloads"

let compact = Mlir.Json.to_string ~compact:true

let sycl_mlir path = "workloads[w].configs.sycl-mlir." ^ path

let with_sycl_mlir_cycles cycles =
  report ~label:"new"
    [ entry ~name:"w"
        ~configs:[ ("dpcpp", metrics ()); ("sycl-mlir", metrics ~cycles ()) ]
        () ]

let tests_list =
  [
    Alcotest.test_case "JSON round-trip preserves the report" `Quick (fun () ->
        let r = report [ entry ~name:"a" (); entry ~name:"b" () ] in
        let r' = BR.of_json (BR.to_json r) in
        Alcotest.(check bool) "equal" true (r = r'));
    Alcotest.test_case "self-comparison is empty" `Quick (fun () ->
        let r = report [ entry () ] in
        check_diff "no differences" [] r r);
    Alcotest.test_case "cycle regression becomes a path with both values"
      `Quick (fun () ->
        (* The fixture derives device and transfer cycles from cycles. *)
        check_diff "three fields"
          [ sycl_mlir "cycles: 900 -> 1200";
            sycl_mlir "device_cycles: 450 -> 600";
            sycl_mlir "transfer_cycles: 225 -> 300" ]
          (report [ entry ~name:"w" () ])
          (with_sycl_mlir_cycles 1200));
    Alcotest.test_case "tolerance boundary: 945 and 946 both differ" `Quick
      (fun () ->
        (* The old 5% gate passed 945 and failed 946; equality fails both. *)
        let base = report [ entry ~name:"w" () ] in
        check_diff "945"
          [ sycl_mlir "cycles: 900 -> 945";
            sycl_mlir "device_cycles: 450 -> 472";
            sycl_mlir "transfer_cycles: 225 -> 236" ]
          base (with_sycl_mlir_cycles 945);
        check_diff "946"
          [ sycl_mlir "cycles: 900 -> 946";
            sycl_mlir "device_cycles: 450 -> 473";
            sycl_mlir "transfer_cycles: 225 -> 236" ]
          base (with_sycl_mlir_cycles 946));
    Alcotest.test_case "validity regression is a difference" `Quick (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let invalid =
          report
            [ entry ~name:"w"
                ~configs:
                  [ ("dpcpp", metrics ());
                    ("sycl-mlir", metrics ~cycles:900 ~valid:false ()) ]
                () ]
        in
        check_diff "valid" [ sycl_mlir "valid: true -> false" ] base invalid);
    Alcotest.test_case "missing workload and config read <missing>" `Quick
      (fun () ->
        let base = report [ entry ~name:"kept" (); entry ~name:"dropped" () ] in
        let cur =
          report
            [ entry ~name:"kept" ~configs:[ ("dpcpp", metrics ()) ] () ]
        in
        let configs = Mlir.Json.member "configs" (workload_json base "kept") in
        let sycl_mlir_json =
          Option.get (Option.bind configs (Mlir.Json.member "sycl-mlir"))
        in
        check_diff "missing"
          [ "workloads[kept].configs.sycl-mlir: " ^ compact sycl_mlir_json
            ^ " -> <missing>";
            "workloads[dropped]: " ^ compact (workload_json base "dropped")
            ^ " -> <missing>" ]
          base cur);
    Alcotest.test_case "new workloads and improvements are differences too"
      `Quick (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let better =
          report
            [ entry ~name:"w"
                ~configs:
                  [ ("dpcpp", metrics ()); ("sycl-mlir", metrics ~cycles:500 ()) ]
                ();
              entry ~name:"extra" () ]
        in
        check_diff "improvement and new workload"
          [ sycl_mlir "cycles: 900 -> 500";
            sycl_mlir "device_cycles: 450 -> 250";
            sycl_mlir "transfer_cycles: 225 -> 125";
            "workloads[extra]: <missing> -> "
            ^ compact (workload_json better "extra") ]
          base better);
    Alcotest.test_case "workload order is a deterministic field" `Quick
      (fun () ->
        let a = entry ~name:"a" () and b = entry ~name:"b" () in
        check_diff "order"
          [ {|workloads (order): ["a","b"] -> ["b","a"]|} ]
          (report [ a; b ]) (report [ b; a ]));
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
    Alcotest.test_case "injected percentile change is named by its path"
      `Quick (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let worse =
          report ~label:"new"
            [ entry ~name:"w"
                ~configs:
                  [ ("dpcpp", metrics ());
                    ("sycl-mlir", metrics ~cycles:900 ~p99:2000 ()) ]
                () ]
        in
        check_diff "p99 only"
          [ sycl_mlir "metrics.launch_latency.p99: 800 -> 2000" ]
          base worse);
    Alcotest.test_case "service compile-latency change is a difference"
      `Quick (fun () ->
        let base = report [ entry () ] in
        (* 4200 was the old gate's budget over p99=4000; it differs now. *)
        check_diff "at the old budget"
          [ "service.compile_latency.p99: 4000 -> 4200" ]
          base
          (report ~service:(service ~cost_p99:4200 ()) [ entry () ]);
        check_diff "past it"
          [ "service.compile_latency.p99: 4000 -> 4201" ]
          base
          (report ~service:(service ~cost_p99:4201 ()) [ entry () ]));
    Alcotest.test_case "service hit-rate reads both values exactly" `Quick
      (fun () ->
        let base = report [ entry () ] in
        check_diff "0.475" [ "service.hit_rate: 0.5 -> 0.475" ] base
          (report ~service:(service ~hit_rate:0.475 ()) [ entry () ]);
        check_diff "0.4" [ "service.hit_rate: 0.5 -> 0.4" ] base
          (report ~service:(service ~hit_rate:0.4 ()) [ entry () ]));
    Alcotest.test_case "workload data-cache hit-rate change is a difference (v6)"
      `Quick (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let at hr =
          report ~label:"new"
            [ entry ~name:"w" ~cache:(cache ~hit_rate:hr ()) () ]
        in
        check_diff "0.7125" [ "workloads[w].cache.hit_rate: 0.75 -> 0.7125" ]
          base (at 0.7125);
        check_diff "0.6" [ "workloads[w].cache.hit_rate: 0.75 -> 0.6" ] base
          (at 0.6));
    Alcotest.test_case "compiler-speed regression is a difference (v5)" `Quick
      (fun () ->
        let base = report [ entry ~name:"w" () ] in
        let at n =
          report ~label:"new"
            [ entry ~name:"w" ~compile:(compile ~ops_visited:n ()) () ]
        in
        check_diff "420"
          [ "workloads[w].compile.ops_visited.canonicalize: 400 -> 420" ]
          base (at 420);
        check_diff "421"
          [ "workloads[w].compile.ops_visited.canonicalize: 400 -> 421" ]
          base (at 421));
    Alcotest.test_case "parser counters are compared, measured and label are not"
      `Quick (fun () ->
        let base = report [ entry ~name:"w" () ] in
        (* Wall time and throughput are "measured": a 100x change and a
           new label are no difference. *)
        let slow =
          report ~label:"new"
            ~service:{ (service ()) with BR.sv_wall_us = 1; sv_modules_per_sec = 1.0 }
            [ entry ~name:"w"
                ~compile:{ (compile ()) with BR.co_wall_us = 77_700 }
                () ]
        in
        check_diff "measured and label ignored" [] base slow;
        let more_parse =
          report ~label:"new"
            [ entry ~name:"w" ~compile:(compile ~parse_ops:200 ()) () ]
        in
        check_diff "parse counters"
          [ "workloads[w].compile.parse.ops: 120 -> 200";
            "workloads[w].compile.parse.chars: 4800 -> 8000" ]
          base more_parse;
        (* A pass removed from the pipeline drops its counters. *)
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
        check_diff "removed pass"
          [ "workloads[w].compile.ops_visited.canonicalize: 400 -> <missing>";
            "workloads[w].compile.rewrites.canonicalize: 20 -> <missing>" ]
          base removed);
    Alcotest.test_case "compile section counts the parse, not the compiled module"
      `Quick (fun () ->
        (* KMeans's printed module parses to 82 ops; its compiled module
           has 100. The report counts right after its own parse, and its
           wall time is that parse plus the measurement's pipeline run
           (no second compile). *)
        let w = Option.get (W.Suite.find "KMeans") in
        let r = BR.collect ~label:"test" [ w ] in
        let e = List.hd r.BR.r_entries in
        let parsed =
          Mlir.Parser.parse_module (Mlir.Printer.to_string (w.W.Common.w_module ()))
        in
        let ops = ref 0 in
        Mlir.Core.walk parsed ~f:(fun _ -> incr ops);
        Alcotest.(check int) "KMeans parses to 82 ops" 82 !ops;
        Alcotest.(check int) "compile.parse.ops" 82 e.BR.e_compile.BR.co_parse_ops;
        Alcotest.(check bool) "wall time measured" true
          (e.BR.e_compile.BR.co_wall_us > 0));
    Alcotest.test_case "measured snapshot round-trips and self-diffs empty"
      `Slow (fun () ->
        let r =
          BR.collect ~label:"test" [ W.Single_kernel.vec_add ~n:256 ]
        in
        let r' = BR.of_json (BR.to_json r) in
        Alcotest.(check bool) "round-trip equal" true (r = r');
        check_diff "self-diff empty" [] r r';
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
