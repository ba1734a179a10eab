(* The run report ([sycl_bench --report-json]): its sections are the
   documents of the individual surfaces, the trace's device lane adds up
   to the reported device cycles, the deterministic sections do not
   depend on the simulator's domain count, and [--file] runs report the
   same sections as named workloads. *)

open Sycl_workloads
module H = Common.Host_interp
module Report = Sycl_obs.Report
module Json = Mlir.Json

let check = Alcotest.(check bool)

let section name report =
  match Json.member name report with
  | Some s -> s
  | None -> Alcotest.failf "report has no %s section" name

(* The report sycl_bench writes for a located GEMM run: compiled with the
   pass-timing instrumentation, simulated under [cache_model] on
   [domains] worker domains. *)
let gemm_report ?(cache_model = Common.Cost.Direct_mapped) ~domains () =
  let w = Annotate.located_workload (Polybench.gemm ~n:16) in
  let m = w.Common.w_module () in
  let tm = Mlir.Instrument.timer () in
  ignore
    (Sycl_core.Driver.compile
       ~instrumentations:[ Mlir.Instrument.timing tm ]
       (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
       m);
  let args, _ = w.Common.w_data () in
  let r = H.run ~sim_domains:domains ~cache_model ~module_op:m args in
  let attribution = Annotate.merged_attribution r in
  ( r,
    Report.to_json
      (Annotate.report_sections
         ~timing:(Mlir.Instrument.timing_report tm)
         ~attribution r) )

let trace_events report =
  match Json.member "traceEvents" (section "trace" report) with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "trace section has no traceEvents"

let str k e = Option.bind (Json.member k e) Json.as_string
let int k e = Option.bind (Json.member k e) Json.as_int

let test_kernel_spans_sum_to_device_cycles () =
  let r, report = gemm_report ~domains:1 () in
  Alcotest.(check (option int))
    "version" (Some Report.version)
    (Option.bind (Json.member "version" report) Json.as_int);
  let kernel_dur =
    List.fold_left
      (fun acc e ->
        if str "ph" e = Some "X" && str "cat" e = Some "kernel" then
          acc + Option.value ~default:0 (int "dur" e)
        else acc)
      0 (trace_events report)
  in
  check "device cycles are non-zero" true (r.H.device_cycles > 0);
  Alcotest.(check int) "sum of kernel dur = device cycles"
    r.H.device_cycles kernel_dur

let test_sections_are_surface_documents () =
  let r, report = gemm_report ~domains:1 () in
  check "attribution = Attribution.to_json" true
    (section "attribution" report
    = Sycl_sim.Attribution.to_json (Annotate.merged_attribution r));
  let transactions =
    List.fold_left
      (fun acc (_, s) -> acc + s.Common.Cost.global_transactions)
      0 r.H.per_kernel
  in
  let expected_cache =
    match Annotate.merged_cache r with
    | Some tab -> (
      match Sycl_sim.Cache.to_json tab with
      | Json.Obj kvs -> Json.Obj (("global_transactions", Json.Int transactions) :: kvs)
      | _ -> Alcotest.fail "Cache.to_json is not an object")
    | None -> Alcotest.fail "no cache table under the dm model"
  in
  check "cache = Cache.to_json with global_transactions" true
    (section "cache" report = expected_cache);
  check "metrics = Metrics.to_json" true
    (section "metrics" report = Sycl_obs.Metrics.to_json r.H.metrics);
  (* A flat run produces no cache table, so no cache section. *)
  let _, flat = gemm_report ~cache_model:Common.Cost.Flat ~domains:1 () in
  check "flat run has no cache section" true (Json.member "cache" flat = None)

let test_sections_domain_independent () =
  let _, seq = gemm_report ~domains:1 () in
  let _, par = gemm_report ~domains:4 () in
  List.iter
    (fun name ->
      check (name ^ " identical at 1 and 4 domains") true
        (Json.to_string (section name seq) = Json.to_string (section name par)))
    [ "metrics"; "attribution"; "cache" ]

let test_file_report_sections () =
  let tm = Mlir.Instrument.timer () in
  let _, r =
    Annotate.run_file
      (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
      ~instrumentations:[ Mlir.Instrument.timing tm ]
      "../examples/matmul.mlir"
  in
  let sections =
    Annotate.report_sections
      ~timing:(Mlir.Instrument.timing_report tm)
      ~attribution:(Annotate.merged_attribution r) r
  in
  let report = Report.to_json sections in
  ignore (section "metrics" report);
  let lanes =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if str "ph" e = Some "X" then int "pid" e else None)
         (trace_events report))
  in
  Alcotest.(check (list int)) "compile, host and device lanes" [ 1; 2; 3 ] lanes;
  let _, named = gemm_report ~cache_model:Common.Cost.Flat ~domains:1 () in
  let names j =
    match j with
    | Json.Obj kvs -> List.map fst kvs
    | _ -> Alcotest.fail "report is not an object"
  in
  Alcotest.(check (list string)) "same sections as a named workload"
    (names named) (names report)

let tests =
  ( "report",
    [
      Alcotest.test_case "GEMM under dm: kernel spans sum to device cycles"
        `Quick test_kernel_spans_sum_to_device_cycles;
      Alcotest.test_case "sections are the surfaces' JSON documents" `Quick
        test_sections_are_surface_documents;
      Alcotest.test_case "non-trace sections identical at 1 and 4 domains"
        `Quick test_sections_domain_independent;
      Alcotest.test_case "--file report has metrics and trace" `Quick
        test_file_report_sections;
    ] )
