(* The run report ([sycl_bench --report-json]): its sections are the
   documents of the individual surfaces, the trace's device lane adds up
   to the reported device cycles, the deterministic sections do not
   depend on the simulator's domain count, and [--file] runs report the
   same sections as named workloads. *)

open Sycl_workloads
module H = Common.Host_interp
module Attribution = Sycl_sim.Attribution
module Report = Sycl_obs.Report
module Json = Mlir.Json

let check = Alcotest.(check bool)

let merged (r : H.run_result) =
  Attribution.merge_launches r.H.per_kernel_attribution

let section name report =
  match Json.member name report with
  | Some s -> s
  | None -> Alcotest.failf "report has no %s section" name

(* The report sycl_bench writes for a located GEMM run: its compile
   spans from the pipeline result, simulated under [cache_model] on
   [domains] worker domains. *)
let gemm_report ?(cache_model = Common.Cost.Direct_mapped) ~domains () =
  let m =
    Common.measure
      ~sim:{ Sycl_sim.Sim_config.default with domains; cache_model }
      (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
      (Polybench.gemm ~n:16)
  in
  let r = m.Common.m_result in
  ( r,
    Report.to_json
      (Annotate.report_sections ~timing:m.Common.m_compile
         ~attribution:(merged r) r) )

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
    = Attribution.to_json (merged r));
  let transactions =
    List.fold_left
      (fun acc (_, s) -> acc + s.Common.Cost.global_transactions)
      0 r.H.per_kernel
  in
  let expected_cache =
    match Attribution.cache_to_json (merged r) with
    | Some (Json.Obj kvs) ->
      Json.Obj (("global_transactions", Json.Int transactions) :: kvs)
    | Some _ -> Alcotest.fail "Attribution.cache_to_json is not an object"
    | None -> Alcotest.fail "no cache table under the dm model"
  in
  check "cache = Attribution.cache_to_json with global_transactions" true
    (section "cache" report = expected_cache);
  check "metrics = Metrics.to_json" true
    (section "metrics" report = Sycl_obs.Metrics.to_json r.H.metrics);
  (* A flat run produces no cache table, so no cache section. *)
  let _, flat = gemm_report ~cache_model:Common.Cost.Flat ~domains:1 () in
  check "flat run has no cache section" true (Json.member "cache" flat = None)

(* A program that submits the kernel [idle] [launches] times, simulated
   under [cache_model]: its run, report and --annotate cache table. The
   kernel reads its id and touches no memory, so a launch makes no
   global transaction. *)
let idle_run ~cache_model ~launches =
  let module K = Sycl_frontend.Kernel in
  let module Host = Sycl_frontend.Host in
  let m = Helpers.fresh_module () in
  ignore
    (K.define m ~name:"idle" ~dims:1 ~args:[] (fun b ~item ~args:_ ->
         ignore (K.gid b item 0)));
  let submit =
    Host.Submit
      { Host.cg_kernel = "idle"; cg_global = [ Host.Const 64 ];
        cg_local = None; cg_captures = [] }
  in
  ignore
    (Host.emit m
       { Host.host_args = []; buffers = []; globals = [];
         body = List.init launches (fun _ -> submit) });
  ignore (Mlir.Pass.run_pipeline [ Sycl_core.Host_raising.pass ] m);
  let r = H.run ~sim_domains:Helpers.sim_domains ~cache_model ~module_op:m [] in
  let attribution = merged r in
  ( r,
    Report.to_json (Annotate.report_sections ~attribution r),
    Attribution.cache_to_string attribution )

(* The cache view exists exactly when a non-flat model ran a launch —
   even one that made no probe, whose counters are then all zero. *)
let test_cache_view_gating () =
  let r, report, table =
    idle_run ~cache_model:Common.Cost.Direct_mapped ~launches:1
  in
  Alcotest.(check int) "one launch" 1 r.H.kernel_launches;
  let cache = section "cache" report in
  List.iter
    (fun k -> Alcotest.(check (option int)) (k ^ " = 0") (Some 0) (int k cache))
    [ "global_transactions"; "hits"; "misses"; "evictions" ];
  let reuse = section "reuse_distance" cache in
  List.iter
    (fun k -> Alcotest.(check (option int)) (k ^ " = 0") (Some 0) (int k reuse))
    [ "warm"; "cold" ];
  check "no cache rows" true (Json.member "rows" cache = Some (Json.List []));
  Alcotest.(check (option string))
    "zero cache table"
    (Some
       "cache: hits=0 misses=0 evictions=0 hit_rate=0.0000\n\
       \  reuse distance: warm=0 cold=0 p50=- p90=- p99=-\n")
    table;
  let absent what (_, report, table) =
    check (what ^ ": no cache section") true (Json.member "cache" report = None);
    check (what ^ ": no cache table") true (table = None)
  in
  absent "flat run" (idle_run ~cache_model:Common.Cost.Flat ~launches:1);
  absent "dm run with no launch"
    (idle_run ~cache_model:Common.Cost.Direct_mapped ~launches:0)

let test_sections_domain_independent () =
  let _, seq = gemm_report ~domains:1 () in
  let _, par = gemm_report ~domains:4 () in
  List.iter
    (fun name ->
      check (name ^ " identical at 1 and 4 domains") true
        (Json.to_string (section name seq) = Json.to_string (section name par)))
    [ "metrics"; "attribution"; "cache" ]

let test_file_report_sections () =
  let _, timing, r =
    Annotate.run_file ~sim:Helpers.sim
      (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
      "../examples/matmul.mlir"
  in
  let sections =
    Annotate.report_sections ~timing ~attribution:(merged r) r
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

(* [--file] verifies what it parses: a malformed or unparsable module is
   a [File_error] carrying the diagnostic, not an exception from a pass. *)
let test_file_rejects_malformed () =
  let run text =
    let path = Filename.temp_file "run_file" ".mlir" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc -> output_string oc text);
        match
          Annotate.run_file ~sim:Helpers.sim
            (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
            path
        with
        | _ -> Alcotest.fail "the malformed module ran"
        | exception Annotate.File_error msg -> (Filename.basename path, msg))
  in
  let file, msg =
    run
      "builtin.module() ({\n\
      \  func.func() ({\n\
      \  ^bb0(%0: index):\n\
      \    %1 = arith.addi(%0) : (index) -> (index)\n\
      \    func.return()\n\
      \  }) {function_type = (index) -> (), sym_name = \"main\"}\n\
       })\n"
  in
  check msg true
    (String.starts_with msg
       ~prefix:("input failed verification: " ^ file ^ ":4:5: arith.addi takes 2"));
  let _, msg = run "not mlir" in
  check msg true (String.starts_with msg ~prefix:"parse error: ")

let tests =
  ( "report",
    [
      Alcotest.test_case "GEMM under dm: kernel spans sum to device cycles"
        `Quick test_kernel_spans_sum_to_device_cycles;
      Alcotest.test_case "sections are the surfaces' JSON documents" `Quick
        test_sections_are_surface_documents;
      Alcotest.test_case
        "cache view: present for a probe-less dm launch, else absent" `Quick
        test_cache_view_gating;
      Alcotest.test_case "non-trace sections identical at 1 and 4 domains"
        `Quick test_sections_domain_independent;
      Alcotest.test_case "--file report has metrics and trace" `Quick
        test_file_report_sections;
      Alcotest.test_case "--file rejects a malformed module with its diagnostic"
        `Quick test_file_rejects_malformed;
    ] )
