(* The observability subsystem: exact histogram percentiles (including
   bucket-boundary and overflow cases), registry merge semantics, sharded
   cross-domain determinism, and the merged compile/runtime/device trace
   (lane layout, monotonic timestamps, Chrome JSON shape). *)

open Sycl_workloads
module Metrics = Sycl_obs.Metrics
module Trace = Sycl_obs.Trace
module Json = Mlir.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles                                               *)
(* ------------------------------------------------------------------ *)

let test_hist_empty () =
  let r = Metrics.create () in
  Alcotest.(check (option int))
    "no such histogram" None
    (Metrics.percentile r "missing" 50.);
  Metrics.observe r "h" 7;
  (* a different metric stays independent *)
  Alcotest.(check (option int)) "other name" None (Metrics.percentile r "g" 50.)

let test_hist_single () =
  let r = Metrics.create () in
  Metrics.observe r "h" 42;
  List.iter
    (fun p ->
      Alcotest.(check (option int))
        (Printf.sprintf "p%.0f of single sample" p)
        (Some 42) (Metrics.percentile r "h" p))
    [ 1.; 50.; 90.; 99.; 100. ]

let test_hist_all_equal () =
  let r = Metrics.create () in
  for _ = 1 to 100 do
    Metrics.observe r "h" 5
  done;
  List.iter
    (fun p ->
      Alcotest.(check (option int))
        (Printf.sprintf "p%.0f all-equal" p)
        (Some 5) (Metrics.percentile r "h" p))
    [ 50.; 90.; 99. ]

(* Percentiles are exact (nearest-rank over the raw values), not bucket
   upper bounds: 1..100 must give p50=50, p90=90, p99=99 even though the
   display buckets are much coarser. *)
let test_hist_exact_rank () =
  let r = Metrics.create () in
  for v = 1 to 100 do
    Metrics.observe r "h" v
  done;
  Alcotest.(check (option int)) "p50" (Some 50) (Metrics.percentile r "h" 50.);
  Alcotest.(check (option int)) "p90" (Some 90) (Metrics.percentile r "h" 90.);
  Alcotest.(check (option int)) "p99" (Some 99) (Metrics.percentile r "h" 99.);
  Alcotest.(check (option int))
    "p100" (Some 100)
    (Metrics.percentile r "h" 100.);
  check_int "sample count" 100 (Metrics.hist_sample_count r "h")

(* Values on and beyond the last bucket bound land in the overflow
   bucket, yet percentiles stay exact. *)
let test_hist_overflow () =
  let r = Metrics.create () in
  let bounds = [| 10; 100 |] in
  Metrics.observe r ~bounds "h" 10;      (* on a bound *)
  Metrics.observe r ~bounds "h" 100;     (* on the last bound *)
  Metrics.observe r ~bounds "h" 1000;    (* overflow *)
  Metrics.observe r ~bounds "h" 5000;    (* overflow *)
  Alcotest.(check (option int)) "p50" (Some 100) (Metrics.percentile r "h" 50.);
  Alcotest.(check (option int))
    "p99 = max overflow value" (Some 5000)
    (Metrics.percentile r "h" 99.)

(* [observe ~count:n v] records what n single observations of [v] do:
   buckets, exact table, count, sum, percentiles and JSON. *)
let test_hist_count () =
  let bounds = [| 2; 8; 32 |] in
  let samples = [ (3, 5); (1, 1); (40, 3); (8, 2); (3, 4); (9, 0); (32, 7) ] in
  let single = Metrics.create () and counted = Metrics.create () in
  List.iter
    (fun (v, n) ->
      for _ = 1 to n do
        Metrics.observe single ~bounds "h" v
      done;
      Metrics.observe counted ~bounds ~count:n "h" v)
    samples;
  Metrics.observe counted ~bounds ~count:0 "unseen" 1;
  Alcotest.(check string)
    "JSON" (Json.to_string (Metrics.to_json single))
    (Json.to_string (Metrics.to_json counted));
  check_int "count" (Metrics.hist_sample_count single "h")
    (Metrics.hist_sample_count counted "h");
  for p = 1 to 100 do
    Alcotest.(check (option int))
      (Printf.sprintf "p%d" p)
      (Metrics.percentile single "h" (float_of_int p))
      (Metrics.percentile counted "h" (float_of_int p))
  done

(* ------------------------------------------------------------------ *)
(* Registry merge semantics                                            *)
(* ------------------------------------------------------------------ *)

let test_merge_semantics () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:3 "c";
  Metrics.incr b ~by:4 "c";
  Metrics.set_gauge a "g" 7;
  Metrics.set_gauge b "g" 5;
  Metrics.observe a "h" 1;
  Metrics.observe b "h" 99;
  Metrics.merge ~into:a b;
  check_int "counters sum" 7 (Metrics.counter_value a "c");
  Alcotest.(check (option int)) "gauges max" (Some 7) (Metrics.gauge_value a "g");
  check_int "histograms merge" 2 (Metrics.hist_sample_count a "h");
  Alcotest.(check (option int)) "merged p99" (Some 99)
    (Metrics.percentile a "h" 99.)

let test_merge_kind_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "x";
  Metrics.set_gauge b "x" 1;
  check "kind mismatch raises" true
    (match Metrics.merge ~into:a b with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Sharded collection merges in canonical shard order: however work is
   distributed over shards, the merged registry (and its JSON) is
   identical. *)
let test_sharded_canonical () =
  let fill order =
    let sh = Metrics.Sharded.create 4 in
    List.iter
      (fun i ->
        let r = Metrics.Sharded.shard sh i in
        Metrics.incr r ~by:(i + 1) "work";
        Metrics.observe r "lat" ((i + 1) * 10))
      order;
    Json.to_string (Metrics.to_json (Metrics.Sharded.merged sh))
  in
  let a = fill [ 0; 1; 2; 3 ] and b = fill [ 3; 1; 0; 2 ] in
  check "fill order is irrelevant" true (a = b);
  (* and distribution over shards is irrelevant too *)
  let one_shard =
    let sh = Metrics.Sharded.create 4 in
    let r = Metrics.Sharded.shard sh 2 in
    List.iter
      (fun i ->
        Metrics.incr r ~by:(i + 1) "work";
        Metrics.observe r "lat" ((i + 1) * 10))
      [ 0; 1; 2; 3 ];
    Json.to_string (Metrics.to_json (Metrics.Sharded.merged sh))
  in
  check "distribution is irrelevant" true (a = one_shard)

(* ------------------------------------------------------------------ *)
(* Cross-domain metrics determinism                                    *)
(* ------------------------------------------------------------------ *)

(* The full runtime metrics registry — counters, transfer bytes, launch
   latency percentiles — must be byte-identical under the sequential and
   the 4-domain parallel simulator backends. *)
let run_metrics_json ~domains (w : Common.workload) =
  let m = w.Common.w_module () in
  let cfg = Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir in
  ignore (Sycl_core.Driver.compile cfg m);
  let args, validate = w.Common.w_data () in
  let r = Common.Host_interp.run ~sim_domains:domains ~module_op:m args in
  check "workload validates" true (validate ());
  Json.to_string (Metrics.to_json r.Common.Host_interp.metrics)

let test_domains_deterministic () =
  List.iter
    (fun w ->
      let seq = run_metrics_json ~domains:1 w in
      let par = run_metrics_json ~domains:4 w in
      check (w.Common.w_name ^ " metrics 1-vs-4 domains") true (seq = par))
    [ Single_kernel.vec_add ~n:256; Polybench.gemm ~n:16 ]

let test_runtime_metrics_present () =
  let w = Single_kernel.vec_add ~n:256 in
  let m = w.Common.w_module () in
  let cfg = Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir in
  ignore (Sycl_core.Driver.compile cfg m);
  let args, _ = w.Common.w_data () in
  let r = Common.Host_interp.run ~module_op:m args in
  let reg = r.Common.Host_interp.metrics in
  check "submits counted" true (Metrics.counter_value reg "runtime.submits" > 0);
  check "launches counted" true
    (Metrics.counter_value reg "runtime.kernel_launches" > 0);
  check "h2d bytes counted" true
    (Metrics.counter_value reg "runtime.transfer_bytes_h2d" > 0);
  check "launch latency observed" true
    (Metrics.hist_sample_count reg "runtime.launch_latency_cycles" > 0);
  check "latency percentile defined" true
    (Metrics.percentile reg "runtime.launch_latency_cycles" 99. <> None)

(* ------------------------------------------------------------------ *)
(* Merged trace                                                        *)
(* ------------------------------------------------------------------ *)

(* Compile with timing instrumentation, run, and merge both into one
   sink the way the CLI tools do: compile-phase spans land on the
   Compile lane, runtime spans on the Host lane, kernel spans on the
   Device lane; runtime timestamps start after the compile spans. *)
let merged_sink () =
  let w = Single_kernel.vec_add ~n:256 in
  let m = w.Common.w_module () in
  let tm = Mlir.Instrument.timer () in
  let cfg = Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir in
  ignore
    (Sycl_core.Driver.compile
       ~instrumentations:[ Mlir.Instrument.timing tm ]
       cfg m);
  let args, _ = w.Common.w_data () in
  let r = Common.Host_interp.run ~module_op:m args in
  let sink =
    Telemetry.merged_trace ~timing:(Mlir.Instrument.timing_report tm) r
  in
  let compile_end =
    List.fold_left
      (fun acc sp ->
        if sp.Trace.sp_lane = Trace.Compile then
          max acc (sp.Trace.sp_ts + sp.Trace.sp_dur)
        else acc)
      0 (Trace.spans sink)
  in
  (sink, compile_end)

let test_trace_lanes () =
  let sink, compile_end = merged_sink () in
  let sps = Trace.spans sink in
  let on lane = List.filter (fun s -> s.Trace.sp_lane = lane) sps in
  check "compile spans present" true (on Trace.Compile <> []);
  check "host-runtime spans present" true (on Trace.Host <> []);
  check "device spans present" true (on Trace.Device <> []);
  (* lane/pid mapping *)
  check_int "compile pid" 1 (Trace.pid_of_lane Trace.Compile);
  check_int "host pid" 2 (Trace.pid_of_lane Trace.Host);
  check_int "device pid" 3 (Trace.pid_of_lane Trace.Device);
  (* device spans are the simulated kernels *)
  check "device spans are kernels" true
    (List.for_all (fun s -> s.Trace.sp_cat = "kernel") (on Trace.Device));
  (* runtime events begin after the compile timeline ends *)
  check "runtime after compile" true
    (List.for_all
       (fun s -> s.Trace.sp_ts >= compile_end)
       (on Trace.Host @ on Trace.Device))

let test_trace_monotonic () =
  let sink, _ = merged_sink () in
  let sps = Trace.spans sink in
  check "spans returned sorted by ts" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> a.Trace.sp_ts <= b.Trace.sp_ts && sorted rest
       | _ -> true
     in
     sorted sps);
  check "non-negative timestamps and durations" true
    (List.for_all (fun s -> s.Trace.sp_ts >= 0 && s.Trace.sp_dur >= 0) sps)

let test_trace_json_shape () =
  let sink, _ = merged_sink () in
  match Trace.export sink with
  | Json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Json.List evs) ->
      let metas, events =
        List.partition
          (function
            | Json.Obj f -> List.assoc_opt "ph" f = Some (Json.String "M")
            | _ -> false)
          evs
      in
      (* three process_name metas (one per lane) plus thread metas *)
      check "at least three lane metas" true (List.length metas >= 3);
      check "every event is complete (ph=X)" true
        (List.for_all
           (function
             | Json.Obj f -> List.assoc_opt "ph" f = Some (Json.String "X")
             | _ -> false)
           events);
      check "events non-empty" true (events <> [])
    | _ -> Alcotest.fail "traceEvents missing")
  | _ -> Alcotest.fail "trace export is not an object"

let test_pool_order () =
  Alcotest.(check (array int))
    "results in index order" [| 0; 1; 4; 9 |]
    (Sycl_obs.Pool.run 4 (fun i -> i * i));
  Alcotest.(check (array int))
    "one task runs on the caller" [| 7 |]
    (Sycl_obs.Pool.run 1 (fun _ -> 7))

let test_pool_errors () =
  let ran = Array.make 4 false in
  match
    Sycl_obs.Pool.run 4 (fun i ->
        ran.(i) <- true;
        if i >= 2 then failwith (string_of_int i))
  with
  | _ -> Alcotest.fail "expected the tasks' failure"
  | exception Failure msg ->
    Alcotest.(check string) "lowest failing index re-raised" "2" msg;
    Alcotest.(check bool) "every task ran" true (Array.for_all Fun.id ran)

let test_pool_nested_persistent () =
  let sums =
    Sycl_obs.Pool.run 3 (fun i ->
        Array.fold_left ( + ) 0 (Sycl_obs.Pool.run 3 (fun j -> (10 * i) + j)))
  in
  Alcotest.(check (array int)) "nested jobs complete" [| 3; 33; 63 |] sums;
  let workers = Sycl_obs.Pool.size () in
  for _ = 1 to 20 do
    ignore (Sycl_obs.Pool.run 3 Fun.id)
  done;
  Alcotest.(check int) "repeated jobs reuse the workers" workers
    (Sycl_obs.Pool.size ())

let tests =
  ( "obs",
    [
      Alcotest.test_case "histogram: empty" `Quick test_hist_empty;
      Alcotest.test_case "histogram: single sample" `Quick test_hist_single;
      Alcotest.test_case "histogram: all equal" `Quick test_hist_all_equal;
      Alcotest.test_case "histogram: exact nearest-rank" `Quick
        test_hist_exact_rank;
      Alcotest.test_case "histogram: a counted sample is n samples" `Quick
        test_hist_count;
      Alcotest.test_case "histogram: bounds and overflow" `Quick
        test_hist_overflow;
      Alcotest.test_case "merge: counter/gauge/hist semantics" `Quick
        test_merge_semantics;
      Alcotest.test_case "merge: kind mismatch rejected" `Quick
        test_merge_kind_mismatch;
      Alcotest.test_case "sharded: canonical merge" `Quick
        test_sharded_canonical;
      Alcotest.test_case "runtime metrics: 1-vs-4 domains identical" `Quick
        test_domains_deterministic;
      Alcotest.test_case "runtime metrics: event kinds present" `Quick
        test_runtime_metrics_present;
      Alcotest.test_case "merged trace: lanes and pids" `Quick
        test_trace_lanes;
      Alcotest.test_case "merged trace: monotonic timestamps" `Quick
        test_trace_monotonic;
      Alcotest.test_case "merged trace: Chrome JSON shape" `Quick
        test_trace_json_shape;
      Alcotest.test_case "pool: results in index order" `Quick test_pool_order;
      Alcotest.test_case "pool: lowest failing task re-raised" `Quick
        test_pool_errors;
      Alcotest.test_case "pool: nested jobs, persistent workers" `Quick
        test_pool_nested_persistent;
    ] )
