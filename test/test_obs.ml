(* The observability subsystem: exact histogram percentiles (including
   bucket-boundary and overflow cases), histogram merge, cross-domain
   determinism of the runtime metrics, and the merged
   compile/runtime/device trace (lane layout, monotonic timestamps,
   Chrome JSON shape, a compile lane that covers only the compile). *)

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
(* Histogram merge                                                     *)
(* ------------------------------------------------------------------ *)

(* [merge_hist] folds a histogram in as if each of its samples had been
   observed into the target: count, sum, buckets and every percentile
   equal those of one histogram fed both sample sets, and the source is
   left as it was. Histograms with other bucket bounds do not merge. *)
let test_hist_merge () =
  let bounds = [| 2; 8; 32 |] in
  let fill vs =
    let h = Metrics.hist_make bounds in
    List.iter (Metrics.hist_observe h) vs;
    h
  in
  let a = [ 1; 3; 3; 40; 8 ] and b = [ 9; 32; 2; 100; 3 ] in
  let into = fill a and src = fill b and both = fill (a @ b) in
  Metrics.merge_hist ~into src;
  check_int "count" both.Metrics.h_count into.Metrics.h_count;
  check_int "sum" both.Metrics.h_sum into.Metrics.h_sum;
  check "buckets" true (both.Metrics.h_buckets = into.Metrics.h_buckets);
  for p = 1 to 100 do
    Alcotest.(check (option int))
      (Printf.sprintf "p%d" p)
      (Metrics.hist_percentile both (float_of_int p))
      (Metrics.hist_percentile into (float_of_int p))
  done;
  check_int "source count unchanged" (List.length b) src.Metrics.h_count;
  check "different bounds rejected" true
    (match Metrics.merge_hist ~into (Metrics.hist_make [| 2; 8 |]) with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_int "rejected merge left the target alone" both.Metrics.h_count
    into.Metrics.h_count

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
  let r =
    Common.Host_interp.run ~sim_domains:Helpers.sim_domains ~module_op:m args
  in
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

(* Compile, run, and merge the compile's pipeline result and the run into
   one sink the way the CLI tools do: compile-phase spans land on the
   Compile lane, runtime spans on the Host lane, kernel spans on the
   Device lane; runtime timestamps start after the compile spans. *)
let merged_sink () =
  let w = Single_kernel.vec_add ~n:256 in
  let m = w.Common.w_module () in
  let cfg = Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir in
  let compiled = Sycl_core.Driver.compile cfg m in
  let args, _ = w.Common.w_data () in
  let r =
    Common.Host_interp.run ~sim_domains:Helpers.sim_domains ~module_op:m args
  in
  let sink =
    Telemetry.merged_trace ~timing:compiled.Sycl_core.Driver.pipeline_result r
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

(* The compile lane is the compile: work after it (here a 20 ms sleep
   between the run and the export) stretches neither the compile root
   span, which lasts exactly the pipeline's recorded wall time, nor the
   runtime lane's start. *)
let test_trace_compile_span () =
  let w = Polybench.gemm ~n:8 in
  let m = w.Common.w_module () in
  let compiled =
    Sycl_core.Driver.compile
      (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
      m
  in
  let args, _ = w.Common.w_data () in
  let r =
    Common.Host_interp.run ~sim_domains:Helpers.sim_domains ~module_op:m args
  in
  Unix.sleepf 0.02;
  let sps =
    Trace.spans
      (Telemetry.merged_trace ~timing:compiled.Sycl_core.Driver.pipeline_result
         r)
  in
  let root =
    List.find
      (fun s -> s.Trace.sp_lane = Trace.Compile && s.Trace.sp_name = "compile")
      sps
  in
  check_int "compile root span is the pipeline's wall time"
    (Trace.us_of_wall compiled.Sycl_core.Driver.pipeline_result.Mlir.Pass.wall)
    root.Trace.sp_dur;
  let first_runtime =
    List.fold_left
      (fun acc s ->
        if s.Trace.sp_lane = Trace.Compile then acc else min acc s.Trace.sp_ts)
      max_int sps
  in
  check_int "runtime lane starts where the compile ends"
    (root.Trace.sp_ts + root.Trace.sp_dur)
    first_runtime

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
      Alcotest.test_case "histogram merge: sample by sample, same bounds only"
        `Quick test_hist_merge;
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
      Alcotest.test_case "merged trace: the compile span is the compile"
        `Quick test_trace_compile_span;
      Alcotest.test_case "pool: results in index order" `Quick test_pool_order;
      Alcotest.test_case "pool: lowest failing task re-raised" `Quick
        test_pool_errors;
      Alcotest.test_case "pool: nested jobs, persistent workers" `Quick
        test_pool_nested_persistent;
    ] )
