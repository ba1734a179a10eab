(* Runs one workload for a fixed time and turns what it saw into the
   benchmark's metrics; reads and compares the JSON files that [perf.exe
   run] writes.

   Untraced run: set up, then run ops in a closed loop, one client, until
   the time is up, timing further set-ups between ops (reporting the
   median).

   Traced run: set up twice and run the same rounds of ops on both
   instances in turn, the first with probes off and the second with
   probes on, until the time is up. The traced rounds give the per-layer
   numbers; the two together give the tracing overhead. Taking turns
   keeps warm-up and slow stretches of the machine from falling on one
   side only. Counts come from the first traced block alone, so that they
   are the same on every run with the seed. *)

open Mlir

type metric = {
  name : string;
  unit_ : string;
  better : string;  (** "lower" or "higher" *)
}

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [ m "setup_s" "s" "lower"; m "op_ms_p50" "ms" "lower";
    m "op_ms_tail" "ms" "lower"; m "ops_per_s" "1/s" "higher";
    m "peak_rss_mb" "MB" "lower" ]

(* Each span name gives a "<span>.ms" metric: its self time per op. *)
let span_names () =
  [ "bench.op"; "bench.check"; "frontend.build"; "ir.parse"; "ir.verify";
    "ir.print"; "core.compile"; "core.specialize" ]
  @ List.map (fun p -> "core.pass." ^ p) (Workloads.pass_names ())
  @ [ "runtime.run"; "workloads.data"; "workloads.validate"; "service.request" ]

(* Counters the ops add up, reported per op. *)
let per_op_counters =
  [ ("frontend.ops_built", "count/op"); ("ir.print.chars", "count/op");
    ("core.ops_visited", "count/op"); ("core.rewrites", "count/op");
    ("core.ops_after", "count/op"); ("runtime.launches", "count/op");
    ("runtime.transfer_bytes", "B/op"); ("sim.work_items", "count/op");
    ("sim.work_groups", "count/op"); ("sim.barriers", "count/op");
    ("sim.device_cycles", "cycles/op"); ("sim.global_transactions", "count/op");
    ("sim.cache.hits", "count/op"); ("sim.cache.misses", "count/op");
    ("sim.cache.evictions", "count/op"); ("service.cache_hits", "count/op");
    ("service.cache_misses", "count/op") ]

let higher_is_better =
  [ "ir.parse.ops_per_s"; "core.rewrite_yield"; "sim.cache.hit_rate";
    "sim.cache.hits"; "sim.modeled_speedup_geomean"; "service.cache_hits";
    "service.hit_rate"; "trace.coverage" ]

let per_layer () =
  let dir name = if List.mem name higher_is_better then "higher" else "lower" in
  List.map (fun s -> m (s ^ ".ms") "ms/op" "lower") (span_names ())
  @ List.map (fun (n, u) -> m n u (dir n)) per_op_counters
  @ List.map
      (fun (n, u) -> m n u (dir n))
      [ ("ir.parse.ops_per_s", "1/s"); ("core.rewrite_yield", "ratio");
        ("runtime.us_per_work_item", "us"); ("sim.cache.hit_rate", "ratio");
        ("sim.modeled_speedup_geomean", "x");
        ("service.request_hit.ms_p50", "ms");
        ("service.request_miss.ms_p50", "ms"); ("service.hit_rate", "ratio");
        ("service.compile_cost_units", "units");
        ("trace.overhead_share", "ratio"); ("trace.coverage", "ratio") ]

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : (string * string) list;  (** metric -> remark printed beside it *)
}

let now = Unix.gettimeofday

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' status)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM line in /proc/self/status"

(* ------------------------------------------------------------------ *)
(* The op loop                                                         *)
(* ------------------------------------------------------------------ *)

type loop = {
  times : float array;  (** seconds, one per op that returned *)
  attempted : int;
  failed : int;
  rss_mb : float;  (** peak RSS after the first round *)
}

(* Run ops [first], [first + 1], ... until [deadline] (at least one op)
   or [last], calling [after_op i] after op [i - 1]. An op's time covers its
   layer calls, not its output check. Peak memory is read once the first
   round is done: later rounds repeat its work, and how many of them fit
   in the time depends on the machine's speed. *)
let run_ops ?(first = 0) ?(after_op = fun _ -> ()) (inst : Workloads.instance) ~deadline
    ~last =
  let times = ref [] and failed = ref 0 and i = ref first and rss = ref None in
  let fail msg =
    if !failed < 5 then prerr_endline ("op failed: " ^ msg);
    incr failed
  in
  while !i < last && (!i = first || now () < deadline) do
    Probe.set_op !i;
    let t0 = now () in
    (match Probe.span "bench.op" (fun () -> inst.Workloads.op !i) with
    | check -> (
      times := (now () -. t0) :: !times;
      match Probe.span "bench.check" check with
      | Ok () -> ()
      | Error msg -> fail msg
      | exception e -> fail (Printexc.to_string e))
    | exception e -> fail (Printexc.to_string e));
    incr i;
    if !i = inst.Workloads.round then rss := Some (peak_rss_mb ());
    after_op !i
  done;
  { times = Array.of_list (List.rev !times); attempted = !i - first; failed = !failed;
    rss_mb = (match !rss with Some r -> r | None -> peak_rss_mb ()) }

(* One set-up sample: set up again and again until 10 ms have passed, so
   that a set-up of a fraction of a millisecond is not one clock reading;
   the time per set-up and the last instance. *)
let setup_sample (w : Workloads.t) ~root ~seed =
  let t0 = now () in
  let rec go n =
    let inst = w.Workloads.setup ~root ~seed in
    let dt = now () -. t0 in
    if dt >= 0.01 then (dt /. float_of_int n, inst) else go (n + 1)
  in
  go 1

(* Set-up samples taken between ops, one per [setup_samples]-th of the
   run, and one at its end, so that their median does not rest on how
   fast the machine was at one moment. *)
let setup_samples = 16

let sum = Array.fold_left ( +. ) 0.0

(* Each op of a round is timed once per round, and its latency is the
   fastest of those times: the machine this runs on is shared, its speed
   swings by up to 2x over seconds to minutes, and interference only ever
   slows an op down, so the fastest repetition is the steadiest measure of
   the program's own cost. Percentiles are over the round's ops, and
   throughput is a round's ops over the sum of their latencies. *)
let end_to_end_metrics ~setup_s ~round (l : loop) =
  let fastest = Stats.fastest_per_op ~round l.times in
  let n = Array.length fastest in
  let rounds = Array.length l.times / round in
  let sorted = Stats.sorted_copy fastest in
  let ms p = if n = 0 then 0.0 else 1000.0 *. Stats.nearest_rank sorted p in
  let tail = Stats.tail_percentile n in
  let ops_per_s = if n = 0 then 0.0 else float_of_int n /. sum fastest in
  let of_ops = Printf.sprintf "%d ops, fastest of %d rounds" n rounds in
  ( [ ("setup_s", setup_s); ("op_ms_p50", ms 50); ("op_ms_tail", ms tail);
      ("ops_per_s", ops_per_s);
      ("peak_rss_mb", l.rss_mb) ],
    [ ("op_ms_p50", "p50 of " ^ of_ops);
      ("op_ms_tail", Printf.sprintf "p%d of %s" tail of_ops);
      ("ops_per_s", of_ops);
      ("setup_s", "median of the set-up samples");
      ("peak_rss_mb", "after the first round") ] )

(* Per-layer values that are counts, or ratios of counts, from the
   program's results: for a given seed they are the same on every run,
   and [compare] requires them to be. *)
let exact_metrics =
  List.map fst per_op_counters
  @ [ "core.rewrite_yield"; "sim.cache.hit_rate"; "sim.modeled_speedup_geomean";
      "service.hit_rate"; "service.compile_cost_units" ]

(* The exact values, from the counters of the [ops] traced ops run so
   far. They are taken after the first traced block, which every traced
   run finishes, so they do not depend on how many blocks fit. *)
let exact_values ~(inst : Workloads.instance) ~ops =
  let c = Probe.counter in
  let per_op x = x /. float_of_int (max 1 ops) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  List.map (fun (n, _) -> (n, per_op (c n))) per_op_counters
  @ [ ("core.rewrite_yield", ratio (c "core.rewrites") (c "core.ops_visited"));
      ( "sim.cache.hit_rate",
        ratio (c "sim.cache.hits") (c "sim.cache.hits" +. c "sim.cache.misses") );
      ( "service.hit_rate",
        ratio (c "service.cache_hits")
          (c "service.cache_hits" +. c "service.cache_misses") ) ]
  @ inst.Workloads.extras ()

(* Per-layer timings from all traced blocks: self time per op, and the
   ratios built from it. *)
let timing_values ~ops ~traced_s ~untraced_s ~wall_s selfs =
  let per_op x = x /. float_of_int (max 1 ops) in
  let self name =
    match List.find_opt (fun (n, _, _) -> n = name) selfs with
    | Some (_, t, _) -> t
    | None -> 0.0
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let c = Probe.counter in
  let p50 name =
    match Probe.samples name with
    | [||] -> 0.0
    | xs -> Stats.median xs
  in
  List.map (fun s -> (s ^ ".ms", per_op (1000.0 *. self s))) (span_names ())
  @ [ ("ir.parse.ops_per_s", ratio (c "ir.parse.ops") (self "ir.parse"));
      ( "runtime.us_per_work_item",
        ratio (1e6 *. self "runtime.run") (c "sim.work_items") );
      ("service.request_hit.ms_p50", p50 "service.request_hit.ms");
      ("service.request_miss.ms_p50", p50 "service.request_miss.ms");
      ("trace.overhead_share", ratio (traced_s -. untraced_s) untraced_s);
      ("trace.coverage", ratio (List.fold_left (fun a (_, t, _) -> a +. t) 0.0 selfs) wall_s)
    ]

(* Keep exactly the metrics of [table], in its order, with its units;
   one the workload never produced reads 0. *)
let select table values =
  List.map
    (fun mt ->
      (mt.name, Option.value ~default:0.0 (List.assoc_opt mt.name values), mt.unit_))
    table

let print_self_table ~workload ~ops ~wall_s selfs =
  Printf.printf "%s self time over %d traced ops (%.3f s):\n" workload ops wall_s;
  Printf.printf "  %-44s %8s %12s %10s %7s\n" "span" "calls" "self ms" "ms/op" "share";
  List.iter
    (fun (name, t, n) ->
      Printf.printf "  %-44s %8d %12.3f %10.4f %6.2f%%\n" name n (1000.0 *. t)
        (1000.0 *. t /. float_of_int (max 1 ops))
        (100.0 *. t /. wall_s))
    (List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) selfs)

(** Run workload [w] for [seconds]. [max_ops] caps the op count (smoke
    tests). *)
let run_workload ?(root = ".") ?(max_ops = max_int) ?trace_json (w : Workloads.t)
    ~seed ~seconds ~traced =
  Probe.disable ();
  Probe.reset ();
  let finish ~attempted ~failed metrics notes =
    { workload = w.Workloads.name; correct = failed = 0; attempted; failed;
      metrics; notes }
  in
  if not traced then begin
    let inst = w.Workloads.setup ~root ~seed in
    let samples = ref [] and last_sample = ref (now ()) in
    let sample () =
      samples := fst (setup_sample w ~root ~seed) :: !samples;
      last_sample := now ()
    in
    (* Sampling starts after the first round, so that the memory read
       then does not depend on where the samples fell. *)
    let after_op i =
      if i >= inst.Workloads.round
         && now () -. !last_sample >= seconds /. float_of_int setup_samples
      then sample ()
    in
    let l = run_ops ~after_op inst ~deadline:(now () +. seconds) ~last:max_ops in
    sample ();
    let setup_s = Stats.median (Array.of_list !samples) in
    let values, notes = end_to_end_metrics ~setup_s ~round:inst.Workloads.round l in
    finish ~attempted:l.attempted ~failed:l.failed (select end_to_end values) notes
  end
  else begin
    let plain_inst = w.Workloads.setup ~root ~seed in
    let inst = w.Workloads.setup ~root ~seed in
    let block = min inst.Workloads.round max_ops in
    let deadline = now () +. seconds in
    let exact = ref [] in
    let rec turns r plain traced wall_s =
      let first = r * block in
      if first >= max_ops || (r > 0 && now () >= deadline) then (plain, traced, wall_s)
      else begin
        let last = min (first + block) max_ops in
        let p = run_ops plain_inst ~first ~deadline:infinity ~last in
        Probe.enable ();
        let t0 = now () in
        let t = run_ops inst ~first ~deadline:infinity ~last in
        let wall = now () -. t0 in
        Probe.disable ();
        if r = 0 then exact := exact_values ~inst ~ops:t.attempted;
        turns (r + 1) (p :: plain) (t :: traced) (wall_s +. wall)
      end
    in
    let plain, traced, wall_s = turns 0 [] [] 0.0 in
    let total f ls = List.fold_left (fun acc l -> acc + f l) 0 ls in
    let time ls = List.fold_left (fun acc l -> acc +. sum l.times) 0.0 ls in
    let spans = Probe.spans () in
    let selfs = Probe.self_times spans in
    let ops = total (fun l -> l.attempted) traced in
    print_self_table ~workload:w.Workloads.name ~ops ~wall_s selfs;
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Json.to_string ~compact:true (Probe.chrome_json spans))))
      trace_json;
    let values =
      !exact
      @ timing_values ~ops ~traced_s:(time traced) ~untraced_s:(time plain) ~wall_s
          selfs
    in
    finish
      ~attempted:(total (fun l -> l.attempted) (plain @ traced))
      ~failed:(total (fun l -> l.failed) (plain @ traced))
      (select (per_layer ()) values) []
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let result_json (r : result) : Json.t =
  Json.Obj
    [ ("correct", Json.Bool r.correct); ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) ->
               (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
             r.metrics) ) ]

let print_lines (r : result) =
  List.iter
    (fun (n, v, u) ->
      Printf.printf "%s %s %.6g %s%s\n" r.workload n v u
        (match List.assoc_opt n r.notes with
        | Some note -> "  (" ^ note ^ ")"
        | None -> ""))
    r.metrics;
  Printf.printf "%s ops %d attempted, %d failed\n" r.workload r.attempted r.failed

let result_of_json ~workload (j : Json.t) : result =
  let get k conv =
    match Option.bind (Json.member k j) conv with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: missing or bad %S" workload k)
  in
  let metrics =
    List.map
      (fun (n, mj) ->
        ( n,
          Option.value ~default:Float.nan (Option.bind (Json.member "value" mj) Json.as_float),
          Option.value ~default:"" (Option.bind (Json.member "unit" mj) Json.as_string) ))
      (get "metrics" Json.as_obj)
  in
  { workload; correct = get "correct" Json.as_bool;
    attempted = get "attempted" Json.as_int; failed = get "failed" Json.as_int;
    metrics; notes = [] }

(** The file [perf.exe run] writes: one result per workload. *)
let run_json ~seed ~seconds ~traced (rs : result list) : Json.t =
  Json.Obj
    [ ("seed", Json.Int seed); ("seconds", Json.Int seconds);
      ("trace", Json.Bool traced);
      ("workloads", Json.Obj (List.map (fun r -> (r.workload, result_json r)) rs)) ]

let read_json path = Json.parse (In_channel.with_open_bin path In_channel.input_all)

(** The seed and the results of a file [perf.exe run] wrote. *)
let results_of_run_json (j : Json.t) =
  match
    ( Option.bind (Json.member "seed" j) Json.as_int,
      Option.bind (Json.member "workloads" j) Json.as_obj )
  with
  | Some seed, Some ws -> (seed, List.map (fun (w, rj) -> result_of_json ~workload:w rj) ws)
  | _ -> failwith "not a perf run file (no \"seed\" or \"workloads\")"

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and compare                                          *)
(* ------------------------------------------------------------------ *)

type spec = {
  run_seconds : int;
  workload_names : string list;
  e2e : (metric * float) list;  (** with its bound *)
  layer : metric list;
}

let read_spec path : spec =
  let j = read_json path in
  let list k = Option.value ~default:[] (Option.bind (Json.member k j) Json.as_list) in
  let str k o = Option.value ~default:"" (Option.bind (Json.member k o) Json.as_string) in
  let metric o = { name = str "name" o; unit_ = str "unit" o; better = str "better" o } in
  { run_seconds =
      Option.value ~default:10 (Option.bind (Json.member "run_seconds" j) Json.as_int);
    workload_names = List.map (str "name") (list "workloads");
    e2e =
      List.map
        (fun o ->
          ( metric o,
            Option.value ~default:0.0 (Option.bind (Json.member "bound" o) Json.as_float) ))
        (list "end_to_end");
    layer = List.map metric (list "per_layer") }

(** Print one row per (workload, metric) of run [b] against run [a],
    each a seed and its results; true when [b] failed ops, when some
    end-to-end metric got worse than its bound, or, for runs with the same
    seed, when some exact metric changed at all. *)
let compare_runs (spec : spec) (seed_a, (a : result list)) (seed_b, (b : result list)) =
  let regressed = ref false in
  let flag verdict =
    regressed := true;
    verdict
  in
  Printf.printf "%-15s %-44s %14s %14s %9s %7s  %s\n" "workload" "metric" "A" "B"
    "change" "bound" "verdict";
  List.iter
    (fun (rb : result) ->
      match List.find_opt (fun (ra : result) -> ra.workload = rb.workload) a with
      | None -> Printf.printf "%-15s (not in A)\n" rb.workload
      | Some ra ->
        if (not rb.correct) || rb.failed > 0 then
          Printf.printf "%-15s %-44s %14s %14d %9s %7s  %s\n" rb.workload
            "failed ops" "" rb.failed "" "" (flag "REGRESSION");
        List.iter
          (fun (n, vb, u) ->
            let va =
              List.find_map (fun (n', v, _) -> if n' = n then Some v else None) ra.metrics
            in
            let e2e = List.find_opt (fun (mt, _) -> mt.name = n) spec.e2e in
            let change =
              match va with
              | Some va when va <> 0.0 -> Some ((vb -. va) /. Float.abs va)
              | _ -> None
            in
            let verdict, bound =
              match (e2e, change) with
              | Some (mt, bound), Some ch ->
                let worse = if mt.better = "higher" then -.ch else ch in
                ((if worse > bound then flag "REGRESSION" else "ok"), bound)
              | Some (_, bound), None -> (flag "MISSING", bound)
              | None, _ when List.mem n exact_metrics ->
                ( (if seed_a <> seed_b then "(seeds differ)"
                   else if va = Some vb then "exact"
                   else flag "CHANGED"),
                  Float.nan )
              | None, _ -> ("", Float.nan)
            in
            Printf.printf "%-15s %-44s %14s %14.6g %9s %7s  %s\n" rb.workload
              (n ^ " [" ^ u ^ "]")
              (match va with Some v -> Printf.sprintf "%.6g" v | None -> "-")
              vb
              (match change with
              | Some ch -> Printf.sprintf "%+.2f%%" (100.0 *. ch)
              | None -> "-")
              (if Float.is_nan bound then "" else Printf.sprintf "%.0f%%" (100.0 *. bound))
              verdict)
          rb.metrics)
    b;
  !regressed
