(* Tests of the wall-clock benchmark: its order statistics, self-time
   arithmetic, seeded inputs, and a one-op run of every workload whose
   metric names and units must match BENCHMARK.json. *)

open Perf_harness

let root = "../.."

let test_nearest_rank () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  List.iter
    (fun (p, want) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%d" p) want (Stats.nearest_rank xs p))
    [ (1, 1.0); (10, 1.0); (11, 2.0); (50, 5.0); (90, 9.0); (99, 10.0); (100, 10.0) ];
  let ys = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p99 of 1000 is rank 990" 990.0 (Stats.nearest_rank ys 99);
  Alcotest.(check (float 0.0)) "median of unsorted" 3.0
    (Stats.median [| 5.0; 1.0; 4.0; 2.0; 3.0 |])

let test_tail_rule () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "tail of %d samples" n) want
        (Stats.tail_percentile n))
    [ (2000, 99); (1000, 99); (999, 98); (100, 90); (60, 83); (21, 52); (20, 50);
      (5, 50); (1, 50) ];
  (* The rule itself: at least 10 samples beyond the rank, and one
     percent more would leave fewer (unless capped at p99). *)
  for n = 21 to 3000 do
    let p = Stats.tail_percentile n in
    let beyond q = n - Stats.rank ~n q in
    if beyond p < 10 || (p < 99 && beyond (p + 1) >= 10) then
      Alcotest.failf "tail rule broken at n=%d (p%d)" n p
  done

let test_fastest_per_op () =
  let check name want got = Alcotest.(check (array (float 0.0))) name want got in
  (* Two whole rounds of three ops and a partial third round, which is
     left out. *)
  check "fastest of whole rounds" [| 1.0; 5.0; 2.0 |]
    (Stats.fastest_per_op ~round:3 [| 1.0; 6.0; 3.0; 4.0; 5.0; 2.0; 0.5 |]);
  check "no whole round" [| 7.0; 8.0 |] (Stats.fastest_per_op ~round:3 [| 7.0; 8.0 |])

let span id parent start stop =
  { Probe.id; parent; op = 0; name = Printf.sprintf "s%d" id; start; stop }

let test_self_time () =
  (* s0 [0,10] has children s1 [1,4] and s2 [3,6], which overlap; s1 has
     child s3 [2,3]. *)
  let spans =
    [ span 0 (-1) 0.0 10.0; span 1 0 1.0 4.0; span 2 0 3.0 6.0; span 3 1 2.0 3.0 ]
  in
  let selfs = Probe.self_times spans in
  List.iter
    (fun (name, want) ->
      match List.find_opt (fun (n, _, _) -> n = name) selfs with
      | Some (_, t, calls) ->
        Alcotest.(check (float 1e-9)) name want t;
        Alcotest.(check int) (name ^ " calls") 1 calls
      | None -> Alcotest.failf "no self time for %s" name)
    [ ("s0", 5.0); ("s1", 2.0); ("s2", 3.0); ("s3", 1.0) ];
  (* A child sticking out of its parent only counts inside it. *)
  let selfs = Probe.self_times [ span 0 (-1) 0.0 2.0; span 1 0 1.0 5.0 ] in
  Alcotest.(check (float 1e-9)) "clipped" 1.0
    (List.find_map (fun (n, t, _) -> if n = "s0" then Some t else None) selfs
    |> Option.get)

let test_live_spans () =
  Probe.reset ();
  Probe.enable ();
  Probe.span "a" (fun () ->
      Probe.span "b" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0)));
      try Probe.span "c" (fun () -> failwith "boom") with Failure _ -> ());
  Probe.disable ();
  let spans = Probe.spans () in
  Alcotest.(check (list string)) "names in start order" [ "a"; "b"; "c" ]
    (List.map (fun s -> s.Probe.name) spans);
  let a = List.hd spans in
  List.iter
    (fun s -> if s != a then Alcotest.(check int) "parent" a.Probe.id s.Probe.parent)
    spans;
  let total = List.fold_left (fun acc (_, t, _) -> acc +. t) 0.0 (Probe.self_times spans) in
  Alcotest.(check (float 1e-9)) "self times sum to the root" (a.Probe.stop -. a.Probe.start)
    total;
  Probe.reset ()

let test_seeded_inputs () =
  let c1 = Workloads.corpus ~seed:1 in
  Alcotest.(check int) "corpus size" 31 (Array.length c1);
  Alcotest.(check bool) "corpus repeats" true (c1 = Workloads.corpus ~seed:1);
  Alcotest.(check bool) "corpus follows the seed" false (c1 = Workloads.corpus ~seed:2);
  let r = Workloads.sim_round in
  let s1 = Workloads.sim_draw ~seed:1 in
  Alcotest.(check bool) "sim draw repeats" true (s1 = Workloads.sim_draw ~seed:1);
  Alcotest.(check bool) "sim draw follows the seed" false (s1 = Workloads.sim_draw ~seed:2);
  (* The draw pairs every builder with every size stratum once, and the
     seed only orders it. *)
  Alcotest.(check bool) "sim draw is the same set for every seed" true
    (List.sort compare (Array.to_list s1)
     = List.sort compare (Array.to_list (Workloads.sim_draw ~seed:2)));
  let strata (b, n) = (b, (n - 8) / 4) in
  Alcotest.(check (list (pair int int))) "one draw per (builder, stratum)"
    (List.sort compare (List.init r (fun c -> (c mod 8, c / 8))))
    (List.sort compare (Array.to_list (Array.map strata s1)));
  Array.iter
    (fun (_, n) -> if n < 8 || n > 47 then Alcotest.failf "n=%d out of [8,47]" n)
    s1

let metric_names (ms : (string * float * string) list) =
  List.sort compare (List.map (fun (n, _, u) -> (n, u)) ms)

let table_names (ms : Harness.metric list) =
  List.sort compare (List.map (fun (mt : Harness.metric) -> (mt.Harness.name, mt.Harness.unit_)) ms)

let test_tables_match_spec () =
  let spec = Harness.read_spec (Filename.concat root "BENCHMARK.json") in
  let triple (mt : Harness.metric) = (mt.Harness.name, mt.Harness.unit_, mt.Harness.better) in
  let sorted l = List.sort compare (List.map triple l) in
  Alcotest.(check (list (triple string string string))) "end-to-end"
    (sorted (List.map fst spec.Harness.e2e)) (sorted Harness.end_to_end);
  Alcotest.(check (list (triple string string string))) "per-layer"
    (sorted spec.Harness.layer) (sorted (Harness.per_layer ()));
  Alcotest.(check (list string)) "workloads" spec.Harness.workload_names
    (List.map (fun w -> w.Workloads.name) Workloads.all)

(* compare: an end-to-end metric fails past its bound; an exact count
   fails on any change between runs of one seed, and is not judged
   between seeds. *)
let test_compare () =
  let spec = Harness.read_spec (Filename.concat root "BENCHMARK.json") in
  let run ?(ops_per_s = 100.0) ?(visited = 10.0) seed : int * Harness.result list =
    ( seed,
      [ { Harness.workload = "w"; correct = true; attempted = 1; failed = 0; notes = [];
          metrics =
            [ ("ops_per_s", ops_per_s, "1/s"); ("core.ops_visited", visited, "count/op") ]
        } ] )
  in
  let regressed a b = Harness.compare_runs spec a b in
  Alcotest.(check bool) "same" false (regressed (run 1) (run 1));
  Alcotest.(check bool) "within bound" false (regressed (run 1) (run ~ops_per_s:90.0 1));
  Alcotest.(check bool) "past bound" true (regressed (run 1) (run ~ops_per_s:50.0 1));
  Alcotest.(check bool) "count changed" true (regressed (run 1) (run ~visited:11.0 1));
  Alcotest.(check bool) "count across seeds" false (regressed (run 1) (run ~visited:11.0 2))

(* One op per workload, untraced and traced: the emitted names and units
   are exactly BENCHMARK.json's, and the outputs check. *)
let test_smoke (w : Workloads.t) () =
  let spec = Harness.read_spec (Filename.concat root "BENCHMARK.json") in
  let run traced =
    Harness.run_workload ~root ~max_ops:1 w ~seed:1 ~seconds:0.0 ~traced
  in
  let plain = run false in
  Alcotest.(check bool) "correct" true plain.Harness.correct;
  Alcotest.(check int) "attempted" 1 plain.Harness.attempted;
  Alcotest.(check (list (pair string string))) "end-to-end names"
    (table_names (List.map fst spec.Harness.e2e)) (metric_names plain.Harness.metrics);
  List.iter
    (fun (n, v, _) -> if not (v > 0.0) then Alcotest.failf "%s is %g, not > 0" n v)
    plain.Harness.metrics;
  let traced = run true in
  Alcotest.(check bool) "traced correct" true traced.Harness.correct;
  Alcotest.(check (list (pair string string))) "per-layer names"
    (table_names spec.Harness.layer) (metric_names traced.Harness.metrics)

let () =
  Alcotest.run "perf"
    [ ( "stats",
        [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "fastest per op" `Quick test_fastest_per_op ] );
      ( "probe",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "live spans" `Quick test_live_spans ] );
      ("inputs", [ Alcotest.test_case "seeded inputs" `Quick test_seeded_inputs ]);
      ( "smoke",
        Alcotest.test_case "tables match BENCHMARK.json" `Quick test_tables_match_spec
        :: Alcotest.test_case "compare" `Quick test_compare
        :: List.map
             (fun w -> Alcotest.test_case w.Workloads.name `Quick (test_smoke w))
             Workloads.all ) ]
