(* The cache-hierarchy performance model: direct-mapped conflict
   behavior, set-associative LRU order, exact conservation against the
   launch counters on barrier and stencil workloads, domain-count
   independence of every cache surface, flat-model byte compatibility,
   and the reuse-analysis cross-check (static prediction vs measured hit
   rate). *)

open Mlir
module Cache = Sycl_sim.Cache
module Attribution = Sycl_sim.Attribution
module Cost = Sycl_sim.Cost
module H = Sycl_runtime.Host_interp
module AP = Sycl_core.Analysis_printer
open Sycl_workloads

let matmul_text () =
  In_channel.with_open_text "../examples/matmul.mlir" In_channel.input_all

let contains ~needle hay =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

(* Parse + compile the matmul example exactly like `sycl-bench --file`,
   then run it under [cache_model]. *)
let run_matmul ?(sim_domains = Helpers.sim_domains) ?cache_model () =
  let m = Parser.parse_module ~file:"matmul.mlir" (matmul_text ()) in
  ignore
    (Sycl_core.Driver.compile
       (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
       m);
  let args = Annotate.synth_args m ~size:16 in
  (m, H.run ~sim_domains ?cache_model ~module_op:m args)

let run_workload ?cache_model (w : Common.workload) =
  (Helpers.measure_sycl_mlir ?cache_model w).Common.m_result

let merged (r : H.run_result) =
  Attribution.merge_launches r.H.per_kernel_attribution

(* A table's cache view; every launch under a non-flat model has one. *)
let cache_view to_view tab =
  match to_view tab with
  | Some v -> v
  | None -> Alcotest.fail "no cache view under a non-flat model"

let state_exn model =
  match Cache.create Cost.default model with
  | Some s -> s
  | None -> Alcotest.fail "expected a cache state for a non-flat model"

let check_conserved name (r : H.run_result) =
  (match Attribution.check_launches r.H.per_kernel r.H.per_kernel_attribution with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg);
  (* And hits + misses decompose the transaction count exactly. *)
  List.iter2
    (fun (_, (s : Cost.launch_stats)) (_, _tab) ->
      Alcotest.(check int)
        (name ^ ": hits + misses = global transactions")
        s.Cost.global_transactions
        (s.Cost.cache_hits + s.Cost.cache_misses))
    r.H.per_kernel r.H.per_kernel_attribution

(* The LRU stack distance of every probe of [probes] by brute force: the
   number of distinct lines probed since the line's previous probe, or
   -1 on its first. *)
let stack_distances probes =
  let stack = ref [] (* most recent first *) in
  List.map
    (fun key ->
      let rec pos i = function
        | [] -> -1
        | k :: rest -> if k = key then i else pos (i + 1) rest
      in
      let d = pos 0 !stack in
      stack := key :: List.filter (fun k -> k <> key) !stack;
      d)
    probes

(* Sequences of (allocation id, line) probes: enough probes to grow the
   tracker's position tree past its 64 initial positions, and enough
   distinct lines to grow its table past 16 entries. *)
let probes_gen =
  QCheck2.Gen.(
    list_size (int_range 70 300) (pair (int_range 0 3) (int_range 0 60)))

let tests_list =
  [
    Helpers.qtest ~count:200
      "reuse_access gives exact LRU stack distances, also after a reset"
      QCheck2.Gen.(pair probes_gen probes_gen)
      (fun (first, second) ->
        let run r = List.map (fun (aid, line) -> Cache.reuse_access r ~aid ~line) in
        let r = Cache.reuse_create () in
        let before = run r first in
        Cache.reuse_reset r;
        let after = run r second in
        before = stack_distances first
        && after = stack_distances second
        && after = run (Cache.reuse_create ()) second);
    Helpers.qtest ~count:100 "a reset cache probes as a fresh one"
      QCheck2.Gen.(pair probes_gen probes_gen)
      (fun (first, second) ->
        List.for_all
          (fun model ->
            let run s =
              List.map (fun (aid, line) -> Cache.access s ~aid ~line) in
            let s = state_exn model in
            ignore (run s first);
            Cache.reset s;
            run s second = run (state_exn model) second)
          [ Cost.Direct_mapped; Cost.Set_associative ]);
    Alcotest.test_case "direct-mapped: conflicting lines evict each other"
      `Quick (fun () ->
        (* Cost.default has 64 lines; direct-mapped means line l lives in
           set l mod 64, so lines 0 and 64 of one allocation conflict. *)
        let s = state_exn Cost.Direct_mapped in
        let a = Cache.access s ~aid:0 ~line:0 in
        Alcotest.(check bool) "cold miss" false a.Cache.o_hit;
        Alcotest.(check bool) "no eviction on empty set" false
          a.Cache.o_evicted;
        let b = Cache.access s ~aid:0 ~line:0 in
        Alcotest.(check bool) "warm hit" true b.Cache.o_hit;
        let c = Cache.access s ~aid:0 ~line:64 in
        Alcotest.(check bool) "conflict misses" false c.Cache.o_hit;
        Alcotest.(check bool) "conflict evicts" true c.Cache.o_evicted;
        let d = Cache.access s ~aid:0 ~line:0 in
        Alcotest.(check bool) "victim is gone" false d.Cache.o_hit;
        (* Tags carry the allocation id: same line of another allocation
           is a different block (and another conflict). *)
        let e = Cache.access s ~aid:1 ~line:0 in
        Alcotest.(check bool) "other allocation misses" false e.Cache.o_hit);
    Alcotest.test_case "set-associative: exact LRU eviction order" `Quick
      (fun () ->
        (* 64 lines / 4 ways = 16 sets; lines 0,16,32,48,64 of one
           allocation all index set 0. *)
        let s = state_exn Cost.Set_associative in
        let probe line = Cache.access s ~aid:0 ~line in
        List.iter
          (fun line ->
            Alcotest.(check bool)
              (Printf.sprintf "cold miss on %d" line)
              false (probe line).Cache.o_hit)
          [ 0; 16; 32; 48 ];
        (* Touch 0 so 16 becomes least-recently used. *)
        Alcotest.(check bool) "0 hits" true (probe 0).Cache.o_hit;
        let f = probe 64 in
        Alcotest.(check bool) "64 misses" false f.Cache.o_hit;
        Alcotest.(check bool) "64 evicts the LRU way" true f.Cache.o_evicted;
        Alcotest.(check bool) "0 survived (was refreshed)" true
          (probe 0).Cache.o_hit;
        Alcotest.(check bool) "16 was the victim" false (probe 16).Cache.o_hit;
        Alcotest.(check bool) "48 still resident" true (probe 48).Cache.o_hit);
    Alcotest.test_case
      "barrier (gemm) and stencil (jacobi) runs conserve exactly" `Quick
      (fun () ->
        List.iter
          (fun model ->
            let gemm =
              run_workload ~cache_model:model (Polybench.gemm ~n:16)
            in
            check_conserved "gemm" gemm;
            Alcotest.(check bool) "gemm hit barriers" true
              (List.exists
                 (fun (_, s) -> s.Cost.barriers > 0)
                 gemm.H.per_kernel);
            check_conserved "jacobi"
              (run_workload ~cache_model:model
                 (Stencil.jacobi ~n:64 ~iters:2)))
          [ Cost.Direct_mapped; Cost.Set_associative ]);
    Alcotest.test_case "matmul hotspot table gains gated hit/miss columns"
      `Quick (fun () ->
        let _, r = run_matmul ~cache_model:Cost.Direct_mapped () in
        let table =
          Sycl_sim.Attribution.hotspots_to_string (merged r)
        in
        let golden =
          In_channel.with_open_text "../examples/matmul.hotspots.txt"
            In_channel.input_all
        in
        Alcotest.(check string) "golden dm hotspot table" golden table;
        List.iter
          (fun col ->
            Alcotest.(check bool) (col ^ " column present") true
              (contains ~needle:col table))
          [ "hits"; "misses"; "hitrate" ]);
    Alcotest.test_case "cache surfaces are byte-identical across domains"
      `Quick (fun () ->
        List.iter
          (fun model ->
            let _, r1 = run_matmul ~sim_domains:1 ~cache_model:model () in
            let _, r4 = run_matmul ~sim_domains:4 ~cache_model:model () in
            let render r =
              String.concat ""
                (List.map
                   (fun (name, tab) ->
                     name ^ ":\n" ^ cache_view Attribution.cache_to_string tab)
                   r.H.per_kernel_attribution)
            in
            let json r =
              String.concat ""
                (List.map
                   (fun (_, tab) ->
                     Json.to_string (cache_view Attribution.cache_to_json tab))
                   r.H.per_kernel_attribution)
            in
            Alcotest.(check string) "render identical" (render r1) (render r4);
            Alcotest.(check string) "JSON identical" (json r1) (json r4))
          [ Cost.Direct_mapped; Cost.Set_associative ]);
    Alcotest.test_case "flat model is a byte-compatible no-op" `Quick
      (fun () ->
        let _, r = run_matmul () in
        Alcotest.(check int) "no cache tables" 0
          (List.length
             (List.filter_map
                (fun (_, tab) -> Attribution.cache_to_string tab)
                r.H.per_kernel_attribution));
        List.iter
          (fun (_, (s : Cost.launch_stats)) ->
            Alcotest.(check int) "no hits" 0 s.Cost.cache_hits;
            Alcotest.(check int) "no misses" 0 s.Cost.cache_misses;
            Alcotest.(check int) "no evictions" 0 s.Cost.cache_evictions;
            Alcotest.(check int) "no wait cycles" 0 s.Cost.cache_mem_wait_cycles)
          r.H.per_kernel;
        let table = Sycl_sim.Attribution.hotspots_to_string (merged r) in
        Alcotest.(check bool) "no hitrate column under flat" false
          (contains ~needle:"hitrate" table);
        (* Explicit flat behaves exactly like the default. *)
        let _, r_flat = run_matmul ~cache_model:Cost.Flat () in
        Alcotest.(check string) "explicit flat table identical" table
          (Sycl_sim.Attribution.hotspots_to_string (merged r_flat)));
    Alcotest.test_case
      "predicted in-capacity reuse implies >= 90%% measured hit rate" `Quick
      (fun () ->
        (* Static side: the reuse printer annotates constant-stride
           accesses of the matmul source with their predicted reuse
           distance; loop accesses it leaves unannotated are predicted
           streaming. Dynamic side: compile and run the same source
           under the 4-way LRU model (direct-mapped would conflict-miss,
           which is exactly why the cross-check runs under assoc). The
           optimized pipeline fuses source locations, so a runtime row
           inherits a prediction when its location names a predicted
           source line and no streaming one. *)
        let src = Parser.parse_module ~file:"matmul.mlir" (matmul_text ()) in
        AP.set_sink ignore;
        ignore (Pass.run_pipeline [ AP.print_reuse ] src);
        AP.set_sink prerr_string;
        let capacity = Cost.default.Cost.cache_lines in
        let predicted = ref [] and streaming = ref [] in
        let loops =
          Core.collect src ~p:(fun o ->
              Dialects.Scf.is_for o || Dialects.Affine_ops.is_for o)
        in
        List.iter
          (fun loop ->
            Core.walk loop ~f:(fun op ->
                if op.Core.name = "memref.load" || op.Core.name = "memref.store"
                then
                  let loc = Loc.to_string op.Core.loc in
                  match Core.attr op AP.reuse_dist_attr with
                  | Some (Attr.Int d) when d <= capacity ->
                    predicted := loc :: !predicted
                  | _ -> streaming := loc :: !streaming))
          loops;
        Alcotest.(check bool) "some accesses predicted in-capacity" true
          (!predicted <> []);
        Alcotest.(check bool) "some accesses predicted streaming" true
          (!streaming <> []);
        let _, r = run_matmul ~cache_model:Cost.Set_associative () in
        let tab = merged r in
        if tab.Attribution.reuse = None then
          Alcotest.fail "no cache table under assoc";
        let hits = ref 0 and misses = ref 0 and matched = ref 0 in
        List.iter
          (fun ((k : Attribution.key), (row : Attribution.counts)) ->
            let loc = Loc.to_string k.Attribution.k_loc in
            let names l = contains ~needle:l loc in
            if
              row.Attribution.c_hits + row.Attribution.c_misses > 0
              && List.exists names !predicted
              && not (List.exists names !streaming)
            then begin
              incr matched;
              hits := !hits + row.Attribution.c_hits;
              misses := !misses + row.Attribution.c_misses
            end)
          (Attribution.rows tab);
        Alcotest.(check bool) "predicted rows observed dynamically" true
          (!matched > 0);
        let rate = Cache.hit_rate ~hits:!hits ~misses:!misses in
        if rate < 0.9 then
          Alcotest.failf
            "predicted in-capacity accesses measured only %.1f%% hits \
             (%d/%d over %d rows)"
            (100.0 *. rate) !hits (!hits + !misses) !matched);
    Alcotest.test_case "cache-coherence oracle holds for a dm caller" `Quick
      (fun () ->
        (* The oracle's flat leg compares an explicit flat run with a run
           given no settings; the caller's model must not leak into
           either. *)
        let sim =
          { Helpers.sim with Sycl_sim.Sim_config.cache_model = Cost.Direct_mapped }
        in
        match Differential.check_cache_coherence ~sim (Polybench.mvt ~n:8) with
        | Ok () -> ()
        | Error f -> Alcotest.fail (Difftest.failure_to_string f));
  ]

let tests = ("cache", tests_list)
