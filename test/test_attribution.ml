(* The source-attributed hotspot profiler: conservation against launch
   statistics (and the check's rejection of each perturbed column), the
   run merge, domain-count independence of every rendering, the golden
   matmul hotspot table, annotated-IR round-tripping and the
   Fused/CallSite join of the optimization-delta report. *)

open Mlir
open Sycl_workloads
module Attribution = Sycl_sim.Attribution
module H = Sycl_runtime.Host_interp

let matmul_text () =
  In_channel.with_open_text "../examples/matmul.mlir" In_channel.input_all

(* Parse the matmul example under its basename (the run_file convention),
   compile it with the default SYCL-MLIR pipeline and run it with
   synthesized size-16 arguments — exactly what
   `sycl-bench --file examples/matmul.mlir` does. *)
let run_matmul ?(sim_domains = Helpers.sim_domains) ?cache_model () =
  let m = Parser.parse_module ~file:"matmul.mlir" (matmul_text ()) in
  ignore
    (Sycl_core.Driver.compile (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir) m);
  let args = Annotate.synth_args m ~size:16 in
  (m, H.run ~sim_domains ?cache_model ~module_op:m args)

let merged r = Attribution.merge_launches r.H.per_kernel_attribution

let check_launches (r : H.run_result) =
  Attribution.check_launches r.H.per_kernel r.H.per_kernel_attribution

(* The run of a workload measured under the default SYCL-MLIR
   configuration. *)
let run_workload ?cache_model (w : Common.workload) =
  (Helpers.measure_sycl_mlir ?cache_model w).Common.m_result

(* The columns [Attribution.check_launches] compares with the launch
   statistics, under the names it reports them by, with a setter that
   adds to the column. *)
let checked_columns : (string * (Attribution.counts -> int -> unit)) list =
  Attribution.
    [
      ("alu", fun c d -> c.c_alu <- c.c_alu + d);
      ("fdiv", fun c d -> c.c_fdiv <- c.c_fdiv + d);
      ("global", fun c d -> c.c_global <- c.c_global + d);
      ("local", fun c d -> c.c_local <- c.c_local + d);
      ("const", fun c d -> c.c_const <- c.c_const + d);
      ("barriers", fun c d -> c.c_barriers <- c.c_barriers + d);
      ("cycles", fun c d -> c.c_cycles <- c.c_cycles + d);
      ("cache hits", fun c d -> c.c_hits <- c.c_hits + d);
      ("cache misses", fun c d -> c.c_misses <- c.c_misses + d);
      ("cache evictions", fun c d -> c.c_evictions <- c.c_evictions + d);
    ]

(* Every column of a row, for sums over tables. *)
let all_columns : (string * (Attribution.counts -> int)) list =
  Attribution.
    [
      ("alu", fun c -> c.c_alu);
      ("fdiv", fun c -> c.c_fdiv);
      ("global", fun c -> c.c_global);
      ("local", fun c -> c.c_local);
      ("const", fun c -> c.c_const);
      ("accesses", fun c -> c.c_accesses);
      ("barriers", fun c -> c.c_barriers);
      ("cycles", fun c -> c.c_cycles);
      ("mem_cycles", fun c -> c.c_mem_cycles);
      ("hits", fun c -> c.c_hits);
      ("misses", fun c -> c.c_misses);
      ("evictions", fun c -> c.c_evictions);
      ("dist_sum", fun c -> c.c_dist_sum);
      ("dist_count", fun c -> c.c_dist_count);
    ]

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let tests_list =
  [
    Alcotest.test_case "matmul: attribution conserves launch stats exactly"
      `Quick (fun () ->
        let _, r = run_matmul () in
        (match check_launches r with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "conservation violated: %s" msg);
        (* And the merged table's cycle total equals the summed per-launch
           work-group cycles. *)
        let total_stats =
          List.fold_left
            (fun acc (_, s) -> acc + s.Sycl_sim.Cost.total_wg_cycles)
            0 r.H.per_kernel
        in
        Alcotest.(check int) "total cycles" total_stats
          (Attribution.total_cycles (merged r)));
    Alcotest.test_case "conservation check rejects each perturbed column"
      `Quick (fun () ->
        (* Under the dm model every comparison of the check is live: one
           extra unit in any checked column of one row, a probe the
           transactions do not account for, or a launch list that does
           not pair with its tables must each be reported. *)
        let _, r = run_matmul ~cache_model:Sycl_sim.Cost.Direct_mapped () in
        let launches = r.H.per_kernel and tables = r.H.per_kernel_attribution in
        let expect_ok what =
          match Attribution.check_launches launches tables with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" what msg
        in
        let expect_error what ~needle =
          match Attribution.check_launches launches tables with
          | Ok () -> Alcotest.failf "%s: check passed" what
          | Error msg ->
            if not (contains ~needle msg) then
              Alcotest.failf "%s: %S does not name %S" what msg needle
        in
        expect_ok "unperturbed run";
        let _, c =
          match tables with
          | (_, t) :: _ -> List.hd (Attribution.rows t)
          | [] -> Alcotest.fail "no launch"
        in
        List.iter
          (fun (col, bump) ->
            bump c 1;
            expect_error col ~needle:(": " ^ col ^ " total ");
            bump c (-1))
          checked_columns;
        expect_ok "perturbations undone";
        (* A hit in both the table and the launch balances the hit column
           but not the probe count. *)
        let s = snd (List.hd launches) in
        s.Sycl_sim.Cost.cache_hits <- s.Sycl_sim.Cost.cache_hits + 1;
        c.Attribution.c_hits <- c.Attribution.c_hits + 1;
        expect_error "unaccounted probe" ~needle:": cache probes total ";
        s.Sycl_sim.Cost.cache_hits <- s.Sycl_sim.Cost.cache_hits - 1;
        c.Attribution.c_hits <- c.Attribution.c_hits - 1;
        expect_ok "probe undone";
        let disagree what ls ts =
          match Attribution.check_launches ls ts with
          | Ok () -> Alcotest.failf "%s: check passed" what
          | Error msg ->
            Alcotest.(check string) what "launch and table lists disagree" msg
        in
        disagree "missing table" launches (List.tl tables);
        disagree "renamed table" launches
          (List.map (fun (name, t) -> (name ^ "'", t)) tables));
    Alcotest.test_case "run merge: each column sums the launch tables" `Quick
      (fun () ->
        (* 3mm launches one kernel three times. Every column of the merged
           table, and its count of warm probes, is the sum over the launch
           tables, and the order of the launches does not change it. *)
        let r =
          run_workload ~cache_model:Sycl_sim.Cost.Direct_mapped
            (Polybench.three_mm ~n:16)
        in
        let tables = List.map snd r.H.per_kernel_attribution in
        Alcotest.(check int) "three launches" 3 (List.length tables);
        let tab = merged r in
        let column f t =
          List.fold_left (fun acc (_, c) -> acc + f c) 0 (Attribution.rows t)
        in
        let over_launches f =
          List.fold_left (fun acc t -> acc + f t) 0 tables
        in
        List.iter
          (fun (col, f) ->
            Alcotest.(check int) col (over_launches (column f)) (column f tab))
          all_columns;
        let warm t =
          match t.Attribution.reuse with
          | Some h -> h.Sycl_obs.Metrics.h_count
          | None -> Alcotest.fail "no cache view under the dm model"
        in
        Alcotest.(check int) "warm probes" (over_launches warm) (warm tab);
        Alcotest.(check bool) "some warm probes" true (warm tab > 0);
        let rev =
          Attribution.merge_launches (List.rev r.H.per_kernel_attribution)
        in
        Alcotest.(check string) "render in reverse order" (Attribution.render tab)
          (Attribution.render rev);
        Alcotest.(check (option string))
          "cache table in reverse order"
          (Attribution.cache_to_string tab)
          (Attribution.cache_to_string rev));
    Alcotest.test_case "matmul: >= 95%% of cycles land on known lines" `Quick
      (fun () ->
        let _, r = run_matmul () in
        let f = Attribution.known_cycle_fraction (merged r) in
        if f < 0.95 then
          Alcotest.failf "known-location fraction %.3f < 0.95" f);
    Alcotest.test_case "matmul: golden hotspot table" `Quick (fun () ->
        (* The golden table is generated under the direct-mapped cache
           model, so it pins the gated hit/miss/hitrate columns too. *)
        let _, r = run_matmul ~cache_model:Sycl_sim.Cost.Direct_mapped () in
        let golden =
          In_channel.with_open_text "../examples/matmul.hotspots.txt"
            In_channel.input_all
        in
        Alcotest.(check string) "hotspot report"
          golden
          (Attribution.hotspots_to_string (merged r)));
    Alcotest.test_case "matmul: 1-domain and 4-domain output byte-identical"
      `Quick (fun () ->
        let _, r1 = run_matmul ~sim_domains:1 () in
        let _, r4 = run_matmul ~sim_domains:4 () in
        let t1 = merged r1 and t4 = merged r4 in
        Alcotest.(check string) "canonical render" (Attribution.render t1)
          (Attribution.render t4);
        Alcotest.(check string) "JSON"
          (Json.to_string (Attribution.to_json t1))
          (Json.to_string (Attribution.to_json t4));
        Alcotest.(check string) "hotspot report"
          (Attribution.hotspots_to_string t1)
          (Attribution.hotspots_to_string t4));
    Alcotest.test_case "annotated IR round-trips and strips" `Quick (fun () ->
        let m, r = run_matmul () in
        Attribution.annotate_module (merged r) m;
        let text = Printer.to_string m in
        if not (Helpers.count_ops m "func.func" > 0) then
          Alcotest.fail "module lost its functions";
        (* The sycl.cycles attributes survive print -> parse -> verify and
           print back identically. *)
        let parsed = Parser.parse_module text in
        Helpers.check_verifies ~msg:"annotated module verifies" parsed;
        Alcotest.(check string) "fixpoint print" text (Printer.to_string parsed);
        let has_cycles op =
          Core.attr op Sycl_core.Analysis_printer.cycles_attr <> None
        in
        let any p m =
          let found = ref false in
          Core.walk m ~f:(fun op -> if p op then found := true);
          !found
        in
        Alcotest.(check bool) "annotations present" true (any has_cycles parsed);
        Sycl_core.Analysis_printer.strip_annotations parsed;
        Alcotest.(check bool) "annotations stripped" false
          (any has_cycles parsed));
    Alcotest.test_case "delta: Fused/CallSite constituents join the primary line"
      `Quick (fun () ->
        let before = Attribution.create () in
        let after = Attribution.create () in
        let f file line = Loc.file ~file ~line ~col:1 in
        (* Unoptimized: two separate source lines with costs. *)
        let b1 = Attribution.row before ~op_name:"memref.load" ~loc:(f "k.mlir" 4) in
        b1.Attribution.c_cycles <- 100;
        let b2 = Attribution.row before ~op_name:"memref.load" ~loc:(f "k.mlir" 9) in
        b2.Attribution.c_cycles <- 60;
        (* Optimized: line 9 survives only as a Fused constituent of the
           row primarily at line 4; a CallSite row inlined from line 20. *)
        let fused = Loc.fused [ f "k.mlir" 4; f "k.mlir" 9 ] in
        let a1 = Attribution.row after ~op_name:"memref.load" ~loc:fused in
        a1.Attribution.c_cycles <- 70;
        let cs = Loc.callsite ~callee:(f "k.mlir" 20) ~caller:(f "k.mlir" 4) in
        let a2 = Attribution.row after ~op_name:"arith.addf" ~loc:cs in
        a2.Attribution.c_cycles <- 10;
        let remark loc =
          { Remarks.r_pass = "licm"; r_name = "licm"; r_kind = Remarks.Passed;
            r_func = "k"; r_op = "memref.load";
            r_message = "hoisted"; r_loc = loc }
        in
        (* The remark is anchored at line 9 — which survived only inside
           the fused location — and must land on that row's primary line. *)
        let ds =
          Attribution.delta ~before ~after
            ~remarks:[ remark (f "k.mlir" 9) ]
        in
        let primary = Attribution.line_of_loc fused in
        let row =
          match
            List.find_opt (fun d -> d.Attribution.d_line = primary) ds
          with
          | Some d -> d
          | None -> Alcotest.failf "no delta row for %s" primary
        in
        Alcotest.(check int) "before (line 4's own cycles)" 100
          row.Attribution.d_before;
        Alcotest.(check int) "after" 70 row.Attribution.d_after;
        Alcotest.(check int) "remark joined through the fused loc" 1
          (List.length row.Attribution.d_remarks);
        (* The CallSite row reports under its callee line. *)
        let cs_primary = Attribution.line_of_loc cs in
        Alcotest.(check bool) "callsite row present" true
          (List.exists (fun d -> d.Attribution.d_line = cs_primary) ds);
        (* Rows sort by delta ascending: line 9 lost all 60 of its own
           cycles, the biggest saving, so it leads the report. *)
        (match ds with
        | first :: _ ->
          Alcotest.(check string) "largest saving first" "k.mlir:9"
            first.Attribution.d_line
        | [] -> Alcotest.fail "empty delta"));
    Alcotest.test_case "delta report: optimization shows on a remark line"
      `Quick (fun () ->
        let ds, remarks =
          Annotate.delta_report ~sim:Helpers.sim (Polybench.gemm ~n:16)
        in
        Alcotest.(check bool) "remarks collected" true (remarks <> []);
        Alcotest.(check bool)
          "some remark-bearing line saves cycles" true
          (List.exists
             (fun (d : Attribution.delta_row) ->
               d.Attribution.d_remarks <> []
               && d.Attribution.d_after - d.Attribution.d_before < 0)
             ds));
    Alcotest.test_case
      "barrier kernel: conservation holds and charges a barrier op" `Quick
      (fun () ->
        (* The internalized GEMM executes cooperative prefetches with
           work-group barriers — the barrier-round accounting must both
           conserve and attribute to the barrier op itself. *)
        let r = run_workload (Polybench.gemm ~n:16) in
        (match check_launches r with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "conservation violated: %s" msg);
        let barriers_run =
          List.fold_left (fun acc (_, s) -> acc + s.Sycl_sim.Cost.barriers) 0
            r.H.per_kernel
        in
        Alcotest.(check bool) "kernel hit barriers" true (barriers_run > 0);
        let tab = merged r in
        let barrier_rows =
          List.filter
            (fun ((k : Attribution.key), (c : Attribution.counts)) ->
              c.Attribution.c_barriers > 0
              && (k.Attribution.k_op = "gpu.barrier"
                 || k.Attribution.k_op = "sycl.group_barrier"))
            (Attribution.rows tab)
        in
        Alcotest.(check bool) "barrier rounds attributed to barrier ops" true
          (barrier_rows <> []));
    Alcotest.test_case "fuzzed workload: conservation oracle" `Quick (fun () ->
        (* Oracle (g) is checked by every run digest. *)
        let rng = Random.State.make [| 7; 21 |] in
        let w = Differential.random_workload rng in
        match Differential.run_digest ~sim:Helpers.sim w with
        | _ -> ()
        | exception Differential.Not_conserved detail -> Alcotest.fail detail);
    Alcotest.test_case "a digest rejects a run that does not conserve" `Quick
      (fun () ->
        (* One cycle more on one row of a measured run: the digest raises,
           and the oracles running it report oracle (g). *)
        let w = Polybench.gemm ~n:16 in
        let m = Helpers.measure_sycl_mlir w in
        ignore (Differential.digest m);
        (match m.Common.m_result.H.per_kernel_attribution with
        | (_, t) :: _ ->
          let _, c = List.hd (Attribution.rows t) in
          c.Attribution.c_cycles <- c.Attribution.c_cycles + 1
        | [] -> Alcotest.fail "no launch");
        match Differential.digest m with
        | _ -> Alcotest.fail "digest accepted a perturbed run"
        | exception (Differential.Not_conserved detail as e) -> (
          Alcotest.(check bool)
            (detail ^ " names the cycle column") true
            (contains ~needle:": cycles total " detail);
          match Differential.raised ~oracle:"determinism" w e with
          | Error f ->
            Alcotest.(check string) "reported as oracle (g)"
              "attribution-conservation" f.Difftest.f_oracle
          | Ok () -> Alcotest.fail "no failure"));
  ]

let tests = ("attribution", tests_list)
