(* The benchmark harness: regenerates every figure and table of the
   paper's evaluation (Section VIII).

   Usage:
     dune exec bench/main.exe            — everything
     dune exec bench/main.exe -- fig2    — single-kernel speedups (Fig. 2)
     dune exec bench/main.exe -- fig3    — polybench speedups (Fig. 3)
     dune exec bench/main.exe -- stencil — stencil workloads (Section VIII text)
     dune exec bench/main.exe -- geomean — geo-mean summary vs paper numbers
     dune exec bench/main.exe -- ablation— per-optimization contribution table
     dune exec bench/main.exe -- profile — pass timing + Chrome trace
                                           of a simulated GEMM run
     dune exec bench/main.exe -- fuzz [--seed N] [--iters N] [--diff-every N]
                                      [--json PATH]
                                         — differential fuzzing harness
     dune exec bench/main.exe -- report [--label L] [--out PATH]
                                         — schema-versioned metrics snapshot
                                           (BENCH_<label>.json)
     dune exec bench/main.exe -- compare OLD.json NEW.json
                                         — list every deterministic field
                                           that differs; exit 1 if any does

   Global flags (any subcommand), which make up the one simulator
   configuration every simulating subcommand runs with:
     --sim-domains N     — run the device simulator's work-groups on N
                           worker domains (default: SYCL_SIM_DOMAINS when
                           set, else the recommended count)
     --sim-check-races   — detect work-groups writing overlapping global
                           locations (exit 1 with a report)
     --cache-model M     — simulate a per-core data cache (flat|dm|assoc;
                           default flat = no cache, byte-identical output)

   Absolute paper numbers came from an Intel Data Center GPU Max 1100;
   ours come from the transaction-level simulator — only the shape of the
   comparison (who wins, roughly by how much, where crossovers fall) is
   expected to match. EXPERIMENTS.md records paper-vs-measured per row. *)

open Sycl_workloads
module Driver = Sycl_core.Driver

(* The global simulator flags are stripped from argv here, so each
   subcommand's own parser never sees them, and make up the simulator
   configuration [sim]. SYCL_SIM_DOMAINS stands in for an absent
   --sim-domains, as in sycl_bench. *)
let sim, filtered_args =
  let parse_domains what v =
    match Sycl_sim.Sim_config.domains_of_string v with
    | Some n -> n
    | None ->
      Printf.eprintf "bad %s %s (want an integer >= 1)\n" what v;
      exit 2
  in
  let rec go domains_flag (sim : Sycl_sim.Sim_config.t) acc = function
    | "--sim-domains" :: v :: rest ->
      go (Some (parse_domains "--sim-domains" v)) sim acc rest
    | "--sim-check-races" :: rest ->
      go domains_flag { sim with check_races = true } acc rest
    | "--cache-model" :: v :: rest -> (
      match Sycl_sim.Cost.model_of_string v with
      | Some cache_model -> go domains_flag { sim with cache_model } acc rest
      | None ->
        Printf.eprintf "bad --cache-model %s (want flat|dm|assoc)\n" v;
        exit 2)
    | x :: rest -> go domains_flag sim (x :: acc) rest
    | [] ->
      let domains =
        match (domains_flag, Sys.getenv_opt "SYCL_SIM_DOMAINS") with
        | Some n, _ -> n
        | None, Some v -> parse_domains "SYCL_SIM_DOMAINS" v
        | None, None -> Domain.recommended_domain_count ()
      in
      ({ sim with domains }, List.rev acc)
  in
  go None Sycl_sim.Sim_config.default [] (List.tl (Array.to_list Sys.argv))

let cmd = match filtered_args with c :: _ -> c | [] -> "all"
let subcommand_args () = match filtered_args with _ :: rest -> rest | [] -> []

(* A bad flag value or an unwritable output file exits 2 with a message
   before any work starts, rather than as an uncaught exception (after
   the work, for an output file). *)
let int_flag ?min cmd flag v =
  match (int_of_string_opt v, min) with
  | Some n, None -> n
  | Some n, Some lo when n >= lo -> n
  | _ ->
    Printf.eprintf "%s: bad %s %s (want an integer%s)\n" cmd flag v
      (match min with Some lo -> Printf.sprintf " >= %d" lo | None -> "");
    exit 2

let open_output cmd path =
  try Out_channel.open_text path
  with Sys_error msg ->
    Printf.eprintf "%s: cannot write %s\n" cmd msg;
    exit 2

let write_output oc text =
  output_string oc text;
  Out_channel.close oc

let rows_cache : (string, Suite.row list) Hashtbl.t = Hashtbl.create 4

let rows key mk =
  match Hashtbl.find_opt rows_cache key with
  | Some r -> r
  | None ->
    let r = List.map (Suite.run_row ~sim) (mk ()) in
    Hashtbl.replace rows_cache key r;
    r

let fig2_rows () = rows "fig2" (fun () -> Suite.fig2 ())
let fig3_rows () = rows "fig3" (fun () -> Suite.fig3 ())
let stencil_rows () = rows "stencil" (fun () -> Suite.stencils ())

let check_validity name rs =
  if not (Suite.validity_ok rs) then
    Printf.printf "!! WARNING: some %s results failed validation\n" name

let run_fig2 () =
  let rs = fig2_rows () in
  Suite.print_figure ~title:"Fig. 2 — single-kernel benchmarks (speedup over DPC++)" rs;
  check_validity "fig2" rs

let run_fig3 () =
  let rs = fig3_rows () in
  Suite.print_figure ~title:"Fig. 3 — polybench benchmarks (speedup over DPC++)" rs;
  check_validity "fig3" rs

let run_stencil () =
  let rs = stencil_rows () in
  Suite.print_figure ~title:"Stencil workloads (Section VIII, oneAPI samples)" rs;
  check_validity "stencil" rs

let run_geomean () =
  let g rs = Common.geomean (List.map (fun (r : Suite.row) -> r.Suite.r_sycl_mlir) rs) in
  let ga rs = Common.geomean (List.filter_map (fun (r : Suite.row) -> r.Suite.r_acpp) rs) in
  let f2 = fig2_rows () and f3 = fig3_rows () in
  Printf.printf "\nGeo-mean summary (speedup over DPC++)\n";
  Printf.printf "%-34s %12s %12s\n" "" "SYCL-MLIR" "AdaptiveCpp";
  Printf.printf "%-34s %7.2fx (paper 1.02x) %6.2fx (paper 1.03x)\n"
    "single-kernel" (g f2) (ga f2);
  Printf.printf "%-34s %7.2fx (paper 1.45x) %6.2fx (paper 1.22x)\n"
    "polybench" (g f3) (ga f3);
  Printf.printf "%-34s %7.2fx (paper 1.18x) %6.2fx (paper 1.13x)\n"
    "overall SYCL-Bench" (g (f2 @ f3)) (ga (f2 @ f3));
  let max_pb =
    List.fold_left (fun acc (r : Suite.row) -> max acc r.Suite.r_sycl_mlir) 0.0 f3
  in
  Printf.printf "%-34s %7.2fx (paper 4.32x)\n" "max polybench speedup" max_pb

(* ------------------------------------------------------------------ *)
(* Ablation: contribution of each optimization (Section VIII's         *)
(* attribution discussion)                                             *)
(* ------------------------------------------------------------------ *)

let ablation_configs =
  [
    ("all optimizations", Driver.config Driver.Sycl_mlir);
    ("without loop internalization",
     Driver.config ~enable_internalization:false Driver.Sycl_mlir);
    ("without reduction detection",
     Driver.config ~enable_reduction:false Driver.Sycl_mlir);
    ("without LICM", Driver.config ~enable_licm:false Driver.Sycl_mlir);
    ("without host-device propagation",
     Driver.config ~enable_host_device:false Driver.Sycl_mlir);
  ]

let run_ablation () =
  let workloads =
    [
      Polybench.gemm ~n:64;
      Polybench.syr2k ~n:48;
      Polybench.covariance ~n:64;
      Polybench.correlation ~n:64;
      Single_kernel.sobel7 ~n:64;
      Polybench.gramschmidt ~n:64;
    ]
  in
  Printf.printf "\nAblation — SYCL-MLIR speedup over DPC++ with optimizations disabled\n";
  Printf.printf "%-16s" "benchmark";
  List.iter (fun (name, _) -> Printf.printf " %32s" name) ablation_configs;
  print_newline ();
  (* Each workload's "all optimizations" measurement also feeds the
     statistics below. *)
  let all_optimizations =
    List.map
      (fun (w : Common.workload) ->
        let base = Common.measure ~sim (Driver.config Driver.Dpcpp) w in
        Printf.printf "%-16s" w.Common.w_name;
        let ms =
          List.map
            (fun (name, cfg) ->
              let m = Common.measure ~sim cfg w in
              Printf.printf " %29.2fx%s" (Common.speedup base m)
                (if m.Common.m_valid then "  " else " !!");
              (name, m))
            ablation_configs
        in
        print_newline ();
        (w, List.assoc "all optimizations" ms))
      workloads
  in
  (* Pass-statistic attribution the paper quotes. *)
  Printf.printf "\nCompile-time statistics under SYCL-MLIR (cf. Section VIII):\n";
  List.iter
    (fun ((w : Common.workload), (m : Common.measurement)) ->
      let stats = Mlir.Pass.merged_stats m.Common.m_compile in
      let st k = Mlir.Pass.Stats.get stats k in
      Printf.printf
        "  %-14s reductions rewritten=%d  refs prefetched=%d  divergent-rejected=%d  noalias pairs=%d\n"
        w.Common.w_name
        (st "detect-reduction/reduction.rewritten")
        (st "loop-internalization/internalization.prefetched")
        (st "loop-internalization/internalization.rejected-divergent")
        (st "host-device-propagation/hostdev.noalias-pair"))
    all_optimizations

(* ------------------------------------------------------------------ *)
(* Kernel fusion extension (Section VII outlook)                       *)
(* ------------------------------------------------------------------ *)

let run_fusion () =
  Printf.printf "\nKernel fusion extension (compile-time, Section VII outlook)\n";
  let w = Extensions.elementwise_chain ~n:16384 in
  let measure enable_fusion =
    Common.measure ~sim (Driver.config ~enable_fusion Driver.Sycl_mlir) w
  in
  let unfused = measure false in
  let fused = measure true in
  let launches (m : Common.measurement) =
    m.Common.m_result.Sycl_runtime.Host_interp.kernel_launches
  in
  Printf.printf "  unfused: %d launches, %d cycles (valid %b)\n"
    (launches unfused) unfused.Common.m_cycles unfused.Common.m_valid;
  Printf.printf "  fused:   %d launches, %d cycles (valid %b)  speedup %.2fx\n"
    (launches fused) fused.Common.m_cycles fused.Common.m_valid
    (Common.speedup unfused fused);
  let stats = Mlir.Pass.merged_stats fused.Common.m_compile in
  Printf.printf "  kernels fused: %d, intermediate loads forwarded: %d\n"
    (Mlir.Pass.Stats.get stats "kernel-fusion/fusion.fused")
    (Mlir.Pass.Stats.get stats "store-forwarding/store-forwarding.forwarded")

(* ------------------------------------------------------------------ *)
(* Differential fuzzing (see DESIGN.md, "Testing & fuzzing")            *)
(* ------------------------------------------------------------------ *)

(** [fuzz] — the differential-testing harness over the random IR
    generator and the workload suite. Three oracles per DESIGN.md:
    (a) print→parse→print fixpoint on every generated module,
    (b) verifier acceptance after every pass of the SYCL-MLIR pipeline,
    (c) simulator differential (optimized vs. unoptimized) on randomized
        ND-ranges, with pass bisection naming the first divergent pass,
    (d) sequential-vs-parallel run-digest determinism,
    (e) telemetry neutrality,
    (f) compile-service cache coherence (cold, coalesced and cached
        compiles byte-identical to a direct pipeline run),
    (g) attribution conservation (every launch's per-op attribution
        decomposes its launch statistics exactly), checked by every
        run digest of (d), (e) and (i),
    (h) incremental pass manager equivalence (under each of the three
        configurations, the pipeline run with its skipped repeats and
        seeded canonicalize gives the same module, remarks and pass
        counters as running every pass in turn outside the pass
        manager),
    (i) cache-model coherence (under dm and assoc models the full
        digest is byte-identical between 1 and 4 domains, and an
        explicit flat model is byte-identical to the default no-cache
        run).
    Oracles (b)–(i) run on workload modules every [--diff-every]
    iterations; oracle (a) runs on a fresh random module every
    iteration. *)
let run_fuzz () =
  let seed = ref 42 and iters = ref 500 and diff_every = ref 100 in
  let json_path = ref None in
  let rec parse_args = function
    | "--seed" :: v :: rest -> seed := int_flag "fuzz" "--seed" v; parse_args rest
    | "--iters" :: v :: rest ->
      iters := int_flag ~min:0 "fuzz" "--iters" v;
      parse_args rest
    | "--diff-every" :: v :: rest ->
      diff_every := int_flag ~min:1 "fuzz" "--diff-every" v;
      parse_args rest
    | "--json" :: v :: rest -> json_path := Some v; parse_args rest
    | [] -> ()
    | other :: _ ->
      Printf.eprintf "fuzz: unknown argument %s\n" other;
      exit 2
  in
  parse_args (subcommand_args ());
  let json_out =
    Option.map (fun path -> (path, open_output "fuzz" path)) !json_path
  in
  (* (iteration, oracle, detail) *)
  let failures : (int * string * string) list ref = ref [] in
  let record i oracle detail =
    failures := (i, oracle, detail) :: !failures;
    Printf.printf "  FAIL iter=%d %s: %s\n%!" i oracle detail
  in
  let roundtrip_runs = ref 0 and diff_runs = ref 0 in
  for i = 0 to !iters - 1 do
    (* Oracle (a) on a fresh random module — once in the default form and
       once under --mlir-print-debuginfo, so the loc(...) syntax is
       fuzzed too (the generator attaches random nested locations). *)
    incr roundtrip_runs;
    let g = Mlir.Irgen.create (!seed + i) in
    let m = Mlir.Irgen.gen_module g in
    (match Mlir.Difftest.check_roundtrip m with
    | Ok () -> ()
    | Error f -> record i f.Mlir.Difftest.f_oracle f.Mlir.Difftest.f_detail);
    (match Mlir.Difftest.check_roundtrip ~debuginfo:true m with
    | Ok () -> ()
    | Error f ->
      record i (f.Mlir.Difftest.f_oracle ^ "-debuginfo") f.Mlir.Difftest.f_detail);
    (* Oracles (b) and (c) on a randomized workload, every diff-every
       iterations (they execute the simulator, so they are costly). *)
    if i mod !diff_every = 0 then begin
      incr diff_runs;
      let rng = Random.State.make [| !seed; i |] in
      let w = Differential.random_workload rng in
      let cfg = Driver.config Driver.Sycl_mlir in
      let passes = Driver.pipeline cfg in
      (match
         Mlir.Difftest.check_pipeline_verified ~passes (w.Common.w_module ())
       with
      | Ok () -> ()
      | Error f ->
        record i f.Mlir.Difftest.f_oracle
          (w.Common.w_name ^ ": " ^ f.Mlir.Difftest.f_detail));
      (match Differential.check ~sim w with
      | Ok () -> ()
      | Error d ->
        record i "differential" (Differential.divergence_to_string d));
      (* Oracle (d): sequential vs. parallel backend determinism — the
         full run digest (stats, metrics, profile, buffers) must be
         byte-identical under worker domains. Every digest, here and in
         (e) and (i), checks oracle (g) on its run. *)
      (match Differential.check_parallel ~sim ~domains:4 w with
      | Ok () -> ()
      | Error f ->
        record i f.Mlir.Difftest.f_oracle f.Mlir.Difftest.f_detail);
      (* Oracle (e): telemetry neutrality — rendering the trace, metrics
         and profiler exports must not change the compiled IR or the run
         digest. *)
      (match Differential.check_telemetry_neutral ~sim w with
      | Ok () -> ()
      | Error f ->
        record i f.Mlir.Difftest.f_oracle f.Mlir.Difftest.f_detail);
      (* Oracle (f): compile-service cache coherence — cold, coalesced
         and cached compiles through a multi-domain service must be
         byte-identical to a direct pipeline run. *)
      (match Differential.check_service_cache w with
      | Ok () -> ()
      | Error f ->
        record i f.Mlir.Difftest.f_oracle f.Mlir.Difftest.f_detail);
      (* Oracle (h): incremental pass manager equivalence — skipping
         and seeding must not change what the pipeline produces. *)
      (match Differential.check_incremental_equivalence w with
      | Ok () -> ()
      | Error f ->
        record i f.Mlir.Difftest.f_oracle f.Mlir.Difftest.f_detail);
      (* Oracle (i): cache-model coherence — domain-count byte-identity
         of the cache digest under both non-flat models, and flat ≡
         default. *)
      match Differential.check_cache_coherence ~sim ~domains:4 w with
      | Ok () -> ()
      | Error f ->
        record i f.Mlir.Difftest.f_oracle f.Mlir.Difftest.f_detail
    end
  done;
  let failures = List.rev !failures in
  Printf.printf
    "\nfuzz: seed=%d iters=%d — %d round-trip checks, %d verify+differential rounds, %d failure(s)\n"
    !seed !iters !roundtrip_runs !diff_runs (List.length failures);
  (match json_out with
  | None -> ()
  | Some (path, oc) ->
    let doc =
      Mlir.Json.Obj
        [
          ("seed", Mlir.Json.Int !seed);
          ("iters", Mlir.Json.Int !iters);
          ("roundtrip_checks", Mlir.Json.Int !roundtrip_runs);
          ("differential_rounds", Mlir.Json.Int !diff_runs);
          ( "failures",
            Mlir.Json.List
              (List.map
                 (fun (i, oracle, detail) ->
                   Mlir.Json.Obj
                     [
                       ("iter", Mlir.Json.Int i);
                       ("oracle", Mlir.Json.String oracle);
                       ("detail", Mlir.Json.String detail);
                     ])
                 failures) );
        ]
    in
    write_output oc (Mlir.Json.to_string doc ^ "\n");
    Printf.printf "fuzz: report written to %s\n" path);
  if failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Benchmark-regression pipeline (see Bench_report)                    *)
(* ------------------------------------------------------------------ *)

(** [report] — measure the full suite and write BENCH_<label>.json. *)
let run_report () =
  let label = ref "current" and out = ref None in
  let rec parse_args = function
    | "--label" :: v :: rest -> label := v; parse_args rest
    | "--out" :: v :: rest -> out := Some v; parse_args rest
    | [] -> ()
    | other :: _ ->
      Printf.eprintf "report: unknown argument %s\n" other;
      exit 2
  in
  parse_args (subcommand_args ());
  let path =
    match !out with Some p -> p | None -> Printf.sprintf "BENCH_%s.json" !label
  in
  let oc = open_output "report" path in
  let r = Bench_report.collect ~sim ~label:!label (Suite.all ()) in
  write_output oc (Bench_report.to_json r);
  let invalid =
    List.concat_map
      (fun (e : Bench_report.entry) ->
        List.filter_map
          (fun (cfg, (m : Bench_report.config_metrics)) ->
            if m.Bench_report.cm_valid then None
            else Some (e.Bench_report.e_name ^ " [" ^ cfg ^ "]"))
          e.Bench_report.e_configs)
      r.Bench_report.r_entries
  in
  Printf.printf "report: %d workloads written to %s\n"
    (List.length r.Bench_report.r_entries)
    path;
  List.iter (fun s -> Printf.printf "  !! failed validation: %s\n" s) invalid

(** [compare OLD NEW] — list every deterministic field that differs
    (see [Bench_report.diff]); exits 1 if any does. *)
let run_compare () =
  let is_flag = String.starts_with ~prefix:"-" in
  let old_path, new_path =
    match subcommand_args () with
    | [ a; b ] when not (is_flag a || is_flag b) -> (a, b)
    | _ ->
      Printf.eprintf "usage: compare OLD.json NEW.json\n";
      exit 2
  in
  let load path =
    match
      let text = In_channel.with_open_text path In_channel.input_all in
      (Bench_report.of_json text, Mlir.Json.parse text)
    with
    | loaded -> loaded
    | exception Sys_error msg ->
      Printf.eprintf "compare: cannot read %s: %s\n" path msg;
      exit 2
    | exception Bench_report.Report_error msg ->
      Printf.eprintf "compare: %s: %s\n" path msg;
      exit 2
  in
  let old_r, old_doc = load old_path and new_r, new_doc = load new_path in
  Printf.printf "compare: %s (%d workloads) vs %s (%d workloads)\n"
    old_r.Bench_report.r_label
    (List.length old_r.Bench_report.r_entries)
    new_r.Bench_report.r_label
    (List.length new_r.Bench_report.r_entries);
  match Bench_report.diff old_doc new_doc with
  | [] -> Printf.printf "compare: no differences\n"
  | diffs ->
    List.iter (Printf.printf "  %s\n") diffs;
    Printf.printf "compare: %d difference(s)\n" (List.length diffs);
    exit 1

(* ------------------------------------------------------------------ *)
(* Observability: compile-time pass timing + simulator trace for GEMM  *)
(* ------------------------------------------------------------------ *)

let run_profile () =
  let hotspots = ref false in
  let rec parse_args = function
    | "--hotspots" :: rest -> hotspots := true; parse_args rest
    | [] -> ()
    | other :: _ ->
      Printf.eprintf "profile: unknown argument %s\n" other;
      exit 2
  in
  parse_args (subcommand_args ());
  let path = "gemm_trace.json" in
  let oc = open_output "profile" path in
  let m =
    Common.measure ~sim (Driver.config Driver.Sycl_mlir) (Polybench.gemm ~n:64)
  in
  let timing = m.Common.m_compile and result = m.Common.m_result in
  (* The pass manager's per-pass wall time backs the "little
     compile-time cost" discussion. *)
  Printf.printf "\nGEMM (n=64) SYCL-MLIR compile timing\n";
  Format.printf "%a@?" Mlir.Pass.pp_timing timing;
  (* Export the merged compile + runtime + device trace. *)
  let trace = Telemetry.merged_trace ~timing result in
  write_output oc (Mlir.Json.to_string (Sycl_obs.Trace.export trace) ^ "\n");
  Printf.printf "\nSimulated-run profile (trace written to %s):\n" path;
  Format.printf "%a@?" Sycl_sim.Profile.pp_table
    (Sycl_sim.Profile.of_events result.Sycl_runtime.Host_interp.events);
  if !hotspots then begin
    print_newline ();
    print_string
      (Sycl_sim.Attribution.hotspots_to_string
         (Sycl_sim.Attribution.merge_launches
            result.Sycl_runtime.Host_interp.per_kernel_attribution))
  end

(* The subcommands with no arguments of their own reject any. *)
let () =
  match (cmd, subcommand_args ()) with
  | ( ("fig2" | "fig3" | "stencil" | "geomean" | "ablation" | "fusion" | "all"),
      arg :: _ ) ->
    Printf.eprintf "%s: unknown argument %s\n" cmd arg;
    exit 2
  | _ -> ()

let () =
  let t0 = Unix.gettimeofday () in
  (try
     match cmd with
  | "fig2" -> run_fig2 ()
  | "fig3" -> run_fig3 ()
  | "stencil" -> run_stencil ()
  | "geomean" -> run_geomean ()
  | "ablation" -> run_ablation ()
  | "fusion" -> run_fusion ()
  | "profile" -> run_profile ()
  | "fuzz" -> run_fuzz ()
  | "report" -> run_report ()
  | "compare" -> run_compare ()
  | "all" ->
    run_fig2 ();
    run_fig3 ();
    run_stencil ();
    run_geomean ();
    run_ablation ();
    run_fusion ()
  | other ->
    Printf.eprintf "unknown command %s (fig2|fig3|stencil|geomean|ablation|fusion|profile|fuzz|report|compare|all)\n"
      other;
    exit 2
   with Sycl_sim.Interp.Race_detected races ->
     Printf.eprintf
       "RACE: %d pair(s) of work-groups wrote overlapping global locations\n"
       (List.length races);
     List.iter
       (fun r -> Printf.eprintf "  %s\n" (Sycl_sim.Interp.describe_race r))
       races;
     exit 1);
  Printf.printf "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
