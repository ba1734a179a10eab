(* sycl-bench: run one reproduction workload under a chosen compiler
   configuration, print the simulated cost breakdown and validation —
   the reproduction's counterpart to the SYCL-Bench runner script.

     dune exec bin/sycl_bench.exe -- --list
     dune exec bin/sycl_bench.exe -- --benchmark GEMM --mode sycl-mlir
     dune exec bin/sycl_bench.exe -- --benchmark GEMM --compare --no-internalization *)

open Cmdliner
open Sycl_workloads
module Driver = Sycl_core.Driver

let list_workloads () =
  List.iter
    (fun (w : Common.workload) ->
      Printf.printf "%-26s %-14s size=%d (paper size %d)%s\n" w.Common.w_name
        (Common.category_to_string w.Common.w_category)
        w.Common.w_problem_size w.Common.w_paper_size
        (if w.Common.w_acpp_ok then "" else "  [AdaptiveCpp fails validation]"))
    (Suite.all () @ Suite.extensions ())

let mode_of_string = function
  | "dpcpp" -> Ok Driver.Dpcpp
  | "sycl-mlir" -> Ok Driver.Sycl_mlir
  | "acpp" | "adaptivecpp" -> Ok Driver.Adaptive_cpp
  | s -> Error (`Msg ("unknown mode " ^ s ^ " (dpcpp|sycl-mlir|acpp)"))

let report (w : Common.workload) mode (m : Common.measurement) =
  let r = m.Common.m_result in
  Printf.printf "%s under %s\n" w.Common.w_name (Driver.mode_to_string mode);
  Printf.printf "  validation: %s\n" (if m.Common.m_valid then "PASSED" else "FAILED");
  Printf.printf "  total cycles: %d\n" m.Common.m_cycles;
  Printf.printf "    device:          %d\n" r.Sycl_runtime.Host_interp.device_cycles;
  Printf.printf "    launch overhead: %d (%d launches)\n"
    r.Sycl_runtime.Host_interp.launch_overhead_cycles
    r.Sycl_runtime.Host_interp.kernel_launches;
  Printf.printf "    transfers:       %d\n" r.Sycl_runtime.Host_interp.transfer_cycles;
  Printf.printf "    scheduler:       %d (%d dependency edges)\n"
    r.Sycl_runtime.Host_interp.scheduler_cycles
    r.Sycl_runtime.Host_interp.dependency_edges;
  List.iter
    (fun (name, s) ->
      Format.printf "  kernel %-18s %a@." name Sycl_sim.Cost.pp_launch_stats s)
    r.Sycl_runtime.Host_interp.per_kernel;
  let stats = Mlir.Pass.merged_stats m.Common.m_compile in
  if Mlir.Pass.Stats.to_list stats <> [] then begin
    Printf.printf "  compile-time statistics:\n";
    Format.printf "%a@?" Mlir.Pass.Stats.pp stats
  end

(** The run's profiling surfaces, all rendered from the run's one merged
    table. Every launch is checked against its table first (exit 1 on a
    conservation violation). Under [--annotate] the hotspot, cache and
    per-kernel profile tables print; [--annotated-ir] writes the
    cost-annotated module; [--report-json] writes the run report
    ({!Annotate.report_sections}), with the compile spans of [timing],
    the compile's pipeline result. *)
let run_surfaces ~annotate ~annotated_ir ~report_json ~timing
    (r : Sycl_runtime.Host_interp.run_result) (module_op : Mlir.Core.op) =
  let launches = r.Sycl_runtime.Host_interp.per_kernel_attribution in
  (match
     Sycl_sim.Attribution.check_launches r.Sycl_runtime.Host_interp.per_kernel
       launches
   with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "error: conservation violated: %s\n" msg;
    exit 1);
  let tab = Sycl_sim.Attribution.merge_launches launches in
  if annotate then begin
    print_newline ();
    print_string (Sycl_sim.Attribution.hotspots_to_string tab);
    Option.iter
      (fun c ->
        print_newline ();
        print_string c)
      (Sycl_sim.Attribution.cache_to_string tab);
    print_string "\nkernel profile:\n";
    Format.printf "%a@?" Sycl_sim.Profile.pp_table
      (Sycl_sim.Profile.of_events r.Sycl_runtime.Host_interp.events)
  end;
  let cannot_write what msg =
    Printf.eprintf "error: cannot write %s: %s\n" what msg;
    exit 1
  in
  Option.iter
    (fun path ->
      Sycl_sim.Attribution.annotate_module tab module_op;
      (try
         Out_channel.with_open_text path (fun oc ->
             output_string oc (Mlir.Printer.to_string module_op))
       with Sys_error msg -> cannot_write "annotated IR" msg);
      Printf.eprintf "annotated IR written to %s\n" path)
    annotated_ir;
  Option.iter
    (fun path ->
      match
        Sycl_obs.Report.write path
          (Annotate.report_sections ~timing ~attribution:tab r)
      with
      | Ok () -> Printf.eprintf "report written to %s\n" path
      | Error msg -> cannot_write "report" msg)
    report_json

let run_mlir_file ~sim cfg ~path ~size ~annotate ~annotated_ir ~report_json =
  match Annotate.run_file ~sim cfg ~size path with
  | exception Annotate.File_error msg ->
    Printf.eprintf "error: %s: %s\n" path msg;
    exit 2
  | m, timing, r ->
    Printf.printf "%s (size %d)\n" path size;
    Printf.printf "  total cycles: %d\n" r.Sycl_runtime.Host_interp.total_cycles;
    Printf.printf "    device:          %d\n"
      r.Sycl_runtime.Host_interp.device_cycles;
    Printf.printf "    launch overhead: %d (%d launches)\n"
      r.Sycl_runtime.Host_interp.launch_overhead_cycles
      r.Sycl_runtime.Host_interp.kernel_launches;
    Printf.printf "    transfers:       %d\n"
      r.Sycl_runtime.Host_interp.transfer_cycles;
    List.iter
      (fun (name, s) ->
        Format.printf "  kernel %-18s %a@." name Sycl_sim.Cost.pp_launch_stats s)
      r.Sycl_runtime.Host_interp.per_kernel;
    run_surfaces ~annotate ~annotated_ir ~report_json ~timing r m

let run list_flag bench mode compare no_licm no_reduction no_internalization
    no_hostdev fusion report_json sim_domains check_races cache_model annotate
    file_arg size annotated_ir delta =
  if list_flag then (list_workloads (); exit 0);
  (if compare || delta then
     let single_run =
       List.filter_map
         (fun (set, name) -> if set then Some name else None)
         [ (report_json <> None, "--report-json"); (annotate, "--annotate");
           (annotated_ir <> None, "--annotated-ir") ]
     in
     match single_run with
     | [] -> ()
     | name :: _ ->
       Printf.eprintf
         "error: %s describes one run; it cannot be combined with --compare \
          or --delta\n"
         name;
       exit 2);
  let sim =
    { Sycl_sim.Sim_config.domains = sim_domains; check_races; cache_model }
  in
  let config mode =
    Driver.config ~enable_licm:(not no_licm)
      ~enable_reduction:(not no_reduction)
      ~enable_internalization:(not no_internalization)
      ~enable_host_device:(not no_hostdev) ~enable_fusion:fusion mode
  in
  try
  match file_arg with
  | Some path ->
    run_mlir_file ~sim (config mode) ~path ~size ~annotate ~annotated_ir
      ~report_json
  | None ->
  match bench with
  | None ->
    prerr_endline "missing --benchmark (or use --list)";
    exit 2
  | Some name -> (
    match Suite.find name with
    | None ->
      Printf.eprintf "unknown benchmark %s (try --list)\n" name;
      exit 2
    | Some w ->
      if delta then begin
        let ds, _remarks = Annotate.delta_report ~sim w in
        print_string (Sycl_sim.Attribution.delta_to_string ds)
      end
      else if compare then begin
        let base = Common.measure ~sim (config Driver.Dpcpp) w in
        report w Driver.Dpcpp base;
        print_newline ();
        let opt = Common.measure ~sim (config Driver.Sycl_mlir) w in
        report w Driver.Sycl_mlir opt;
        Printf.printf "\nspeedup SYCL-MLIR over DPC++: %.2fx\n"
          (Common.speedup base opt);
        (match Common.measure ~sim (config Driver.Adaptive_cpp) w with
        | acpp when acpp.Common.m_valid ->
          Printf.printf "speedup AdaptiveCpp over DPC++: %.2fx\n"
            (Common.speedup base acpp)
        | _ -> print_endline "AdaptiveCpp: failed validation"
        | exception Common.Unsupported _ ->
          print_endline "AdaptiveCpp: unsupported (modeled validation failure)")
      end
      else
        let m = Common.measure ~sim (config mode) w in
        report w mode m;
        run_surfaces ~annotate ~annotated_ir ~report_json
          ~timing:m.Common.m_compile m.Common.m_result m.Common.m_module;
        if not m.Common.m_valid then exit 1)
  with
  | Sycl_sim.Interp.Intra_group_race races ->
    prerr_string (Sycl_sim.Interp.intra_race_report races);
    exit 1
  | Sycl_sim.Interp.Race_detected races ->
    Printf.eprintf
      "RACE: %d pair(s) of work-groups wrote overlapping global locations\n"
      (List.length races);
    List.iter
      (fun r -> Printf.eprintf "  %s\n" (Sycl_sim.Interp.describe_race r))
      races;
    exit 1
  | Sycl_sim.Interp.Sim_error msg
  | Sycl_sim.Memory.Out_of_bounds msg
  | Sycl_runtime.Host_interp.Host_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Sycl_sim.Interp.Barrier_divergence ->
    prerr_endline
      "error: a barrier was reached by only part of a work-group (divergent \
       barrier)";
    exit 1
  | Common.Unsupported name ->
    Printf.eprintf
      "error: %s is unsupported under AdaptiveCpp (modeled validation \
       failure)\n"
      name;
    exit 1

let list_arg = Arg.(value & flag & info [ "list"; "l" ] ~doc:"List workloads.")

let bench_arg =
  Arg.(value & opt (some string) None
       & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc:"Workload to run.")

let mode_conv =
  Arg.conv
    ( mode_of_string,
      fun fmt m -> Format.pp_print_string fmt (Driver.mode_to_string m) )

let mode_arg =
  Arg.(value & opt mode_conv Driver.Sycl_mlir
       & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"dpcpp, sycl-mlir or acpp.")

let compare_arg =
  Arg.(value & flag & info [ "compare" ] ~doc:"Run all three configurations and report speedups.")

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let report_json_arg =
  Arg.(value & opt (some string) None
       & info [ "report-json" ] ~docv:"FILE"
           ~doc:
             "Write the run report to $(docv): one versioned JSON object \
              with a $(b,metrics) section (runtime event counters, transfer \
              bytes, launch-latency histogram), a $(b,trace) section (one \
              merged Chrome trace: compile-phase spans, runtime queue \
              operations and device kernels on separate lanes, plus \
              hotspot and cache counter series), an $(b,attribution) \
              section (the per-op cycle table) and, under a non-flat \
              $(b,--cache-model), a $(b,cache) section (per-op cache \
              counters and the reuse-distance histogram). Single runs \
              only (not $(b,--compare) or $(b,--delta)).")

let domains_conv =
  Arg.conv
    ( (fun s ->
        match Sycl_sim.Sim_config.domains_of_string s with
        | Some n -> Ok n
        | None ->
          Error
            (`Msg
              (Printf.sprintf "invalid value '%s', expected an integer >= 1" s))),
      Format.pp_print_int )

let sim_domains_arg =
  let env =
    Cmd.Env.info "SYCL_SIM_DOMAINS"
      ~doc:"Domain count when $(b,--sim-domains) is absent."
  in
  Arg.(value & opt domains_conv (Domain.recommended_domain_count ())
       & info [ "sim-domains" ] ~env ~docv:"N"
           ~absent:"the recommended domain count"
           ~doc:
             "Execute the simulated device's work-groups on $(docv) worker \
              domains. Results are bit-identical to the sequential \
              backend.")

let check_races_arg =
  Arg.(value & flag
       & info [ "sim-check-races" ]
           ~doc:
             "Record what each work-group reads and writes and fail when \
              two work-groups of one launch write overlapping global \
              locations (a violation of SYCL's inter-group independence), \
              or when, between two barriers, a local or global cell \
              written by one work-item of a group is read or written by \
              another (a missing barrier).")

let cache_model_conv =
  Arg.conv
    ( (fun s ->
        match Sycl_sim.Cost.model_of_string s with
        | Some m -> Ok m
        | None -> Error (`Msg ("unknown cache model " ^ s ^ " (flat|dm|assoc)"))),
      fun fmt m ->
        Format.pp_print_string fmt (Sycl_sim.Cost.model_to_string m) )

let cache_model_arg =
  Arg.(value & opt cache_model_conv Sycl_sim.Cost.Flat
       & info [ "cache-model" ] ~docv:"MODEL"
           ~doc:
             "Simulate a per-core data cache over the coalesced global \
              transactions: $(b,dm) (direct-mapped), $(b,assoc) \
              (set-associative LRU) or $(b,flat) (no cache — the default, \
              byte-identical to previous releases). Launch statistics gain \
              hit/miss/eviction/memory-wait counters with \
              hits + misses = global transactions exactly.")

let annotate_arg =
  Arg.(value & flag
       & info [ "annotate" ]
           ~doc:
             "Print the source-attributed hotspot report after the run: the \
              top source lines by attributed device cycles, with share of \
              total, memory transactions and the coalescing ratio; then the \
              cache table (non-flat $(b,--cache-model)) and the per-kernel \
              profile (launches, launch overhead, device cycles, \
              occupancy). A named workload's lines point into its \
              module as printed under the virtual file \
              $(i,NAME).sycl.mlir. Single runs only (not $(b,--compare) \
              or $(b,--delta)).")

let file_arg =
  Arg.(value & opt (some string) None
       & info [ "file" ] ~docv:"FILE"
           ~doc:
             "Run the textual MLIR module in $(docv) (instead of a named \
              benchmark) with synthesized arguments; its real file/line \
              positions feed the attribution surfaces.")

let size_arg =
  Arg.(value & opt (Int_arg.at_least 0) 16
       & info [ "size" ] ~docv:"N"
           ~doc:
             "Problem size for $(b,--file) runs: scalar main arguments are \
              bound to $(docv), memref arguments to NxN random buffers.")

let annotated_ir_arg =
  Arg.(value & opt (some string) None
       & info [ "annotated-ir" ] ~docv:"FILE"
           ~doc:
             "Write the compiled module with per-op sycl.cycles / \
              sycl.mem_cycles attributes recorded from the run to $(docv). \
              The attributes are discardable and round-trip through the \
              parser and verifier. Single runs only (not $(b,--compare) or \
              $(b,--delta)).")

let delta_arg =
  Arg.(value & flag
       & info [ "delta" ]
           ~doc:
             "Run the workload unoptimized (host raising only) and under the \
              full SYCL-MLIR pipeline, and print per-source-line cycle \
              deltas next to the optimization remarks that claimed them.")

let cmd =
  let doc = "run a SYCL-Bench reproduction workload on the simulated device" in
  Cmd.v (Cmd.info "sycl-bench" ~doc)
    Term.(const run $ list_arg $ bench_arg $ mode_arg $ compare_arg
          $ flag "no-licm" "Disable LICM."
          $ flag "no-reduction" "Disable reduction detection."
          $ flag "no-internalization" "Disable loop internalization."
          $ flag "no-host-device" "Disable host-device propagation."
          $ flag "fusion" "Enable compile-time kernel fusion."
          $ report_json_arg $ sim_domains_arg $ check_races_arg
          $ cache_model_arg $ annotate_arg $ file_arg $ size_arg
          $ annotated_ir_arg $ delta_arg)

let () = exit (Cmd.eval cmd)
