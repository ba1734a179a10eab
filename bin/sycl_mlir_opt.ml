(* sycl-mlir-opt: the project's mlir-opt equivalent. Reads a module in the
   textual generic form, runs a named pass pipeline, prints the result.

     sycl-mlir-opt --passes canonicalize,cse,licm,detect-reduction foo.mlir
     echo '...' | sycl-mlir-opt --passes sycl-mlir  (full pipeline)

   Observability (all reports go to stderr, the module to stdout):
     --timing            per-pass wall time merged by name (-mlir-timing
                         style); Total is the pipeline run
     --remarks[=REGEX]   optimization remarks (-Rpass style), filtered
                         by pass name
     --stats             merged pass-statistics report (-stats style)
     --report-json=F     one versioned JSON report: per-pass statistics
                         (stats), every remark (remarks), compile metrics
                         (metrics) and the compile trace (trace)
     --print-analysis=L  run analysis printers (alias, uniformity,
                         reaching-defs, memory-access, reuse) after the pipeline:
                         annotates the IR with sycl.* attributes and
                         reports to stderr
     --dump-after=P      print the IR after pass P ("all" for every pass)
     --dump-before=P     likewise, before
     --mlir-print-debuginfo  print a trailing loc(...) on every op

   Service modes (the long-lived compile service, lib/service):
     --batch             compile many modules concurrently through one
                         pipeline with a content-addressed result cache.
                         Inputs: files, directories (their *.mlir files,
                         sorted), or "-" (stdin split on `// -----` lines).
     --serve             read `// -----`-separated modules from stdin one
                         at a time, answer each on stdout (same cache)
     --jobs N            worker domains (default: recommended count)
     --repeat N          sweep the batch N times (cache-hit demo)
     --cache-size N      result-cache capacity (LRU beyond it)
     --out-dir DIR       write each result to DIR/<basename> instead of
                         stdout; bytes identical to a single-shot run *)

open Cmdliner
module Driver = Sycl_core.Driver
module Service = Sycl_service.Service

let pass_of_name = function
  | "canonicalize" -> Some Sycl_core.Canonicalize.pass
  | "cse" -> Some Sycl_core.Cse.pass
  | "dce" -> Some Sycl_core.Dce.pass
  | "inline" -> Some Sycl_core.Inline.pass
  | "loop-unroll" -> Some Sycl_core.Loop_unroll.pass
  | "licm" -> Some Sycl_core.Licm.pass
  | "detect-reduction" -> Some Sycl_core.Detect_reduction.pass
  | "loop-internalization" -> Some Sycl_core.Loop_internalization.pass
  | "host-raising" -> Some Sycl_core.Host_raising.pass
  | "host-device-propagation" -> Some Sycl_core.Host_device_prop.pass
  | "dead-argument-elimination" -> Some Sycl_core.Dead_arg_elim.pass
  | "kernel-fusion" -> Some Sycl_core.Kernel_fusion.pass
  | "store-forwarding" -> Some Sycl_core.Store_forwarding.pass
  | "barrier-safety" -> Some Sycl_core.Barrier_safety.pass
  | "lower-sycl" -> Some Sycl_core.Lower_sycl.pass
  | "raise-affine" -> Some Sycl_core.Raise_affine.pass
  | _ -> None

let known_passes =
  "canonicalize, cse, dce, inline, loop-unroll, licm, detect-reduction, \
   loop-internalization, host-raising, host-device-propagation, \
   dead-argument-elimination, kernel-fusion, store-forwarding, \
   barrier-safety, lower-sycl, raise-affine, and the pipeline aliases sycl-mlir / dpcpp"

let resolve_pipeline names =
  List.concat_map
    (fun name ->
      match name with
      | "none" -> []  (* empty pipeline: parse, verify, print *)
      | "sycl-mlir" -> Driver.pipeline (Driver.config Driver.Sycl_mlir)
      | "dpcpp" -> Driver.pipeline (Driver.config Driver.Dpcpp)
      | name -> (
        match pass_of_name name with
        | Some p -> [ p ]
        | None ->
          Printf.eprintf "unknown pass %s; known: %s\n" name known_passes;
          exit 2))
    names

let read_input = function
  | None | Some "-" -> In_channel.input_all stdin
  | Some path -> In_channel.with_open_text path In_channel.input_all

(* ---------------- service modes (--batch / --serve) ---------------- *)

let is_separator line = String.trim line = "// -----"

(* Split a multi-module stream on `// -----` lines (mlir-opt's
   -split-input-file convention). Blank chunks are dropped. *)
let split_modules src =
  let flush acc chunk =
    let text = String.concat "\n" (List.rev chunk) in
    if String.trim text = "" then acc else text :: acc
  in
  let rec go acc chunk = function
    | [] -> List.rev (flush acc chunk)
    | line :: rest ->
      if is_separator line then go (flush acc chunk) [] rest
      else go acc (line :: chunk) rest
  in
  go [] [] (String.split_on_char '\n' src)

let requests_of_inputs inputs =
  let of_file path =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> [ { Service.rq_name = path; rq_text = text } ]
    | exception Sys_error msg ->
      Printf.eprintf "error: cannot read input: %s\n" msg;
      exit 1
  in
  let inputs = if inputs = [] then [ "-" ] else inputs in
  List.concat_map
    (fun input ->
      if input = "-" then
        List.mapi
          (fun i text ->
            { Service.rq_name = Printf.sprintf "<stdin>#%d" (i + 1);
              rq_text = text })
          (split_modules (In_channel.input_all stdin))
      else if Sys.file_exists input && Sys.is_directory input then
        Sys.readdir input |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".mlir")
        |> List.sort String.compare
        |> List.concat_map (fun f -> of_file (Filename.concat input f))
      else of_file input)
    inputs

let write_out_dir dir (rs : Service.response) text =
  (if not (Sys.file_exists dir) then
     try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Filename.basename rs.Service.rs_name) in
  try Out_channel.with_open_text path (fun oc -> output_string oc (text ^ "\n"))
  with Sys_error msg ->
    Printf.eprintf "error: cannot write %s: %s\n" path msg;
    exit 1

(* One line per round so tests (and humans) can read the hit rate; counters
   are cumulative in the registry, so each round reports the delta. *)
let round_summary reg ~round ~modules ~wall_us ~before:(h0, m0, e0) =
  let module Metrics = Sycl_obs.Metrics in
  let hits = Metrics.counter_value reg "service.cache_hits" - h0 in
  let misses = Metrics.counter_value reg "service.cache_misses" - m0 in
  let evictions = Metrics.counter_value reg "service.cache_evictions" - e0 in
  let rate =
    if hits + misses = 0 then 0.0
    else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
  in
  Printf.eprintf
    "// service: round %d: %d modules, %d hits / %d misses (hit rate \
     %.1f%%), %d evictions, wall %d us, %.1f modules/s\n\
     %!"
    round modules hits misses rate evictions wall_us
    (float_of_int modules *. 1e6 /. float_of_int (max 1 wall_us))

let counters reg =
  let module Metrics = Sycl_obs.Metrics in
  ( Metrics.counter_value reg "service.cache_hits",
    Metrics.counter_value reg "service.cache_misses",
    Metrics.counter_value reg "service.cache_evictions" )

let run_batch_mode service ~repeat ~out_dir inputs =
  let requests = requests_of_inputs inputs in
  if requests = [] then begin
    Printf.eprintf "error: no input modules\n";
    exit 1
  end;
  let reg = Service.metrics service in
  let failed = ref false in
  for round = 1 to repeat do
    let before = counters reg in
    let t0 = Unix.gettimeofday () in
    let responses = Service.run_batch service requests in
    let wall_us =
      max 1 (int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1e6)))
    in
    round_summary reg ~round ~modules:(List.length requests) ~wall_us ~before;
    if round = 1 then
      List.iteri
        (fun i rs ->
          match rs.Service.rs_outcome with
          | Service.Success text -> (
            match out_dir with
            | Some dir -> write_out_dir dir rs text
            | None ->
              if i > 0 then print_string "// -----\n";
              print_string text;
              print_newline ())
          | Service.Failure msg ->
            failed := true;
            Printf.eprintf "// error: %s: %s\n" rs.Service.rs_name msg)
        responses
  done;
  !failed

let run_serve_mode service =
  let reg = Service.metrics service in
  let failed = ref false in
  let count = ref 0 in
  let eof = ref false in
  let t0 = Unix.gettimeofday () in
  while not !eof do
    let buf = Buffer.create 256 in
    let rec fill () =
      match In_channel.input_line stdin with
      | None -> eof := true
      | Some line when is_separator line -> ()
      | Some line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        fill ()
    in
    fill ();
    let text = Buffer.contents buf in
    if String.trim text <> "" then begin
      incr count;
      let rs =
        Service.compile_one service
          { Service.rq_name = Printf.sprintf "<stdin>#%d" !count;
            rq_text = text }
      in
      (match rs.Service.rs_outcome with
      | Service.Success s ->
        print_string s;
        print_newline ()
      | Service.Failure msg ->
        failed := true;
        Printf.printf "// error: %s\n" msg);
      print_string "// -----\n";
      flush stdout
    end
  done;
  let wall_us =
    max 1 (int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1e6)))
  in
  if !count > 0 then
    round_summary reg ~round:1 ~modules:!count ~wall_us ~before:(0, 0, 0);
  !failed

let failed_verification what diagnostics =
  Printf.eprintf "%s failed verification:\n" what;
  List.iter
    (fun d -> Printf.eprintf "  %s\n" (Mlir.Verifier.diag_to_string d))
    diagnostics;
  exit 1

(* Write the [--report-json] document, or exit 1. *)
let write_report path sections =
  match Sycl_obs.Report.write path sections with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "error: cannot write report: %s\n" msg;
    exit 1

let remarks_json rs = Mlir.Json.List (List.map Mlir.Remarks.to_json_value rs)

(* Remarks stream to stderr as they are emitted (filtered like
   -Rpass=REGEX, matched against the pass name); the returned list
   always collects every remark, for the report. *)
let remark_collector remark_filter =
  let all = ref [] in
  ( (fun r ->
      all := r :: !all;
      match remark_filter with
      | Some rx when Str.string_match rx r.Mlir.Remarks.r_pass 0 ->
        Printf.eprintf "%s\n%!" (Mlir.Remarks.to_string r)
      | _ -> ()),
    fun () -> List.rev !all )

(* Run [body] with [sink] installed when remarks are printed or
   reported. *)
let with_remark_sink ~remarks ~report_json sink body =
  if remarks <> None || report_json <> None then Mlir.Remarks.with_sink sink body
  else body ()

let run_service ~serve ~jobs ~repeat ~cache_size ~out_dir ~report_json
    ~remarks ~remark_filter ~verify pipeline inputs =
  let pipeline_key = Service.pipeline_key_of_passes pipeline in
  let service =
    Service.create ~cache_capacity:cache_size
      ?workers:(if jobs > 0 then Some jobs else None)
      ~verify_each:verify ~pipeline ~pipeline_key ()
  in
  let sink, collected = remark_collector remark_filter in
  let body () =
    if serve then run_serve_mode service
    else run_batch_mode service ~repeat ~out_dir inputs
  in
  let failed = with_remark_sink ~remarks ~report_json sink body in
  Option.iter
    (fun path ->
      write_report path
        [
          ("metrics", Sycl_obs.Metrics.to_json (Service.metrics service));
          ("remarks", remarks_json (collected ()));
        ])
    report_json;
  exit (if failed then 1 else 0)

(* Per-pass statistics and wall time, merged statistics, and location
   coverage per pass. *)
let stats_json (result : Mlir.Pass.pipeline_result) lc =
  let open Mlir.Json in
  let stats_obj st =
    Obj (List.map (fun (k, v) -> (k, Int v)) (Mlir.Pass.Stats.to_list st))
  in
  Obj
    [
      ( "passes",
        List
          (List.map2
             (fun (name, st) (t : Mlir.Pass.timing) ->
               Obj
                 [ ("pass", String name);
                   ("seconds", Float t.Mlir.Pass.t_seconds);
                   ("skipped", Bool t.Mlir.Pass.t_skipped);
                   ("stats", stats_obj st) ])
             result.Mlir.Pass.per_pass_stats result.Mlir.Pass.per_pass_time) );
      ("merged", stats_obj (Mlir.Pass.merged_stats result));
      ( "loc_coverage",
        List
          (List.map
             (fun e ->
               Obj
                 [ ("pass", String e.Mlir.Instrument.lc_pass);
                   ("before_known", Int e.Mlir.Instrument.lc_before_known);
                   ("before_total", Int e.Mlir.Instrument.lc_before_total);
                   ("after_known", Int e.Mlir.Instrument.lc_after_known);
                   ("after_total", Int e.Mlir.Instrument.lc_after_total);
                   ("lost", Bool (Mlir.Instrument.loc_coverage_lost e)) ])
             (Mlir.Instrument.loc_coverage_entries lc)) );
    ]

(* Compile-side metrics registry: merged pass statistics as counters,
   per-pass wall time as a histogram, final location coverage as
   gauges. *)
let compile_metrics (result : Mlir.Pass.pipeline_result) m =
  let module Metrics = Sycl_obs.Metrics in
  let reg = Metrics.create () in
  List.iter
    (fun (k, v) -> Metrics.incr reg ~by:v ("compile.stat." ^ k))
    (Mlir.Pass.Stats.to_list (Mlir.Pass.merged_stats result));
  List.iter
    (fun (t : Mlir.Pass.timing) ->
      Metrics.observe reg
        ~bounds:[| 10; 100; 1_000; 10_000; 100_000; 1_000_000 |]
        "compile.pass_wall_us"
        (Sycl_obs.Trace.us_of_wall t.Mlir.Pass.t_seconds))
    result.Mlir.Pass.per_pass_time;
  let known, total = Mlir.Instrument.count_locs m in
  Metrics.set_gauge reg "compile.ops_located" known;
  Metrics.set_gauge reg "compile.ops_total" total;
  Metrics.to_json reg

(* Compile-lane trace: a parse span, then the pass pipeline laid out
   from its pipeline result — the compiler's side of the merged
   telemetry timeline. *)
let compile_trace ~parse_seconds result =
  let module Trace = Sycl_obs.Trace in
  let sink = Trace.make_sink () in
  Trace.add sink
    {
      Trace.sp_name = "parse";
      sp_cat = "frontend";
      sp_lane = Trace.Compile;
      sp_ts = 0;
      sp_dur = max 1 (Trace.us_of_wall parse_seconds);
      sp_args = [];
    };
  Trace.add_timing ~root_name:"passes" sink result;
  Trace.export sink

let run passes verify stats timing remarks report_json print_analysis
    dump_before dump_after debuginfo batch serve jobs repeat cache_size
    out_dir inputs =
  (* `--remarks FILE` (unglued): cmdliner hands FILE to --remarks even
     though its value is optional. When it names an existing file and no
     positional input was given, the user meant it as the input. *)
  let remarks, inputs =
    match (remarks, inputs) with
    | Some s, [] when Sys.file_exists s -> (Some "", [ s ])
    | _ -> (remarks, inputs)
  in
  let remark_filter =
    match Option.map Str.regexp remarks with
    | f -> f
    | exception Failure msg ->
      Printf.eprintf "error: bad --remarks regex: %s\n" msg;
      exit 2
  in
  if batch || serve then begin
    if batch && serve then begin
      Printf.eprintf "error: --batch and --serve are mutually exclusive\n";
      exit 2
    end;
    (* Flags whose output a service run would silently drop. *)
    let service = "in service mode" and serve_only = "with --serve" in
    List.iter
      (fun (given, flag, where) ->
        if given then begin
          Printf.eprintf "error: %s is not supported %s\n" flag where;
          exit 2
        end)
      [
        ( debuginfo, "--mlir-print-debuginfo",
          service ^ " (cached output must be canonical)" );
        (print_analysis <> [], "--print-analysis", service);
        (timing, "--timing", service);
        (stats, "--stats", service);
        (dump_before <> None, "--dump-before", service);
        (dump_after <> None, "--dump-after", service);
        (serve && out_dir <> None, "--out-dir", serve_only);
        (serve && repeat <> 1, "--repeat", serve_only);
      ];
    run_service ~serve ~jobs ~repeat ~cache_size ~out_dir ~report_json
      ~remarks ~remark_filter ~verify (resolve_pipeline passes) inputs
  end;
  let input =
    match inputs with
    | [] -> None
    | [ x ] -> Some x
    | _ ->
      Printf.eprintf
        "error: multiple input files need --batch (single-shot mode takes \
         one)\n";
      exit 2
  in
  let src =
    match read_input input with
    | s -> s
    | exception Sys_error msg ->
      Printf.eprintf "error: cannot read input: %s\n" msg;
      exit 1
  in
  let file = match input with None | Some "-" -> "-" | Some path -> path in
  let parse_started = Unix.gettimeofday () in
  match Mlir.Parser.parse_module ~file src with
  | exception Mlir.Parser.Parse_error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    exit 1
  | m -> (
    let parse_seconds = Unix.gettimeofday () -. parse_started in
    (* Passes assume a well-formed module: check the input before any
       runs, as --verify-each would. *)
    (match Mlir.Verifier.verify m with
    | Ok () -> ()
    | Error diagnostics ->
      failed_verification (Printf.sprintf "input %s" file) diagnostics);
    let printers =
      List.map
        (fun name ->
          match Sycl_core.Analysis_printer.by_name name with
          | Some p -> p
          | None ->
            Printf.eprintf "unknown analysis %s; known: %s\n" name
              (String.concat ", " Sycl_core.Analysis_printer.known);
            exit 2)
        print_analysis
    in
    let pipeline = resolve_pipeline passes @ printers in
    let reporting = report_json <> None in
    let sink, collected = remark_collector remark_filter in
    let lc = Mlir.Instrument.loc_coverage_log () in
    let instrumentations =
      (if stats || reporting then [ Mlir.Instrument.loc_coverage lc ] else [])
      @ (match dump_before with
        | Some f ->
          [ Mlir.Instrument.dump ~before:true ~after:false ~filter:f () ]
        | None -> [])
      @
      match dump_after with
      | Some f -> [ Mlir.Instrument.dump ~filter:f () ]
      | None -> []
    in
    match
      with_remark_sink ~remarks ~report_json sink (fun () ->
          Mlir.Pass.run_pipeline ~verify_each:verify ~instrumentations pipeline
            m)
    with
    | result ->
      Mlir.Printer.print ~debuginfo m;
      if timing then Format.eprintf "%a@?" Mlir.Pass.pp_timing result;
      if stats then begin
        Printf.eprintf "// pass statistics:\n";
        Format.eprintf "%a@?" Mlir.Pass.Stats.pp (Mlir.Pass.merged_stats result);
        Format.eprintf "%a@?" Mlir.Instrument.pp_loc_coverage lc
      end;
      Option.iter
        (fun path ->
          write_report path
            [
              ("stats", stats_json result lc);
              ("remarks", remarks_json (collected ()));
              ("metrics", compile_metrics result m);
              ("trace", compile_trace ~parse_seconds result);
            ])
        report_json
    | exception Mlir.Pass.Pass_failed { pass; diagnostics } ->
      failed_verification ("pass " ^ pass) diagnostics)

let passes_arg =
  let doc = "Comma-separated pass pipeline. Known passes: " ^ known_passes in
  Arg.(value & opt (list string) [ "canonicalize" ] & info [ "passes"; "p" ] ~doc)

let verify_arg =
  Arg.(value & flag & info [ "verify-each" ] ~doc:"Verify the IR after every pass (the input is always verified).")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print pass statistics to stderr.")

let print_analysis_arg =
  let doc =
    "Comma-separated analyses to run after the pipeline. Each annotates \
     the IR with discardable sycl.* attributes and prints a report to \
     stderr. Known: alias, uniformity, reaching-defs, memory-access, reuse."
  in
  Arg.(value & opt (list string) [] & info [ "print-analysis" ] ~docv:"LIST" ~doc)

let timing_arg =
  Arg.(value & flag
       & info [ "timing" ]
           ~doc:"Print a per-pass wall-time report to stderr (-mlir-timing style).")

let remarks_arg =
  Arg.(value
       & opt ~vopt:(Some "") (some string) None
       & info [ "remarks" ] ~docv:"REGEX"
           ~doc:
             "Print optimization remarks to stderr as passes emit them \
              (-Rpass style). The optional $(docv) filters by emitting pass \
              name; without it every remark prints.")

let report_json_arg =
  Arg.(value & opt (some string) None
       & info [ "report-json" ] ~docv:"FILE"
           ~doc:
             "Write one versioned JSON report to $(docv). A single-shot \
              compile writes a $(b,stats) section (per-pass statistics, \
              wall time and location coverage), a $(b,remarks) section \
              (every optimization remark), a $(b,metrics) section (merged \
              pass statistics as counters, per-pass wall-time histogram, \
              final location coverage) and a $(b,trace) section (a Chrome \
              trace of the parse and pass spans). $(b,--batch) and \
              $(b,--serve) write the service's $(b,metrics) and \
              $(b,remarks).")

let dump_before_arg =
  Arg.(value & opt (some string) None
       & info [ "dump-before" ] ~docv:"PASS"
           ~doc:"Print the IR to stderr before each run of $(docv) (\"all\" \
                 for every pass).")

let dump_after_arg =
  Arg.(value & opt (some string) None
       & info [ "dump-after" ] ~docv:"PASS"
           ~doc:"Print the IR to stderr after each run of $(docv) (\"all\" \
                 for every pass).")

let debuginfo_arg =
  Arg.(value & flag
       & info [ "mlir-print-debuginfo" ]
           ~doc:"Print a trailing loc(...) attribute on every operation \
                 (MLIR's -mlir-print-debuginfo). Off by default, so output \
                 is unchanged for tools that do not understand locations.")

let batch_arg =
  Arg.(value & flag
       & info [ "batch" ]
           ~doc:
             "Compile service, batch mode: compile every input module \
              concurrently through the pipeline with a content-addressed \
              result cache. Inputs may be files, directories (their *.mlir \
              files, sorted) or - (stdin, split on // ----- lines).")

let serve_arg =
  Arg.(value & flag
       & info [ "serve" ]
           ~doc:
             "Compile service, stream mode: read // ------separated modules \
              from stdin one at a time and answer each on stdout, sharing \
              the batch-mode result cache.")

let jobs_arg =
  Arg.(value & opt (Int_arg.at_least 0) 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:
             "Worker domains for --batch (0 = the runtime's recommended \
              domain count).")

let repeat_arg =
  Arg.(value & opt (Int_arg.at_least 1) 1
       & info [ "repeat" ] ~docv:"N"
           ~doc:
             "Sweep the batch $(docv) times; rounds after the first should \
              be pure cache hits. Each round reports hits/misses to stderr.")

let cache_size_arg =
  Arg.(value & opt (Int_arg.at_least 1) 256
       & info [ "cache-size" ] ~docv:"N"
           ~doc:
             "Result-cache capacity; least-recently-used entries are \
              evicted beyond it.")

let out_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "out-dir" ] ~docv:"DIR"
           ~doc:
             "In --batch mode, write each compiled module to \
              $(docv)/<basename> instead of stdout — byte-identical to the \
              single-shot output for the same input.")

let input_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"FILE"
           ~doc:
             "Input file (default stdin). --batch accepts several, plus \
              directories.")

let cmd =
  let doc = "run SYCL-MLIR passes over textual IR" in
  Cmd.v
    (Cmd.info "sycl-mlir-opt" ~doc)
    Term.(const run $ passes_arg $ verify_arg $ stats_arg $ timing_arg
          $ remarks_arg $ report_json_arg $ print_analysis_arg
          $ dump_before_arg $ dump_after_arg $ debuginfo_arg $ batch_arg
          $ serve_arg $ jobs_arg $ repeat_arg $ cache_size_arg $ out_dir_arg
          $ input_arg)

let () = exit (Cmd.eval cmd)
