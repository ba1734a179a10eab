(* The hotspot-profiler harness: turns the simulator's per-op attribution
   (Sycl_sim.Attribution) into user-facing surfaces — the run report,
   standalone [.mlir] runs and the optimization-delta report.

   Frontend-built workloads carry [Loc.Unknown] on every op — the
   builders have no source text — so every measurement runs a located
   module ({!Common.located_module}): printed and re-parsed under
   [<name>.sycl.mlir], every op carries the [file:line] of its own
   textual form and the hotspot report reads like perf-annotate over the
   IR dump. Standalone [.mlir] files keep their real path. *)

open Mlir
module H = Common.Host_interp
module Attribution = Sycl_sim.Attribution

(* ------------------------------------------------------------------ *)
(* The run report ([sycl_bench --report-json])                         *)
(* ------------------------------------------------------------------ *)

(** The report sections of one simulated run: the runtime metrics
    registry, the merged trace (compile spans from [timing], the
    compile's pipeline result, when given; hotspot counters from
    [attribution]), the run's merged attribution table, and — when it
    has a cache view, that is under a non-flat cache model — the cache
    counters, with the launch-side transaction total prepended so the
    conservation invariant is checkable from the document alone:
    hits + misses = global_transactions, exactly. Named
    workloads and [--file] modules produce the same sections. *)
let report_sections ?timing ~(attribution : Attribution.table)
    (r : H.run_result) : (string * Json.t) list =
  [
    ("metrics", Sycl_obs.Metrics.to_json r.H.metrics);
    ( "trace",
      Sycl_obs.Trace.export (Telemetry.merged_trace ?timing ~attribution r) );
    ("attribution", Attribution.to_json attribution);
  ]
  @
  match Attribution.cache_to_json attribution with
  | Some (Json.Obj kvs) ->
    let transactions =
      List.fold_left
        (fun acc (_, s) -> acc + s.Sycl_sim.Cost.global_transactions)
        0 r.H.per_kernel
    in
    [ ("cache", Json.Obj (("global_transactions", Json.Int transactions) :: kvs)) ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Standalone .mlir file runner                                        *)
(* ------------------------------------------------------------------ *)

exception File_error of string

(** Synthesized host data for a parsed module's [main] signature:
    memrefs become deterministic random float buffers of [size * size]
    elements (large enough for any ND-range derived from [size]),
    index/integer arguments become [size], floats become [1.0]. *)
let synth_args (m : Core.op) ~(size : int) : H.hv list =
  let main =
    match Core.lookup_func m "main" with
    | Some f -> f
    | None -> raise (File_error "module has no main function")
  in
  let st = Common.rng 42 in
  List.map
    (fun (v : Core.value) ->
      match v.Core.vty with
      | Types.Memref _ -> Common.harg (Common.farray_random st (size * size))
      | Types.Index | Types.Integer _ -> Common.iarg size
      | Types.F32 | Types.F64 -> H.Scalar (Common.Interp.F 1.0)
      | t ->
        raise
          (File_error
             (Printf.sprintf "cannot synthesize main argument of type %s"
                (Types.to_string t))))
    (Core.block_args (Core.func_body main))

(** Parse and verify [path], compile it under [cfg] and execute [main]
    with synthesized arguments under the simulator settings [sim];
    returns the compiled module, its pipeline result and the run. A
    parse or verification failure raises {!File_error}.
    The parser stamps every op with its position in the file — under the
    basename, so the report (and any golden comparison against it) is
    independent of the invocation directory. *)
let run_file ?sim (cfg : Common.Driver.config) ?(size = 16) (path : string) :
    Core.op * Pass.pipeline_result * H.run_result =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> raise (File_error msg)
  in
  let m =
    try Parser.parse_module ~file:(Filename.basename path) text
    with Parser.Parse_error msg -> raise (File_error ("parse error: " ^ msg))
  in
  (match Verifier.verify m with
  | Ok () -> ()
  | Error ds -> raise (File_error (Verifier.failure "input" ds)));
  let compiled = Common.Driver.compile cfg m in
  let args = synth_args m ~size in
  (m, compiled.Common.Driver.pipeline_result, Common.run_host ?sim m args)

(* ------------------------------------------------------------------ *)
(* Optimization-delta report                                           *)
(* ------------------------------------------------------------------ *)

(** Run [w] twice under the simulator settings [sim] — unoptimized
    reference pipeline (host raising only) vs. the full SYCL-MLIR
    pipeline with optimization remarks collected — and join the two
    attributions per source line of the located module
    ({!Attribution.delta}): each line's cycle delta lands next to the
    remarks that claimed it, with lines surviving only as
    [Fused]/[CallSite] constituents forwarded to the row carrying their
    cycles. *)
let delta_report ?sim (w : Common.workload) :
    Attribution.delta_row list * Remarks.t list =
  let table passes =
    Attribution.merge_launches
      (Differential.run ?sim passes w).Common.m_result.H.per_kernel_attribution
  in
  let before = table (Differential.reference_pipeline ()) in
  let after, remarks =
    Remarks.collect (fun () -> table (Differential.full_pipeline ()))
  in
  (Attribution.delta ~before ~after ~remarks, remarks)
