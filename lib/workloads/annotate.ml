(* The hotspot-profiler harness: turns the simulator's per-op attribution
   (Sycl_sim.Attribution) into user-facing surfaces.

   Frontend-built workloads carry [Loc.Unknown] on every op — the
   builders have no source text. The profiler therefore runs a *located*
   copy: the module is printed and re-parsed under a virtual file name,
   so every op carries the [file:line] of its own textual form and the
   hotspot report reads like perf-annotate over the IR dump. Standalone
   [.mlir] files keep their real path. *)

open Mlir
module H = Common.Host_interp
module Attribution = Sycl_sim.Attribution

(** The virtual file name a located workload's locations point into. *)
let virtual_file (w : Common.workload) = w.Common.w_name ^ ".sycl.mlir"

(** [w] with its module printed and re-parsed under {!virtual_file}, so
    every op carries a concrete source location. Semantically identical:
    the textual pipeline tests prove print -> parse -> compile -> run
    matches the in-memory module. *)
let located_workload (w : Common.workload) : Common.workload =
  {
    w with
    Common.w_module =
      (fun () ->
        Parser.parse_module ~file:(virtual_file w)
          (Printer.to_string (w.Common.w_module ())));
  }

(** One table for the whole run: per-launch tables merged in launch
    order (merging is commutative sums, so the order is cosmetic). *)
let merged_attribution (r : H.run_result) : Attribution.table =
  let t = Attribution.create () in
  List.iter
    (fun (_, src) -> Attribution.merge ~into:t src)
    r.H.per_kernel_attribution;
  t

(** Same for the cache tables; [None] when the run simulated no cache
    (the flat model collects nothing). *)
let merged_cache (r : H.run_result) : Sycl_sim.Cache.table option =
  match r.H.per_kernel_cache with
  | [] -> None
  | tabs ->
    let t = Sycl_sim.Cache.create_table () in
    List.iter (fun (_, src) -> Sycl_sim.Cache.merge ~into:t src) tabs;
    Some t

(* ------------------------------------------------------------------ *)
(* The run report ([sycl_bench --report-json])                         *)
(* ------------------------------------------------------------------ *)

(** The merged cache table as JSON with the launch-side transaction
    total prepended, so the conservation invariant is checkable from the
    document alone: hits + misses = global_transactions, exactly. *)
let cache_json (r : H.run_result) (tab : Sycl_sim.Cache.table) : Json.t =
  let transactions =
    List.fold_left
      (fun acc (_, s) -> acc + s.Sycl_sim.Cost.global_transactions)
      0 r.H.per_kernel
  in
  match Sycl_sim.Cache.to_json tab with
  | Json.Obj kvs -> Json.Obj (("global_transactions", Json.Int transactions) :: kvs)
  | j -> j

(** The report sections of one simulated run: the runtime metrics
    registry, the merged trace (compile spans from [timing] when given,
    hotspot counters from [attribution]), the attribution table, and —
    under a non-flat cache model only — the cache counters. Named
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
  match merged_cache r with
  | Some tab -> [ ("cache", cache_json r tab) ]
  | None -> []

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

(** Parse [path], compile it under [cfg] (with [instrumentations]
    around every pass) and execute [main] with synthesized arguments.
    The parser stamps every op with its position in the file — under the
    basename, so the report (and any golden comparison against it) is
    independent of the invocation directory. *)
let run_file (cfg : Common.Driver.config) ?instrumentations ?(size = 16)
    (path : string) : Core.op * H.run_result =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> raise (File_error msg)
  in
  ignore (Common.fresh_module ());
  let m = Parser.parse_module ~file:(Filename.basename path) text in
  ignore (Common.Driver.compile ?instrumentations cfg m);
  let args = synth_args m ~size in
  (m, H.run ~module_op:m args)

(* ------------------------------------------------------------------ *)
(* Optimization-delta report                                           *)
(* ------------------------------------------------------------------ *)

(** Run the located [w] twice — unoptimized reference pipeline (host
    raising only) vs. the full SYCL-MLIR pipeline with optimization
    remarks collected — and join the two attributions per source line
    ({!Attribution.delta}): each line's cycle delta lands next to the
    remarks that claimed it, with lines surviving only as
    [Fused]/[CallSite] constituents forwarded to the row carrying their
    cycles. *)
let delta_report (w : Common.workload) :
    Attribution.delta_row list * Remarks.t list =
  let text = Printer.to_string (w.Common.w_module ()) in
  let parse () = Parser.parse_module ~file:(virtual_file w) text in
  let run_tab passes m =
    ignore (Pass.run_pipeline ~verify_each:false passes m);
    let args, _ = w.Common.w_data () in
    merged_attribution (H.run ~module_op:m args)
  in
  let before = run_tab (Differential.reference_pipeline ()) (parse ()) in
  let after, remarks =
    Remarks.collect (fun () -> run_tab (Differential.full_pipeline ()) (parse ()))
  in
  (Attribution.delta ~before ~after ~remarks, remarks)

(* ------------------------------------------------------------------ *)
(* Per-launch conservation (satellite oracle)                          *)
(* ------------------------------------------------------------------ *)

(** Check that every launch's attribution decomposes its launch stats
    exactly ({!Attribution.conserves}); returns the first violation. *)
let check_conservation (r : H.run_result) : (unit, string) result =
  let rec go stats tabs =
    match (stats, tabs) with
    | [], [] -> Ok ()
    | (name, s) :: stats', (name', t) :: tabs' when name = name' -> (
      match Attribution.conserves t s with
      | Ok () -> go stats' tabs'
      | Error msg -> Error (Printf.sprintf "%s: %s" name msg))
    | _ -> Error "per_kernel and per_kernel_attribution lists disagree"
  in
  go r.H.per_kernel r.H.per_kernel_attribution

(** Check that every launch's cache table decomposes its launch cache
    counters exactly and that [hits + misses = global_transactions]
    ({!Sycl_sim.Cache.conserves}). Trivially [Ok] under the flat model
    (no tables are collected). *)
let check_cache_conservation (r : H.run_result) : (unit, string) result =
  if r.H.per_kernel_cache = [] then Ok ()
  else
    (* Under a non-flat model every launch collects a table, so the two
       lists pair positionally like the attribution check. *)
    let rec go stats tabs =
      match (stats, tabs) with
      | [], [] -> Ok ()
      | (name, s) :: stats', (name', t) :: tabs' when name = name' -> (
        match Sycl_sim.Cache.conserves t s with
        | [] -> go stats' tabs'
        | v :: _ -> Error (Printf.sprintf "%s: %s" name v))
      | _ -> Error "per_kernel and per_kernel_cache lists disagree"
    in
    go r.H.per_kernel r.H.per_kernel_cache
