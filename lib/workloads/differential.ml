(* Oracle (c) of the differential harness: simulator differential.

   A workload compiled with the full SYCL-MLIR pipeline must compute the
   same buffers as the same workload with no device optimization at all
   (host raising only — the minimum for the runtime to execute the
   module). Outputs are compared against the workload's own ground-truth
   validator and pairwise between the two runs, with the suite's
   tolerance (reduction rewrites reassociate floating-point sums, so
   bit-exact equality is not the contract). On divergence, a greedy
   pass bisection re-runs growing pipeline prefixes on fresh modules and
   names the first pass whose output diverges. *)

open Mlir
module Sim_config = Sycl_sim.Sim_config

type divergence = {
  d_workload : string;
  d_detail : string;
  d_first_bad_pass : string option;  (** named by the bisection shrinker *)
}

let divergence_to_string d =
  Printf.sprintf "[differential] %s: %s%s" d.d_workload d.d_detail
    (match d.d_first_bad_pass with
    | Some p -> Printf.sprintf " (first divergent pass: %s)" p
    | None -> "")

(* The pipeline under test, flattened the way Driver.compile runs it. *)
let full_pipeline () =
  Common.Driver.pipeline (Common.Driver.config Common.Driver.Sycl_mlir)

(* Host raising alone: the unoptimized reference. It is the first pass of
   every host pipeline and mandatory for Host_interp to run the module. *)
let reference_pipeline () =
  match full_pipeline () with
  | raising :: _ -> [ raising ]
  | [] -> []

(** [w] compiled with [passes] and run once under [sim]
    ({!Common.compile_and_run}): the one run behind every oracle here
    that simulates, and behind the optimization-delta report. *)
let run ?sim (passes : Pass.t list) (w : Common.workload) : Common.measurement =
  Common.compile_and_run ?sim
    ~compile:(Pass.run_pipeline ~verify_each:false passes)
    w

(* The per-argument buffer snapshots of a run (floats; None for scalar
   args). *)
let buffers (m : Common.measurement) =
  List.map
    (function
      | Common.Host_interp.Scalar (Common.Interp.Mem view) ->
        let a = view.Common.Memory.base in
        Some (Array.init (Common.Memory.size a) (Common.Memory.get_float a))
      | _ -> None)
    m.Common.m_args

let buffers_agree ?(tol = 1e-3) a b =
  match (a, b) with
  | Some a, Some b ->
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Common.approx_eq ~tol x y) a b
  | None, None -> true
  | _ -> false

(** Check one workload: reference (raising only) vs. full SYCL-MLIR
    pipeline, both run under [sim], both against ground truth and
    against each other. *)
let check ?sim ?(tol = 1e-3) (w : Common.workload) :
    (unit, divergence) result =
  let fail detail =
    let first_bad_pass =
      Difftest.bisect_passes ~passes:(full_pipeline ()) ~base:1
        ~fresh:(fun () -> Common.located_module w)
        ~check:(fun m ->
          let args, validate = w.Common.w_data () in
          match Common.run_host ?sim m args with
          | _ -> validate ()
          | exception _ -> false)
        ()
    in
    Error
      { d_workload = w.Common.w_name; d_detail = detail;
        d_first_bad_pass = first_bad_pass }
  in
  match (run ?sim (reference_pipeline ()) w, run ?sim (full_pipeline ()) w) with
  | exception e ->
    fail (Printf.sprintf "execution raised %s" (Printexc.to_string e))
  | reference, optimized ->
    if not reference.Common.m_valid then
      Error
        { d_workload = w.Common.w_name;
          d_detail = "unoptimized reference fails its own ground truth";
          d_first_bad_pass = None }
    else if not optimized.Common.m_valid then
      fail "optimized run fails ground truth"
    else if
      not
        (List.for_all2 (buffers_agree ~tol) (buffers reference)
           (buffers optimized))
    then
      fail "optimized and unoptimized buffers diverge"
    else Ok ()

(* ------------------------------------------------------------------ *)
(* The run digest, and oracle (g): attribution conservation            *)
(* ------------------------------------------------------------------ *)

exception Not_conserved of string

(** Everything observable about the run [m] as text: cost counters,
    per-kernel launch statistics, the per-op attribution tables and
    cache views, the profile timeline, every output buffer bit for bit
    (hex floats) and the metrics registry (as canonical JSON, so counter
    and percentile determinism is part of the contract) — so any
    divergence between two runs shows up as a byte difference. Oracle
    (g) is checked on the way: every launch's attribution table must
    decompose its launch statistics exactly
    ({!Sycl_sim.Attribution.check_launches}: each counter column sums to
    the launch's field, the cycle column to [total_wg_cycles], and under
    a non-flat cache model hits + misses to the global transactions),
    else {!Not_conserved}. *)
let digest (m : Common.measurement) : string =
  let module H = Common.Host_interp in
  let r = m.Common.m_result in
  (match
     Sycl_sim.Attribution.check_launches r.H.per_kernel
       r.H.per_kernel_attribution
   with
  | Ok () -> ()
  | Error v -> raise (Not_conserved v));
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "total=%d device=%d launch=%d transfer=%d sched=%d jit=%d \
        launches=%d deps=%d valid=%b\n"
       r.H.total_cycles r.H.device_cycles r.H.launch_overhead_cycles
       r.H.transfer_cycles r.H.scheduler_cycles r.H.jit_cycles
       r.H.kernel_launches r.H.dependency_edges m.Common.m_valid);
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf
        (Format.asprintf "%s: %a\n" name Common.Cost.pp_launch_stats s))
    r.H.per_kernel;
  (* Per-op attribution rows in canonical order, and each launch's cache
     view (none under the flat model): the determinism and telemetry
     oracles cover the profiler's accounting byte-for-byte. *)
  List.iter
    (fun (name, tab) ->
      Buffer.add_string buf (Printf.sprintf "attribution %s:\n" name);
      Buffer.add_string buf (Sycl_sim.Attribution.render tab);
      Option.iter
        (fun c -> Buffer.add_string buf (Printf.sprintf "cache %s:\n%s" name c))
        (Sycl_sim.Attribution.cache_to_string tab))
    r.H.per_kernel_attribution;
  List.iter
    (fun (e : Sycl_obs.Trace.span) ->
      Buffer.add_string buf
        (Printf.sprintf "ev %s/%s ts=%d dur=%d%s\n" e.Sycl_obs.Trace.sp_cat
           e.Sycl_obs.Trace.sp_name e.Sycl_obs.Trace.sp_ts
           e.Sycl_obs.Trace.sp_dur
           (String.concat ""
              (List.map
                 (fun (k, v) -> Printf.sprintf " %s=%d" k v)
                 e.Sycl_obs.Trace.sp_args))))
    r.H.events;
  List.iteri
    (fun i -> function
      | Some floats ->
        Buffer.add_string buf (Printf.sprintf "buf %d:" i);
        Array.iter
          (fun x -> Buffer.add_string buf (Printf.sprintf " %h" x))
          floats;
        Buffer.add_char buf '\n'
      | None -> ())
    (buffers m);
  Buffer.add_string buf
    (Json.to_string (Sycl_obs.Metrics.to_json r.H.metrics));
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* The digest of [w] compiled with the full pipeline and run under
   [sim]. *)
let run_digest ?sim (w : Common.workload) =
  digest (run ?sim (full_pipeline ()) w)

(* [oracle]'s failure for an exception [w]'s runs raised — oracle (g)'s,
   [attribution-conservation], when a digest found a launch whose
   attribution does not conserve. *)
let raised ~oracle (w : Common.workload) e : (unit, Difftest.failure) result =
  let f_oracle, detail =
    match e with
    | Not_conserved v -> ("attribution-conservation", v)
    | e -> (oracle, "execution raised " ^ Printexc.to_string e)
  in
  Error
    { Difftest.f_oracle; f_detail = w.Common.w_name ^ ": " ^ detail; f_ir = None }

(* ------------------------------------------------------------------ *)
(* Oracle (d): sequential vs. parallel simulator determinism           *)
(* ------------------------------------------------------------------ *)

(** Sequential-vs-parallel determinism: the full run digest under
    [domains] worker domains must be byte-identical to the sequential
    backend's. Both runs take the rest of their settings from [sim].
    Used by the fuzz loop and the parallel-sim tests. *)
let check_parallel ?(sim = Sim_config.default) ?(domains = 4)
    (w : Common.workload) : (unit, Difftest.failure) result =
  match
    ( run_digest ~sim:{ sim with Sim_config.domains = 1 } w,
      run_digest ~sim:{ sim with Sim_config.domains } w )
  with
  | exception e -> raised ~oracle:"determinism" w e
  | reference, subject ->
    Difftest.check_deterministic ~oracle:"determinism"
      ~what:(w.Common.w_name ^ " run digest") ~reference ~subject ()

(* ------------------------------------------------------------------ *)
(* Oracle (e): telemetry neutrality                                    *)
(* ------------------------------------------------------------------ *)

(* Compile and run [w] under [sim], optionally with the merged trace
   (compile spans from the pipeline result) and metrics JSON rendered
   (and discarded). Returns the compiled IR text and the full run
   digest. *)
let telemetry_run ?sim (w : Common.workload) ~(telemetry : bool) :
    string * string =
  let module H = Common.Host_interp in
  let m = run ?sim (full_pipeline ()) w in
  let r = m.Common.m_result in
  let ir = Printer.to_string m.Common.m_module in
  if telemetry then begin
    (* Exercise the export paths too: render the merged trace, the
       metrics JSON and the profiler surfaces (--annotate: hotspot
       report, attribution JSON, annotated IR dump) exactly as the CLI
       tools would. The annotation writes into a re-parsed clone — the
       module under test must stay byte-identical. *)
    let tab = Sycl_sim.Attribution.merge_launches r.H.per_kernel_attribution in
    let trace =
      Telemetry.merged_trace ~timing:m.Common.m_compile ~attribution:tab r
    in
    ignore (Json.to_string (Sycl_obs.Trace.export trace));
    ignore (Json.to_string (Sycl_obs.Metrics.to_json r.H.metrics));
    ignore (Sycl_sim.Attribution.hotspots_to_string tab);
    ignore (Json.to_string (Sycl_sim.Attribution.to_json tab));
    let clone = Parser.parse_module ir in
    Sycl_sim.Attribution.annotate_module tab clone;
    ignore (Printer.to_string clone)
  end;
  (ir, digest m)

(** Telemetry must observe, never perturb: compiling and running under
    [sim] with the trace/metrics/profiler exports rendered must leave
    the compiled IR and the full run digest byte-identical to a plain
    run. *)
let check_telemetry_neutral ?sim (w : Common.workload) :
    (unit, Difftest.failure) result =
  match
    ( telemetry_run ?sim w ~telemetry:false,
      telemetry_run ?sim w ~telemetry:true )
  with
  | exception e -> raised ~oracle:"telemetry-neutral" w e
  | (ref_ir, ref_digest), (tel_ir, tel_digest) -> (
    match
      Difftest.check_deterministic ~oracle:"telemetry-neutral"
        ~what:(w.Common.w_name ^ " compiled IR") ~reference:ref_ir
        ~subject:tel_ir ()
    with
    | Error _ as e -> e
    | Ok () ->
      Difftest.check_deterministic ~oracle:"telemetry-neutral"
        ~what:(w.Common.w_name ^ " run digest") ~reference:ref_digest
        ~subject:tel_digest ())

(* ------------------------------------------------------------------ *)
(* Oracle (f): compile-service cache coherence                         *)
(* ------------------------------------------------------------------ *)

(** The compile service must be invisible in the output: a module pushed
    through a multi-domain service — cold, coalesced (the batch repeats
    the request six times) and then cached — must come out byte-identical
    to a direct pipeline run, with exactly one cold compile and a fully
    cached second round. *)
let check_service_cache (w : Common.workload) :
    (unit, Difftest.failure) result =
  let module Service = Sycl_service.Service in
  let module Metrics = Sycl_obs.Metrics in
  let name = w.Common.w_name in
  let fail detail ir =
    Error
      { Difftest.f_oracle = "service-cache"; f_detail = name ^ ": " ^ detail;
        f_ir = ir }
  in
  match
    let text = Printer.to_string (w.Common.w_module ()) in
    let pipeline = full_pipeline () in
    let reference =
      let m = Parser.parse_module text in
      ignore (Pass.run_pipeline ~verify_each:false pipeline m);
      Printer.to_string m
    in
    let service =
      Service.create ~cache_capacity:8 ~workers:4 ~pipeline
        ~pipeline_key:(Service.pipeline_key_of_passes pipeline) ()
    in
    let rq i =
      { Service.rq_name = Printf.sprintf "%s#%d" name i; rq_text = text }
    in
    let round1 = Service.run_batch service (List.init 6 rq) in
    let round2 = Service.run_batch service (List.init 6 rq) in
    (reference, service, round1 @ round2)
  with
  | exception e -> fail (Printf.sprintf "raised %s" (Printexc.to_string e)) None
  | reference, service, responses -> (
    let bad_output =
      List.find_map
        (fun (rs : Service.response) ->
          match rs.Service.rs_outcome with
          | Service.Success s when s = reference -> None
          | Service.Success s ->
            Some
              ( Printf.sprintf "%s: service output diverges from direct compile"
                  rs.Service.rs_name,
                Some s )
          | Service.Failure msg ->
            Some
              (Printf.sprintf "%s: service compile failed: %s"
                 rs.Service.rs_name msg, None))
        responses
    in
    match bad_output with
    | Some (detail, ir) -> fail detail ir
    | None ->
      let reg = Service.metrics service in
      let misses = Metrics.counter_value reg "service.cache_misses" in
      let hits = Metrics.counter_value reg "service.cache_hits" in
      if misses <> 1 then
        fail
          (Printf.sprintf "expected exactly 1 cold compile, got %d misses"
             misses)
          None
      else if hits <> 11 then
        fail (Printf.sprintf "expected 11 cache hits, got %d" hits) None
      else if
        List.exists
          (fun (rs : Service.response) -> not rs.Service.rs_cache_hit)
          (List.filteri (fun i _ -> i >= 6) responses)
      then fail "second-round response not served from the cache" None
      else Ok ())

(* ------------------------------------------------------------------ *)
(* Oracle (i): cache-model coherence                                   *)
(* ------------------------------------------------------------------ *)

(** Cache-model coherence: under each non-flat model the full digest
    (launch stats, per-op cache tables, reuse histograms, metrics,
    buffers) is byte-identical between the sequential and the
    [domains]-domain backend (each digest also checks that the cache
    counters conserve exactly on every launch: oracle (g)); an explicit
    flat model is byte-identical to a run given no settings at all, so
    the default is the flat model. The runs take their race check from
    [sim]; its cache model and domain count are the ones under test and
    are set per run. *)
let check_cache_coherence ?(sim = Sim_config.default) ?(domains = 4)
    (w : Common.workload) : (unit, Difftest.failure) result =
  let name = w.Common.w_name in
  match
    let model_digest cache_model domains =
      run_digest ~sim:{ sim with Sim_config.cache_model; domains } w
    in
    let per_model model = (model_digest model 1, model_digest model domains) in
    ( per_model Common.Cost.Direct_mapped,
      per_model Common.Cost.Set_associative,
      model_digest Common.Cost.Flat 1,
      run_digest w )
  with
  | exception e -> raised ~oracle:"cache-coherence" w e
  | (dm_seq, dm_par), (as_seq, as_par), flat, default -> (
    let pair what reference subject =
      Difftest.check_deterministic ~oracle:"cache-coherence"
        ~what:(name ^ " " ^ what) ~reference ~subject ()
    in
    match pair "direct-mapped digest (1 vs N domains)" dm_seq dm_par with
    | Error _ as e -> e
    | Ok () -> (
      match pair "set-associative digest (1 vs N domains)" as_seq as_par with
      | Error _ as e -> e
      | Ok () ->
        pair "flat digest (explicit flat vs default)" default flat))

(* ------------------------------------------------------------------ *)
(* Oracle (h): incremental pass manager equivalence                    *)
(* ------------------------------------------------------------------ *)

(* The counters a seeded or skipped execution may change: what the
   passes looked at, never what they did. *)
let visit_counter key =
  String.ends_with ~suffix:"ops_visited" key || key = "cse/cse.candidates"

(** The pass manager skips an idempotent pass when nothing changed since
    its previous execution and seeds canonicalize with the ops changed
    since its previous execution. Under each of the three
    configurations, compiling [w] with {!Pass.run_pipeline} must give
    the same printed module, remarks and pass counters (bar visit
    counters) as calling each pass's [run] in turn outside the pass
    manager, where every canonicalize sweeps every op and nothing is
    skipped. *)
let check_incremental_equivalence (w : Common.workload) :
    (unit, Difftest.failure) result =
  let pipelined passes m = Pass.run_pipeline ~verify_each:false passes m in
  let pass_by_pass passes m =
    { Pass.per_pass_stats =
        List.map
          (fun (p : Pass.t) ->
            let st = Pass.Stats.create () in
            p.Pass.run m st;
            (p.Pass.pass_name, st))
          passes;
      per_pass_time = [];
      wall = 0.0 }
  in
  (* The printed module, its remarks and its counters, bar visits. *)
  let compiled compile cfg =
    let m = w.Common.w_module () in
    let r, remarks =
      Remarks.collect (fun () -> compile (Common.Driver.pipeline cfg) m)
    in
    ( Printer.to_string m,
      List.map Remarks.to_string remarks,
      List.filter
        (fun (k, _) -> not (visit_counter k))
        (Pass.Stats.to_list (Pass.merged_stats r)) )
  in
  let check cfg =
    let fail detail ir =
      Error
        { Difftest.f_oracle = "incremental-equivalence";
          f_detail =
            Printf.sprintf "%s (%s): %s" w.Common.w_name
              (Common.Driver.mode_to_string cfg.Common.Driver.mode)
              detail;
          f_ir = ir }
    in
    match (compiled pipelined cfg, compiled pass_by_pass cfg) with
    | exception e -> fail ("raised " ^ Printexc.to_string e) None
    | (ir, remarks, stats), (ref_ir, ref_remarks, ref_stats) ->
      if ir <> ref_ir then
        fail "module differs from the pass-by-pass compile" (Some ir)
      else if remarks <> ref_remarks then
        fail "remarks differ from the pass-by-pass compile" None
      else if stats <> ref_stats then
        fail "pass counters differ from the pass-by-pass compile" None
      else Ok ()
  in
  List.fold_left
    (fun acc cfg -> match acc with Ok () -> check cfg | Error _ -> acc)
    (Ok ()) Common.default_configs

(* ------------------------------------------------------------------ *)
(* Randomized workload selection for the fuzz loop                     *)
(* ------------------------------------------------------------------ *)

(** A workload with an ND-range size randomized from [rng] — problem
    sizes are arbitrary (not powers of two); the launch policy picks a
    dividing work-group size. *)
let random_workload (rng : Random.State.t) : Common.workload =
  let n = 6 + Random.State.int rng 27 in
  let builders =
    [ (fun () -> Polybench.gemm ~n);
      (fun () -> Polybench.atax ~n);
      (fun () -> Polybench.bicg ~n);
      (fun () -> Polybench.mvt ~n);
      (fun () -> Polybench.gesummv ~n);
      (fun () -> Single_kernel.vec_add ~n:(n * n));
      (fun () -> Single_kernel.sobel5 ~n);
      (fun () -> Stencil.jacobi ~n ~iters:2) ]
  in
  (List.nth builders (Random.State.int rng (List.length builders))) ()
