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

(** Run [w] compiled with [passes] under [sim]; returns the
    per-argument buffer snapshots (floats; None for scalar args) and the
    ground-truth verdict. *)
let run_with ?sim (w : Common.workload) (passes : Pass.t list) =
  let m = w.Common.w_module () in
  ignore (Pass.run_pipeline ~verify_each:false passes m);
  let args, validate = w.Common.w_data () in
  ignore (Common.run_host ?sim m args);
  let snapshot (hv : Common.Host_interp.hv) =
    match hv with
    | Common.Host_interp.Scalar (Common.Interp.Mem view) ->
      let a = view.Common.Memory.base in
      Some (Array.init (Common.Memory.size a) (Common.Memory.get_float a))
    | _ -> None
  in
  (List.map snapshot args, validate ())

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
        ~fresh:(fun () -> w.Common.w_module ())
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
  match
    ( run_with ?sim w (reference_pipeline ()),
      run_with ?sim w (full_pipeline ()) )
  with
  | exception e ->
    fail (Printf.sprintf "execution raised %s" (Printexc.to_string e))
  | (ref_bufs, ref_ok), (opt_bufs, opt_ok) ->
    if not ref_ok then
      Error
        { d_workload = w.Common.w_name;
          d_detail = "unoptimized reference fails its own ground truth";
          d_first_bad_pass = None }
    else if not opt_ok then fail "optimized run fails ground truth"
    else if not (List.for_all2 (buffers_agree ~tol) ref_bufs opt_bufs) then
      fail "optimized and unoptimized buffers diverge"
    else Ok ()

(* ------------------------------------------------------------------ *)
(* Oracle (d): sequential vs. parallel simulator determinism           *)
(* ------------------------------------------------------------------ *)

(* Render everything observable about a run — cost counters, per-kernel
   launch statistics, the metrics registry (as canonical JSON, so counter
   and percentile determinism is part of the contract), the profile
   timeline, and every output buffer bit-for-bit (hex floats) — so any
   divergence between two runs shows up as a byte difference. *)
let render_digest (r : Common.Host_interp.run_result)
    (args : Common.Host_interp.hv list) ~(valid : bool) : string =
  let module H = Common.Host_interp in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "total=%d device=%d launch=%d transfer=%d sched=%d jit=%d \
        launches=%d deps=%d valid=%b\n"
       r.H.total_cycles r.H.device_cycles r.H.launch_overhead_cycles
       r.H.transfer_cycles r.H.scheduler_cycles r.H.jit_cycles
       r.H.kernel_launches r.H.dependency_edges valid);
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
    (fun i hv ->
      match hv with
      | H.Scalar (Common.Interp.Mem view) ->
        Buffer.add_string buf (Printf.sprintf "buf %d:" i);
        let a = view.Common.Memory.base in
        for c = 0 to Common.Memory.size a - 1 do
          Buffer.add_string buf
            (Printf.sprintf " %h" (Common.Memory.get_float a c))
        done;
        Buffer.add_char buf '\n'
      | _ -> ())
    args;
  Buffer.add_string buf
    (Json.to_string (Sycl_obs.Metrics.to_json r.H.metrics));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let run_digest ~sim (w : Common.workload) : string =
  let m = w.Common.w_module () in
  ignore (Pass.run_pipeline ~verify_each:false (full_pipeline ()) m);
  let args, validate = w.Common.w_data () in
  let r = Common.run_host ~sim m args in
  render_digest r args ~valid:(validate ())

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
  | exception e ->
    Error
      {
        Difftest.f_oracle = "determinism";
        f_detail =
          Printf.sprintf "%s: execution raised %s" w.Common.w_name
            (Printexc.to_string e);
        f_ir = None;
      }
  | reference, subject ->
    Difftest.check_deterministic ~oracle:"determinism"
      ~what:(w.Common.w_name ^ " run digest") ~reference ~subject ()

(* ------------------------------------------------------------------ *)
(* Oracle (g): attribution conservation                                *)
(* ------------------------------------------------------------------ *)

(** Every launch's attribution table, from a run under [sim], must
    decompose its launch stats exactly: each counter column sums to the
    corresponding [Cost.launch_stats] field and the cycle column to
    [total_wg_cycles] ({!Sycl_sim.Attribution.check_launches}). *)
let check_attribution ?sim (w : Common.workload) :
    (unit, Difftest.failure) result =
  let module H = Common.Host_interp in
  let fail detail =
    Error
      { Difftest.f_oracle = "attribution-conservation";
        f_detail = w.Common.w_name ^ ": " ^ detail; f_ir = None }
  in
  match
    let m = w.Common.w_module () in
    ignore (Pass.run_pipeline ~verify_each:false (full_pipeline ()) m);
    let args, _ = w.Common.w_data () in
    Common.run_host ?sim m args
  with
  | exception e -> fail (Printf.sprintf "execution raised %s" (Printexc.to_string e))
  | r -> (
    match
      Sycl_sim.Attribution.check_launches r.H.per_kernel
        r.H.per_kernel_attribution
    with
    | Error detail -> fail detail
    | Ok () -> Ok ())

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
  let m = w.Common.w_module () in
  let compile = Pass.run_pipeline ~verify_each:false (full_pipeline ()) m in
  let ir = Printer.to_string m in
  let args, validate = w.Common.w_data () in
  let r = Common.run_host ?sim m args in
  if telemetry then begin
    (* Exercise the export paths too: render the merged trace, the
       metrics JSON and the profiler surfaces (--annotate: hotspot
       report, attribution JSON, annotated IR dump) exactly as the CLI
       tools would. The annotation writes into a re-parsed clone — the
       module under test must stay byte-identical. *)
    let tab = Sycl_sim.Attribution.merge_launches r.H.per_kernel_attribution in
    let trace =
      Telemetry.merged_trace ~timing:compile ~attribution:tab r
    in
    ignore (Json.to_string (Sycl_obs.Trace.export trace));
    ignore (Json.to_string (Sycl_obs.Metrics.to_json r.H.metrics));
    ignore (Sycl_sim.Attribution.hotspots_to_string tab);
    ignore (Json.to_string (Sycl_sim.Attribution.to_json tab));
    let clone = Parser.parse_module ir in
    Sycl_sim.Attribution.annotate_module tab clone;
    ignore (Printer.to_string clone)
  end;
  (ir, render_digest r args ~valid:(validate ()))

(** Telemetry must observe, never perturb: compiling and running under
    [sim] with the trace/metrics/profiler exports rendered must leave the compiled IR and the full run digest byte-identical
    to a plain run. *)
let check_telemetry_neutral ?sim (w : Common.workload) :
    (unit, Difftest.failure) result =
  match
    ( telemetry_run ?sim w ~telemetry:false,
      telemetry_run ?sim w ~telemetry:true )
  with
  | exception e ->
    Error
      {
        Difftest.f_oracle = "telemetry-neutral";
        f_detail =
          Printf.sprintf "%s: execution raised %s" w.Common.w_name
            (Printexc.to_string e);
        f_ir = None;
      }
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

(* Full run digest under [sim], with per-launch conservation checked on
   the way ([hits + misses] must equal the launch's global transactions
   exactly, and the per-op table must sum to the launch counters —
   {!Sycl_sim.Attribution.check_launches}). *)
let cache_digest ?sim (w : Common.workload) : string =
  let module H = Common.Host_interp in
  let m = w.Common.w_module () in
  ignore (Pass.run_pipeline ~verify_each:false (full_pipeline ()) m);
  let args, validate = w.Common.w_data () in
  let r = Common.run_host ?sim m args in
  (match
     Sycl_sim.Attribution.check_launches r.H.per_kernel
       r.H.per_kernel_attribution
   with
  | Ok () -> ()
  | Error v -> failwith ("cache conservation violated: " ^ v));
  render_digest r args ~valid:(validate ())

(** Cache-model coherence: under each non-flat model the cache counters
    conserve exactly on every launch and the full digest (launch stats,
    per-op cache tables, reuse histograms, metrics, buffers) is
    byte-identical between the sequential and the [domains]-domain
    backend; an explicit flat model is byte-identical to a run given no
    settings at all, so the default is the flat model. The runs take
    their race check from [sim]; its cache model and domain count are
    the ones under test and are set per run. *)
let check_cache_coherence ?(sim = Sim_config.default) ?(domains = 4)
    (w : Common.workload) : (unit, Difftest.failure) result =
  let name = w.Common.w_name in
  let fail detail =
    Error
      { Difftest.f_oracle = "cache-coherence";
        f_detail = name ^ ": " ^ detail; f_ir = None }
  in
  match
    let run cache_model domains =
      cache_digest ~sim:{ sim with Sim_config.cache_model; domains } w
    in
    let per_model model = (run model 1, run model domains) in
    ( per_model Common.Cost.Direct_mapped,
      per_model Common.Cost.Set_associative,
      run Common.Cost.Flat 1,
      cache_digest w )
  with
  | exception e ->
    fail (Printf.sprintf "execution raised %s" (Printexc.to_string e))
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
(* Oracle (h): worklist / legacy rewrite equivalence                   *)
(* ------------------------------------------------------------------ *)

(** The worklist driver replaced the legacy bounded re-walk driver; on
    any module shallow enough for the legacy driver to actually converge
    (its silent [max_iterations] cutoff not hit), both must reach the
    same fixpoint — byte-identical printed IR under the canonicalize
    pattern set. Modules where the legacy driver gives up early are
    skipped: there the two drivers legitimately differ (that divergence
    is the bug the worklist driver fixes, covered by the deep-chain
    regression test). *)
let check_worklist_equivalence (w : Common.workload) :
    (unit, Difftest.failure) result =
  let name = w.Common.w_name in
  let fail detail ir =
    Error
      { Difftest.f_oracle = "worklist-equivalence";
        f_detail = name ^ ": " ^ detail; f_ir = ir }
  in
  match
    let text = Printer.to_string (w.Common.w_module ()) in
    let patterns = Sycl_core.Canonicalize.patterns in
    let legacy_m = Parser.parse_module text in
    let legacy_st = Rewrite.apply_greedily_legacy legacy_m patterns in
    let worklist_m = Parser.parse_module text in
    let worklist_st = Rewrite.apply_worklist worklist_m patterns in
    ( legacy_st, Printer.to_string legacy_m,
      worklist_st, Printer.to_string worklist_m )
  with
  | exception e -> fail (Printf.sprintf "raised %s" (Printexc.to_string e)) None
  | legacy_st, legacy_ir, worklist_st, worklist_ir ->
    if not legacy_st.Rewrite.rw_converged then
      (* Too deep for the bounded driver — no converged reference. *)
      Ok ()
    else if not worklist_st.Rewrite.rw_converged then
      fail "worklist driver reported non-convergence" (Some worklist_ir)
    else if legacy_ir <> worklist_ir then
      fail "worklist fixpoint diverges from the converged legacy fixpoint"
        (Some worklist_ir)
    else Ok ()

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
