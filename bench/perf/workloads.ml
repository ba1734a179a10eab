(* The four workloads of the wall-clock benchmark.

   A workload is a set-up step, which makes the inputs from the seed and
   the reference outputs the checks compare against, and an op: one unit
   of work a user of the system waits for. An op is made of calls into the
   libraries' public functions, each wrapped in a probe span named after
   its layer ([frontend], [ir], [core], [runtime], [workloads],
   [service]). It returns the check of its outputs, which the harness runs
   outside the op's time. Ops come in rounds that repeat the same work;
   op [i] depends only on [i], the set-up and the earlier ops of its
   round, so a fresh set-up replays the same ops. *)

open Mlir
open Sycl_workloads
module Driver = Sycl_core.Driver
module Host_interp = Sycl_runtime.Host_interp
module Cost = Sycl_sim.Cost
module Service = Sycl_service.Service

type check = unit -> (unit, string) result

type instance = {
  op : int -> check;
  round : int;
      (** ops in one round: op [i] repeats the work of op [i - round], and
          a round holds the workload's whole mix *)
  extras : unit -> (string * float) list;
      (** per-layer values only the workload can compute, over the ops run
          since set-up *)
}

type t = {
  name : string;
  setup : root:string -> seed:int -> instance;
}

let sycl_mlir = Driver.config Driver.Sycl_mlir

let init_dialects () = ignore (Common.fresh_module ())

let ok_if cond msg : (unit, string) result = if cond then Ok () else Error msg

let rng ~seed salt = Random.State.make [| 0x9e7f; salt; seed |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Layer calls                                                         *)
(* ------------------------------------------------------------------ *)

let count_ops m =
  let n = ref 0 in
  Core.walk m ~f:(fun _ -> incr n);
  !n

let build (w : Common.workload) =
  let m = Probe.span "frontend.build" w.Common.w_module in
  Probe.count "frontend.ops_built" (fun () -> count_ops m);
  m

let parse text =
  let m = Probe.span "ir.parse" (fun () -> Parser.parse_module text) in
  Probe.count "ir.parse.ops" (fun () -> count_ops m);
  m

let verify m =
  match Probe.span "ir.verify" (fun () -> Verifier.verify m) with
  | Ok () -> ()
  | Error ds ->
    failwith
      ("verifier: " ^ String.concat "; " (List.map Verifier.diag_to_string ds))

let print m =
  let s = Probe.span "ir.print" (fun () -> Printer.to_string m) in
  Probe.count "ir.print.chars" (fun () -> String.length s);
  s

(* The work counters of one pass execution, matched the way the bench
   report's compile section matches them. *)
let record_pass_stats (pass, stats) =
  List.iter
    (fun (k, v) ->
      let is stat = k = stat || k = pass ^ "." ^ stat in
      if is "ops_visited" then Probe.count "core.ops_visited" (fun () -> v);
      if is "rewrites" then Probe.count "core.rewrites" (fun () -> v))
    (Pass.Stats.to_list stats)

let compile cfg m =
  let c =
    Probe.span "core.compile" (fun () ->
        Driver.compile ~instrumentations:(Probe.instrumentations ()) cfg m)
  in
  if Probe.enabled () then begin
    List.iter record_pass_stats c.Driver.pipeline_result.Pass.per_pass_stats;
    Probe.count "core.ops_after" (fun () -> count_ops m)
  end;
  c

let data (w : Common.workload) = Probe.span "workloads.data" w.Common.w_data

let validate v = Probe.span "workloads.validate" v

let total f (r : Host_interp.run_result) =
  List.fold_left (fun acc (_, s) -> acc + f s) 0 r.Host_interp.per_kernel

let run_host ?launch_hook ?jit_cycles ?sim_domains ?cache_model m args =
  let r =
    Probe.span "runtime.run" (fun () ->
        Host_interp.run ?launch_hook ?jit_cycles ?sim_domains ?cache_model
          ~module_op:m args)
  in
  if Probe.enabled () then begin
    let c name v = Probe.count name (fun () -> v) in
    let reg = r.Host_interp.metrics in
    let metric n = Sycl_obs.Metrics.counter_value reg n in
    c "runtime.launches" r.Host_interp.kernel_launches;
    c "runtime.transfer_bytes"
      (metric "runtime.transfer_bytes_h2d" + metric "runtime.transfer_bytes_d2h");
    c "sim.device_cycles" r.Host_interp.device_cycles;
    c "sim.work_items" (total (fun s -> s.Cost.work_items) r);
    c "sim.work_groups" (total (fun s -> s.Cost.work_groups) r);
    c "sim.barriers" (total (fun s -> s.Cost.barriers) r);
    c "sim.global_transactions" (total (fun s -> s.Cost.global_transactions) r);
    c "sim.cache.hits" (total (fun s -> s.Cost.cache_hits) r);
    c "sim.cache.misses" (total (fun s -> s.Cost.cache_misses) r);
    c "sim.cache.evictions" (total (fun s -> s.Cost.cache_evictions) r)
  end;
  r

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

(* The eight builders the differential fuzzer draws from. *)
let sim_builders : (int -> Common.workload) array =
  [| (fun n -> Polybench.gemm ~n); (fun n -> Polybench.atax ~n);
     (fun n -> Polybench.bicg ~n); (fun n -> Polybench.mvt ~n);
     (fun n -> Polybench.gesummv ~n);
     (fun n -> Single_kernel.vec_add ~n:(n * n));
     (fun n -> Single_kernel.sobel5 ~n);
     (fun n -> Stencil.jacobi ~n ~iters:2) |]

(** The compile corpus: the 29 suite programs and the 2 extensions, in
    seeded order, as [(name, module text)] pairs. A program's problem
    size is a run-time argument and does not reach its module text, so
    drawing programs at other sizes would add copies, not new texts; the
    seed orders the 31 distinct texts. *)
let corpus ~seed =
  shuffle (rng ~seed 1)
    (Array.of_list
       (List.map
          (fun (w : Common.workload) ->
            (w.Common.w_name, Printer.to_string (w.Common.w_module ())))
          (Suite.all () @ Suite.extensions ())))

(* Problem sizes come in ten strata of four: n = 8 + 4j + r, r < 4. *)
let sim_strata = 10

let sim_round = Array.length sim_builders * sim_strata

(** The [sim_round] (builder, n) pairs, n in [8, 47], in seeded order:
    every builder once in every size stratum, builder [b] at offset
    [r = (b + j) mod 4] in stratum [j], so each of the 40 sizes appears
    twice. The seed orders the pairs but does not pick them: the work of a
    round, which the metrics measure, is the same for every seed. *)
let sim_draw ~seed =
  let nb = Array.length sim_builders in
  shuffle (rng ~seed 3)
    (Array.init sim_round (fun c ->
         let b = c mod nb and j = c / nb in
         (b, 8 + (4 * j) + ((b + j) mod 4))))

(* ------------------------------------------------------------------ *)
(* suite-subset                                                        *)
(* ------------------------------------------------------------------ *)

let mode_key = function
  | Driver.Dpcpp -> "dpcpp"
  | Driver.Adaptive_cpp -> "acpp"
  | Driver.Sycl_mlir -> "sycl-mlir"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Eleven of the 29 evaluation-suite programs: six single-kernel, three
   polybench and two stencil ones, 31 (program, configuration) ops of
   about 5 s together on a 2.1 GHz Xeon core. This is not the figure
   regeneration: the whole suite takes about 27 s, longer than a run, and
   a run that stopped part-way through it would time a different mix each
   time. NBody and the multi-kernel polybench programs (2mm, 3mm, SYRK,
   ...) each take 1.3-5 s and are left out. The op count is odd so that
   the median falls on one op rather than between two that may be far
   apart. *)
let suite_subset_names =
  [ "KMeans"; "LinearRegression"; "MolecularDynamics"; "ScalarProduct"; "Sobel5";
    "VectorAddition"; "2DConvolution"; "Bicg"; "FDTD2D"; "1d_HeatTransfer (USM)";
    "jacobi" ]

(* One (program, configuration) pair with Common.measure's call sequence,
   AdaptiveCpp's warm-up run included, and the flat cache model; the check
   compares the modeled cycles and validity with the checked-in
   BENCH_seed.json. The simulator runs on one domain, where Common.measure
   would use every core: a simulation split over the two cores of a shared
   machine waits for whichever core the neighbours slow down, and its
   times spread too widely to bound a regression. *)
let suite_subset =
  let setup ~root ~seed:_ =
    init_dialects ();
    let report =
      Bench_report.of_json (read_file (Filename.concat root "BENCH_seed.json"))
    in
    let expected = Hashtbl.create 128 in
    List.iter
      (fun (e : Bench_report.entry) ->
        List.iter
          (fun (cfg, (m : Bench_report.config_metrics)) ->
            Hashtbl.replace expected (e.Bench_report.e_name, cfg)
              (m.Bench_report.cm_cycles, m.Bench_report.cm_valid))
          e.Bench_report.e_configs)
      report.Bench_report.r_entries;
    let programs =
      List.filter
        (fun (w : Common.workload) -> List.mem w.Common.w_name suite_subset_names)
        (Suite.all ())
    in
    let pairs =
      List.concat_map
        (fun (w : Common.workload) ->
          verify (w.Common.w_module ());
          List.filter_map
            (fun (cfg : Driver.config) ->
              if cfg.Driver.mode = Driver.Adaptive_cpp && not w.Common.w_acpp_ok
              then None
              else Some (w, cfg))
            Common.default_configs)
        programs
    in
    let ops = Array.of_list pairs in
    let cycles = Hashtbl.create 64 in
    let op i =
      let w, cfg = ops.(i mod Array.length ops) in
      let mode = cfg.Driver.mode in
      let m = build w in
      ignore (compile cfg m);
      let launch_hook, jit_cycles =
        match mode with
        | Driver.Adaptive_cpp ->
          ( Some
              (fun kernel (info : Host_interp.launch_info) ->
                Probe.span "core.specialize" (fun () ->
                    ignore
                      (Driver.specialize_at_launch kernel
                         ~global:info.Host_interp.li_global
                         ~wg:info.Host_interp.li_wg
                         ~noalias_pairs:info.Host_interp.li_noalias_pairs
                         ~constant_args:info.Host_interp.li_constant_args))),
            Cost.default.Cost.jit_compile_cycles )
        | Driver.Dpcpp | Driver.Sycl_mlir -> (None, 0)
      in
      let run args = run_host ?launch_hook ~jit_cycles ~sim_domains:1 m args in
      if mode = Driver.Adaptive_cpp then ignore (run (fst (data w)));
      let args, check_data = data w in
      let r = run args in
      let valid = validate check_data in
      fun () ->
        let name = w.Common.w_name in
        let got = r.Host_interp.total_cycles - r.Host_interp.jit_cycles in
        let want = Hashtbl.find_opt expected (name, mode_key mode) in
        Hashtbl.replace cycles (name, mode) got;
        match want with
        | Some (c, v) ->
          ok_if (c = got && v = valid)
            (Printf.sprintf "%s/%s: cycles %d valid %b, BENCH_seed.json has %d %b"
               name (mode_key mode) got valid c v)
        | None ->
          (* BENCH_seed.json omits a configuration that failed validation. *)
          ok_if (not valid)
            (Printf.sprintf "%s/%s: validates but BENCH_seed.json has no entry"
               name (mode_key mode))
    in
    (* Geomean of SYCL-MLIR's modeled speedup over DPC++ across the
       programs whose two runs completed. *)
    let extras () =
      let speedups =
        Hashtbl.fold
          (fun (name, mode) c acc ->
            match (mode, Hashtbl.find_opt cycles (name, Driver.Dpcpp)) with
            | Driver.Sycl_mlir, Some base ->
              (float_of_int base /. float_of_int (max 1 c)) :: acc
            | _ -> acc)
          cycles []
      in
      [ ("sim.modeled_speedup_geomean",
         if speedups = [] then 0.0 else Common.geomean speedups) ]
    in
    { op; round = Array.length ops; extras }
  in
  { name = "suite-subset"; setup }

(* ------------------------------------------------------------------ *)
(* compile-corpus                                                      *)
(* ------------------------------------------------------------------ *)

(* Parse, verify, compile under SYCL-MLIR and print one module text; the
   output must equal the set-up's reference compile of the same text. *)
let compile_corpus =
  let setup ~root:_ ~seed =
    init_dialects ();
    let texts = corpus ~seed in
    let reference =
      Array.map
        (fun (_, text) ->
          let m = Parser.parse_module text in
          ignore (Driver.compile sycl_mlir m);
          verify m;
          Printer.to_string m)
        texts
    in
    let op i =
      let k = i mod Array.length texts in
      let m = parse (snd texts.(k)) in
      verify m;
      ignore (compile sycl_mlir m);
      let out = print m in
      fun () ->
        ok_if (out = reference.(k))
          (fst texts.(k) ^ ": output differs from the reference compile")
    in
    { op; round = Array.length texts; extras = (fun () -> []) }
  in
  { name = "compile-corpus"; setup }

(* ------------------------------------------------------------------ *)
(* service-sweep                                                       *)
(* ------------------------------------------------------------------ *)

(* The repository's own use of the compile service, as the bench report's
   service section and the CI service smoke make it: a fresh service with
   the default cache capacity gets every module twice, the first time
   compiling it and the second time answering from the cache. One op is
   one serve-mode request (on the caller, one at a time); a round is that
   two-pass sweep over the corpus, in its seeded order, on a service the
   round's first request creates. The 31 texts are distinct and fit the
   cache, so the first pass misses and the second hits on every request. *)
let service_sweep =
  let setup ~root:_ ~seed =
    init_dialects ();
    let texts = corpus ~seed in
    let n = Array.length texts in
    let pipeline = Driver.host_pipeline sycl_mlir @ Driver.device_pipeline sycl_mlir in
    let reference =
      Array.map
        (fun (_, text) ->
          let m = Parser.parse_module text in
          ignore (Pass.run_pipeline ~verify_each:false pipeline m);
          Printer.to_string m)
        texts
    in
    (* The service runs the same passes, each inside a probe span. *)
    let spanned (p : Pass.t) =
      { p with
        Pass.run =
          (fun m st ->
            Probe.span ("core.pass." ^ p.Pass.pass_name) (fun () -> p.Pass.run m st);
            if Probe.enabled () then record_pass_stats (p.Pass.pass_name, st)) }
    in
    let pipeline = List.map spanned pipeline in
    let pipeline_key = Driver.config_key sycl_mlir in
    let service = ref None in
    let op i =
      let j = i mod (2 * n) in
      let sv =
        match !service with
        | Some sv when j > 0 -> sv
        | _ ->
          let sv = Service.create ~pipeline ~pipeline_key () in
          service := Some sv;
          sv
      in
      let k = j mod n and expect_hit = j >= n in
      let name, text = texts.(k) in
      let rs =
        Probe.span "service.request" (fun () ->
            Service.compile_one sv { Service.rq_name = name; rq_text = text })
      in
      let hit = rs.Service.rs_cache_hit in
      Probe.count (if hit then "service.cache_hits" else "service.cache_misses")
        (fun () -> 1);
      Probe.sample
        (if hit then "service.request_hit.ms" else "service.request_miss.ms")
        (float_of_int rs.Service.rs_wall_us /. 1000.0);
      fun () ->
        match rs.Service.rs_outcome with
        | Service.Failure msg -> Error (name ^ ": " ^ msg)
        | Service.Success out when out <> reference.(k) ->
          Error (name ^ ": response differs from a direct compile")
        | Service.Success _ ->
          ok_if (hit = expect_hit)
            (Printf.sprintf "%s: cache %s in the sweep's %s pass" name
               (if hit then "hit" else "miss")
               (if expect_hit then "second" else "first"))
    in
    (* The service's median cost of a cold compile: ops in the module at
       each pass entry, summed. *)
    let extras () =
      match !service with
      | None -> []
      | Some sv ->
        [ ("service.compile_cost_units",
           float_of_int
             (Option.value ~default:0
                (Sycl_obs.Metrics.percentile (Service.metrics sv)
                   "service.compile_cost_units" 50.0))) ]
    in
    { op; round = 2 * n; extras }
  in
  { name = "service-sweep"; setup }

(* ------------------------------------------------------------------ *)
(* sim-cache                                                           *)
(* ------------------------------------------------------------------ *)

(* Build, compile and run one drawn program under SYCL-MLIR with the
   4-way LRU cache model, on one simulator domain for the reason
   suite-subset gives. *)
let sim_cache =
  let setup ~root:_ ~seed =
    init_dialects ();
    (* Every builder's program must verify before it is timed. *)
    Array.iter (fun b -> verify ((b 8).Common.w_module ())) sim_builders;
    let draws = sim_draw ~seed in
    let op i =
      let b, n = draws.(i mod sim_round) in
      let w = sim_builders.(b) n in
      let m = build w in
      ignore (compile sycl_mlir m);
      let args, check_data = data w in
      let r =
        run_host ~sim_domains:1 ~cache_model:Cost.Set_associative m args
      in
      let valid = validate check_data in
      fun () ->
        let name = Printf.sprintf "%s(n=%d)" w.Common.w_name n in
        let unconserved =
          List.filter
            (fun (_, s) ->
              s.Cost.cache_hits + s.Cost.cache_misses <> s.Cost.global_transactions)
            r.Host_interp.per_kernel
        in
        if not valid then Error (name ^ ": output fails validation")
        else
          ok_if (unconserved = [])
            (name ^ ": cache hits + misses <> global transactions")
    in
    { op; round = sim_round; extras = (fun () -> []) }
  in
  { name = "sim-cache"; setup }

let all = [ suite_subset; compile_corpus; service_sweep; sim_cache ]

let find name = List.find_opt (fun w -> w.name = name) all

(** Every pass name the three configurations' pipelines run. *)
let pass_names () =
  List.concat_map
    (fun cfg -> Driver.host_pipeline cfg @ Driver.device_pipeline cfg)
    Common.default_configs
  |> List.map (fun p -> p.Pass.pass_name)
  |> List.sort_uniq compare
