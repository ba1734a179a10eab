(* End-to-end workload tests: every benchmark in the suite must validate
   under all three compiler configurations (scaled-down sizes), and the
   optimizing pipeline must never change results — the central soundness
   property of the reproduction. *)

open Sycl_workloads
module Driver = Sycl_core.Driver

(* Small instances so `dune runtest` stays fast. *)
let small_workloads () =
  [
    Single_kernel.vec_add ~n:256;
    Single_kernel.scalar_prod ~n:256 ~block:16;
    Single_kernel.lin_reg_error ~n:128;
    Single_kernel.lin_reg_coeff ~n:256 ~block:16;
    Single_kernel.kmeans ~n:128 ~k:4;
    Single_kernel.mol_dyn ~n:64 ~neighbors:4;
    Single_kernel.nbody ~n:64;
    Single_kernel.sobel3 ~n:16;
    Single_kernel.sobel5 ~n:16;
    Single_kernel.sobel7 ~n:16;
    Polybench.gemm ~n:16;
    Polybench.two_mm ~n:16;
    Polybench.three_mm ~n:16;
    Polybench.syrk ~n:16;
    Polybench.syr2k ~n:16;
    Polybench.atax ~n:32;
    Polybench.bicg ~n:32;
    Polybench.mvt ~n:32;
    Polybench.gesummv ~n:32;
    Polybench.covariance ~n:16;
    Polybench.correlation ~n:16;
    Polybench.conv2d ~n:16;
    Polybench.conv3d ~n:8;
    Polybench.fdtd2d ~n:8 ~steps:3;
    Polybench.gramschmidt ~n:16;
    Stencil.heat_buffer ~n:40 ~steps:6;
    Stencil.heat_usm ~n:40 ~steps:6;
    Stencil.iso2dfd ~n:16 ~steps:4;
    Stencil.jacobi ~n:16 ~iters:3;
  ]

let config_of = function
  | "dpcpp" -> Driver.config ~verify_each:true Driver.Dpcpp
  | "sycl-mlir" -> Driver.config ~verify_each:true Driver.Sycl_mlir
  | "acpp" -> Driver.config ~verify_each:true Driver.Adaptive_cpp
  | _ -> assert false

let validate_case (w : Common.workload) mode =
  Alcotest.test_case (Printf.sprintf "%s [%s]" w.Common.w_name mode) `Quick
    (fun () ->
      match Common.measure ~sim:Helpers.sim (config_of mode) w with
      | m ->
        Alcotest.(check bool) "results validate" true m.Common.m_valid;
        Alcotest.(check bool) "simulation ran" true (m.Common.m_cycles > 0)
      | exception Common.Unsupported _ ->
        (* Modeled AdaptiveCpp validation failures are expected. *)
        if mode <> "acpp" then Alcotest.fail "unexpectedly unsupported")

let never_slower_case (w : Common.workload) =
  Alcotest.test_case (Printf.sprintf "%s sycl-mlir not absurdly slower" w.Common.w_name)
    `Quick (fun () ->
      let base = Common.measure ~sim:Helpers.sim (config_of "dpcpp") w in
      let opt = Common.measure ~sim:Helpers.sim (config_of "sycl-mlir") w in
      (* Versioning may add small overheads; anything beyond 25% points
         at a real regression in the pipeline. *)
      Alcotest.(check bool) "within 0.8x" true
        (Common.speedup base opt > 0.8))

let ablation_consistency =
  Alcotest.test_case "every ablation config still validates on gemm" `Quick
    (fun () ->
      let w = Polybench.gemm ~n:16 in
      List.iter
        (fun cfg ->
          let m = Common.measure ~sim:Helpers.sim cfg w in
          Alcotest.(check bool) "valid" true m.Common.m_valid)
        [
          Driver.config ~enable_internalization:false Driver.Sycl_mlir;
          Driver.config ~enable_reduction:false Driver.Sycl_mlir;
          Driver.config ~enable_licm:false Driver.Sycl_mlir;
          Driver.config ~enable_host_device:false Driver.Sycl_mlir;
        ])

let gramschmidt_divergence_rejected =
  Alcotest.test_case "gramschmidt candidate rejected as divergent" `Quick (fun () ->
      let w = Polybench.gramschmidt ~n:16 in
      let m = Common.measure ~sim:Helpers.sim (config_of "sycl-mlir") w in
      Alcotest.(check bool) "rejected-divergent stat" true
        (Mlir.Pass.Stats.get (Mlir.Pass.merged_stats m.Common.m_compile)
           "loop-internalization/internalization.rejected-divergent"
        >= 1);
      Alcotest.(check int) "nothing prefetched" 0
        (Mlir.Pass.Stats.get (Mlir.Pass.merged_stats m.Common.m_compile)
           "loop-internalization/internalization.prefetched"))

let paper_attribution_stats =
  Alcotest.test_case "paper-reported prefetch counts (gemm 2, syr2k 4)" `Quick
    (fun () ->
      let check_prefetch w expected =
        let m = Common.measure ~sim:Helpers.sim (config_of "sycl-mlir") w in
        Alcotest.(check int)
          (w.Common.w_name ^ " prefetched refs")
          expected
          (Mlir.Pass.Stats.get (Mlir.Pass.merged_stats m.Common.m_compile)
             "loop-internalization/internalization.prefetched")
      in
      check_prefetch (Polybench.gemm ~n:16) 2;
      check_prefetch (Polybench.syr2k ~n:16) 4)

let qcheck_gemm_equivalence =
  Helpers.qtest ~count:8 "gemm: random sizes keep all configs correct"
    QCheck2.Gen.(int_range 1 3)
    (fun i ->
      let n = 16 * i in
      let w = Polybench.gemm ~n in
      let base = Common.measure ~sim:Helpers.sim (config_of "dpcpp") w in
      let opt = Common.measure ~sim:Helpers.sim (config_of "sycl-mlir") w in
      base.Common.m_valid && opt.Common.m_valid)

(* A measurement is one run of the located module: AdaptiveCpp
   specializes each kernel once, so its no-alias facts are recorded
   once. *)
let acpp_specializes_once =
  Alcotest.test_case "acpp measurement specializes each kernel once" `Quick
    (fun () ->
      let m =
        Common.measure ~sim:Helpers.sim (Driver.config Driver.Adaptive_cpp)
          (Polybench.gemm ~n:16)
      in
      match Mlir.Core.lookup_func m.Common.m_module "gemm" with
      | None -> Alcotest.fail "no gemm kernel"
      | Some k ->
        Alcotest.(check (list (pair int int)))
          "each no-alias pair once" [ (2, 3); (1, 3); (1, 2) ]
          (Sycl_core.Alias.noalias_pairs k))

(* ... and every op of that module has a line, so the hottest row of
   the attribution is a line of the workload's IR dump. *)
let measurement_is_located =
  Alcotest.test_case "sycl-mlir measurement's hotspots are IR lines" `Quick
    (fun () ->
      let m =
        Common.measure ~sim:Helpers.sim (Driver.config Driver.Sycl_mlir)
          (Polybench.gemm ~n:16)
      in
      let module A = Sycl_sim.Attribution in
      match
        A.by_line
          (A.merge_launches
             m.Common.m_result.Sycl_runtime.Host_interp.per_kernel_attribution)
      with
      | top :: _ ->
        let prefix = "GEMM.sycl.mlir:" in
        let line = top.A.l_line in
        let n = String.length prefix in
        Alcotest.(check string) "file" prefix
          (String.sub line 0 (min n (String.length line)));
        Alcotest.(check bool)
          (line ^ " has a line number") true
          (int_of_string_opt (String.sub line n (String.length line - n))
          <> None)
      | [] -> Alcotest.fail "no attribution rows")

let tests =
  let ws = small_workloads () in
  ( "workloads-e2e",
    List.concat_map (fun w -> [ validate_case w "dpcpp"; validate_case w "sycl-mlir" ]) ws
    @ List.map (fun w -> validate_case w "acpp") ws
    @ List.map never_slower_case
        [ Polybench.gemm ~n:16; Single_kernel.vec_add ~n:256;
          Stencil.heat_buffer ~n:40 ~steps:6 ]
    @ [
        ablation_consistency; gramschmidt_divergence_rejected;
        paper_attribution_stats; qcheck_gemm_equivalence;
        acpp_specializes_once; measurement_is_located;
      ] )
