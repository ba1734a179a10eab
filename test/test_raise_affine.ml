(* scf -> affine raising tests, and interoperability of the affine form
   with the SYCL passes and the simulator. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types

let raise_m m =
  let stats = Pass.Stats.create () in
  Sycl_core.Raise_affine.pass.Pass.run m stats;
  stats

let tests_list =
  [
    Alcotest.test_case "constant-bound scf.for raises to affine.for" `Quick
      (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.f32 ] (fun b vals ->
              let mem = List.hd vals in
              let zero = A.const_index b 0 in
              let ten = A.const_index b 10 in
              let one = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:ten ~step:one (fun bb iv _ ->
                     Dialects.Memref.store bb (A.const_float bb 1.0) mem [ iv ];
                     [])))
        in
        let stats = raise_m m in
        Helpers.check_verifies m;
        Alcotest.(check int) "raised" 1 (Pass.Stats.get stats "raise-affine.raised");
        Alcotest.(check int) "no scf.for left" 0 (Helpers.count_ops f "scf.for");
        let loop = List.hd (Core.collect_named f "affine.for") in
        Alcotest.(check bool) "constant bounds recovered" true
          (Dialects.Affine_ops.for_const_bounds loop = Some (0, 10)));
    Alcotest.test_case "dynamic ub raises with an identity map operand" `Quick
      (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.Index ] (fun b vals ->
              let n = List.hd vals in
              let zero = A.const_index b 0 in
              let one = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:n ~step:one (fun bb iv _ ->
                     ignore (A.addi bb iv iv);
                     [])))
        in
        ignore (raise_m m);
        Helpers.check_verifies m;
        let loop = List.hd (Core.collect_named f "affine.for") in
        Alcotest.(check int) "one ub operand" 1
          (List.length (Dialects.Affine_ops.for_ub_operands loop)));
    Alcotest.test_case "iter_args survive raising" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~results:[ Types.f32 ] (fun b _ ->
              let zero = A.const_index b 0 in
              let four = A.const_index b 4 in
              let one = A.const_index b 1 in
              let init = A.const_float b 1.0 in
              let loop =
                Dialects.Scf.for_ b ~lb:zero ~ub:four ~step:one ~iter_args:[ init ]
                  (fun bb _ args -> [ A.addf bb (List.hd args) (List.hd args) ])
              in
              Dialects.Func.return b [ Core.result loop 0 ])
        in
        ignore (raise_m m);
        Helpers.check_verifies m;
        let loop = List.hd (Core.collect_named f "affine.for") in
        Alcotest.(check int) "one iter arg" 1
          (List.length (Dialects.Affine_ops.for_iter_args loop));
        Alcotest.(check int) "one result" 1 (Core.num_results loop));
    Alcotest.test_case "raised gemm kernel still optimizes and validates" `Quick
      (fun () ->
        let w = Sycl_workloads.Polybench.gemm ~n:16 in
        let m = w.Sycl_workloads.Common.w_module () in
        (* Raise first (as Polygeist would produce), then the SYCL
           pipeline must handle the affine form. *)
        ignore (raise_m m);
        let c =
          Sycl_core.Driver.compile
            (Sycl_core.Driver.config ~verify_each:true Sycl_core.Driver.Sycl_mlir)
            m
        in
        let stats = Pass.merged_stats c.Sycl_core.Driver.pipeline_result in
        Alcotest.(check int) "reduction fires on affine form" 1
          (Pass.Stats.get stats "detect-reduction/reduction.rewritten");
        let args, validate = w.Sycl_workloads.Common.w_data () in
        ignore
          (Sycl_runtime.Host_interp.run ~sim_domains:Helpers.sim_domains
             ~module_op:m args);
        Alcotest.(check bool) "valid" true (validate ()));
    Alcotest.test_case "negative or dynamic steps are left as scf" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.Index ] (fun b vals ->
              let st = List.hd vals in
              let zero = A.const_index b 0 in
              let ten = A.const_index b 10 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:ten ~step:st (fun bb iv _ ->
                     ignore (A.addi bb iv iv);
                     [])))
        in
        let stats = raise_m m in
        Alcotest.(check int) "nothing raised" 0
          (Pass.Stats.get stats "raise-affine.raised");
        Alcotest.(check int) "scf.for kept" 1 (Helpers.count_ops f "scf.for"));
  ]

let tests = ("raise-affine", tests_list)
