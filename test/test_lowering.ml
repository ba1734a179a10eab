(* Progressive-lowering tests: flattening accessors into DPC++'s four
   kernel arguments and lowering subscripts to explicit address
   arithmetic, with end-to-end execution through the lowered ABI. *)

open Mlir
open Sycl_workloads
module Driver = Sycl_core.Driver
module LS = Sycl_core.Lower_sycl

let lower m =
  let stats = Pass.Stats.create () in
  LS.pass.Pass.run m stats;
  stats

let tests_list =
  [
    Alcotest.test_case "vec_add lowers: flattened args, no sycl accessor ops"
      `Quick (fun () ->
        let w = Single_kernel.vec_add ~n:128 in
        let m = w.Common.w_module () in
        let _ = Pass.run_pipeline [ Sycl_core.Host_raising.pass ] m in
        let stats = lower m in
        Alcotest.(check int) "one kernel lowered" 1
          (Pass.Stats.get stats "lower-sycl.kernels");
        Helpers.check_verifies m;
        let k = Option.get (Core.lookup_func m "vec_add") in
        (* 3 accessors of dim 1 -> item + 3 * (1 + 3) = 13 args. *)
        Alcotest.(check int) "13 arguments" 13
          (List.length (Core.block_args (Core.func_body k)));
        Alcotest.(check int) "no subscripts left" 0
          (Helpers.count_ops k "sycl.accessor.subscript");
        Alcotest.(check bool) "expansion recorded" true
          (LS.expansion_of_kernel k = Some [ 1; 1; 1 ]));
    Alcotest.test_case "lowered vec_add executes correctly" `Quick (fun () ->
        let w = Single_kernel.vec_add ~n:128 in
        let m = w.Common.w_module () in
        let _ = Pass.run_pipeline ~verify_each:true [ Sycl_core.Host_raising.pass ] m in
        ignore (lower m);
        let args, validate = w.Common.w_data () in
        let r =
          Sycl_runtime.Host_interp.run ~sim_domains:Helpers.sim_domains
            ~module_op:m args
        in
        Alcotest.(check bool) "valid" true (validate ());
        ignore r);
    Alcotest.test_case "lowered gemm (post-optimization) executes correctly"
      `Quick (fun () ->
        (* The paper's order: optimize at the SYCL level first, then
           lower. The internalized, versioned gemm must survive. *)
        let w = Polybench.gemm ~n:16 in
        let m = w.Common.w_module () in
        ignore (Driver.compile (Driver.config ~verify_each:true Driver.Sycl_mlir) m);
        let stats = lower m in
        Alcotest.(check bool) "lowered or safely skipped" true
          (Pass.Stats.get stats "lower-sycl.kernels"
           + Pass.Stats.get stats "lower-sycl.skipped"
          = 1);
        Helpers.check_verifies m;
        let args, validate = w.Common.w_data () in
        ignore
          (Sycl_runtime.Host_interp.run ~sim_domains:Helpers.sim_domains
             ~module_op:m args);
        Alcotest.(check bool) "valid" true (validate ()));
    Alcotest.test_case "2-D accessor lowers to row-major address arithmetic"
      `Quick (fun () ->
        let module K = Sycl_frontend.Kernel in
        let module S = Sycl_core.Sycl_types in
        let module Interp = Sycl_sim.Interp in
        let module Memory = Sycl_sim.Memory in
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"t2d" ~dims:2
             ~args:[ K.Acc (2, S.Read, Types.f32); K.Acc (2, S.Write, Types.f32) ]
             (fun b ~item ~args ->
               match args with
               | [ a; c ] ->
                 let i = K.gid b item 0 and j = K.gid b item 1 in
                 K.acc_set b c [ i; j ] (K.acc_get b a [ j; i ])
               | _ -> assert false));
        ignore (lower m);
        Helpers.check_verifies m;
        let k = Option.get (Core.lookup_func m "t2d") in
        (* item + 2 * (1 + 6) = 15 args *)
        Alcotest.(check int) "15 arguments" 15
          (List.length (Core.block_args (Core.func_body k)));
        (* Execute the lowered kernel directly (transpose semantics). *)
        let n = 8 in
        let a = Memory.alloc ~size:(n * n) () in
        for i = 0 to Memory.size a - 1 do Memory.set_float a i (float_of_int i) done;
        let c = Memory.alloc ~size:(n * n) () in
        let flat alloc =
          Interp.Mem (Memory.full_view alloc)
          :: List.concat
               (List.init 3 (fun _ -> [ Interp.I n; Interp.I n ]))
          |> fun l ->
          (* range = [n;n], mem_range = [n;n], offset = [0;0] *)
          match l with
          | data :: _ ->
            [ data; Interp.I n; Interp.I n; Interp.I n; Interp.I n;
              Interp.I 0; Interp.I 0 ]
          | [] -> assert false
        in
        let args = Array.of_list ((Interp.Item :: flat a) @ flat c) in
        ignore
          (Interp.launch ~config:Helpers.sim
             ~module_op:m ~kernel:k ~args ~global:[ n; n ]
             ~wg_size:[ 4; 4 ] ());
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let got = Memory.get_float c ((i * n) + j) in
            if Float.abs (got -. float_of_int ((j * n) + i)) > 1e-6 then ok := false
          done
        done;
        Alcotest.(check bool) "transposed" true !ok);
    Alcotest.test_case "accessor member getters lower to the scalar args" `Quick
      (fun () ->
        let module K = Sycl_frontend.Kernel in
        let module S = Sycl_core.Sycl_types in
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"g" ~dims:1 ~args:[ K.Acc (1, S.Read, Types.f32) ]
             (fun b ~item:_ ~args ->
               let a = List.hd args in
               let dim = Dialects.Arith.const_int b ~ty:Types.i32 0 in
               ignore (Sycl_core.Sycl_ops.accessor_get_range b a dim)));
        ignore (lower m);
        let k = Option.get (Core.lookup_func m "g") in
        Alcotest.(check int) "no getters left" 0
          (Helpers.count_ops k "sycl.accessor.get_range");
        Helpers.check_verifies m);
    Alcotest.test_case "unsupported kernels are skipped, not broken" `Quick
      (fun () ->
        (* A kernel passing the accessor itself to accessor.distinct
           cannot be flattened. *)
        let module K = Sycl_frontend.Kernel in
        let module S = Sycl_core.Sycl_types in
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"d" ~dims:1
             ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Read, Types.f32) ]
             (fun b ~item:_ ~args ->
               match args with
               | [ a1; a2 ] ->
                 ignore
                   (Builder.op1 b "sycl.accessor.distinct" ~operands:[ a1; a2 ]
                      ~result_type:Types.i1)
               | _ -> assert false));
        let stats = lower m in
        Alcotest.(check int) "skipped" 1 (Pass.Stats.get stats "lower-sycl.skipped");
        Alcotest.(check bool) "kernel intact" true (Core.lookup_func m "d" <> None));
    Alcotest.test_case "launch overhead reflects the flattened argument count"
      `Quick (fun () ->
        let w = Single_kernel.vec_add ~n:128 in
        let run lowered =
          let m = w.Common.w_module () in
          let _ = Pass.run_pipeline [ Sycl_core.Host_raising.pass ] m in
          if lowered then ignore (lower m);
          let args, _ = w.Common.w_data () in
          (Sycl_runtime.Host_interp.run ~sim_domains:Helpers.sim_domains
             ~module_op:m args)
            .Sycl_runtime.Host_interp.launch_overhead_cycles
        in
        Alcotest.(check bool) "flattened ABI passes more words" true
          (run true > run false));
    Alcotest.test_case "full pipeline with lowering validates across workloads"
      `Quick (fun () ->
        let cfg =
          Driver.config ~enable_lowering:true ~verify_each:true Driver.Sycl_mlir
        in
        List.iter
          (fun (w : Common.workload) ->
            let m = Common.measure ~sim:Helpers.sim cfg w in
            Alcotest.(check bool) (w.Common.w_name ^ " valid") true
              m.Common.m_valid)
          [
            Single_kernel.vec_add ~n:128;
            Single_kernel.scalar_prod ~n:128 ~block:16;
            Polybench.gemm ~n:16;
            Polybench.syr2k ~n:16;
            Polybench.covariance ~n:16;
            Polybench.conv2d ~n:16;
            Stencil.iso2dfd ~n:16 ~steps:2;
          ]);
  ]

let tests = ("lower-sycl", tests_list)
