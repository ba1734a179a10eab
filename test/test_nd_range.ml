(* ND-range launches with explicit local sizes, hand-written cooperative
   kernels (the paper's Listing 7 written by hand), and their relation to
   the automatically internalized code. *)

open Sycl_workloads
module Driver = Sycl_core.Driver
open Mlir

let tests_list =
  [
    Alcotest.test_case "hand-tiled matmul validates under every config" `Quick
      (fun () ->
        let w = Extensions.tiled_matmul ~n:32 ~m_tile:8 in
        List.iter
          (fun mode ->
            let m =
              Common.measure ~sim:Helpers.sim
                (Driver.config ~verify_each:true mode) w
            in
            Alcotest.(check bool)
              (Driver.mode_to_string mode ^ " valid")
              true m.Common.m_valid)
          [ Driver.Dpcpp; Driver.Sycl_mlir; Driver.Adaptive_cpp ]);
    Alcotest.test_case "explicit local size is honored by the runtime" `Quick
      (fun () ->
        let w = Extensions.tiled_matmul ~n:32 ~m_tile:8 in
        let m =
          Common.measure ~sim:Helpers.sim (Driver.config Driver.Dpcpp) w
        in
        match m.Common.m_result.Sycl_runtime.Host_interp.per_kernel with
        | [ (_, stats) ] ->
          (* 32x32 global over 8x8 groups = 16 work-groups. *)
          Alcotest.(check int) "16 work-groups" 16 stats.Sycl_sim.Cost.work_groups;
          Alcotest.(check bool) "barriers executed" true
            (stats.Sycl_sim.Cost.barriers > 0);
          Alcotest.(check bool) "local traffic" true
            (stats.Sycl_sim.Cost.local_transactions > 0)
        | _ -> Alcotest.fail "expected one launch");
    Alcotest.test_case
      "hand-tiled matmul beats the naive DPC++ matmul (same sizes)" `Quick
      (fun () ->
        (* The simulator rewards manual tiling the same way it rewards the
           automatic transformation. *)
        let naive = Polybench.gemm ~n:32 in
        let tiled = Extensions.tiled_matmul ~n:32 ~m_tile:8 in
        let mn =
          Common.measure ~sim:Helpers.sim (Driver.config Driver.Dpcpp) naive
        in
        let mt =
          Common.measure ~sim:Helpers.sim (Driver.config Driver.Dpcpp) tiled
        in
        Alcotest.(check bool) "tiled cheaper on device" true
          (mt.Common.m_result.Sycl_runtime.Host_interp.device_cycles
          < mn.Common.m_result.Sycl_runtime.Host_interp.device_cycles));
    Alcotest.test_case
      "internalized naive gemm approaches the hand-tiled version" `Quick
      (fun () ->
        (* The whole point of Section VI-C: automatic internalization of
           the naive kernel should recover most of the hand-tiled
           performance. *)
        let naive = Polybench.gemm ~n:32 in
        let tiled = Extensions.tiled_matmul ~n:32 ~m_tile:8 in
        let base =
          Common.measure ~sim:Helpers.sim (Driver.config Driver.Dpcpp) naive
        in
        let auto =
          Common.measure ~sim:Helpers.sim (Driver.config Driver.Sycl_mlir) naive
        in
        let hand =
          Common.measure ~sim:Helpers.sim (Driver.config Driver.Dpcpp) tiled
        in
        let dev m = m.Common.m_result.Sycl_runtime.Host_interp.device_cycles in
        let a = dev auto and h = dev hand and b = dev base in
        Alcotest.(check bool)
          (Printf.sprintf "auto (%d) within 3x of hand-tiled (%d)" a h)
          true
          (float_of_int a < 3.0 *. float_of_int h);
        Alcotest.(check bool)
          (Printf.sprintf "auto (%d) well under naive (%d)" a b)
          true
          (2 * a < b));
    Alcotest.test_case "internalization leaves nd-range kernels with barriers alone"
      `Quick (fun () ->
        (* A kernel that already has barriers must not be re-tiled into a
           deadlock. *)
        let w = Extensions.tiled_matmul ~n:32 ~m_tile:8 in
        let m = w.Common.w_module () in
        let compiled = Driver.compile (Driver.config ~verify_each:true Driver.Sycl_mlir) m in
        let stats = Pass.merged_stats compiled.Driver.pipeline_result in
        ignore stats;
        let args, validate = w.Common.w_data () in
        let r =
          Sycl_runtime.Host_interp.run ~sim_domains:Helpers.sim_domains
            ~module_op:m args
        in
        ignore r;
        Alcotest.(check bool) "still correct" true (validate ()));
    Alcotest.test_case "3-D launch works end to end" `Quick (fun () ->
        let module K = Sycl_frontend.Kernel in
        let module S = Sycl_core.Sycl_types in
        let module Memory = Sycl_sim.Memory in
        let module Interp = Sycl_sim.Interp in
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"k3" ~dims:3 ~args:[ K.Acc (3, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let i = K.gid b item 0 and j = K.gid b item 1 and l = K.gid b item 2 in
              let enc =
                K.addi b (K.muli b (K.addi b (K.muli b i (K.idx b 8)) j) (K.idx b 8)) l
              in
              K.acc_set b out [ i; j; l ]
                (Dialects.Arith.sitofp b
                   (Dialects.Arith.index_cast b enc Types.i64) Types.f32))
        in
        let out = Memory.alloc ~size:(8 * 8 * 8) () in
        let desc =
          Interp.Acc
            { Interp.a_alloc = out; a_range = [| 8; 8; 8 |];
              a_mem_range = [| 8; 8; 8 |]; a_offset = [| 0; 0; 0 |];
              a_is_float = true }
        in
        let stats =
          Interp.launch ~config:Helpers.sim
            ~module_op:m ~kernel:k ~args:[| Interp.Item; desc |]
            ~global:[ 8; 8; 8 ] ~wg_size:[ 4; 4; 4 ] ()
        in
        Alcotest.(check int) "8 work-groups" 8 stats.Sycl_sim.Cost.work_groups;
        let ok = ref true in
        Array.iteri
          (fun idx x -> if Float.abs (x -. float_of_int idx) > 1e-3 then ok := false)
          (Helpers.floats out);
        Alcotest.(check bool) "linearization correct" true !ok);
  ]

let tests = ("nd-range", tests_list)
