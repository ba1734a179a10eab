(* Barrier-safety diagnostic tests, and agreement between the static check
   and the simulator's dynamic deadlock detection. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module BS = Sycl_core.Barrier_safety

let build_kernel ~divergent =
  Helpers.with_kernel ~dims:1 ~nd:true ~args:[] (fun b ~item ~args:_ ->
      if divergent then begin
        let lid = K.lid b item 0 in
        let zero = A.const_index b 0 in
        let c = A.cmpi b A.Eq lid zero in
        ignore
          (Dialects.Scf.if_ b c
             ~then_:(fun bb ->
               Dialects.Gpu.barrier bb;
               [])
             ())
      end
      else Dialects.Gpu.barrier b)

let tests_list =
  [
    Alcotest.test_case "uniform barrier passes" `Quick (fun () ->
        let m, _ = build_kernel ~divergent:false in
        Alcotest.(check int) "no diagnostics" 0 (List.length (BS.check m)));
    Alcotest.test_case "divergent barrier reported" `Quick (fun () ->
        let m, _ = build_kernel ~divergent:true in
        match BS.check m with
        | [ d ] ->
          Alcotest.(check string) "kernel named" "k" d.BS.bd_kernel;
          Alcotest.(check bool) "guards recorded" true (d.BS.bd_guards <> [])
        | other -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length other));
    Alcotest.test_case "barrier under a uniform guard passes" `Quick (fun () ->
        let m, _ =
          Helpers.with_kernel ~dims:1 ~nd:true ~args:[ K.Scal Types.Index ]
            (fun b ~item:_ ~args ->
              let n = List.hd args in
              let c = A.cmpi b A.Sgt n (A.const_index b 0) in
              ignore
                (Dialects.Scf.if_ b c
                   ~then_:(fun bb ->
                     Dialects.Gpu.barrier bb;
                     [])
                   ()))
        in
        Alcotest.(check int) "no diagnostics" 0 (List.length (BS.check m)));
    Alcotest.test_case "static check agrees with the simulator" `Quick (fun () ->
        let module Interp = Sycl_sim.Interp in
        List.iter
          (fun divergent ->
            let m, k = build_kernel ~divergent in
            let static_bad = BS.check m <> [] in
            let dynamic_bad =
              match
                Interp.launch ~config:Helpers.sim
                  ~module_op:m ~kernel:k ~args:[| Interp.Item |]
                  ~global:[ 32 ] ~wg_size:[ 32 ] ()
              with
              | _ -> false
              | exception Interp.Barrier_divergence -> true
            in
            Alcotest.(check bool)
              (Printf.sprintf "agreement (divergent=%b)" divergent)
              static_bad dynamic_bad)
          [ false; true ]);
    Alcotest.test_case "pass remarks each divergent barrier at its line" `Quick
      (fun () ->
        (* The kernel as parsed from text, so the remark carries the
           barrier's file:line:col. *)
        let remarks ~divergent =
          let built, _ = build_kernel ~divergent in
          let m = Parser.parse_module ~file:"k.mlir" (Printer.to_string built) in
          snd
            (Remarks.collect (fun () ->
                 Pass.run_pipeline ~verify_each:false [ BS.pass ] m))
        in
        Alcotest.(check int) "uniform kernel: no remark" 0
          (List.length (remarks ~divergent:false));
        match remarks ~divergent:true with
        | [ r ] ->
          Alcotest.(check string) "kernel named" "k" r.Remarks.r_func;
          Alcotest.(check string) "anchored at the barrier" "gpu.barrier"
            r.Remarks.r_op;
          Alcotest.(check string) "remark"
            "k.mlir:9:7: remark (analysis): k (gpu.barrier): group barrier \
             under divergent control flow \
             [-Rpass-analysis=barrier-safety:divergent-barrier]"
            (Remarks.to_string r)
        | rs -> Alcotest.failf "expected 1 remark, got %d" (List.length rs));
    Alcotest.test_case "internalization output is barrier-safe" `Quick (fun () ->
        let w = Sycl_workloads.Polybench.gemm ~n:16 in
        let m = w.Sycl_workloads.Common.w_module () in
        ignore
          (Sycl_core.Driver.compile
             (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir) m);
        Alcotest.(check int) "no divergent barriers" 0 (List.length (BS.check m)));
  ]

let tests = ("barrier-safety", tests_list)
