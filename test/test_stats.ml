(* Pass statistics: every optimization pass reports a meaningful nonzero
   counter on an example where it fires — small purpose-built modules for
   the scalar passes, real workloads for the SYCL-specific ones. *)

open Mlir
module A = Dialects.Arith
module SC = Sycl_core
module Driver = Sycl_core.Driver
module W = Sycl_workloads

let run_pass pass m =
  let r = Pass.run_pipeline ~verify_each:true [ pass ] m in
  Pass.merged_stats r

let check_nonzero stats key =
  Alcotest.(check bool)
    (Printf.sprintf "%s > 0 (got %d)" key (Pass.Stats.get stats key))
    true
    (Pass.Stats.get stats key > 0)

let tests_list =
  [
    Alcotest.test_case "canonicalize: pattern and total counters" `Quick
      (fun () ->
        let m, _f =
          Helpers.with_func ~args:[ Types.i32 ] ~results:[ Types.i32 ]
            (fun b vals ->
              match vals with
              | [ x ] -> Dialects.Func.return b [ A.subi b x x ]
              | _ -> assert false)
        in
        let st = run_pass SC.Canonicalize.pass m in
        check_nonzero st "canonicalize/rewrites";
        check_nonzero st "canonicalize/canonicalize.pattern.self-cancel");
    Alcotest.test_case "cse: eliminated and candidate counters" `Quick
      (fun () ->
        let m, _f =
          Helpers.with_func ~args:[ Types.i32; Types.i32 ] (fun b vals ->
              match vals with
              | [ x; y ] ->
                ignore (A.addi b x y);
                ignore (A.addi b x y)
              | _ -> assert false)
        in
        let st = run_pass SC.Cse.pass m in
        check_nonzero st "cse/cse.eliminated";
        check_nonzero st "cse/cse.candidates");
    Alcotest.test_case "dce: erased counter" `Quick (fun () ->
        let m, _f =
          Helpers.with_func ~args:[ Types.i32 ] (fun b vals ->
              match vals with
              | [ x ] -> ignore (A.addi b x x)
              | _ -> assert false)
        in
        let st = run_pass SC.Dce.pass m in
        check_nonzero st "dce/dce.erased");
    Alcotest.test_case "store-forwarding: forwarded and scanned counters"
      `Quick (fun () ->
        let m, _f =
          Helpers.with_func (fun b _ ->
              let mem = Dialects.Memref.alloca b [ 1 ] Types.f32 in
              let zero = A.const_index b 0 in
              let c = A.const_float b 2.5 in
              Dialects.Memref.store b c mem [ zero ];
              ignore (Dialects.Memref.load b mem [ zero ]))
        in
        let st = run_pass SC.Store_forwarding.pass m in
        check_nonzero st "store-forwarding/store-forwarding.forwarded";
        check_nonzero st "store-forwarding/store-forwarding.loads-scanned");
    Alcotest.test_case "inline: inlined and dead-helper counters" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (Dialects.Func.func m "helper" ~args:[ Types.i32 ]
             ~results:[ Types.i32 ] (fun b vals ->
               match vals with
               | [ x ] -> Dialects.Func.return b [ A.addi b x x ]
               | _ -> assert false));
        ignore
          (Dialects.Func.func m "main" ~args:[ Types.i32 ]
             ~results:[ Types.i32 ] (fun b vals ->
               match vals with
               | [ x ] ->
                 let r =
                   Dialects.Func.call1 b "helper" ~operands:[ x ]
                     ~result:Types.i32
                 in
                 Dialects.Func.return b [ r ]
               | _ -> assert false));
        let st = run_pass SC.Inline.pass m in
        check_nonzero st "inline/inline.inlined";
        check_nonzero st "inline/inline.dead-functions-removed");
    Alcotest.test_case "loop-unroll: unrolled and rejection counters" `Quick
      (fun () ->
        let m, _f =
          Helpers.with_func ~args:[ Types.Index ] (fun b vals ->
              match vals with
              | [ n ] ->
                let lb = A.const_index b 0 in
                let ub = A.const_index b 4 in
                let step = A.const_index b 1 in
                ignore
                  (Dialects.Scf.for_ b ~lb ~ub ~step (fun bb iv _ ->
                       ignore (A.addi bb iv iv);
                       []));
                (* A second loop with a non-constant bound is rejected. *)
                ignore
                  (Dialects.Scf.for_ b ~lb ~ub:n ~step (fun bb iv _ ->
                       ignore (A.addi bb iv iv);
                       []))
              | _ -> assert false)
        in
        let st = run_pass SC.Loop_unroll.pass m in
        check_nonzero st "loop-unroll/unroll.unrolled";
        check_nonzero st "loop-unroll/unroll.rejected-non-constant");
    Alcotest.test_case "licm: hoisted-pure counter" `Quick (fun () ->
        let m, _f =
          Helpers.with_func ~args:[ Types.i32 ] (fun b vals ->
              match vals with
              | [ x ] ->
                let mem = Dialects.Memref.alloca b [ 1 ] Types.i32 in
                let zero = A.const_index b 0 in
                let lb = A.const_index b 0 in
                let ub = A.const_index b 8 in
                let step = A.const_index b 1 in
                ignore
                  (Dialects.Scf.for_ b ~lb ~ub ~step (fun bb _iv _ ->
                       let inv = A.addi bb x x in
                       Dialects.Memref.store bb inv mem [ zero ];
                       []))
              | _ -> assert false)
        in
        let st = run_pass SC.Licm.pass m in
        check_nonzero st "licm/licm.hoisted-pure");
    Alcotest.test_case
      "workload compile: reduction, internalization, host-device, dead-arg \
       counters"
      `Slow (fun () ->
        let measure name =
          match W.Suite.find name with
          | Some w ->
            W.Common.measure ~sim:Helpers.sim
              (Driver.config Driver.Sycl_mlir) w
          | None -> Alcotest.failf "workload %s not found" name
        in
        let lin = measure "LinearRegressionCoeff" in
        List.iter
          (check_nonzero (Mlir.Pass.merged_stats lin.W.Common.m_compile))
          [ "detect-reduction/reduction.rewritten";
            "licm/licm.hoisted-pure";
            "sycl-dead-argument-elimination/dead-args.marked";
            "host-device-propagation/hostdev.capture-const";
            "host-raising/raising.raised";
            "cse/cse.eliminated";
            "canonicalize/rewrites" ];
        let km = measure "KMeans" in
        List.iter
          (check_nonzero (Mlir.Pass.merged_stats km.W.Common.m_compile))
          [ "loop-internalization/internalization.prefetched";
            "host-device-propagation/hostdev.noalias-pair";
            "dce/dce.erased" ]);
    Alcotest.test_case "fusion compile: fusion and store-forwarding counters"
      `Quick (fun () ->
        let w = W.Extensions.elementwise_chain ~n:2048 in
        let m = w.W.Common.w_module () in
        let compiled =
          Driver.compile (Driver.config ~enable_fusion:true Driver.Sycl_mlir) m
        in
        let st = Pass.merged_stats compiled.Driver.pipeline_result in
        check_nonzero st "kernel-fusion/fusion.fused";
        check_nonzero st "store-forwarding/store-forwarding.forwarded");
  ]

let tests = ("pass-stats", tests_list)
