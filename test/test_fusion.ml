(* Kernel fusion tests (the Section VII compile-time fusion extension)
   plus store-forwarding. *)

open Mlir
module K = Sycl_frontend.Kernel
module Host = Sycl_frontend.Host
module S = Sycl_core.Sycl_types
module A = Dialects.Arith
module Memory = Sycl_sim.Memory
module HI = Sycl_runtime.Host_interp
module Interp = Sycl_sim.Interp
module W = Sycl_workloads

let harg a = HI.Scalar (Interp.Mem (Memory.full_view a))
let iarg n = HI.Scalar (Interp.I n)

(* Producer/consumer chain: t[i] = a[i] + b[i]; out[i] = 2 * t[i]. *)
let chain_program ?(second_reads_neighbour = false) m =
  ignore
    (K.define m ~name:"prod" ~dims:1
       ~args:
         [ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Read, Types.f32);
           K.Acc (1, S.Write, Types.f32) ]
       (fun b ~item ~args ->
         match args with
         | [ a; bb; t ] ->
           let i = K.gid b item 0 in
           K.acc_set b t [ i ] (K.addf b (K.acc_get b a [ i ]) (K.acc_get b bb [ i ]))
         | _ -> assert false));
  ignore
    (K.define m ~name:"cons" ~dims:1
       ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
       (fun b ~item ~args ->
         match args with
         | [ t; out ] ->
           let i = K.gid b item 0 in
           let j =
             if second_reads_neighbour then K.addi b i (K.idx b 1) else i
           in
           K.acc_set b out [ i ] (K.mulf b (K.fconst b 2.0) (K.acc_get b t [ j ]))
         | _ -> assert false));
  ignore
    (Host.emit m
       {
         Host.host_args =
           [ Types.memref_dyn Types.f32; Types.memref_dyn Types.f32;
             Types.memref_dyn Types.f32; Types.memref_dyn Types.f32; Types.Index ];
         buffers =
           List.init 4 (fun i ->
               { Host.buf_data_arg = i; buf_dims = [ Host.Arg 4 ];
                 buf_element = Types.f32 });
         globals = [];
         body =
           [
             Host.Submit
               { Host.cg_kernel = "prod"; cg_global = [ Host.Arg 4 ];
                 cg_local = None;
                 cg_captures =
                   [ Host.Capture_acc (0, S.Read); Host.Capture_acc (1, S.Read);
                     Host.Capture_acc (2, S.Write) ] };
             Host.Submit
               { Host.cg_kernel = "cons"; cg_global = [ Host.Arg 4 ];
                 cg_local = None;
                 cg_captures =
                   [ Host.Capture_acc (2, S.Read); Host.Capture_acc (3, S.Write) ] };
           ];
       })

let compile_fused ?(second_reads_neighbour = false) () =
  let m = Helpers.fresh_module () in
  chain_program ~second_reads_neighbour m;
  let stats = Pass.Stats.create () in
  let _ =
    Pass.run_pipeline ~verify_each:true
      [ Sycl_core.Host_raising.pass; Sycl_core.Canonicalize.pass; Sycl_core.Cse.pass ]
      m
  in
  Sycl_core.Kernel_fusion.pass.Pass.run m stats;
  (m, stats)

let run_program m n =
  let st = Random.State.make [| 5 |] in
  let mk () =
    let a = Memory.alloc ~size:n () in
    for i = 0 to Memory.size a - 1 do
      Memory.set_float a i (Random.State.float st 1.0)
    done;
    a
  in
  let a = mk () and b = mk () in
  let t = Memory.alloc ~size:n () and out = Memory.alloc ~size:n () in
  let result =
    HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
      [ harg a; harg b; harg t; harg out; iarg n ]
  in
  (result, a, b, out)

let tests_list =
  [
    Alcotest.test_case "element-wise chain fuses into one launch" `Quick (fun () ->
        let m, stats = compile_fused () in
        Alcotest.(check int) "one fusion" 1 (Pass.Stats.get stats "fusion.fused");
        Alcotest.(check int) "one parallel_for left" 1
          (Helpers.count_ops m "sycl.host.parallel_for");
        Helpers.check_verifies m;
        let result, a, b, out = run_program m 64 in
        Alcotest.(check int) "single launch" 1 result.HI.kernel_launches;
        Array.iteri
          (fun i x ->
            let expect = 2.0 *. (Memory.get_float a i +. Memory.get_float b i) in
            Alcotest.(check (float 1e-4)) "fused result" expect x)
          (Helpers.floats out));
    Alcotest.test_case "cross-work-item consumer refuses to fuse" `Quick (fun () ->
        let _m, stats = compile_fused ~second_reads_neighbour:true () in
        Alcotest.(check int) "no fusion" 0 (Pass.Stats.get stats "fusion.fused"));
    Alcotest.test_case "store-forwarding removes the intermediate reload" `Quick
      (fun () ->
        let m, _ = compile_fused () in
        let fused =
          List.find (fun f -> Sycl_core.Uniformity.is_kernel f) (Core.funcs m)
        in
        let _ =
          Pass.run_pipeline ~verify_each:true
            [ Sycl_core.Canonicalize.pass; Sycl_core.Cse.pass ]
            m
        in
        let loads_before = Helpers.count_ops fused "memref.load" in
        let stats = Pass.Stats.create () in
        Sycl_core.Store_forwarding.pass.Pass.run m stats;
        Alcotest.(check int) "one load forwarded" 1
          (Pass.Stats.get stats "store-forwarding.forwarded");
        Alcotest.(check int) "one fewer load" (loads_before - 1)
          (Helpers.count_ops fused "memref.load");
        Helpers.check_verifies m;
        (* Results still correct. *)
        let _, a, b, out = run_program m 32 in
        Array.iteri
          (fun i x ->
            let expect = 2.0 *. (Memory.get_float a i +. Memory.get_float b i) in
            Alcotest.(check (float 1e-4)) "forwarded result" expect x)
          (Helpers.floats out));
    Alcotest.test_case "store-forwarding blocked by intervening may-alias write"
      `Quick (fun () ->
        let _m, f =
          Helpers.with_kernel ~dims:1
            ~args:[ K.Acc (1, S.Read_write, Types.f32); K.Acc (1, S.Read_write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ x; y ] ->
                let i = K.gid b item 0 in
                K.acc_set b x [ i ] (K.fconst b 1.0);
                (* y may alias x: this store may clobber x[i]. *)
                K.acc_set b y [ i ] (K.fconst b 2.0);
                let v = K.acc_get b x [ i ] in
                K.acc_set b x [ i ] (K.addf b v v)
              | _ -> assert false)
        in
        let stats = Pass.Stats.create () in
        Sycl_core.Store_forwarding.run_on_func f stats;
        Alcotest.(check int) "nothing forwarded" 0
          (Pass.Stats.get stats "store-forwarding.forwarded"));
    Alcotest.test_case "fusion saves launch overhead end to end" `Quick (fun () ->
        (* Same program, with and without fusion, through the driver. *)
        let measure enable_fusion =
          let m = Helpers.fresh_module () in
          chain_program m;
          let cfg =
            Sycl_core.Driver.config ~enable_fusion ~verify_each:true
              Sycl_core.Driver.Sycl_mlir
          in
          let _ = Sycl_core.Driver.compile cfg m in
          let result, _, _, out = run_program m 64 in
          (result, Memory.get_float out 5)
        in
        let unfused, v1 = measure false in
        let fused, v2 = measure true in
        Alcotest.(check (float 1e-4)) "same results" v1 v2;
        Alcotest.(check int) "two launches unfused" 2 unfused.HI.kernel_launches;
        Alcotest.(check int) "one launch fused" 1 fused.HI.kernel_launches;
        Alcotest.(check bool) "cheaper total" true
          (fused.HI.total_cycles < unfused.HI.total_cycles));
    Alcotest.test_case "fusion applies inside host Repeat loops" `Quick (fun () ->
        (* A ping-pong pair submitted in a host loop: each iteration's two
           element-wise kernels fuse (the fused kernel is reused across
           iterations). *)
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"scale" ~dims:1
             ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
             (fun b ~item ~args ->
               match args with
               | [ src; dst ] ->
                 let i = K.gid b item 0 in
                 K.acc_set b dst [ i ]
                   (K.mulf b (K.fconst b 0.5) (K.acc_get b src [ i ]))
               | _ -> assert false));
        ignore
          (K.define m ~name:"shift" ~dims:1
             ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
             (fun b ~item ~args ->
               match args with
               | [ src; dst ] ->
                 let i = K.gid b item 0 in
                 K.acc_set b dst [ i ] (K.addf b (K.fconst b 1.0) (K.acc_get b src [ i ]))
               | _ -> assert false));
        ignore
          (Host.emit m
             {
               Host.host_args =
                 [ Types.memref_dyn Types.f32; Types.memref_dyn Types.f32;
                   Types.memref_dyn Types.f32; Types.Index; Types.Index ];
               buffers =
                 List.init 3 (fun i ->
                     { Host.buf_data_arg = i; buf_dims = [ Host.Arg 3 ];
                       buf_element = Types.f32 });
               globals = [];
               body =
                 [
                   Host.Repeat
                     ( Host.Arg 4,
                       [
                         Host.Submit
                           { Host.cg_kernel = "scale"; cg_global = [ Host.Arg 3 ];
                             cg_local = None;
                             cg_captures =
                               [ Host.Capture_acc (0, S.Read); Host.Capture_acc (1, S.Write) ] };
                         Host.Submit
                           { Host.cg_kernel = "shift"; cg_global = [ Host.Arg 3 ];
                             cg_local = None;
                             cg_captures =
                               [ Host.Capture_acc (1, S.Read); Host.Capture_acc (2, S.Write) ] };
                       ] );
                 ];
             });
        let _ = Pass.run_pipeline ~verify_each:true [ Sycl_core.Host_raising.pass ] m in
        let stats = Pass.Stats.create () in
        Sycl_core.Kernel_fusion.pass.Pass.run m stats;
        Alcotest.(check int) "fused once" 1 (Pass.Stats.get stats "fusion.fused");
        Helpers.check_verifies m;
        (* Execute: 2 host iterations -> 2 launches of the fused kernel. *)
        let n = 32 in
        let a = Memory.alloc ~size:n () in
        for i = 0 to Memory.size a - 1 do Memory.set_float a i 4.0 done;
        let t = Memory.alloc ~size:n () and out = Memory.alloc ~size:n () in
        let r =
          HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
            [ harg a; harg t; harg out; iarg n; iarg 2 ]
        in
        Alcotest.(check int) "two fused launches" 2 r.HI.kernel_launches;
        Alcotest.(check (float 1e-5)) "0.5*4 + 1" 3.0
          (Memory.get_float out 7));
    Alcotest.test_case "store-forwarding works inside loop bodies" `Quick
      (fun () ->
        let _m, f =
          Helpers.with_kernel ~dims:1
            ~args:[ K.Acc (1, S.Read_write, Types.f32) ]
            (fun b ~item ~args ->
              let acc = List.hd args in
              let i = K.gid b item 0 in
              let view = K.acc_view b acc [ i ] in
              let zero = K.idx b 0 in
              K.for_up b (K.idx b 4) (fun bb _k ->
                  Dialects.Memref.store bb (K.fconst bb 2.0) view [ zero ];
                  let v = Dialects.Memref.load bb view [ zero ] in
                  Dialects.Memref.store bb (K.addf bb v v) view [ zero ]))
        in
        let stats = Pass.Stats.create () in
        Sycl_core.Store_forwarding.run_on_func f stats;
        Alcotest.(check int) "forwarded in the loop body" 1
          (Pass.Stats.get stats "store-forwarding.forwarded"));
    Alcotest.test_case "different nd-ranges refuse to fuse" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"k1" ~dims:1 ~args:[ K.Acc (1, S.Write, Types.f32) ]
             (fun b ~item ~args ->
               let i = K.gid b item 0 in
               K.acc_set b (List.hd args) [ i ] (K.fconst b 1.0)));
        ignore
          (K.define m ~name:"k2" ~dims:1 ~args:[ K.Acc (1, S.Write, Types.f32) ]
             (fun b ~item ~args ->
               let i = K.gid b item 0 in
               K.acc_set b (List.hd args) [ i ] (K.fconst b 2.0)));
        ignore
          (Host.emit m
             {
               Host.host_args = [ Types.memref_dyn Types.f32; Types.Index; Types.Index ];
               buffers =
                 [ { Host.buf_data_arg = 0; buf_dims = [ Host.Arg 1 ];
                     buf_element = Types.f32 } ];
               globals = [];
               body =
                 [
                   Host.Submit
                     { Host.cg_kernel = "k1"; cg_global = [ Host.Arg 1 ];
                       cg_local = None;
                       cg_captures = [ Host.Capture_acc (0, S.Write) ] };
                   Host.Submit
                     { Host.cg_kernel = "k2"; cg_global = [ Host.Arg 2 ];
                       cg_local = None;
                       cg_captures = [ Host.Capture_acc (0, S.Write) ] };
                 ];
             });
        let _ = Pass.run_pipeline [ Sycl_core.Host_raising.pass ] m in
        let stats = Pass.Stats.create () in
        Sycl_core.Kernel_fusion.pass.Pass.run m stats;
        Alcotest.(check int) "no fusion" 0 (Pass.Stats.get stats "fusion.fused"));
    Alcotest.test_case "fused names depend only on the module" `Quick (fun () ->
        (* The fusion counter used to be process-global, so a second
           compile of the same module named its kernels _fused3 and
           _fused4 instead of _fused1 and _fused2. *)
        let compile () =
          let m = (W.Extensions.elementwise_chain ~n:64).W.Common.w_module () in
          ignore
            (Sycl_core.Driver.compile
               (Sycl_core.Driver.config ~enable_fusion:true
                  Sycl_core.Driver.Sycl_mlir)
               m);
          m
        in
        let first = compile () in
        Alcotest.(check string) "second compile" (Printer.to_string first)
          (Printer.to_string (compile ()));
        Alcotest.(check (list string)) "the kernel of the first compile"
          [ "chain_add_chain_sq_fused1_chain_sub_fused2" ]
          (List.map Core.func_sym
             (List.filter Sycl_core.Uniformity.is_kernel (Core.funcs first))));
    Alcotest.test_case "a fused name skips a symbol the module defines" `Quick
      (fun () ->
        let m = (W.Extensions.elementwise_chain ~n:64).W.Common.w_module () in
        ignore
          (Dialects.Func.func m "chain_add_chain_sq_fused1" ~args:[] ~results:[]
             (fun b _ -> Dialects.Func.return b []));
        ignore
          (Pass.run_pipeline
             [ Sycl_core.Host_raising.pass; Sycl_core.Kernel_fusion.pass ] m);
        let syms = List.map Core.func_sym (Core.funcs m) in
        Alcotest.(check int) "symbols stay distinct"
          (List.length syms) (List.length (List.sort_uniq compare syms));
        Alcotest.(check bool) "the fused kernel took the next number" true
          (List.mem "chain_add_chain_sq_fused2_chain_sub_fused3" syms));
  ]

let tests = ("kernel-fusion", tests_list)
