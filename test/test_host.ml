(* Host raising (Section VII-A) and host-device optimization
   (Section VII-B) tests. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module Host = Sycl_frontend.Host
module S = Sycl_core.Sycl_types
module HP = Sycl_core.Host_device_prop

(* A canonical two-accessor program, sizes constant or from an argument. *)
let program ~const_size m =
  ignore
    (K.define m ~name:"k" ~dims:1
       ~args:
         [ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32);
           K.Scal Types.f32 ]
       (fun b ~item ~args ->
         match args with
         | [ a; c; alpha ] ->
           let i = K.gid b item 0 in
           let n = K.grange b item 0 in
           let dim0 = A.const_int b ~ty:Types.i32 0 in
           let off = Sycl_core.Sycl_ops.accessor_get_offset b a dim0 in
           let j = K.addi b i off in
           let v = K.mulf b alpha (K.acc_get b a [ j ]) in
           let nf = A.sitofp b (A.index_cast b n Types.i64) Types.f32 in
           K.acc_set b c [ i ] (K.divf b v nf)
         | _ -> assert false));
  let size = if const_size then Host.Const 512 else Host.Arg 2 in
  ignore
    (Host.emit m
       {
         Host.host_args =
           [ Types.memref_dyn Types.f32; Types.memref_dyn Types.f32; Types.Index ];
         buffers =
           [
             { Host.buf_data_arg = 0; buf_dims = [ size ]; buf_element = Types.f32 };
             { Host.buf_data_arg = 1; buf_dims = [ size ]; buf_element = Types.f32 };
           ];
         globals = [];
         body =
           [
             Host.Submit
               {
                 Host.cg_kernel = "k";
                 cg_global = [ size ];
                 cg_local = None;
                 cg_captures =
                   [
                     Host.Capture_acc (0, S.Read); Host.Capture_acc (1, S.Write);
                     Host.Capture_scalar (Attr.Float 2.5);
                   ];
               };
           ];
       })

let raise_module m =
  Pass.run_pipeline ~verify_each:true
    [ Sycl_core.Host_raising.pass; Sycl_core.Canonicalize.pass; Sycl_core.Cse.pass ]
    m

let tests_list =
  [
    Alcotest.test_case "raising removes all runtime-ABI calls" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        program ~const_size:true m;
        Alcotest.(check bool) "llvm.calls present before" true
          (Helpers.count_ops m "llvm.call" > 0);
        ignore (raise_module m);
        Alcotest.(check int) "no llvm.calls left" 0 (Helpers.count_ops m "llvm.call");
        (* The paper's Listing 9 ops are all present. *)
        List.iter
          (fun (name, expected) ->
            Alcotest.(check int) name expected (Helpers.count_ops m name))
          [
            ("sycl.host.queue_ctor", 1); ("sycl.host.buffer_ctor", 2);
            ("sycl.host.submit", 1); ("sycl.host.accessor_ctor", 2);
            ("sycl.host.set_captured", 3); ("sycl.host.set_nd_range", 1);
            ("sycl.host.parallel_for", 1); ("sycl.host.buffer_dtor", 2);
            ("sycl.host.wait", 1);
          ]);
    Alcotest.test_case "raised accessor carries mode and buffer link" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        program ~const_size:true m;
        ignore (raise_module m);
        let ctors = Core.collect_named m "sycl.host.accessor_ctor" in
        let modes = List.filter_map Sycl_core.Sycl_host_ops.accessor_ctor_mode ctors in
        Alcotest.(check bool) "read + write modes" true
          (List.mem S.Read modes && List.mem S.Write modes);
        List.iter
          (fun ctor ->
            let buf = Sycl_core.Sycl_host_ops.accessor_ctor_buffer ctor in
            Alcotest.(check bool) "buffer-typed operand" true
              (match buf.Core.vty with S.Buffer _ -> true | _ -> false))
          ctors);
    Alcotest.test_case "launch sites discovered with captures and nd-range" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        program ~const_size:true m;
        ignore (raise_module m);
        match HP.launch_sites m with
        | [ site ] ->
          Alcotest.(check int) "three captures" 3 (List.length site.HP.ls_captures);
          Alcotest.(check int) "1-D global" 1 (List.length site.HP.ls_global);
          Alcotest.(check bool) "kernel resolved" true
            (Core.func_sym site.HP.ls_kernel = "k")
        | other -> Alcotest.failf "expected 1 site, got %d" (List.length other));
    Alcotest.test_case
      "constant ND-range and accessor members propagate into the kernel" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        program ~const_size:true m;
        ignore (raise_module m);
        let _ =
          Pass.run_pipeline ~verify_each:true
            [ HP.pass; Sycl_core.Canonicalize.pass; Sycl_core.Cse.pass;
              Sycl_core.Dce.pass; Sycl_core.Dead_arg_elim.pass ]
            m
        in
        let k = Option.get (Core.lookup_func m "k") in
        Alcotest.(check int) "no range getters left" 0
          (Helpers.count_ops k "sycl.item.get_range");
        Alcotest.(check int) "no offset getters left" 0
          (Helpers.count_ops k "sycl.accessor.get_offset");
        Alcotest.(check bool) "global size recorded" true
          (Core.attr k "sycl.global_size" = Some (Attr.Array [ Attr.Int 512 ]));
        Alcotest.(check bool) "wg size predicted" true
          (Core.attr k "sycl.wg_size" <> None);
        (* The constant scalar capture killed argument 3. *)
        Alcotest.(check bool) "alpha is dead" true
          (List.mem 3 (Sycl_core.Dead_arg_elim.dead_args k));
        (* Accessors over distinct buffers are provably disjoint. *)
        Alcotest.(check bool) "noalias pair recorded" true
          (Sycl_core.Alias.noalias_pairs k <> []));
    Alcotest.test_case "dynamic sizes: nothing folds but noalias still applies"
      `Quick (fun () ->
        let m = Helpers.fresh_module () in
        program ~const_size:false m;
        ignore (raise_module m);
        let _ =
          Pass.run_pipeline ~verify_each:true
            [ HP.pass; Sycl_core.Canonicalize.pass; Sycl_core.Dce.pass ]
            m
        in
        let k = Option.get (Core.lookup_func m "k") in
        Alcotest.(check bool) "range getter survives" true
          (Helpers.count_ops k "sycl.item.get_range" > 0);
        Alcotest.(check bool) "no global size attr" true
          (Core.attr k "sycl.global_size" = None);
        Alcotest.(check bool) "noalias pair still recorded" true
          (Sycl_core.Alias.noalias_pairs k <> []));
    Alcotest.test_case "constant global capture marks sycl.constant_args" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"k" ~dims:1 ~args:[ K.Ptr Types.f32 ]
             (fun b ~item ~args ->
               let p = List.hd args in
               let i = K.gid b item 0 in
               ignore (K.ptr_get b p i)));
        ignore
          (Host.emit m
             {
               Host.host_args = [ Types.Index ];
               buffers = [];
               globals = [ ("tbl", Attr.Dense_float [| 1.0; 2.0; 3.0 |]) ];
               body =
                 [
                   Host.Submit
                     {
                       Host.cg_kernel = "k";
                       cg_global = [ Host.Arg 0 ];
                       cg_local = None;
                       cg_captures = [ Host.Capture_global "tbl" ];
                     };
                 ];
             });
        ignore (raise_module m);
        let _ = Pass.run_pipeline ~verify_each:true [ HP.pass ] m in
        let k = Option.get (Core.lookup_func m "k") in
        Alcotest.(check bool) "constant arg recorded" true
          (Core.attr k "sycl.constant_args" = Some (Attr.Array [ Attr.Int 1 ])));
    Alcotest.test_case "failed raising leaves the call and counts it" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        (* An accessor_ctor with a non-constant mode cannot be raised. *)
        ignore
          (Dialects.Func.func m "main" ~args:[ Types.i64 ] ~results:[]
             (fun b vals ->
               let mode = List.hd vals in
               let q =
                 Dialects.Llvm.call1 b Sycl_core.Runtime_abi.queue_ctor
                   ~operands:[] ~result:Types.i64
               in
               let h =
                 Dialects.Llvm.call1 b Sycl_core.Runtime_abi.submit ~operands:[ q ]
                   ~result:Types.i64
               in
               let data =
                 Builder.op1 b "llvm.alloca" ~operands:[]
                   ~result_type:(Types.memref ~space:Types.Private [ Some 4 ] Types.f32)
               in
               let d = A.const_index b 4 in
               let buf =
                 Dialects.Llvm.call1 b Sycl_core.Runtime_abi.buffer_ctor
                   ~operands:[ data; d ] ~result:Types.i64
               in
               let ranged = A.const_int b 0 in
               ignore
                 (Dialects.Llvm.call1 b Sycl_core.Runtime_abi.accessor_ctor
                    ~operands:[ buf; h; mode; ranged ] ~result:Types.i64);
               Dialects.Func.return b []));
        let stats = Pass.Stats.create () in
        Sycl_core.Host_raising.pass.Pass.run m stats;
        Alcotest.(check int) "one failure" 1 (Pass.Stats.get stats "raising.failed");
        Alcotest.(check int) "the bad call survives" 1 (Helpers.count_ops m "llvm.call"));
    Alcotest.test_case "ranged accessor raising keeps range and offset operands"
      `Quick (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"k" ~dims:1 ~args:[ K.Acc (1, S.Read, Types.f32) ]
             (fun b ~item ~args ->
               let i = K.gid b item 0 in
               ignore (K.acc_get b (List.hd args) [ i ])));
        ignore
          (Host.emit m
             {
               Host.host_args = [ Types.memref_dyn Types.f32 ];
               buffers =
                 [ { Host.buf_data_arg = 0; buf_dims = [ Host.Const 64 ];
                     buf_element = Types.f32 } ];
               globals = [];
               body =
                 [
                   Host.Submit
                     {
                       Host.cg_kernel = "k";
                       cg_global = [ Host.Const 32 ];
                       cg_local = None;
                       cg_captures =
                         [ Host.Capture_acc_ranged
                             (0, S.Read, [ Host.Const 32 ], [ Host.Const 16 ]) ];
                     };
                 ];
             });
        ignore (raise_module m);
        let ctor = List.hd (Core.collect_named m "sycl.host.accessor_ctor") in
        Alcotest.(check bool) "marked ranged" true
          (Core.attr ctor "ranged" = Some (Attr.Bool true));
        Alcotest.(check int) "buffer, handler, range, offset" 4
          (Core.num_operands ctor));
  ]

let tests = ("host-raising-and-propagation", tests_list)
