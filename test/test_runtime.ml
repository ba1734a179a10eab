(* SYCL runtime tests: buffers, transfers, dependency tracking, launch
   cost accounting, USM, and the host interpreter. *)

open Mlir
module K = Sycl_frontend.Kernel
module Host = Sycl_frontend.Host
module S = Sycl_core.Sycl_types
module Objects = Sycl_runtime.Objects
module HI = Sycl_runtime.Host_interp
module Memory = Sycl_sim.Memory
module Cost = Sycl_sim.Cost
module Interp = Sycl_sim.Interp

let harg a = HI.Scalar (Interp.Mem (Memory.full_view a))
let iarg n = HI.Scalar (Interp.I n)

(* A two-buffer copy program: c = a (optionally twice via a temp). *)
let copy_program ?(via_temp = false) m =
  ignore
    (K.define m ~name:"copy" ~dims:1
       ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
       (fun b ~item ~args ->
         match args with
         | [ a; c ] ->
           let i = K.gid b item 0 in
           K.acc_set b c [ i ] (K.acc_get b a [ i ])
         | _ -> assert false));
  let buf i =
    { Host.buf_data_arg = i; buf_dims = [ Host.Arg 3 ]; buf_element = Types.f32 }
  in
  let submit from into =
    Host.Submit
      {
        Host.cg_kernel = "copy";
        cg_global = [ Host.Arg 3 ];
        cg_local = None;
        cg_captures =
          [ Host.Capture_acc (from, S.Read); Host.Capture_acc (into, S.Write) ];
      }
  in
  ignore
    (Host.emit m
       {
         Host.host_args =
           [ Types.memref_dyn Types.f32; Types.memref_dyn Types.f32;
             Types.memref_dyn Types.f32; Types.Index ];
         buffers = [ buf 0; buf 1; buf 2 ];
         globals = [];
         body =
           (if via_temp then [ submit 0 1; submit 1 2 ] else [ submit 0 2 ]);
       })

let run ?(via_temp = false) () =
  let m = Helpers.fresh_module () in
  copy_program ~via_temp m;
  let _ = Pass.run_pipeline ~verify_each:true [ Sycl_core.Host_raising.pass ] m in
  let n = 64 in
  let a = Memory.alloc ~label:"a" ~size:n () in
  for i = 0 to Memory.size a - 1 do Memory.set_float a i (float_of_int i) done;
  let t = Memory.alloc ~label:"t" ~size:n () in
  let c = Memory.alloc ~label:"c" ~size:n () in
  let result =
    HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
      [ harg a; harg t; harg c; iarg n ]
  in
  (result, c)

let tests_list =
  [
    Alcotest.test_case "buffer round trip: data reaches the device and back" `Quick
      (fun () ->
        let _result, c = run () in
        Array.iteri
          (fun i cell ->
            match cell with
            | Memory.F x -> Alcotest.(check (float 1e-6)) "copied" (float_of_int i) x
            | Memory.I _ -> Alcotest.fail "int cell")
          (Helpers.cells c));
    Alcotest.test_case "transfers charged for used buffers" `Quick (fun () ->
        let result, _ = run () in
        Alcotest.(check bool) "transfer cycles > 0" true
          (result.HI.transfer_cycles > 0));
    Alcotest.test_case "RAW dependency between command groups recorded" `Quick
      (fun () ->
        let result, c = run ~via_temp:true () in
        Alcotest.(check int) "two launches" 2 result.HI.kernel_launches;
        Alcotest.(check bool) "dependency edge present" true
          (result.HI.dependency_edges >= 1);
        (match Memory.get c 5 with
        | Memory.F x -> Alcotest.(check (float 1e-6)) "data flowed through temp" 5.0 x
        | _ -> Alcotest.fail "int cell"));
    Alcotest.test_case "dead arguments reduce the launch overhead" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        copy_program m;
        let _ = Pass.run_pipeline [ Sycl_core.Host_raising.pass ] m in
        let k = Option.get (Core.lookup_func m "copy") in
        let cost_with_all =
          let n = 16 in
          let a = Memory.alloc ~size:n () and t = Memory.alloc ~size:n ()
          and c = Memory.alloc ~size:n () in
          (HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
             [ harg a; harg t; harg c; iarg n ])
            .HI.launch_overhead_cycles
        in
        (* Mark one argument dead and relaunch. *)
        Core.set_attr k "sycl.dead_args" (Attr.Array [ Attr.Int 1 ]);
        let cost_with_dead =
          let n = 16 in
          let a = Memory.alloc ~size:n () and t = Memory.alloc ~size:n ()
          and c = Memory.alloc ~size:n () in
          (HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
             [ harg a; harg t; harg c; iarg n ])
            .HI.launch_overhead_cycles
        in
        Alcotest.(check bool) "cheaper launch" true (cost_with_dead < cost_with_all));
    Alcotest.test_case "scheduler dependencies follow the accessor model" `Quick
      (fun () ->
        (* Objects-level check of RAW/WAR/WAW edges. *)
        let host = Memory.alloc ~size:8 () in
        let b = Objects.make_buffer ~dims:[| 8 |] ~is_float:true host in
        let acc mode = Objects.Cap_accessor
            { Objects.acc_buffer = b; acc_mode = mode;
              acc_range = [| 8 |]; acc_offset = [| 0 |] } in
        (* cmd 1 writes; cmd 2 reads (RAW on 1); cmd 3 writes (WAW on 1,
           WAR on 2). *)
        let w = [ (1, acc S.Write) ] in
        Alcotest.(check (list int)) "no deps initially" [] (Objects.dependencies_of w);
        Objects.note_command w 1;
        let r = [ (1, acc S.Read) ] in
        Alcotest.(check (list int)) "RAW" [ 1 ] (Objects.dependencies_of r);
        Objects.note_command r 2;
        let w2 = [ (1, acc S.Write) ] in
        Alcotest.(check (list int)) "WAW + WAR" [ 1; 2 ] (Objects.dependencies_of w2));
    Alcotest.test_case "buffer device copy is lazy and cached" `Quick (fun () ->
        let host = Memory.alloc ~size:32 () in
        let b = Objects.make_buffer ~dims:[| 32 |] ~is_float:true host in
        let p = Cost.default in
        let _, cost1 = Objects.ensure_on_device p b in
        let _, cost2 = Objects.ensure_on_device p b in
        Alcotest.(check bool) "first transfer costs" true (cost1 > 0);
        Alcotest.(check int) "second is free" 0 cost2);
    Alcotest.test_case "sync_to_host only copies when dirty" `Quick (fun () ->
        let host = Memory.alloc ~size:32 () in
        let b = Objects.make_buffer ~dims:[| 32 |] ~is_float:true host in
        let p = Cost.default in
        let dev, _ = Objects.ensure_on_device p b in
        Memory.set_float dev 0 42.0;
        Alcotest.(check int) "clean: no copy" 0 (Objects.sync_to_host p b);
        b.Objects.b_device_dirty <- true;
        Alcotest.(check bool) "dirty: copy happens" true (Objects.sync_to_host p b > 0);
        (match Memory.get host 0 with
        | Memory.F x -> Alcotest.(check (float 1e-6)) "data arrived" 42.0 x
        | _ -> Alcotest.fail "int cell"));
    Alcotest.test_case "USM program: malloc/memcpy/kernel/free" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"inc" ~dims:1 ~args:[ K.Ptr Types.f32 ]
             (fun b ~item ~args ->
               let p = List.hd args in
               let i = K.gid b item 0 in
               K.ptr_set b p i (K.addf b (K.ptr_get b p i) (K.fconst b 1.0))));
        ignore
          (Host.emit m
             {
               Host.host_args = [ Types.memref_dyn Types.f32; Types.Index ];
               buffers = [];
               globals = [];
               body =
                 [
                   Host.Usm_alloc (0, Host.Arg 1, Types.f32);
                   Host.Memcpy_h2d (0, 0, Host.Arg 1);
                   Host.Submit
                     {
                       Host.cg_kernel = "inc";
                       cg_global = [ Host.Arg 1 ];
                       cg_local = None;
                       cg_captures = [ Host.Capture_usm 0 ];
                     };
                   Host.Memcpy_d2h (0, 0, Host.Arg 1);
                   Host.Usm_free 0;
                 ];
             });
        let _ = Pass.run_pipeline ~verify_each:true [ Sycl_core.Host_raising.pass ] m in
        let n = 32 in
        let data = Memory.alloc ~size:n () in
        for i = 0 to Memory.size data - 1 do
          Memory.set_float data i (float_of_int i)
        done;
        let result =
          HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
            [ harg data; iarg n ]
        in
        Alcotest.(check bool) "memcpys charged" true (result.HI.transfer_cycles > 0);
        Array.iteri
          (fun i cell ->
            match cell with
            | Memory.F x ->
              Alcotest.(check (float 1e-6)) "incremented" (float_of_int i +. 1.0) x
            | _ -> Alcotest.fail "int cell")
          (Helpers.cells data));
    Alcotest.test_case "host Repeat loop submits repeatedly" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (K.define m ~name:"inc" ~dims:1
             ~args:[ K.Acc (1, S.Read_write, Types.f32) ]
             (fun b ~item ~args ->
               let a = List.hd args in
               let i = K.gid b item 0 in
               K.acc_update b a [ i ] (fun v -> K.addf b v (K.fconst b 1.0))));
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
                   Host.Repeat
                     ( Host.Arg 2,
                       [
                         Host.Submit
                           {
                             Host.cg_kernel = "inc";
                             cg_global = [ Host.Arg 1 ];
                             cg_local = None;
                             cg_captures = [ Host.Capture_acc (0, S.Read_write) ];
                           };
                       ] );
                 ];
             });
        let _ = Pass.run_pipeline ~verify_each:true [ Sycl_core.Host_raising.pass ] m in
        let n = 16 in
        let data = Memory.alloc ~size:n () in
        let result =
          HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
            [ harg data; iarg n; iarg 5 ]
        in
        Alcotest.(check int) "five launches" 5 result.HI.kernel_launches;
        (match Memory.get data 3 with
        | Memory.F x -> Alcotest.(check (float 1e-6)) "incremented five times" 5.0 x
        | _ -> Alcotest.fail "int cell"));
    Alcotest.test_case "AdaptiveCpp launch hook fires once per kernel" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        copy_program ~via_temp:true m;
        let _ = Pass.run_pipeline [ Sycl_core.Host_raising.pass ] m in
        let calls = ref 0 in
        let hook _k (_ : HI.launch_info) = incr calls in
        let n = 16 in
        let a = Memory.alloc ~size:n () and t = Memory.alloc ~size:n ()
        and c = Memory.alloc ~size:n () in
        let result =
          HI.run ~sim_domains:Helpers.sim_domains
            ~launch_hook:hook ~jit_cycles:12345 ~module_op:m
            [ harg a; harg t; harg c; iarg n ]
        in
        (* Same kernel used twice: one JIT, two launches. *)
        Alcotest.(check int) "hook called once" 1 !calls;
        Alcotest.(check int) "jit charged once" 12345 result.HI.jit_cycles);
  ]

let tests = ("runtime", tests_list)
