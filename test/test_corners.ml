(* Corner-case coverage: f64 kernels, non-unit loop steps, dynamic memref
   dims in the interpreter, and parser error paths for SYCL types. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types
module Interp = Sycl_sim.Interp
module Memory = Sycl_sim.Memory

let tests_list =
  [
    Alcotest.test_case "f64 kernels execute" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"d64" ~dims:1 ~args:[ K.Acc (1, S.Read_write, Types.f64) ]
            (fun b ~item ~args ->
              let a = List.hd args in
              let i = K.gid b item 0 in
              K.acc_update b a [ i ] (fun v ->
                  Dialects.Arith.mulf b v
                    (Dialects.Arith.const_float b ~ty:Types.f64 2.0)))
        in
        let data = Memory.alloc ~size:8 () in
        for i = 0 to Memory.size data - 1 do
          Memory.set_float data i (float_of_int i)
        done;
        let desc =
          Interp.Acc
            { Interp.a_alloc = data; a_range = [| 8 |]; a_mem_range = [| 8 |];
              a_offset = [| 0 |]; a_is_float = true }
        in
        ignore
          (Interp.launch ~config:Helpers.sim
             ~module_op:m ~kernel:k ~args:[| Interp.Item; desc |]
             ~global:[ 8 ] ~wg_size:[ 8 ] ());
        Alcotest.(check (float 1e-9)) "doubled" 6.0
          (Memory.get_float data 3));
    Alcotest.test_case "non-unit loop steps interpret correctly" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"step3" ~dims:1 ~args:[ K.Acc (1, S.Read_write, Types.f32) ]
            (fun b ~item ~args ->
              let a = List.hd args in
              let i = K.gid b item 0 in
              let lb = K.idx b 0 and ub = K.idx b 10 and st = K.idx b 3 in
              K.for_range b ~lb ~ub ~step:st (fun bb _k ->
                  K.acc_update bb a [ i ] (fun v -> K.addf bb v (K.fconst bb 1.0))))
        in
        let data = Memory.alloc ~size:4 () in
        let desc =
          Interp.Acc
            { Interp.a_alloc = data; a_range = [| 4 |]; a_mem_range = [| 4 |];
              a_offset = [| 0 |]; a_is_float = true }
        in
        ignore
          (Interp.launch ~config:Helpers.sim
             ~module_op:m ~kernel:k ~args:[| Interp.Item; desc |]
             ~global:[ 4 ] ~wg_size:[ 4 ] ());
        (* iterations at 0,3,6,9 -> 4 increments *)
        Alcotest.(check (float 1e-6)) "four iterations" 4.0
          (Memory.get_float data 0));
    Alcotest.test_case "memref.dim reads view dims at runtime" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"dims" ~dims:1 ~args:[ K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let i = K.gid b item 0 in
              let t = Dialects.Memref.alloca b [ 5; 7 ] Types.f32 in
              let d1 = Dialects.Memref.dim b t 1 in
              K.acc_set b out [ i ]
                (A.sitofp b (A.index_cast b d1 Types.i64) Types.f32))
        in
        let data = Memory.alloc ~size:2 () in
        let desc =
          Interp.Acc
            { Interp.a_alloc = data; a_range = [| 2 |]; a_mem_range = [| 2 |];
              a_offset = [| 0 |]; a_is_float = true }
        in
        ignore
          (Interp.launch ~config:Helpers.sim
             ~module_op:m ~kernel:k ~args:[| Interp.Item; desc |]
             ~global:[ 2 ] ~wg_size:[ 2 ] ());
        Alcotest.(check (float 1e-6)) "dim 1 is 7" 7.0
          (Memory.get_float data 0));
    Alcotest.test_case "parser rejects malformed sycl types" `Quick (fun () ->
        List.iter
          (fun src ->
            match Parser.parse_string src with
            | _ -> Alcotest.failf "accepted %s" src
            | exception Parser.Parse_error _ -> ())
          [
            "f() ({ ^bb0(%a: !sycl.id): })";
            "f() ({ ^bb0(%a: !sycl.accessor<2>): })";
            "f() ({ ^bb0(%a: !sycl.accessor<2, f32, readonly>): })";
            "f() ({ ^bb0(%a: !sycl.nosuchtype<1>): })";
          ]);
    Alcotest.test_case "parser handles negative float attrs" `Quick (fun () ->
        let op =
          Parser.parse_string
            "%0 = arith.constant() {value = -3.0} : () -> (f32)"
        in
        Alcotest.(check bool) "is -3.0" true
          (Core.attr op "value" = Some (Attr.Float (-3.0)));
        (* Hex float literals (the old %h printing) must now be rejected
           rather than silently mis-lexed. *)
        match
          Parser.parse_string
            "%0 = arith.constant() {value = -0x1.8p+1} : () -> (f32)"
        with
        | _ -> Alcotest.fail "hex float literal was accepted"
        | exception Parser.Parse_error _ -> ());
    Alcotest.test_case "interpreter rejects unknown ops with a clear error" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"bad" ~dims:1 ~args:[] (fun b ~item:_ ~args:_ ->
              ignore (Builder.op b "mystery.op" ~operands:[] ~result_types:[]))
        in
        Alcotest.(check bool) "raises Sim_error" true
          (match
             Interp.launch ~config:Helpers.sim
               ~module_op:m ~kernel:k ~args:[| Interp.Item |]
               ~global:[ 1 ] ~wg_size:[ 1 ] ()
           with
          | _ -> false
          | exception Interp.Sim_error _ -> true));
    Alcotest.test_case "kernel argument count mismatch is detected" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"needs_args" ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32) ] (fun b ~item ~args ->
              let i = K.gid b item 0 in
              ignore (K.acc_get b (List.hd args) [ i ]))
        in
        Alcotest.(check bool) "raises Sim_error" true
          (match
             Interp.launch ~config:Helpers.sim
               ~module_op:m ~kernel:k ~args:[| Interp.Item |]
               ~global:[ 4 ] ~wg_size:[ 4 ] ()
           with
          | _ -> false
          | exception Interp.Sim_error _ -> true));
  ]

let tests = ("corners", tests_list)
