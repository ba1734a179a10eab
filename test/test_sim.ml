(* Device-simulator tests: interpretation semantics, barrier scheduling,
   divergent-barrier deadlock detection, and the coalescing cost model. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types
module Interp = Sycl_sim.Interp
module Memory = Sycl_sim.Memory
module Cost = Sycl_sim.Cost

let acc_desc ?(range = [| 16 |]) alloc =
  Interp.Acc
    {
      Interp.a_alloc = alloc;
      a_range = range;
      a_mem_range = range;
      a_offset = Array.map (fun _ -> 0) range;
      a_is_float = true;
    }

let launch ?(wg = [ 16 ]) ?(global = [ 16 ]) m k args =
  Interp.launch ~config:Helpers.sim ~module_op:m ~kernel:k ~args ~global
    ~wg_size:wg ()

let floats alloc =
  Array.init (Memory.size alloc) (Memory.get_float alloc)

let tests_list =
  [
    Alcotest.test_case "elementwise kernel computes correctly" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"twice" ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ a; c ] ->
                let i = K.gid b item 0 in
                K.acc_set b c [ i ] (K.mulf b (K.fconst b 2.0) (K.acc_get b a [ i ]))
              | _ -> assert false)
        in
        let a = Memory.alloc ~label:"a" ~size:16 () in
        let c = Memory.alloc ~label:"c" ~size:16 () in
        for i = 0 to Memory.size a - 1 do Memory.set_float a i (float_of_int i) done;
        ignore (launch m k [| Interp.Item; acc_desc a; acc_desc c |]);
        Array.iteri
          (fun i x -> Alcotest.(check (float 1e-6)) "c[i]" (2.0 *. float_of_int i) x)
          (floats c));
    Alcotest.test_case "loops, ifs and iter_args interpret correctly" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"sum_odd" ~dims:1
            ~args:[ K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let i = K.gid b item 0 in
              let zero = A.const_index b 0 in
              let one = A.const_index b 1 in
              let two = A.const_index b 2 in
              let ten = A.const_index b 10 in
              (* sum of odd j in [0, 10) = 25 *)
              let loop =
                Dialects.Scf.for_ b ~lb:zero ~ub:ten ~step:one
                  ~iter_args:[ K.fconst b 0.0 ]
                  (fun bb j acc ->
                    let r = A.remsi bb j two in
                    let is_odd = A.cmpi bb A.Eq r one in
                    let if_op =
                      Dialects.Scf.if_ bb is_odd ~result_types:[ Types.f32 ]
                        ~then_:(fun b2 ->
                          [ K.addf b2 (List.hd acc)
                              (A.sitofp b2 (A.index_cast b2 j Types.i64) Types.f32) ])
                        ~else_:(fun _ -> [ List.hd acc ])
                        ()
                    in
                    [ Core.result if_op 0 ])
              in
              K.acc_set b out [ i ] (Core.result loop 0))
        in
        let c = Memory.alloc ~label:"c" ~size:16 () in
        ignore (launch m k [| Interp.Item; acc_desc c |]);
        Array.iter (fun x -> Alcotest.(check (float 1e-6)) "sum" 25.0 x) (floats c));
    Alcotest.test_case "device function calls work" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (Dialects.Func.func m "square" ~args:[ Types.f32 ] ~results:[ Types.f32 ]
             (fun b vals ->
               let x = List.hd vals in
               Dialects.Func.return b [ K.mulf b x x ]));
        let k =
          Sycl_frontend.Kernel.define m ~name:"k" ~dims:1
            ~args:[ K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let i = K.gid b item 0 in
              let x = A.sitofp b (A.index_cast b i Types.i64) Types.f32 in
              let r = Dialects.Func.call1 b "square" ~operands:[ x ] ~result:Types.f32 in
              K.acc_set b out [ i ] r)
        in
        let c = Memory.alloc ~label:"c" ~size:16 () in
        ignore (launch m k [| Interp.Item; acc_desc c |]);
        Array.iteri
          (fun i x ->
            Alcotest.(check (float 1e-6)) "i*i" (float_of_int (i * i)) x)
          (floats c));
    Alcotest.test_case "barrier synchronizes cooperative local-memory use" `Quick
      (fun () ->
        (* Each work-item writes tile[lid], barrier, then reads its
           neighbour's slot (reversal): without correct phase scheduling
           work-item 0 would read an unwritten slot. *)
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"rev" ~dims:1 ~nd:true
            ~args:[ K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let lid = K.lid b item 0 in
              let gid = K.gid b item 0 in
              let tile = Dialects.Gpu.alloc_local b [ 16 ] Types.f32 in
              let v = A.sitofp b (A.index_cast b lid Types.i64) Types.f32 in
              Dialects.Memref.store b v tile [ lid ];
              Dialects.Gpu.barrier b;
              let fifteen = A.const_index b 15 in
              let mirror = A.subi b fifteen lid in
              K.acc_set b out [ gid ] (Dialects.Memref.load b tile [ mirror ]))
        in
        let c = Memory.alloc ~label:"c" ~size:16 () in
        let stats = launch m k [| Interp.Item; acc_desc c |] in
        Array.iteri
          (fun i x ->
            Alcotest.(check (float 1e-6)) "mirror" (float_of_int (15 - i)) x)
          (floats c);
        Alcotest.(check int) "one barrier round" 1 stats.Cost.barriers);
    Alcotest.test_case "divergent barrier deadlocks (detected)" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"bad" ~dims:1 ~nd:true ~args:[]
            (fun b ~item ~args:_ ->
              let lid = K.lid b item 0 in
              let zero = A.const_index b 0 in
              let c = A.cmpi b A.Eq lid zero in
              ignore
                (Dialects.Scf.if_ b c
                   ~then_:(fun bb ->
                     Dialects.Gpu.barrier bb;
                     [])
                   ()))
        in
        Alcotest.(check bool) "raises Barrier_divergence" true
          (match launch m k [| Interp.Item |] with
          | _ -> false
          | exception Interp.Barrier_divergence -> true));
    Alcotest.test_case "coalesced loads cost one transaction per sub-group" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"coal" ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ a; c ] ->
                let i = K.gid b item 0 in
                K.acc_set b c [ i ] (K.acc_get b a [ i ])
              | _ -> assert false)
        in
        let a = Memory.alloc ~label:"a" ~size:64 () in
        let c = Memory.alloc ~label:"c" ~size:64 () in
        let stats =
          launch ~global:[ 64 ] ~wg:[ 64 ] m k
            [| Interp.Item; acc_desc ~range:[| 64 |] a; acc_desc ~range:[| 64 |] c |]
        in
        (* 64 items / 16-wide sub-groups = 4 sub-groups; each does one
           load line + one store line. *)
        Alcotest.(check int) "8 transactions" 8 stats.Cost.global_transactions);
    Alcotest.test_case "strided loads cost one transaction per work-item" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"strided" ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ a; c ] ->
                let i = K.gid b item 0 in
                let stride = A.const_index b 16 in
                K.acc_set b c [ i ] (K.acc_get b a [ A.muli b i stride ])
              | _ -> assert false)
        in
        let a = Memory.alloc ~label:"a" ~size:1024 () in
        let c = Memory.alloc ~label:"c" ~size:64 () in
        let stats =
          launch ~global:[ 64 ] ~wg:[ 64 ] m k
            [| Interp.Item; acc_desc ~range:[| 1024 |] a; acc_desc ~range:[| 64 |] c |]
        in
        (* Loads: 64 distinct lines; stores: 4 lines. *)
        Alcotest.(check int) "68 transactions" 68 stats.Cost.global_transactions);
    Alcotest.test_case "private allocas cost no memory transactions" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"priv" ~dims:1 ~args:[]
            (fun b ~item ~args:_ ->
              let _i = K.gid b item 0 in
              let p = Dialects.Memref.alloca b [ 4 ] Types.f32 in
              Dialects.Memref.store b (K.fconst b 1.0) p [ A.const_index b 0 ];
              ignore (Dialects.Memref.load b p [ A.const_index b 0 ]))
        in
        let stats = launch m k [| Interp.Item |] in
        Alcotest.(check int) "no global transactions" 0 stats.Cost.global_transactions;
        Alcotest.(check int) "no local transactions" 0 stats.Cost.local_transactions);
    Alcotest.test_case "constant-cached data uses the constant class" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"constk" ~dims:1
            ~args:[ K.Ptr Types.f32; K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ p; c ] ->
                let i = K.gid b item 0 in
                K.acc_set b c [ i ] (K.ptr_get b p (A.const_index b 0))
              | _ -> assert false)
        in
        let tbl = Memory.alloc ~label:"tbl" ~size:4 () in
        tbl.Memory.constant_cached <- true;
        let c = Memory.alloc ~label:"c" ~size:16 () in
        let stats =
          launch m k [| Interp.Item; Interp.Mem (Memory.full_view tbl); acc_desc c |]
        in
        Alcotest.(check bool) "constant transactions recorded" true
          (stats.Cost.const_transactions > 0));
    Alcotest.test_case "ranged accessor offsets shift addressing" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"ranged" ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ a; c ] ->
                let i = K.gid b item 0 in
                K.acc_set b c [ i ] (K.acc_get b a [ i ])
              | _ -> assert false)
        in
        let a = Memory.alloc ~label:"a" ~size:32 () in
        for i = 0 to Memory.size a - 1 do Memory.set_float a i (float_of_int i) done;
        let c = Memory.alloc ~label:"c" ~size:8 () in
        let ranged =
          Interp.Acc
            {
              Interp.a_alloc = a;
              a_range = [| 8 |];
              a_mem_range = [| 32 |];
              a_offset = [| 16 |];
              a_is_float = true;
            }
        in
        ignore
          (launch ~global:[ 8 ] ~wg:[ 8 ] m k
             [| Interp.Item; ranged; acc_desc ~range:[| 8 |] c |]);
        Array.iteri
          (fun i x -> Alcotest.(check (float 1e-6)) "offset applied" (float_of_int (16 + i)) x)
          (floats c));
    Alcotest.test_case "out-of-bounds access raises" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"oob" ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32) ]
            (fun b ~item ~args ->
              let a = List.hd args in
              let i = K.gid b item 0 in
              let big = A.const_index b 1000 in
              ignore (K.acc_get b a [ A.addi b i big ]))
        in
        let a = Memory.alloc ~label:"a" ~size:16 () in
        Alcotest.(check bool) "raises Out_of_bounds" true
          (match launch m k [| Interp.Item; acc_desc a |] with
          | _ -> false
          | exception Memory.Out_of_bounds _ -> true));
    Alcotest.test_case "mismatched global/wg sizes rejected" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"k" ~dims:1 ~args:[]
            (fun _b ~item:_ ~args:_ -> ())
        in
        Alcotest.(check bool) "raises Sim_error" true
          (match launch ~global:[ 10 ] ~wg:[ 4 ] m k [| Interp.Item |] with
          | _ -> false
          | exception Interp.Sim_error _ -> true));
    Alcotest.test_case "2-D launch covers the whole grid exactly once" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"grid" ~dims:2
            ~args:[ K.Acc (2, S.Read_write, Types.f32) ]
            (fun b ~item ~args ->
              let c = List.hd args in
              let i = K.gid b item 0 and j = K.gid b item 1 in
              K.acc_update b c [ i; j ] (fun v -> K.addf b v (K.fconst b 1.0)))
        in
        let c = Memory.alloc ~label:"c" ~size:(8 * 8) () in
        let stats =
          launch ~global:[ 8; 8 ] ~wg:[ 4; 4 ] m k
            [| Interp.Item; acc_desc ~range:[| 8; 8 |] c |]
        in
        Alcotest.(check int) "4 work-groups" 4 stats.Cost.work_groups;
        Alcotest.(check int) "64 work-items" 64 stats.Cost.work_items;
        Array.iter (fun x -> Alcotest.(check (float 1e-6)) "each once" 1.0 x) (floats c));
    Alcotest.test_case "a decoded kernel is reusable across launches" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"bump" ~dims:1
            ~args:[ K.Acc (1, S.Read_write, Types.f32) ]
            (fun b ~item ~args ->
              let c = List.hd args in
              let i = K.gid b item 0 in
              K.acc_update b c [ i ] (fun v -> K.addf b v (K.fconst b 1.0)))
        in
        let c = Memory.alloc ~label:"c" ~size:16 () in
        let args = [| Interp.Item; acc_desc c |] in
        let stats s = Format.asprintf "%a" Cost.pp_launch_stats s in
        let program = Interp.decode ~module_op:m ~kernel:k in
        let reused () =
          Interp.launch ~config:Helpers.sim
            ~program ~module_op:m ~kernel:k ~args ~global:[ 16 ]
            ~wg_size:[ 16 ] ()
        in
        let fresh = stats (launch m k args) in
        Alcotest.(check string) "same stats as a fresh decode" fresh
          (stats (reused ()));
        Alcotest.(check string) "and again" fresh (stats (reused ()));
        Array.iter
          (fun x -> Alcotest.(check (float 1e-6)) "three launches" 3.0 x)
          (floats c));
    Alcotest.test_case "malformed ops fail when executed, not when decoded"
      `Quick (fun () ->
        (* An op the simulator does not know, and a value used where it
           was never defined, each on a branch that only some work-items
           take. *)
        let run ~taken =
          let m = Helpers.fresh_module () in
          let k =
            Sycl_frontend.Kernel.define m ~name:"guarded" ~dims:1
              ~args:[ K.Acc (1, S.Write, Types.f32) ]
              (fun b ~item ~args ->
                let out = List.hd args in
                let i = K.gid b item 0 in
                let limit = A.const_index b (if taken then 16 else 0) in
                let cond = A.cmpi b A.Slt i limit in
                let defined = ref None in
                ignore
                  (Dialects.Scf.if_ b cond
                     ~then_:(fun bb ->
                       Builder.op0 ~operands:[] bb "test.unknown";
                       [])
                     ());
                ignore
                  (Dialects.Scf.if_ b (A.cmpi b A.Slt limit i)
                     ~then_:(fun bb ->
                       defined := Some (K.fconst bb 2.0);
                       [])
                     ());
                K.acc_set b out [ i ] (Option.get !defined))
          in
          let c = Memory.alloc ~label:"c" ~size:16 () in
          match launch m k [| Interp.Item; acc_desc c |] with
          | _ -> "ok"
          | exception Interp.Sim_error msg -> msg
        in
        Alcotest.(check string) "unknown op executed"
          "device simulator: unsupported op test.unknown" (run ~taken:true);
        Alcotest.(check string) "undefined value read"
          "use of unbound SSA value in simulator" (run ~taken:false));
    Alcotest.test_case "yield swaps loop-carried values as a parallel move"
      `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"swap" ~dims:1
            ~args:[ K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let i = K.gid b item 0 in
              let loop =
                Dialects.Scf.for_ b ~lb:(A.const_index b 0) ~ub:(A.const_index b 3)
                  ~step:(A.const_index b 1)
                  ~iter_args:[ K.fconst b 1.0; K.fconst b 2.0 ]
                  (fun _ _ carried ->
                    match carried with
                    | [ x; y ] -> [ y; x ]
                    | _ -> assert false)
              in
              (* out[i] = 10 * a + b after three swaps of (a, b) = (1, 2) *)
              K.acc_set b out [ i ]
                (K.addf b
                   (K.mulf b (K.fconst b 10.0) (Core.result loop 0))
                   (Core.result loop 1)))
        in
        let c = Memory.alloc ~label:"c" ~size:16 () in
        ignore (launch m k [| Interp.Item; acc_desc c |]);
        Array.iter (fun x -> Alcotest.(check (float 0.0)) "swapped" 21.0 x) (floats c));
    Alcotest.test_case "a select of an int and a float feeds int and float ops"
      `Quick (fun () ->
        (* Ill-kinded IR: the select's result is read as an int by addi
           and as a float by addf, converting as int_of_float and
           float_of_int do. *)
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"mixed" ~dims:1
            ~args:[ K.Acc (1, S.Write, Types.i32); K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ ints; floats ] ->
                let i = K.gid b item 0 in
                let low = A.cmpi b A.Slt i (A.const_index b 8) in
                let s =
                  A.select b low (A.const_int b ~ty:Types.i32 7) (K.fconst b 2.5)
                in
                K.acc_set b ints [ i ] (A.addi b s (A.const_int b ~ty:Types.i32 1));
                K.acc_set b floats [ i ] (K.addf b s (K.fconst b 0.5))
              | _ -> assert false)
        in
        let ints = Memory.alloc ~label:"ints" ~size:16 () in
        let fl = Memory.alloc ~label:"floats" ~size:16 () in
        ignore (launch m k [| Interp.Item; acc_desc ints; acc_desc fl |]);
        for i = 0 to 15 do
          let low = i < 8 in
          Alcotest.(check bool) "addi on the select"
            true (Memory.get ints i = Memory.I (if low then 8 else 3));
          Alcotest.(check (float 0.0)) "addf on the select"
            (if low then 7.5 else 3.0) (Memory.get_float fl i)
        done);
    Alcotest.test_case "an int stored in a float buffer keeps every bit"
      `Quick (fun () ->
        (* 2^53 + 1 has no float representation: a cell that held it as a
           float would read back 2^53. *)
        let big = (1 lsl 53) + 1 in
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"big" ~dims:1
            ~args:
              [ K.Acc (1, S.Write, Types.f32); K.Acc (1, S.Read, Types.i64);
                K.Acc (1, S.Write, Types.i64) ]
            (fun b ~item ~args ->
              match args with
              | [ as_f32; as_i64; out ] ->
                let i = K.gid b item 0 in
                K.acc_set b as_f32 [ i ] (A.const_int b big);
                K.acc_set b out [ i ] (K.acc_get b as_i64 [ i ])
              | _ -> assert false)
        in
        let data = Memory.alloc ~label:"data" ~size:16 () in
        let out = Memory.alloc ~label:"out" ~size:16 () in
        ignore
          (launch m k [| Interp.Item; acc_desc data; acc_desc data; acc_desc out |]);
        for i = 0 to 15 do
          Alcotest.(check bool) "stored cell" true (Memory.get data i = Memory.I big);
          Alcotest.(check bool) "loaded back" true (Memory.get out i = Memory.I big)
        done);
    Alcotest.test_case "affine ops evaluate their maps as Affine_expr.eval"
      `Quick (fun () ->
        let module E = Affine_expr in
        let module Af = Dialects.Affine_ops in
        let map1 e = E.Map.make ~num_dims:1 ~num_syms:0 [ e ] in
        let quot = E.floordiv (E.dim 0) (E.const 4)
        and rem = E.modulo (E.dim 0) (E.const 4)
        and up = E.ceildiv (E.sub (E.dim 0) (E.const 5)) (E.const 3)
        and down = E.floordiv (E.sub (E.dim 0) (E.const 7)) (E.const 3) in
        let at =
          E.Map.make ~num_dims:2 ~num_syms:0 [ E.dim 0; E.mul (E.dim 1) (E.const 2) ]
        in
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"affine" ~dims:1
            ~args:[ K.Ptr Types.f32; K.Ptr Types.f32 ]
            (fun b ~item ~args ->
              match args with
              | [ grid; res ] ->
                let i = K.gid b item 0 in
                let q = Af.apply b (map1 quot) [ i ] in
                let r = Af.apply b (map1 rem) [ i ] in
                let float x = A.sitofp b (A.index_cast b x Types.i64) Types.f32 in
                Af.store b (float i) grid at [ q; r ];
                let back = Af.load b grid at [ q; r ] in
                let trips =
                  Af.for_ b ~lb:(Af.Value q) ~ub:(Af.Const 9)
                    ~iter_args:[ K.fconst b 0.0 ]
                    (fun bb _ acc -> [ K.addf bb (List.hd acc) (K.fconst bb 1.0) ])
                in
                (* res[i] = 1000 * down(i) + 100 * back + 10 * up(i) + trips *)
                let scaled c x = K.mulf b (K.fconst b c) x in
                let applied e = float (Af.apply b (map1 e) [ i ]) in
                Af.store b
                  (K.addf b
                     (K.addf b
                        (K.addf b (scaled 1000.0 (applied down)) (scaled 100.0 back))
                        (scaled 10.0 (applied up)))
                     (Core.result trips 0))
                  res (E.Map.identity 1) [ i ]
              | _ -> assert false)
        in
        let grid = Memory.alloc ~label:"grid" ~size:64 () in
        let res = Memory.alloc ~label:"res" ~size:16 () in
        ignore
          (launch m k
             [| Interp.Item; Interp.Mem (Memory.full_view ~dims:[| 8; 8 |] grid);
                Interp.Mem (Memory.full_view res) |]);
        for i = 0 to 15 do
          let ev e = E.eval [| i |] [||] e in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "grid cell of %d" i) (float_of_int i)
            (Memory.get_float grid ((ev quot * 8) + (ev rem * 2)));
          Alcotest.(check (float 0.0))
            (Printf.sprintf "res[%d]" i)
            (float_of_int
               ((1000 * ev down) + (100 * i) + (10 * ev up) + max 0 (9 - ev quot)))
            (Memory.get_float res i)
        done);
  ]

let tests = ("simulator", tests_list)
