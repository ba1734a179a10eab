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

(* An allocation of [n] cells holding 0., 1., ... *)
let iota label n =
  let a = Memory.alloc ~label ~size:n () in
  for i = 0 to n - 1 do Memory.set_float a i (float_of_int i) done;
  a

let ranged alloc ~range ~mem_range ~offset =
  Interp.Acc
    { Interp.a_alloc = alloc; a_range = range; a_mem_range = mem_range;
      a_offset = offset; a_is_float = true }

(* What a launch raised, as text: "ok" when it raised nothing. *)
let outcome f =
  match f () with
  | _ -> "ok"
  | exception Interp.Sim_error msg -> "Sim_error: " ^ msg
  | exception Memory.Out_of_bounds msg -> "Out_of_bounds: " ^ msg

(* A 1-D kernel over [c] (write) and [a] (read) whose body is [f]. *)
let kernel_ca f =
  let m = Helpers.fresh_module () in
  let k =
    K.define m ~name:"k" ~dims:1
      ~args:[ K.Acc (1, S.Write, Types.f32); K.Acc (1, S.Read, Types.f32) ]
      (fun b ~item ~args ->
        match args with [ c; a ] -> f b (K.gid b item 0) c a | _ -> assert false)
  in
  (m, k)

(* The direct O(n x subgroup size) largest-remainder scan, the
   reference for {!Interp.apportion}: one scan of the canonical order
   per remainder value, largest first. *)
let apportion_scan ~sgs ~canonical ~rems leftover give =
  let leftover = ref leftover and r = ref (sgs - 1) in
  while !leftover > 0 && !r > 0 do
    let i = ref 0 in
    while !leftover > 0 && !i < Array.length canonical do
      let k = canonical.(!i) in
      if rems.(k) = !r then begin
        give k;
        decr leftover
      end;
      incr i
    done;
    decr r
  done

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
    Alcotest.test_case
      "element references address 1-D, 2-D and id-struct subscripts with offsets"
      `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"refs" ~dims:2
            ~args:
              [ K.Acc (2, S.Read, Types.f32); K.Acc (1, S.Read, Types.f32);
                K.Acc (2, S.Write, Types.f32); K.Acc (2, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ a2; a1; direct; via_id ] ->
                let i = K.gid b item 0 and j = K.gid b item 1 in
                (* direct[i][j] = a2[i][j] + 1000 * a1[i] *)
                K.acc_set b direct [ i; j ]
                  (K.addf b (K.acc_get b a2 [ i; j ])
                     (K.mulf b (K.fconst b 1000.0) (K.acc_get b a1 [ i ])));
                (* via_id[i][j] = a2[id(i, j)], read through an id struct *)
                let id =
                  Builder.op1 b "memref.alloca" ~operands:[]
                    ~result_type:
                      (Types.memref ~space:Types.Private [ Some 1 ] (S.id 2))
                in
                Sycl_core.Sycl_ops.constructor b "id" id [ i; j ];
                let r = Sycl_core.Sycl_ops.accessor_subscript b a2 id in
                K.acc_set b via_id [ i; j ]
                  (Dialects.Memref.load b r [ A.const_index b 0 ])
              | _ -> assert false)
        in
        (* a2 is the 4x4 window at (2, 3) of an 8x8 buffer, a1 the 4
           cells from 16 of a 32-cell one. *)
        let a2 = iota "a2" 64 and a1 = iota "a1" 32 in
        let direct = Memory.alloc ~label:"direct" ~size:16 () in
        let via_id = Memory.alloc ~label:"via_id" ~size:16 () in
        ignore
          (launch ~global:[ 4; 4 ] ~wg:[ 2; 4 ] m k
             [| Interp.Item;
                ranged a2 ~range:[| 4; 4 |] ~mem_range:[| 8; 8 |] ~offset:[| 2; 3 |];
                ranged a1 ~range:[| 4 |] ~mem_range:[| 32 |] ~offset:[| 16 |];
                acc_desc ~range:[| 4; 4 |] direct; acc_desc ~range:[| 4; 4 |] via_id |]);
        for i = 0 to 3 do
          for j = 0 to 3 do
            let cell = float_of_int (((i + 2) * 8) + j + 3) in
            Alcotest.(check (float 0.0))
              (Printf.sprintf "direct[%d][%d]" i j)
              (cell +. (1000.0 *. float_of_int (16 + i)))
              (Memory.get_float direct ((i * 4) + j));
            Alcotest.(check (float 0.0))
              (Printf.sprintf "via_id[%d][%d]" i j)
              cell
              (Memory.get_float via_id ((i * 4) + j))
          done
        done);
    Alcotest.test_case
      "an element reference read by a yield, a select, a call and memref.dim"
      `Quick (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (Dialects.Func.func m "twice_at" ~args:[ Types.memref_dyn Types.f32 ]
             ~results:[ Types.f32 ] (fun b vals ->
               let r = List.hd vals in
               let x = Dialects.Memref.load b r [ A.const_index b 0 ] in
               Dialects.Func.return b [ K.mulf b (K.fconst b 2.0) x ]));
        let k =
          K.define m ~name:"readers" ~dims:1
            ~args:
              [ K.Acc (1, S.Read, Types.f32); K.Ptr Types.f32;
                K.Acc (1, S.Write, Types.f32); K.Acc (1, S.Write, Types.f32);
                K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ a; p; by_if; by_mixed; by_call ] ->
                let i = K.gid b item 0 in
                let low = A.cmpi b A.Slt i (A.const_index b 8) in
                let sub j = K.acc_view b a [ j ] in
                let ty = Types.memref_dyn Types.f32 in
                let c0 = A.const_index b 0 in
                (* Both branches yield references: the result is one. *)
                let both =
                  Dialects.Scf.if_ b low ~result_types:[ ty ]
                    ~then_:(fun bb -> [ sub i ])
                    ~else_:(fun bb ->
                      [ Sycl_core.Sycl_ops.accessor_subscript_multi bb a
                          [ A.addi bb i (A.const_index bb 16) ] ])
                    ()
                in
                let sel = A.select b low (Core.result both 0) (sub i) in
                K.acc_set b by_if [ i ]
                  (K.addf b (Dialects.Memref.load b (Core.result both 0) [ c0 ])
                     (K.mulf b (K.fconst b 100.0) (Dialects.Memref.load b sel [ c0 ])));
                (* A reference joined with a view is a view. *)
                let mixed =
                  Dialects.Scf.if_ b low ~result_types:[ ty ]
                    ~then_:(fun bb -> [ sub i ])
                    ~else_:(fun _ -> [ p ])
                    ()
                in
                K.acc_set b by_mixed [ i ]
                  (Dialects.Memref.load b (Core.result mixed 0) [ c0 ]);
                (* A call argument, and memref.dim of the reference (1). *)
                let r = sub i in
                let dim =
                  A.sitofp b
                    (A.index_cast b (Dialects.Memref.dim b r 0) Types.i64)
                    Types.f32
                in
                K.acc_set b by_call [ i ]
                  (K.addf b dim
                     (Dialects.Func.call1 b "twice_at" ~operands:[ r ]
                        ~result:Types.f32))
              | _ -> assert false)
        in
        let a = iota "a" 32 and p = iota "p" 4 in
        for i = 0 to 3 do Memory.set_float p i (float_of_int (-1 - i)) done;
        let by_if = Memory.alloc ~label:"by_if" ~size:16 () in
        let by_mixed = Memory.alloc ~label:"by_mixed" ~size:16 () in
        let by_call = Memory.alloc ~label:"by_call" ~size:16 () in
        ignore
          (launch m k
             [| Interp.Item; acc_desc ~range:[| 32 |] a;
                Interp.Mem (Memory.full_view p); acc_desc by_if;
                acc_desc by_mixed; acc_desc by_call |]);
        for i = 0 to 15 do
          let low = i < 8 in
          let fi = float_of_int i in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "by_if[%d]" i)
            (if low then fi +. (100.0 *. fi) else (fi +. 16.0) +. (100.0 *. fi))
            (Memory.get_float by_if i);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "by_mixed[%d]" i)
            (if low then fi else -1.0)
            (Memory.get_float by_mixed i);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "by_call[%d]" i)
            ((2.0 *. fi) +. 1.0) (Memory.get_float by_call i)
        done);
    Alcotest.test_case "subscript and element-reference errors keep their messages"
      `Quick (fun () ->
        let run f =
          let m, k = kernel_ca f in
          let a = Memory.alloc ~label:"a" ~size:16 () in
          let c = Memory.alloc ~label:"c" ~size:16 () in
          outcome (fun () -> launch m k [| Interp.Item; acc_desc c; acc_desc a |])
        in
        (* A value defined only on a branch no work-item takes. *)
        let never b i =
          let v = ref None in
          ignore
            (Dialects.Scf.if_ b (A.cmpi b A.Slt i (A.const_index b 0))
               ~then_:(fun bb ->
                 v := Some (A.const_index bb 0);
                 [])
               ());
          Option.get !v
        in
        let store_at b c i r idx =
          K.acc_set b c [ i ] (Dialects.Memref.load b r idx)
        in
        Alcotest.(check string) "more indices than dimensions"
          "Sim_error: subscript with more indices than accessor dimensions"
          (run (fun b i c a ->
               store_at b c i (K.acc_view b a [ i; i ]) [ A.const_index b 0 ]));
        Alcotest.(check string) "every index is read before the rank check"
          "Sim_error: use of unbound SSA value in simulator"
          (run (fun b i c a ->
               store_at b c i (K.acc_view b a [ i; never b i ]) [ A.const_index b 0 ]));
        Alcotest.(check string) "a float index"
          "Sim_error: bad subscript index"
          (run (fun b i c a ->
               store_at b c i (K.acc_view b a [ K.fconst b 1.0 ]) [ A.const_index b 0 ]));
        Alcotest.(check string) "an unbound index"
          "Sim_error: use of unbound SSA value in simulator"
          (run (fun b i c a ->
               store_at b c i (K.acc_view b a [ never b i ]) [ A.const_index b 0 ]));
        Alcotest.(check string) "a load past the end"
          "Out_of_bounds: index 16 out of bounds for a (size 16)"
          (run (fun b i c a ->
               store_at b c i (K.acc_view b a [ A.addi b i (A.const_index b 16) ])
                 [ A.const_index b 0 ]));
        Alcotest.(check string) "a load one past the reference"
          "Out_of_bounds: index 16 out of bounds for a (size 16)"
          (run (fun b i c a ->
               store_at b c i (K.acc_view b a [ A.const_index b 15 ])
                 [ A.const_index b 1 ]));
        Alcotest.(check string) "two indices into the one-element view"
          "Out_of_bounds: rank mismatch on a"
          (run (fun b i c a ->
               let c0 = A.const_index b 0 in
               store_at b c i (K.acc_view b a [ i ]) [ c0; c0 ]));
        Alcotest.(check string) "a store past the end"
          "Out_of_bounds: index 17 out of bounds for c (size 16)"
          (run (fun b i c a ->
               Dialects.Memref.store b (K.acc_get b a [ i ])
                 (K.acc_view b c [ A.addi b i (A.const_index b 17) ])
                 [ A.const_index b 0 ])));
    Alcotest.test_case "launch ranks must agree and lie in 1..3" `Quick (fun () ->
        (* a[gid] += 1: a mismatched rank used to run the wrong number of
           work-items or escape as Invalid_argument. *)
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"bump" ~dims:1
            ~args:[ K.Acc (1, S.Read_write, Types.f32) ]
            (fun b ~item ~args ->
              K.acc_update b (List.hd args) [ K.gid b item 0 ] (fun v ->
                  K.addf b v (K.fconst b 1.0)))
        in
        let a = Memory.alloc ~label:"a" ~size:16 () in
        let run global wg =
          outcome (fun () -> launch ~global ~wg m k [| Interp.Item; acc_desc a |])
        in
        Alcotest.(check string) "1-D global, 2-D group"
          "Sim_error: work-group size of rank 2 for a global range of rank 1"
          (run [ 16 ] [ 4; 4 ]);
        Alcotest.(check string) "2-D global, 1-D group"
          "Sim_error: work-group size of rank 1 for a global range of rank 2"
          (run [ 16; 1 ] [ 4 ]);
        Alcotest.(check string) "rank 0"
          "Sim_error: ND-range of rank 0 (want 1 to 3)" (run [] []);
        Alcotest.(check string) "rank 4"
          "Sim_error: ND-range of rank 4 (want 1 to 3)"
          (run [ 16; 1; 1; 1 ] [ 4; 1; 1; 1 ]);
        Alcotest.(check bool) "nothing ran" true
          (Array.for_all (fun x -> x = 0.0) (floats a));
        Alcotest.(check string) "a matching rank runs" "ok" (run [ 16 ] [ 4 ]);
        Alcotest.(check bool) "each item once" true
          (Array.for_all (fun x -> x = 1.0) (floats a)));
    Helpers.qtest ~count:500
      "apportion gives what the O(n x sgs) scan gives"
      QCheck2.Gen.(
        let* sgs = int_range 1 16 in
        let* n = int_range 0 40 in
        (* Few distinct remainders, so ties are common. *)
        let* rems = array_size (pure n) (oneof [ pure 0; int_range 0 (sgs - 1); pure (sgs - 1) ]) in
        let* canonical = shuffle_a (Array.init n Fun.id) in
        let* leftover = int_range (-2) (n + 2) in
        pure (sgs, rems, canonical, leftover))
      (fun (sgs, rems, canonical, leftover) ->
        let got = Array.make (Array.length rems) 0
        and want = Array.make (Array.length rems) 0 in
        Interp.apportion ~canonical ~rems ~counts:(Array.make sgs 0) leftover
          (fun k -> got.(k) <- got.(k) + 1);
        apportion_scan ~sgs ~canonical ~rems leftover (fun k ->
            want.(k) <- want.(k) + 1);
        got = want);
  ]

let tests = ("simulator", tests_list)
