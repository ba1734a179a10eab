(* Heavyweight qcheck properties:

   1. Random straight-line float kernels computed on the simulator agree
      with a host-side reference evaluator, under every compiler
      configuration — i.e. the whole stack (frontend, passes, runtime,
      simulator) preserves semantics on arbitrary expression dags.
   2. Printer/parser round-trip on randomly generated modules.
   3. Alias analysis is symmetric and must implies may. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module Host = Sycl_frontend.Host
module S = Sycl_core.Sycl_types
module Memory = Sycl_sim.Memory
module Interp = Sycl_sim.Interp
module HI = Sycl_runtime.Host_interp
module Driver = Sycl_core.Driver

(* ------------------------------------------------------------------ *)
(* 1. Random expression kernels                                        *)
(* ------------------------------------------------------------------ *)

type expr =
  | Input of int  (* a_k[i] for input k in 0..2 *)
  | Gid  (* global id as float *)
  | Lit of float
  | Bin of [ `Add | `Sub | `Mul | `Min | `Max ] * expr * expr
  | Neg of expr
  | Abs of expr

let rec eval_expr inputs i = function
  | Input k -> inputs.(k).(i)
  | Gid -> float_of_int i
  | Lit f -> f
  | Bin (op, a, b) -> (
    let x = eval_expr inputs i a and y = eval_expr inputs i b in
    match op with
    | `Add -> x +. y
    | `Sub -> x -. y
    | `Mul -> x *. y
    | `Min -> Float.min x y
    | `Max -> Float.max x y)
  | Neg a -> -.(eval_expr inputs i a)
  | Abs a -> Float.abs (eval_expr inputs i a)

let rec build_expr b ~item ~args e =
  match e with
  | Input k ->
    let i = K.gid b item 0 in
    K.acc_get b (List.nth args k) [ i ]
  | Gid ->
    let i = K.gid b item 0 in
    A.sitofp b (A.index_cast b i Types.i64) Types.f32
  | Lit f -> K.fconst b f
  | Bin (op, x, y) ->
    let xv = build_expr b ~item ~args x and yv = build_expr b ~item ~args y in
    (match op with
    | `Add -> K.addf b xv yv
    | `Sub -> K.subf b xv yv
    | `Mul -> K.mulf b xv yv
    | `Min -> A.minf b xv yv
    | `Max -> A.maxf b xv yv)
  | Neg x -> A.negf b (build_expr b ~item ~args x)
  | Abs x -> A.absf b (build_expr b ~item ~args x)

let expr_gen =
  let open QCheck2.Gen in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [ map (fun k -> Input k) (int_bound 2);
            pure Gid;
            map (fun f -> Lit (Float.of_int f /. 4.0)) (int_range (-8) 8) ]
      else
        oneof
          [
            (let op = oneofl [ `Add; `Sub; `Mul; `Min; `Max ] in
             map3 (fun o a b -> Bin (o, a, b)) op (self (n / 2)) (self (n / 2)));
            map (fun a -> Neg a) (self (n - 1));
            map (fun a -> Abs a) (self (n - 1));
          ])

let run_expr_workload (e : expr) (mode : Driver.mode) =
  let n = 64 in
  let m = Helpers.fresh_module () in
  ignore
    (K.define m ~name:"expr_k" ~dims:1
       ~args:
         [ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Read, Types.f32);
           K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
       (fun b ~item ~args ->
         let i = K.gid b item 0 in
         let out = List.nth args 3 in
         K.acc_set b out [ i ] (build_expr b ~item ~args e)));
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
               {
                 Host.cg_kernel = "expr_k";
                 cg_global = [ Host.Arg 4 ];
                 cg_local = None;
                 cg_captures =
                   [ Host.Capture_acc (0, S.Read); Host.Capture_acc (1, S.Read);
                     Host.Capture_acc (2, S.Read); Host.Capture_acc (3, S.Write) ];
               };
           ];
       });
  ignore (Driver.compile (Driver.config ~verify_each:true mode) m);
  let st = Random.State.make [| Hashtbl.hash e |] in
  let inputs =
    Array.init 3 (fun _ -> Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0))
  in
  let allocs =
    Array.map
      (fun data ->
        let a = Memory.alloc ~size:n () in
        Array.iteri (fun i x -> Memory.set_float a i x) data;
        a)
      inputs
  in
  let out = Memory.alloc ~size:n () in
  let harg a = HI.Scalar (Interp.Mem (Memory.full_view a)) in
  ignore
    (HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
       [ harg allocs.(0); harg allocs.(1); harg allocs.(2); harg out;
         HI.Scalar (Interp.I n) ]);
  let ok = ref true in
  for i = 0 to n - 1 do
    let expect = eval_expr inputs i e in
    let got = Memory.get_float out i in
    let err = Float.abs (got -. expect) in
    if err > 1e-3 && err > 1e-3 *. Float.abs expect then ok := false
  done;
  !ok

let expr_kernel_correct mode_name mode =
  Helpers.qtest ~count:25
    (Printf.sprintf "random expression kernels correct under %s" mode_name)
    expr_gen
    (fun e -> run_expr_workload e mode)

(* ------------------------------------------------------------------ *)
(* 2. Random module round-trips                                        *)
(* ------------------------------------------------------------------ *)

(* A random straight-line function over i64 values. Each step either
   introduces a constant or combines two previous values. *)
let steps_gen =
  QCheck2.Gen.(
    list_size (int_range 1 30)
      (oneof
         [
           map (fun c -> `Const c) (int_range (-100) 100);
           map3 (fun o a b -> `Bin (o, a, b))
             (oneofl [ "arith.addi"; "arith.subi"; "arith.muli"; "arith.andi" ])
             (int_range 0 1000) (int_range 0 1000);
         ]))

let module_of_steps steps =
  let m = Helpers.fresh_module () in
  ignore
    (Dialects.Func.func m "f" ~args:[ Types.i64 ] ~results:[] (fun b vals ->
         let values = ref [| List.hd vals |] in
         List.iter
           (fun step ->
             let pick i = !values.(i mod Array.length !values) in
             let v =
               match step with
               | `Const c -> A.const_int b c
               | `Bin (name, i, j) ->
                 Builder.op1 b name ~operands:[ pick i; pick j ]
                   ~result_type:Types.i64
             in
             values := Array.append !values [| v |])
           steps;
         Dialects.Func.return b []))
  |> ignore;
  m

let roundtrip_random_modules =
  Helpers.qtest ~count:50 "printer/parser round-trip on random modules"
    steps_gen
    (fun steps ->
      let m = module_of_steps steps in
      let s = Printer.to_string m in
      let m' = Parser.parse_module s in
      Printer.to_string m' = s)

(* ------------------------------------------------------------------ *)
(* 3. Alias laws                                                       *)
(* ------------------------------------------------------------------ *)

(* Build a kernel exposing a zoo of pointer-like values, then check laws
   on random pairs. *)
let alias_zoo () =
  let values = ref [] in
  let _m, f =
    Helpers.with_kernel ~dims:1
      ~args:
        [ K.Acc (1, S.Read_write, Types.f32); K.Acc (1, S.Read_write, Types.f32);
          K.Ptr Types.f32 ]
      (fun b ~item ~args ->
        match args with
        | [ a1; a2; p ] ->
          let i = K.gid b item 0 in
          let zero = A.const_index b 0 in
          values :=
            [ a1; a2; p;
              K.acc_view b a1 [ i ]; K.acc_view b a1 [ zero ];
              K.acc_view b a1 [ zero ]; K.acc_view b a2 [ i ];
              Dialects.Memref.alloca b [ 4 ] Types.f32;
              Dialects.Memref.alloca b [ 4 ] Types.f32;
              Dialects.Gpu.alloc_local b [ 8 ] Types.f32 ]
        | _ -> assert false)
  in
  Sycl_core.Alias.add_noalias_pair f 1 2;
  Array.of_list !values

let alias_laws =
  let zoo = lazy (alias_zoo ()) in
  Helpers.qtest ~count:200 "alias analysis is symmetric; must implies may"
    QCheck2.Gen.(pair (int_bound 9) (int_bound 9))
    (fun (i, j) ->
      let zoo = Lazy.force zoo in
      let a = zoo.(i) and b = zoo.(j) in
      let r1 = Sycl_core.Alias.alias a b and r2 = Sycl_core.Alias.alias b a in
      r1 = r2
      && (not (Core.value_equal a b) || r1 = Sycl_core.Alias.Must_alias)
      && (r1 <> Sycl_core.Alias.Must_alias || Sycl_core.Alias.may_alias a b))

(* Same as run_expr_workload but with progressive lowering enabled — the
   flattened-ABI kernels must compute identical results. *)
let expr_kernel_lowered =
  Helpers.qtest ~count:15 "random expression kernels correct after lowering"
    expr_gen
    (fun e ->
      let n = 64 in
      let m = Helpers.fresh_module () in
      ignore
        (K.define m ~name:"expr_k" ~dims:1
           ~args:
             [ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Read, Types.f32);
               K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
           (fun b ~item ~args ->
             let i = K.gid b item 0 in
             K.acc_set b (List.nth args 3) [ i ] (build_expr b ~item ~args e)));
      ignore
        (Host.emit m
           {
             Host.host_args =
               [ Types.memref_dyn Types.f32; Types.memref_dyn Types.f32;
                 Types.memref_dyn Types.f32; Types.memref_dyn Types.f32;
                 Types.Index ];
             buffers =
               List.init 4 (fun i ->
                   { Host.buf_data_arg = i; buf_dims = [ Host.Arg 4 ];
                     buf_element = Types.f32 });
             globals = [];
             body =
               [ Host.Submit
                   { Host.cg_kernel = "expr_k"; cg_global = [ Host.Arg 4 ];
                     cg_local = None;
                     cg_captures =
                       [ Host.Capture_acc (0, S.Read); Host.Capture_acc (1, S.Read);
                         Host.Capture_acc (2, S.Read); Host.Capture_acc (3, S.Write) ] } ];
           });
      ignore
        (Driver.compile
           (Driver.config ~enable_lowering:true ~verify_each:true Driver.Sycl_mlir)
           m);
      let st = Random.State.make [| Hashtbl.hash e + 1 |] in
      let inputs =
        Array.init 3 (fun _ -> Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0))
      in
      let allocs =
        Array.map
          (fun data ->
            let a = Memory.alloc ~size:n () in
            Array.iteri (fun i x -> Memory.set_float a i x) data;
            a)
          inputs
      in
      let out = Memory.alloc ~size:n () in
      let harg a = HI.Scalar (Interp.Mem (Memory.full_view a)) in
      ignore
        (HI.run ~sim_domains:Helpers.sim_domains ~module_op:m
           [ harg allocs.(0); harg allocs.(1); harg allocs.(2); harg out;
             HI.Scalar (Interp.I n) ]);
      let ok = ref true in
      for i = 0 to n - 1 do
        let expect = eval_expr inputs i e in
        let got = Memory.get_float out i in
        let err = Float.abs (got -. expect) in
        if err > 1e-3 && err > 1e-3 *. Float.abs expect then ok := false
      done;
      !ok)

let tests =
  ( "properties",
    [
      expr_kernel_correct "DPC++" Driver.Dpcpp;
      expr_kernel_correct "SYCL-MLIR" Driver.Sycl_mlir;
      expr_kernel_lowered;
      roundtrip_random_modules;
      alias_laws;
    ] )
