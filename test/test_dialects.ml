(* Dialect registration, op interfaces, and folding tests. *)

open Mlir
module A = Dialects.Arith
module R = Op_registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* qcheck: folding a binary arith op agrees with direct evaluation. *)
let fold_agrees name (build : Builder.t -> Core.value -> Core.value -> Core.value)
    (eval : int -> int -> int) =
  Helpers.qtest (name ^ " fold agrees with evaluation")
    QCheck2.Gen.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (x, y) ->
      QCheck2.assume (not (List.mem name [ "divsi"; "remsi" ] && y = 0));
      let _m, f =
        Helpers.with_func (fun b _ ->
            let xv = A.const_int b x in
            let yv = A.const_int b y in
            ignore (build b xv yv))
      in
      let op =
        List.find
          (fun (o : Core.op) -> o.Core.name = "arith." ^ name)
          (Core.collect f ~p:(fun _ -> true))
      in
      match
        (R.info op).R.fold op [| Some (Attr.Int x); Some (Attr.Int y) |]
      with
      | Some (R.Fold_attrs [ Attr.Int r ]) -> r = eval x y
      | _ -> false)

let tests_list =
  [
    Alcotest.test_case "memory effects: load reads, store writes" `Quick (fun () ->
        let _m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.f32 ] (fun b vals ->
              let mem = List.hd vals in
              let i = A.const_index b 0 in
              let v = Dialects.Memref.load b mem [ i ] in
              Dialects.Memref.store b v mem [ i ])
        in
        let load = List.hd (Core.collect_named f "memref.load") in
        let store = List.hd (Core.collect_named f "memref.store") in
        check_bool "load reads" true (R.reads_memory load = Some true);
        check_bool "load does not write" true (R.writes_memory load = Some false);
        check_bool "store writes" true (R.writes_memory store = Some true));
    Alcotest.test_case "pure ops have no effects" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let x = A.const_int b 1 in
              ignore (A.addi b x x))
        in
        let add = List.hd (Core.collect_named f "arith.addi") in
        check_bool "pure" true (R.is_pure add);
        check_bool "speculatable" true (R.is_speculatable add));
    Alcotest.test_case "scf.for is a Loop with pure shell" `Quick (fun () ->
        check_bool "loop control" true
          ((Option.get (R.lookup "scf.for")).R.control = R.Loop);
        check_bool "yield is terminator" true
          (Option.get (R.lookup "scf.yield")).R.terminator);
    Alcotest.test_case "barrier reads and writes anywhere" `Quick (fun () ->
        let _m, f = Helpers.with_func (fun b _ -> Dialects.Gpu.barrier b) in
        let bar = List.hd (Core.collect_named f "gpu.barrier") in
        check_bool "not pure" false (R.is_pure bar);
        check_bool "writes" true (R.writes_memory bar = Some true));
    Alcotest.test_case "sycl getters: uniformity trait" `Quick (fun () ->
        check_bool "global id is non-uniform source" true
          (Option.get (R.lookup "sycl.nd_item.get_global_id")).R.non_uniform_source;
        check_bool "group id is uniform" false
          (Option.get (R.lookup "sycl.nd_item.get_group_id")).R.non_uniform_source);
    Alcotest.test_case "sycl.constructor writes its out-operand" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let id =
                Builder.op1 b "memref.alloca" ~operands:[]
                  ~result_type:
                    (Types.memref ~space:Types.Private [ Some 1 ] (Sycl_core.Sycl_types.id 2))
              in
              let i = A.const_index b 1 in
              Sycl_core.Sycl_ops.constructor b "id" id [ i; i ])
        in
        let ctor = List.hd (Core.collect_named f "sycl.constructor") in
        check_bool "writes operand 0" true
          (R.memory_effects ctor = Some [ (R.Write, R.On_operand 0) ]));
    Alcotest.test_case "direct subscript is pure; id-struct subscript reads" `Quick
      (fun () ->
        let acc_ty = Sycl_core.Sycl_types.accessor ~dims:2 Types.f32 in
        let _m, f =
          Helpers.with_func ~args:[ acc_ty ] (fun b vals ->
              let acc = List.hd vals in
              let i = A.const_index b 0 in
              ignore (Sycl_core.Sycl_ops.accessor_subscript_multi b acc [ i; i ]);
              let id =
                Builder.op1 b "memref.alloca" ~operands:[]
                  ~result_type:
                    (Types.memref ~space:Types.Private [ Some 1 ] (Sycl_core.Sycl_types.id 2))
              in
              Sycl_core.Sycl_ops.constructor b "id" id [ i; i ];
              ignore (Sycl_core.Sycl_ops.accessor_subscript b acc id))
        in
        match Core.collect_named f "sycl.accessor.subscript" with
        | [ direct; via_id ] ->
          check_bool "direct pure" true (R.is_pure direct);
          check_bool "via id reads" true (R.reads_memory via_id = Some true)
        | _ -> Alcotest.fail "expected two subscripts");
    Alcotest.test_case "memref.dim folds for static shapes" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let mem = Dialects.Memref.alloca b [ 4; 8 ] Types.f32 in
              ignore (Dialects.Memref.dim b mem 1))
        in
        let dim = List.hd (Core.collect_named f "memref.dim") in
        check_bool "folds to 8" true
          (match (R.info dim).R.fold dim [| None; Some (Attr.Int 1) |] with
          | Some (R.Fold_attrs [ Attr.Int 8 ]) -> true
          | _ -> false));
    Alcotest.test_case "select folds on constant condition" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let c = A.const_bool b true in
              let x = A.const_int b 1 in
              let y = A.const_int b 2 in
              ignore (A.select b c x y))
        in
        let sel = List.hd (Core.collect_named f "arith.select") in
        check_bool "selects lhs" true
          (match
             (R.info sel).R.fold sel [| Some (Attr.Bool true); None; None |]
           with
          | Some (R.Fold_values [ v ]) -> Core.value_equal v (Core.operand sel 1)
          | _ -> false));
    Alcotest.test_case "addi identity x+0" `Quick (fun () ->
        let _m, f =
          Helpers.with_func ~args:[ Types.i64 ] (fun b vals ->
              let x = List.hd vals in
              let z = A.const_int b 0 in
              ignore (A.addi b x z))
        in
        let add = List.hd (Core.collect_named f "arith.addi") in
        check_bool "folds to x" true
          (match (R.info add).R.fold add [| None; Some (Attr.Int 0) |] with
          | Some (R.Fold_values [ v ]) -> Core.value_equal v (Core.operand add 0)
          | _ -> false));
    Alcotest.test_case "affine.for accessor helpers" `Quick (fun () ->
        let _m, f =
          Helpers.with_func ~args:[ Types.Index ] (fun b vals ->
              let n = List.hd vals in
              ignore
                (Dialects.Affine_ops.for_ b ~lb:(Dialects.Affine_ops.Const 2)
                   ~ub:(Dialects.Affine_ops.Value n) ~step:3 (fun bb iv _ ->
                     ignore (A.addi bb iv iv);
                     [])))
        in
        let loop = List.hd (Core.collect_named f "affine.for") in
        check_int "step" 3 (Dialects.Affine_ops.for_step loop);
        check_bool "no const bounds (ub dynamic)" true
          (Dialects.Loop.const_bounds loop = None);
        check_int "one ub operand" 1
          (List.length (Dialects.Affine_ops.for_ub_operands loop));
        check_int "no lb operands" 0
          (List.length (Dialects.Affine_ops.for_lb_operands loop)));
    Alcotest.test_case "a second registration replaces the info" `Quick
      (fun () ->
        let name = "test.reregistered" in
        R.register name R.default_info;
        R.register name R.pure_info;
        let _m, f =
          Helpers.with_func (fun b _ ->
              Builder.op0 b name ~operands:[])
        in
        let op = List.hd (Core.collect_named f name) in
        check_bool "pure" true (R.is_pure op);
        check_bool "speculatable" true
          (Option.get (R.lookup name)).R.speculatable);
    Alcotest.test_case "func declaration vs definition" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let d = Dialects.Func.declare m "ext" ~args:[ Types.i64 ] ~results:[] in
        check_bool "is declaration" true (Dialects.Func.is_declaration d);
        Helpers.check_verifies m);
    fold_agrees "addi" A.addi ( + );
    fold_agrees "subi" A.subi ( - );
    fold_agrees "muli" A.muli ( * );
    fold_agrees "divsi" A.divsi (fun a b -> if b = 0 then 0 else a / b);
    fold_agrees "maxsi" A.maxsi max;
    fold_agrees "minsi" A.minsi min;
  ]

let tests = ("dialects", tests_list)
