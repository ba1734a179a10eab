(* Core IR graph tests: construction, use lists, mutation, traversal,
   cloning, dominance. *)

open Mlir
module A = Dialects.Arith

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tests_list =
  [
    Alcotest.test_case "module creation and block" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        check_bool "is module" true (Core.is_module m);
        let blk = Core.module_block m in
        check_int "empty body" 0 (List.length (Core.ops blk));
        check_bool "no first op" true (Core.first_op blk = None);
        check_bool "no last op" true (Core.last_op blk = None));
    Alcotest.test_case "op creation populates use lists" `Quick (fun () ->
        let m, _f =
          Helpers.with_func (fun b _ ->
              let x = A.const_int b 1 in
              let y = A.const_int b 2 in
              let s = A.addi b x y in
              let _t = A.muli b s s in
              check_int "x used once" 1 (Core.num_uses x);
              check_int "s used twice" 2 (Core.num_uses s))
        in
        Helpers.check_verifies m);
    Alcotest.test_case "replace_all_uses_with rewires users" `Quick (fun () ->
        let _m, _f =
          Helpers.with_func (fun b _ ->
              let x = A.const_int b 1 in
              let y = A.const_int b 2 in
              let s = A.addi b x x in
              Core.replace_all_uses_with x y;
              check_int "x now unused" 0 (Core.num_uses x);
              check_int "y used twice" 2 (Core.num_uses y);
              check_bool "operands updated" true
                (Core.value_equal (Core.operand (Option.get (Core.defining_op s)) 0) y))
        in
        ());
    Alcotest.test_case "erase_op fails on used results" `Quick (fun () ->
        let _m, _f =
          Helpers.with_func (fun b _ ->
              let x = A.const_int b 1 in
              let _s = A.addi b x x in
              let def = Option.get (Core.defining_op x) in
              check_bool "raises Has_uses" true
                (match Core.erase_op def with
                | () -> false
                | exception Core.Has_uses _ -> true);
              Alcotest.(check string) "the exception names the op, its location and its uses"
                "Core.Has_uses: cannot erase arith.constant() at loc(unknown): its \
                 results still have 2 use(s)"
                (Printexc.to_string (Core.Has_uses def)))
        in
        ());
    Alcotest.test_case "erase_op erases every nested op, in pre-order, then the op"
      `Quick (fun () ->
        let outside = ref [] in
        let _m, f =
          Helpers.with_func (fun b _ ->
              let c = A.const_bool b true in
              let x = A.const_int b 7 in
              let zero = A.const_index b 0 in
              let one = A.const_index b 1 in
              outside := [ c; x; zero; one ];
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:one ~step:one (fun bb _ _ ->
                     ignore
                       (Dialects.Scf.if_ bb c
                          ~then_:(fun tb ->
                            ignore (A.addi tb x x);
                            [])
                          ());
                     [])))
        in
        let loop = List.hd (Core.collect_named f "scf.for") in
        let nested = Core.collect loop ~p:(fun o -> not (o == loop)) in
        let erased = ref [] in
        Core.with_listener
          {
            Core.on_op_inserted = ignore;
            on_operand_replaced = (fun _ _ -> ());
            on_op_erased = (fun o -> erased := o :: !erased);
          }
          (fun () -> Core.erase_op loop);
        List.iter
          (fun v -> check_int "a value defined outside has no uses left" 0 (Core.num_uses v))
          !outside;
        check_bool "every nested op is detached" true
          (List.for_all (fun o -> Option.is_none o.Core.parent_block) nested);
        Alcotest.(check (list string)) "erased in pre-order, the op last"
          [ "scf.if"; "arith.addi"; "scf.yield"; "scf.yield"; "scf.for" ]
          (List.rev_map (fun o -> o.Core.name) !erased);
        check_bool "the listener heard each op once" true
          (List.for_all2 ( == ) (List.rev !erased) (nested @ [ loop ]));
        Helpers.check_verifies f);
    Alcotest.test_case
      "replace_op replaces each result in order; a result without a value must be unused"
      `Quick (fun () ->
        (* f(a, c): a loop carrying (a, c) that adds a to the first; the
           addi after it reads the first result and, when [second], the
           second. *)
        let build ~second =
          let _m, f =
            Helpers.with_func ~args:[ Types.i64; Types.i64 ] (fun b args ->
                let a = List.hd args in
                let zero = A.const_index b 0 in
                let one = A.const_index b 1 in
                let loop =
                  Dialects.Scf.for_ b ~lb:zero ~ub:one ~step:one ~iter_args:args
                    (fun bb _ iters -> [ A.addi bb (List.hd iters) a; List.nth iters 1 ])
                in
                let r i = Core.result loop i in
                ignore (A.addi b (r 0) (r (if second then 1 else 0))))
          in
          let loop = List.hd (Core.collect_named f "scf.for") in
          let user = List.nth (Core.collect_named f "arith.addi") 1 in
          match Core.block_args (Core.func_body f) with
          | [ a; c ] -> (f, loop, user, a, c)
          | _ -> Alcotest.fail "expected two arguments"
        in
        let reads what user vs =
          check_bool what true (List.for_all2 Core.value_equal (Core.operands user) vs)
        in
        let attached (o : Core.op) = Option.is_some o.Core.parent_block in
        let f, loop, user, a, c = build ~second:true in
        let nested = Core.collect loop ~p:(fun o -> not (o == loop)) in
        Core.replace_op loop [ a; c ];
        reads "each result replaced by its value, in order" user [ a; c ];
        check_bool "the loop and its nested ops are erased" false
          (List.exists attached (loop :: nested));
        check_int "a is left with the addi's use" 1 (Core.num_uses a);
        Helpers.check_verifies f;
        let _, loop, user, _, c = build ~second:false in
        Core.replace_op loop [ c ];
        reads "an unused result needs no value" user [ c; c ];
        check_bool "the loop is erased" false (attached loop);
        let _, loop, user, a, c = build ~second:true in
        Core.replace_op loop [ a; c; a ];
        reads "a value past the last result is ignored" user [ a; c ];
        let _, loop, user, a, _ = build ~second:true in
        let nested = Core.collect loop ~p:(fun o -> not (o == loop)) in
        let results = Core.results loop in
        check_bool "a used result without a value raises Has_uses" true
          (match Core.replace_op loop [ a ] with
          | () -> false
          | exception Core.Has_uses o -> o == loop);
        reads "the addi still reads the loop" user results;
        check_bool "the loop and its nested ops stay" true
          (List.for_all attached (loop :: nested));
        check_int "a keeps its uses in the loop" 2 (Core.num_uses a));
    Alcotest.test_case "insert_before and move" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let _x = A.const_int b 1 in
              let _y = A.const_int b 2 in
              ())
        in
        let body = Core.func_body f in
        (match Core.ops body with
        | [ x_op; y_op; ret ] ->
          check_bool "first op" true (Option.get (Core.first_op body) == x_op);
          check_bool "last op" true (Option.get (Core.last_op body) == ret);
          Core.move_before ~anchor:x_op y_op;
          check_bool "first op after the move" true (Option.get (Core.first_op body) == y_op);
          (match Core.ops body with
          | [ a; b; _ ] ->
            check_int "y first" 2 (Option.get (Core.attr_int a "value"));
            check_int "x second" 1 (Option.get (Core.attr_int b "value"))
          | _ -> Alcotest.fail "bad body")
        | _ -> Alcotest.fail "expected three ops"));
    Alcotest.test_case "walk visits nested ops pre-order" `Quick (fun () ->
        let m, _f =
          Helpers.with_func (fun b _ ->
              let c = A.const_bool b true in
              ignore
                (Dialects.Scf.if_ b c
                   ~then_:(fun bb ->
                     ignore (A.const_int bb 42);
                     [])
                   ()))
        in
        check_int "constants found" 2 (Helpers.count_ops m "arith.constant"));
    Alcotest.test_case "clone_op deep-copies regions and remaps values" `Quick
      (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let lb = A.const_index b 0 in
              let ub = A.const_index b 10 in
              let step = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb ~ub ~step (fun bb iv _ ->
                     ignore (A.addi bb iv iv);
                     [])))
        in
        let loop = List.hd (Core.collect_named f "scf.for") in
        let clone = Core.clone_op loop in
        check_int "clone has a region" 1 (Core.num_regions clone);
        let orig_add = List.hd (Core.collect_named loop "arith.addi") in
        let clone_add = List.hd (Core.collect_named clone "arith.addi") in
        check_bool "bodies are distinct ops" false (orig_add == clone_add);
        (* The clone's body uses the clone's induction variable. *)
        let clone_iv = Core.block_arg (Dialects.Scf.for_body clone) 0 in
        check_bool "clone add uses clone iv" true
          (Core.value_equal (Core.operand clone_add 0) clone_iv));
    Alcotest.test_case "dominance within a block" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let _x = A.const_int b 1 in
              let _y = A.const_int b 2 in
              ())
        in
        match Core.ops (Core.func_body f) with
        | [ x; y; ret ] ->
          check_bool "x before y" true (Core.is_before_in_block x y);
          check_bool "x before the return" true (Core.is_before_in_block x ret);
          check_bool "y not before x" false (Core.is_before_in_block y x);
          check_bool "x not before itself" false (Core.is_before_in_block x x);
          check_bool "x dominates y" true (Dominance.properly_dominates x y);
          check_bool "y does not dominate x" false (Dominance.properly_dominates y x)
        | _ -> Alcotest.fail "bad body");
    Alcotest.test_case "ops is a snapshot the caller may edit the block under"
      `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              for i = 1 to 4 do
                ignore (A.const_int b i)
              done)
        in
        let body = Core.func_body f in
        (* Detach every constant while walking the list taken before. *)
        let visited = ref 0 in
        List.iter
          (fun (o : Core.op) ->
            incr visited;
            if o.Core.name = "arith.constant" then Core.detach_op o)
          (Core.ops body);
        check_int "every op of the snapshot visited" 5 !visited;
        match Core.ops body with
        | [ ret ] -> Alcotest.(check string) "only the return left" "func.return" ret.Core.name
        | ops -> Alcotest.failf "expected one op, got %d" (List.length ops));
    Alcotest.test_case "Builder.at_start inserts ahead of the first op, in order"
      `Quick (fun () ->
        let value (o : Core.op) = Option.get (Core.attr_int o "value") in
        (* An empty block: the ops land in the order inserted. *)
        let empty = Core.create_block () in
        let b = Builder.at_start empty in
        ignore (A.const_int b 1);
        ignore (A.const_int b 2);
        Alcotest.(check (list int)) "empty block" [ 1; 2 ]
          (List.map value (Core.ops empty));
        (* A block holding ops: both go before the old first op. *)
        let _m, f = Helpers.with_func (fun b _ -> ignore (A.const_int b 3)) in
        let body = Core.func_body f in
        let b = Builder.at_start body in
        ignore (A.const_int b 1);
        ignore (A.const_int b 2);
        match Core.ops body with
        | [ one; two; three; ret ] ->
          Alcotest.(check (list int)) "ahead of the old first op" [ 1; 2; 3 ]
            (List.map value [ one; two; three ]);
          Alcotest.(check string) "return still last" "func.return" ret.Core.name
        | ops -> Alcotest.failf "expected four ops, got %d" (List.length ops));
    Alcotest.test_case "dominance across nesting" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let c = A.const_bool b true in
              ignore
                (Dialects.Scf.if_ b c
                   ~then_:(fun bb ->
                     ignore (A.const_int bb 1);
                     [])
                   ()))
        in
        let outer = List.hd (Core.collect_named f "arith.constant") in
        let inner =
          List.find
            (fun (o : Core.op) -> Core.attr o "value" = Some (Attr.Int 1))
            (Core.collect_named f "arith.constant")
        in
        check_bool "outer dominates nested" true (Dominance.properly_dominates outer inner);
        check_bool "nested does not dominate outer" false
          (Dominance.properly_dominates inner outer));
    Alcotest.test_case "value visibility of block args" `Quick (fun () ->
        let _m, f =
          Helpers.with_func ~args:[ Types.i64 ] (fun b vals ->
              let x = List.hd vals in
              ignore (A.addi b x x))
        in
        let add = List.hd (Core.collect_named f "arith.addi") in
        let arg = Core.block_arg (Core.func_body f) 0 in
        check_bool "arg visible" true (Dominance.value_visible_at arg add));
    Alcotest.test_case "defined_outside_region" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let lb = A.const_index b 0 in
              let ub = A.const_index b 4 in
              let step = A.const_index b 1 in
              let outer = A.const_int b 7 in
              ignore
                (Dialects.Scf.for_ b ~lb ~ub ~step (fun bb iv _ ->
                     let inner = A.const_int bb 8 in
                     let region =
                       Option.get
                         (Option.get (Core.defining_op inner)).Core.parent_block
                       |> fun blk -> Option.get blk.Core.parent_region
                     in
                     check_bool "outer const is invariant" true
                       (Dominance.defined_outside_region region outer);
                     check_bool "iv is not" false
                       (Dominance.defined_outside_region region iv);
                     check_bool "inner const is not" false
                       (Dominance.defined_outside_region region inner);
                     [])))
        in
        ignore f);
    Alcotest.test_case "enclosing_func and ancestors" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let c = A.const_bool b true in
              ignore
                (Dialects.Scf.if_ b c
                   ~then_:(fun bb ->
                     ignore (A.const_int bb 1);
                     [])
                   ()))
        in
        let inner =
          List.find
            (fun (o : Core.op) -> Core.attr_int o "value" = Some 1)
            (Core.collect_named f "arith.constant")
        in
        check_bool "enclosing func found" true
          (match Core.enclosing_func inner with Some g -> g == f | None -> false));
    Alcotest.test_case "set_operands maintains use lists" `Quick (fun () ->
        let _m, _f =
          Helpers.with_func (fun b _ ->
              let x = A.const_int b 1 in
              let y = A.const_int b 2 in
              let s = A.addi b x x in
              let op = Option.get (Core.defining_op s) in
              Core.set_operands op [ y; y ];
              check_int "x unused" 0 (Core.num_uses x);
              check_int "y used twice" 2 (Core.num_uses y))
        in
        ());
    Alcotest.test_case "add_block_arg extends args" `Quick (fun () ->
        let blk = Core.create_block ~args:[ Types.i64 ] () in
        let v = Core.add_block_arg blk Types.f32 in
        check_int "two args" 2 (List.length (Core.block_args blk));
        check_bool "type is f32" true (Types.equal v.Core.vty Types.f32));
    Alcotest.test_case "lookup_func and funcs" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        ignore (Dialects.Func.declare m "ext" ~args:[] ~results:[]);
        let _ =
          Dialects.Func.func m "g" ~args:[] ~results:[] (fun b _ ->
              Dialects.Func.return b [])
        in
        check_int "two funcs" 2 (List.length (Core.funcs m));
        check_bool "lookup g" true (Core.lookup_func m "g" <> None);
        check_bool "lookup missing" true (Core.lookup_func m "nope" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Linked blocks, use records and atoms                                *)
(* ------------------------------------------------------------------ *)

let bare name = Core.create_op name ~operands:[] ~result_types:[]
let names blk = List.map (fun o -> o.Core.name) (Core.ops blk)
let check_names = Alcotest.(check (list string))

(* A region op holding one block of [inner] ops. *)
let wrap name inner =
  let blk = Core.create_block () in
  List.iter (Core.append_op blk) inner;
  (Core.create_op name ~operands:[] ~result_types:[] ~regions:[ Core.create_region ~blocks:[ blk ] () ], blk)

let uses v = List.map (fun (o, i) -> (o.Core.name, i)) (Core.uses v)
let check_uses = Alcotest.(check (list (pair string int)))

let linked_cases =
  [
    Alcotest.test_case "op order, first and last ops after each insertion and removal"
      `Quick (fun () ->
        let blk = Core.create_block () in
        let op name = bare ("t." ^ name) in
        let a = op "a" and b = op "b" and c = op "c" and d = op "d" and e = op "e" in
        let before = Core.is_before_in_block in
        let ends () =
          ( (Option.get (Core.first_op blk)).Core.name,
            (Option.get (Core.last_op blk)).Core.name )
        in
        let check_ends first last = Alcotest.(check (pair string string)) "ends" (first, last) (ends ()) in
        Core.append_op blk a;
        Core.append_op blk c;
        Core.insert_before ~anchor:c b;
        check_names "insert_before" [ "t.a"; "t.b"; "t.c" ] (names blk);
        check_bool "a before b" true (before a b);
        check_bool "b before c" true (before b c);
        check_bool "c not before b" false (before c b);
        check_bool "an op is not before itself" false (before b b);
        Core.insert_after ~anchor:a d;
        check_names "insert_after" [ "t.a"; "t.d"; "t.b"; "t.c" ] (names blk);
        check_bool "a before d before b" true (before a d && before d b && not (before b d));
        Core.prepend_op blk e;
        check_ends "t.e" "t.c";
        check_bool "e before a" true (before e a && not (before a e));
        Core.move_before ~anchor:e c;
        check_names "move_before" [ "t.c"; "t.e"; "t.a"; "t.d"; "t.b" ] (names blk);
        check_ends "t.c" "t.b";
        check_bool "c before b" true (before c b && not (before b c));
        Core.detach_op b;
        check_ends "t.c" "t.d";
        check_bool "a detached op is before nothing" false (before b d || before d b);
        check_bool "d after the others" true (before c d && before a d);
        (* The queries above renumbered the block; an append keeps its
           order index valid. *)
        let f = op "f" in
        Core.append_op blk f;
        check_names "append" [ "t.c"; "t.e"; "t.a"; "t.d"; "t.f" ] (names blk);
        check_ends "t.c" "t.f";
        check_bool "f after every op" true
          (List.for_all (fun o -> o == f || before o f) (Core.ops blk));
        check_bool "f before none" false (List.exists (fun o -> before f o) (Core.ops blk));
        Core.detach_op c;
        Core.detach_op e;
        check_ends "t.a" "t.f";
        Core.detach_op a;
        Core.detach_op d;
        Core.detach_op f;
        check_bool "empty" true (Core.first_op blk = None && Core.last_op blk = None));
    Alcotest.test_case
      "a walk whose f detaches the op it is given visits the next op and the detached op's regions"
      `Quick (fun () ->
        let inner, _ = wrap "t.wrap" [ bare "t.inner" ] in
        let top, top_blk = wrap "t.top" [ bare "t.first"; inner; bare "t.after" ] in
        let seen = ref [] in
        Core.walk top ~f:(fun o ->
            seen := o.Core.name :: !seen;
            if o == inner then Core.detach_op o);
        check_names "visited" [ "t.top"; "t.first"; "t.wrap"; "t.inner"; "t.after" ]
          (List.rev !seen);
        check_names "left in the block" [ "t.first"; "t.after" ] (names top_blk));
    Alcotest.test_case "Core.uses lists the newest use first after set_operand, set_operands and erase"
      `Quick (fun () ->
        let _m, _f =
          Helpers.with_func (fun b _ ->
              let x = A.const_int b 1 and y = A.const_int b 2 in
              let s = Option.get (Core.defining_op (A.addi b x x)) in
              let t = Option.get (Core.defining_op (A.muli b x x)) in
              check_uses "x after creation"
                [ ("arith.muli", 1); ("arith.muli", 0); ("arith.addi", 1); ("arith.addi", 0) ]
                (uses x);
              check_int "x: four uses" 4 (Core.num_uses x);
              Core.set_operand s 0 y;
              check_uses "x after set_operand"
                [ ("arith.muli", 1); ("arith.muli", 0); ("arith.addi", 1) ]
                (uses x);
              check_uses "y after set_operand" [ ("arith.addi", 0) ] (uses y);
              check_int "x: three uses" 3 (Core.num_uses x);
              check_int "y: one use" 1 (Core.num_uses y);
              Core.set_operands t [ y; x ];
              check_uses "x after set_operands" [ ("arith.muli", 1); ("arith.addi", 1) ] (uses x);
              check_uses "y after set_operands" [ ("arith.muli", 0); ("arith.addi", 0) ] (uses y);
              check_int "x: two uses" 2 (Core.num_uses x);
              check_int "y: two uses" 2 (Core.num_uses y);
              Core.erase_op t;
              check_uses "x after erase" [ ("arith.addi", 1) ] (uses x);
              check_uses "y after erase" [ ("arith.addi", 0) ] (uses y);
              check_int "x: one use" 1 (Core.num_uses x);
              check_int "y: one use" 1 (Core.num_uses y);
              check_bool "every operand linked" true
                (Core.operand_linked s 0 && Core.operand_linked s 1))
        in
        ());
    Alcotest.test_case "two domains interning overlapping strings get the same atoms"
      `Quick (fun () ->
        (* 450 new strings: enough to grow the reverse table at least once. *)
        let intern_range lo =
          List.init 300 (fun i ->
              let s = Printf.sprintf "atom-test.%d" (lo + i) in
              (s, Atom.intern s))
        in
        let other = Domain.spawn (fun () -> intern_range 0) in
        let here = intern_range 150 in
        let there = Domain.join other in
        List.iter
          (fun (s, id) -> Alcotest.(check string) "to_string round-trips" s (Atom.to_string id))
          (here @ there);
        List.iter
          (fun (s, id) ->
            match List.assoc_opt s there with
            | Some id' -> check_int ("same atom for " ^ s) id id'
            | None -> ())
          here;
        check_int "distinct strings, distinct atoms" 450
          (List.length (List.sort_uniq Int.compare (List.map snd (here @ there)))));
  ]

(* The IR core's costs per op must not grow with the size of a block.
   Bounding the bytes a pass allocates per op pins that without reading
   the clock: a block that is rebuilt, or a use list that is filtered,
   per edit allocates in proportion to the block. *)
let allocation_per_op name ~ops build passes =
  Alcotest.test_case name `Quick (fun () ->
      let m = build () in
      let before = Gc.allocated_bytes () in
      List.iter (fun (p : Pass.t) -> p.Pass.run m (Pass.Stats.create ())) passes;
      let per_op = (Gc.allocated_bytes () -. before) /. float ops in
      if per_op > 4096.0 then
        Alcotest.failf "%.0f bytes allocated per op (at most 4096)" per_op)

let scale_cases =
  let n = 8000 in
  let chain () =
    fst
      (Helpers.with_func ~args:[ Types.i64 ] ~results:[ Types.i64 ] (fun b vals ->
           let sum = ref (List.hd vals) in
           for i = 1 to n do
             sum := A.addi b !sum (A.const_int b i)
           done;
           Dialects.Func.return b [ !sum ]))
  in
  let fanout () =
    fst
      (Helpers.with_func ~args:[ Types.i64 ] (fun b vals ->
           let a = List.hd vals in
           for _ = 1 to n do
             ignore (A.addi b a a)
           done))
  in
  let canonicalize = Sycl_core.Canonicalize.pass and dce = Sycl_core.Dce.pass in
  [
    allocation_per_op "canonicalize folds a chain of 8,000 constant/addi pairs in linear space"
      ~ops:(2 * n) chain [ canonicalize ];
    allocation_per_op "canonicalize erases 8,000 dead users of one value in linear space" ~ops:n
      fanout [ canonicalize ];
    allocation_per_op "dce erases 8,000 dead users of one value in linear space" ~ops:n fanout
      [ dce ];
  ]

let tests = ("ir-core", tests_list @ linked_cases @ scale_cases)
