(* LICM tests (Section VI-A): pure-op hoisting, guarded load hoisting,
   refusal in the presence of clobbering stores, and runtime no-alias
   versioning. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types

let run_licm f =
  let stats = Pass.Stats.create () in
  Sycl_core.Licm.run_on_func f stats;
  stats

(* Is [op] (still) directly inside the body of [loop]? *)
let in_loop loop (op : Core.op) = Core.is_in_region loop.Core.regions.(0) op

let tests_list =
  [
    Alcotest.test_case "invariant pure ops hoist out of the loop" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.i64 ] (fun b vals ->
              let x = List.hd vals in
              let zero = A.const_index b 0 in
              let ten = A.const_index b 10 in
              let one = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:ten ~step:one (fun bb _iv _ ->
                     let y = A.muli bb x x in
                     ignore (A.addi bb y y);
                     [])))
        in
        ignore (run_licm f);
        Helpers.check_verifies m;
        let loop = List.hd (Core.collect_named f "scf.for") in
        let mul = List.hd (Core.collect_named f "arith.muli") in
        Alcotest.(check bool) "mul hoisted" false (in_loop loop mul));
    Alcotest.test_case "iv-dependent ops stay" `Quick (fun () ->
        let _m, f =
          Helpers.with_func (fun b _ ->
              let zero = A.const_index b 0 in
              let ten = A.const_index b 10 in
              let one = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:ten ~step:one (fun bb iv _ ->
                     ignore (A.addi bb iv iv);
                     [])))
        in
        ignore (run_licm f);
        let loop = List.hd (Core.collect_named f "scf.for") in
        let add = List.hd (Core.collect_named f "arith.addi") in
        Alcotest.(check bool) "stays in loop" true (in_loop loop add));
    Alcotest.test_case "invariant load hoists with a trip-count guard" `Quick
      (fun () ->
        (* Loop reads a[0] every iteration and writes b[iv]; a and b are
           proven disjoint (host facts), so the load hoists and the loop
           is wrapped in a versioning scf.if. *)
        let m, f =
          Helpers.with_kernel ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32);
                    K.Scal Types.Index ]
            (fun b ~item:_ ~args ->
              match args with
              | [ a; out; n ] ->
                let zero = A.const_index b 0 in
                let one = A.const_index b 1 in
                let a0 = K.acc_view b a [ zero ] in
                let _ = a0 in
                ignore
                  (Dialects.Scf.for_ b ~lb:zero ~ub:n ~step:one (fun bb iv _ ->
                       let v = Dialects.Memref.load bb a0 [ zero ] in
                       K.acc_set bb out [ iv ] v;
                       []))
              | _ -> assert false)
        in
        let k = Option.get (Core.lookup_func m "k") in
        Sycl_core.Alias.add_noalias_pair k 1 2;
        let stats = run_licm f in
        Helpers.check_verifies m;
        Alcotest.(check int) "one memory hoist" 1
          (Pass.Stats.get stats "licm.hoisted-mem");
        Alcotest.(check int) "versioning if present" 1 (Helpers.count_ops f "scf.if");
        (* The hoisted load lives in the then-branch, before the loop. *)
        let if_op = List.hd (Core.collect_named f "scf.if") in
        let then_block = Core.entry_block if_op.Core.regions.(0) in
        Alcotest.(check bool) "load before loop in then-branch" true
          (match Core.first_op then_block with
          | Some first -> first.Core.name = "memref.load"
          | None -> false));
    Alcotest.test_case "load blocked by a must-aliasing store" `Quick (fun () ->
        let _m, f =
          Helpers.with_kernel ~dims:1
            ~args:[ K.Acc (1, S.Read_write, Types.f32); K.Scal Types.Index ]
            (fun b ~item:_ ~args ->
              match args with
              | [ a; n ] ->
                let zero = A.const_index b 0 in
                let one = A.const_index b 1 in
                let a0 = K.acc_view b a [ zero ] in
                ignore
                  (Dialects.Scf.for_ b ~lb:zero ~ub:n ~step:one (fun bb _iv _ ->
                       let v = Dialects.Memref.load bb a0 [ zero ] in
                       Dialects.Memref.store bb (A.addf bb v v) a0 [ zero ];
                       []))
              | _ -> assert false)
        in
        let stats = run_licm f in
        Alcotest.(check int) "nothing hoisted" 0
          (Pass.Stats.get stats "licm.hoisted-mem");
        let loop = List.hd (Core.collect_named f "scf.for") in
        let load = List.hd (Core.collect_named f "memref.load") in
        Alcotest.(check bool) "load still in loop" true (in_loop loop load));
    Alcotest.test_case
      "may-alias with another accessor versions on runtime disjointness" `Quick
      (fun () ->
        (* Without host no-alias facts, a[0] may alias the b[iv] stores;
           LICM emits a sycl.accessor.distinct runtime check. *)
        let m, f =
          Helpers.with_kernel ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32);
                    K.Scal Types.Index ]
            (fun b ~item:_ ~args ->
              match args with
              | [ a; out; n ] ->
                let zero = A.const_index b 0 in
                let one = A.const_index b 1 in
                let a0 = K.acc_view b a [ zero ] in
                ignore
                  (Dialects.Scf.for_ b ~lb:zero ~ub:n ~step:one (fun bb iv _ ->
                       let v = Dialects.Memref.load bb a0 [ zero ] in
                       K.acc_set bb out [ iv ] v;
                       []))
              | _ -> assert false)
        in
        let stats = run_licm f in
        Helpers.check_verifies m;
        Alcotest.(check int) "versioned on no-alias" 1
          (Pass.Stats.get stats "licm.versioned-noalias");
        Alcotest.(check int) "distinct check emitted" 1
          (Helpers.count_ops f "sycl.accessor.distinct"));
    Alcotest.test_case "pure-only LICM (DPC++ baseline) hoists no loads" `Quick
      (fun () ->
        let m, f =
          Helpers.with_kernel ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32);
                    K.Scal Types.Index ]
            (fun b ~item:_ ~args ->
              match args with
              | [ a; out; n ] ->
                let zero = A.const_index b 0 in
                let one = A.const_index b 1 in
                let a0 = K.acc_view b a [ zero ] in
                ignore
                  (Dialects.Scf.for_ b ~lb:zero ~ub:n ~step:one (fun bb iv _ ->
                       let v = Dialects.Memref.load bb a0 [ zero ] in
                       K.acc_set bb out [ iv ] v;
                       []))
              | _ -> assert false)
        in
        ignore m;
        let stats = Pass.Stats.create () in
        Sycl_core.Driver.licm_pure_pass.Pass.run
          (Option.get (Sycl_core.Driver.top_module f))
          stats;
        let loop = List.hd (Core.collect_named f "scf.for") in
        let load = List.hd (Core.collect_named f "memref.load") in
        Alcotest.(check bool) "load still in loop" true (in_loop loop load);
        Alcotest.(check int) "no scf.if introduced" 0 (Helpers.count_ops f "scf.if"));
  ]

let tests = ("licm", tests_list)
