(* Greedy rewriting, canonicalization, CSE and DCE tests. *)

open Mlir
module A = Dialects.Arith

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_pass pass m =
  let stats = Pass.Stats.create () in
  pass.Pass.run m stats;
  stats

(* A function whose body is a [depth]-deep chain of dead addi ops rooted
   at the argument: the tip is unused, so greedy DCE must cascade from
   the tip back — one op per sweep under a bounded re-walk driver. *)
let dead_chain_module depth =
  Helpers.with_func ~args:[ Types.i64 ] (fun b vals ->
      let x = List.hd vals in
      let rec grow v n = if n = 0 then () else grow (A.addi b v x) (n - 1) in
      grow x depth)

let tests_list =
  [
    Alcotest.test_case "constants fold through arithmetic chains" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~results:[ Types.i64 ] (fun b _ ->
              let x = A.const_int b 6 in
              let y = A.const_int b 7 in
              let s = A.muli b x y in
              let t = A.addi b s (A.const_int b 8) in
              Dialects.Func.return b [ t ])
        in
        ignore (run_pass Sycl_core.Canonicalize.pass m);
        (* Everything folds to one constant feeding the return. *)
        let consts = Core.collect_named f "arith.constant" in
        check_int "muls gone" 0 (Helpers.count_ops f "arith.muli");
        check_bool "result constant is 50" true
          (List.exists (fun c -> Core.attr c "value" = Some (Attr.Int 50)) consts));
    Alcotest.test_case "dead pure ops erased" `Quick (fun () ->
        let m, f =
          Helpers.with_func (fun b _ ->
              let x = A.const_int b 1 in
              ignore (A.addi b x x))
        in
        ignore (run_pass Sycl_core.Dce.pass m);
        check_int "body only has return" 1 (List.length (Core.ops (Core.func_body f))));
    Alcotest.test_case "scf.if with constant condition inlines taken branch" `Quick
      (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.f32 ] (fun b vals ->
              let mem = List.hd vals in
              let c = A.const_bool b false in
              ignore
                (Dialects.Scf.if_ b c
                   ~then_:(fun bb ->
                     Dialects.Memref.store bb (A.const_float bb 1.0) mem
                       [ A.const_index bb 0 ];
                     [])
                   ~else_:(fun bb ->
                     Dialects.Memref.store bb (A.const_float bb 2.0) mem
                       [ A.const_index bb 0 ];
                     [])
                   ()))
        in
        ignore (run_pass Sycl_core.Canonicalize.pass m);
        check_int "if gone" 0 (Helpers.count_ops f "scf.if");
        let stores = Core.collect_named f "memref.store" in
        check_int "one store left" 1 (List.length stores);
        (* The else branch (2.0) was taken. *)
        let v, _, _ = Dialects.Memref.store_parts (List.hd stores) in
        check_bool "took else" true
          (Core.attr (Option.get (Core.defining_op v)) "value" = Some (Attr.Float 2.0)));
    Alcotest.test_case "zero-trip scf.for folds away" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.f32 ] (fun b vals ->
              let mem = List.hd vals in
              let lb = A.const_index b 5 in
              let ub = A.const_index b 5 in
              let one = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb ~ub ~step:one (fun bb iv _ ->
                     Dialects.Memref.store bb (A.const_float bb 1.0) mem [ iv ];
                     [])))
        in
        ignore (run_pass Sycl_core.Canonicalize.pass m);
        check_int "loop gone" 0 (Helpers.count_ops f "scf.for");
        check_int "store gone" 0 (Helpers.count_ops f "memref.store"));
    Alcotest.test_case "zero-trip loop with iter_args yields inits" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~results:[ Types.f32 ] (fun b _ ->
              let lb = A.const_index b 3 in
              let ub = A.const_index b 1 in
              let one = A.const_index b 1 in
              let init = A.const_float b 9.0 in
              let loop =
                Dialects.Scf.for_ b ~lb ~ub ~step:one ~iter_args:[ init ]
                  (fun bb _ args -> [ A.addf bb (List.hd args) (List.hd args) ])
              in
              Dialects.Func.return b [ Core.result loop 0 ])
        in
        ignore (run_pass Sycl_core.Canonicalize.pass m);
        check_int "loop gone" 0 (Helpers.count_ops f "scf.for");
        let ret = List.hd (Core.collect_named f "func.return") in
        check_bool "returns the init constant" true
          (Core.attr (Option.get (Core.defining_op (Core.operand ret 0))) "value"
          = Some (Attr.Float 9.0)));
    Alcotest.test_case "CSE merges identical pure ops" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.i64 ] ~results:[ Types.i64 ] (fun b vals ->
              let x = List.hd vals in
              let a = A.addi b x x in
              let b2 = A.addi b x x in
              Dialects.Func.return b [ A.muli b a b2 ])
        in
        ignore (run_pass Sycl_core.Cse.pass m);
        check_int "one addi left" 1 (Helpers.count_ops f "arith.addi"));
    Alcotest.test_case "CSE respects result types" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~results:[ Types.Index; Types.i32 ] (fun b _ ->
              let a = A.const_index b 0 in
              let b2 = A.const_int b ~ty:Types.i32 0 in
              Dialects.Func.return b [ a; b2 ])
        in
        ignore (run_pass Sycl_core.Cse.pass m);
        check_int "both constants kept" 2 (Helpers.count_ops f "arith.constant"));
    Alcotest.test_case "CSE works across region nesting (outer visible inside)" `Quick
      (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.f32 ] (fun b vals ->
              let mem = List.hd vals in
              let zero = A.const_index b 0 in
              let c = A.const_bool b true in
              ignore
                (Dialects.Scf.if_ b c
                   ~then_:(fun bb ->
                     let zero' = A.const_index bb 0 in
                     Dialects.Memref.store bb (A.const_float bb 1.0) mem [ zero' ];
                     [])
                   ());
              ignore zero)
        in
        ignore (run_pass Sycl_core.Cse.pass m);
        (* The inner index 0 merged with the outer one. *)
        let consts =
          List.filter
            (fun (o : Core.op) -> Core.attr o "value" = Some (Attr.Int 0))
            (Core.collect_named f "arith.constant")
        in
        check_int "one zero constant" 1 (List.length consts));
    Alcotest.test_case "CSE does not merge loads" `Quick (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.f32 ]
            ~results:[ Types.f32 ] (fun b vals ->
              let mem = List.hd vals in
              let zero = A.const_index b 0 in
              let a = Dialects.Memref.load b mem [ zero ] in
              Dialects.Memref.store b (A.const_float b 3.0) mem [ zero ];
              let c = Dialects.Memref.load b mem [ zero ] in
              Dialects.Func.return b [ A.addf b a c ])
        in
        ignore (run_pass Sycl_core.Cse.pass m);
        check_int "two loads kept" 2 (Helpers.count_ops f "memref.load"));
    Alcotest.test_case "dead alloca with only stores removed" `Quick (fun () ->
        let m, f =
          Helpers.with_func (fun b _ ->
              let mem = Dialects.Memref.alloca b [ 4 ] Types.f32 in
              Dialects.Memref.store b (A.const_float b 1.0) mem [ A.const_index b 0 ])
        in
        ignore (run_pass Sycl_core.Dce.pass m);
        check_int "alloca gone" 0 (Helpers.count_ops f "memref.alloca");
        check_int "store gone" 0 (Helpers.count_ops f "memref.store"));
    Alcotest.test_case "alloca with a load survives DCE when load is used" `Quick
      (fun () ->
        let m, f =
          Helpers.with_func ~results:[ Types.f32 ] (fun b _ ->
              let mem = Dialects.Memref.alloca b [ 4 ] Types.f32 in
              Dialects.Memref.store b (A.const_float b 1.0) mem [ A.const_index b 0 ];
              let v = Dialects.Memref.load b mem [ A.const_index b 0 ] in
              Dialects.Func.return b [ v ])
        in
        ignore (run_pass Sycl_core.Dce.pass m);
        check_int "alloca kept" 1 (Helpers.count_ops f "memref.alloca"));
    Alcotest.test_case "constant_of_value sees through defining constant" `Quick
      (fun () ->
        let _m, _f =
          Helpers.with_func (fun b _ ->
              let x = A.const_int b 5 in
              check_bool "constant recovered" true
                (Rewrite.constant_of_value x = Some (Attr.Int 5)))
        in
        ());
    Alcotest.test_case "canonicalize folds sitofp of folded index math" `Quick
      (fun () ->
        let m, f =
          Helpers.with_func ~results:[ Types.f32 ] (fun b _ ->
              let n = A.const_index b 64 in
              let cast = A.index_cast b n Types.i64 in
              Dialects.Func.return b [ A.sitofp b cast Types.f32 ])
        in
        ignore (run_pass Sycl_core.Canonicalize.pass m);
        check_int "no casts left" 0
          (Helpers.count_ops f "arith.index_cast" + Helpers.count_ops f "arith.sitofp");
        let ret = List.hd (Core.collect_named f "func.return") in
        check_bool "returns 64.0" true
          (Core.attr (Option.get (Core.defining_op (Core.operand ret 0))) "value"
          = Some (Attr.Float 64.0)));
    (* --- Worklist driver: no silent max_iterations cutoff. ------------- *)
    Alcotest.test_case "worklist driver fully folds chains deeper than the old bound"
      `Quick (fun () ->
        (* A 40-deep dead addi chain: each sweep of a bounded re-walk
           driver erases only the unused tip, so 10 sweeps left 30 dead
           ops behind. The worklist reaches the fixpoint in one run. *)
        let m, f = dead_chain_module 40 in
        let st = Rewrite.apply_worklist m Sycl_core.Canonicalize.patterns in
        check_int "whole chain erased" 40 st.Rewrite.rw_rewrites;
        check_int "no dead ops left" 0 (Helpers.count_ops f "arith.addi");
        (* Cost proportional to the scope: each addi is visited from the
           seed and again when its user goes, and the function again
           after each erasure in it — at most three visits per op, where
           ten bounded sweeps made ten. *)
        check_bool
          (Printf.sprintf "at most three visits per op (%d)"
             st.Rewrite.rw_ops_visited)
          true
          (st.Rewrite.rw_ops_visited <= 3 * (40 + 2)));
    Alcotest.test_case "canonicalize pass reaches fixpoint via the default driver"
      `Quick (fun () ->
        let m, f = dead_chain_module 40 in
        let stats = run_pass Sycl_core.Canonicalize.pass m in
        check_int "no dead ops left" 0 (Helpers.count_ops f "arith.addi");
        check_int "rewrites counted" 40 (Pass.Stats.get stats "rewrites");
        check_bool "ops-visited counter populated" true
          (Pass.Stats.get stats "canonicalize.ops_visited" > 0));
    Alcotest.test_case "worklist cap raises a loud diagnostic instead of stopping"
      `Quick (fun () ->
        let m, _f = dead_chain_module 12 in
        match Rewrite.apply_worklist ~cap:3 m Sycl_core.Canonicalize.patterns with
        | _ -> Alcotest.fail "expected Cap_exceeded"
        | exception Rewrite.Cap_exceeded { scope; rewrites; cap } ->
          check_int "cap echoed" 3 cap;
          check_bool "rewrite count past the cap" true (rewrites > cap);
          check_bool "scope names the rewritten region" true
            (scope = "builtin.module"));
    Alcotest.test_case "GEMM module: worklist seeded from stamps matches a full sweep"
      `Quick (fun () ->
        (* The GEMM module raised, inlined and canonicalized, then
           changed by CSE and LICM: a canonicalize seeded with the ops
           stamped since the first one ended reaches the full sweep's
           fixpoint byte for byte, with the same rewrites and strictly
           fewer visits. *)
        let w = Sycl_workloads.Polybench.gemm ~n:8 in
        let canonicalize ~seeded =
          let m = w.Sycl_workloads.Common.w_module () in
          ignore
            (Pass.run_pipeline
               [ Sycl_core.Host_raising.pass; Sycl_core.Inline.pass;
                 Sycl_core.Canonicalize.pass ]
               m);
          let since = Core.generation () in
          ignore
            (Pass.run_pipeline [ Sycl_core.Cse.pass; Sycl_core.Licm.pass ] m);
          let since = if seeded then Some since else None in
          let st =
            Rewrite.apply_worklist ?since m Sycl_core.Canonicalize.patterns
          in
          (st, Printer.to_string m)
        in
        let f_st, f_ir = canonicalize ~seeded:false in
        let s_st, s_ir = canonicalize ~seeded:true in
        check_int "same rewrites" f_st.Rewrite.rw_rewrites
          s_st.Rewrite.rw_rewrites;
        check_bool
          (Printf.sprintf "seeded run visits fewer ops (full %d, seeded %d)"
             f_st.Rewrite.rw_ops_visited s_st.Rewrite.rw_ops_visited)
          true
          (s_st.Rewrite.rw_ops_visited < f_st.Rewrite.rw_ops_visited);
        check_bool "byte-identical canonicalized module" true (f_ir = s_ir));
    (* --- CSE structural key: interned, printer-consistent attributes. --- *)
    Alcotest.test_case "CSE keeps 0.0 and -0.0 constants distinct" `Quick (fun () ->
        (* Polymorphic compare says 0.0 = -0.0, so the seed key merged
           them — miscompiling e.g. 1.0 /. x. The interned key uses the
           printed form, which distinguishes the sign. *)
        let m, f =
          Helpers.with_func ~results:[ Types.f32 ] (fun b _ ->
              let pz = A.const_float b 0.0 in
              let nz = A.const_float b (-0.0) in
              Dialects.Func.return b [ A.addf b pz nz ])
        in
        ignore (run_pass Sycl_core.Cse.pass m);
        check_int "both zero constants kept" 2 (Helpers.count_ops f "arith.constant");
        (* Round-trip through the printer: the parsed module keys the
           same way. *)
        let m' = Parser.parse_module (Printer.to_string m) in
        ignore (run_pass Sycl_core.Cse.pass m');
        check_int "still distinct after round-trip" 2
          (Helpers.count_ops m' "arith.constant"));
    Alcotest.test_case "CSE keys nan constants consistently with the printer" `Quick
      (fun () ->
        (* Distinct nan payloads print identically ("nan"), so they key
           identically — exactly what a printer round-trip produces. *)
        let nan_a = Int64.float_of_bits 0x7FF8000000000000L in
        let nan_b = Int64.float_of_bits 0x7FF8000000000001L in
        let m, f =
          Helpers.with_func ~results:[ Types.f32 ] (fun b _ ->
              let x = A.const_float b nan_a in
              let y = A.const_float b nan_b in
              Dialects.Func.return b [ A.addf b x y ])
        in
        ignore (run_pass Sycl_core.Cse.pass m);
        check_int "identically printed nans merged" 1
          (Helpers.count_ops f "arith.constant");
        let m' = Parser.parse_module (Printer.to_string m) in
        ignore (run_pass Sycl_core.Cse.pass m');
        check_int "round-trip agrees" 1 (Helpers.count_ops m' "arith.constant"));
    Alcotest.test_case "CSE still distinguishes same value at different types" `Quick
      (fun () ->
        let m, f =
          Helpers.with_func ~results:[ Types.i64 ] (fun b _ ->
              let a = A.const_int b 7 in
              let c = A.const_int b ~ty:Types.i32 7 in
              ignore c;
              Dialects.Func.return b [ a ])
        in
        ignore (run_pass Sycl_core.Cse.pass m);
        (* i32 7 is unused but CSE does not DCE; both remain. *)
        check_int "types keep constants apart" 2
          (Helpers.count_ops f "arith.constant"));
  ]

let root_cases =
  [
    Alcotest.test_case "a pattern rooted at arith.addi is tried on no other op" `Quick
      (fun () ->
        let m, _ =
          Helpers.with_func ~args:[ Types.i64 ] ~results:[ Types.i64 ] (fun b vals ->
              let a = List.hd vals in
              let s = A.addi b (A.muli b (A.addi b a a) a) a in
              Dialects.Func.return b [ s ])
        in
        let tried = ref [] in
        let probe ?roots name =
          Rewrite.pattern ?roots name (fun op ->
              tried := (name, op.Core.name) :: !tried;
              false)
        in
        let st =
          Rewrite.apply_worklist m [ probe "any"; probe ~roots:[ "arith.addi" ] "addi" ]
        in
        check_int "no rewrite" 0 st.Rewrite.rw_rewrites;
        Alcotest.(check (list (pair string string)))
          "patterns tried, in visit and declaration order"
          [ ("any", "func.func"); ("any", "arith.addi"); ("addi", "arith.addi");
            ("any", "arith.muli"); ("any", "arith.addi"); ("addi", "arith.addi");
            ("any", "func.return") ]
          (List.rev !tried));
    Alcotest.test_case "cse over 1,000 distinct constants adds no atom" `Quick (fun () ->
        let m, f =
          Helpers.with_func (fun b _ ->
              for i = 0 to 999 do
                ignore (A.const_int b (7_000_000 + i))
              done)
        in
        ignore m;
        (* Atoms are dense: the probes are consecutive when nothing was
           interned between them. *)
        let first = Atom.intern "cse-atom-probe.first" in
        let stats = Pass.Stats.create () in
        Sycl_core.Cse.run_on_func f stats;
        let second = Atom.intern "cse-atom-probe.second" in
        check_int "candidates" 1000 (Pass.Stats.get stats "cse.candidates");
        check_int "atoms interned by cse" 0 (second - first - 1));
  ]

let tests = ("rewrite", tests_list @ root_cases)
