(* Source-location tracking and the location-aware diagnostics engine:
   parser-recorded positions, loc(...) round-trips, clone/transform
   propagation (inline -> CallSite, kernel fusion -> Fused), located
   remarks / verifier diagnostics / race reports, and the per-pass
   location-coverage instrumentation. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types
module Interp = Sycl_sim.Interp
module Memory = Sycl_sim.Memory

let loc_t = Alcotest.testable (Fmt.of_to_string Loc.to_string) Loc.equal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Constructors and rendering                                          *)
(* ------------------------------------------------------------------ *)

let constructor_cases =
  [
    Alcotest.test_case "smart constructors canonicalize" `Quick (fun () ->
        let f = Loc.file ~file:"a.cpp" ~line:1 ~col:2 in
        Alcotest.(check loc_t) "callsite collapses unknown callee" f
          (Loc.callsite ~callee:Loc.unknown ~caller:f);
        Alcotest.(check loc_t) "callsite collapses unknown caller" f
          (Loc.callsite ~callee:f ~caller:Loc.unknown);
        Alcotest.(check loc_t) "fused [] is unknown" Loc.unknown (Loc.fused []);
        Alcotest.(check loc_t) "fused singleton unwraps" f (Loc.fused [ f ]);
        Alcotest.(check loc_t) "fused drops unknown, dedups, flattens"
          (Loc.fused [ f; Loc.name "k" ])
          (Loc.fused [ Loc.unknown; f; Loc.fused [ f; Loc.name "k" ] ]));
    Alcotest.test_case "resolve and diag_prefix walk the chain" `Quick (fun () ->
        let f = Loc.file ~file:"mm.cpp" ~line:7 ~col:3 in
        let l =
          Loc.callsite ~callee:(Loc.name ~child:f "body") ~caller:(Loc.name "host")
        in
        Alcotest.(check (option (triple string int int)))
          "resolves through callsite and name" (Some ("mm.cpp", 7, 3))
          (Loc.resolve l);
        Alcotest.(check string) "prefix" "mm.cpp:7:3: " (Loc.diag_prefix l);
        Alcotest.(check string) "unknown has no prefix" ""
          (Loc.diag_prefix Loc.unknown);
        Alcotest.(check bool) "describe says inlined from" true
          (contains (Loc.describe l) "inlined from"));
  ]

(* ------------------------------------------------------------------ *)
(* Parser positions and loc(...) round-trip                            *)
(* ------------------------------------------------------------------ *)

let parse_one_op src =
  let m = Parser.parse_module ~file:"in.mlir" src in
  let fn = List.hd (Core.module_block m).Core.body in
  (m, fn)

let parser_cases =
  [
    Alcotest.test_case "parser records textual positions" `Quick (fun () ->
        let m =
          Parser.parse_module ~file:"pos.mlir"
            "builtin.module() ({\n\
            \  func.func() ({\n\
            \  ^bb0():\n\
            \    %0 = arith.constant() {value = 1} : () -> (i64)\n\
            \    func.return() : () -> ()\n\
             \  }) {sym_name = \"f\", function_type = () -> ()} : () -> ()\n\
             }) : () -> ()"
        in
        let c = List.hd (Core.collect_named m "arith.constant") in
        (* Column of the start of the op statement (the result list). *)
        Alcotest.(check loc_t) "file:line:col of the op token"
          (Loc.file ~file:"pos.mlir" ~line:4 ~col:5)
          c.Core.loc);
    Alcotest.test_case "explicit loc(...) wins over the textual position"
      `Quick (fun () ->
        let m =
          Parser.parse_module ~file:"pos.mlir"
            "builtin.module() ({\n\
            \  test.global() {sym_name = @g} : () -> () loc(\"krn\"(\"k.cpp\":9:2))\n\
             }) : () -> ()"
        in
        let g = List.hd (Core.module_block m).Core.body in
        Alcotest.(check loc_t) "named loc parsed"
          (Loc.name ~child:(Loc.file ~file:"k.cpp" ~line:9 ~col:2) "krn")
          g.Core.loc);
    Alcotest.test_case "every constructor round-trips through loc(...)" `Quick
      (fun () ->
        List.iter
          (fun l ->
            let src =
              Printf.sprintf
                "builtin.module() ({\n\
                \  test.global() {sym_name = @g} : () -> () loc(%s)\n\
                 }) : () -> ()"
                (Loc.to_string l)
            in
            let m = Parser.parse_module src in
            let g = List.hd (Core.module_block m).Core.body in
            Alcotest.(check loc_t) (Loc.to_string l) l g.Core.loc;
            (* And the debuginfo print -> parse -> print fixpoint holds. *)
            match Difftest.check_roundtrip ~debuginfo:true m with
            | Ok () -> ()
            | Error f -> Alcotest.fail (Difftest.failure_to_string f))
          [
            Loc.unknown;
            Loc.file ~file:"a b\"c\\d.cpp" ~line:3 ~col:9;
            Loc.name "plain";
            Loc.name ~child:(Loc.file ~file:"x.cpp" ~line:1 ~col:1) "with child";
            Loc.CallSite
              {
                callee = Loc.name "callee";
                caller = Loc.file ~file:"host.cpp" ~line:12 ~col:4;
              };
            Loc.Fused
              [ Loc.file ~file:"a.cpp" ~line:1 ~col:1;
                Loc.file ~file:"b.cpp" ~line:2 ~col:2 ];
          ]);
    Alcotest.test_case "default printing never shows locations" `Quick (fun () ->
        let m, _ =
          parse_one_op
            "builtin.module() ({\n\
            \  test.global() {sym_name = @g} : () -> () loc(\"n\")\n\
             }) : () -> ()"
        in
        let s = Printer.to_string m in
        Alcotest.(check bool) "no loc( in default output" false
          (contains s "loc("));
    Alcotest.test_case "checked-in debuginfo golden round-trips byte-identically"
      `Quick (fun () ->
        let src =
          In_channel.with_open_text "../examples/matmul.loc.mlir"
            In_channel.input_all
        in
        let m = Parser.parse_module ~file:"../examples/matmul.loc.mlir" src in
        Alcotest.(check string) "print equals file" src
          (Printer.to_string ~debuginfo:true m);
        (* The kernel ops carry the generator's Name locations. *)
        let any_named = ref false in
        Core.walk m ~f:(fun op ->
            match op.Core.loc with
            | Loc.Name (_, Loc.File { file = "matmul.cpp"; _ }) ->
              any_named := true
            | _ -> ());
        Alcotest.(check bool) "named kernel locations present" true !any_named);
  ]

(* ------------------------------------------------------------------ *)
(* Builder defaults and clone                                          *)
(* ------------------------------------------------------------------ *)

let builder_cases =
  [
    Alcotest.test_case "builder stamps its default location" `Quick (fun () ->
        let stmt = Loc.name "stmt" in
        let m, _ =
          Helpers.with_func (fun b _ ->
              let before = A.const_index b 1 in
              Alcotest.(check loc_t) "unknown before set" Loc.unknown
                (Option.get (Core.defining_op before)).Core.loc;
              Builder.set_default_loc b stmt;
              let after = A.const_index b 2 in
              Alcotest.(check loc_t) "stamped" stmt
                (Option.get (Core.defining_op after)).Core.loc;
              Builder.with_loc b (Loc.name "inner") (fun () ->
                  let v = A.const_index b 3 in
                  Alcotest.(check loc_t) "scoped override" (Loc.name "inner")
                    (Option.get (Core.defining_op v)).Core.loc);
              let restored = A.const_index b 4 in
              Alcotest.(check loc_t) "with_loc restores" stmt
                (Option.get (Core.defining_op restored)).Core.loc)
        in
        Helpers.check_verifies m);
    Alcotest.test_case "scf region builders inherit the default" `Quick (fun () ->
        let stmt = Loc.name "loop-stmt" in
        let m, _ =
          Helpers.with_func (fun b _ ->
              Builder.set_default_loc b stmt;
              let zero = A.const_index b 0 in
              let four = A.const_index b 4 in
              let one = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:four ~step:one (fun bb _ _ ->
                     ignore (A.const_index bb 7);
                     [])))
        in
        Core.walk m ~f:(fun op ->
            if op.Core.name = "scf.yield" || op.Core.name = "arith.constant"
            then
              Alcotest.(check loc_t) (op.Core.name ^ " inherited") stmt
                op.Core.loc);
        Helpers.check_verifies m);
    Alcotest.test_case "clone preserves locations" `Quick (fun () ->
        let l = Loc.file ~file:"c.cpp" ~line:5 ~col:6 in
        let op =
          Core.create_op "arith.constant" ~operands:[]
            ~result_types:[ Types.i64 ] ~attrs:[ ("value", Attr.Int 3) ] ~loc:l
        in
        let clone = Core.clone_op op in
        Alcotest.(check loc_t) "same loc" l clone.Core.loc);
  ]

(* ------------------------------------------------------------------ *)
(* Transform propagation                                               *)
(* ------------------------------------------------------------------ *)

let transform_cases =
  [
    Alcotest.test_case "inlining wraps locations in call sites" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (Dialects.Func.func m "sq" ~args:[ Types.f32 ] ~results:[ Types.f32 ]
             (fun b vals ->
               Builder.set_default_loc b (Loc.name "sq-body");
               Dialects.Func.return b
                 [ A.mulf b (List.hd vals) (List.hd vals) ]));
        ignore
          (K.define m ~name:"k" ~dims:1 ~args:[ K.Acc (1, S.Write, Types.f32) ]
             (fun b ~item ~args ->
               let i = K.gid b item 0 in
               let x = A.sitofp b (A.index_cast b i Types.i64) Types.f32 in
               Builder.set_default_loc b (Loc.name "call-site");
               let y =
                 Dialects.Func.call1 b "sq" ~operands:[ x ] ~result:Types.f32
               in
               Builder.set_default_loc b Loc.unknown;
               K.acc_set b (List.hd args) [ i ] y));
        let stats = Pass.Stats.create () in
        Sycl_core.Inline.pass.Pass.run m stats;
        Helpers.check_verifies m;
        let k = Option.get (Core.lookup_func m "k") in
        let mulf = List.hd (Core.collect_named k "arith.mulf") in
        Alcotest.(check loc_t) "callee loc at caller loc"
          (Loc.CallSite
             { callee = Loc.name "sq-body"; caller = Loc.name "call-site" })
          mulf.Core.loc);
    Alcotest.test_case "kernel fusion fuses the kernels' locations" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        Test_fusion.chain_program m;
        (Option.get (Core.lookup_func m "prod")).Core.loc <- Loc.name "prod-src";
        (Option.get (Core.lookup_func m "cons")).Core.loc <- Loc.name "cons-src";
        ignore
          (Pass.run_pipeline ~verify_each:true
             [ Sycl_core.Host_raising.pass; Sycl_core.Canonicalize.pass;
               Sycl_core.Cse.pass ]
             m);
        let stats = Pass.Stats.create () in
        Sycl_core.Kernel_fusion.pass.Pass.run m stats;
        Alcotest.(check int) "fused once" 1 (Pass.Stats.get stats "fusion.fused");
        let fused =
          List.find
            (fun op ->
              op.Core.name = "func.func"
              && Core.has_attr op "sycl.kernel"
              && Core.func_sym op <> "prod" && Core.func_sym op <> "cons")
            (Core.module_block m).Core.body
        in
        Alcotest.(check loc_t) "fused location of both kernels"
          (Loc.fused [ Loc.name "prod-src"; Loc.name "cons-src" ])
          fused.Core.loc);
  ]

(* ------------------------------------------------------------------ *)
(* Diagnostics: remarks, verifier, races                               *)
(* ------------------------------------------------------------------ *)

let diagnostics_cases =
  [
    Alcotest.test_case "remarks render the anchor op's position" `Quick
      (fun () ->
        let op =
          Core.create_op "arith.addi" ~operands:[] ~result_types:[]
            ~loc:(Loc.file ~file:"mm.cpp" ~line:42 ~col:7)
        in
        let got = ref [] in
        Remarks.with_sink
          (fun r -> got := r :: !got)
          (fun () ->
            Remarks.emit ~pass:"licm" ~name:"hoisted" Remarks.Passed ~op
              "hoisted out of the loop");
        let r = List.hd !got in
        Alcotest.(check loc_t) "loc captured"
          (Loc.file ~file:"mm.cpp" ~line:42 ~col:7)
          r.Remarks.r_loc;
        Alcotest.(check bool) "file:line:col prefix" true
          (contains (Remarks.to_string r) "mm.cpp:42:7:"));
    Alcotest.test_case "full pipeline emits located remarks for parsed IR"
      `Quick (fun () ->
        let src =
          In_channel.with_open_text "../examples/matmul.mlir"
            In_channel.input_all
        in
        let m = Parser.parse_module ~file:"matmul.mlir" src in
        let located = ref 0 in
        let cfg = Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir in
        Remarks.with_sink
          (fun r ->
            if contains (Remarks.to_string r) "matmul.mlir:" then incr located)
          (fun () ->
            ignore
              (Pass.run_pipeline ~verify_each:false
                 (Sycl_core.Driver.pipeline cfg)
                 m));
        Alcotest.(check bool) "located remarks emitted" true (!located > 0));
    Alcotest.test_case "verifier names function, path and location" `Quick
      (fun () ->
        let m, f = Helpers.with_func ~name:"broken" (fun _ _ -> ()) in
        let body = Core.func_body f in
        let y_op =
          Core.create_op "arith.constant" ~operands:[]
            ~result_types:[ Types.i64 ] ~attrs:[ ("value", Attr.Int 1) ]
        in
        let x_op =
          Core.create_op "arith.addi"
            ~operands:[ Core.result y_op 0; Core.result y_op 0 ]
            ~result_types:[ Types.i64 ]
            ~loc:(Loc.file ~file:"use.cpp" ~line:3 ~col:14)
        in
        Core.prepend_op body x_op;
        Core.insert_after ~anchor:x_op y_op;
        match Verifier.verify m with
        | Ok () -> Alcotest.fail "expected a diagnostic"
        | Error (d :: _) ->
          let s = Verifier.diag_to_string d in
          Alcotest.(check bool) "file:line:col prefix" true
            (contains s "use.cpp:3:14:");
          Alcotest.(check bool) "names the function" true
            (contains s "@broken");
          Alcotest.(check bool) "op path" true (contains s "arith.addi#0")
        | Error [] -> Alcotest.fail "empty diagnostics");
    Alcotest.test_case "verifier context survives an unknown location" `Quick
      (fun () ->
        let m, f = Helpers.with_func ~name:"anon" (fun _ _ -> ()) in
        let body = Core.func_body f in
        (* Same dominance violation as above, but with no location. *)
        let y_op =
          Core.create_op "arith.constant" ~operands:[]
            ~result_types:[ Types.i64 ] ~attrs:[ ("value", Attr.Int 1) ]
        in
        let bad =
          Core.create_op "arith.addi"
            ~operands:[ Core.result y_op 0; Core.result y_op 0 ]
            ~result_types:[ Types.i64 ]
        in
        Core.prepend_op body bad;
        Core.insert_after ~anchor:bad y_op;
        match Verifier.verify m with
        | Ok () -> Alcotest.fail "expected a diagnostic"
        | Error (d :: _) ->
          let s = Verifier.diag_to_string d in
          Alcotest.(check loc_t) "no location" Loc.unknown d.Verifier.d_loc;
          Alcotest.(check bool) "function still named" true
            (contains s "@anon");
          Alcotest.(check bool) "path still present" true
            (contains s "arith.addi#0")
        | Error [] -> Alcotest.fail "empty diagnostics");
    Alcotest.test_case "race report points at the culprit store" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          K.define m ~name:"racy" ~dims:1
            ~args:[ K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let _i = K.gid b item 0 in
              Builder.set_default_loc b
                (Loc.file ~file:"racy.cpp" ~line:21 ~col:9);
              K.acc_set b out [ A.const_index b 0 ] (K.fconst b 1.0))
        in
        let c = Memory.alloc ~label:"out" ~size:32 () in
        let acc =
          Interp.Acc
            { Interp.a_alloc = c; a_range = [| 32 |]; a_mem_range = [| 32 |];
              a_offset = [| 0 |]; a_is_float = true }
        in
        match
          Interp.launch
            ~config:{ Helpers.sim with Sycl_sim.Sim_config.check_races = true }
            ~module_op:m ~kernel:k
            ~args:[| Interp.Item; acc |] ~global:[ 32 ] ~wg_size:[ 16 ] ()
        with
        | _ -> Alcotest.fail "expected Race_detected"
        | exception Interp.Race_detected races ->
          let r = List.hd races in
          Alcotest.(check loc_t) "store location recorded"
            (Loc.file ~file:"racy.cpp" ~line:21 ~col:9)
            r.Interp.r_loc;
          Alcotest.(check bool) "report renders it" true
            (contains (Interp.describe_race r) "racy.cpp:21:9"));
  ]

(* ------------------------------------------------------------------ *)
(* Location-coverage instrumentation                                   *)
(* ------------------------------------------------------------------ *)

let coverage_cases =
  [
    Alcotest.test_case "count_locs counts known-location ops" `Quick (fun () ->
        let m, _ =
          Helpers.with_func (fun b _ ->
              ignore (A.const_index b 1);
              Builder.set_default_loc b (Loc.name "s");
              ignore (A.const_index b 2))
        in
        let known, total = Instrument.count_locs m in
        (* module + func + return + two constants; the second constant and
           the return (inserted after set_default_loc) are located. *)
        Alcotest.(check int) "total" 5 total;
        Alcotest.(check int) "known" 2 known);
    Alcotest.test_case "coverage log flags location loss" `Quick (fun () ->
        let m, _ = Helpers.with_func (fun _ _ -> ()) in
        Core.walk m ~f:(fun op -> op.Core.loc <- Loc.name "seed");
        let loser =
          Pass.make "loser" (fun m' _ ->
              let f = List.hd (Core.module_block m').Core.body in
              Core.prepend_op (Core.func_body f)
                (Core.create_op "arith.constant" ~operands:[]
                   ~result_types:[ Types.i64 ] ~attrs:[ ("value", Attr.Int 0) ]))
        in
        let keeper = Pass.make "keeper" (fun _ _ -> ()) in
        let lc = Instrument.loc_coverage_log () in
        ignore
          (Pass.run_pipeline ~verify_each:false
             ~instrumentations:[ Instrument.loc_coverage lc ]
             [ keeper; loser ] m);
        match Instrument.loc_coverage_entries lc with
        | [ k; l ] ->
          Alcotest.(check string) "first entry" "keeper" k.Instrument.lc_pass;
          Alcotest.(check bool) "keeper keeps" false
            (Instrument.loc_coverage_lost k);
          Alcotest.(check string) "second entry" "loser" l.Instrument.lc_pass;
          Alcotest.(check bool) "loser flagged" true
            (Instrument.loc_coverage_lost l);
          Alcotest.(check int) "one more op" (k.Instrument.lc_after_total + 1)
            l.Instrument.lc_after_total
        | es ->
          Alcotest.failf "expected 2 coverage entries, got %d" (List.length es));
  ]

let tests =
  ( "loc",
    constructor_cases @ parser_cases @ builder_cases @ transform_cases
    @ diagnostics_cases @ coverage_cases )
