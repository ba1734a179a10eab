(* Round-trip regression tests for the bugs fixed by the differential
   harness (ISSUE 2), property-style coverage of every Attr.t
   constructor, CFG/successor round-trips and the fixed-seed Irgen
   battery, plus the harness's own machinery (verify-each attribution
   and pass bisection). *)

open Mlir

(* Attribute carried through a full op print→parse cycle; checked both
   textually and structurally (Attr.equal is nan-safe). *)
let attr_case name a =
  Alcotest.test_case ("attr " ^ name) `Quick (fun () ->
      let op =
        Core.create_op "test.op" ~operands:[] ~result_types:[]
          ~attrs:[ ("value", a) ]
      in
      let s = Printer.to_string op in
      let op' = Parser.parse_string s in
      Alcotest.(check string) "textual fixpoint" s (Printer.to_string op');
      match Core.attr op' "value" with
      | Some a' ->
        Alcotest.(check bool) "structural equality" true (Attr.equal a a')
      | None -> Alcotest.fail "attr lost in round trip")

let parse_op_fails name src =
  Alcotest.test_case ("error: " ^ name) `Quick (fun () ->
      match Parser.parse_string src with
      | _ -> Alcotest.fail "expected a parse error"
      | exception Parser.Parse_error _ -> ())

let attr_cases =
  [
    attr_case "unit" Attr.Unit;
    attr_case "bool true" (Attr.Bool true);
    attr_case "bool false" (Attr.Bool false);
    attr_case "int" (Attr.Int 42);
    attr_case "int min" (Attr.Int min_int);
    attr_case "int max" (Attr.Int max_int);
    attr_case "float 1.2" (Attr.Float 1.2);
    attr_case "float 0.1" (Attr.Float 0.1);
    attr_case "float -0.0" (Attr.Float (-0.0));
    attr_case "float nan" (Attr.Float Float.nan);
    attr_case "float infinity" (Attr.Float Float.infinity);
    attr_case "float -infinity" (Attr.Float Float.neg_infinity);
    attr_case "float max_float" (Attr.Float Float.max_float);
    attr_case "float subnormal" (Attr.Float 4.9e-324);
    attr_case "float 17 digits" (Attr.Float 1.0000000000000002);
    attr_case "float whole" (Attr.Float 3.0);
    attr_case "string empty" (Attr.String "");
    attr_case "string plain" (Attr.String "hello world");
    attr_case "string quote" (Attr.String "a\"b");
    attr_case "string backslash" (Attr.String "a\\b");
    attr_case "string newline tab" (Attr.String "a\nb\tc");
    attr_case "string nul byte" (Attr.String "a\000b");
    attr_case "string carriage return" (Attr.String "a\rb");
    attr_case "string high bytes" (Attr.String "caf\xc3\xa9\xff");
    attr_case "string question mark" (Attr.String "what?no");
    attr_case "type scalar" (Attr.Type Types.i32);
    attr_case "type dynamic memref" (Attr.Type (Types.memref_dyn Types.f32));
    attr_case "type function" (Attr.Type (Types.Function ([ Types.i32 ], [])));
    attr_case "symbol" (Attr.Symbol "kernel0");
    attr_case "array nested"
      (Attr.Array
         [ Attr.Int 1; Attr.Array [ Attr.Float Float.nan; Attr.String "x" ];
           Attr.Unit ]);
    attr_case "dense_int" (Attr.Dense_int [| 1; -2; 3 |]);
    attr_case "dense_float specials"
      (Attr.Dense_float [| 1.5; Float.nan; Float.neg_infinity; -0.0; 0.1 |]);
    attr_case "affine_map"
      (Attr.Affine_map
         (Affine_expr.Map.make ~num_dims:2 ~num_syms:1
            [ Affine_expr.add (Affine_expr.dim 0) (Affine_expr.sym 0);
              Affine_expr.mul (Affine_expr.dim 1) (Affine_expr.const 4) ]));
  ]

let regression_cases =
  [
    (* The old %h printing emitted hex float literals; those must now be
       an explicit parse error, not silently mis-lexed. *)
    parse_op_fails "hex float literal"
      "%0 = arith.constant() {value = 0x1.8p+1} : () -> (f32)";
    parse_op_fails "negative hex float literal"
      "%0 = arith.constant() {value = -0x1.8p+1} : () -> (f32)";
    (* The old %S printing emitted decimal escapes like \123 which
       lex_string corrupted into the literal digits; unknown escapes are
       now rejected. *)
    parse_op_fails "decimal string escape"
      "test.op() {s = \"a\\123b\"}";
    parse_op_fails "unknown string escape"
      "test.op() {s = \"a\\qb\"}";
    parse_op_fails "truncated hex string escape"
      "test.op() {s = \"a\\x4\"}";
    Alcotest.test_case "hex string escape reads back" `Quick (fun () ->
        let op = Parser.parse_string "test.op() {s = \"a\\x00\\x7Fb\"}" in
        Alcotest.(check bool) "bytes" true
          (Core.attr op "s" = Some (Attr.String "a\000\127b")));
    (* '?' inside string literals used to be corrupted by the old
       dynamic-dim preprocessing pass over the raw source. *)
    Alcotest.test_case "question mark in string with dynamic memref" `Quick
      (fun () ->
        let op =
          Parser.parse_string
            "%0 = test.op() {s = \"really?\"} : () -> (memref<? x f32>)"
        in
        Alcotest.(check bool) "string intact" true
          (Core.attr op "s" = Some (Attr.String "really?"));
        let s = Printer.to_string op in
        Alcotest.(check string) "fixpoint" s
          (Printer.to_string (Parser.parse_string s)));
    (* -infinity and dense_f specials used to fail to re-parse. *)
    Alcotest.test_case "negative infinity parses" `Quick (fun () ->
        let op =
          Parser.parse_string
            "%0 = arith.constant() {value = -infinity} : () -> (f64)"
        in
        Alcotest.(check bool) "is -inf" true
          (Core.attr op "value" = Some (Attr.Float Float.neg_infinity)));
  ]

(* ------------------------------------------------------------------ *)
(* CFG / successor round-trips                                         *)
(* ------------------------------------------------------------------ *)

(* A func.func with a multi-block body: entry branches (conditionally)
   forward, a middle block loops back — exercising forward and backward
   successor references and block-argument headers. *)
let cfg_module () =
  let m = Helpers.fresh_module () in
  let body = Core.module_block m in
  let entry = Core.create_block () in
  let loop = Core.create_block ~args:[ Types.i32 ] () in
  let exit = Core.create_block () in
  let cond =
    Core.create_op "arith.constant" ~operands:[] ~result_types:[ Types.i1 ]
      ~attrs:[ ("value", Attr.Bool true) ]
  in
  Core.append_op entry cond;
  Core.append_op entry
    (Core.create_op "cf.cond_br"
       ~operands:[ Core.result cond 0 ]
       ~result_types:[] ~successors:[ loop; exit ]);
  Core.append_op loop
    (Core.create_op "cf.br" ~operands:[] ~result_types:[] ~successors:[ loop ]);
  Core.append_op exit
    (Core.create_op "func.return" ~operands:[] ~result_types:[]);
  let region = Core.create_region ~blocks:[ entry; loop; exit ] () in
  Core.append_op body
    (Core.create_op "func.func" ~operands:[] ~result_types:[]
       ~attrs:
         [ ("sym_name", Attr.String "cfg");
           ("function_type", Attr.Type (Types.Function ([], []))) ]
       ~regions:[ region ]);
  m

let cfg_cases =
  [
    Alcotest.test_case "multi-block CFG round-trips" `Quick (fun () ->
        let m = cfg_module () in
        let s = Printer.to_string m in
        let m' = Parser.parse_module s in
        Alcotest.(check string) "fixpoint" s (Printer.to_string m');
        (* And the parsed copy must satisfy the verifier's successor
           rules (terminator-only, same-region, block-ending). *)
        match Verifier.verify m' with
        | Ok () -> ()
        | Error ds ->
          Alcotest.failf "parsed CFG fails verification: %s"
            (String.concat "; " (List.map Verifier.diag_to_string ds)));
    Alcotest.test_case "argument-less successor target keeps its label" `Quick
      (fun () ->
        (* Regression: a single-block region whose block is a successor
           target must print a ^bb0 header or the branch cannot re-parse. *)
        let b = Core.create_block () in
        let op =
          Core.create_op "test.wrap" ~operands:[] ~result_types:[]
            ~regions:[ Core.create_region ~blocks:[ b ] () ]
        in
        Core.append_op b
          (Core.create_op "cf.br" ~operands:[] ~result_types:[]
             ~successors:[ b ]);
        let s = Printer.to_string op in
        Alcotest.(check bool) "header printed" true
          (String.length s > 0
          &&
          match String.index_opt s '^' with Some _ -> true | None -> false);
        Alcotest.(check string) "fixpoint" s
          (Printer.to_string (Parser.parse_string s)));
    parse_op_fails "undefined successor label"
      "test.wrap() ({ ^bb0(): cf.br()[^nowhere] })";
    parse_op_fails "duplicate block label"
      "test.wrap() ({ ^bb0(): test.op() ^bb0(): test.op() })";
    Alcotest.test_case "verifier rejects successors on non-terminators" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let body = Core.module_block m in
        let b = Core.create_block () in
        Core.append_op b
          (Core.create_op "test.notaterm" ~operands:[] ~result_types:[]
             ~successors:[ b ]);
        Core.append_op b
          (Core.create_op "scf.yield" ~operands:[] ~result_types:[]);
        Core.append_op body
          (Core.create_op "scf.execute_region" ~operands:[] ~result_types:[]
             ~regions:[ Core.create_region ~blocks:[ b ] () ]);
        match Verifier.verify m with
        | Ok () -> Alcotest.fail "expected a verifier diagnostic"
        | Error _ -> ());
    Alcotest.test_case "verifier rejects foreign-region successors" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let body = Core.module_block m in
        let mk_region term =
          let b = Core.create_block () in
          Core.append_op b term;
          (b, Core.create_region ~blocks:[ b ] ())
        in
        let b1, r1 =
          mk_region (Core.create_op "scf.yield" ~operands:[] ~result_types:[])
        in
        ignore b1;
        (* The branch in region 2 targets region 1's block. *)
        let _b2, r2 =
          mk_region
            (Core.create_op "cf.br" ~operands:[] ~result_types:[]
               ~successors:[ b1 ])
        in
        Core.append_op body
          (Core.create_op "scf.execute_region" ~operands:[] ~result_types:[]
             ~regions:[ r1; r2 ]);
        match Verifier.verify m with
        | Ok () -> Alcotest.fail "expected a verifier diagnostic"
        | Error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Fixed-seed Irgen battery                                            *)
(* ------------------------------------------------------------------ *)

let irgen_cases =
  [
    Alcotest.test_case "irgen battery (200 seeds)" `Quick (fun () ->
        for seed = 0 to 199 do
          let g = Irgen.create seed in
          match Difftest.check_roundtrip (Irgen.gen_module g) with
          | Ok () -> ()
          | Error f ->
            Alcotest.failf "seed %d: %s" seed (Difftest.failure_to_string f)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Harness machinery: verify-each attribution and pass bisection       *)
(* ------------------------------------------------------------------ *)

(* A pass that corrupts the module in a verifier-visible way: it gives a
   non-terminator op a block successor. *)
let breaker_pass =
  Pass.make "breaker" (fun m _ ->
      let body = Core.module_block m in
      match body.Core.body with
      | op :: _ -> Core.set_successors op [ body ]
      | [] -> ())

let nop_pass name = Pass.make name (fun _ _ -> ())

let simple_module () =
  let m = Helpers.fresh_module () in
  Core.append_op (Core.module_block m)
    (Core.create_op "test.op" ~operands:[] ~result_types:[]);
  m

let harness_cases =
  [
    Alcotest.test_case "verify-each attributes the offending pass" `Quick
      (fun () ->
        let passes = [ nop_pass "good-a"; breaker_pass; nop_pass "good-b" ] in
        match Difftest.check_pipeline_verified ~passes (simple_module ()) with
        | Ok () -> Alcotest.fail "expected a verify-each failure"
        | Error f ->
          Alcotest.(check string) "oracle" "verify-each" f.Difftest.f_oracle;
          let contains s sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "names breaker" true
            (contains f.Difftest.f_detail "breaker"));
    Alcotest.test_case "verify-each stops at the breaking pass" `Quick
      (fun () ->
        let after =
          Pass.make "after" (fun _ _ -> failwith "ran after the breaker")
        in
        match
          Difftest.check_pipeline_verified
            ~passes:[ nop_pass "good-a"; breaker_pass; after ]
            (simple_module ())
        with
        | Ok () -> Alcotest.fail "expected a verify-each failure"
        | Error f ->
          Alcotest.(check bool) "names breaker" true
            (String.starts_with ~prefix:"pass 'breaker' broke the IR: "
               f.Difftest.f_detail));
    Alcotest.test_case "verify-each blames an invalid input, not a pass" `Quick
      (fun () ->
        let m = simple_module () in
        ignore (breaker_pass.Pass.run m (Pass.Stats.create ()));
        match
          Difftest.check_pipeline_verified ~passes:[ nop_pass "good-a" ] m
        with
        | Ok () -> Alcotest.fail "expected a verify-each failure"
        | Error f ->
          Alcotest.(check string) "oracle" "verify-each" f.Difftest.f_oracle;
          Alcotest.(check bool) "names the input" true
            (String.starts_with ~prefix:"input failed verification: "
               f.Difftest.f_detail));
    Alcotest.test_case "pass bisection names the first bad pass" `Quick
      (fun () ->
        let passes =
          [ nop_pass "good-a"; nop_pass "good-b"; breaker_pass;
            nop_pass "good-c" ]
        in
        let verdict =
          Difftest.bisect_passes ~passes ~fresh:simple_module
            ~check:(fun m -> Result.is_ok (Verifier.verify m))
            ()
        in
        Alcotest.(check (option string)) "first bad pass" (Some "breaker")
          verdict);
    Alcotest.test_case "bisection returns None on a clean pipeline" `Quick
      (fun () ->
        let passes = [ nop_pass "good-a"; nop_pass "good-b" ] in
        Alcotest.(check (option string)) "clean" None
          (Difftest.bisect_passes ~passes ~fresh:simple_module
             ~check:(fun m -> Result.is_ok (Verifier.verify m))
             ()));
  ]

let tests =
  ( "roundtrip",
    attr_cases @ regression_cases @ cfg_cases @ irgen_cases @ harness_cases )
