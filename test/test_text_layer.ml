(* The IR text layer: the lexer's edge cases (pinned exactly, messages
   included), one digest over every printed form of the evaluation corpus,
   and printing in allocation linear in the output for deep nesting. *)

open Mlir
open Sycl_workloads
module Driver = Sycl_core.Driver

let attr_of s = Parser.parse_attr (Parser.make_parser s)
let type_of s = Parser.parse_type (Parser.make_parser s)

let parse_error f =
  match f () with
  | _ -> "no error"
  | exception Parser.Parse_error msg -> msg

let check_attr name expected src =
  Alcotest.(check string) name (Attr.to_string expected) (Attr.to_string (attr_of src));
  Alcotest.(check bool) (name ^ " (structural)") true (Attr.equal expected (attr_of src))

let module_text body = "builtin.module() ({\n" ^ body ^ "\n})"

let lexer_cases =
  [
    Alcotest.test_case "integer literals up to max_int, and the first past it"
      `Quick (fun () ->
        check_attr "max_int" (Attr.Int max_int) "4611686018427387903";
        check_attr "min_int" (Attr.Int min_int) "-4611686018427387904";
        check_attr "leading zeros" (Attr.Int 7) "0007";
        Alcotest.(check string) "overflow"
          "line 1: bad integer literal \"4611686018427387904\""
          (parse_error (fun () -> attr_of "4611686018427387904"));
        Alcotest.(check string) "negative overflow"
          "line 1: bad integer literal \"-4611686018427387905\""
          (parse_error (fun () -> attr_of "-4611686018427387905")));
    Alcotest.test_case "hex integer literals" `Quick (fun () ->
        check_attr "0x1F" (Attr.Int 31) "0x1F";
        check_attr "0Xff" (Attr.Int 255) "0Xff";
        check_attr "-0x10" (Attr.Int (-16)) "-0x10";
        Alcotest.(check string) "no digits" "line 1: bad integer literal \"0x\""
          (parse_error (fun () -> attr_of "0x"));
        Alcotest.(check string) "hex float"
          "line 1: hex float literals are not supported (floats print in \
           decimal; use e.g. 3.0 instead of 0x1.8p+1)"
          (parse_error (fun () -> attr_of "0x1.8p+1")));
    Alcotest.test_case "signs, a lone minus and float spellings" `Quick (fun () ->
        check_attr "-7" (Attr.Int (-7)) "-7";
        check_attr "2." (Attr.Float 2.0) "2.";
        check_attr "1e3" (Attr.Float 1000.0) "1e3";
        check_attr "1.25e-7" (Attr.Float 1.25e-7) "1.25e-7";
        check_attr "-2.5E+2" (Attr.Float (-250.0)) "-2.5E+2";
        check_attr "-infinity" (Attr.Float Float.neg_infinity) "-infinity";
        Alcotest.(check string) "lone minus"
          "line 1: expected nan/infinity after '-', found <eof>"
          (parse_error (fun () -> attr_of "-"));
        Alcotest.(check string) "minus before a space"
          "line 1: expected nan/infinity after '-', found 7"
          (parse_error (fun () -> attr_of "- 7"));
        Alcotest.(check string) "exponent without digits"
          "line 1: bad float literal \"1e\""
          (parse_error (fun () -> attr_of "1e"));
        (* [-1] directly after an affine term is one integer token, not a
           minus and a constant. *)
        Alcotest.(check string) "d0 -1" "line 1: expected ) but found -1"
          (parse_error (fun () -> attr_of "affine_map<(d0) -> (d0 -1)>"));
        check_attr "d0 - 1"
          (attr_of "affine_map<(d0) -> (d0 + -1)>")
          "affine_map<(d0) -> (d0 - 1)>");
    Alcotest.test_case "a numbered identifier past max_int is a parse error"
      `Quick (fun () ->
        Alcotest.(check string) "i19 digits"
          "i4611686018427387903"
          (Types.to_string (type_of "i4611686018427387903"));
        Alcotest.(check string) "iN type"
          "line 1: number too large in i99999999999999999999"
          (parse_error (fun () -> type_of "i99999999999999999999"));
        Alcotest.(check string) "dN dimension"
          "line 1: number too large in d99999999999999999999"
          (parse_error (fun () ->
               attr_of "affine_map<(d0) -> (d99999999999999999999)>"));
        Alcotest.(check string) "sN symbol"
          "line 1: number too large in s99999999999999999999"
          (parse_error (fun () ->
               attr_of "affine_map<(d0)[s0] -> (s99999999999999999999)>")));
    Alcotest.test_case "a NUL byte is an unexpected character" `Quick (fun () ->
        Alcotest.(check string) "mid-input NUL"
          "line 2: unexpected character '\\000'"
          (parse_error (fun () -> Parser.parse_module "builtin.module() ({\n\000})")));
    Alcotest.test_case "CRLF line endings and a comment ending at EOF" `Quick
      (fun () ->
        let m =
          Parser.parse_module ~file:"crlf.mlir"
            "// header\r\nbuiltin.module() ({\r\n  %0 = arith.constant() {value \
             = 1} : () -> (i32)\r\n})\r\n// trailing comment at EOF"
        in
        let op = List.hd (Core.module_block m).Core.body in
        Alcotest.(check string) "location" "\"crlf.mlir\":3:3" (Loc.to_string op.Core.loc);
        Alcotest.(check string) "comment-only tail" "no error"
          (parse_error (fun () -> Parser.parse_module "builtin.module() ({\n})//"));
        Alcotest.(check string) "a lone slash"
          "line 1: unexpected character '/'"
          (parse_error (fun () -> Parser.parse_module "builtin.module() ({ / })")));
    Alcotest.test_case "lines after a multi-line string literal" `Quick (fun () ->
        let src =
          module_text "  test.op() {s = \"a\nb\nc\"}\n  %0 = test.op() : () -> (i32) # "
        in
        Alcotest.(check string) "error line" "line 5: unexpected character '#'"
          (parse_error (fun () -> Parser.parse_module src));
        let m =
          Parser.parse_module ~file:"s.mlir"
            (module_text "  test.op() {s = \"a\nb\"}\n  %0 = test.op() : () -> (i32)")
        in
        match (Core.module_block m).Core.body with
        | [ first; second ] ->
          Alcotest.(check string) "string" "\"a\\nb\""
            (Attr.to_string (Option.get (Core.attr first "s")));
          Alcotest.(check string) "next op" "\"s.mlir\":4:3"
            (Loc.to_string second.Core.loc)
        | _ -> Alcotest.fail "expected two ops");
    Alcotest.test_case "identifiers containing '.' and '$'" `Quick (fun () ->
        let op =
          Parser.parse_string
            "%v.1$x = test.op$a.b() {k.e$y = @sym.x$y} : () -> (i32)"
        in
        Alcotest.(check string) "op name" "test.op$a.b" op.Core.name;
        Alcotest.(check bool) "symbol" true
          (Core.attr op "k.e$y" = Some (Attr.Symbol "sym.x$y"));
        Alcotest.(check string) "value names print as numbers"
          "%0 = test.op$a.b() {k.e$y = @sym.x$y} : () -> (i32)"
          (Printer.to_string op);
        Alcotest.(check string) "a name may not start with '$'"
          "line 1: unexpected character '$'"
          (parse_error (fun () -> Parser.parse_string "$x")));
    Alcotest.test_case "memref shapes split into integer, x and element type"
      `Quick (fun () ->
        let ty = type_of "memref<4 x ? x f32, local>" in
        Alcotest.(check bool) "structure" true
          (ty = Types.memref ~space:Types.Local [ Some 4; None ] Types.f32);
        Alcotest.(check string) "print" "memref<4 x ? x f32, local>" (Types.to_string ty);
        Alcotest.(check string) "glued shape"
          "line 1: expected 'x' after memref dimension, found x8xf32"
          (parse_error (fun () -> type_of "memref<4x8xf32>"));
        Alcotest.(check bool) "i64 element" true
          (type_of "memref<2 x i64>" = Types.memref [ Some 2 ] Types.i64);
        Alcotest.(check bool) "i leading zero" true (type_of "i032" = Types.i32);
        Alcotest.(check string) "bare i" "line 1: expected type, found i"
          (parse_error (fun () -> type_of "i")));
  ]

(* ------------------------------------------------------------------ *)
(* The printed corpus                                                  *)
(* ------------------------------------------------------------------ *)

(* One MD5 over everything the text layer prints for the 31 suite and
   extension modules: the print of each module's parse, its debuginfo
   print, and its print after compiling under each default
   configuration. Any change of a printed byte changes the digest. *)
let corpus_digest =
  Alcotest.test_case "printed corpus digest" `Quick (fun () ->
      let buf = Buffer.create (1 lsl 20) in
      List.iter
        (fun (w : Common.workload) ->
          let text = Printer.to_string (w.Common.w_module ()) in
          let parse () = Parser.parse_module ~file:(w.Common.w_name ^ ".mlir") text in
          let m = parse () in
          Buffer.add_string buf (Printer.to_string m);
          Buffer.add_string buf (Printer.to_string ~debuginfo:true m);
          List.iter
            (fun cfg ->
              let m = parse () in
              ignore (Driver.compile cfg m);
              Buffer.add_string buf (Printer.to_string m))
            Common.default_configs)
        (Suite.all () @ Suite.extensions ());
      Alcotest.(check string) "md5" "cb9b7cb0f717cf6a505711d61a74c7c1"
        (Digest.to_hex (Digest.string (Buffer.contents buf))))

(* No default pipeline raises scf.for to affine.for, so the digest above
   never reaches a pass's affine.for branch. This one raises each module
   first and pins the print after compiling it under each default
   configuration, and how many loops were raised. *)
let raised_corpus_digest =
  Alcotest.test_case "printed raised-corpus digest" `Quick (fun () ->
      let buf = Buffer.create (1 lsl 20) in
      let raised = ref 0 in
      List.iter
        (fun (w : Common.workload) ->
          let text = Printer.to_string (w.Common.w_module ()) in
          List.iter
            (fun cfg ->
              let m = Parser.parse_module ~file:(w.Common.w_name ^ ".mlir") text in
              let stats = Pass.Stats.create () in
              Sycl_core.Raise_affine.pass.Pass.run m stats;
              raised := !raised + Pass.Stats.get stats "raise-affine.raised";
              ignore (Driver.compile cfg m);
              Buffer.add_string buf (Printer.to_string m))
            Common.default_configs)
        (Suite.all () @ Suite.extensions ());
      Alcotest.(check int) "affine.for loops raised" 114 !raised;
      Alcotest.(check string) "md5" "0a1c58a0d4b912fab2503913e3b16c95"
        (Digest.to_hex (Digest.string (Buffer.contents buf))))

(* ------------------------------------------------------------------ *)
(* Deep nesting                                                        *)
(* ------------------------------------------------------------------ *)

let module_with_op op =
  let m = Core.create_module () in
  Core.append_op (Core.module_block m) op;
  m

(* Printing a type or an attribute by concatenating its children's
   strings copies each level once per enclosing level: quadratic in the
   depth. A writer into one buffer allocates about the output's size. *)
let allocation_per_byte name m =
  Alcotest.test_case name `Quick (fun () ->
      let before = Gc.allocated_bytes () in
      let s = Printer.to_string m in
      let per_byte = (Gc.allocated_bytes () -. before) /. float (String.length s) in
      if per_byte > 64.0 then
        Alcotest.failf "%.0f bytes allocated per printed byte (at most 64)" per_byte)

let deep_cases =
  let depth = 5000 in
  let rec ty n = if n = 0 then Types.f32 else Types.memref_dyn (ty (n - 1)) in
  let rec attr n = if n = 0 then Attr.Int 1 else Attr.Array [ attr (n - 1) ] in
  [
    allocation_per_byte "a 5000-deep memref result type prints in linear space"
      (module_with_op
         (Core.create_op "test.op" ~operands:[] ~result_types:[ ty depth ]));
    allocation_per_byte "a 5000-deep array attribute prints in linear space"
      (module_with_op
         (Core.create_op "test.op" ~operands:[] ~result_types:[]
            ~attrs:[ ("a", attr depth) ]));
  ]

let tests =
  ("text-layer", lexer_cases @ (corpus_digest :: raised_corpus_digest :: deep_cases))
