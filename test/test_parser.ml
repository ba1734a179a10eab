(* Printer/parser round-trip tests and error handling. *)

open Mlir

let roundtrip name src_builder =
  Alcotest.test_case name `Quick (fun () ->
      let m = src_builder () in
      let s = Printer.to_string m in
      let m' = Parser.parse_module s in
      Alcotest.(check string) "round trip" s (Printer.to_string m'))

let parse_type s =
  let p = Parser.make_parser s in
  Parser.parse_type p

let type_roundtrip name ty =
  Alcotest.test_case ("type " ^ name) `Quick (fun () ->
      let s = Types.to_string ty in
      Alcotest.(check string) "type round trip" s (Types.to_string (parse_type s)))

let attr_roundtrip name a =
  Alcotest.test_case ("attr " ^ name) `Quick (fun () ->
      let s = Attr.to_string a in
      let p = Parser.make_parser s in
      let a' = Parser.parse_attr p in
      Alcotest.(check string) "attr round trip" s (Attr.to_string a'))

let parse_fails name src =
  Alcotest.test_case ("error: " ^ name) `Quick (fun () ->
      match Parser.parse_module src with
      | _ -> Alcotest.fail "expected a parse error"
      | exception Parser.Parse_error _ -> ())

let tests_list =
  [
    type_roundtrip "i32" Types.i32;
    type_roundtrip "i1" Types.i1;
    type_roundtrip "index" Types.Index;
    type_roundtrip "f32" Types.f32;
    type_roundtrip "f64" Types.f64;
    type_roundtrip "static memref" (Types.memref [ Some 4; Some 8 ] Types.f32);
    type_roundtrip "dynamic memref" (Types.memref_dyn Types.f32);
    type_roundtrip "local memref" (Types.memref ~space:Types.Local [ Some 16 ] Types.f32);
    type_roundtrip "private memref of sycl id"
      (Types.memref ~space:Types.Private [ Some 1 ] (Sycl_core.Sycl_types.id 3));
    type_roundtrip "function type" (Types.Function ([ Types.i32; Types.f32 ], [ Types.i1 ]));
    type_roundtrip "sycl item" (Sycl_core.Sycl_types.item 2);
    type_roundtrip "sycl nd_item" (Sycl_core.Sycl_types.nd_item 3);
    type_roundtrip "sycl accessor"
      (Sycl_core.Sycl_types.accessor ~mode:Sycl_core.Sycl_types.Read ~dims:2 Types.f32);
    type_roundtrip "sycl buffer" (Sycl_core.Sycl_types.buffer ~dims:1 Types.f64);
    type_roundtrip "sycl queue" Sycl_core.Sycl_types.Queue;
    attr_roundtrip "int" (Attr.Int 42);
    attr_roundtrip "negative int" (Attr.Int (-17));
    attr_roundtrip "float" (Attr.Float 1.5);
    attr_roundtrip "negative float" (Attr.Float (-0.375));
    attr_roundtrip "bool" (Attr.Bool true);
    attr_roundtrip "string" (Attr.String "hello \"world\"\n");
    attr_roundtrip "symbol" (Attr.Symbol "kernel_name");
    attr_roundtrip "array" (Attr.Array [ Attr.Int 1; Attr.Bool false; Attr.String "x" ]);
    attr_roundtrip "dense ints" (Attr.Dense_int [| 1; -2; 3 |]);
    attr_roundtrip "dense floats" (Attr.Dense_float [| 0.5; -1.25 |]);
    attr_roundtrip "unit" Attr.Unit;
    roundtrip "empty module" (fun () -> Helpers.fresh_module ());
    roundtrip "function with arith body" (fun () ->
        let m, _ =
          Helpers.with_func ~args:[ Types.i64; Types.i64 ] (fun b vals ->
              match vals with
              | [ x; y ] ->
                let s = Dialects.Arith.addi b x y in
                let p = Dialects.Arith.muli b s s in
                ignore (Dialects.Arith.cmpi b Dialects.Arith.Slt s p)
              | _ -> assert false)
        in
        m);
    roundtrip "nested control flow" (fun () ->
        let m, _ =
          Helpers.with_func (fun b _ ->
              let c = Dialects.Arith.const_bool b true in
              let zero = Dialects.Arith.const_index b 0 in
              let ten = Dialects.Arith.const_index b 10 in
              let one = Dialects.Arith.const_index b 1 in
              ignore
                (Dialects.Scf.if_ b c
                   ~then_:(fun bb ->
                     ignore
                       (Dialects.Scf.for_ bb ~lb:zero ~ub:ten ~step:one
                          (fun b2 iv _ ->
                            ignore (Dialects.Arith.addi b2 iv iv);
                            []));
                     [])
                   ()))
        in
        m);
    roundtrip "loop with iter_args" (fun () ->
        let m, _ =
          Helpers.with_func (fun b _ ->
              let zero = Dialects.Arith.const_index b 0 in
              let ten = Dialects.Arith.const_index b 10 in
              let one = Dialects.Arith.const_index b 1 in
              let init = Dialects.Arith.const_float b 0.0 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:ten ~step:one ~iter_args:[ init ]
                   (fun bb _ args ->
                     [ Dialects.Arith.addf bb (List.hd args) (List.hd args) ])))
        in
        m);
    roundtrip "affine loop with map bounds" (fun () ->
        let m, _ =
          Helpers.with_func ~args:[ Types.Index ] (fun b vals ->
              let n = List.hd vals in
              ignore
                (Dialects.Affine_ops.for_ b ~lb:(Dialects.Affine_ops.Const 0)
                   ~ub:(Dialects.Affine_ops.Value n) (fun bb iv _ ->
                     ignore (Dialects.Arith.addi bb iv iv);
                     [])))
        in
        m);
    roundtrip "sycl kernel" (fun () ->
        let m, _ =
          Helpers.with_kernel ~dims:1
            ~args:[ Sycl_frontend.Kernel.Acc (1, Sycl_core.Sycl_types.Read, Types.f32) ]
            (fun b ~item ~args ->
              let i = Sycl_frontend.Kernel.gid b item 0 in
              ignore (Sycl_frontend.Kernel.acc_get b (List.hd args) [ i ]))
        in
        m);
    roundtrip "host program with llvm calls" (fun () ->
        let m = Helpers.fresh_module () in
        ignore
          (Sycl_frontend.Host.emit m
             {
               Sycl_frontend.Host.host_args = [ Types.memref_dyn Types.f32; Types.Index ];
               buffers =
                 [ { Sycl_frontend.Host.buf_data_arg = 0;
                     buf_dims = [ Sycl_frontend.Host.Arg 1 ]; buf_element = Types.f32 } ];
               globals = [ ("tbl", Attr.Dense_float [| 1.0; 2.0 |]) ];
               body = [];
             });
        m);
    parse_fails "undefined value" "builtin.module() ({ func.return(%0) : (i32) -> () })";
    parse_fails "unbalanced braces" "builtin.module() ({";
    parse_fails "bad type" "builtin.module() ({ %0 = arith.constant() {value = 1} : () -> (wibble) })";
    parse_fails "result arity mismatch"
      "builtin.module() ({ %0, %1 = arith.constant() {value = 1} : () -> (i32) })";
    Alcotest.test_case "parse accepts comments and whitespace" `Quick (fun () ->
        let m =
          Parser.parse_module
            "// leading comment\nbuiltin.module() ({\n  // inner\n})"
        in
        Alcotest.(check bool) "is module" true (Core.is_module m));
    Alcotest.test_case "parse_string on non-module op" `Quick (fun () ->
        let op = Parser.parse_string "%0 = arith.constant() {value = 3} : () -> (i64)" in
        Alcotest.(check int) "constant value" 3
          (Option.get (Dialects.Arith.constant_int op)));
  ]

let tests = ("printer-parser", tests_list)
