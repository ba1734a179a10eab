(* Registration is a property of linking. This executable names no
   module of [dialects] or [sycl_core], so none of their code runs unless
   the libraries are linked whole (-linkall) and each module registers
   its ops in its own top-level initializer. *)

open Mlir

let matmul () =
  Parser.parse_module ~file:"matmul.mlir"
    (In_channel.with_open_text "../../examples/matmul.mlir" In_channel.input_all)

let parses_and_verifies_strictly () =
  (* The !sycl types need Sycl_types' parser; strict verification needs
     every op of the module registered. *)
  match Verifier.verify ~allow_unregistered:false (matmul ()) with
  | Ok () -> ()
  | Error ds ->
    Alcotest.fail (String.concat "; " (List.map Verifier.diag_to_string ds))

let every_module_registers () =
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Op_registry.lookup name <> None))
    [
      "arith.addi"; "math.sqrt"; "memref.load"; "scf.for"; "affine.for";
      "func.func"; "gpu.barrier"; "llvm.call"; "cf.br";
      "sycl.accessor.subscript"; "sycl.accessor.distinct"; "sycl.host.submit";
    ]

let () =
  Alcotest.run "linked"
    [
      ( "linked",
        [
          Alcotest.test_case "matmul.mlir parses and verifies strictly" `Quick
            parses_and_verifies_strictly;
          Alcotest.test_case "every dialect module registered its ops" `Quick
            every_module_registers;
        ] );
    ]
