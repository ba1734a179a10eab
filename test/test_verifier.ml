(* Verifier tests: SSA visibility, terminators, op-specific rules. *)

open Mlir
module A = Dialects.Arith

let expect_invalid ?(msg = "verification fails") m =
  match Verifier.verify m with
  | Ok () -> Alcotest.fail msg
  | Error _ -> ()

let tests_list =
  [
    Alcotest.test_case "well-formed module verifies" `Quick (fun () ->
        let m, _ =
          Helpers.with_func ~args:[ Types.i64 ] ~results:[ Types.i64 ] (fun b vals ->
              Dialects.Func.return b [ A.addi b (List.hd vals) (List.hd vals) ])
        in
        Helpers.check_verifies m);
    Alcotest.test_case "use before def rejected" `Quick (fun () ->
        let m, f = Helpers.with_func (fun _ _ -> ()) in
        let body = Core.func_body f in
        (* Build x = addi(y, y); y = constant — out of order. *)
        let y_op =
          Core.create_op "arith.constant" ~operands:[] ~result_types:[ Types.i64 ]
            ~attrs:[ ("value", Attr.Int 1) ]
        in
        let x_op =
          Core.create_op "arith.addi"
            ~operands:[ Core.result y_op 0; Core.result y_op 0 ]
            ~result_types:[ Types.i64 ]
        in
        Core.prepend_op body x_op;
        Core.insert_after ~anchor:x_op y_op;
        expect_invalid ~msg:"use-before-def accepted" m);
    Alcotest.test_case "missing terminator rejected" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let region = Core.region_with_block () in
        let fop =
          Core.create_op "func.func" ~operands:[] ~result_types:[]
            ~attrs:
              [ ("sym_name", Attr.String "f");
                ("function_type", Attr.Type (Types.Function ([], []))) ]
            ~regions:[ region ]
        in
        Core.append_op (Core.module_block m) fop;
        let b = Builder.at_end (Core.entry_block region) in
        ignore (A.const_int b 1);
        expect_invalid ~msg:"missing terminator accepted" m);
    Alcotest.test_case "func entry args must match function type" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let region = Core.region_with_block ~args:[ Types.i64 ] () in
        let fop =
          Core.create_op "func.func" ~operands:[] ~result_types:[]
            ~attrs:
              [ ("sym_name", Attr.String "f");
                ("function_type", Attr.Type (Types.Function ([ Types.f32 ], []))) ]
            ~regions:[ region ]
        in
        Core.append_op (Core.module_block m) fop;
        let b = Builder.at_end (Core.entry_block region) in
        Dialects.Func.return b [];
        expect_invalid ~msg:"mismatched signature accepted" m);
    Alcotest.test_case "scf.for result/iter_args mismatch rejected" `Quick (fun () ->
        let m, _f =
          Helpers.with_func (fun b _ ->
              let zero = A.const_index b 0 in
              let region = Core.region_with_block ~args:[ Types.Index ] () in
              let bb = Builder.at_end (Core.entry_block region) in
              Builder.op0 bb "scf.yield" ~operands:[];
              (* Claims one result but has no iter_args. *)
              ignore
                (Builder.op b "scf.for"
                   ~operands:[ zero; zero; zero ]
                   ~result_types:[ Types.f32 ] ~regions:[ region ]))
        in
        expect_invalid ~msg:"bad scf.for accepted" m);
    Alcotest.test_case "affine.for with a step of 0, -1 or 2.5 rejected at its location"
      `Quick (fun () ->
        let verify step_attr =
          Verifier.verify
            (Parser.parse_module ~file:"step.mlir"
               (Printf.sprintf
                  "builtin.module() ({\n\
                  \  func.func() ({\n\
                  \    affine.for() ({\n\
                  \    ^bb0(%%0: index):\n\
                  \      affine.yield()\n\
                  \    }) {lb_count = 0, lb_map = affine_map<() -> (0)>, %sub_map = \
                   affine_map<() -> (8)>} : () -> ()\n\
                  \    func.return()\n\
                  \  }) {function_type = () -> (), sym_name = \"f\"}\n\
                   })"
                  step_attr))
        in
        List.iter
          (fun step ->
            match verify (Printf.sprintf "step = %s, " step) with
            | Error [ d ] ->
              let prefix =
                "step.mlir:3:5: affine.for step must be a positive integer, got " ^ step
              in
              let msg = Verifier.diag_to_string d in
              if not (String.starts_with ~prefix msg) then
                Alcotest.failf "step %s: %s" step msg
            | _ -> Alcotest.failf "step %s: expected one diagnostic" step)
          [ "0"; "-1"; "2.5" ];
        Alcotest.(check bool) "an absent step reads as 1" true (verify "" = Ok ()));
    Alcotest.test_case "a loop body that does not end in its yield rejected at its location"
      `Quick (fun () ->
        let verify loop =
          Verifier.verify
            (Parser.parse_module ~file:"body.mlir"
               ("builtin.module() ({\n\
                \  func.func() ({\n\
                \    %0 = arith.constant() {value = 0} : () -> (index)\n" ^ loop
              ^ "    func.return()\n\
                 \  }) {function_type = () -> (), sym_name = \"f\"}\n\
                  })"))
        in
        let scf_for body =
          "    scf.for(%0, %0, %0) ({\n    ^bb0(%1: index):\n" ^ body
          ^ "    }) : (index, index, index) -> ()\n"
        and affine_for body =
          "    affine.for() ({\n" ^ body
          ^ "    }) {lb_count = 0, lb_map = affine_map<() -> (0)>, ub_map = \
             affine_map<() -> (8)>} : () -> ()\n"
        in
        let rejected what loop expected =
          match verify loop with
          | Error [ d ] ->
            let msg = Verifier.diag_to_string d in
            if not (String.starts_with ~prefix:("body.mlir:4:5: " ^ expected) msg) then
              Alcotest.failf "%s: %s" what msg
          | _ -> Alcotest.failf "%s: expected one diagnostic" what
        in
        rejected "empty scf.for" (scf_for "") "scf.for body must end with scf.yield";
        rejected "scf.for ending in affine.yield" (scf_for "      affine.yield()\n")
          "scf.for body must end with scf.yield";
        rejected "empty affine.for" (affine_for "    ^bb0(%1: index):\n")
          "affine.for body must end with affine.yield";
        rejected "affine.for without an iv" (affine_for "")
          "affine.for body must take iv plus iter_args";
        Alcotest.(check bool) "scf.for ending in scf.yield" true
          (verify (scf_for "      scf.yield()\n") = Ok ());
        Alcotest.(check bool) "affine.for ending in affine.yield" true
          (verify (affine_for "    ^bb0(%1: index):\n      affine.yield()\n") = Ok ()));
    Alcotest.test_case
      "a yield or return short of its parent's results rejected at its location"
      `Quick (fun () ->
        let verify body =
          Verifier.verify
            (Parser.parse_module ~file:"yield.mlir"
               ("builtin.module() ({\n\
                \  func.func() ({\n\
                \    %0 = arith.constant() {value = true} : () -> (i1)\n\
                \    %1 = arith.constant() {value = 7} : () -> (i64)\n\
                \    %2 = arith.constant() {value = 0} : () -> (index)\n" ^ body
              ^ "  }) {function_type = () -> (i64), sym_name = \"f\"}\n\
                  })"))
        in
        let scf_if taken =
          "    %3 = scf.if(%0) ({\n" ^ taken
          ^ "    }, {\n      scf.yield(%1)\n    }) : (i1) -> (i64)\n\
            \    func.return(%3)\n"
        and scf_for yield =
          "    %3 = scf.for(%2, %2, %2, %1) ({\n    ^bb0(%4: index, %5: i64):\n"
          ^ yield
          ^ "    }) : (index, index, index, i64) -> (i64)\n    func.return(%3)\n"
        in
        let rejected what body expected =
          match verify body with
          | Error [ d ] ->
            let msg = Verifier.diag_to_string d in
            if not (String.starts_with ~prefix:("yield.mlir:6:5: " ^ expected) msg) then
              Alcotest.failf "%s: %s" what msg
          | _ -> Alcotest.failf "%s: expected one diagnostic" what
        in
        rejected "scf.if with an empty region" (scf_if "")
          "scf.if region 0 must end with scf.yield";
        rejected "scf.if yielding nothing" (scf_if "      scf.yield()\n")
          "scf.if region 0 yields 0 value(s), scf.if has 1 result(s)";
        rejected "scf.for yielding nothing" (scf_for "      scf.yield()\n")
          "scf.for body yields 0 value(s), scf.for has 1 result(s)";
        rejected "func.return of nothing" "    func.return()\n"
          "func.return returns 0 value(s), @f has 1 result(s)";
        List.iter
          (fun (what, body) ->
            Alcotest.(check bool) what true (verify body = Ok ()))
          [ ("scf.if yielding its result", scf_if "      scf.yield(%1)\n");
            ("scf.for yielding its iter_arg", scf_for "      scf.yield(%5)\n");
            ("func.return of its result", "    func.return(%1)\n") ]);
    Alcotest.test_case "scf.if with results requires else" `Quick (fun () ->
        let m, _f =
          Helpers.with_func (fun b _ ->
              let c = A.const_bool b true in
              let region = Core.region_with_block () in
              let bb = Builder.at_end (Core.entry_block region) in
              let one = A.const_float bb 1.0 in
              Builder.op0 bb "scf.yield" ~operands:[ one ];
              ignore
                (Builder.op b "scf.if" ~operands:[ c ] ~result_types:[ Types.f32 ]
                   ~regions:[ region ]))
        in
        expect_invalid ~msg:"scf.if with results but no else accepted" m);
    Alcotest.test_case "unregistered ops flagged when requested" `Quick (fun () ->
        let m, _f =
          Helpers.with_func (fun b _ ->
              ignore
                (Builder.op b "wibble.wobble" ~operands:[] ~result_types:[]))
        in
        Helpers.check_verifies m;
        (match Verifier.verify ~allow_unregistered:false m with
        | Ok () -> Alcotest.fail "unregistered accepted in strict mode"
        | Error _ -> ()));
    Alcotest.test_case "diagnostics carry the culprit op" `Quick (fun () ->
        let m, f = Helpers.with_func (fun _ _ -> ()) in
        let body = Core.func_body f in
        let y_op =
          Core.create_op "arith.constant" ~operands:[] ~result_types:[ Types.i64 ]
            ~attrs:[ ("value", Attr.Int 1) ]
        in
        let x_op =
          Core.create_op "arith.addi"
            ~operands:[ Core.result y_op 0; Core.result y_op 0 ]
            ~result_types:[ Types.i64 ]
        in
        Core.prepend_op body x_op;
        Core.insert_after ~anchor:x_op y_op;
        match Verifier.verify m with
        | Error (d :: _) ->
          Alcotest.(check bool) "culprit recorded" true (d.Verifier.culprit <> None);
          Alcotest.(check bool) "message mentions dominance" true
            (String.length (Verifier.diag_to_string d) > 0)
        | _ -> Alcotest.fail "expected diagnostics");
    Alcotest.test_case "pass manager attributes verification failures" `Quick
      (fun () ->
        let m, f = Helpers.with_func (fun _ _ -> ()) in
        (* A pass that breaks the IR. *)
        let breaker =
          Pass.make "breaker" (fun _ _ ->
              let body = Core.func_body f in
              let y_op =
                Core.create_op "arith.constant" ~operands:[]
                  ~result_types:[ Types.i64 ] ~attrs:[ ("value", Attr.Int 1) ]
              in
              let x_op =
                Core.create_op "arith.addi"
                  ~operands:[ Core.result y_op 0; Core.result y_op 0 ]
                  ~result_types:[ Types.i64 ]
              in
              Core.prepend_op body x_op;
              Core.insert_after ~anchor:x_op y_op)
        in
        match Pass.run_pipeline ~verify_each:true [ breaker ] m with
        | _ -> Alcotest.fail "expected Pass_failed"
        | exception Pass.Pass_failed { pass; _ } ->
          Alcotest.(check string) "pass name" "breaker" pass);
    Alcotest.test_case "sycl.host.set_nd_range checks its rank and operands"
      `Quick (fun () ->
        let verify ~dims ~has_local n_sizes =
          let m, _ =
            Helpers.with_func
              ~args:(Sycl_core.Sycl_types.Handler :: List.init 6 (fun _ -> Types.Index))
              (fun b vals ->
                Builder.op0 b "sycl.host.set_nd_range"
                  ~operands:(List.filteri (fun i _ -> i <= n_sizes) vals)
                  ~attrs:[ ("dims", Attr.Int dims); ("has_local", Attr.Bool has_local) ])
          in
          match Verifier.verify m with
          | Ok () -> "ok"
          | Error ds -> String.concat "; " (List.map (fun d -> d.Verifier.message) ds)
        in
        List.iter
          (fun (dims, has_local, n) ->
            Alcotest.(check string)
              (Printf.sprintf "dims %d, local %b, %d sizes" dims has_local n)
              "ok" (verify ~dims ~has_local n))
          [ (1, false, 1); (1, true, 2); (2, false, 2); (2, true, 4); (3, true, 6) ];
        Alcotest.(check string) "a 1-D range with two local sizes"
          "sycl.host.set_nd_range with dims = 1 and a local range takes 3 \
           operands, got 4"
          (verify ~dims:1 ~has_local:true 3);
        Alcotest.(check string) "a missing global size"
          "sycl.host.set_nd_range with dims = 2 takes 3 operands, got 2"
          (verify ~dims:2 ~has_local:false 1);
        Alcotest.(check string) "rank 0"
          "sycl.host.set_nd_range: dims = 0, want 1 to 3"
          (verify ~dims:0 ~has_local:false 0);
        Alcotest.(check string) "rank 4"
          "sycl.host.set_nd_range: dims = 4, want 1 to 3"
          (verify ~dims:4 ~has_local:false 4));
    Alcotest.test_case "arith and math ops check their operand and result counts"
      `Quick (fun () ->
        (* Canonicalize and the simulator index these operands without
           checking; each shape below used to verify. *)
        let verify line =
          let m =
            Parser.parse_module
              (Printf.sprintf
                 "builtin.module() ({\n\
                 \  func.func() ({\n\
                 \  ^bb0(%%0: index, %%1: i1, %%2: f32):\n\
                 \    %s\n\
                 \    func.return()\n\
                 \  }) {function_type = (index, i1, f32) -> (), sym_name = \"f\"}\n\
                  })\n"
                 line)
          in
          match Verifier.verify m with
          | Ok () -> "ok"
          | Error ds -> String.concat "; " (List.map (fun d -> d.Verifier.message) ds)
        in
        Alcotest.(check string) "well-formed" "ok"
          (verify "%3 = arith.select(%1, %0, %0) : (i1, index, index) -> (index)");
        List.iter
          (fun (expected, line) -> Alcotest.(check string) line expected (verify line))
          [
            ( "arith.addi takes 2 operand(s) and 1 result, got 1 and 1",
              "%3 = arith.addi(%0) : (index) -> (index)" );
            ( "arith.cmpi takes 2 operand(s) and 1 result, got 1 and 1",
              "%3 = arith.cmpi(%0) {predicate = 0} : (index) -> (i1)" );
            ( "arith.select takes 3 operand(s) and 1 result, got 2 and 1",
              "%3 = arith.select(%0, %0) : (index, index) -> (index)" );
            ( "arith.constant takes 0 operand(s) and 1 result, got 1 and 1",
              "%3 = arith.constant(%0) {value = 1} : (index) -> (index)" );
            ( "arith.index_cast takes 1 operand(s) and 1 result, got 0 and 1",
              "%3 = arith.index_cast() : () -> (i64)" );
            ( "math.sqrt takes 1 operand(s) and 1 result, got 2 and 1",
              "%3 = math.sqrt(%2, %2) : (f32, f32) -> (f32)" );
            ( "arith.addf takes 2 operand(s) and 1 result, got 2 and 0",
              "arith.addf(%2, %2) : (f32, f32) -> ()" );
          ]);
    Alcotest.test_case "verify_each verifies the input before the first pass"
      `Quick (fun () ->
        let m =
          Parser.parse_module ~file:"in.mlir"
            "builtin.module() ({\n\
            \  func.func() ({\n\
            \  ^bb0(%0: index):\n\
            \    scf.for(%0, %0) ({\n\
            \    ^bb1(%1: index):\n\
            \      scf.yield()\n\
            \    }) : (index, index) -> ()\n\
            \    func.return()\n\
            \  }) {function_type = (index) -> (), sym_name = \"f\"}\n\
             })\n"
        in
        List.iter
          (fun passes ->
            match Pass.run_pipeline ~verify_each:true passes m with
            | _ -> Alcotest.fail "the malformed input passed"
            | exception Pass.Invalid_input [ d ] ->
              Alcotest.(check string) "located diagnostic"
                "in.mlir:4:5: scf.for needs lb, ub, step"
                (Loc.diag_prefix d.Verifier.d_loc ^ d.Verifier.message))
          [ []; [ Sycl_core.Canonicalize.pass ] ]);
    Alcotest.test_case "allocations and affine access ops check their shape"
      `Quick (fun () ->
        (* DCE reads an allocation's effect on result 0, and the affine
           folds and lowering evaluate the map on the index operands; each
           rejected shape below used to verify and then crash a pass. *)
        let verify line =
          let m =
            Parser.parse_module
              (Printf.sprintf
                 "builtin.module() ({\n\
                 \  func.func() ({\n\
                 \  ^bb0(%%0: index, %%1: memref<? x f32>, %%2: f32):\n\
                 \    %s\n\
                 \    func.return()\n\
                 \  }) {function_type = (index, memref<? x f32>, f32) -> (), \
                  sym_name = \"f\"}\n\
                  })\n"
                 line)
          in
          match Verifier.verify m with
          | Ok () -> "ok"
          | Error ds -> String.concat "; " (List.map (fun d -> d.Verifier.message) ds)
        in
        List.iter
          (fun (expected, line) -> Alcotest.(check string) line expected (verify line))
          [
            ("ok", "%3 = memref.alloca() : () -> (memref<4 x f32, private>)");
            ("ok", "%3 = gpu.alloc_local() {slot = 0} : () -> (memref<4 x f32, local>)");
            ( "memref.alloc must have exactly one result, of memref type",
              "memref.alloc() : () -> ()" );
            ( "memref.alloca must have exactly one result, of memref type",
              "%3, %4 = memref.alloca() : () -> (memref<4 x f32>, memref<4 x f32>)" );
            ( "llvm.alloca must have exactly one result, of memref type",
              "%3 = llvm.alloca() : () -> (i64)" );
            ( "gpu.alloc_local must have exactly one result, of memref type",
              "gpu.alloc_local() {slot = 0} : () -> ()" );
            ( "ok",
              "%3 = affine.apply(%0) {map = affine_map<(d0) -> (d0 + 1)>} : \
               (index) -> (index)" );
            ( "affine.apply needs a map with one dim per operand and no symbols, \
               and one result",
              "%3 = affine.apply(%0) : (index) -> (index)" );
            ( "affine.apply needs a map with one dim per operand and no symbols, \
               and one result",
              "%3 = affine.apply(%0) {map = affine_map<(d0)[s0] -> (d0 + s0)>} : \
               (index) -> (index)" );
            ( "affine.apply needs a map with one dim per operand and no symbols, \
               and one result",
              "affine.apply(%0) {map = affine_map<(d0) -> (d0)>} : (index) -> ()" );
            ( "ok",
              "%3 = affine.load(%1, %0, %0) {map = affine_map<(d0)[s0] -> (d0 + \
               s0)>} : (memref<? x f32>, index, index) -> (f32)" );
            ( "affine.load needs a map with 1 dims and symbols",
              "%3 = affine.load(%1, %0) {map = affine_map<(d0, d1) -> (d0 + d1)>} \
               : (memref<? x f32>, index) -> (f32)" );
            ( "affine.store needs a map with 1 dims and symbols",
              "affine.store(%2, %1, %0) : (f32, memref<? x f32>, index) -> ()" );
          ]);
    Alcotest.test_case "verified irgen modules survive dce, canonicalize and cse"
      `Quick (fun () ->
        (* Each pass alone on a fresh parse of every irgen module (seeds
           0-2999) that verifies: a pass may rely on what the verifier
           checks, so none may raise. *)
        let verified = ref 0 in
        for seed = 0 to 2999 do
          let text = Printer.to_string (Irgen.gen_module (Irgen.create seed)) in
          match Verifier.verify (Parser.parse_module text) with
          | Error _ -> ()
          | Ok () ->
            incr verified;
            List.iter
              (fun (pass : Pass.t) ->
                match pass.Pass.run (Parser.parse_module text) (Pass.Stats.create ()) with
                | () -> ()
                | exception e ->
                  Alcotest.failf "seed %d: %s raised %s" seed pass.Pass.pass_name
                    (Printexc.to_string e))
              [ Sycl_core.Dce.pass; Sycl_core.Canonicalize.pass; Sycl_core.Cse.pass ]
        done;
        Alcotest.(check int) "verifying modules" 641 !verified);
  ]

let call_cases =
  [
    Alcotest.test_case "func.call passes one operand per argument and has one result per result"
      `Quick (fun () ->
        (* A call of @g : (i64) -> (i64) with [operands] operands and
           [results] results. *)
        let verify ~operands ~results =
          let list n f = String.concat ", " (List.init n f) in
          let m =
            Parser.parse_module
              (Printf.sprintf
                 "builtin.module() ({\n\
                 \  func.func() ({\n\
                 \  ^bb0(%%0: i64):\n\
                 \    func.return(%%0)\n\
                 \  }) {function_type = (i64) -> (i64), sym_name = \"g\"}\n\
                 \  func.func() ({\n\
                 \  ^bb0(%%0: i64):\n\
                 \    %s = func.call(%s) {callee = @g} : (%s) -> (%s)\n\
                 \    func.return()\n\
                 \  }) {function_type = (i64) -> (), sym_name = \"main\"}\n\
                  })\n"
                 (list results (fun i -> Printf.sprintf "%%%d" (i + 1)))
                 (list operands (fun _ -> "%0"))
                 (list operands (fun _ -> "i64"))
                 (list results (fun _ -> "i64")))
          in
          match Verifier.verify m with
          | Ok () -> "ok"
          | Error ds -> String.concat "; " (List.map (fun d -> d.Verifier.message) ds)
        in
        Alcotest.(check string) "matching" "ok" (verify ~operands:1 ~results:1);
        Alcotest.(check string) "an operand missing"
          "incorrect number of operands for callee @g: 0 given, 1 expected"
          (verify ~operands:0 ~results:1);
        Alcotest.(check string) "an operand too many"
          "incorrect number of operands for callee @g: 2 given, 1 expected"
          (verify ~operands:2 ~results:1);
        Alcotest.(check string) "a result too many"
          "incorrect number of results for callee @g: 2 given, 1 expected"
          (verify ~operands:1 ~results:2));
    Alcotest.test_case "func.call of a symbol that is no function of the module verifies" `Quick
      (fun () ->
        let m =
          Parser.parse_module
            "builtin.module() ({\n\
            \  func.func() ({\n\
            \    %0 = func.call() {callee = @ext} : () -> (i64)\n\
            \    func.return()\n\
            \  }) {function_type = () -> (), sym_name = \"main\"}\n\
             })\n"
        in
        Helpers.check_verifies m);
    Alcotest.test_case "checking 4,000 calls against their callees allocates in linear space"
      `Quick (fun () ->
        (* Function i calls function i - 1. Finding each callee by a walk
           of the module allocates in proportion to the module. *)
        let n = 4000 in
        let m = Helpers.fresh_module () in
        for i = 0 to n - 1 do
          ignore
            (Dialects.Func.func m (Printf.sprintf "f%d" i) ~args:[] ~results:[] (fun b _ ->
                 if i > 0 then
                   ignore
                     (Dialects.Func.call b (Printf.sprintf "f%d" (i - 1)) ~operands:[] ~results:[]);
                 Dialects.Func.return b []))
        done;
        let before = Gc.allocated_bytes () in
        Helpers.check_verifies m;
        let per_op = (Gc.allocated_bytes () -. before) /. float (3 * n) in
        if per_op > 4096.0 then
          Alcotest.failf "%.0f bytes allocated per op (at most 4096)" per_op);
  ]

let tests = ("verifier", tests_list @ call_cases)
