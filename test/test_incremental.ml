(* The pass manager's change record: every Core mutator stamps what a
   later rewrite must look at again, a seeded canonicalize reaches the
   same fixpoint as a full sweep, and the passes declared idempotent are
   (so skipping a repeat changes nothing). *)

open Mlir
module A = Dialects.Arith

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let canonicalize = Sycl_core.Canonicalize.patterns

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* [build ()] returns a module and [prepare]; [prepare ()] creates what
   the mutation will insert (creating an op stamps nothing) and returns
   the mutation. The module is canonicalized to its fixpoint, then
   mutated; the mutation must enable at least one rewrite, and a
   canonicalize seeded with the ops stamped since the mutation began
   must do what a full sweep does on an identical copy. Nothing but the
   mutation stamps after the fixpoint, so the case fails when its
   mutator stops stamping. *)
let seeded_matches_full ?(patterns = canonicalize) mutator build =
  Alcotest.test_case (mutator ^ " stamps what it changed") `Quick (fun () ->
      let run ~seeded =
        let m, mutate = build () in
        ignore (Rewrite.apply_worklist m patterns);
        let mutation = mutate () in
        let since = Core.generation () in
        mutation ();
        let since = if seeded then Some since else None in
        let st = Rewrite.apply_worklist ?since m patterns in
        (st.Rewrite.rw_rewrites, Printer.to_string m)
      in
      let full_rewrites, full_ir = run ~seeded:false in
      let seeded_rewrites, seeded_ir = run ~seeded:true in
      check_bool "the mutation enables a rewrite" true (full_rewrites > 0);
      check_int "seeded rewrites = full-sweep rewrites" full_rewrites
        seeded_rewrites;
      Alcotest.(check string) "same fixpoint" full_ir seeded_ir)

(* The first op named [name] in [f]. *)
let find f name = List.hd (Core.collect_named f name)

(* f(x, a) returns (addi x a, c0): replacing the addi's [a] with c0 makes
   it fold to x. *)
let addi_and_zero () =
  Helpers.with_func ~args:[ Types.i64; Types.i64 ]
    ~results:[ Types.i64; Types.i64 ] (fun b vals ->
      let x = List.nth vals 0 and a = List.nth vals 1 in
      let zero = A.const_int b 0 in
      Dialects.Func.return b [ A.addi b x a; zero ])

let zero_of f = Core.result (find f "arith.constant") 0

(* A detached, unused constant: dead once inserted. *)
let dead_constant () =
  Core.create_op "arith.constant" ~operands:[] ~result_types:[ Types.i64 ]
    ~attrs:[ ("value", Attr.Int 7) ]

(* f(c, mem, a) stores 1 to mem[0] inside [%r = scf.if c { store; yield a }
   else { yield a }] with %r unused: without the store the scf.if is pure
   and dead. *)
let if_with_store () =
  Helpers.with_func
    ~args:[ Types.i1; Types.memref_dyn Types.i64; Types.i64 ]
    (fun b vals ->
      let c = List.nth vals 0 and mem = List.nth vals 1 and a = List.nth vals 2 in
      let one = A.const_int b 1 and zero = A.const_index b 0 in
      ignore
        (Dialects.Scf.if_ b c ~result_types:[ Types.i64 ]
           ~then_:(fun bb ->
             Dialects.Memref.store bb one mem [ zero ];
             [ a ])
           ~else_:(fun _ -> [ a ])
           ()))

(* f(c, mem, init): [%r = scf.for 0 to 4 iter_args(%a = init) { scf.if c
   { <then_ builds here> }; yield %a }] with %r unused. *)
let loop_with_if then_ =
  Helpers.with_func
    ~args:[ Types.i1; Types.memref_dyn Types.i64; Types.i64 ]
    (fun b vals ->
      let c = List.nth vals 0 and mem = List.nth vals 1 and init = List.nth vals 2 in
      ignore
        (Dialects.Scf.for_ b ~lb:(A.const_index b 0) ~ub:(A.const_index b 4)
           ~step:(A.const_index b 1) ~iter_args:[ init ] (fun bb _ args ->
             ignore (Dialects.Scf.if_ bb c ~then_:(fun b2 -> then_ b2 mem; []) ());
             args)))

let store_one b mem = Dialects.Memref.store b (A.const_int b 1) mem [ A.const_index b 0 ]

(* A pattern that fires once on an op satisfying [p], marking it. *)
let mark_once name p =
  Rewrite.pattern name (fun op ->
      if p op && not (Core.has_attr op "test.seen") then begin
        Core.set_attr op "test.seen" Attr.Unit;
        true
      end
      else false)

let mutator_cases =
  [
    seeded_matches_full "set_operand" (fun () ->
        let m, f = addi_and_zero () in
        (m, fun () -> fun () -> Core.set_operand (find f "arith.addi") 1 (zero_of f)));
    (* The users of an op whose operands changed: once the inner addi
       adds a constant, reassociation rewrites the outer one. *)
    seeded_matches_full "set_operand (users)" (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.i64; Types.i64 ]
            ~results:[ Types.i64; Types.i64 ] (fun b vals ->
              let x = List.nth vals 0 and y = List.nth vals 1 in
              let one = A.const_int b 1 in
              let inner = A.addi b x y in
              Dialects.Func.return b [ A.addi b inner (A.const_int b 2); one ])
        in
        ( m,
          fun () ->
            let inner = find f "arith.addi" in
            let one = Core.result (find f "arith.constant") 0 in
            fun () -> Core.set_operand inner 1 one ));
    seeded_matches_full "set_operands" (fun () ->
        let m, f = addi_and_zero () in
        ( m,
          fun () ->
            let add = find f "arith.addi" in
            fun () -> Core.set_operands add [ Core.operand add 0; zero_of f ] ));
    seeded_matches_full "replace_all_uses_with" (fun () ->
        let m, f = addi_and_zero () in
        ( m,
          fun () ->
            let a = Core.operand (find f "arith.addi") 1 in
            fun () -> Core.replace_all_uses_with a (zero_of f) ));
    (* An inserted op stands for its whole subtree: the dead constant
       nested in the appended scf.if must be seeded. *)
    seeded_matches_full "append_op" (fun () ->
        let m, f = Helpers.with_func ~args:[ Types.i1 ] (fun _ _ -> ()) in
        ( m,
          fun () ->
            let region = Core.region_with_block () in
            let body = Core.entry_block region in
            Core.append_op body (dead_constant ());
            Core.append_op body
              (Core.create_op "scf.yield" ~operands:[] ~result_types:[]);
            let if_op =
              Core.create_op "scf.if"
                ~operands:[ Core.block_arg (Core.func_body f) 0 ]
                ~result_types:[] ~regions:[ region ]
            in
            fun () -> Core.append_op (Core.func_body f) if_op ));
    seeded_matches_full "prepend_op" (fun () ->
        let m, f = Helpers.with_func (fun _ _ -> ()) in
        (m, fun () -> let c = dead_constant () in fun () -> Core.prepend_op (Core.func_body f) c));
    seeded_matches_full "insert_before" (fun () ->
        let m, f = Helpers.with_func (fun _ _ -> ()) in
        ( m,
          fun () ->
            let c = dead_constant () in
            fun () -> Core.insert_before ~anchor:(find f "func.return") c ));
    seeded_matches_full "insert_after" (fun () ->
        let m, f = Helpers.with_func (fun _ _ -> ()) in
        ( m,
          fun () ->
            let c = dead_constant () in
            fun () -> Core.insert_after ~anchor:(find f "func.return") c ));
    (* The parent of an erased op: without its store the scf.if is dead. *)
    seeded_matches_full "erase_op" (fun () ->
        let m, f = if_with_store () in
        (m, fun () -> fun () -> Core.erase_op (find f "memref.store")));
    (* Every ancestor of an erased op with effects: without the store
       nested two regions down, the loop is pure and dead. *)
    seeded_matches_full "erase_op (nested)" (fun () ->
        let m, f = loop_with_if store_one in
        (m, fun () -> fun () -> Core.erase_op (find f "memref.store")));
    (* The producers of the operands an erased op dropped: the stored
       addi loses its only use. *)
    seeded_matches_full "erase_op_unsafe" (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.i64; Types.i64 ]
            (fun b vals ->
              let mem = List.nth vals 0 and a = List.nth vals 1 in
              Dialects.Memref.store b (A.addi b a a) mem [ A.const_index b 0 ])
        in
        (m, fun () -> fun () -> Core.erase_op_unsafe (find f "memref.store")));
    (* The detach step of a move stamps the old parent. *)
    seeded_matches_full "move_before" (fun () ->
        let m, f = if_with_store () in
        ( m,
          fun () ->
            let if_op = find f "scf.if" in
            fun () -> Core.move_before ~anchor:if_op (find f "memref.store") ));
    (* The users of an op whose attribute changed: x * 5 becomes x * 1. *)
    seeded_matches_full "set_attr" (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.i64 ] ~results:[ Types.i64 ]
            (fun b vals ->
              Dialects.Func.return b [ A.muli b (List.hd vals) (A.const_int b 5) ])
        in
        ( m,
          fun () ->
            let c = find f "arith.constant" in
            fun () -> Core.set_attr c "value" (Attr.Int 1) ));
    seeded_matches_full "remove_attr"
      ~patterns:
        [ Rewrite.pattern "drop-unpinned-store" (fun op ->
              if Dialects.Memref.is_store op && not (Core.has_attr op "test.pinned")
              then begin
                Core.erase_op op;
                true
              end
              else false) ]
      (fun () ->
        let m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.i64; Types.i64 ]
            (fun b vals ->
              let mem = List.nth vals 0 and a = List.nth vals 1 in
              Dialects.Memref.store b a mem [ A.const_index b 0 ])
        in
        let store = find f "memref.store" in
        Core.set_attr store "test.pinned" Attr.Unit;
        (m, fun () -> fun () -> Core.remove_attr store "test.pinned"));
    (* A block argument changes the signature of the block's parent. *)
    seeded_matches_full "add_block_arg"
      ~patterns:
        [ mark_once "two-argument-func" (fun op ->
              Core.is_func op && List.length (Core.block_args (Core.func_body op)) = 2) ]
      (fun () ->
        let m, f = Helpers.with_func ~args:[ Types.i64 ] (fun _ _ -> ()) in
        (m, fun () -> fun () -> ignore (Core.add_block_arg (Core.func_body f) Types.i64)));
    seeded_matches_full "set_successors"
      ~patterns:
        [ mark_once "two-way-branch" (fun op ->
              op.Core.name = "cf.br" && Core.num_successors op = 2) ]
      (fun () ->
        let m, f = Helpers.with_func (fun _ _ -> ()) in
        let target = Core.create_block () in
        let region = f.Core.regions.(0) in
        region.Core.blocks <- region.Core.blocks @ [ target ];
        target.Core.parent_region <- Some region;
        Core.append_op target (Core.create_op "func.return" ~operands:[] ~result_types:[]);
        let br =
          Core.create_op "cf.br" ~operands:[] ~result_types:[] ~successors:[ target ]
        in
        Core.insert_before ~anchor:(find f "func.return") br;
        (m, fun () -> fun () -> Core.set_successors br [ target; target ]));
  ]

(* ------------------------------------------------------------------ *)
(* Idempotence of the passes the pass manager may skip                 *)
(* ------------------------------------------------------------------ *)

let corpus () =
  List.map
    (fun w ->
      ( w.Sycl_workloads.Common.w_name,
        Printer.to_string (w.Sycl_workloads.Common.w_module ()) ))
    (Sycl_workloads.Suite.all () @ Sycl_workloads.Suite.extensions ())

let idempotence_cases =
  [
    Alcotest.test_case "canonicalize, cse and dce are the passes declared idempotent"
      `Quick (fun () ->
        let declared =
          List.concat_map Sycl_core.Driver.pipeline Sycl_workloads.Common.default_configs
          |> List.filter (fun (p : Pass.t) -> p.Pass.idempotent)
          |> List.map (fun (p : Pass.t) -> p.Pass.pass_name)
          |> List.sort_uniq String.compare
        in
        Alcotest.(check (list string)) "declared" [ "canonicalize"; "cse"; "dce" ]
          declared);
    Alcotest.test_case "canonicalize is idempotent when an op with effects goes"
      `Quick (fun () ->
        (* The constant-false scf.if holding the loop's only store is
           inlined away; the loop, two regions up, is then pure and
           dead, and the same run must erase it. *)
        let m, f =
          loop_with_if (fun b mem ->
              ignore
                (Dialects.Scf.if_ b (A.const_bool b false)
                   ~then_:(fun b3 -> store_one b3 mem; [])
                   ()))
        in
        let run () =
          let st = Pass.Stats.create () in
          Sycl_core.Canonicalize.pass.Pass.run m st;
          Pass.Stats.get st "rewrites"
        in
        ignore (run ());
        check_int "the loop is gone after one run" 0 (Helpers.count_ops f "scf.for");
        check_int "a second run rewrites nothing" 0 (run ()));
    Alcotest.test_case "each idempotent pass changes nothing run again on the corpus"
      `Quick (fun () ->
        (* Every corpus module under every configuration: after each
           execution of a pass declared idempotent (its pipeline prefix
           run by the pass manager), running the pass again on a copy
           leaves the copy exactly as the prefix left the module. *)
        let checked = ref 0 in
        List.iter
          (fun cfg ->
            let passes = Sycl_core.Driver.pipeline cfg in
            List.iter
              (fun (name, text) ->
                let m = Parser.parse_module text in
                let again =
                  Instrument.make "idempotence"
                    ~after_pass:(fun ~pass_name m ->
                      match
                        List.find_opt
                          (fun (p : Pass.t) -> p.Pass.pass_name = pass_name)
                          passes
                      with
                      | Some p when p.Pass.idempotent ->
                        let copy = Core.clone_op m in
                        let before = Printer.to_string copy in
                        p.Pass.run copy (Pass.Stats.create ());
                        incr checked;
                        Alcotest.(check string)
                          (Printf.sprintf "%s, %s, second %s"
                             (Sycl_core.Driver.mode_to_string cfg.Sycl_core.Driver.mode)
                             name pass_name)
                          before (Printer.to_string copy)
                      | _ -> ())
                in
                ignore
                  (Pass.run_pipeline ~verify_each:false ~instrumentations:[ again ]
                     passes m))
              (corpus ()))
          Sycl_workloads.Common.default_configs;
        check_bool "every configuration's repeats checked" true (!checked > 3 * 31 * 4));
  ]

(* ------------------------------------------------------------------ *)
(* The pass manager's record of a skipped execution                    *)
(* ------------------------------------------------------------------ *)

let pass_manager_cases =
  [
    Alcotest.test_case "a repeat with nothing changed in between is skipped"
      `Quick (fun () ->
        let m, _ =
          Helpers.with_func ~results:[ Types.i64 ] (fun b _ ->
              Dialects.Func.return b [ A.addi b (A.const_int b 1) (A.const_int b 2) ])
        in
        let fired = ref [] in
        let instr =
          Instrument.make "order"
            ~before_pass:(fun ~pass_name _ -> fired := pass_name :: !fired)
        in
        let cse = Sycl_core.Cse.pass and canon = Sycl_core.Canonicalize.pass in
        let r =
          Pass.run_pipeline ~instrumentations:[ instr ] [ canon; cse; canon; cse ] m
        in
        (* The first canonicalize folds everything and CSE finds nothing
           to merge, so no op is stamped after it: both repeats are
           skipped. *)
        Alcotest.(check (list (pair string bool))) "executions, skipped"
          [ ("canonicalize", false); ("cse", false); ("canonicalize", true);
            ("cse", true) ]
          (List.map (fun t -> (t.Pass.t_pass, t.Pass.t_skipped)) r.Pass.per_pass_time);
        Alcotest.(check (list string)) "instrumentations fire around skips"
          [ "canonicalize"; "cse"; "canonicalize"; "cse" ] (List.rev !fired);
        Alcotest.(check (list (pair string int))) "a skipped execution has no stats" []
          (Pass.Stats.to_list (snd (List.nth r.Pass.per_pass_stats 2)));
        let buf = Buffer.create 256 in
        let fmt = Format.formatter_of_buffer buf in
        Pass.pp_timing fmt r;
        Format.pp_print_flush fmt ();
        let report = Buffer.contents buf in
        List.iter
          (fun line ->
            check_bool ("timing shows " ^ line) true
              (contains report line))
          [ "canonicalize (2, 1 skipped)"; "cse (2, 1 skipped)" ]);
    Alcotest.test_case "an idempotent function pass skips unchanged functions"
      `Quick (fun () ->
        (* Two functions with three ops each; between two CSE runs a pass
           stamps only [f]: the second CSE keys [f]'s ops and not [g]'s. *)
        let m = Core.create_module () in
        let define name =
          Dialects.Func.func m name ~args:[ Types.i64 ] ~results:[ Types.i64 ]
            (fun b vals ->
              let x = List.hd vals in
              Dialects.Func.return b [ A.addi b (A.muli b x x) x ])
        in
        let f = define "f" in
        ignore (define "g");
        let touch = Pass.make "touch" (fun _ _ -> Core.set_attr f "test.touched" Attr.Unit) in
        let cse = Sycl_core.Cse.pass in
        let r = Pass.run_pipeline [ cse; touch; cse ] m in
        let visited i =
          Pass.Stats.get (snd (List.nth r.Pass.per_pass_stats i)) "cse.ops_visited"
        in
        check_int "first cse keys both functions" 6 (visited 0);
        check_int "second cse keys only the touched one" 3 (visited 2));
    Alcotest.test_case "a pass that is not idempotent is never skipped" `Quick
      (fun () ->
        let m, _ = Helpers.with_func (fun _ _ -> ()) in
        let runs = ref 0 in
        let p = Pass.make "count" (fun _ _ -> incr runs) in
        let r = Pass.run_pipeline [ p; p ] m in
        check_int "both executions ran" 2 !runs;
        check_bool "none skipped" false
          (List.exists (fun t -> t.Pass.t_skipped) r.Pass.per_pass_time));
    Alcotest.test_case "canonicalize outside a pipeline sweeps every op" `Quick
      (fun () ->
        let m, _ =
          Helpers.with_func ~results:[ Types.i64 ] (fun b _ ->
              Dialects.Func.return b [ A.addi b (A.const_int b 1) (A.const_int b 2) ])
        in
        let run () =
          let st = Pass.Stats.create () in
          Sycl_core.Canonicalize.pass.Pass.run m st;
          Pass.Stats.get st "canonicalize.ops_visited"
        in
        let first = run () in
        check_bool "a direct second call visits every op again" true
          (run () > 0 && first > 0));
  ]

let tests =
  ("incremental", mutator_cases @ idempotence_cases @ pass_manager_cases)
