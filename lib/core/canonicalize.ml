(* Canonicalization: greedy constant folding + dead pure op elimination +
   a few algebraic rewrites, via the generic rewrite driver. Stands in for
   MLIR's canonicalizer, used by every pipeline configuration. *)

open Mlir

(* scf.if with a constant condition: inline the taken region. *)
let inline_taken_region (op : Core.op) (taken : Core.region option) =
  (* Move the ops of [taken] (minus terminator) before [op], replace op
     results with yield operands, erase op. *)
  let yields =
    match taken with
    | None -> []
    | Some r -> (
      let b = Core.entry_block r in
      let ops = Core.ops b in
      match Core.last_op b with
      | Some term when Dialects.Scf.is_yield term ->
        let to_move = List.filter (fun o -> not (o == term)) ops in
        List.iter (fun o -> Core.move_before ~anchor:op o) to_move;
        Core.operands term
      | _ ->
        List.iter (fun o -> Core.move_before ~anchor:op o) ops;
        [])
  in
  (* Remaining region contents (untaken branch, terminators) die with op. *)
  Core.replace_op op yields

let scf_if_const =
  Rewrite.pattern "scf.if-const" (fun op ->
      if not (Dialects.Scf.is_if op) then false
      else
        match Rewrite.constant_of_value (Core.operand op 0) with
        | Some a -> (
          match Attr.as_bool a with
          | Some true ->
            inline_taken_region op (Some op.Core.regions.(0));
            true
          | Some false ->
            inline_taken_region op
              (if Core.num_regions op > 1 then Some op.Core.regions.(1) else None);
            true
          | None -> false)
        | None -> false)

(* Loops with zero or negative trip count fold away (no results only). *)
let scf_for_zero_trip =
  Rewrite.pattern "scf.for-zero-trip" (fun op ->
      if not (Dialects.Scf.is_for op) then false
      else
        match
          ( Rewrite.constant_of_value (Dialects.Scf.for_lb op),
            Rewrite.constant_of_value (Dialects.Scf.for_ub op) )
        with
        | Some (Attr.Int lb), Some (Attr.Int ub) when lb >= ub ->
          (* Results are the untouched init values. *)
          Core.replace_op op (Dialects.Scf.for_iter_inits op);
          true
        | _ -> false)

(* x - x => 0, x xor x => 0. *)
let self_cancel =
  Rewrite.pattern "self-cancel" (fun op ->
      if
        (op.Core.name = "arith.subi" || op.Core.name = "arith.xori")
        && Core.value_equal (Core.operand op 0) (Core.operand op 1)
      then begin
        let b = Builder.before op in
        Builder.set_default_loc b op.Core.loc;
        let zero =
          Dialects.Arith.constant b (Attr.Int 0) (Core.result op 0).Core.vty
        in
        Core.replace_op op [ zero ];
        true
      end
      else false)

(* x and x => x, x or x => x, min/max x x => x. *)
let self_identity =
  Rewrite.pattern "self-identity" (fun op ->
      if
        List.mem op.Core.name
          [ "arith.andi"; "arith.ori"; "arith.minsi"; "arith.maxsi";
            "arith.minimumf"; "arith.maximumf" ]
        && Core.value_equal (Core.operand op 0) (Core.operand op 1)
      then begin
        Core.replace_op op [ Core.operand op 0 ];
        true
      end
      else false)

(* cmpi of a value with itself folds to the reflexive truth value. *)
let cmp_same =
  Rewrite.pattern "cmpi-same" (fun op ->
      if
        op.Core.name = "arith.cmpi"
        && Core.value_equal (Core.operand op 0) (Core.operand op 1)
      then
        match Dialects.Arith.icmp_predicate op with
        | Some p ->
          let v =
            match p with
            | Dialects.Arith.Eq | Dialects.Arith.Sle | Dialects.Arith.Sge -> true
            | Dialects.Arith.Ne | Dialects.Arith.Slt | Dialects.Arith.Sgt -> false
          in
          let b = Builder.before op in
          Builder.set_default_loc b op.Core.loc;
          let c = Dialects.Arith.const_bool b v in
          Core.replace_op op [ c ];
          true
        | None -> false
      else false)

(* select %c, %x, %x => %x. *)
let select_same =
  Rewrite.pattern "select-same" (fun op ->
      if
        op.Core.name = "arith.select"
        && Core.value_equal (Core.operand op 1) (Core.operand op 2)
      then begin
        Core.replace_op op [ Core.operand op 1 ];
        true
      end
      else false)

(* (x + c1) + c2 => x + (c1+c2); likewise for muli. Re-associating constant
   chains lets long index computations fold after unrolling. *)
let reassoc_const =
  Rewrite.pattern "reassoc-const" (fun op ->
      let name = op.Core.name in
      if name <> "arith.addi" && name <> "arith.muli" then false
      else
        match Rewrite.constant_of_value (Core.operand op 1) with
        | Some (Attr.Int c2) -> (
          match Core.defining_op (Core.operand op 0) with
          | Some inner when inner.Core.name = name -> (
            match Rewrite.constant_of_value (Core.operand inner 1) with
            | Some (Attr.Int c1) ->
              let b = Builder.before op in
              Builder.set_default_loc b op.Core.loc;
              let combined =
                if name = "arith.addi" then c1 + c2 else c1 * c2
              in
              let c =
                Dialects.Arith.constant b (Attr.Int combined)
                  (Core.result op 0).Core.vty
              in
              Core.set_operand op 0 (Core.operand inner 0);
              Core.set_operand op 1 c;
              true
            | _ -> false)
          | _ -> false)
        | _ -> false)

let patterns =
  [ scf_if_const; scf_for_zero_trip; self_cancel; self_identity; cmp_same;
    select_same; reassoc_const ]

let pass =
  Pass.make ~idempotent:true "canonicalize" (fun m stats ->
      (* Per-kind counters ("canonicalize.fold", "canonicalize.dce",
         "canonicalize.pattern.<name>") plus the historical total. *)
      let on_rewrite ~func kind op =
        (match kind with
        | "fold" -> Pass.Stats.bump stats "canonicalize.fold"
        | "dce" -> Pass.Stats.bump stats "canonicalize.dce"
        | name -> Pass.Stats.bump stats ("canonicalize.pattern." ^ name));
        if Remarks.enabled () then
          (* [op] may already be erased (dce) — its name and location
             stay readable, and [~func] supplies the context an erased
             op can no longer. *)
          Remarks.emit ~pass:"canonicalize" ~name:kind Remarks.Passed ~op ~func
            (Printf.sprintf "%s rewritten by %s" op.Core.name
               (match kind with
               | "fold" -> "constant folding"
               | "dce" -> "dead pure-op elimination"
               | name -> "pattern " ^ name))
      in
      (* From its second execution in a pipeline run, only the ops
         stamped since the previous one ended can have become
         rewritable: the previous one left a fixpoint. *)
      let since = Pass.previous_end "canonicalize" in
      let st = Rewrite.apply_worklist ?since ~on_rewrite m patterns in
      Pass.Stats.bump ~by:st.Rewrite.rw_rewrites stats "rewrites";
      (* Compiler-speed counter: deterministic, gated by bench compare. *)
      Pass.Stats.bump ~by:st.Rewrite.rw_ops_visited stats
        "canonicalize.ops_visited")
