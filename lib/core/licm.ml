(* Loop-invariant code motion (Section VI-A). Unlike MLIR's upstream
   utility — which only hoists ops free of memory effects — this pass also
   hoists loads (and in restricted cases stores), using the SYCL-aware
   alias analysis to prove that no operation in the loop clobbers the
   accessed location.

   When a memory operation is hoisted, the loop is guarded by a versioning
   condition (trip count > 0) so the hoisted access cannot introduce a
   side effect the original program did not have. Loads blocked only by a
   may-alias (not must-alias) with stores through a different accessor are
   handled by a second versioning condition that checks at runtime that
   the two accessors do not overlap (sycl.accessor.distinct). *)

open Mlir

(** All ops (transitively) inside [loop] except [loop] itself. *)
let loop_ops (loop : Core.op) =
  let acc = ref [] in
  Core.walk loop ~f:(fun o -> if not (o == loop) then acc := o :: !acc);
  List.rev !acc

type write_summary = {
  (* Values written through (memref-typed targets). *)
  write_targets : Core.value list;
  (* Some op in the loop has unknown or anywhere effects. *)
  has_unknown : bool;
  read_targets : Core.value list;
}

let summarize_writes (loop : Core.op) =
  let writes = ref [] and reads = ref [] and unknown = ref false in
  List.iter
    (fun op ->
      match Op_registry.memory_effects op with
      | None -> unknown := true
      | Some effects ->
        List.iter
          (fun (kind, target) ->
            let value_of = function
              | Op_registry.On_operand i -> Some (Core.operand op i)
              | Op_registry.On_result i -> Some (Core.result op i)
              | Op_registry.Anywhere -> None
            in
            match kind with
            | Op_registry.Write | Op_registry.Free -> (
              match value_of target with
              | Some v -> writes := v :: !writes
              | None -> unknown := true)
            | Op_registry.Read -> (
              match value_of target with
              | Some v -> reads := v :: !reads
              | None -> unknown := true)
            | Op_registry.Alloc -> ())
          effects)
    (loop_ops loop);
  { write_targets = !writes; has_unknown = !unknown; read_targets = !reads }

type hoist_class =
  | Hoist_pure
  | Hoist_load  (** requires trip-count guard *)
  | Hoist_load_if_distinct of Core.value * Core.value
      (** requires runtime accessor-overlap check between the two values *)

let remark = Remarks.emit ~pass:"licm"

(** Decide whether [op] in [loop] can be hoisted, given invariant value
    predicate [inv]. *)
let classify (summary : write_summary) (loop : Core.op) inv (op : Core.op) :
    hoist_class option =
  let operands_ok = List.for_all inv (Core.operands op) in
  if not operands_ok then None
  else if Core.num_regions op > 0 then None
  else if Op_registry.is_pure op && Op_registry.is_speculatable op then
    Some Hoist_pure
  else
    match Op_registry.memory_effects op with
    | Some [ (Op_registry.Read, Op_registry.On_operand i) ]
      when Core.num_results op > 0 ->
      if summary.has_unknown then None
      else begin
        let target = Core.operand op i in
        (* Conflicting writes in the loop? *)
        let conflicts =
          List.filter
            (fun w -> Alias.may_alias w target)
            summary.write_targets
        in
        match conflicts with
        | [] -> Some Hoist_load
        | [ w ] when Alias.alias w target = Alias.May_alias -> (
          (* A single may-alias conflict: version on runtime disjointness
             when both sides are rooted in accessors. *)
          match (Alias.base_of w, Alias.base_of target) with
          | Alias.Accessor_arg a, Alias.Accessor_arg b
            when not (Core.value_equal a b) ->
            Some (Hoist_load_if_distinct (a, b))
          | _ -> None)
        | _ -> None
      end
    | _ -> None

(** Why a memory read with invariant operands was not classified as
    hoistable — the -Rpass-missed reason. Mirrors the blocked branches of
    {!classify}; returns None for ops no one would expect to hoist. *)
let missed_reason (summary : write_summary) inv (op : Core.op) :
    string option =
  if Op_registry.is_terminator op || Core.num_regions op > 0 then None
  else
    match Op_registry.memory_effects op with
    | Some [ (Op_registry.Read, Op_registry.On_operand i) ]
      when Core.num_results op > 0 && List.for_all inv (Core.operands op) ->
      if summary.has_unknown then
        Some "loop contains an operation with unknown memory effects"
      else begin
        let target = Core.operand op i in
        let conflicts =
          List.filter (fun w -> Alias.may_alias w target) summary.write_targets
        in
        match conflicts with
        | [] -> None (* would have been hoisted *)
        | [ w ] when Alias.alias w target = Alias.Must_alias ->
          Some "load clobbered by a must-aliasing store in the loop"
        | [ _ ] ->
          Some
            "load may alias a store in the loop and the pair is not \
             versionable on accessor disjointness"
        | ws ->
          Some
            (Printf.sprintf
               "load may be clobbered by %d aliasing stores in the loop"
               (List.length ws))
      end
    | _ -> None

(** Hoist classified ops out of [loop]. Strategy:
    - pure ops hoist unconditionally (they are speculatable);
    - loads hoist only when we can guard the whole loop with a trip-count
      check, which requires the loop to have no results and the hoisted
      values to be used only inside the loop — both are checked;
    - loads under [Hoist_load_if_distinct] additionally require a runtime
      accessor-overlap versioning condition. *)
let optimize_loop stats (loop : Core.op) =
  let region = loop.Core.regions.(0) in
  let inv v = Dominance.defined_outside_region region v in
  let summary = summarize_writes loop in
  let body = Core.entry_block region in
  (* Iteratively classify: hoisting one op makes its users' operands
     invariant. We only consider top-level body ops (not nested). *)
  let hoistable : (Core.op * hoist_class) list ref = ref [] in
  let hoisted_values = Hashtbl.create 16 in
  let inv' v =
    inv v
    || match v.Core.vdef with
       | Core.Op_result (op, _) -> Hashtbl.mem hoisted_values op.Core.oid
       | _ -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun op ->
        if
          (not (Hashtbl.mem hoisted_values op.Core.oid))
          && not (Op_registry.is_terminator op)
        then
          match classify summary loop inv' op with
          | Some cls ->
            Hashtbl.replace hoisted_values op.Core.oid ();
            hoistable := (op, cls) :: !hoistable;
            changed := true
          | None -> ())
      (Core.ops body)
  done;
  let hoistable = List.rev !hoistable in
  (* Blocked memory reads: remark why each one stayed (the paper's "why
     didn't LICM hoist that load" question). *)
  if Remarks.enabled () then
    List.iter
      (fun op ->
        if not (Hashtbl.mem hoisted_values op.Core.oid) then
          match missed_reason summary inv' op with
          | Some reason ->
            remark ~name:"blocked-by-alias" Remarks.Missed ~op reason
          | None -> ())
      (Core.ops body);
  if hoistable = [] then 0
  else begin
    let pure, loads =
      List.partition (fun (_, c) -> c = Hoist_pure) hoistable
    in
    (* Pure ops hoist unconditionally. *)
    List.iter
      (fun (op, _) ->
        Core.move_before ~anchor:loop op;
        remark ~name:"hoisted-pure" Remarks.Passed ~op
          "hoisted loop-invariant pure operation out of the loop")
      pure;
    Pass.Stats.bump ~by:(List.length pure) stats "licm.hoisted-pure";
    (* Memory ops need guarding; only safe when the loop yields nothing
       and the hoisted results are used only inside the loop. *)
    let guardable, unguardable =
      if Core.num_results loop > 0 then ([], loads)
      else
        List.partition
          (fun (op, _) ->
            List.for_all
              (fun r ->
                List.for_all
                  (fun (user, _) -> Core.is_in_region region user)
                  (Core.uses r))
              (Core.results op))
          loads
    in
    List.iter
      (fun (op, _) ->
        remark ~name:"blocked-by-guard" Remarks.Missed ~op
          (if Core.num_results loop > 0 then
             "load not hoisted: the loop yields values, so it cannot be \
              wrapped in a trip-count versioning guard"
           else
             "load not hoisted: its value is used outside the loop, so the \
              versioned copy cannot be isolated"))
      unguardable;
    let loads = guardable in
    let distinct_checks =
      List.filter_map
        (fun (_, c) ->
          match c with Hoist_load_if_distinct (a, b) -> Some (a, b) | _ -> None)
        loads
      |> List.sort_uniq compare
    in
    if loads <> [] then begin
      (* Build: %guard = trip > 0 [&& distinct a b ...];
         scf.if %guard { hoisted loads; loop } else { original loop }. *)
      let b = Builder.before loop in
      (* The guard is versioning machinery for this loop: every op it
         adds (bound reads, compare, distinct checks, scf.if) inherits
         the loop's source location. *)
      Builder.set_default_loc b loop.Core.loc;
      let lb, ub = Dialects.Loop.bound_values b loop in
      let trip_ok = Dialects.Arith.cmpi b Dialects.Arith.Slt lb ub in
      let guard =
        List.fold_left
          (fun acc (x, y) ->
            let d =
              Builder.op1 b "sycl.accessor.distinct" ~operands:[ x; y ]
                ~result_type:Types.i1
            in
            Dialects.Arith.andi b acc d)
          trip_ok distinct_checks
      in
      let orig_clone = Core.clone_op loop in
      let if_op =
        Dialects.Scf.if_ b guard
          ~then_:(fun _ -> [])
          ~else_:(fun _ -> [])
          ()
      in
      let then_block = Core.entry_block if_op.Core.regions.(0) in
      let else_block = Core.entry_block if_op.Core.regions.(1) in
      (* Move hoisted loads + the optimized loop into the then branch. *)
      let then_anchor = Option.get (Core.last_op then_block) (* the yield *) in
      List.iter
        (fun (op, cls) ->
          Core.move_before ~anchor:then_anchor op;
          remark ~name:"hoisted-mem" Remarks.Passed ~op
            (match cls with
            | Hoist_load_if_distinct _ ->
              "hoisted loop-invariant load under a trip-count guard plus a \
               runtime accessor-disjointness check (alias analysis found a \
               single versionable may-alias)"
            | _ ->
              "hoisted loop-invariant load under a trip-count guard (alias \
               analysis proved no interfering store in the loop)"))
        loads;
      Core.detach_op loop;
      Core.insert_before ~anchor:then_anchor loop;
      let else_anchor = Option.get (Core.last_op else_block) in
      Core.insert_before ~anchor:else_anchor orig_clone;
      Pass.Stats.bump ~by:(List.length loads) stats "licm.hoisted-mem";
      if distinct_checks <> [] then
        Pass.Stats.bump ~by:(List.length distinct_checks) stats "licm.versioned-noalias"
    end;
    List.length pure + List.length loads
  end

let run_on_func (f : Core.op) stats =
  List.iter (fun l -> ignore (optimize_loop stats l)) (Dialects.Loop.innermost_first f)

let pass = Pass.on_functions "licm" run_on_func
