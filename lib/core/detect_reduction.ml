(* Array-reduction detection (Section VI-B): a loop that loads an array
   element, combines it, and stores it back on every iteration — with a
   loop-invariant address — is rewritten to accumulate in a loop-carried
   scalar (iter_args), with a single load before and a single store after
   the loop. This removes 2N memory accesses from an N-trip loop.

   Safety relies on the SYCL-aware alias analysis (Section V-A): no other
   access in the loop may touch the reduced location. For SYCL kernels the
   required no-alias facts between accessors typically come from the joint
   host/device analysis (Section VII). *)

open Mlir

(* Same-location check: both ops access the same memref value with
   syntactically identical index operands. *)
let same_location (mem1 : Core.value) idx1 (mem2 : Core.value) idx2 =
  Core.value_equal mem1 mem2
  && List.length idx1 = List.length idx2
  && List.for_all2 Core.value_equal idx1 idx2

(** Does the backward slice of [v] (within [region]) reach [target]? *)
let depends_on (region : Core.region) (target : Core.value) (v : Core.value) =
  let seen = Hashtbl.create 16 in
  let rec go v =
    if Core.value_equal v target then true
    else if Hashtbl.mem seen v.Core.vid then false
    else begin
      Hashtbl.replace seen v.Core.vid ();
      match v.Core.vdef with
      | Core.Op_result (op, _) when Core.is_in_region region op ->
        List.exists go (Core.operands op)
      | _ -> false
    end
  in
  go v

type candidate = {
  red_load : Core.op;
  red_store : Core.op;
  red_mem : Core.value;
  red_idx : Core.value list;
}

let remark = Remarks.emit ~pass:"detect-reduction"

(** Find one reduction candidate in the top-level body of [loop].
    [report ld reason] is called for load/store pairs that form a
    reduction shape but are blocked (used for missed-optimization
    remarks). *)
let find_candidate ?(report = fun _ _ -> ()) (loop : Core.op) :
    candidate option =
  let region = loop.Core.regions.(0) in
  let body = Core.entry_block region in
  let inv v = Dominance.defined_outside_region region v in
  let ops = Core.ops body in
  let loads =
    List.filter Dialects.Memref.is_load ops
  and stores = List.filter Dialects.Memref.is_store ops in
  let all_mem_ops =
    List.concat_map
      (fun op ->
        match Op_registry.memory_effects op with
        | None -> [ (op, None) ] (* unknown *)
        | Some effects ->
          List.filter_map
            (fun (kind, target) ->
              match (kind, target) with
              | (Op_registry.Read | Op_registry.Write), Op_registry.On_operand i ->
                Some (op, Some (Core.operand op i))
              | (Op_registry.Read | Op_registry.Write), _ -> Some (op, None)
              | _ -> None)
            effects)
      (let acc = ref [] in
       Core.walk loop ~f:(fun o -> if not (o == loop) then acc := o :: !acc);
       !acc)
  in
  let check (ld : Core.op) (st : Core.op) =
    let lmem, lidx = Dialects.Memref.load_parts ld in
    let sval, smem, sidx = Dialects.Memref.store_parts st in
    if
      same_location lmem lidx smem sidx
      && List.for_all inv (lmem :: lidx)
      && Dominance.properly_dominates ld st
      && depends_on region (Core.result ld 0) sval
    then
      if
        (* Only this load/store pair may touch the location. *)
        List.for_all
          (fun (op, target) ->
            op == ld || op == st
            ||
            match target with
            | None -> false
            | Some t -> not (Alias.may_alias t lmem))
          all_mem_ops
        (* The load result must feed only the reduction computation inside
           the loop. *)
        && List.for_all
             (fun (user, _) -> Core.is_in_region region user)
             (Core.uses (Core.result ld 0))
      then
        Some { red_load = ld; red_store = st; red_mem = lmem; red_idx = lidx }
      else begin
        (* Reduction shape, but blocked: the alias analysis cannot prove
           the reduced location untouched by the rest of the loop. *)
        report ld
          "reduction-shaped load/store pair not promoted to a scalar: \
           another access in the loop may alias the reduced location";
        None
      end
    else None
  in
  List.find_map
    (fun ld -> List.find_map (fun st -> check ld st) stores)
    loads

(** Rewrite [loop] for candidate [c]: the reduced element becomes an
    iter_arg, loaded once before the loop and stored once after it. When
    the trip count is not provably positive, the whole rewritten
    construct is guarded by a versioning condition (trip > 0), with the
    original iteration values flowing through the else branch — a zero-
    trip loop must not perform the load/store at all. *)
let apply (loop : Core.op) (c : candidate) : unit =
  let orig_result_tys = List.map (fun r -> r.Core.vty) (Core.results loop) in
  let orig_inits = Dialects.Loop.iter_inits loop in
  let need_guard =
    match Dialects.Loop.const_bounds loop with
    | Some (lb, ub) -> not (lb < ub)
    | None -> true
  in
  (* [emit b] builds init-load + rewritten loop + final store at [b] and
     returns the rewritten loop's results corresponding to the original
     loop results. *)
  (* The rewritten construct stands for the original loop plus the
     reduced load/store pair it absorbed; scaffolding (guard, init load,
     final store) is stamped with the same fused location via the
     builders' default. *)
  let fused_loc =
    Loc.fused [ loop.Core.loc; c.red_load.Core.loc; c.red_store.Core.loc ]
  in
  let emit (b : Builder.t) : Core.value list =
    Builder.set_default_loc b fused_loc;
    let init = Dialects.Memref.load b c.red_mem c.red_idx in
    let new_arg = Core.add_block_arg (Dialects.Loop.body loop) init.Core.vty in
    Core.replace_op c.red_load [ new_arg ];
    let yielded, _, _ = Dialects.Memref.store_parts c.red_store in
    let term =
      match Dialects.Loop.yield loop with
      | Some t -> t
      | None -> invalid_arg "detect_reduction: loop body lacks terminator"
    in
    Core.set_operands term (Core.operands term @ [ yielded ]);
    Core.erase_op c.red_store;
    (* Move the body into a fresh region for the rebuilt loop op. *)
    let region =
      Core.create_region ~blocks:(Core.take_blocks loop.Core.regions.(0)) ()
    in
    let new_loop =
      Builder.insert b
        (Core.create_op loop.Core.name
           ~operands:(Core.operands loop @ [ init ])
           ~result_types:(orig_result_tys @ [ init.Core.vty ])
           ~attrs:loop.Core.attrs ~regions:[ region ] ~loc:fused_loc)
    in
    let n = Core.num_results new_loop - 1 in
    Dialects.Memref.store b (Core.result new_loop n) c.red_mem c.red_idx;
    List.filteri (fun i _ -> i < n) (Core.results new_loop)
  in
  if not need_guard then begin
    let b = Builder.before loop in
    Core.replace_op loop (emit b)
  end
  else begin
    let b = Builder.before loop in
    Builder.set_default_loc b fused_loc;
    let lb, ub = Dialects.Loop.bound_values b loop in
    let cond = Dialects.Arith.cmpi b Dialects.Arith.Slt lb ub in
    let if_op =
      Dialects.Scf.if_ b cond ~result_types:orig_result_tys
        ~then_:(fun bb ->
          (* The loop op itself moves here. *)
          ignore bb;
          [])
        ~else_:(fun _ -> orig_inits)
        ()
    in
    let then_block = Core.entry_block if_op.Core.regions.(0) in
    let then_term = Option.get (Core.last_op then_block) in
    let bb = Builder.before then_term in
    Core.detach_op loop;
    let new_results = emit bb in
    Core.set_operands then_term new_results;
    Core.replace_op loop (Core.results if_op)
  end

let run_on_func (f : Core.op) stats =
  (* Missed-remark dedup: [optimize] rescans every loop after each
     rewrite, so a blocked pair would otherwise be reported once per
     fixpoint iteration. *)
  let reported = Hashtbl.create 8 in
  let report (ld : Core.op) reason =
    if not (Hashtbl.mem reported ld.Core.oid) then begin
      Hashtbl.replace reported ld.Core.oid ();
      remark ~name:"blocked-by-alias" Remarks.Missed ~op:ld reason
    end
  in
  let rec optimize () =
    let applied =
      List.exists
        (fun loop ->
          match find_candidate ~report loop with
          | Some c ->
            remark ~name:"rewritten" Remarks.Passed ~op:c.red_load
              "array reduction rewritten to a loop-carried scalar: one load \
               before and one store after the loop replace a load/store pair \
               per iteration";
            apply loop c;
            Pass.Stats.bump stats "reduction.rewritten";
            true
          | None -> false)
        (Dialects.Loop.innermost_first f)
    in
    if applied then optimize ()
  in
  optimize ()

let pass = Pass.on_functions "detect-reduction" run_on_func
