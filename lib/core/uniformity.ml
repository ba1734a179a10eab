(* Inter-procedural uniformity analysis (Section V-C): tracks whether a
   value is the same for every work-item of a work-group. A divergent
   branch is a branch whose condition is non-uniform. Used by loop
   internalization to refuse to insert group barriers inside divergent
   regions (a barrier there would deadlock).

   Lattice: Uniform < Unknown < Non_uniform (join = max).
   - Sources of non-uniformity come from the registry trait
     (sycl.nd_item.get_global_id etc.).
   - SSA values: non-uniform if any operand is non-uniform; unknown if any
     operand unknown; uniform if all operands uniform and the op is free
     of memory effects.
   - Loads are refined through the reaching-definition analysis: the
     uniformity of the (potential) modifiers' stored values and of their
     dominating branch conditions propagates to the loaded value.
   - Works inter-procedurally across the call graph; SYCL kernel entry
     points have uniform parameters by definition. *)

open Mlir

type lattice =
  | Uniform
  | Unknown
  | Non_uniform

let lattice_to_string = function
  | Uniform -> "uniform"
  | Unknown -> "unknown"
  | Non_uniform -> "non-uniform"

let rank = function Uniform -> 0 | Unknown -> 1 | Non_uniform -> 2
let join a b = if rank a >= rank b then a else b
let joins xs = List.fold_left join Uniform xs

(** Functions are SYCL kernel entry points when tagged with this attr. *)
let kernel_attr = "sycl.kernel"

let is_kernel f = Core.has_attr f kernel_attr

type t = {
  values : (int, lattice) Hashtbl.t;  (* value id -> lattice *)
  (* per-function summaries *)
  returns : (string, lattice list) Hashtbl.t;
  params : (string, lattice array) Hashtbl.t;
  rd : (int, Reaching_defs.t) Hashtbl.t;  (* func oid -> reaching defs *)
  (* False when the fixpoint loop hit its iteration cap: stored lattices
     may be stale under-approximations (a value could still rise to
     Non_uniform), so queries must degrade to at least Unknown. *)
  mutable converged : bool;
}

let converged t = t.converged

let raw_value t (v : Core.value) =
  Option.value ~default:Uniform (Hashtbl.find_opt t.values v.Core.vid)

(* On an unconverged analysis, claiming Uniform would be unsound — a
   barrier placed on that claim can deadlock — so join with Unknown. *)
let value t (v : Core.value) =
  let l = raw_value t v in
  if t.converged then l else join l Unknown

let set_value t (v : Core.value) l changed =
  let old = raw_value t v in
  let l = join old l in
  if l <> old then begin
    Hashtbl.replace t.values v.Core.vid l;
    changed := true
  end

(** Conditions guarding the execution of [op]: the conditions of enclosing
    scf.ifs and the bound operands of enclosing loops, up to the function
    boundary. *)
let rec guarding_values (op : Core.op) : Core.value list =
  match Core.parent_op op with
  | None -> []
  | Some p ->
    let here =
      if Dialects.Scf.is_if p then [ Core.operand p 0 ]
      else if Dialects.Loop.is_loop p then Dialects.Loop.bound_operands p
      else []
    in
    if Core.is_func p then [] else here @ guarding_values p

let stored_values (op : Core.op) : Core.value list option =
  if Dialects.Memref.is_store op then Some [ Core.operand op 0 ]
  else if op.Core.name = "affine.store" then Some [ Core.operand op 0 ]
  else if Sycl_ops.is_constructor op then Some (Sycl_ops.constructor_args op)
  else None

let analyze (m : Core.op) : t =
  let t =
    {
      values = Hashtbl.create 256;
      returns = Hashtbl.create 16;
      params = Hashtbl.create 16;
      rd = Hashtbl.create 16;
      converged = true;
    }
  in
  let funcs = Core.funcs m in
  (* Initialize parameter lattices. *)
  List.iter
    (fun f ->
      if not (Dialects.Func.is_declaration f) then begin
        let args = Core.block_args (Core.func_body f) in
        let init =
          if is_kernel f then Uniform
          else if
            (* Unknown when no internal call sites could inform us. *)
            List.exists
              (fun g ->
                Core.collect g ~p:(fun o ->
                    (Dialects.Func.is_call o || Dialects.Llvm.is_call o)
                    && Core.attr_symbol o "callee" = Some (Core.func_sym f))
                <> [])
              funcs
          then Uniform (* bottom; call sites will raise it *)
          else Unknown
        in
        Hashtbl.replace t.params (Core.func_sym f)
          (Array.make (List.length args) init);
        List.iter (fun a -> Hashtbl.replace t.values a.Core.vid init) args;
        Hashtbl.replace t.rd f.Core.oid (Reaching_defs.analyze_with_args f)
      end)
    funcs;
  let changed = ref true in
  let guard_lattice op = joins (List.map (value t) (guarding_values op)) in
  let rec eval_op (f : Core.op) (op : Core.op) =
    let info = Op_registry.info op in
    (* Recurse into regions first. *)
    Array.iter
      (fun r ->
        List.iter (Core.iter_ops (eval_op f)) r.Core.blocks)
      op.Core.regions;
    let operand_lat = joins (List.map (value t) (Core.operands op)) in
    if info.Op_registry.non_uniform_source then
      List.iter (fun r -> set_value t r Non_uniform changed) (Core.results op)
    else if Dialects.Loop.is_loop op then begin
      (* iv: uniform iff the bounds are; iter args: join of inits and
         yields; results likewise. *)
      let bound_lat = joins (List.map (value t) (Dialects.Loop.bound_operands op)) in
      set_value t (Dialects.Loop.iv op) bound_lat changed;
      let inits = Dialects.Loop.iter_inits op in
      let yields =
        match Dialects.Loop.yield op with Some term -> Core.operands term | None -> []
      in
      List.iteri
        (fun i arg ->
          let l =
            join
              (value t (List.nth inits i))
              (match List.nth_opt yields i with
              | Some y -> value t y
              | None -> Unknown)
          in
          set_value t arg l changed;
          set_value t (Core.result op i) l changed)
        (Dialects.Loop.iter_args op)
    end
    else if Dialects.Scf.is_if op then begin
      let cond_l = value t (Core.operand op 0) in
      Array.iteri
        (fun i r ->
          ignore i;
          match r.Core.blocks with
          | [ b ] -> (
            match Core.last_op b with
            | Some term when Dialects.Scf.is_yield term ->
              List.iteri
                (fun j y ->
                  if j < Core.num_results op then
                    set_value t (Core.result op j) (join cond_l (value t y)) changed)
                (Core.operands term)
            | _ -> ())
          | _ -> ())
        op.Core.regions
    end
    else if Dialects.Func.is_call op || Dialects.Llvm.is_call op then begin
      match Core.attr_symbol op "callee" with
      | Some callee -> (
        (* Propagate actual-arg uniformity into the callee's params. *)
        (match Hashtbl.find_opt t.params callee with
        | Some params ->
          List.iteri
            (fun i a ->
              if i < Array.length params then begin
                let l = join params.(i) (value t a) in
                if l <> params.(i) then begin
                  params.(i) <- l;
                  changed := true
                end
              end)
            (Core.operands op);
          (* Refresh the callee's formal argument values. *)
          (match
             List.find_opt (fun g -> Core.func_sym g = callee) funcs
           with
          | Some g when not (Dialects.Func.is_declaration g) ->
            List.iteri
              (fun i a -> if i < Array.length params then set_value t a params.(i) changed)
              (Core.block_args (Core.func_body g))
          | _ -> ())
        | None -> ());
        match Hashtbl.find_opt t.returns callee with
        | Some rets ->
          List.iteri
            (fun i r ->
              set_value t r
                (match List.nth_opt rets i with Some l -> l | None -> Unknown)
                changed)
            (Core.results op)
        | None ->
          (* External call: unknown results. *)
          List.iter (fun r -> set_value t r Unknown changed) (Core.results op))
      | None ->
        List.iter (fun r -> set_value t r Unknown changed) (Core.results op)
    end
    else begin
      match Op_registry.memory_effects op with
      | Some [] ->
        (* Pure: operand-driven. *)
        List.iter (fun r -> set_value t r operand_lat changed) (Core.results op)
      | Some effects ->
        (* Analyze each memory effect; reads are refined through reaching
           definitions, writes need no result handling. *)
        let l = ref operand_lat in
        List.iter
          (fun (kind, target) ->
            match (kind, target) with
            | Op_registry.Read, Op_registry.On_operand i -> (
              let mem = Core.operand op i in
              match Hashtbl.find_opt t.rd f.Core.oid with
              | None -> l := join !l Unknown
              | Some rd ->
                let defs = Reaching_defs.defs_at rd mem ~at:op in
                let contrib (d : Core.op) =
                  let stored =
                    match stored_values d with
                    | Some vs -> joins (List.map (value t) vs)
                    | None -> Unknown
                  in
                  join stored (guard_lattice d)
                in
                List.iter
                  (fun d -> l := join !l (contrib d))
                  (defs.Reaching_defs.mods @ defs.Reaching_defs.pmods))
            | Op_registry.Read, Op_registry.Anywhere -> l := join !l Unknown
            | _ -> ())
          effects;
        List.iter (fun r -> set_value t r !l changed) (Core.results op)
      | None ->
        (* Unknown memory effects: unknown uniformity. *)
        List.iter (fun r -> set_value t r Unknown changed) (Core.results op)
    end
  in
  let eval_func f =
    if not (Dialects.Func.is_declaration f) then begin
      Core.iter_ops (eval_op f) (Core.func_body f);
      (* Return summary. *)
      let rets =
        match Core.last_op (Core.func_body f) with
        | Some term when term.Core.name = "func.return" ->
          List.map (value t) (Core.operands term)
        | _ -> []
      in
      let old = Hashtbl.find_opt t.returns (Core.func_sym f) in
      if old <> Some rets then begin
        Hashtbl.replace t.returns (Core.func_sym f) rets;
        changed := true
      end
    end
  in
  let iterations = ref 0 in
  while !changed && !iterations < 32 do
    changed := false;
    incr iterations;
    List.iter eval_func funcs
  done;
  (* Cap-hit: the last sweep still changed something. The seed silently
     kept the stale (under-approximated) lattices — deep call chains
     came out Uniform and a barrier could be placed inside a divergent
     region. Record non-convergence so every query degrades to at least
     Unknown, and say so out loud. *)
  t.converged <- not !changed;
  if not t.converged && Remarks.enabled () then
    Remarks.emit ~pass:"uniformity" ~name:"convergence-cap" Remarks.Analysis
      (Printf.sprintf
         "fixpoint not reached after %d sweeps (call graph deeper than the \
          cap); unconverged values are conservatively treated as unknown \
          uniformity"
         !iterations);
  t

(** Is [op] inside a divergent region — an scf.if with a (possibly)
    non-uniform condition or a loop with (possibly) non-uniform bounds —
    within its function? Conservative: Unknown counts as divergent. *)
let in_divergent_region (t : t) (op : Core.op) =
  List.exists (fun v -> value t v <> Uniform) (guarding_values op)
