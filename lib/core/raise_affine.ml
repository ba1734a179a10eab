(* scf.for -> affine.for raising. Polygeist, the paper's device frontend,
   "maintains affine loops and other structured control-flow constructs"
   (Section IX); the frontend EDSL emits scf loops, and this pass recovers
   the affine form for loops whose bounds are constants or plain SSA
   index values and whose step is a positive constant — exactly the form
   the paper's listings (affine.for) show. All loop-consuming passes here
   accept both forms; the raising keeps the IR closer to the paper's. *)

open Mlir

let bound_of (v : Core.value) : Dialects.Affine_ops.bound option =
  match Rewrite.constant_of_value v with
  | Some (Attr.Int c) -> Some (Dialects.Affine_ops.Const c)
  | Some _ -> None
  | None -> Some (Dialects.Affine_ops.Value v)

let raise_loop (loop : Core.op) : bool =
  match Rewrite.constant_of_value (Dialects.Scf.for_step loop) with
  | Some (Attr.Int step) when step > 0 -> (
    match (bound_of (Dialects.Scf.for_lb loop), bound_of (Dialects.Scf.for_ub loop)) with
    | Some lb, Some ub ->
      let lb_map, lb_ops = Dialects.Affine_ops.bound_map lb in
      let ub_map, ub_ops = Dialects.Affine_ops.bound_map ub in
      let inits = Dialects.Scf.for_iter_inits loop in
      (* Move the body block into the new op; rewrite the terminator. *)
      let body = Dialects.Scf.for_body loop in
      (match Core.last_op body with
      | Some term when Dialects.Scf.is_yield term ->
        let operands = Core.operands term in
        let b = Builder.before term in
        Builder.op0 b "affine.yield" ~operands;
        Core.erase_op term
      | _ -> ());
      let region =
        Core.create_region ~blocks:(Core.take_blocks loop.Core.regions.(0)) ()
      in
      let new_loop =
        Core.create_op "affine.for"
          ~operands:(lb_ops @ ub_ops @ inits)
          ~result_types:(List.map (fun r -> r.Core.vty) (Core.results loop))
          ~attrs:
            [
              ("lb_map", Attr.Affine_map lb_map);
              ("ub_map", Attr.Affine_map ub_map);
              ("step", Attr.Int step);
              ("lb_count", Attr.Int (List.length lb_ops));
            ]
          ~regions:[ region ]
      in
      Core.insert_before ~anchor:loop new_loop;
      Core.replace_op loop (Core.results new_loop);
      true
    | _ -> false)
  | _ -> false

let run_on_func (f : Core.op) stats =
  let changed = ref true in
  while !changed do
    changed := false;
    let loops = Core.collect f ~p:Dialects.Scf.is_for in
    List.iter
      (fun loop ->
        if loop.Core.parent_block <> None && raise_loop loop then begin
          Pass.Stats.bump stats "raise-affine.raised";
          changed := true
        end)
      loops
  done

let pass = Pass.on_functions "raise-affine" run_on_func
