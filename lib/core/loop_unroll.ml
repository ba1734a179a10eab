(* Full unrolling of small constant-trip loops. Complements the constant
   propagation of Section VII-B: once a loop bound has been folded (e.g.
   a filter size), unrolling exposes the constant indices inside — the
   final step that lets constant-array loads fold away entirely. Only
   loops without side-effect-bearing region ops *need* care; we support
   scf.for and affine.for with iter_args. *)

open Mlir

let threshold = 16

let const_trip (loop : Core.op) =
  if Dialects.Scf.is_for loop then
    match
      ( Rewrite.constant_of_value (Dialects.Scf.for_lb loop),
        Rewrite.constant_of_value (Dialects.Scf.for_ub loop),
        Rewrite.constant_of_value (Dialects.Scf.for_step loop) )
    with
    | Some (Attr.Int lb), Some (Attr.Int ub), Some (Attr.Int step) when step > 0 ->
      Some (lb, ub, step)
    | _ -> None
  else
    match Dialects.Affine_ops.for_const_bounds loop with
    | Some (lb, ub) -> Some (lb, ub, Dialects.Affine_ops.for_step loop)
    | None -> None

let body_size (loop : Core.op) =
  let n = ref 0 in
  Core.walk loop ~f:(fun _ -> incr n);
  !n - 1

let unroll (loop : Core.op) ~(lb : int) ~(ub : int) ~(step : int) stats =
  let b = Builder.before loop in
  let body = Core.entry_block loop.Core.regions.(0) in
  let iv = Core.block_arg body 0 in
  let iter_args = List.tl (Core.block_args body) in
  let inits =
    if Dialects.Scf.is_for loop then Dialects.Scf.for_iter_inits loop
    else Dialects.Affine_ops.for_iter_inits loop
  in
  let term =
    match List.rev body.Core.body with
    | t :: _ when Op_registry.is_terminator t -> t
    | _ -> invalid_arg "loop_unroll: no terminator"
  in
  let carried = ref inits in
  let i = ref lb in
  while !i < ub do
    let value_map = Hashtbl.create 32 in
    let iv_c = Dialects.Arith.const_index b !i in
    Hashtbl.replace value_map iv.Core.vid iv_c;
    List.iter2
      (fun formal actual -> Hashtbl.replace value_map formal.Core.vid actual)
      iter_args !carried;
    List.iter
      (fun op ->
        if not (op == term) then
          ignore (Builder.insert b (Core.clone_op ~value_map op)))
      body.Core.body;
    carried :=
      List.map
        (fun y ->
          match Hashtbl.find_opt value_map y.Core.vid with
          | Some v -> v
          | None -> y)
        (Core.operands term);
    i := !i + step
  done;
  List.iteri
    (fun idx r ->
      match List.nth_opt !carried idx with
      | Some v -> Core.replace_all_uses_with r v
      | None -> ())
    (Core.results loop);
  Core.walk loop ~f:(fun o -> if not (o == loop) then Core.erase_op_unsafe o);
  Core.erase_op_unsafe loop;
  Pass.Stats.bump stats "unroll.unrolled"

let run_on_func (f : Core.op) stats =
  (* Rejections are reported once per loop, not once per fixpoint sweep. *)
  let reported = Hashtbl.create 8 in
  let reject loop key message =
    if not (Hashtbl.mem reported loop.Core.oid) then begin
      Hashtbl.replace reported loop.Core.oid ();
      Pass.Stats.bump stats ("unroll.rejected-" ^ key);
      if Remarks.enabled () then
        Remarks.emit ~pass:"loop-unroll" ~name:("rejected-" ^ key)
          Remarks.Missed ~op:loop message
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let loops =
      Core.collect f ~p:(fun o ->
          Dialects.Scf.is_for o || Dialects.Affine_ops.is_for o)
    in
    (* Innermost first (post-order). *)
    List.iter
      (fun loop ->
        if loop.Core.parent_block <> None then
          match const_trip loop with
          | Some (lb, ub, step) ->
            let trips = if ub <= lb then 0 else ((ub - lb) + step - 1) / step in
            let innermost =
              Core.find_first loop ~p:(fun o ->
                  Dialects.Scf.is_for o || Dialects.Affine_ops.is_for o)
              = None
            in
            if
              trips * body_size loop <= threshold * threshold
              && trips <= threshold
              && innermost
            then begin
              if Remarks.enabled () then
                Remarks.emit ~pass:"loop-unroll" ~name:"unrolled" Remarks.Passed
                  ~op:loop
                  (Printf.sprintf
                     "constant-trip loop fully unrolled (%d iterations)" trips);
              unroll loop ~lb ~ub ~step stats;
              changed := true
            end
            else if innermost then
              reject loop "size"
                (Printf.sprintf
                   "constant-trip loop not unrolled: %d iterations x %d body \
                    ops exceeds the unroll threshold"
                   trips (body_size loop))
          | None ->
            reject loop "non-constant"
              "loop not unrolled: bounds or step are not compile-time \
               constants")
      (List.rev loops)
  done

let pass = Pass.on_functions "loop-unroll" run_on_func
