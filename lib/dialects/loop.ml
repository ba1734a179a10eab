(* The loop interface: the questions every pass asks of a loop, answered
   in one place for both loop encodings, after MLIR's
   LoopLikeOpInterface. An scf.for takes lb, ub and step as operands; an
   affine.for takes its bounds as affine maps over operands and its step
   as an attribute. Both have one body block whose arguments are the
   induction variable and then one per iter_arg, and whose terminator
   yields the next iteration's values. *)

open Mlir

let is_loop op = Scf.is_for op || Affine_ops.is_for op

let body (loop : Core.op) = Core.entry_block loop.Core.regions.(0)
let iv loop = Core.block_arg (body loop) 0
let iter_args loop = List.tl (Core.block_args (body loop))

(** The values the iter_args start from: the operands after the bounds. *)
let iter_inits loop =
  if Scf.is_for loop then Scf.for_iter_inits loop else Affine_ops.for_iter_inits loop

(** The terminator of the body, whose operands are the values the next
    iteration starts from (the loop's results after the last one); None
    for an empty body. *)
let yield loop =
  match Core.last_op (body loop) with
  | Some t when Op_registry.is_terminator t -> Some t
  | _ -> None

(** The operands the iteration space depends on: lb, ub and step of an
    scf.for, the map operands of an affine.for. *)
let bound_operands loop =
  if Scf.is_for loop then [ Scf.for_lb loop; Scf.for_ub loop; Scf.for_step loop ]
  else Affine_ops.for_lb_operands loop @ Affine_ops.for_ub_operands loop

let const_int v =
  match Rewrite.constant_of_value v with Some (Attr.Int i) -> Some i | _ -> None

(** (lb, ub) when both bounds are compile-time constants. *)
let const_bounds loop =
  if Scf.is_for loop then
    match (const_int (Scf.for_lb loop), const_int (Scf.for_ub loop)) with
    | Some lb, Some ub -> Some (lb, ub)
    | _ -> None
  else
    match
      ((Affine_ops.for_lb_map loop).Affine_expr.Map.exprs,
       (Affine_ops.for_ub_map loop).Affine_expr.Map.exprs)
    with
    | [ Affine_expr.Const lb ], [ Affine_expr.Const ub ] -> Some (lb, ub)
    | _ -> None

(** The step when it is a positive compile-time constant. *)
let const_step loop =
  let step =
    if Scf.is_for loop then const_int (Scf.for_step loop)
    else Some (Affine_ops.for_step loop)
  in
  match step with Some s when s > 0 -> step | _ -> None

(** lb and ub as values usable at [b]: an scf.for's operands, or an
    affine.for's maps materialized at [b] as a constant, their one
    operand, or an affine.apply. *)
let bound_values b loop =
  if Scf.is_for loop then (Scf.for_lb loop, Scf.for_ub loop)
  else
    let of_map map operands =
      match (map.Affine_expr.Map.exprs, operands) with
      | [ Affine_expr.Const c ], [] -> Arith.const_index b c
      | [ Affine_expr.Dim 0 ], [ v ] -> v
      | _ -> Affine_ops.apply b map operands
    in
    ( of_map (Affine_ops.for_lb_map loop) (Affine_ops.for_lb_operands loop),
      of_map (Affine_ops.for_ub_map loop) (Affine_ops.for_ub_operands loop) )

(** The loops nested in [op], each after every loop it holds: the
    reverse of a pre-order walk. *)
let innermost_first op =
  let loops = ref [] in
  Core.walk op ~f:(fun o -> if is_loop o then loops := o :: !loops);
  !loops
