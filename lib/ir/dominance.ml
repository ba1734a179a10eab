(* Structural dominance for the structured-control-flow subset of the IR:
   regions contain single-block bodies executed sequentially (scf/affine
   control flow is expressed by region nesting, not CFG edges), so an op
   [a] properly dominates [b] iff, after lifting [b] to the op in [a]'s
   block that (transitively) contains it, [a] appears earlier. *)

(** Index of [op] in its block body, or None if detached. *)
let index_in_block (op : Core.op) =
  match op.parent_block with
  | None -> None
  | Some b ->
    let rec go i = function
      | [] -> None
      | o :: _ when o == op -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 b.Core.body

(** Lift [op] to its ancestor (or itself) whose parent block is [block]. *)
let rec ancestor_in_block ~block (op : Core.op) =
  match op.parent_block with
  | Some b when b == block -> Some op
  | _ -> (
    match Core.parent_op op with
    | None -> None
    | Some p -> ancestor_in_block ~block p)

let properly_dominates (a : Core.op) (b : Core.op) =
  if a == b then false
  else
    match a.parent_block with
    | None -> false
    | Some ablock -> (
      match ancestor_in_block ~block:ablock b with
      | None -> false
      | Some b' ->
        if a == b' then
          (* b is nested inside a: a "dominates" its own nested ops only in
             the sense that a executes first; for SSA visibility a's
             *results* are not visible inside a's regions, so say no. *)
          false
        else
          let ia = index_in_block a and ib = index_in_block b' in
          (match (ia, ib) with
          | Some ia, Some ib -> ia < ib
          | _ -> false))

(** Is the *value* [v] visible (usable) at operation [user]? True when the
    defining op properly dominates [user], when [v]'s defining op is an
    ancestor... no: results of an ancestor are not visible inside it; or
    when [v] is a block argument of a block enclosing [user]. *)
let value_visible_at (v : Core.value) (user : Core.op) =
  match v.Core.vdef with
  | Core.Op_result (def, _) -> properly_dominates def user
  | Core.Block_arg (block, _) ->
    (* Visible if [user] is (transitively) inside [block]. *)
    let rec inside (op : Core.op) =
      match op.parent_block with
      | Some b when b == block -> true
      | Some _ -> (
        match Core.parent_op op with None -> false | Some p -> inside p)
      | None -> false
    in
    inside user

(** Is [block] one of [region]'s blocks or nested below them? *)
let block_in_region (region : Core.region) (block : Core.block) =
  List.exists (fun b -> b == block) region.Core.blocks
  ||
  match Core.parent_op_of_block block with
  | None -> false
  | Some owner -> Core.is_in_region region owner

(** Is [v] defined outside of [region] (i.e. invariant w.r.t. code in it)? *)
let defined_outside_region (region : Core.region) (v : Core.value) =
  match v.Core.vdef with
  | Core.Op_result (def, _) -> not (Core.is_in_region region def)
  | Core.Block_arg (block, _) -> not (block_in_region region block)
