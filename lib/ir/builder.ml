(* Insertion-point based IR construction, mirroring MLIR's OpBuilder. *)

type insertion_point =
  | At_end of Core.block
  | Before of Core.op

type t = {
  ip : insertion_point;
  (* Default source location stamped (by [insert]) onto inserted ops that
     carry no location of their own. Lets a pass set the location once per
     rewrite site instead of threading ?loc through every dialect helper. *)
  mutable default_loc : Loc.t;
}

let at_end block = { ip = At_end block; default_loc = Loc.Unknown }
let before op = { ip = Before op; default_loc = Loc.Unknown }

let insertion_block b =
  match b.ip with
  | At_end block -> Some block
  | Before op -> op.Core.parent_block

let set_default_loc b loc = b.default_loc <- loc
let default_loc b = b.default_loc

(** Run [f] with the default location temporarily set to [loc]. *)
let with_loc b loc f =
  let saved = b.default_loc in
  b.default_loc <- loc;
  Fun.protect ~finally:(fun () -> b.default_loc <- saved) f

(** Create an op at the current insertion point. Ops with no location of
    their own pick up the builder's default location. *)
let insert b op =
  (match b.ip with
  | At_end block -> Core.append_op block op
  | Before anchor -> Core.insert_before ~anchor op);
  if not (Loc.is_known op.Core.loc) then op.Core.loc <- b.default_loc;
  op

let op ?attrs ?regions ?successors ?loc ~operands ~result_types b name =
  insert b
    (Core.create_op ?attrs ?regions ?successors ?loc ~operands ~result_types
       name)

(** Like {!op} for single-result operations; returns the result value. *)
let op1 ?attrs ?regions ?successors ?loc ~operands ~result_type b name =
  let o =
    op ?attrs ?regions ?successors ?loc ~operands
      ~result_types:[ result_type ] b name
  in
  Core.result o 0

(** Like {!op} for zero-result operations; returns unit. *)
let op0 ?attrs ?regions ?successors ?loc ~operands b name =
  ignore (op ?attrs ?regions ?successors ?loc ~operands ~result_types:[] b name)
