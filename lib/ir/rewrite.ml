(* Pattern rewriting: a small greedy pattern-application driver in the
   spirit of MLIR's applyPatternsAndFoldGreedily, plus folding based on the
   registry's fold hooks. *)

type pattern = {
  pat_name : string;
  (* Returns true when it matched and rewrote the IR. *)
  apply : Core.op -> bool;
}

let pattern pat_name apply = { pat_name; apply }

(* Dialects register how to materialize a constant attribute as an op (in
   practice: arith.constant). *)
let constant_materializer :
    (Builder.t -> Attr.t -> Types.t -> Core.value) option ref =
  ref None

let set_constant_materializer f = constant_materializer := Some f

let materialize_constant builder attr ty =
  match !constant_materializer with
  | Some f -> f builder attr ty
  | None -> invalid_arg "no constant materializer registered"

(** The constant attribute produced by [op] if it is a registered,
    foldable, zero-operand constant-like op. *)
let constant_value (op : Core.op) : Attr.t option =
  if Core.num_operands op = 0 && Core.num_results op = 1 then
    match (Op_registry.info op).Op_registry.fold op [||] with
    | Some (Op_registry.Fold_attrs [ a ]) -> Some a
    | _ -> None
  else None

(** The constant attribute of [v]'s defining op, if constant-like. *)
let constant_of_value (v : Core.value) : Attr.t option =
  Option.bind (Core.defining_op v) constant_value

(** Try to fold [op] in place: if every result folds to a constant or an
    existing value, replace all uses and erase [op]. Returns true on
    success. *)
let try_fold (op : Core.op) : bool =
  if Core.num_results op = 0 then false
  else
    let const_operands =
      Array.map (fun v -> constant_of_value v) op.Core.operands
    in
    match (Op_registry.info op).Op_registry.fold op const_operands with
    | None -> false
    | Some (Op_registry.Fold_values vs) ->
      Core.replace_op op vs;
      true
    | Some (Op_registry.Fold_attrs attrs) ->
      if constant_value op <> None then
        (* Already a constant op; nothing to do. *)
        false
      else begin
        let builder = Builder.before op in
        (* Constants materialized for a folded op keep the op's location. *)
        Builder.set_default_loc builder op.Core.loc;
        Core.replace_op op
          (List.mapi
             (fun i a -> materialize_constant builder a (Core.result op i).Core.vty)
             attrs);
        true
      end

(** Erase [op] if it is pure (including nested ops) and unused. *)
let erase_if_dead (op : Core.op) : bool =
  if
    Core.num_results op > 0
    && (not (Op_registry.is_terminator op))
    && Array.for_all (fun r -> not (Core.has_uses r)) op.Core.results
    && Op_registry.is_pure op
  then begin
    (* Pure ops have no nested code with effects; safe to drop wholesale. *)
    Core.erase_op op;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

(** What a driver run did. The driver either converges or raises
    {!Cap_exceeded}. *)
type stats = {
  rw_rewrites : int;  (** rewrites performed (folds, DCE, patterns) *)
  rw_ops_visited : int;  (** attached ops popped/examined by the driver *)
}

exception Cap_exceeded of { scope : string; rewrites : int; cap : int }

let () =
  Printexc.register_printer (function
    | Cap_exceeded { scope; rewrites; cap } ->
      Some
        (Printf.sprintf
           "Rewrite.Cap_exceeded: %d rewrites under %s exceeded the safety \
            cap of %d — a pattern set that never reaches fixpoint (a \
            rewrite loop), not a case for raising the bound silently"
           rewrites scope cap)
    | _ -> None)

(* Shared single-op step: fold, then DCE, then each pattern in order.
   Returns true when some rewrite fired. *)
let visit_op ~on_rewrite ~count patterns op =
  let func =
    match Core.enclosing_func op with
    | Some f -> Core.func_sym f
    | None -> "?"
  in
  if try_fold op then begin
    count ();
    on_rewrite ~func "fold" op;
    true
  end
  else if erase_if_dead op then begin
    count ();
    on_rewrite ~func "dce" op;
    true
  end
  else
    List.fold_left
      (fun changed p ->
        if op.Core.parent_block <> None && p.apply op then begin
          count ();
          on_rewrite ~func p.pat_name op;
          true
        end
        else changed)
      false patterns

let no_rewrite = fun ~func:(_ : string) (_ : string) (_ : Core.op) -> ()

(** Worklist driver: seed with every op in pre-order — or, given
    [since], with only the ops stamped after that generation (see
    {!Core.stamp}) — then re-enqueue only what a rewrite may have
    changed: the users of replaced values, the defining ops of dropped
    operands (they may be dead now), the parents of erased ops (every
    ancestor when the erased op has effects), and newly inserted ops. Runs to a true fixpoint with cost proportional
    to rewrites performed; a scope that keeps rewriting past [cap]
    raises {!Cap_exceeded} instead of silently returning
    half-canonicalized IR. *)
let apply_worklist ?cap ?since ?(on_rewrite = no_rewrite) (top : Core.op)
    patterns =
  let queue = Queue.create () in
  let queued : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let enqueue op =
    if (not (op == top)) && not (Hashtbl.mem queued op.Core.oid) then begin
      Hashtbl.replace queued op.Core.oid ();
      Queue.add op queue
    end
  in
  let changed o =
    match since with None -> true | Some g -> o.Core.stamp > g
  in
  let scope = ref 0 in
  Core.walk top ~f:(fun o ->
      incr scope;
      if changed o then enqueue o);
  (* Generous: proportional to the scope (never to the seed, nor a fixed
     small constant). Any real pattern set performs O(ops) rewrites;
     only a rewrite loop (two patterns undoing each other, a fold that
     re-creates its input) can reach this. [scope] counts [top] itself,
     which is never visited. *)
  let cap = match cap with Some c -> c | None -> 1_000 + (100 * (!scope - 1)) in
  let enqueue_def v =
    match Core.defining_op v with Some d -> enqueue d | None -> ()
  in
  let listener =
    {
      Core.on_op_inserted = (fun o -> Core.walk o ~f:enqueue);
      on_operand_replaced =
        (fun user old ->
          (* The user may now fold; the old value's producer may be dead. *)
          enqueue user;
          enqueue_def old);
      on_op_erased =
        (fun o ->
          (* The parent may simplify (e.g. an emptied region), and when
             [o] has effects every ancestor may have become pure, hence
             dead; operand producers may have lost their last use. *)
          let rec enqueue_above ~all o =
            match Core.parent_op o with
            | Some p ->
              enqueue p;
              if all then enqueue_above ~all p
            | None -> ()
          in
          enqueue_above ~all:(not (Op_registry.is_pure o)) o;
          Array.iter enqueue_def o.Core.operands);
    }
  in
  let total = ref 0 in
  let visited = ref 0 in
  let scope =
    match Core.enclosing_func top with
    | Some f -> Core.func_sym f
    | None -> top.Core.name
  in
  let count () =
    incr total;
    if !total > cap then
      raise (Cap_exceeded { scope; rewrites = !total; cap })
  in
  Core.with_listener listener (fun () ->
      while not (Queue.is_empty queue) do
        let op = Queue.pop queue in
        Hashtbl.remove queued op.Core.oid;
        (* A queued op may have been erased or detached since. *)
        if op.Core.parent_block <> None then begin
          incr visited;
          ignore (visit_op ~on_rewrite ~count patterns op)
        end
      done);
  { rw_rewrites = !total; rw_ops_visited = !visited }
