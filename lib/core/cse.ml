(* Common-subexpression elimination for pure ops, scoped by region
   nesting (values from enclosing blocks are visible in nested ones). *)

open Mlir

(* Structural key of an op: its name's atom, operand ids, attributes and
   result types. Everything in the key is an int, so hashing and
   equality never walk strings or attribute payloads.

   Attribute keys, attributes and result types are numbered in tables
   that last for one run, by their *printed* form, which makes the key
   canonical exactly up to what the printer distinguishes — the
   semantics a round-trip preserves:
   - polymorphic compare has [compare 0.0 (-0.0) = 0], which would merge
     float constants the printer (and IEEE division) tell apart — a
     miscompile;
   - nan payloads collapse here only because the printer collapses them
     too ("nan"), so keying stays consistent with round-trips.
   Result types keep constants of equal value but different type
   distinct. The numbers are the run's own, not atoms: the process-wide
   atom table would otherwise keep one entry for every constant a
   long-running service has ever keyed. *)
type key = {
  k_name : Atom.t;
  k_operands : int list;
  k_attrs : (int * int) list;  (* (attr key, printed value), sorted *)
  k_result_types : int list;
}

let ints_equal = List.equal Int.equal

module Keys = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_name = b.k_name
    && ints_equal a.k_operands b.k_operands
    && List.equal (fun (k, v) (k', v') -> k = k' && v = v') a.k_attrs b.k_attrs
    && ints_equal a.k_result_types b.k_result_types

  let hash k =
    let mix h x = (h * 31) + x in
    let h = List.fold_left mix k.k_name k.k_operands in
    let h = List.fold_left (fun h (a, v) -> mix (mix h a) v) h k.k_attrs in
    List.fold_left mix h k.k_result_types land max_int
end)

module Strings = Hashtbl.Make (String)

(* The tables of one run: CSE runs concurrently on compile-service
   worker domains, so a shared mutable cache would race. Attributes are
   deliberately NOT memoized by [Attr.t] value — a polymorphic Hashtbl
   keys with [compare], which would merge [0.0] and [-0.0] again before
   the printer ever saw them; numbering their printed form is the
   canonicalization. Types contain no floats, so memoizing them by
   structure is safe. *)
type run = {
  printed : int Strings.t;
  types : (Types.t, int) Hashtbl.t;
}

let number run s =
  match Strings.find run.printed s with
  | n -> n
  | exception Not_found ->
    let n = Strings.length run.printed in
    Strings.add run.printed s n;
    n

let type_number run ty =
  match Hashtbl.find_opt run.types ty with
  | Some n -> n
  | None ->
    let n = number run (Types.to_string ty) in
    Hashtbl.replace run.types ty n;
    n

let key run (op : Core.op) =
  {
    k_name = op.Core.name_id;
    k_operands = Array.to_list (Array.map (fun v -> v.Core.vid) op.Core.operands);
    k_attrs =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (List.map (fun (k, a) -> (number run k, number run (Attr.to_string a))) op.Core.attrs);
    k_result_types = List.map (fun r -> type_number run r.Core.vty) (Core.results op);
  }

let run_on_func (f : Core.op) stats =
  let run = { printed = Strings.create 64; types = Hashtbl.create 32 } in
  (* One scoped table: a block's keys are removed again when the block
     ends, so a nested block sees the enclosing expressions but not vice
     versa (MLIR's ScopedHashTable). *)
  let scope = Keys.create 64 in
  let visited = ref 0 and eliminated = ref 0 and candidates = ref 0 in
  let rec go (block : Core.block) =
    let added = ref [] in
    (* [replace_op] erases only the op it is given. *)
    Core.iter_ops
      (fun op ->
        incr visited;
        (* Only CSE pure, region-free ops. *)
        if Core.num_regions op = 0 && Core.num_results op > 0 && Op_registry.is_pure op
        then begin
          let k = key run op in
          match Keys.find_opt scope k with
          | Some existing ->
            if Remarks.enabled () then
              Remarks.emit ~pass:"cse" ~name:"eliminated" Remarks.Passed ~op
                (Printf.sprintf
                   "duplicate %s eliminated in favor of an earlier identical computation"
                   op.Core.name);
            (* The surviving op keeps its own location: the eliminated
               duplicate's position is recorded in the remark above. *)
            Core.replace_op op (Core.results existing);
            incr eliminated
          | None ->
            Keys.add scope k op;
            added := k :: !added;
            incr candidates
        end
        else Array.iter (fun r -> List.iter go r.Core.blocks) op.Core.regions)
      block;
    List.iter (Keys.remove scope) !added
  in
  List.iter go f.Core.regions.(0).Core.blocks;
  (* Summed here and bumped once per run, and only when non-zero, so the
     table holds exactly the counters a per-op bump would have made. *)
  List.iter
    (fun (name, n) -> if !n > 0 then Pass.Stats.bump ~by:!n stats name)
    [ ("cse.ops_visited", visited); ("cse.eliminated", eliminated);
      ("cse.candidates", candidates) ]

let pass = Pass.on_functions ~idempotent:true "cse" run_on_func
