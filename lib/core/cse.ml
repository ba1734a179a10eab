(* Common-subexpression elimination for pure ops, scoped by region
   nesting (values from enclosing blocks are visible in nested ones). *)

open Mlir

(* Structural key of an op: interned op name, operand ids, attributes and
   result types reduced to atom ids. Everything in the key is an int, so
   hashing and equality never walk strings or attribute payloads.

   Attributes are keyed by the atom of their *printed* form, which makes
   the key canonical exactly up to what the printer distinguishes — the
   semantics a round-trip preserves. This fixes two defects of the old
   polymorphic-compare key:
   - [compare 0.0 (-0.0) = 0] merged float constants the printer (and
     IEEE division) tell apart — a miscompile;
   - nan payloads collapse here only because the printer collapses them
     too ("nan"), so keying stays consistent with round-trips.
   Result types keep constants of equal value but different type
   distinct. *)
type key = {
  k_name : Atom.t;
  k_operands : int list;
  k_attrs : (Atom.t * Atom.t) list;  (* (attr key, printed value), sorted *)
  k_result_types : Atom.t list;
}

(* The type memo is per-run: CSE runs concurrently on compile-service
   worker domains, so a shared mutable cache would race. Attributes are
   deliberately NOT memoized by [Attr.t] value — a polymorphic Hashtbl
   keys with [compare], which would merge [0.0] and [-0.0] again before
   the printer ever saw them; interning their printed form directly is
   the canonicalization. Types contain no floats, so memoizing them by
   structure is safe. *)
type interner = { type_atoms : (Types.t, Atom.t) Hashtbl.t }

let type_atom it ty =
  match Hashtbl.find_opt it.type_atoms ty with
  | Some id -> id
  | None ->
    let id = Atom.intern (Types.to_string ty) in
    Hashtbl.replace it.type_atoms ty id;
    id

let key (it : interner) (op : Core.op) =
  {
    k_name = op.Core.name_id;
    k_operands =
      Array.to_list (Array.map (fun v -> v.Core.vid) op.Core.operands);
    k_attrs =
      List.sort
        (fun (a, _) (b, _) -> Atom.compare a b)
        (List.map
           (fun (k, a) -> (Atom.intern k, Atom.intern (Attr.to_string a)))
           op.Core.attrs);
    k_result_types =
      List.map (fun r -> type_atom it r.Core.vty) (Core.results op);
  }

let run_on_func (f : Core.op) stats =
  let it = { type_atoms = Hashtbl.create 32 } in
  let rec go (scope : (key, Core.op) Hashtbl.t) (block : Core.block) =
    let snapshot = Core.ops block in
    List.iter
      (fun op ->
        if op.Core.parent_block <> None then begin
          Pass.Stats.bump stats "cse.ops_visited";
          (* Only CSE pure, region-free ops. *)
          if
            Core.num_regions op = 0
            && Core.num_results op > 0
            && Op_registry.is_pure op
          then begin
            let k = key it op in
            match Hashtbl.find_opt scope k with
            | Some existing ->
              if Remarks.enabled () then
                Remarks.emit ~pass:"cse" ~name:"eliminated" Remarks.Passed ~op
                  (Printf.sprintf
                     "duplicate %s eliminated in favor of an earlier \
                      identical computation"
                     op.Core.name);
              (* The surviving op keeps its own location: the eliminated
                 duplicate's position is recorded in the remark above. *)
              List.iteri
                (fun i r -> Core.replace_all_uses_with r (Core.result existing i))
                (Core.results op);
              Core.erase_op op;
              Pass.Stats.bump stats "cse.eliminated"
            | None ->
              Hashtbl.replace scope k op;
              Pass.Stats.bump stats "cse.candidates"
          end
          else
            (* Recurse into regions with a copied scope (nested blocks see
               the enclosing expressions but not vice versa). *)
            Array.iter
              (fun r ->
                List.iter (fun b -> go (Hashtbl.copy scope) b) r.Core.blocks)
              op.Core.regions
        end)
      snapshot
  in
  List.iter
    (fun b -> go (Hashtbl.create 64) b)
    f.Core.regions.(0).Core.blocks

let pass = Pass.on_functions ~idempotent:true "cse" run_on_func
