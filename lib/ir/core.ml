(* The IR object graph: SSA values, operations, blocks and regions, with the
   nesting structure that MLIR uses (an op holds regions, a region holds
   blocks, a block holds ops). Operations are generic records identified by a
   "dialect.op" name; dialects provide smart constructors and register
   semantic information in {!Op_registry}. *)

type value = {
  vid : int;
  mutable vty : Types.t;
  mutable vdef : vdef;
  (* Use list: (op, operand index) pairs, maintained by the mutators below.
     All operand mutation must go through [set_operand]/[erase_op]. *)
  mutable uses : (op * int) list;
}

and vdef =
  | Op_result of op * int
  | Block_arg of block * int

and op = {
  oid : int;
  name : string;
  (* Interned id of [name]; [name] itself is the canonical shared string
     for that atom, so string equality on names is a pointer check. *)
  name_id : Atom.t;
  mutable operands : value array;
  mutable results : value array;
  mutable attrs : (string * Attr.t) list;
  regions : region array;
  (* CFG successor blocks (terminators only), printed as [^bb1, ^bb2].
     Successors always belong to the region holding the op's block. *)
  mutable successors : block array;
  mutable parent_block : block option;
  (* Source location (MLIR-style). The parser records textual positions,
     builders stamp defaults, transforms propagate deliberately. *)
  mutable loc : Loc.t;
  (* The generation of the last mutation after which a rewrite must look
     at this op again (see [stamp]); 0 for an op never attached. *)
  mutable stamp : int;
}

and block = {
  bid : int;
  mutable bargs : value array;
  mutable body : op list;
  mutable parent_region : region option;
}

and region = {
  rid : int;
  mutable blocks : block list;
  mutable parent_op : op option;
}

(* Ids are minted from one process-wide atomic counter. A plain [ref] +
   [incr] here let two domains compiling concurrently read the same
   counter value and mint duplicate [oid]s/[vid]s, silently corrupting
   every oid-keyed table downstream (LICM hoist sets, CSE value tables,
   dominance caches, printer name maps). *)
let next_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

(* ------------------------------------------------------------------ *)
(* The change record                                                   *)
(* ------------------------------------------------------------------ *)

(* One process-wide monotonic generation counter. Every mutator below
   stamps, with a fresh generation, each op that a later rewrite must
   look at again: the mutated op, the users of an op whose operands or
   attributes changed, the producers of operands it dropped, every
   ancestor of an erased or moved op, and every op of an inserted
   subtree. So the ops changed since generation [g] are exactly those
   with [stamp > g], and a module none of whose ops was stamped since
   [g] is unchanged. The counter is atomic for the same reason as
   [next_id]: compile-service workers mutate their modules
   concurrently. *)
let generation_counter = Atomic.make 0

(** The latest generation handed out. *)
let generation () = Atomic.get generation_counter

let fresh_generation () = Atomic.fetch_and_add generation_counter 1 + 1

let stamp op = op.stamp <- fresh_generation ()

(* ------------------------------------------------------------------ *)
(* Mutation listeners                                                  *)
(* ------------------------------------------------------------------ *)

(* A rewrite driver installs a listener to learn which ops a mutation may
   have made rewritable again (MLIR's RewriterBase::Listener). The stack
   is domain-local, like the remark sink: listeners installed on one
   compile-service worker never observe another worker's mutations. *)
type listener = {
  (* An op (with everything nested in it) was attached to a block. *)
  on_op_inserted : op -> unit;
  (* [on_operand_replaced user old]: one of [user]'s operands changed
     away from [old] (so [old]'s defining op may have become dead and
     [user] may fold differently). *)
  on_operand_replaced : op -> value -> unit;
  (* Fires just before the op is detached, while its parent block and
     operand use-lists are still intact. *)
  on_op_erased : op -> unit;
}

let listeners_key : listener list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let notify_listeners f =
  match Domain.DLS.get listeners_key with
  | [] -> ()
  | ls -> List.iter f ls

(** Run [f] with [l] installed (stacked over any existing listeners). *)
let with_listener l f =
  let old = Domain.DLS.get listeners_key in
  Domain.DLS.set listeners_key (l :: old);
  Fun.protect ~finally:(fun () -> Domain.DLS.set listeners_key old) f

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let defining_op v =
  match v.vdef with Op_result (op, _) -> Some op | Block_arg _ -> None

let value_equal a b = a.vid = b.vid

let stamp_def v = match v.vdef with Op_result (op, _) -> stamp op | Block_arg _ -> ()

(* A changed op and its users: a user may fold or match differently
   through it (a constant's value, the operands reassociation reads). *)
let stamp_with_users op =
  stamp op;
  Array.iter (fun r -> List.iter (fun (user, _) -> stamp user) r.uses) op.results

let uses v = v.uses
let has_uses v = v.uses <> []
let num_uses v = List.length v.uses

(* ------------------------------------------------------------------ *)
(* Op construction                                                     *)
(* ------------------------------------------------------------------ *)

let add_use v op idx = v.uses <- (op, idx) :: v.uses

let remove_use v op idx =
  v.uses <- List.filter (fun (o, i) -> not (o == op && i = idx)) v.uses

(** Create a detached operation. Results are fresh values; regions are given
    already-built (detached) regions whose parent is patched here. *)
let create_op ?(attrs = []) ?(regions = []) ?(successors = [])
    ?(loc = Loc.Unknown) ~operands ~result_types name =
  let name_id = Atom.intern name in
  let op =
    {
      oid = next_id ();
      name = Atom.to_string name_id;
      name_id;
      operands = Array.of_list operands;
      results = [||];
      attrs;
      regions = Array.of_list regions;
      successors = Array.of_list successors;
      parent_block = None;
      loc;
      stamp = 0;
    }
  in
  op.results <-
    Array.of_list
      (List.mapi
         (fun i ty ->
           { vid = next_id (); vty = ty; vdef = Op_result (op, i); uses = [] })
         result_types);
  Array.iteri (fun i v -> add_use v op i) op.operands;
  Array.iter (fun r -> r.parent_op <- Some op) op.regions;
  op

let create_block ?(args = []) () =
  let blk = { bid = next_id (); bargs = [||]; body = []; parent_region = None } in
  blk.bargs <-
    Array.of_list
      (List.mapi
         (fun i ty ->
           { vid = next_id (); vty = ty; vdef = Block_arg (blk, i); uses = [] })
         args);
  blk

let create_region ?(blocks = []) () =
  let r = { rid = next_id (); blocks; parent_op = None } in
  List.iter (fun b -> b.parent_region <- Some r) blocks;
  r

(** A region with a single empty entry block carrying [args]. *)
let region_with_block ?(args = []) () =
  let b = create_block ~args () in
  create_region ~blocks:[ b ] ()

let entry_block r =
  match r.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "Core.entry_block: empty region"

let block_args b = Array.to_list b.bargs
let block_arg b i = b.bargs.(i)

let parent_op_of_block b =
  Option.bind b.parent_region (fun r -> r.parent_op)

(* Removing an op with effects may leave every enclosing op pure. *)
let rec stamp_ancestors_of_block b =
  match parent_op_of_block b with
  | Some p ->
    stamp p;
    Option.iter stamp_ancestors_of_block p.parent_block
  | None -> ()

let add_block_arg b ty =
  let i = Array.length b.bargs in
  let v = { vid = next_id (); vty = ty; vdef = Block_arg (b, i); uses = [] } in
  b.bargs <- Array.append b.bargs [| v |];
  Option.iter stamp (parent_op_of_block b);
  v

(** Detach every block of [r] (to move them into another region). *)
let take_blocks r =
  let blocks = r.blocks in
  r.blocks <- [];
  List.iter (fun b -> b.parent_region <- None) blocks;
  Option.iter stamp r.parent_op;
  blocks

let result op i = op.results.(i)
let results op = Array.to_list op.results
let num_results op = Array.length op.results
let operand op i = op.operands.(i)
let operands op = Array.to_list op.operands
let num_operands op = Array.length op.operands

let attr op key = List.assoc_opt key op.attrs

let set_attr op key a =
  op.attrs <- (key, a) :: List.remove_assoc key op.attrs;
  stamp_with_users op

let remove_attr op key =
  op.attrs <- List.remove_assoc key op.attrs;
  stamp_with_users op

let attr_int op key = Option.bind (attr op key) Attr.as_int
let attr_string op key = Option.bind (attr op key) Attr.as_string
let attr_symbol op key = Option.bind (attr op key) Attr.as_symbol
let attr_type op key = Option.bind (attr op key) Attr.as_type
let has_attr op key = attr op key <> None

let region op i = op.regions.(i)
let num_regions op = Array.length op.regions

let successor op i = op.successors.(i)
let successors op = Array.to_list op.successors
let num_successors op = Array.length op.successors
let set_successors op bs =
  op.successors <- Array.of_list bs;
  stamp op

(** Is [block] the target of some successor edge within its region? *)
let is_successor_target (block : block) =
  match block.parent_region with
  | None -> false
  | Some r ->
    List.exists
      (fun b ->
        List.exists
          (fun o -> Array.exists (fun s -> s == block) o.successors)
          b.body)
      r.blocks

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

let set_operand op i v =
  let old = op.operands.(i) in
  if not (value_equal old v) then begin
    remove_use old op i;
    op.operands.(i) <- v;
    add_use v op i;
    stamp_with_users op;
    stamp_def old;
    notify_listeners (fun l -> l.on_operand_replaced op old)
  end

let set_operands op vs =
  let olds = op.operands in
  Array.iteri (fun i old -> remove_use old op i) olds;
  op.operands <- Array.of_list vs;
  Array.iteri (fun i v -> add_use v op i) op.operands;
  stamp_with_users op;
  Array.iteri
    (fun i old ->
      let changed =
        i >= Array.length op.operands || not (value_equal op.operands.(i) old)
      in
      if changed then begin
        stamp_def old;
        notify_listeners (fun l -> l.on_operand_replaced op old)
      end)
    olds

let replace_all_uses_with old_v new_v =
  (* Copy: set_operand mutates the use list we're iterating. *)
  let us = old_v.uses in
  List.iter (fun (op, i) -> set_operand op i new_v) us

(* Block body surgery. Ops are compared physically (each op record is
   unique), so list rebuilding is safe. *)

(* An inserted op stands for its whole subtree: every op in it is new
   to the enclosing IR, so every op in it gets the one fresh stamp. *)
let rec stamp_subtree g op =
  op.stamp <- g;
  Array.iter
    (fun r -> List.iter (fun b -> List.iter (stamp_subtree g) b.body) r.blocks)
    op.regions

let attached block op =
  op.parent_block <- Some block;
  stamp_subtree (fresh_generation ()) op;
  notify_listeners (fun l -> l.on_op_inserted op)

let append_op block op =
  assert (op.parent_block = None);
  block.body <- block.body @ [ op ];
  attached block op

(** Make [ops], new and detached, the whole body of the new, empty
    [block], in order: one attach per block, which is how the parser
    builds its blocks. Each op gets its parent and the one fresh stamp
    of the block; the ops nested in them keep the (older) stamps of their
    own blocks. No listener hears of it, because building new IR is not
    a rewrite. *)
let attach_body block ops =
  assert (block.body == []);
  let g = fresh_generation () in
  List.iter
    (fun op ->
      assert (op.parent_block == None);
      op.parent_block <- Some block;
      op.stamp <- g)
    ops;
  block.body <- ops

let prepend_op block op =
  assert (op.parent_block = None);
  block.body <- op :: block.body;
  attached block op

let insert_before ~anchor op =
  match anchor.parent_block with
  | None -> invalid_arg "insert_before: anchor is detached"
  | Some block ->
    assert (op.parent_block = None);
    let rec go = function
      | [] -> invalid_arg "insert_before: anchor not in its block"
      | o :: rest when o == anchor -> op :: o :: rest
      | o :: rest -> o :: go rest
    in
    block.body <- go block.body;
    attached block op

let insert_after ~anchor op =
  match anchor.parent_block with
  | None -> invalid_arg "insert_after: anchor is detached"
  | Some block ->
    assert (op.parent_block = None);
    let rec go = function
      | [] -> invalid_arg "insert_after: anchor not in its block"
      | o :: rest when o == anchor -> o :: op :: rest
      | o :: rest -> o :: go rest
    in
    block.body <- go block.body;
    attached block op

(** Detach [op] from its block without touching its operands' use lists. *)
let detach_op op =
  match op.parent_block with
  | None -> ()
  | Some block ->
    block.body <- List.filter (fun o -> not (o == op)) block.body;
    op.parent_block <- None;
    stamp_ancestors_of_block block

exception Has_uses of op

let drop_operands op =
  Array.iteri
    (fun i v ->
      remove_use v op i;
      stamp_def v)
    op.operands

(** Remove [op] entirely: drops operand uses; fails if results are used. *)
let erase_op op =
  Array.iter (fun r -> if has_uses r then raise (Has_uses op)) op.results;
  (* Notify while the parent block and operand uses are still in place. *)
  notify_listeners (fun l -> l.on_op_erased op);
  detach_op op;
  drop_operands op

(** Erase without checking uses (for bulk deletion of whole regions). *)
let erase_op_unsafe op =
  notify_listeners (fun l -> l.on_op_erased op);
  detach_op op;
  drop_operands op

(** Move [op] (possibly attached elsewhere) to just before [anchor]. *)
let move_before ~anchor op =
  detach_op op;
  insert_before ~anchor op

(* ------------------------------------------------------------------ *)
(* Navigation and traversal                                            *)
(* ------------------------------------------------------------------ *)

let parent_op op = Option.bind op.parent_block parent_op_of_block

(** Is the block containing [op] nested inside (or equal to) [region]? *)
let rec is_in_region region op =
  match op.parent_block with
  | None -> false
  | Some b -> (
    match b.parent_region with
    | None -> false
    | Some r ->
      r == region
      || (match r.parent_op with None -> false | Some p -> is_in_region region p))

(** Pre-order walk over [op] and every op nested in its regions. *)
let rec walk op ~f =
  f op;
  Array.iter
    (fun r ->
      List.iter (fun b -> List.iter (fun o -> walk o ~f) b.body) r.blocks)
    op.regions

(** Was [op], or an op nested in it, stamped after generation [g]? *)
let changed_since g op =
  let exception Changed in
  match walk op ~f:(fun o -> if o.stamp > g then raise Changed) with
  | () -> false
  | exception Changed -> true

(** Collect ops satisfying [p] in pre-order. *)
let collect op ~p =
  let acc = ref [] in
  walk op ~f:(fun o -> if p o then acc := o :: !acc);
  List.rev !acc

let collect_named op name = collect op ~p:(fun o -> o.name = name)

(** First op (pre-order, excluding [op] itself) satisfying [p]. *)
let find_first op ~p =
  let exception Found of op in
  match
    walk op ~f:(fun o -> if (not (o == op)) && p o then raise (Found o))
  with
  | () -> None
  | exception Found o -> Some o

(* ------------------------------------------------------------------ *)
(* Module / function helpers                                           *)
(* ------------------------------------------------------------------ *)

let module_name = "builtin.module"
let func_name = "func.func"

let create_module () =
  create_op module_name ~operands:[] ~result_types:[] ~regions:[ region_with_block () ]

let module_block m =
  assert (m.name = module_name);
  entry_block m.regions.(0)

let is_module op = op.name = module_name
let is_func op = op.name = func_name

let func_sym op = match attr_string op "sym_name" with Some s -> s | None -> "?"

let lookup_func m name =
  List.find_opt
    (fun o -> is_func o && func_sym o = name)
    (module_block m).body

let funcs m = List.filter is_func (module_block m).body

let func_body op =
  assert (is_func op);
  entry_block op.regions.(0)

(** Enclosing func.func of an op, if any. *)
let rec enclosing_func op =
  if is_func op then Some op
  else match parent_op op with None -> None | Some p -> enclosing_func p

(** Position of [op] among the ops of its block (0-based), if attached. *)
let op_index_in_block op =
  match op.parent_block with
  | None -> None
  | Some b ->
    let rec go i = function
      | [] -> None
      | o :: _ when o == op -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 b.body

(** Structural path of [op] below its enclosing function (or module when
    there is none): op names with block positions, outermost first, e.g.
    ["scf.for#2 > arith.addi#0"]. The enclosing func itself is excluded. *)
let op_path op =
  let component o =
    match op_index_in_block o with
    | Some i -> Printf.sprintf "%s#%d" o.name i
    | None -> o.name
  in
  let rec above o acc =
    match parent_op o with
    | None -> acc
    | Some p when is_func p || is_module p -> acc
    | Some p -> above p (component p :: acc)
  in
  String.concat " > " (above op [ component op ])

(** Deep-copy [op] and everything nested in it. [value_map] carries the
    mapping from old to new values; operands defined outside the cloned
    subtree map to themselves. *)
let rec clone_op ?(value_map = Hashtbl.create 16) ?(block_map = Hashtbl.create 8)
    op =
  let map_value v =
    match Hashtbl.find_opt value_map v.vid with Some v' -> v' | None -> v
  in
  let map_block b =
    match Hashtbl.find_opt block_map b.bid with Some b' -> b' | None -> b
  in
  let regions =
    Array.to_list op.regions
    |> List.map (fun r ->
           let blocks =
             List.map
               (fun b ->
                 let nb =
                   create_block ~args:(List.map (fun a -> a.vty) (block_args b)) ()
                 in
                 Array.iteri
                   (fun i a -> Hashtbl.replace value_map a.vid nb.bargs.(i))
                   b.bargs;
                 Hashtbl.replace block_map b.bid nb;
                 (b, nb))
               r.blocks
           in
           List.iter
             (fun (b, nb) ->
               List.iter
                 (fun o -> append_op nb (clone_op ~value_map ~block_map o))
                 b.body)
             blocks;
           create_region ~blocks:(List.map snd blocks) ())
    |> fun rs -> rs
  in
  let cloned =
    create_op op.name
      ~operands:(List.map map_value (operands op))
      ~result_types:(List.map (fun r -> r.vty) (results op))
      ~attrs:op.attrs ~regions ~loc:op.loc
      ~successors:(List.map map_block (Array.to_list op.successors))
  in
  Array.iteri
    (fun i r -> Hashtbl.replace value_map r.vid cloned.results.(i))
    op.results;
  cloned
