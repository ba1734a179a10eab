(* The IR object graph: SSA values, operations, blocks and regions, with the
   nesting structure that MLIR uses (an op holds regions, a region holds
   blocks, a block holds ops). Operations are generic records identified by a
   "dialect.op" name; dialects provide smart constructors and register
   semantic information in {!Op_registry}. *)

type value = {
  vid : int;
  mutable vty : Types.t;
  mutable vdef : vdef;
  (* Use list: the use records of the operands that read this value,
     newest first, doubly linked through [prev_use]/[next_use] and ended
     by [nil_use]; [use_count] is its length. Maintained by the mutators
     below: all operand mutation must go through [set_operand(s)] and
     [erase_op]. *)
  mutable first_use : use;
  mutable use_count : int;
}

and vdef =
  | Op_result of op * int
  | Block_arg of block * int

(* One operand of an op, owned by it and linked into the use list of the
   value it reads (MLIR's [OpOperand]), so a use is unlinked in O(1). *)
and use = {
  owner : op;
  index : int;
  mutable used : value;
  mutable prev_use : use;
  mutable next_use : use;
}

and op = {
  oid : int;
  name : string;
  (* Interned id of [name]; [name] itself is the canonical shared string
     for that atom, so string equality on names is a pointer check. *)
  name_id : Atom.t;
  mutable operands : value array;
  (* [operand_uses.(i)] is the use record of [operands.(i)]. *)
  mutable operand_uses : use array;
  mutable results : value array;
  mutable attrs : (string * Attr.t) list;
  regions : region array;
  (* CFG successor blocks (terminators only), printed as [^bb1, ^bb2].
     Successors always belong to the region holding the op's block. *)
  mutable successors : block array;
  mutable parent_block : block option;
  (* The neighbours of the op in its block, [nil_op] past either end and
     for a detached op; [order] ranks it in its block while the block's
     [order_valid] holds (see [is_before_in_block]). *)
  mutable prev : op;
  mutable next : op;
  mutable order : int;
  (* Source location (MLIR-style). The parser records textual positions,
     builders stamp defaults, transforms propagate deliberately. *)
  mutable loc : Loc.t;
  (* The generation of the last mutation after which a rewrite must look
     at this op again (see [stamp]); 0 for an op never attached. *)
  mutable stamp : int;
}

(* A block's ops form an intrusive doubly linked list from [first] to
   [last], both [nil_op] when the block is empty. *)
and block = {
  bid : int;
  mutable bargs : value array;
  mutable first : op;
  mutable last : op;
  (* Whether the [order] of the block's ops increases along the list. An
     append keeps it; any other insertion clears it, and the next order
     query renumbers the block. *)
  mutable order_valid : bool;
  mutable parent_region : region option;
}

and region = {
  rid : int;
  mutable blocks : block list;
  mutable parent_op : op option;
}

(* The sentinels that end the op and use lists. They are shared by every
   block and value, on every domain, so nothing ever writes to them. *)
let rec nil_op =
  {
    oid = -1;
    name = "";
    name_id = -1;
    operands = [||];
    operand_uses = [||];
    results = [||];
    attrs = [];
    regions = [||];
    successors = [||];
    parent_block = None;
    prev = nil_op;
    next = nil_op;
    order = 0;
    loc = Loc.Unknown;
    stamp = 0;
  }

and nil_value =
  { vid = -1; vty = Types.None_type; vdef = Op_result (nil_op, -1); first_use = nil_use;
    use_count = 0 }

and nil_use =
  { owner = nil_op; index = -1; used = nil_value; prev_use = nil_use; next_use = nil_use }

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

(* Visit [v]'s use records, newest first. [f] may unlink the record it
   is given: the next one is read first. *)
let iter_uses f v =
  let rec go u =
    if u != nil_use then begin
      let next = u.next_use in
      f u;
      go next
    end
  in
  go v.first_use

(* A changed op and its users: a user may fold or match differently
   through it (a constant's value, the operands reassociation reads). *)
let stamp_with_users op =
  stamp op;
  Array.iter (iter_uses (fun u -> stamp u.owner)) op.results

(** The uses of [v] as (user, operand index) pairs, newest first. *)
let uses v =
  let rec go u = if u == nil_use then [] else (u.owner, u.index) :: go u.next_use in
  go v.first_use

let has_uses v = v.first_use != nil_use
let num_uses v = v.use_count

(** Is operand [i] of [op] linked into the use list of the value it
    reads? The verifier's use-list check, in O(1). *)
let operand_linked op i =
  let u = op.operand_uses.(i) and v = op.operands.(i) in
  u.used == v
  && if u.prev_use == nil_use then v.first_use == u else u.prev_use.next_use == u

(* ------------------------------------------------------------------ *)
(* Op construction                                                     *)
(* ------------------------------------------------------------------ *)

(* Link [u] at the head of [v]'s use list: the newest use comes first. *)
let link_use v u =
  u.used <- v;
  u.prev_use <- nil_use;
  u.next_use <- v.first_use;
  if v.first_use != nil_use then v.first_use.prev_use <- u;
  v.first_use <- u;
  v.use_count <- v.use_count + 1

let unlink_use u =
  let v = u.used in
  if u.prev_use == nil_use then v.first_use <- u.next_use
  else u.prev_use.next_use <- u.next_use;
  if u.next_use != nil_use then u.next_use.prev_use <- u.prev_use;
  u.prev_use <- nil_use;
  u.next_use <- nil_use;
  v.use_count <- v.use_count - 1

(* One use record per operand, each linked into its value's list in
   operand order. *)
let link_operands op =
  op.operand_uses <-
    Array.mapi
      (fun index v ->
        let u = { owner = op; index; used = v; prev_use = nil_use; next_use = nil_use } in
        link_use v u;
        u)
      op.operands

let new_value vty vdef = { vid = next_id (); vty; vdef; first_use = nil_use; use_count = 0 }

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
      operand_uses = [||];
      results = [||];
      attrs;
      regions = Array.of_list regions;
      successors = Array.of_list successors;
      parent_block = None;
      prev = nil_op;
      next = nil_op;
      order = 0;
      loc;
      stamp = 0;
    }
  in
  op.results <-
    Array.of_list (List.mapi (fun i ty -> new_value ty (Op_result (op, i))) result_types);
  link_operands op;
  Array.iter (fun r -> r.parent_op <- Some op) op.regions;
  op

let create_block ?(args = []) () =
  let blk =
    { bid = next_id (); bargs = [||]; first = nil_op; last = nil_op; order_valid = true;
      parent_region = None }
  in
  blk.bargs <-
    Array.of_list (List.mapi (fun i ty -> new_value ty (Block_arg (blk, i))) args);
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

(* A block's ops are read only through the functions below and written
   only by the mutators further down: no other module sees the list. *)

(** The ops of [b], in order. The list is a snapshot: the caller may keep
    walking it while it inserts, moves or erases ops of [b]. *)
let ops b =
  let rec go o acc = if o == nil_op then acc else go o.prev (o :: acc) in
  go b.last []

(** Apply [f] to each op of [b], in order, without building a list. [f]
    may detach or erase the op it is given, because the next op is read
    before [f] runs, but no other op of [b]; an op it inserts right
    after the current one is not visited, one inserted further on is. *)
let iter_ops f b =
  let rec go o =
    if o != nil_op then begin
      let next = o.next in
      f o;
      go next
    end
  in
  go b.first

(** [f (... (f init o1) ...) on], over the ops of [b] in order. *)
let fold_ops f init b =
  let rec go acc o = if o == nil_op then acc else go (f acc o) o.next in
  go init b.first

let for_all_ops p b =
  let rec go o = o == nil_op || (p o && go o.next) in
  go b.first

let first_op b = if b.first == nil_op then None else Some b.first

(** The last op of [b]: its terminator, in a block that has one. *)
let last_op b = if b.last == nil_op then None else Some b.last

let renumber b =
  ignore (fold_ops (fun i o -> o.order <- i; i + 1) 0 b);
  b.order_valid <- true

(** Does [a] come strictly before [b] in the block that holds them both?
    False for the same op, and for ops of different blocks. Compares the
    ops' order indices, renumbering the block first when an insertion
    other than an append left them stale (MLIR's
    [Operation::isBeforeInBlock]). *)
let is_before_in_block a b =
  match (a.parent_block, b.parent_block) with
  | Some ba, Some bb when ba == bb ->
    if not ba.order_valid then renumber ba;
    a.order < b.order
  | _ -> false

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
  let v = new_value ty (Block_arg (b, i)) in
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

let attr op key =
  let rec find = function
    | [] -> None
    | (k, a) :: rest -> if String.equal k key then Some a else find rest
  in
  find op.attrs

(* [attrs] without the first binding of [key], as [List.remove_assoc]. *)
let rec remove_key key = function
  | [] -> []
  | ((k, _) as b) :: rest -> if String.equal k key then rest else b :: remove_key key rest

let set_attr op key a =
  op.attrs <- (key, a) :: remove_key key op.attrs;
  stamp_with_users op

let remove_attr op key =
  op.attrs <- remove_key key op.attrs;
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
        not (for_all_ops (fun o -> not (Array.exists (fun s -> s == block) o.successors)) b))
      r.blocks

(** Pre-order walk over [op] and every op nested in its regions. Each
    block's next op is read before the current one is visited (MLIR's
    early-increment walk), so [f] may detach the op it is given, and the
    walk still enters the regions of a detached op; [erase_op] relies on
    both. Like {!iter_ops}, the walk skips an op inserted right after the
    op being visited and reaches one inserted further on. *)
let rec walk op ~f =
  f op;
  Array.iter (fun r -> List.iter (fun b -> iter_ops (fun o -> walk o ~f) b) r.blocks) op.regions

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

let set_operand op i v =
  let old = op.operands.(i) in
  if not (value_equal old v) then begin
    let u = op.operand_uses.(i) in
    unlink_use u;
    op.operands.(i) <- v;
    link_use v u;
    stamp_with_users op;
    stamp_def old;
    notify_listeners (fun l -> l.on_operand_replaced op old)
  end

let set_operands op vs =
  let olds = op.operands in
  Array.iter unlink_use op.operand_uses;
  op.operands <- Array.of_list vs;
  link_operands op;
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

(* [set_operand] moves each record to [new_v]'s list; [iter_uses] has
   read the next one already. *)
let replace_all_uses_with old_v new_v =
  iter_uses (fun u -> set_operand u.owner u.index new_v) old_v

(* Block surgery: linking and unlinking ops. No write ever reaches
   [nil_op]. *)

(* An inserted op stands for its whole subtree: every op in it is new
   to the enclosing IR, so every op in it gets the one fresh stamp. *)
let stamp_subtree g op = walk op ~f:(fun o -> o.stamp <- g)

let attached block op =
  op.parent_block <- Some block;
  stamp_subtree (fresh_generation ()) op;
  notify_listeners (fun l -> l.on_op_inserted op)

(* Link the detached [op] into [block] between [prev] and [next], either
   of which may be [nil_op]. An append numbers the op after [prev] and
   keeps the block's order index valid; any other insertion clears it. *)
let link block ~prev ~next op =
  assert (op.parent_block == None);
  op.prev <- prev;
  op.next <- next;
  if prev == nil_op then block.first <- op else prev.next <- op;
  if next == nil_op then begin
    block.last <- op;
    op.order <- (if prev == nil_op then 0 else prev.order + 1)
  end
  else begin
    next.prev <- op;
    block.order_valid <- false
  end

let append_op block op =
  link block ~prev:block.last ~next:nil_op op;
  attached block op

(** Make [ops], new and detached, the whole body of the new, empty
    [block], in order: one attach per block, which is how the parser
    builds its blocks. Each op gets its parent and the one fresh stamp
    of the block; the ops nested in them keep the (older) stamps of their
    own blocks. No listener hears of it, because building new IR is not
    a rewrite. *)
let attach_body block ops =
  assert (block.first == nil_op);
  let g = fresh_generation () in
  List.iter
    (fun op ->
      link block ~prev:block.last ~next:nil_op op;
      op.parent_block <- Some block;
      op.stamp <- g)
    ops;
  block.order_valid <- true

let prepend_op block op =
  link block ~prev:nil_op ~next:block.first op;
  attached block op

let insert_before ~anchor op =
  match anchor.parent_block with
  | None -> invalid_arg "insert_before: anchor is detached"
  | Some block ->
    link block ~prev:anchor.prev ~next:anchor op;
    attached block op

let insert_after ~anchor op =
  match anchor.parent_block with
  | None -> invalid_arg "insert_after: anchor is detached"
  | Some block ->
    link block ~prev:anchor ~next:anchor.next op;
    attached block op

(** Detach [op] from its block without touching its operands' use lists. *)
let detach_op op =
  match op.parent_block with
  | None -> ()
  | Some block ->
    let prev = op.prev and next = op.next in
    if prev == nil_op then block.first <- next else prev.next <- next;
    if next == nil_op then block.last <- prev else next.prev <- prev;
    op.prev <- nil_op;
    op.next <- nil_op;
    op.parent_block <- None;
    stamp_ancestors_of_block block

exception Has_uses of op

let drop_operands op =
  Array.iteri
    (fun i v ->
      unlink_use op.operand_uses.(i);
      stamp_def v)
    op.operands

(** Remove [op] with every op nested in it (MLIR's [Operation::erase]).
    Raises [Has_uses], before any change, when a result of [op] is still
    used. The nested ops go first, in pre-order, then [op]; each is
    announced to the listeners while its parent block and operand uses
    are still in place, then detached and its operand uses dropped. *)
let erase_op op =
  Array.iter (fun r -> if has_uses r then raise (Has_uses op)) op.results;
  let erase_one o =
    notify_listeners (fun l -> l.on_op_erased o);
    detach_op o;
    drop_operands o
  in
  walk op ~f:(fun o -> if not (o == op) then erase_one o);
  erase_one op

(** Replace result [i] of [op] by the [i]-th of [values], then erase [op]
    (MLIR's [replaceOp]). A result past the end of [values] must be
    unused, and values past the last result are ignored: a call may name
    more or fewer results than its callee returns. Raises [Has_uses],
    before any change, when a result without a value is used. *)
let replace_op op values =
  let n = List.length values in
  Array.iteri (fun i r -> if i >= n && has_uses r then raise (Has_uses op)) op.results;
  List.iteri
    (fun i v -> if i < num_results op then replace_all_uses_with op.results.(i) v)
    values;
  erase_op op

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

(** [named names] tests an op's name against [names] by atom. Apply it
    to [names] once and the result to many ops. *)
let named names =
  let ids = List.map Atom.intern names in
  fun op -> List.exists (fun id -> id = op.name_id) ids

let collect_named op name = collect op ~p:(named [ name ])

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

let module_atom = Atom.intern module_name
let func_atom = Atom.intern func_name
let is_module op = op.name_id = module_atom
let is_func op = op.name_id = func_atom

let module_block m =
  assert (is_module m);
  entry_block m.regions.(0)

let func_sym op = match attr_string op "sym_name" with Some s -> s | None -> "?"

let lookup_func m name =
  let rec find o =
    if o == nil_op then None
    else if is_func o && String.equal (func_sym o) name then Some o
    else find o.next
  in
  find (module_block m).first

let funcs m =
  let rec go o acc = if o == nil_op then acc else go o.prev (if is_func o then o :: acc else acc) in
  go (module_block m).last []

let func_body op =
  assert (is_func op);
  entry_block op.regions.(0)

(** Enclosing func.func of an op, if any. *)
let rec enclosing_func op =
  if is_func op then Some op
  else match parent_op op with None -> None | Some p -> enclosing_func p

(** Structural path of [op] below its enclosing function (or module when
    there is none): op names with block positions, outermost first, e.g.
    ["scf.for#2 > arith.addi#0"]. The enclosing func itself is excluded. *)
let op_path op =
  let component o =
    let rec index i o' =
      if o' == nil_op then o.name
      else if o' == o then Printf.sprintf "%s#%d" o.name i
      else index (i + 1) o'.next
    in
    match o.parent_block with Some b -> index 0 b.first | None -> o.name
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
               iter_ops (fun o -> append_op nb (clone_op ~value_map ~block_map o)) b)
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
