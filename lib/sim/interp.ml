(* The GPU device simulator: executes kernel IR over an ND-range with
   correct work-group semantics. In a kernel with a barrier, work-items of
   a work-group run as OCaml 5 effect-handler fibers; a group barrier
   suspends the fiber, and the scheduler resumes all fibers of the group
   phase by phase — so the cooperative local-memory prefetch produced by
   loop internalization (Section VI-C) executes correctly, and a barrier
   in a divergent region is detected as the deadlock it would be on
   hardware. Work-items of a kernel without one run as plain calls.

   A kernel is decoded once before it runs ({!decode}): every SSA value
   of the kernel and of the device functions it calls gets a slot in one
   of three frame banks — ints, unboxed floats, boxed runtime values —
   chosen by what the value's producer writes (an accessor subscript's
   element reference takes one place in two of them), and every op a
   dense index and a closure that does its work. An executed op is then
   one closure call that reads and writes the work-item's frame — no
   op-name dispatch, no hashing and, for int and float values and
   element references, no allocation. This is progressive lowering
   applied to the simulator: the IR is lowered once to a typed
   execution form.

   Charges are counted per op, in arrays indexed by the op's dense
   index: ALU cycles per executed op, memory transactions per
   (instruction, occurrence, sub-group) with cache-line coalescing, and
   barrier rounds. A work-group's totals, which the cost formula prices,
   are the sums of its per-op counters, and the same counters are the
   launch's source attribution. Private memory is treated as registers
   (no memory cost), matching mem2reg-ed GPU code. *)

open Mlir
module Sycl_types = Sycl_core.Sycl_types
module Sycl_ops = Sycl_core.Sycl_ops

exception Sim_error of string

exception Barrier_divergence

type _ Effect.t += Barrier : unit Effect.t

(* ------------------------------------------------------------------ *)
(* Runtime values                                                      *)
(* ------------------------------------------------------------------ *)

type acc_desc = {
  a_alloc : Memory.allocation;
  a_range : int array;  (* access range *)
  a_mem_range : int array;  (* underlying buffer range *)
  a_offset : int array;
  a_is_float : bool;
}

type rv =
  | I of int
  | F of float
  | Mem of Memory.view
  | Acc of acc_desc
  | Item  (** the item-like argument; queries read the work-item context *)
  | Unit

let as_int = function
  | I i -> i
  | F f -> int_of_float f
  | _ -> raise (Sim_error "expected integer value")

let as_float = function
  | F f -> f
  | I i -> float_of_int i
  | _ -> raise (Sim_error "expected float value")

let as_mem = function Mem v -> v | _ -> raise (Sim_error "expected memref value")
let as_acc = function Acc a -> a | _ -> raise (Sim_error "expected accessor value")

(* ------------------------------------------------------------------ *)
(* Execution contexts                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-op charges of a work-group live in one flat array: [n_fields]
   consecutive counters per decoded op, at [op index * n_fields]. *)
let f_alu = 0
let f_fdiv = 1
let f_accesses = 2  (* raw non-private accesses, pre-coalescing *)
let f_barriers = 3  (* barrier rounds this op's barrier closed *)
let f_global = 4  (* coalesced transactions, one counter per class *)
let f_local = 5
let f_const = 6
(* Cache-model probes of the op's global transactions (all 0 under the
   flat model — no probes happen). *)
let f_hits = 7
let f_misses = 8
let f_evictions = 9
let f_dist_sum = 10  (* summed warm reuse distances *)
let f_dist_count = 11  (* warm re-accesses *)
let n_fields = 12

(* The reuse distances of a chunk's warm cache probes: [counts.(d)] of
   them measured distance [d]. Grown on demand. *)
type dist_hist = { mutable counts : int array }

let add_dist (h : dist_hist) d n =
  if d >= Array.length h.counts then begin
    let grown = Array.make (max (d + 1) (2 * Array.length h.counts)) 0 in
    Array.blit h.counts 0 grown 0 (Array.length h.counts);
    h.counts <- grown
  end;
  h.counts.(d) <- h.counts.(d) + n

(* A work-group's context. A chunk of work-groups makes one and resets it
   before each of its groups ({!launch}). *)
type wg_ctx = {
  params : Cost.params;
  mutable footprint : Memory.footprint option;
      (* per-group global-write footprint, recorded under --sim-check-races *)
  locals : (int, Memory.allocation) Hashtbl.t;  (* gpu.alloc_local slot *)
  counters : int array;  (* per-op charges, see [n_fields] *)
  coalesce : int list array array;
      (* [op index * n_sub + sub-group] -> for each occurrence of the op
         in a work-item, the distinct transactions ({!transaction}) the
         sub-group's accesses made *)
  n_sub : int;  (* sub-groups per work-group *)
  cache_model : Cost.cache_model;
  cache : (Cache.state * Cache.reuse) option;
      (* the cache and reuse-distance tracker, emptied for each group;
         None under Flat *)
  dists : dist_hist;  (* the chunk's reuse distances *)
  mutable cur_barrier : int;
      (* index of the barrier op the group is suspended at, or -1 *)
}

(* A work-item's context. A chunk of work-groups makes one per local
   linear id and reuses it for each of its groups: [gid], the frame and
   [occ] are reset before each group runs, [grp] is the chunk's current
   group id and [lid] a row of the launch's local-id table. *)
type wi_ctx = {
  wg : wg_ctx;
  gid : int array;
  lid : int array;
  grp : int array;
  global_range : int array;
  local_range : int array;
  subgroup : int;
  (* The work-item's frame: one bank per kind of value ({!slot}) and the
     defined-map, one byte per slot, non-zero once the slot was
     written. *)
  ints : int array;
  floats : Float.Array.t;
  vals : rv array;
  defined : Bytes.t;
  occ : int array;  (* per op index: accesses the op made so far *)
}

(* ------------------------------------------------------------------ *)
(* Frame slots                                                         *)
(* ------------------------------------------------------------------ *)

(* A slot is [index * 4 + bank]: [index] is a position in the bank's
   array — [ints], [floats] or [vals] — and the slot itself a position
   in the defined-map. Ints and floats thus stay unboxed in the frame,
   and reading or writing them allocates nothing. Slots come from the
   decoder that sized the frame, so the unchecked accesses below stay
   in range; a bank-specific write is only decoded for a slot of that
   bank ({!in_bank}).

   An element reference — what [sycl.accessor.subscript] yields — takes
   position [index] of two banks: the accessor value in [vals] and the
   element's linear index in [ints]. Writing one is two stores; a reader
   that needs a runtime value gets the one-element view it stands for
   ({!get_value}). *)
let bank_int = 0
let bank_float = 1
let bank_boxed = 2
let bank_elem = 3

let unbound () = raise (Sim_error "use of unbound SSA value in simulator")

let wrong_bank () =
  raise (Sim_error "device simulator: value decoded into the wrong bank")

(* Dims and strides of an element reference's one-element view (views
   are never mutated, so one array serves them all). *)
let unit_extent = [| 1 |]

let[@inline] check_defined w s =
  if Bytes.unsafe_get w.defined s = '\000' then unbound ()

(* Reads convert a value from another bank exactly as [as_int] and
   [as_float] convert runtime values. *)
let[@inline] get_int w s =
  check_defined w s;
  let i = s lsr 2 in
  match s land 3 with
  | 0 -> Array.unsafe_get w.ints i
  | 1 -> int_of_float (Float.Array.unsafe_get w.floats i)
  | _ -> as_int (Array.unsafe_get w.vals i)

let[@inline] get_float w s =
  check_defined w s;
  let i = s lsr 2 in
  match s land 3 with
  | 0 -> float_of_int (Array.unsafe_get w.ints i)
  | 1 -> Float.Array.unsafe_get w.floats i
  | _ -> as_float (Array.unsafe_get w.vals i)

(* A slot as a runtime value: an int or a float gets boxed, an element
   reference becomes its one-element view. *)
let get_value w s =
  check_defined w s;
  let i = s lsr 2 in
  match s land 3 with
  | 0 -> I (Array.unsafe_get w.ints i)
  | 1 -> F (Float.Array.unsafe_get w.floats i)
  | 2 -> Array.unsafe_get w.vals i
  | _ ->
    Mem
      {
        Memory.base = (as_acc (Array.unsafe_get w.vals i)).a_alloc;
        offset = Array.unsafe_get w.ints i;
        dims = unit_extent;
        strides = unit_extent;
      }

let[@inline] set_int w s v =
  Array.unsafe_set w.ints (s lsr 2) v;
  Bytes.unsafe_set w.defined s '\001'

let[@inline] set_float w s v =
  Float.Array.unsafe_set w.floats (s lsr 2) v;
  Bytes.unsafe_set w.defined s '\001'

let set_value w s v =
  Array.unsafe_set w.vals (s lsr 2) v;
  Bytes.unsafe_set w.defined s '\001'

(* An element reference to cell [lin] of accessor [acc]'s allocation. *)
let[@inline] set_elem w s (acc : rv) lin =
  let i = s lsr 2 in
  Array.unsafe_set w.vals i acc;
  Array.unsafe_set w.ints i lin;
  Bytes.unsafe_set w.defined s '\001'

(* Copy slot [src] into slot [dst]. Decoding puts [dst] in [src]'s bank
   or in the boxed one (kinds only join upwards), so a value moves
   as is or gets boxed.

   A float read is let-bound before it is passed on, here and below:
   passed straight to another inlined function, it would be boxed. *)
let copy w src dst =
  match dst land 3 with
  | 0 -> set_int w dst (get_int w src)
  | 1 ->
    let x = get_float w src in
    set_float w dst x
  | 2 -> set_value w dst (get_value w src)
  | _ ->
    check_defined w src;
    if src land 3 <> bank_elem then wrong_bank ();
    let i = src lsr 2 in
    set_elem w dst (Array.unsafe_get w.vals i) (Array.unsafe_get w.ints i)

let count (g : wg_ctx) k f by =
  let i = (k * n_fields) + f in
  g.counters.(i) <- g.counters.(i) + by

(* Every charge is counted against the charging op only: the group's
   totals, which the cost formula prices, are the sums of its per-op
   counters ({!flush_wg}). *)
let alu w k = count w.wg k f_alu 1
let fdiv w k = count w.wg k f_fdiv 1

(* ------------------------------------------------------------------ *)
(* Device memory                                                       *)
(* ------------------------------------------------------------------ *)

(* Cells in {!Memory.allocation}'s unboxed layout, accessed here rather
   than through [Memory.get_float] and friends: a float returned by a
   function that is not inlined is boxed, and the library is compiled
   without cross-module inlining. Indices are {!Memory.check}ed. *)
let[@inline] load_int (a : Memory.allocation) lin =
  if Bytes.unsafe_get a.Memory.tags lin = Memory.int_tag then
    Array.unsafe_get a.Memory.ints lin
  else int_of_float (Float.Array.unsafe_get a.Memory.floats lin)

let[@inline] load_float (a : Memory.allocation) lin =
  if Bytes.unsafe_get a.Memory.tags lin = Memory.int_tag then
    float_of_int (Array.unsafe_get a.Memory.ints lin)
  else Float.Array.unsafe_get a.Memory.floats lin

let[@inline] store_int (a : Memory.allocation) lin v =
  Array.unsafe_set a.Memory.ints lin v;
  Bytes.unsafe_set a.Memory.tags lin Memory.int_tag

let[@inline] store_float (a : Memory.allocation) lin v =
  Float.Array.unsafe_set a.Memory.floats lin v;
  Bytes.unsafe_set a.Memory.tags lin Memory.float_tag

(* Latency class: 0 = global, 1 = local, 2 = constant-cached. *)
let latency_class (a : Memory.allocation) =
  match a.Memory.space with
  | Types.Local -> 1
  | Types.Private -> 3 (* never recorded *)
  | Types.Global -> if a.Memory.constant_cached then 2 else 0

(* One coalesced transaction (allocation, cache line, latency class)
   packed into an int: lines stay below 2^32 and classes below 4, so the
   packing is injective for any allocation id a process can mint. *)
let transaction ~aid ~line ~cls = (aid lsl 34) lor (cls lsl 32) lor line

let rec mem_int (x : int) = function
  | [] -> false
  | y :: ys -> x = y || mem_int x ys

let record_access w k (a : Memory.allocation) lin =
  match a.Memory.space with
  | Types.Private -> alu w k
  | _ ->
    let g = w.wg in
    count g k f_accesses 1;
    let line = lin / g.params.Cost.cache_line_elems in
    let occ = w.occ.(k) in
    w.occ.(k) <- occ + 1;
    let cell = (k * g.n_sub) + w.subgroup in
    let per_occ =
      let arr = g.coalesce.(cell) in
      if occ < Array.length arr then arr
      else begin
        let grown = Array.make (max 4 (2 * (occ + 1))) [] in
        Array.blit arr 0 grown 0 (Array.length arr);
        g.coalesce.(cell) <- grown;
        grown
      end
    in
    let cls = latency_class a in
    let t = transaction ~aid:a.Memory.aid ~line ~cls in
    let seen = per_occ.(occ) in
    if not (mem_int t seen) then begin
      per_occ.(occ) <- t :: seen;
      count g k (match cls with 0 -> f_global | 1 -> f_local | _ -> f_const) 1;
      (* Probe the cache exactly once per NEW coalesced global
         transaction, so hits + misses = global_transactions holds by
         construction. Work-items of a group run sequentially in
         canonical order, so the probe sequence is deterministic and
         domain-count independent. *)
      match g.cache with
      | Some (cache, reuse) when cls = 0 -> (
        let { Cache.o_hit; o_evicted } =
          Cache.access cache ~aid:a.Memory.aid ~line
        in
        count g k (if o_hit then f_hits else f_misses) 1;
        if o_evicted then count g k f_evictions 1;
        let d = Cache.reuse_access reuse ~aid:a.Memory.aid ~line in
        if d >= 0 then begin
          count g k f_dist_sum d;
          count g k f_dist_count 1;
          add_dist g.dists d 1
        end)
      | _ -> ()
    end

(* A store of slot [v]'s value (already checked defined) to cell [lin]
   of [a]: its charge, its entry in the group's write footprint (tagged
   with the storing op's source location, so a race report can name the
   culprit store — only global-space writes are kept, see
   {!Memory.footprint_write}) and the write itself. *)
let store w k loc (a : Memory.allocation) lin v =
  record_access w k a lin;
  (match w.wg.footprint with
  | Some fp -> Memory.footprint_write ~loc fp a lin
  | None -> ());
  let i = v lsr 2 in
  match v land 3 with
  | 0 -> store_int a lin (Array.unsafe_get w.ints i)
  | 1 -> store_float a lin (Float.Array.unsafe_get w.floats i)
  | _ -> (
    match Array.unsafe_get w.vals i with
    | I n -> store_int a lin n
    | F f -> store_float a lin f
    | _ -> raise (Sim_error "cannot store non-scalar value"))

(* [Memory.linear_index view [| i |]]. *)
let linear1 (view : Memory.view) i =
  let a = view.Memory.base in
  if Array.length view.Memory.strides < 1 then Memory.rank_mismatch a;
  Memory.check a (view.Memory.offset + (i * view.Memory.strides.(0)))

(* ------------------------------------------------------------------ *)
(* SYCL struct storage helpers                                         *)
(* ------------------------------------------------------------------ *)

let alloc_size_of_type (ty : Types.t) =
  match ty with
  | Types.Memref { shape; element; _ } ->
    let prod =
      List.fold_left
        (fun acc d -> acc * match d with Some n -> n | None -> 1)
        1 shape
    in
    let cells = Sycl_types.flat_cells element in
    let scalar_dims =
      List.map (fun d -> match d with Some n -> n | None -> 1) shape
    in
    (prod * cells, if cells = 1 then Array.of_list scalar_dims else [| prod * cells |])
  | _ -> raise (Sim_error "alloca of non-memref type")

let element_is_float (ty : Types.t) =
  match ty with
  | Types.Memref { element; _ } -> Types.is_float element
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Value kinds                                                         *)
(* ------------------------------------------------------------------ *)

(* The bank a value lives in is decided by what its producer writes,
   not by its declared type, so ill-kinded IR converts on reads exactly
   as [as_int]/[as_float] do. [Unknown] is the bottom of the join: a
   value nothing writes. [Kelem] is an element reference, joined with
   any other kind it is boxed. *)
type kind = Unknown | Kint | Kfloat | Kelem | Kboxed

let join a b =
  match (a, b) with
  | Unknown, k | k, Unknown -> k
  | Kint, Kint -> Kint
  | Kfloat, Kfloat -> Kfloat
  | Kelem, Kelem -> Kelem
  | _ -> Kboxed

let bank_of = function
  | Kint -> bank_int
  | Kfloat -> bank_float
  | Kelem -> bank_elem
  | Kboxed | Unknown -> bank_boxed

(* The kind an op writes to its first result, for ops whose results do
   not take the kinds of their operands. Must agree with what
   {!op_code} writes; the decoder checks that it does ({!in_bank}). *)
let result_kind (op : Core.op) =
  match op.Core.name with
  | "arith.constant" -> (
    match Core.attr op "value" with
    | Some (Attr.Float _) -> Kfloat
    | Some (Attr.Int _ | Attr.Bool _) -> Kint
    | _ -> Unknown)
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.minsi" | "arith.maxsi"
  | "arith.cmpi" | "arith.cmpf" | "arith.index_cast" | "arith.fptosi"
  | "memref.dim" | "affine.apply" | "sycl.item.get_id"
  | "sycl.nd_item.get_global_id" | "sycl.nd_item.get_local_id"
  | "sycl.nd_item.get_group_id" | "sycl.item.get_range"
  | "sycl.nd_item.get_global_range" | "sycl.nd_item.get_local_range"
  | "sycl.item.get_linear_id" | "sycl.id.get" | "sycl.range.get"
  | "sycl.accessor.get_range" | "sycl.accessor.get_mem_range"
  | "sycl.accessor.get_offset" | "sycl.accessor.distinct" ->
    Kint
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
  | "arith.minimumf" | "arith.maximumf" | "arith.negf" | "arith.sitofp"
  | "math.sqrt" | "math.exp" | "math.absf" ->
    Kfloat
  | "memref.load" | "affine.load" ->
    if element_is_float (Core.operand op 0).Core.vty then Kfloat else Kint
  | "memref.alloca" | "memref.alloc" | "gpu.alloc_local" -> Kboxed
  | "sycl.accessor.subscript" -> Kelem
  | _ -> Unknown

(* A block's ops before its terminator, and the terminator's operands
   ([||] when the block has none). *)
let split_block (b : Core.block) =
  let rec go acc = function
    | [] -> (List.rev acc, [||])
    | op :: rest -> (
      match op.Core.name with
      | "scf.yield" | "affine.yield" | "func.return" ->
        (List.rev acc, op.Core.operands)
      | _ -> go (op :: acc) rest)
  in
  go [] b.Core.body

let loop_iter_inits (op : Core.op) =
  if op.Core.name = "scf.for" then Dialects.Scf.for_iter_inits op
  else Dialects.Affine_ops.for_iter_inits op

(* The kind of every value of [kernel] and the device functions it
   calls, by value id. arith.select results, loop-carried values and
   scf.if results take the join of the values flowing into them, so
   kinds are raised to a fixed point; function arguments and call
   results are boxed. Ops too malformed to read are skipped: they
   decode to code that raises before writing anything. *)
let infer_kinds funcs (kernel : Core.op) =
  let kinds = Hashtbl.create 256 in
  let kind (v : Core.value) =
    Option.value ~default:Unknown (Hashtbl.find_opt kinds v.Core.vid)
  in
  let changed = ref true in
  let raise_to (v : Core.value) k =
    let old = kind v in
    let k = join old k in
    if k <> old then begin
      Hashtbl.replace kinds v.Core.vid k;
      changed := true
    end
  in
  (* Lane [j] of [dsts] receives lane [j] of every array in [srcs]. *)
  let flow srcs (dsts : Core.value array) =
    Array.iteri
      (fun j dst ->
        List.iter
          (fun (src : Core.value array) ->
            if j < Array.length src then raise_to dst (kind src.(j)))
          srcs)
      dsts
  in
  let seen = Hashtbl.create 8 in
  let rec fn (f : Core.op) =
    let body = Core.func_body f in
    if not (Hashtbl.mem seen body.Core.bid) then begin
      Hashtbl.replace seen body.Core.bid ();
      Array.iter (fun a -> raise_to a Kboxed) body.Core.bargs;
      ignore (block body)
    end
  and block b =
    let ops, yields = split_block b in
    List.iter op ops;
    yields
  and op (o : Core.op) =
    try
      match o.Core.name with
      | "arith.select" ->
        raise_to (Core.result o 0)
          (join (kind (Core.operand o 1)) (kind (Core.operand o 2)))
      | "scf.for" | "affine.for" ->
        let body = Core.entry_block o.Core.regions.(0) in
        raise_to (Core.block_arg body 0) Kint;
        let inits = Array.of_list (loop_iter_inits o) in
        let yields = block body in
        let iter = Array.sub body.Core.bargs 1 (Array.length body.Core.bargs - 1) in
        flow [ inits; yields ] iter;
        flow [ inits; yields ] o.Core.results
      | "scf.if" ->
        let yields =
          List.map
            (fun i -> block (Core.entry_block o.Core.regions.(i)))
            (if Core.num_regions o > 1 then [ 0; 1 ] else [ 0 ])
        in
        flow yields o.Core.results
      | "func.call" -> (
        Array.iter (fun r -> raise_to r Kboxed) o.Core.results;
        match Option.bind (Core.attr_symbol o "callee") (Hashtbl.find_opt funcs) with
        | Some f -> fn f
        | None -> ())
      | _ -> (
        match result_kind o with
        | Unknown -> ()
        | k -> raise_to (Core.result o 0) k)
    with _ -> ()
  in
  while !changed do
    changed := false;
    Hashtbl.reset seen;
    fn kernel
  done;
  kinds

(* ------------------------------------------------------------------ *)
(* Decoded programs                                                    *)
(* ------------------------------------------------------------------ *)

type code = wi_ctx -> unit

(* A decoded block: its ops before the terminator, and the slots the
   terminator yields ([||] when the block has none). *)
type block_code = { ops : code array; yields : int array }

(* A decoded function. [body] is filled in after the record is
   registered, so recursive calls resolve to it. *)
type fn = { args : int array; mutable body : block_code }

type program = {
  entry : fn;
  ops : Core.op array;  (* by dense op index *)
  canonical : int array;  (* op indices in canonical (creation) order *)
  bank_sizes : int array;  (* slots per bank, by bank number *)
  n_defined : int;  (* defined-map length: the largest slot + 1 *)
  has_barrier : bool;  (* whether a barrier op was decoded *)
}

type decoder = {
  kinds : (int, kind) Hashtbl.t;  (* value id -> kind, {!infer_kinds} *)
  value_slots : (int, int) Hashtbl.t;  (* value id -> frame slot *)
  next : int array;  (* next free index, by bank *)
  mutable n_defined : int;
  mutable decoded : Core.op list;  (* by op index, newest first *)
  mutable n_ops : int;
  mutable has_barrier : bool;
  funcs : (string, Core.op) Hashtbl.t;  (* device functions by symbol *)
  fns : (int, fn) Hashtbl.t;  (* decoded functions by body block id *)
}

let fresh_slot d bank =
  let i =
    if bank = bank_elem then begin
      (* The next index free in both banks an element reference uses. *)
      let i = max d.next.(bank_int) d.next.(bank_boxed) in
      d.next.(bank_int) <- i + 1;
      d.next.(bank_boxed) <- i + 1;
      i
    end
    else begin
      let i = d.next.(bank) in
      d.next.(bank) <- i + 1;
      i
    end
  in
  let s = (i * 4) + bank in
  d.n_defined <- max d.n_defined (s + 1);
  s

let slot d (v : Core.value) =
  match Hashtbl.find_opt d.value_slots v.Core.vid with
  | Some s -> s
  | None ->
    let kind = Option.value ~default:Unknown (Hashtbl.find_opt d.kinds v.Core.vid) in
    let s = fresh_slot d (bank_of kind) in
    Hashtbl.replace d.value_slots v.Core.vid s;
    s

let slots d vs = Array.of_list (List.map (slot d) vs)

(* [s], which a bank-specific write will use: it must be in [bank]. *)
let in_bank bank s = if s land 3 = bank then s else wrong_bank ()

(* Temporaries for values moving in lanes: lane [j] of every slot array
   in [srcs] and [dsts] passes through temporary [j], so every value in
   a lane can be read before any is written. The temporary is in the
   join of the banks the lane touches — or an element reference when the
   lane's destinations are: then every source that is ever written is
   one, and the others, in the boxed bank, raise when read. *)
let temps d ~srcs ~dsts =
  let lanes = srcs @ dsts in
  let n = List.fold_left (fun n a -> max n (Array.length a)) 0 lanes in
  Array.init n (fun j ->
      let bank_at a = if j < Array.length a then a.(j) land 3 else -1 in
      let bank =
        if List.exists (fun a -> bank_at a = bank_elem) dsts then bank_elem
        else
          List.fold_left
            (fun b a ->
              let b' = bank_at a in
              if b' < 0 then b else if b < 0 || b = b' then b' else bank_boxed)
            (-1) lanes
      in
      fresh_slot d (if bank < 0 then bank_boxed else bank))

let run_block w (b : block_code) =
  let ops = b.ops in
  for i = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops i) w
  done

(* Move what block [b] yielded into [res] through [temps]: every yielded
   value is read before any result is written. *)
let bind_yields w (b : block_code) temps (res : int array) =
  let ys = b.yields in
  for j = 0 to Array.length ys - 1 do
    copy w ys.(j) temps.(j)
  done;
  for j = 0 to Array.length ys - 1 do
    copy w temps.(j) res.(j)
  done

(* [Memory.linear_index] of the indices held in slots [idx] into a view
   of [a] at [offset] with [strides], without building the view or the
   index array. *)
let linear w (a : Memory.allocation) offset (strides : int array)
    (idx : int array) =
  if Array.length idx > Array.length strides then Memory.rank_mismatch a;
  let lin = ref offset in
  for k = 0 to Array.length idx - 1 do
    lin := !lin + (get_int w idx.(k) * strides.(k))
  done;
  Memory.check a !lin

(* An access to the cell [m[idx]]: [f w a lin] accesses cell [lin] of
   allocation [a]. An element reference [m] is read where it lies, any
   other value as a view. *)
let access_code m (idx : int array) (f : wi_ctx -> Memory.allocation -> int -> unit)
    : code =
  if m land 3 = bank_elem then fun w ->
    check_defined w m;
    let i = m lsr 2 in
    let a = (as_acc (Array.unsafe_get w.vals i)).a_alloc in
    f w a (linear w a (Array.unsafe_get w.ints i) unit_extent idx)
  else fun w ->
    let v = as_mem (get_value w m) in
    let a = v.Memory.base in
    f w a (linear w a v.Memory.offset v.Memory.strides idx)

(* scf.for / affine.for after their bounds are known: one ALU charge
   per iteration, the iteration arguments rebound from what the body
   yielded. Carried values pass through [temps], so a yield is the
   parallel move it is in the IR. *)
let run_loop w k ~lb ~ub ~step ~iv ~(iter : int array) ~(inits : int array)
    ~temps (body : block_code) (res : int array) =
  for j = 0 to Array.length inits - 1 do
    copy w inits.(j) temps.(j)
  done;
  let carried = ref (Array.length inits) and i = ref lb in
  while !i < ub do
    alu w k;
    set_int w iv !i;
    if !carried <> Array.length iter then
      raise
        (Sim_error
           (Printf.sprintf "loop carries %d values into %d iteration arguments"
              !carried (Array.length iter)));
    for j = 0 to Array.length iter - 1 do
      copy w temps.(j) iter.(j)
    done;
    run_block w body;
    let ys = body.yields in
    for j = 0 to Array.length ys - 1 do
      copy w ys.(j) temps.(j)
    done;
    carried := Array.length ys;
    i := !i + step
  done;
  for j = 0 to !carried - 1 do
    copy w temps.(j) res.(j)
  done

let ints w (ss : int array) =
  let a = Array.make (Array.length ss) 0 in
  for i = 0 to Array.length ss - 1 do
    a.(i) <- get_int w ss.(i)
  done;
  a

(* An affine map ready to evaluate into an array. A map whose arity does
   not match its operands goes through [Map.eval], which rejects it. *)
type amap = { map : Affine_expr.Map.t; exprs : Affine_expr.t array }

let amap (m : Affine_expr.Map.t) = { map = m; exprs = Array.of_list m.Affine_expr.Map.exprs }

let eval_map (a : amap) dims =
  if Array.length dims = a.map.Affine_expr.Map.num_dims
     && a.map.Affine_expr.Map.num_syms = 0
  then Array.map (fun e -> Affine_expr.eval dims [||] e) a.exprs
  else Array.of_list (Affine_expr.Map.eval a.map ~dims ~syms:[||])

let getter_dim w ds = if ds < 0 then 0 else get_int w ds

(* As [Dialects.Arith.eval_fcmp], here so the compared floats stay
   unboxed. *)
let[@inline] fcmp (p : Dialects.Arith.fcmp_pred) (x : float) y =
  match p with
  | Dialects.Arith.Oeq -> x = y
  | One -> x <> y
  | Olt -> x < y
  | Ole -> x <= y
  | Ogt -> x > y
  | Oge -> x >= y

(* One step of Horner's rule for [acc]'s linear index: index [i] of
   dimension [d] after the dimensions before it gave [lin]. Indices are
   linear against the accessor's *memory* range, with its offset; an
   index beyond its dimensions leaves [lin] alone (the rank is checked
   once all are read). *)
let[@inline] horner (acc : acc_desc) lin d i =
  if d < Array.length acc.a_mem_range then
    let off = if d < Array.length acc.a_offset then acc.a_offset.(d) else 0 in
    (lin * acc.a_mem_range.(d)) + i + off
  else lin

(* The linear index of element [acc[ids]]. Every index is read, in
   operand order, before the rank is checked. *)
let subscript_index w (acc : acc_desc) (ids : int array) =
  let lin = ref 0 and n_ids = ref (Array.length ids) in
  if Array.length ids = 1 && ids.(0) land 3 <> bank_int then begin
    match get_value w ids.(0) with
    | I i -> lin := horner acc 0 0 i
    | Mem v ->
      (* An id struct in private memory: one cell per dimension. *)
      n_ids := Array.length acc.a_range;
      for d = 0 to !n_ids - 1 do
        lin := horner acc !lin d (load_int v.Memory.base (linear1 v d))
      done
    | _ -> raise (Sim_error "bad subscript index")
  end
  else
    (* Direct form: one index operand per dimension. *)
    for d = 0 to Array.length ids - 1 do
      lin := horner acc !lin d (get_int w ids.(d))
    done;
  let range = acc.a_mem_range in
  if !n_ids > Array.length range then
    raise (Sim_error "subscript with more indices than accessor dimensions");
  for d = !n_ids to Array.length range - 1 do
    lin := !lin * range.(d)
  done;
  !lin

let fail e : code = fun _ -> raise e

let rec decode_block d (b : Core.block) : block_code =
  let ops, yields = split_block b in
  let ops = List.map (decode_op d) ops in
  { ops = Array.of_list ops; yields = Array.map (slot d) yields }

and decode_fn d (f : Core.op) : fn =
  let body = Core.func_body f in
  match Hashtbl.find_opt d.fns body.Core.bid with
  | Some fn -> fn
  | None ->
    let fn =
      { args = Array.map (fun a -> in_bank bank_boxed (slot d a)) body.Core.bargs;
        body = { ops = [||]; yields = [||] } }
    in
    Hashtbl.replace d.fns body.Core.bid fn;
    fn.body <- decode_block d body;
    fn

(* An op whose structure or attributes are wrong decodes to a closure
   that raises when the op executes, as the error surfaced before
   decoding existed — a malformed op on a path never taken stays
   harmless. *)
and decode_op d (op : Core.op) : code =
  let k = d.n_ops in
  d.n_ops <- k + 1;
  d.decoded <- op :: d.decoded;
  try op_code d k op with e -> fail e

(* A binary op reads its right operand first, so of two bad operands
   the right one's error is raised. *)
and op_code d k (op : Core.op) : code =
  let operand i = slot d (Core.operand op i) in
  let operands_from i =
    Array.map (slot d) (Array.sub op.Core.operands i (Core.num_operands op - i))
  in
  let result i = slot d (Core.result op i) in
  let results () = Array.map (slot d) op.Core.results in
  let int_result () = in_bank bank_int (result 0) in
  let float_result () = in_bank bank_float (result 0) in
  let boxed_result () = in_bank bank_boxed (result 0) in
  (* The optional dimension operand of a getter; -1 reads dimension 0. *)
  let dim_operand () = if Core.num_operands op >= 2 then operand 1 else -1 in
  let int2 charge f =
    let a = operand 0 and b = operand 1 and r = int_result () in
    fun w ->
      charge w k;
      let y = get_int w b in
      set_int w r (f (get_int w a) y)
  in
  (* Float ops each get their own closure: through a float-typed
     function parameter the operands and the result would be boxed. *)
  let float2 () = (operand 0, operand 1, float_result ()) in
  let query f =
    let ds = dim_operand () and r = int_result () in
    fun w ->
      alu w k;
      set_int w r (f w).(getter_dim w ds)
  in
  let acc_query f =
    let a = operand 0 and ds = dim_operand () and r = int_result () in
    fun w ->
      alu w k;
      set_int w r (f (as_acc (get_value w a))).(getter_dim w ds)
  in
  match op.Core.name with
  | "arith.constant" -> (
    match Core.attr op "value" with
    | Some (Attr.Int i) ->
      let r = int_result () in
      fun w -> set_int w r i
    | Some (Attr.Float f) ->
      let r = float_result () in
      fun w -> set_float w r f
    | Some (Attr.Bool b) ->
      let r = int_result () and i = Bool.to_int b in
      fun w -> set_int w r i
    | _ -> fail (Sim_error "arith.constant without numeric value"))
  | "arith.addi" -> int2 alu ( + )
  | "arith.subi" -> int2 alu ( - )
  | "arith.muli" -> int2 alu ( * )
  | "arith.divsi" -> int2 fdiv ( / )
  | "arith.remsi" -> int2 fdiv ( mod )
  | "arith.andi" -> int2 alu ( land )
  | "arith.ori" -> int2 alu ( lor )
  | "arith.xori" -> int2 alu ( lxor )
  | "arith.minsi" -> int2 alu Int.min
  | "arith.maxsi" -> int2 alu Int.max
  | "arith.addf" ->
    let a, b, r = float2 () in
    fun w ->
      alu w k;
      let y = get_float w b in
      set_float w r (get_float w a +. y)
  | "arith.subf" ->
    let a, b, r = float2 () in
    fun w ->
      alu w k;
      let y = get_float w b in
      set_float w r (get_float w a -. y)
  | "arith.mulf" ->
    let a, b, r = float2 () in
    fun w ->
      alu w k;
      let y = get_float w b in
      set_float w r (get_float w a *. y)
  | "arith.divf" ->
    let a, b, r = float2 () in
    fun w ->
      fdiv w k;
      let y = get_float w b in
      set_float w r (get_float w a /. y)
  | "arith.minimumf" ->
    let a, b, r = float2 () in
    fun w ->
      alu w k;
      let y = get_float w b in
      set_float w r (Float.min (get_float w a) y)
  | "arith.maximumf" ->
    let a, b, r = float2 () in
    fun w ->
      alu w k;
      let y = get_float w b in
      set_float w r (Float.max (get_float w a) y)
  | "arith.negf" ->
    let a = operand 0 and r = float_result () in
    fun w ->
      alu w k;
      set_float w r (-.get_float w a)
  | "arith.cmpi" -> (
    match Dialects.Arith.icmp_predicate op with
    | Some p ->
      int2 alu (fun x y -> Bool.to_int (Dialects.Arith.eval_icmp p x y))
    | None -> fail (Sim_error "cmpi without predicate"))
  | "arith.cmpf" -> (
    match
      Option.bind (Core.attr_string op "predicate")
        Dialects.Arith.fcmp_pred_of_string
    with
    | Some p ->
      let a = operand 0 and b = operand 1 and r = int_result () in
      fun w ->
        alu w k;
        let y = get_float w b in
        let x = get_float w a in
        set_int w r (Bool.to_int (fcmp p x y))
    | None -> fail (Sim_error "cmpf without predicate"))
  | "arith.select" ->
    let c = operand 0 and t = operand 1 and e = operand 2 and r = result 0 in
    fun w ->
      alu w k;
      copy w (if get_int w c <> 0 then t else e) r
  | "arith.index_cast" ->
    let a = operand 0 and r = int_result () in
    fun w -> set_int w r (get_int w a)
  | "arith.sitofp" ->
    let a = operand 0 and r = float_result () in
    fun w ->
      alu w k;
      set_float w r (float_of_int (get_int w a))
  | "arith.fptosi" ->
    let a = operand 0 and r = int_result () in
    fun w ->
      alu w k;
      set_int w r (int_of_float (get_float w a))
  | "math.sqrt" ->
    let a = operand 0 and r = float_result () in
    fun w ->
      fdiv w k;
      set_float w r (Float.sqrt (get_float w a))
  | "math.exp" ->
    let a = operand 0 and r = float_result () in
    fun w ->
      fdiv w k;
      set_float w r (Float.exp (get_float w a))
  | "math.absf" ->
    let a = operand 0 and r = float_result () in
    fun w ->
      alu w k;
      set_float w r (Float.abs (get_float w a))
  | "memref.alloca" | "memref.alloc" ->
    let ty = (Core.result op 0).Core.vty in
    let size, dims = alloc_size_of_type ty in
    let space =
      match ty with Types.Memref { space; _ } -> space | _ -> Types.Private
    in
    let r = boxed_result () in
    fun w ->
      let a = Memory.alloc ~label:"device-alloc" ~space ~size () in
      set_value w r (Mem (Memory.full_view ~dims a))
  | "gpu.alloc_local" ->
    let local_slot = Option.value ~default:0 (Core.attr_int op "slot") in
    let size, dims = alloc_size_of_type (Core.result op 0).Core.vty in
    let r = boxed_result () in
    fun w ->
      let a =
        match Hashtbl.find w.wg.locals local_slot with
        | a -> a
        | exception Not_found ->
          let a = Memory.alloc ~label:"wg-local" ~space:Types.Local ~size () in
          Hashtbl.replace w.wg.locals local_slot a;
          a
      in
      set_value w r (Mem (Memory.full_view ~dims a))
  | "memref.load" -> (
    let m = operand 0 and idx = operands_from 1 in
    match result_kind op with
    | Kfloat ->
      let r = float_result () in
      access_code m idx (fun w a lin ->
          record_access w k a lin;
          set_float w r (load_float a lin))
    | _ ->
      let r = int_result () in
      access_code m idx (fun w a lin ->
          record_access w k a lin;
          set_int w r (load_int a lin)))
  | "memref.store" ->
    let v = operand 0 and m = operand 1 and idx = operands_from 2 in
    let loc = op.Core.loc in
    let access = access_code m idx (fun w a lin -> store w k loc a lin v) in
    fun w ->
      check_defined w v;
      access w
  | "memref.dim" ->
    let m = operand 0 and i = operand 1 and r = int_result () in
    fun w ->
      let view = as_mem (get_value w m) in
      let d = get_int w i in
      set_int w r view.Memory.dims.(d)
  | "memref.dealloc" -> fun _ -> ()
  | "affine.apply" ->
    let m = amap (Dialects.Affine_ops.access_map op) in
    let dims = operands_from 0 and r = int_result () in
    fun w ->
      alu w k;
      (match eval_map m (ints w dims) with
      | [| x |] -> set_int w r x
      | _ -> raise (Sim_error "affine.apply with multiple results"))
  | "affine.load" -> (
    let m = amap (Dialects.Affine_ops.access_map op) in
    let mem = operand 0 and dims = operands_from 1 in
    let lin w view = Memory.linear_index view (eval_map m (ints w dims)) in
    match result_kind op with
    | Kfloat ->
      let r = float_result () in
      fun w ->
        let view = as_mem (get_value w mem) in
        let lin = lin w view in
        record_access w k view.Memory.base lin;
        set_float w r (load_float view.Memory.base lin)
    | _ ->
      let r = int_result () in
      fun w ->
        let view = as_mem (get_value w mem) in
        let lin = lin w view in
        record_access w k view.Memory.base lin;
        set_int w r (load_int view.Memory.base lin))
  | "affine.store" ->
    let m = amap (Dialects.Affine_ops.access_map op) in
    let v = operand 0 and mem = operand 1 and dims = operands_from 2 in
    let loc = op.Core.loc in
    fun w ->
      check_defined w v;
      let view = as_mem (get_value w mem) in
      let lin = Memory.linear_index view (eval_map m (ints w dims)) in
      store w k loc view.Memory.base lin v
  | "scf.for" ->
    let lb = operand 0 and ub = operand 1 and step = operand 2 in
    let body_block = Dialects.Scf.for_body op in
    let iv = in_bank bank_int (slot d (Core.block_arg body_block 0)) in
    let iter = slots d (Dialects.Scf.for_iter_args op) in
    let inits = slots d (Dialects.Scf.for_iter_inits op) in
    let body = decode_block d body_block and res = results () in
    let temps = temps d ~srcs:[ inits; body.yields ] ~dsts:[ iter; res ] in
    fun w ->
      let lb = get_int w lb and ub = get_int w ub
      and step = get_int w step in
      if step <= 0 then raise (Sim_error "scf.for with non-positive step");
      run_loop w k ~lb ~ub ~step ~iv ~iter ~inits ~temps body res
  | "affine.for" ->
    let module A = Dialects.Affine_ops in
    let bound map operands =
      let m = amap map and ds = slots d operands in
      fun w ->
        match eval_map m (ints w ds) with
        | [| r |] -> r
        | _ -> raise (Sim_error "affine.for bound with multiple results")
    in
    let lb = bound (A.for_lb_map op) (A.for_lb_operands op) in
    let ub = bound (A.for_ub_map op) (A.for_ub_operands op) in
    let step = A.for_step op in
    let body_block = A.for_body op in
    let iv = in_bank bank_int (slot d (Core.block_arg body_block 0)) in
    let iter = slots d (A.for_iter_args op) in
    let inits = slots d (A.for_iter_inits op) in
    let body = decode_block d body_block and res = results () in
    let temps = temps d ~srcs:[ inits; body.yields ] ~dsts:[ iter; res ] in
    fun w ->
      let lb = lb w in
      let ub = ub w in
      run_loop w k ~lb ~ub ~step ~iv ~iter ~inits ~temps body res
  | "scf.if" ->
    let c = operand 0 in
    let then_ = decode_block d (Core.entry_block op.Core.regions.(0)) in
    let else_ =
      if Core.num_regions op > 1 then
        Some (decode_block d (Core.entry_block op.Core.regions.(1)))
      else None
    in
    let res = results () in
    let temps =
      temps d
        ~srcs:
          [ then_.yields; (match else_ with Some b -> b.yields | None -> [||]) ]
        ~dsts:[ res ]
    in
    fun w ->
      alu w k;
      if get_int w c <> 0 then begin
        run_block w then_;
        bind_yields w then_ temps res
      end
      else begin
        match else_ with
        | Some b ->
          run_block w b;
          bind_yields w b temps res
        | None -> ()
      end
  | "func.call" -> (
    match Core.attr_symbol op "callee" with
    | None -> fail (Sim_error "call without callee")
    | Some callee -> (
      match Hashtbl.find_opt d.funcs callee with
      | None -> fail (Sim_error ("call to unknown device function " ^ callee))
      | Some f ->
        let fn = decode_fn d f and args = operands_from 0 in
        let res = Array.map (in_bank bank_boxed) (results ()) in
        (* Arguments bind one by one; results are read in full, then
           bound. The callee's frame slots are shared by every call, so
           a call boxes its arguments and results. *)
        fun w ->
          let params = fn.args in
          for i = 0 to Array.length params - 1 do
            set_value w params.(i) (get_value w args.(i))
          done;
          let body = fn.body in
          run_block w body;
          let vs = Array.map (get_value w) body.yields in
          for j = 0 to Array.length vs - 1 do
            set_value w res.(j) vs.(j)
          done))
  | "gpu.barrier" | "sycl.group_barrier" ->
    (* Remember which barrier op the group converges at, so the round
       charged by the scheduler can be attributed to it. Fibers of a
       group run sequentially, so this is deterministic. *)
    d.has_barrier <- true;
    fun w ->
      w.wg.cur_barrier <- k;
      Effect.perform Barrier
  (* --- SYCL getters --- *)
  | "sycl.item.get_id" | "sycl.nd_item.get_global_id" -> query (fun w -> w.gid)
  | "sycl.nd_item.get_local_id" -> query (fun w -> w.lid)
  | "sycl.nd_item.get_group_id" -> query (fun w -> w.grp)
  | "sycl.item.get_range" | "sycl.nd_item.get_global_range" ->
    query (fun w -> w.global_range)
  | "sycl.nd_item.get_local_range" -> query (fun w -> w.local_range)
  | "sycl.item.get_linear_id" ->
    let r = int_result () in
    fun w ->
      alu w k;
      let lin = ref 0 in
      for d = 0 to Array.length w.gid - 1 do
        lin := (!lin * w.global_range.(d)) + w.gid.(d)
      done;
      set_int w r !lin
  | "sycl.id.get" | "sycl.range.get" ->
    let m = operand 0 and ds = dim_operand () and r = int_result () in
    fun w ->
      alu w k;
      let v = as_mem (get_value w m) in
      set_int w r (load_int v.Memory.base (linear1 v (getter_dim w ds)))
  | "sycl.constructor" ->
    let out = operand 0 and vals = slots d (Sycl_ops.constructor_args op) in
    fun w ->
      let out = as_mem (get_value w out) in
      for i = 0 to Array.length vals - 1 do
        alu w k;
        let v = get_int w vals.(i) in
        store_int out.Memory.base (linear1 out i) v
      done
  | "sycl.accessor.subscript" ->
    let acc = operand 0 and ids = operands_from 1 in
    let r = in_bank bank_elem (result 0) in
    (* The accessor value is copied into the reference now: a callee's
       frame slots are shared by its calls, so the accessor's own slot
       may hold another value by the time the reference is read. *)
    fun w ->
      alu w k;
      let accv = get_value w acc in
      let lin = subscript_index w (as_acc accv) ids in
      set_elem w r accv lin
  | "sycl.accessor.get_range" -> acc_query (fun a -> a.a_range)
  | "sycl.accessor.get_mem_range" -> acc_query (fun a -> a.a_mem_range)
  | "sycl.accessor.get_offset" -> acc_query (fun a -> a.a_offset)
  | "sycl.accessor.distinct" ->
    let a = operand 0 and b = operand 1 and r = int_result () in
    fun w ->
      alu w k;
      let a = as_acc (get_value w a) and b = as_acc (get_value w b) in
      set_int w r (Bool.to_int (a.a_alloc.Memory.aid <> b.a_alloc.Memory.aid))
  | name -> fail (Sim_error ("device simulator: unsupported op " ^ name))

let decode ~(module_op : Core.op) ~(kernel : Core.op) : program =
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun f -> Hashtbl.replace funcs (Core.func_sym f) f)
    (Core.funcs module_op);
  let d =
    { kinds = infer_kinds funcs kernel; value_slots = Hashtbl.create 256;
      next = Array.make 3 0; n_defined = 0; decoded = []; n_ops = 0;
      has_barrier = false; funcs; fns = Hashtbl.create 8 }
  in
  let entry = decode_fn d kernel in
  let ops = Array.of_list (List.rev d.decoded) in
  let canonical = Array.init (Array.length ops) Fun.id in
  Array.sort (fun a b -> Int.compare ops.(a).Core.oid ops.(b).Core.oid) canonical;
  { entry; ops; canonical; bank_sizes = Array.copy d.next;
    n_defined = d.n_defined; has_barrier = d.has_barrier }

(* ------------------------------------------------------------------ *)
(* Work-group and launch scheduling                                    *)
(* ------------------------------------------------------------------ *)

(* Run one work-item: bind the kernel arguments, then run the body. *)
let run_item (prog : program) (args : rv array) w =
  let ps = prog.entry.args in
  for i = 0 to Array.length ps - 1 do
    if i < Array.length args then set_value w ps.(i) args.(i)
    else raise (Sim_error "missing kernel argument")
  done;
  run_block w prog.entry.body

type fiber_status =
  | Fiber_done
  | Fiber_at_barrier of (unit, fiber_status) Effect.Deep.continuation

let fiber_handler : (unit, fiber_status) Effect.Deep.handler =
  {
    Effect.Deep.retc = (fun () -> Fiber_done);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Barrier ->
          Some
            (fun (k : (a, fiber_status) Effect.Deep.continuation) ->
              Fiber_at_barrier k)
        | _ -> None);
  }

let run_workgroup (wg : wg_ctx) (thunks : (unit -> unit) list) =
  let statuses =
    List.map (fun t -> Effect.Deep.match_with t () fiber_handler) thunks
  in
  let rec rounds statuses =
    let done_count = List.length (List.filter (fun s -> s = Fiber_done) statuses) in
    if done_count = List.length statuses then ()
    else if done_count > 0 then raise Barrier_divergence
    else begin
      if wg.cur_barrier >= 0 then count wg wg.cur_barrier f_barriers 1;
      let next =
        List.map
          (fun s ->
            match s with
            | Fiber_at_barrier k -> Effect.Deep.continue k ()
            | Fiber_done -> Fiber_done)
          statuses
      in
      rounds next
    end
  in
  rounds statuses

(* The chunk keeps per-op totals over its groups: the [n_fields]
   counters, then the cycles and memory cycles attributed to the op. *)
let f_cycles = n_fields
let f_mem_cycles = n_fields + 1
let n_totals = n_fields + 2

(* Largest-remainder apportionment of [leftover] units: [give k] once
   for each of the [leftover] ops with the largest remainders
   [rems.(k)], ties in [canonical] order; an op with remainder 0 gets
   nothing. Remainders are below [Array.length counts], a work array:
   the ops are counted per remainder value to find the cut, the
   smallest remainder that still gets units, and one pass in canonical
   order hands them out. *)
let apportion ~(canonical : int array) ~(rems : int array)
    ~(counts : int array) leftover give =
  if leftover > 0 then begin
    Array.fill counts 0 (Array.length counts) 0;
    for k = 0 to Array.length rems - 1 do
      counts.(rems.(k)) <- counts.(rems.(k)) + 1
    done;
    let cut = ref (Array.length counts - 1) and left = ref leftover in
    while !cut > 0 && counts.(!cut) < !left do
      left := !left - counts.(!cut);
      decr cut
    done;
    (* Every op above the cut gets a unit, the first [at_cut] at it. *)
    let at_cut = ref (if !cut > 0 then !left else 0) in
    for i = 0 to Array.length canonical - 1 do
      let k = canonical.(i) in
      let r = rems.(k) in
      if r > !cut then give k
      else if r = !cut && !at_cut > 0 then begin
        decr at_cut;
        give k
      end
    done
  end

(* Flush a finished work-group. Its per-op charges go into the chunk
   totals [tot] and, in the same pass, into [sums], which then hold the
   group's totals: those go into the launch statistics [s], priced by
   {!Cost.wg_cycles}. Memory transactions and barrier rounds carry exact
   per-op cycle costs; the compute quotient
   [(alu*alu_cycles + fdiv*fdiv_cycles) / subgroup_size] is divided once
   per group, so per-op shares use largest-remainder apportionment in
   canonical op (creation) order ({!apportion}, whose [give] adds the
   op's unit to [tot]) — the shares then sum exactly to the group's
   compute cycles, which makes the per-op cycles, computed apart from
   the group's, sum to [total_wg_cycles], and keeps the result
   independent of domain chunking (the apportionment uses per-group
   state only). An op with no charge adds zero everywhere. [rems] (each
   op's remainder), [counts] and [sums] are work arrays the chunk reuses
   for all its groups. *)
let flush_wg (prog : program) (s : Cost.launch_stats) (tot : int array)
    ~(rems : int array) ~(counts : int array) ~(sums : int array) ~give
    (wg : wg_ctx) (n_items : int) =
  let p = wg.params in
  let at k f = wg.counters.((k * n_fields) + f) in
  let n = Array.length prog.ops in
  let sgs = max 1 p.Cost.subgroup_size in
  Array.fill sums 0 n_fields 0;
  let base_sum = ref 0 in
  for k = 0 to n - 1 do
    let base = k * n_totals in
    for f = 0 to n_fields - 1 do
      let c = at k f in
      sums.(f) <- sums.(f) + c;
      tot.(base + f) <- tot.(base + f) + c
    done;
    let weight =
      (at k f_alu * p.Cost.alu_cycles) + (at k f_fdiv * p.Cost.fdiv_cycles)
    in
    base_sum := !base_sum + (weight / sgs);
    rems.(k) <- weight mod sgs;
    (* The op's global term uses the same hit/miss-differentiated
       formula as the group total (per-op hits + misses = per-op global
       transactions, exactly), so per-row cycles still sum to
       [total_wg_cycles] with no epsilon under any cache model. *)
    let mem_cycles =
      Cost.global_cycles p ~model:wg.cache_model ~global:(at k f_global)
        ~hits:(at k f_hits) ~misses:(at k f_misses)
      + (at k f_local * p.Cost.local_mem_cycles)
      + (at k f_const * p.Cost.const_mem_cycles)
    in
    tot.(base + f_mem_cycles) <- tot.(base + f_mem_cycles) + mem_cycles;
    tot.(base + f_cycles) <-
      tot.(base + f_cycles) + (weight / sgs) + mem_cycles
      + (at k f_barriers * p.Cost.barrier_cycles)
  done;
  let g f = sums.(f) in
  apportion ~canonical:prog.canonical ~rems ~counts
    ((((g f_alu * p.Cost.alu_cycles) + (g f_fdiv * p.Cost.fdiv_cycles)) / sgs)
    - !base_sum)
    give;
  s.Cost.global_transactions <- s.Cost.global_transactions + g f_global;
  s.Cost.local_transactions <- s.Cost.local_transactions + g f_local;
  s.Cost.const_transactions <- s.Cost.const_transactions + g f_const;
  s.Cost.alu_ops <- s.Cost.alu_ops + g f_alu;
  s.Cost.fdiv_ops <- s.Cost.fdiv_ops + g f_fdiv;
  s.Cost.barriers <- s.Cost.barriers + g f_barriers;
  s.Cost.work_groups <- s.Cost.work_groups + 1;
  s.Cost.work_items <- s.Cost.work_items + n_items;
  s.Cost.cache_hits <- s.Cost.cache_hits + g f_hits;
  s.Cost.cache_misses <- s.Cost.cache_misses + g f_misses;
  s.Cost.cache_evictions <- s.Cost.cache_evictions + g f_evictions;
  s.Cost.cache_mem_wait_cycles <-
    s.Cost.cache_mem_wait_cycles + (g f_misses * p.Cost.global_mem_cycles);
  let wg_cycles =
    Cost.wg_cycles p ~model:wg.cache_model ~hits:(g f_hits)
      ~misses:(g f_misses) ~alu:(g f_alu) ~fdiv:(g f_fdiv)
      ~global:(g f_global) ~local:(g f_local) ~const:(g f_const)
      ~barriers:(g f_barriers) ()
  in
  s.Cost.total_wg_cycles <- s.Cost.total_wg_cycles + wg_cycles;
  if wg_cycles > s.Cost.max_wg_cycles then s.Cost.max_wg_cycles <- wg_cycles

(* Flush a launch's per-op totals into [tab], one row per charging op
   (ops sharing a name and location share a row), in canonical op
   order. *)
let flush_totals (prog : program) (tot : int array) (tab : Attribution.table) =
  Array.iter
    (fun k ->
      let at f = tot.((k * n_totals) + f) in
      if
        at f_alu + at f_fdiv + at f_accesses + at f_barriers + at f_hits
        + at f_misses
        > 0
      then
        let op = prog.ops.(k) in
        Attribution.add tab ~op_name:op.Core.name ~loc:op.Core.loc
          {
            Attribution.c_alu = at f_alu;
            c_fdiv = at f_fdiv;
            c_global = at f_global;
            c_local = at f_local;
            c_const = at f_const;
            c_accesses = at f_accesses;
            c_barriers = at f_barriers;
            c_cycles = at f_cycles;
            c_mem_cycles = at f_mem_cycles;
            c_hits = at f_hits;
            c_misses = at f_misses;
            c_evictions = at f_evictions;
            c_dist_sum = at f_dist_sum;
            c_dist_count = at f_dist_count;
          })
    prog.canonical

(* ------------------------------------------------------------------ *)
(* Cross-group race detection                                          *)
(* ------------------------------------------------------------------ *)

type race = {
  r_label : string;
  r_aid : int;
  r_cell : int;
  r_group_a : int;
  r_group_b : int;
  r_loc : Loc.t;  (* source location of a store that wrote the cell *)
}

exception Race_detected of race list

let describe_race (r : race) =
  Printf.sprintf "work-groups %d and %d both write %s[%d] (allocation %d)%s"
    r.r_group_a r.r_group_b
    (if r.r_label = "" then "?" else r.r_label)
    r.r_cell r.r_aid
    (if Loc.is_known r.r_loc then " at " ^ Loc.describe r.r_loc else "")

(* Intersect per-group footprints in canonical group order: the first
   writer of each (allocation, cell) is remembered; any later writer is
   a violation of SYCL's inter-group independence. Footprint cells are
   sorted and groups are walked in order, so the report is deterministic
   whatever the execution schedule was. *)
let detect_races (fps : Memory.footprint array) : race list =
  let first_writer : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let races = ref [] in
  Array.iteri
    (fun g fp ->
      List.iter
        (fun ((aid, cell) as key) ->
          match Hashtbl.find_opt first_writer key with
          | None -> Hashtbl.replace first_writer key g
          | Some g0 ->
            (* Prefer the later writer's recorded store location; fall
               back to the first writer's footprint. *)
            let loc =
              let l = Memory.footprint_loc fp key in
              if Loc.is_known l then l
              else Memory.footprint_loc fps.(g0) key
            in
            races :=
              { r_label = Memory.footprint_label fp aid; r_aid = aid;
                r_cell = cell; r_group_a = g0; r_group_b = g; r_loc = loc }
              :: !races)
        (Memory.footprint_cells fp))
    fps;
  List.rev !races

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

(** Launch [kernel] over [global]/[wg_size]. [args.(i)] binds kernel
    argument i; the item-like argument must be bound to [Item]. Returns
    the accumulated launch statistics. Each chunk of work-groups keeps
    per-op totals and a reuse-distance histogram; they are summed in
    chunk order and, when [attribution] is given, flushed into that
    table once, so the table is byte-identical whatever the domain
    count. [metrics] receives the device execution counters, recorded
    once from the merged statistics. *)
let launch ?(config = Sim_config.default) ?metrics ?attribution ?program
    ~(module_op : Core.op) ~(kernel : Core.op) ~(args : rv array)
    ~(global : int list) ~(wg_size : int list) () : Cost.launch_stats =
  let { Sim_config.domains; check_races; cache_model } = config in
  let params = Cost.default in
  let stats = Cost.fresh_launch_stats () in
  let nd = List.length global in
  if List.length wg_size <> nd then
    raise
      (Sim_error
         (Printf.sprintf "work-group size of rank %d for a global range of rank %d"
            (List.length wg_size) nd));
  if nd < 1 || nd > 3 then
    raise (Sim_error (Printf.sprintf "ND-range of rank %d (want 1 to 3)" nd));
  let global = Array.of_list global and wg_size = Array.of_list wg_size in
  Array.iteri
    (fun d g ->
      if wg_size.(d) <= 0 || g mod wg_size.(d) <> 0 then
        raise
          (Sim_error
             (Printf.sprintf
                "global range %d not divisible by work-group size %d" g
                wg_size.(d))))
    global;
  let group_range = Array.init nd (fun d -> global.(d) / wg_size.(d)) in
  let prog =
    match program with Some p -> p | None -> decode ~module_op ~kernel
  in
  let n_ops = Array.length prog.ops in
  (* Iterate over all work-groups. *)
  let n_groups = Array.fold_left ( * ) 1 group_range in
  let items_per_group = Array.fold_left ( * ) 1 wg_size in
  let sgs = max 1 params.Cost.subgroup_size in
  let n_sub = (items_per_group + sgs - 1) / sgs in
  (* Row-major [lin] as an index of [range], into [idx]. *)
  let unflatten_into idx range lin =
    let rest = ref lin in
    for d = nd - 1 downto 0 do
      idx.(d) <- !rest mod range.(d);
      rest := !rest / range.(d)
    done
  in
  (* The local id of every local linear id, shared by all chunks. *)
  let lids =
    Array.init items_per_group (fun li ->
        let lid = Array.make nd 0 in
        unflatten_into lid wg_size li;
        lid)
  in
  let footprints =
    if check_races then
      Some (Array.init n_groups (fun _ -> Memory.footprint ()))
    else None
  in
  (* Balanced contiguous chunks of the canonical group order, one per
     domain of the shared pool; [d = 1] runs the one chunk on the
     calling domain. *)
  let d = max 1 (min domains n_groups) in
  (* Each chunk accumulates a private launch_stats and stops at its
     first failing group, as a sequential loop stops the launch. Merging
     chunk stats in chunk order and re-raising the lowest failing group's
     exception makes stats and error identity independent of the
     interleaving. *)
  let q = n_groups / d and r = n_groups mod d in
  let chunk i =
    let start = (i * q) + min i r in
    (start, start + q + if i < r then 1 else 0)
  in
  (* A chunk's work-group and work-item contexts, counters and work
     arrays are made once and reset for each of its groups (group
     results are independent, so where they accumulate only affects
     scheduling, never the merged totals). *)
  let run_chunk i =
    let s = Cost.fresh_launch_stats () in
    let tot = Array.make (n_ops * n_totals) 0 in
    let give k =
      let c = (k * n_totals) + f_cycles in
      tot.(c) <- tot.(c) + 1
    in
    let dists = { counts = [||] } in
    let wg =
      {
        params;
        footprint = None;
        locals = Hashtbl.create 4;
        counters = Array.make (n_ops * n_fields) 0;
        coalesce = Array.make (n_ops * n_sub) [||];
        n_sub;
        cache_model;
        cache =
          Option.map
            (fun c -> (c, Cache.reuse_create ()))
            (Cache.create params cache_model);
        dists;
        cur_barrier = -1;
      }
    in
    let grp = Array.make nd 0 in
    let items =
      Array.init items_per_group (fun li ->
          {
            wg;
            gid = Array.make nd 0;
            lid = lids.(li);
            grp;
            global_range = global;
            local_range = wg_size;
            (* [li] is the row-major linearization of [lid]. *)
            subgroup = li / params.Cost.subgroup_size;
            ints = Array.make prog.bank_sizes.(bank_int) 0;
            floats = Float.Array.make prog.bank_sizes.(bank_float) 0.0;
            vals = Array.make prog.bank_sizes.(bank_boxed) Unit;
            defined = Bytes.make prog.n_defined '\000';
            occ = Array.make n_ops 0;
          })
    in
    (* Only a barrier suspends a work-item. Without one, the work-items
       run to completion one after another — the order the fiber
       scheduler runs them in — as plain calls. *)
    let fibers =
      if prog.has_barrier then
        List.init items_per_group (fun li () -> run_item prog args items.(li))
      else []
    in
    let rems = Array.make n_ops 0 and counts = Array.make sgs 0
    and sums = Array.make n_fields 0 in
    (* Execute group [g]: reset the contexts to it, run its work-items,
       and flush its charges. Every group starts from an empty cache. *)
    let run_group g =
      unflatten_into grp group_range g;
      Array.fill wg.counters 0 (Array.length wg.counters) 0;
      Array.fill wg.coalesce 0 (Array.length wg.coalesce) [||];
      wg.footprint <-
        (match footprints with Some a -> Some a.(g) | None -> None);
      Hashtbl.reset wg.locals;
      (match wg.cache with
      | Some (c, reuse) ->
        Cache.reset c;
        Cache.reuse_reset reuse
      | None -> ());
      wg.cur_barrier <- -1;
      Array.iter
        (fun w ->
          for d = 0 to nd - 1 do
            w.gid.(d) <- (grp.(d) * wg_size.(d)) + w.lid.(d)
          done;
          Bytes.fill w.defined 0 (Bytes.length w.defined) '\000';
          Array.fill w.occ 0 (Array.length w.occ) 0)
        items;
      if prog.has_barrier then run_workgroup wg fibers
      else Array.iter (run_item prog args) items;
      flush_wg prog s tot ~rems ~counts ~sums ~give wg items_per_group
    in
    let failure = ref None in
    let start, stop = chunk i in
    let g = ref start in
    (try
       while !g < stop do
         run_group !g;
         incr g
       done
     with e -> failure := Some (!g, e));
    (s, tot, dists, !failure)
  in
  let results = Sycl_obs.Pool.run d run_chunk in
  (* Sum the chunks in chunk order into the first one's records. *)
  let _, tot, dists, _ = results.(0) in
  Array.iteri
    (fun i (s, t, h, _) ->
      Cost.merge_launch_stats ~into:stats s;
      if i > 0 then begin
        Array.iteri (fun j c -> tot.(j) <- tot.(j) + c) t;
        Array.iteri (fun dist n -> if n > 0 then add_dist dists dist n) h.counts
      end)
    results;
  let cached = cache_model <> Cost.Flat in
  (match attribution with
  | Some tab ->
    flush_totals prog tot tab;
    (* A launch under a cache model gives the table its cache view, even
       when it made no probe. *)
    if cached then begin
      let h = Attribution.reuse_hist tab in
      Array.iteri (fun dist n -> Sycl_obs.Metrics.hist_observe ~count:n h dist)
        dists.counts
    end
  | None -> ());
  let first_failure =
    Array.fold_left
      (fun acc (_, _, _, f) ->
        match (acc, f) with
        | None, f -> f
        | Some (g0, _), Some (g, _) when g < g0 -> f
        | acc, _ -> acc)
      None results
  in
  (match first_failure with Some (_, e) -> raise e | None -> ());
  (* Device counters are recorded once from the merged totals, so they
     are deterministic whatever the domain count; the cache counters
     only when a non-flat model ran — a flat launch leaves them out,
     keeping the metrics report byte-identical to the seed. *)
  (match metrics with
  | Some reg ->
    let incr by name = Sycl_obs.Metrics.incr reg ~by name in
    incr stats.Cost.work_groups "sim.work_groups";
    incr stats.Cost.work_items "sim.work_items";
    incr stats.Cost.barriers "sim.barriers";
    if cached then begin
      incr stats.Cost.cache_hits "sim.cache.hits";
      incr stats.Cost.cache_misses "sim.cache.misses";
      incr stats.Cost.cache_evictions "sim.cache.evictions";
      incr stats.Cost.cache_mem_wait_cycles "sim.cache.mem_wait_cycles";
      (* Exact reuse-distance histogram (p50/p90/p99 are exact
         nearest-rank because the registry keeps a value->count table). *)
      Array.iteri
        (fun dist count ->
          Sycl_obs.Metrics.observe reg ~bounds:Attribution.reuse_bounds ~count
            "sim.cache.reuse_distance" dist)
        dists.counts
    end
  | None -> ());
  (match footprints with
  | Some fps ->
    let races = detect_races fps in
    if races <> [] then raise (Race_detected races)
  | None -> ());
  stats
