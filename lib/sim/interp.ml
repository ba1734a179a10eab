(* The GPU device simulator: executes kernel IR over an ND-range with
   correct work-group semantics. The work-items of a sub-group (the cost
   model's [subgroup_size], 16) run in lockstep, one lane each, as SIMT
   hardware runs them: every op executes for the sub-group's active
   lanes, a mask. [scf.if] splits the mask between its branches, a loop
   runs until its last lane leaves, a call runs the callee under the
   caller's mask, and the lanes reconverge where a region ends — the
   simulator runs only structured control flow. In a kernel with a
   barrier, each sub-group of a work-group runs as an OCaml 5
   effect-handler fiber; a barrier reached by all its lanes suspends the
   fiber, and the scheduler resumes the group's sub-groups phase by phase
   — so the cooperative local-memory prefetch produced by loop
   internalization (Section VI-C) executes correctly — while a barrier
   reached by part of a sub-group, or by part of a group, is detected as
   the deadlock it would be on hardware. Sub-groups of a kernel without
   one run as plain calls.

   A kernel is decoded once before it runs ({!decode}): every SSA value
   of the kernel and of the device functions it calls gets a slot in one
   of three frame banks — ints, unboxed floats, boxed runtime values —
   chosen by what the value's producer writes (an accessor subscript's
   element reference takes one place in two of them), and every op a
   dense index and a closure that does its work. Frames are lane-major:
   a slot holds one value per lane side by side. An executed op is then
   one closure call that loops over the active lanes of the sub-group's
   frame — no op-name dispatch, no hashing and, for int and float values
   and element references, no allocation. This is progressive lowering
   applied to the simulator: the IR is lowered once to a typed,
   lane-major execution form.

   Charges are counted per op, in arrays indexed by the op's dense
   index: ALU cycles per executed op and lane, memory transactions per
   executed instruction, coalesced into cache lines over the lanes that
   execute it, and barrier rounds. Under a cache model each new global
   transaction probes the group's cache at once, in execution order
   ({!charge_accesses}). A work-group's totals, which the cost formula
   prices, are the sums of its per-op counters, and the same counters
   are the launch's source attribution. Private memory is treated as
   registers (no memory cost), matching mem2reg-ed GPU code. A launch's
   error is the one work-items running one after another, in local-id
   order, would give ({!leave}). *)

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
  | Item  (** the item-like argument; queries read the lanes' ids *)
  | Unit

let as_int = function
  | I i -> i
  | F f -> int_of_float f
  | _ -> raise (Sim_error "expected integer value")

(* ------------------------------------------------------------------ *)
(* Per-op counters                                                     *)
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

(* ------------------------------------------------------------------ *)
(* Lanes and execution contexts                                        *)
(* ------------------------------------------------------------------ *)

(* The work-items of a sub-group run in lockstep, one lane each: lane
   [l] of sub-group [s] is the work-item of local linear id
   [s * width + l]. A set of lanes is a mask, bit [l] for lane [l]. *)
let width = Cost.default.Cost.subgroup_size

let () =
  if width < 1 || width >= Sys.int_size then
    invalid_arg "Interp: a sub-group's lanes must fit in an int mask"

let byte_bits =
  Bytes.init 256 (fun i ->
      let rec bits i = if i = 0 then 0 else (i land 1) + bits (i lsr 1) in
      Char.chr (bits i))

(* The number of lanes in mask [m]. *)
let popcount m =
  let rec go m n =
    if m = 0 then n
    else go (m lsr 8) (n + Char.code (Bytes.unsafe_get byte_bits (m land 255)))
  in
  go m 0

(* The lowest lane of a non-empty mask. *)
let lowest_lane m =
  let rec go l = if m land (1 lsl l) <> 0 then l else go (l + 1) in
  go 0

(* A work-group's context. A chunk of work-groups makes one and resets it
   before each of its groups ({!launch}). *)
type wg_ctx = {
  params : Cost.params;
  mutable footprint : Memory.footprint option;
      (* the group's memory footprint, recorded under --sim-check-races *)
  locals : (int, Memory.allocation) Hashtbl.t;  (* gpu.alloc_local slot *)
  counters : int array;  (* per-op charges, see [n_fields] *)
  line_shift : int;  (* log2 of the line size in elements, or -1 *)
  cache_model : Cost.cache_model;
  cache : (Cache.state * Cache.reuse) option;
      (* the cache and reuse-distance tracker, emptied for each group;
         None under Flat *)
  dists : dist_hist;  (* the chunk's reuse distances *)
  mutable cur_barrier : int;
      (* index of the barrier op the group is suspended at, or -1 *)
}

(* A sub-group's context: its lanes' frame and ids. A chunk makes one
   per sub-group of a work-group and resets it for each group. *)
type sg = {
  wg : wg_ctx;
  first : int;  (* local linear id of lane 0 *)
  full : int;  (* the lanes whose work-items exist *)
  last : int;  (* the highest of them *)
  n_full : int;  (* how many there are *)
  gid : int array;  (* [d * width + l]: lane [l]'s global id in dimension [d] *)
  lid : int array;  (* the same for local ids *)
  grp : int array;
  global_range : int array;
  local_range : int array;
  (* The lanes' frame: one bank per kind of value ({!slot}), lane-major,
     and per slot the mask of the lanes that wrote it. *)
  ints : int array;
  floats : Float.Array.t;
  vals : rv array;
  defined : int array;
  mutable mask : int;  (* the lanes executing *)
  mutable alive : int;  (* the lanes that have not left the sub-group *)
  mutable lane : int;  (* the lane whose work raised *)
  mutable err : exn option;  (* the error of the lowest lane that left *)
  mutable diverged : bool;  (* a barrier was reached under a partial mask *)
  tx : int array;  (* per lane: the current access's transaction, -1 if private *)
  cell : int array;  (* per lane: the current access's cell *)
  distinct : int array;  (* work array of {!charge_accesses} *)
}

(* Ends a sub-group's barrier phase early: raised at a barrier after a
   lane left with an error or the sub-group diverged. *)
exception Stop

(* ------------------------------------------------------------------ *)
(* Frame slots                                                         *)
(* ------------------------------------------------------------------ *)

(* A slot is [index * 4 + bank]: [index] is a position in the bank's
   array — [ints], [floats] or [vals] — and the slot itself a position
   in the defined-map. Lane [l]'s copy of the slot is at
   [index * width + l] of its bank ({!at}). Ints and floats thus stay
   unboxed in the frame, and reading or writing them allocates nothing.
   Slots come from the decoder that sized the frame, so the unchecked
   accesses below stay in range; a bank-specific write is only decoded
   for a slot of that bank ({!in_bank}).

   An element reference — what [sycl.accessor.subscript] yields — takes
   position [index] of two banks: the accessor value in [vals] and the
   element's linear index in [ints]. Writing one is two stores; a reader
   that needs a runtime value gets the one-element view it stands for
   ({!lane_value}). *)
let bank_int = 0
let bank_float = 1
let bank_boxed = 2
let bank_elem = 3

let unbound_value = Sim_error "use of unbound SSA value in simulator"

let wrong_bank () =
  raise (Sim_error "device simulator: value decoded into the wrong bank")

(* Dims and strides of an element reference's one-element view (views
   are never mutated, so one array serves them all). *)
let unit_extent = [| 1 |]

let[@inline] at s l = ((s lsr 2) * width) + l

(* Lane [l] fails with [e]. *)
let lane_fail g l e =
  g.lane <- l;
  raise e

(* Lane reads of a slot the lane wrote. They convert a value from
   another bank exactly as [as_int] and [as_float] convert runtime
   values; a conversion that fails is lane [l]'s error. *)
let lane_int g s l =
  let i = at s l in
  match s land 3 with
  | 0 -> Array.unsafe_get g.ints i
  | 1 -> int_of_float (Float.Array.unsafe_get g.floats i)
  | _ -> (
    match Array.unsafe_get g.vals i with
    | I n -> n
    | F f -> int_of_float f
    | _ -> lane_fail g l (Sim_error "expected integer value"))

let[@inline] lane_float g s l =
  let i = at s l in
  match s land 3 with
  | 0 -> float_of_int (Array.unsafe_get g.ints i)
  | 1 -> Float.Array.unsafe_get g.floats i
  | _ -> (
    match Array.unsafe_get g.vals i with
    | F f -> f
    | I n -> float_of_int n
    | _ -> lane_fail g l (Sim_error "expected float value"))

let[@inline] lane_acc g l v =
  match v with Acc a -> a | _ -> lane_fail g l (Sim_error "expected accessor value")

(* A slot as a runtime value: an int or a float gets boxed, an element
   reference becomes its one-element view. *)
let lane_value g s l =
  let i = at s l in
  match s land 3 with
  | 0 -> I (Array.unsafe_get g.ints i)
  | 1 -> F (Float.Array.unsafe_get g.floats i)
  | 2 -> Array.unsafe_get g.vals i
  | _ ->
    Mem
      {
        Memory.base = (lane_acc g l (Array.unsafe_get g.vals i)).a_alloc;
        offset = Array.unsafe_get g.ints i;
        dims = unit_extent;
        strides = unit_extent;
      }

let lane_mem g s l =
  match lane_value g s l with
  | Mem v -> v
  | _ -> lane_fail g l (Sim_error "expected memref value")

(* Lanes [m] have written slot [s]. A result is marked before its lanes
   compute it: a lane that raises on the way leaves the sub-group, so
   its bit is never read. *)
let[@inline] mark g s m =
  Array.unsafe_set g.defined s (Array.unsafe_get g.defined s lor m)

(* The lanes of [m] that wrote every slot of [ss]. *)
let[@inline] defined_in g (ss : int array) m =
  let d = ref m in
  for i = 0 to Array.length ss - 1 do
    d := !d land Array.unsafe_get g.defined (Array.unsafe_get ss i)
  done;
  !d

(* Lane [l] must have written slot [s]. *)
let[@inline] need g s l =
  if Array.unsafe_get g.defined s land (1 lsl l) = 0 then lane_fail g l unbound_value

(* Lane [l] leaves the sub-group with error [e], and with it every lane
   above it; the lanes below run on to the end of the phase. Only lanes
   below every earlier failure still run, so [e] is the error of the
   lowest lane that failed. An error no executing lane claimed is the
   lowest executing lane's. *)
let leave g l e =
  let m = g.mask in
  let l = if m = 0 || m land (1 lsl l) <> 0 then l else lowest_lane m in
  g.err <- Some e;
  let below = (1 lsl l) - 1 in
  g.alive <- g.alive land below;
  g.mask <- g.mask land below

(* Op [run] is to execute for lanes [m], of which only [ok] wrote all
   its operands: the lanes below the lowest other one execute it, then
   that lane fails with an unbound value. *)
let unbound_split g m ok (run : sg -> unit) =
  let l = lowest_lane (m land lnot ok) in
  let below = m land ((1 lsl l) - 1) in
  if below <> 0 then begin
    g.mask <- below;
    run g;
    g.mask <- m
  end;
  lane_fail g l unbound_value

(* [f g m] for the executing lanes [m], where [f] only writes frame
   slots of those lanes, so it may be redone: a lane that fails leaves
   and [f] is redone for the lanes left. An error [f] raises for all
   lanes at once is the lowest lane's. Returns [f]'s result, or 0 when
   no lane is left. *)
let rec guarded g (f : sg -> int -> int) =
  let m = g.mask in
  if m = 0 then 0
  else begin
    g.lane <- lowest_lane m;
    match f g m with
    | r -> r
    | exception e ->
      if e == Stop then raise e;
      leave g g.lane e;
      guarded g f
  end

(* Copy lane [l] of slot [src] into slot [dst]. Decoding puts [dst] in
   [src]'s bank or in the boxed one (kinds only join upwards), so a
   value moves as is or gets boxed.

   A float read is let-bound before it is passed on, here and below:
   passed straight to another inlined function, it would be boxed. *)
let copy_lane g src dst l =
  need g src l;
  let d = at dst l in
  match dst land 3 with
  | 0 -> Array.unsafe_set g.ints d (lane_int g src l)
  | 1 ->
    let x = lane_float g src l in
    Float.Array.unsafe_set g.floats d x
  | 2 -> Array.unsafe_set g.vals d (lane_value g src l)
  | _ ->
    if src land 3 <> bank_elem then begin
      g.lane <- l;
      wrong_bank ()
    end;
    let s = at src l in
    Array.unsafe_set g.vals d (Array.unsafe_get g.vals s);
    Array.unsafe_set g.ints d (Array.unsafe_get g.ints s)

let copy_lanes g src dst m =
  mark g dst m;
  for l = 0 to g.last do
    if m land (1 lsl l) <> 0 then copy_lane g src dst l
  done

let[@inline] count (g : wg_ctx) k f by =
  let i = (k * n_fields) + f in
  Array.unsafe_set g.counters i (Array.unsafe_get g.counters i + by)

(* The number of lanes in [m], a mask of [g]'s. *)
let[@inline] lanes_in g m = if m = g.full then g.n_full else popcount m

(* Every charge is counted against the charging op only, once per op
   for all its lanes: the group's totals, which the cost formula prices,
   are the sums of its per-op counters ({!flush_wg}). *)
let[@inline] alu g k m = count g.wg k f_alu (lanes_in g m)

(* ------------------------------------------------------------------ *)
(* Device memory                                                       *)
(* ------------------------------------------------------------------ *)

(* Cells in {!Memory.allocation}'s unboxed layout, accessed here rather
   than through [Memory.get_float] and friends: a float returned by a
   function that is not inlined is boxed, and the library is compiled
   without cross-module inlining. Indices are checked by {!access}. *)
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

(* One coalesced transaction (allocation, cache line, latency class —
   0 global, 1 local, 2 constant-cached) packed into an int: lines stay
   below 2^32 and classes below 4, so the packing is injective for any
   allocation id a process can mint. *)
let transaction ~aid ~line ~cls = (aid lsl 34) lor (cls lsl 32) lor line

(* The cache line of cell [lin] (non-negative). *)
let[@inline] line_of wg lin =
  if wg.line_shift >= 0 then lin lsr wg.line_shift
  else lin / wg.params.Cost.cache_line_elems

(* The transaction of an access to cell [lin] of [a], or -1 for private
   memory, which is treated as registers. *)
let[@inline] tx_of wg (a : Memory.allocation) lin =
  match a.Memory.space with
  | Types.Private -> -1
  | Types.Local -> transaction ~aid:a.Memory.aid ~line:(line_of wg lin) ~cls:1
  | Types.Global ->
    transaction ~aid:a.Memory.aid ~line:(line_of wg lin)
      ~cls:(if a.Memory.constant_cached then 2 else 0)

(* Lane [l] accesses cell [lin] of [a]: the index is checked, and the
   cell and its transaction are kept for {!charge_accesses}. *)
let[@inline] access g l (a : Memory.allocation) lin =
  if lin < 0 || lin >= Bytes.length a.Memory.tags then begin
    g.lane <- l;
    ignore (Memory.check a lin)
  end;
  Array.unsafe_set g.tx l (tx_of g.wg a lin);
  Array.unsafe_set g.cell l lin

(* [Memory.linear_index view [| i |]]. *)
let linear1 (view : Memory.view) i =
  let a = view.Memory.base in
  if Array.length view.Memory.strides < 1 then Memory.rank_mismatch a;
  Memory.check a (view.Memory.offset + (i * view.Memory.strides.(0)))

(* ------------------------------------------------------------------ *)
(* Coalescing and cache probes                                         *)
(* ------------------------------------------------------------------ *)

(* A new coalesced transaction [t] of op [k]: counted in its class and,
   a global one under a cache model, probed at once. *)
let new_transaction wg k t =
  let cls = (t lsr 32) land 3 in
  count wg k (f_global + cls) 1;
  match wg.cache with
  | Some (cache, reuse) when cls = 0 ->
    let aid = t lsr 34 and line = t land 0xFFFF_FFFF in
    let { Cache.o_hit; o_evicted } = Cache.access cache ~aid ~line in
    count wg k (if o_hit then f_hits else f_misses) 1;
    if o_evicted then count wg k f_evictions 1;
    let d = Cache.reuse_access reuse ~aid ~line in
    if d >= 0 then begin
      count wg k f_dist_sum d;
      count wg k f_dist_count 1;
      add_dist wg.dists d 1
    end
  | _ -> ()

(* Charge op [k]'s accesses by lanes [m], whose cells and transactions
   are in [cell] and [tx]. A private access costs an ALU op. The others
   coalesce per executed instruction: the transactions counted are the
   distinct ones among the lanes that execute the op, new in ascending
   lane order. *)
let charge_accesses g k m =
  let wg = g.wg and tx = g.tx in
  let dist = g.distinct and n = ref 0 and priv = ref 0 in
  for l = 0 to g.last do
    if m land (1 lsl l) <> 0 then begin
      let t = Array.unsafe_get tx l in
      if t < 0 then incr priv
      else begin
        let j = ref (!n - 1) in
        while !j >= 0 && Array.unsafe_get dist !j <> t do
          decr j
        done;
        if !j < 0 then begin
          Array.unsafe_set dist !n t;
          incr n;
          new_transaction wg k t
        end
      end
    end
  done;
  if !priv > 0 then count wg k f_alu !priv;
  let shared = lanes_in g m - !priv in
  if shared > 0 then count wg k f_accesses shared

(* A barrier phase of the group ended: close its race record. *)
let end_phase wg = Option.iter Memory.footprint_end_phase wg.footprint

(* Under race checking: lanes [m] of op [name] at [loc] accessed the
   cells in [cell] of the allocations slot [mem] refers to. *)
let note g m mem ~name ~loc ~write =
  match g.wg.footprint with
  | None -> ()
  | Some fp ->
    for l = 0 to g.last do
      if m land (1 lsl l) <> 0 then
        let a =
          if mem land 3 = bank_elem then
            (lane_acc g l (Array.unsafe_get g.vals (at mem l))).a_alloc
          else (lane_mem g mem l).Memory.base
        in
        Memory.footprint_access fp ~item:(g.first + l) ~op:name ~loc ~write a
          g.cell.(l)
    done

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
        raise_to (Dialects.Loop.iv o) Kint;
        let inits = Array.of_list (Dialects.Loop.iter_inits o) in
        let yields = block (Dialects.Loop.body o) in
        let iter = Array.of_list (Dialects.Loop.iter_args o) in
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

(* An op's code executes it for the sub-group's executing lanes
   ([mask]). *)
type code = sg -> unit

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
  races : bool;  (* whether memory ops record into the race footprint *)
}

type decoder = {
  kinds : (int, kind) Hashtbl.t;  (* value id -> kind, {!infer_kinds} *)
  value_slots : (int, int) Hashtbl.t;  (* value id -> frame slot *)
  next : int array;  (* next free index, by bank *)
  mutable n_defined : int;
  mutable decoded : Core.op list;  (* by op index, newest first *)
  mutable n_ops : int;
  mutable has_barrier : bool;
  races : bool;
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

(* Temporaries for values moving in parallel: position [j] of every slot
   array in [srcs] and [dsts] passes through temporary [j], so every
   value can be read before any is written. The temporary is in the join
   of the banks position [j] touches — or an element reference when its
   destinations are: then every source that is ever written is one, and
   the others, in the boxed bank, raise when read. *)
let temps d ~srcs ~dsts =
  let all = srcs @ dsts in
  let n = List.fold_left (fun n a -> max n (Array.length a)) 0 all in
  Array.init n (fun j ->
      let bank_at a = if j < Array.length a then a.(j) land 3 else -1 in
      let bank =
        if List.exists (fun a -> bank_at a = bank_elem) dsts then bank_elem
        else
          List.fold_left
            (fun b a ->
              let b' = bank_at a in
              if b' < 0 then b else if b < 0 || b = b' then b' else bank_boxed)
            (-1) all
      in
      fresh_slot d (if bank < 0 then bank_boxed else bank))

(* Run ops [i..] for the executing lanes. An op that raises for a lane
   makes that lane and those above it leave ({!leave}); the lanes below
   have completed the op and go on with the next one. *)
let rec run_ops g (ops : code array) i =
  let i = ref i in
  match
    while !i < Array.length ops && g.mask <> 0 do
      (Array.unsafe_get ops !i) g;
      incr i
    done
  with
  | () -> ()
  | exception e ->
    if e == Stop then raise e;
    leave g g.lane e;
    run_ops g ops (!i + 1)

let run_block g (b : block_code) = run_ops g b.ops 0

(* Each lane's [Memory.linear_index] of the indices held in slots [idx]
   into a view of [a] at [offset] with [strides], without building the
   view or the index array; the access is checked and kept
   ({!access}). *)
let lane_linear g l (a : Memory.allocation) offset (strides : int array)
    (idx : int array) =
  if Array.length idx > Array.length strides then begin
    g.lane <- l;
    Memory.rank_mismatch a
  end;
  let lin = ref offset in
  for j = 0 to Array.length idx - 1 do
    lin := !lin + (lane_int g (Array.unsafe_get idx j) l * Array.unsafe_get strides j)
  done;
  access g l a !lin

(* Lane [l]'s access to cell [m[idx]], an element reference [m] read
   where it lies ([elem_address]) or any other value as a view
   ([view_address]); returns the allocation, the cell is in [cell]. *)
let elem_address g m idx l =
  let i = at m l in
  let a = (lane_acc g l (Array.unsafe_get g.vals i)).a_alloc in
  lane_linear g l a (Array.unsafe_get g.ints i) unit_extent idx;
  a

let view_address g m idx l =
  let v = lane_mem g m l in
  let a = v.Memory.base in
  lane_linear g l a v.Memory.offset v.Memory.strides idx;
  a

(* How a memory op finds each lane's cell: most go through an element
   reference and one index in the int bank — both given as bank offsets
   ({!at}) — and are addressed in place; any other form through a
   function of the lane. *)
type addressing =
  | Elem1 of int * int
  | Lanewise of (sg -> int -> Memory.allocation)

let[@inline] address g (how : addressing) l =
  match how with
  | Elem1 (mb, ib) ->
    let a = (lane_acc g l (Array.unsafe_get g.vals (mb + l))).a_alloc in
    access g l a (Array.unsafe_get g.ints (mb + l) + Array.unsafe_get g.ints (ib + l));
    a
  | Lanewise f -> f g l

(* An affine map ready to evaluate into an array. A map whose arity does
   not match its operands goes through [Map.eval], which rejects it. *)
type amap = { map : Affine_expr.Map.t; exprs : Affine_expr.t array }

let amap (m : Affine_expr.Map.t) = { map = m; exprs = Array.of_list m.Affine_expr.Map.exprs }

let eval_map (a : amap) dims =
  if Array.length dims = a.map.Affine_expr.Map.num_dims
     && a.map.Affine_expr.Map.num_syms = 0
  then Array.map (fun e -> Affine_expr.eval dims [||] e) a.exprs
  else Array.of_list (Affine_expr.Map.eval a.map ~dims ~syms:[||])

(* Lane [l]'s values of slots [ss]. *)
let lane_ints g (ss : int array) l = Array.map (fun s -> lane_int g s l) ss

(* Lane [l]'s map [m] over the values of slots [ss]; an error is the
   lane's. *)
let lane_map g m ss l =
  g.lane <- l;
  eval_map m (lane_ints g ss l)

(* Lane [l]'s result of a one-result map, with [what]'s message for a
   map of several. *)
let lane_map1 g m ss l what =
  match lane_map g m ss l with
  | [| x |] -> x
  | _ -> raise (Sim_error (what ^ " with multiple results"))

(* The dimension operand of a getter: -1 reads dimension 0. *)
let lane_dim g ds l = if ds < 0 then 0 else lane_int g ds l

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

(* Lane [l]'s linear index of element [acc[ids]]. Every index is read,
   in operand order, before the rank is checked. *)
let subscript_index g (acc : acc_desc) (ids : int array) l =
  let lin = ref 0 and n_ids = ref (Array.length ids) in
  if Array.length ids = 1 && ids.(0) land 3 <> bank_int then begin
    match lane_value g ids.(0) l with
    | I i -> lin := horner acc 0 0 i
    | Mem v ->
      (* An id struct in private memory: one cell per dimension. *)
      n_ids := Array.length acc.a_range;
      g.lane <- l;
      for d = 0 to !n_ids - 1 do
        lin := horner acc !lin d (load_int v.Memory.base (linear1 v d))
      done
    | _ -> lane_fail g l (Sim_error "bad subscript index")
  end
  else
    (* Direct form: one index operand per dimension. *)
    for d = 0 to Array.length ids - 1 do
      lin := horner acc !lin d (lane_int g ids.(d) l)
    done;
  let range = acc.a_mem_range in
  if !n_ids > Array.length range then
    lane_fail g l (Sim_error "subscript with more indices than accessor dimensions");
  for d = !n_ids to Array.length range - 1 do
    lin := !lin * range.(d)
  done;
  !lin

(* An op that raises [e] when it executes: the error of its lowest
   executing lane. *)
let fail e : code = fun g -> lane_fail g (lowest_lane g.mask) e

(* scf.for / affine.for once each executing lane's bounds are in slots
   [cur] (its next induction value), [ub] and [step], and [active] holds
   the lanes with an iteration to run: the lanes iterate together until
   the last one leaves, every active lane charged one ALU op per
   iteration; the iteration arguments are rebound from what the body
   yielded. Carried values pass through [temps], so a yield is the
   parallel move it is in the IR. *)
let run_loop g k ~active ~cur ~ub ~step ~iv ~(iter : int array)
    ~(inits : int array) ~temps ~enter ~rebind ~carry (body : block_code)
    (res : int array) =
  let m = g.mask in
  ignore (guarded g enter);
  let ints = g.ints and cb = at cur 0 and ub = at ub 0 and sb = at step 0
  and ib = at iv 0 in
  let active = ref (active land g.mask) and iterated = ref 0 in
  let carried = ref (Array.length inits) in
  while !active <> 0 do
    let a = !active in
    alu g k a;
    mark g iv a;
    for l = 0 to g.last do
      if a land (1 lsl l) <> 0 then
        Array.unsafe_set ints (ib + l) (Array.unsafe_get ints (cb + l))
    done;
    g.mask <- a;
    if !carried <> Array.length iter then
      ignore
        (guarded g (fun _ _ ->
             raise
               (Sim_error
                  (Printf.sprintf "loop carries %d values into %d iteration arguments"
                     !carried (Array.length iter)))));
    ignore (guarded g rebind);
    let a = g.mask in
    iterated := !iterated lor a;
    run_block g body;
    ignore (guarded g carry);
    carried := Array.length body.yields;
    let a = g.mask in
    let next = ref 0 in
    for l = 0 to g.last do
      if a land (1 lsl l) <> 0 then begin
        let i = Array.unsafe_get ints (cb + l) + Array.unsafe_get ints (sb + l) in
        Array.unsafe_set ints (cb + l) i;
        if i < Array.unsafe_get ints (ub + l) then next := !next lor (1 lsl l)
      end
    done;
    active := !next
  done;
  g.mask <- m land g.alive;
  (* A lane that iterated carries what the body yielded, one that did
     not its initial values. *)
  let results n g m =
    for j = 0 to n - 1 do
      copy_lanes g temps.(j) res.(j) m
    done
  in
  ignore
    (guarded g (fun g m ->
         results !carried g (m land !iterated);
         results (Array.length inits) g (m land lnot !iterated);
         0))

(* Copy slots [srcs] into [dsts] position by position, for {!guarded}. *)
let copy_all (srcs : int array) (dsts : int array) g m =
  for j = 0 to Array.length srcs - 1 do
    copy_lanes g srcs.(j) dsts.(j) m
  done;
  0

(* Move what block [b] yielded into [res] through [temps]: every yielded
   value is read before any result is written. For {!guarded}. *)
let bind_yields (b : block_code) temps res =
  let held = Array.sub temps 0 (Array.length b.yields) in
  fun g m ->
    ignore (copy_all b.yields temps g m);
    copy_all held res g m

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
  let with_dim ds ss = if ds < 0 then ss else Array.append ss [| ds |] in
  (* The op for every executing lane: once every lane wrote [reads]
     ({!unbound_split} otherwise), [r] is marked, each lane charged
     counter [charge] (-1: none), and [lane g l] does lane [l]'s work. *)
  let lanewise ?(charge = -1) reads r (lane : sg -> int -> unit) : code =
    let rec run g =
      let m = g.mask in
      let ok = defined_in g reads m in
      if ok <> m then unbound_split g m ok run
      else begin
        if charge >= 0 then count g.wg k charge (lanes_in g m);
        if r >= 0 then mark g r m;
        for l = 0 to g.last do
          if m land (1 lsl l) <> 0 then lane g l
        done
      end
    in
    run
  in
  (* The arithmetic most executed ops are: on operands in the result's
     bank, each op has its own loop over the lanes, so no lane makes a
     call and floats stay unboxed. [f] is the op on other operands. *)
  let int2 ?(charge = f_alu) ?fast f =
    let a = operand 0 and b = operand 1 and r = int_result () in
    let ab = at a 0 and bb = at b 0 and rb = at r 0 in
    match fast with
    | Some op when a land 3 = bank_int && b land 3 = bank_int ->
      let rec run g =
        let m = g.mask in
        let ok = defined_in g [| a; b |] m in
        if ok <> m then unbound_split g m ok run
        else begin
          alu g k m;
          mark g r m;
          let ints = g.ints in
          match op with
          | `Add ->
            for l = 0 to g.last do
              if m land (1 lsl l) <> 0 then
                Array.unsafe_set ints (rb + l)
                  (Array.unsafe_get ints (ab + l) + Array.unsafe_get ints (bb + l))
            done
          | `Sub ->
            for l = 0 to g.last do
              if m land (1 lsl l) <> 0 then
                Array.unsafe_set ints (rb + l)
                  (Array.unsafe_get ints (ab + l) - Array.unsafe_get ints (bb + l))
            done
          | `Mul ->
            for l = 0 to g.last do
              if m land (1 lsl l) <> 0 then
                Array.unsafe_set ints (rb + l)
                  (Array.unsafe_get ints (ab + l) * Array.unsafe_get ints (bb + l))
            done
        end
      in
      run
    | _ ->
      lanewise ~charge [| a; b |] r (fun g l ->
          let y = lane_int g b l in
          let x = lane_int g a l in
          g.lane <- l;
          Array.unsafe_set g.ints (rb + l) (f x y))
  in
  let float2 ?(charge = f_alu) op =
    let a = operand 0 and b = operand 1 and r = float_result () in
    let ab = at a 0 and bb = at b 0 and rb = at r 0 in
    match op with
    | (`Add | `Sub | `Mul | `Div) as op
      when a land 3 = bank_float && b land 3 = bank_float ->
      let rec run g =
        let m = g.mask in
        let ok = defined_in g [| a; b |] m in
        if ok <> m then unbound_split g m ok run
        else begin
          count g.wg k charge (lanes_in g m);
          mark g r m;
          let fl = g.floats in
          match op with
          | `Add ->
            for l = 0 to g.last do
              if m land (1 lsl l) <> 0 then
                Float.Array.unsafe_set fl (rb + l)
                  (Float.Array.unsafe_get fl (ab + l) +. Float.Array.unsafe_get fl (bb + l))
            done
          | `Sub ->
            for l = 0 to g.last do
              if m land (1 lsl l) <> 0 then
                Float.Array.unsafe_set fl (rb + l)
                  (Float.Array.unsafe_get fl (ab + l) -. Float.Array.unsafe_get fl (bb + l))
            done
          | `Mul ->
            for l = 0 to g.last do
              if m land (1 lsl l) <> 0 then
                Float.Array.unsafe_set fl (rb + l)
                  (Float.Array.unsafe_get fl (ab + l) *. Float.Array.unsafe_get fl (bb + l))
            done
          | `Div ->
            for l = 0 to g.last do
              if m land (1 lsl l) <> 0 then
                Float.Array.unsafe_set fl (rb + l)
                  (Float.Array.unsafe_get fl (ab + l) /. Float.Array.unsafe_get fl (bb + l))
            done
        end
      in
      run
    | op ->
      lanewise ~charge [| a; b |] r (fun g l ->
          let y = lane_float g b l in
          let x = lane_float g a l in
          let z =
            match op with
            | `Add -> x +. y
            | `Sub -> x -. y
            | `Mul -> x *. y
            | `Div -> x /. y
            | `Min -> Float.min x y
            | `Max -> Float.max x y
          in
          Float.Array.unsafe_set g.floats (rb + l) z)
  in
  (* A unary op from a float to a float. *)
  let float1 ?(charge = f_alu) op =
    let a = operand 0 and r = float_result () in
    lanewise ~charge [| a |] r (fun g l ->
        let x = lane_float g a l in
        let y =
          match op with
          | `Neg -> -.x
          | `Abs -> Float.abs x
          | `Sqrt -> Float.sqrt x
          | `Exp -> Float.exp x
        in
        Float.Array.unsafe_set g.floats (at r l) y)
  in
  (* A query of a dimension of [ids g]: lane [l]'s value of dimension
     [d] is at [d * width + l] ([per_lane]) or at [d]. *)
  let query ~per_lane ids =
    let ds = dim_operand () and r = int_result () in
    lanewise ~charge:f_alu (with_dim ds [||]) r (fun g l ->
        let d = lane_dim g ds l in
        if d < 0 || d >= Array.length g.grp then
          lane_fail g l (Invalid_argument "index out of bounds");
        let ids = ids g in
        Array.unsafe_set g.ints (at r l)
          (if per_lane then ids.((d * width) + l) else ids.(d)))
  in
  let acc_query f =
    let a = operand 0 and ds = dim_operand () and r = int_result () in
    lanewise ~charge:f_alu (with_dim ds [| a |]) r (fun g l ->
        let arr = f (lane_acc g l (lane_value g a l)) in
        let d = lane_dim g ds l in
        g.lane <- l;
        Array.unsafe_set g.ints (at r l) arr.(d))
  in
  (* A memory op through slot [mem]: under race checking it records its
     lanes' accesses after it ran. *)
  let noted mem ~write (code : code) : code =
    if not d.races then code
    else
      let name = op.Core.name and loc = op.Core.loc in
      fun g ->
        let m = g.mask in
        code g;
        note g m mem ~name ~loc ~write
  in
  (* A load addressed [how] into [r], which reads [reads]. *)
  let load reads how r =
    let rb = at r 0 in
    let float = r land 3 = bank_float in
    let rec run g =
      let m = g.mask in
      let ok = defined_in g reads m in
      if ok <> m then unbound_split g m ok run
      else begin
        mark g r m;
        if float then
          for l = 0 to g.last do
            if m land (1 lsl l) <> 0 then begin
              let a = address g how l in
              let x = load_float a (Array.unsafe_get g.cell l) in
              Float.Array.unsafe_set g.floats (rb + l) x
            end
          done
        else
          for l = 0 to g.last do
            if m land (1 lsl l) <> 0 then begin
              let a = address g how l in
              Array.unsafe_set g.ints (rb + l) (load_int a (Array.unsafe_get g.cell l))
            end
          done;
        charge_accesses g k m
      end
    in
    run
  in
  (* A store of slot [v] addressed [how], which reads [reads]. *)
  let store v reads how =
    let vb = at v 0 in
    let rec run g =
      let m = g.mask in
      let ok = defined_in g reads m in
      if ok <> m then unbound_split g m ok run
      else begin
        for l = 0 to g.last do
          if m land (1 lsl l) <> 0 then begin
            let a = address g how l in
            let lin = Array.unsafe_get g.cell l in
            match v land 3 with
            | 0 -> store_int a lin (Array.unsafe_get g.ints (vb + l))
            | 1 -> store_float a lin (Float.Array.unsafe_get g.floats (vb + l))
            | _ -> (
              match Array.unsafe_get g.vals (vb + l) with
              | I n -> store_int a lin n
              | F f -> store_float a lin f
              | _ -> lane_fail g l (Sim_error "cannot store non-scalar value"))
          end
        done;
        charge_accesses g k m
      end
    in
    run
  in
  let memref_address m idx =
    if m land 3 = bank_elem then
      if Array.length idx = 1 && idx.(0) land 3 = bank_int then
        Elem1 (at m 0, at idx.(0) 0)
      else Lanewise (fun g l -> elem_address g m idx l)
    else Lanewise (fun g l -> view_address g m idx l)
  in
  let affine_address m mem dims =
    Lanewise
      (fun g l ->
        let view = lane_mem g mem l in
        let lin = Memory.linear_index view (lane_map g m dims l) in
        access g l view.Memory.base lin;
        view.Memory.base)
  in
  (* The part of scf.for and affine.for after their lanes' bounds: the
     loop of {!run_loop}, its carried values moved through temporaries. *)
  let loop bounds =
    let inits = slots d (Dialects.Loop.iter_inits op) in
    let iter = slots d (Dialects.Loop.iter_args op) in
    let iv = in_bank bank_int (slot d (Dialects.Loop.iv op)) in
    let body = decode_block d (Dialects.Loop.body op) and res = results () in
    let temps = temps d ~srcs:[ inits; body.yields ] ~dsts:[ iter; res ] in
    let cur = fresh_slot d bank_int and ub = fresh_slot d bank_int
    and step = fresh_slot d bank_int in
    let bounds = bounds ~cur ~ub ~step in
    let enter = copy_all inits temps and carry = copy_all body.yields temps
    and rebind = copy_all (Array.sub temps 0 (Array.length iter)) iter in
    fun g ->
      let active = guarded g bounds in
      run_loop g k ~active ~cur ~ub ~step ~iv ~iter ~inits ~temps ~enter ~rebind
        ~carry body res
  in
  match op.Core.name with
  | "arith.constant" -> (
    let int_constant i =
      let r = int_result () in
      let rb = at r 0 in
      fun g ->
        let m = g.mask in
        mark g r m;
        for l = 0 to g.last do
          if m land (1 lsl l) <> 0 then Array.unsafe_set g.ints (rb + l) i
        done
    in
    match Core.attr op "value" with
    | Some (Attr.Int i) -> int_constant i
    | Some (Attr.Float f) ->
      let r = float_result () in
      let rb = at r 0 in
      fun g ->
        let m = g.mask in
        mark g r m;
        for l = 0 to g.last do
          if m land (1 lsl l) <> 0 then Float.Array.unsafe_set g.floats (rb + l) f
        done
    | Some (Attr.Bool b) -> int_constant (Bool.to_int b)
    | _ -> fail (Sim_error "arith.constant without numeric value"))
  | "arith.addi" -> int2 ~fast:`Add ( + )
  | "arith.subi" -> int2 ~fast:`Sub ( - )
  | "arith.muli" -> int2 ~fast:`Mul ( * )
  | "arith.divsi" -> int2 ~charge:f_fdiv ( / )
  | "arith.remsi" -> int2 ~charge:f_fdiv ( mod )
  | "arith.andi" -> int2 ( land )
  | "arith.ori" -> int2 ( lor )
  | "arith.xori" -> int2 ( lxor )
  | "arith.minsi" -> int2 Int.min
  | "arith.maxsi" -> int2 Int.max
  | "arith.addf" -> float2 `Add
  | "arith.subf" -> float2 `Sub
  | "arith.mulf" -> float2 `Mul
  | "arith.divf" -> float2 ~charge:f_fdiv `Div
  | "arith.minimumf" -> float2 `Min
  | "arith.maximumf" -> float2 `Max
  | "arith.negf" -> float1 `Neg
  | "arith.cmpi" -> (
    match Dialects.Arith.icmp_predicate op with
    | Some p -> int2 (fun x y -> Bool.to_int (Dialects.Arith.eval_icmp p x y))
    | None -> fail (Sim_error "cmpi without predicate"))
  | "arith.cmpf" -> (
    match
      Option.bind (Core.attr_string op "predicate")
        Dialects.Arith.fcmp_pred_of_string
    with
    | Some p ->
      let a = operand 0 and b = operand 1 and r = int_result () in
      lanewise ~charge:f_alu [| a; b |] r (fun g l ->
          let y = lane_float g b l in
          let x = lane_float g a l in
          Array.unsafe_set g.ints (at r l) (Bool.to_int (fcmp p x y)))
    | None -> fail (Sim_error "cmpf without predicate"))
  | "arith.select" ->
    (* Only the chosen operand must have been written. *)
    let c = operand 0 and t = operand 1 and e = operand 2 and r = result 0 in
    lanewise ~charge:f_alu [| c |] r (fun g l ->
        copy_lane g (if lane_int g c l <> 0 then t else e) r l)
  | "arith.index_cast" ->
    let a = operand 0 and r = int_result () in
    lanewise [| a |] r (fun g l -> Array.unsafe_set g.ints (at r l) (lane_int g a l))
  | "arith.sitofp" ->
    let a = operand 0 and r = float_result () in
    lanewise ~charge:f_alu [| a |] r (fun g l ->
        Float.Array.unsafe_set g.floats (at r l) (float_of_int (lane_int g a l)))
  | "arith.fptosi" ->
    let a = operand 0 and r = int_result () in
    lanewise ~charge:f_alu [| a |] r (fun g l ->
        let x = lane_float g a l in
        Array.unsafe_set g.ints (at r l) (int_of_float x))
  | "math.sqrt" -> float1 ~charge:f_fdiv `Sqrt
  | "math.exp" -> float1 ~charge:f_fdiv `Exp
  | "math.absf" -> float1 `Abs
  | "memref.alloca" | "memref.alloc" ->
    let ty = (Core.result op 0).Core.vty in
    let size, dims = alloc_size_of_type ty in
    let space =
      match ty with Types.Memref { space; _ } -> space | _ -> Types.Private
    in
    let r = boxed_result () in
    lanewise [||] r (fun g l ->
        let a = Memory.alloc ~label:"device-alloc" ~space ~size () in
        Array.unsafe_set g.vals (at r l) (Mem (Memory.full_view ~dims a)))
  | "gpu.alloc_local" ->
    let local_slot = Option.value ~default:0 (Core.attr_int op "slot") in
    let label = Printf.sprintf "wg-local#%d" local_slot in
    let size, dims = alloc_size_of_type (Core.result op 0).Core.vty in
    let r = boxed_result () in
    lanewise [||] r (fun g l ->
        let a =
          match Hashtbl.find g.wg.locals local_slot with
          | a -> a
          | exception Not_found ->
            let a = Memory.alloc ~label ~space:Types.Local ~size () in
            Hashtbl.replace g.wg.locals local_slot a;
            a
        in
        Array.unsafe_set g.vals (at r l) (Mem (Memory.full_view ~dims a)))
  | "memref.load" ->
    let m = operand 0 and idx = operands_from 1 in
    let r = match result_kind op with Kfloat -> float_result () | _ -> int_result () in
    noted m ~write:false
      (load (Array.append [| m |] idx) (memref_address m idx) r)
  | "memref.store" ->
    let v = operand 0 and m = operand 1 and idx = operands_from 2 in
    noted m ~write:true
      (store v (Array.append [| v; m |] idx) (memref_address m idx))
  | "memref.dim" ->
    let m = operand 0 and i = operand 1 and r = int_result () in
    lanewise [| m; i |] r (fun g l ->
        let view = lane_mem g m l in
        let d = lane_int g i l in
        g.lane <- l;
        Array.unsafe_set g.ints (at r l) view.Memory.dims.(d))
  | "memref.dealloc" -> fun _ -> ()
  | "affine.apply" ->
    let m = amap (Dialects.Affine_ops.access_map op) in
    let dims = operands_from 0 and r = int_result () in
    lanewise ~charge:f_alu dims r (fun g l ->
        Array.unsafe_set g.ints (at r l) (lane_map1 g m dims l "affine.apply"))
  | "affine.load" ->
    let m = amap (Dialects.Affine_ops.access_map op) in
    let mem = operand 0 and dims = operands_from 1 in
    let r = match result_kind op with Kfloat -> float_result () | _ -> int_result () in
    noted mem ~write:false
      (load (Array.append [| mem |] dims) (affine_address m mem dims) r)
  | "affine.store" ->
    let m = amap (Dialects.Affine_ops.access_map op) in
    let v = operand 0 and mem = operand 1 and dims = operands_from 2 in
    noted mem ~write:true
      (store v (Array.append [| v; mem |] dims) (affine_address m mem dims))
  | "scf.for" ->
    let lb = operand 0 and ub = operand 1 and step = operand 2 in
    loop (fun ~cur ~ub:ubs ~step:steps g m ->
        let active = ref 0 in
        for l = 0 to g.last do
          if m land (1 lsl l) <> 0 then begin
            need g lb l;
            let lbv = lane_int g lb l in
            need g ub l;
            let ubv = lane_int g ub l in
            need g step l;
            let stepv = lane_int g step l in
            if stepv <= 0 then lane_fail g l (Sim_error "scf.for with non-positive step");
            Array.unsafe_set g.ints (at cur l) lbv;
            Array.unsafe_set g.ints (at ubs l) ubv;
            Array.unsafe_set g.ints (at steps l) stepv;
            if lbv < ubv then active := !active lor (1 lsl l)
          end
        done;
        !active)
  | "affine.for" ->
    let module A = Dialects.Affine_ops in
    let lbm = amap (A.for_lb_map op) and lbs = slots d (A.for_lb_operands op) in
    let ubm = amap (A.for_ub_map op) and ubs = slots d (A.for_ub_operands op) in
    let step = A.for_step op in
    loop (fun ~cur ~ub ~step:steps g m ->
        let active = ref 0 in
        let bound map ss l =
          Array.iter (fun s -> need g s l) ss;
          lane_map1 g map ss l "affine.for bound"
        in
        for l = 0 to g.last do
          if m land (1 lsl l) <> 0 then begin
            let lbv = bound lbm lbs l in
            let ubv = bound ubm ubs l in
            Array.unsafe_set g.ints (at cur l) lbv;
            Array.unsafe_set g.ints (at ub l) ubv;
            Array.unsafe_set g.ints (at steps l) step;
            if lbv < ubv then active := !active lor (1 lsl l)
          end
        done;
        !active)
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
    let taken g m =
      let t = ref 0 in
      for l = 0 to g.last do
        if m land (1 lsl l) <> 0 then begin
          need g c l;
          if lane_int g c l <> 0 then t := !t lor (1 lsl l)
        end
      done;
      !t
    in
    (* Run branch [b] for lanes [m], then bind what it yielded. *)
    let branch b =
      let bind = bind_yields b temps res in
      fun g m ->
        if m <> 0 then begin
          g.mask <- m;
          run_block g b;
          ignore (guarded g bind)
        end
    in
    let then_ = branch then_ and else_ = Option.map branch else_ in
    fun g ->
      let t = guarded g taken in
      let m = g.mask in
      alu g k m;
      then_ g t;
      (match else_ with Some run -> run g (m land lnot t land g.alive) | None -> ());
      g.mask <- m land g.alive
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
           a call boxes its arguments and results. The callee runs under
           the caller's mask. *)
        let bind_args g m =
          let params = fn.args in
          for l = 0 to g.last do
            if m land (1 lsl l) <> 0 then
              for i = 0 to Array.length params - 1 do
                need g args.(i) l;
                Array.unsafe_set g.vals (at params.(i) l) (lane_value g args.(i) l)
              done
          done;
          Array.iter (fun p -> mark g p m) params;
          0
        in
        let bind_results g m =
          for l = 0 to g.last do
            if m land (1 lsl l) <> 0 then begin
              let vs =
                Array.map
                  (fun y ->
                    need g y l;
                    lane_value g y l)
                  fn.body.yields
              in
              Array.iteri (fun j v -> Array.unsafe_set g.vals (at res.(j) l) v) vs
            end
          done;
          Array.iter (fun r -> mark g r m) res;
          0
        in
        fun g ->
          let m = g.mask in
          ignore (guarded g bind_args);
          run_block g fn.body;
          ignore (guarded g bind_results);
          g.mask <- m land g.alive))
  | "gpu.barrier" | "sycl.group_barrier" ->
    (* A barrier suspends the sub-group when all its lanes reach it. One
       reached by part of them is a divergent barrier: those lanes stop
       here, the others run on to the end of the phase. After a lane
       left with an error, or once the sub-group diverged, a barrier
       ends the phase. Remember which barrier op the group converges
       at, so the round charged by the scheduler can be attributed to
       it. Sub-groups of a group run one at a time, so this is
       deterministic. *)
    d.has_barrier <- true;
    fun g ->
      let m = g.mask in
      if Option.is_some g.err || g.diverged then raise Stop
      else if m <> g.full then begin
        g.diverged <- true;
        g.alive <- g.alive land lnot m;
        g.mask <- 0
      end
      else begin
        g.wg.cur_barrier <- k;
        Effect.perform Barrier
      end
  (* --- SYCL getters --- *)
  | "sycl.item.get_id" | "sycl.nd_item.get_global_id" ->
    query ~per_lane:true (fun g -> g.gid)
  | "sycl.nd_item.get_local_id" -> query ~per_lane:true (fun g -> g.lid)
  | "sycl.nd_item.get_group_id" -> query ~per_lane:false (fun g -> g.grp)
  | "sycl.item.get_range" | "sycl.nd_item.get_global_range" ->
    query ~per_lane:false (fun g -> g.global_range)
  | "sycl.nd_item.get_local_range" -> query ~per_lane:false (fun g -> g.local_range)
  | "sycl.item.get_linear_id" ->
    let r = int_result () in
    lanewise ~charge:f_alu [||] r (fun g l ->
        let lin = ref 0 in
        for d = 0 to Array.length g.grp - 1 do
          lin := (!lin * g.global_range.(d)) + g.gid.((d * width) + l)
        done;
        Array.unsafe_set g.ints (at r l) !lin)
  | "sycl.id.get" | "sycl.range.get" ->
    let m = operand 0 and ds = dim_operand () and r = int_result () in
    lanewise ~charge:f_alu (with_dim ds [| m |]) r (fun g l ->
        let v = lane_mem g m l in
        let d = lane_dim g ds l in
        g.lane <- l;
        Array.unsafe_set g.ints (at r l) (load_int v.Memory.base (linear1 v d)))
  | "sycl.constructor" ->
    let out = operand 0 and vals = slots d (Sycl_ops.constructor_args op) in
    lanewise (Array.append [| out |] vals) (-1) (fun g l ->
        let out = lane_mem g out l in
        Array.iteri
          (fun i v ->
            count g.wg k f_alu 1;
            let v = lane_int g v l in
            g.lane <- l;
            store_int out.Memory.base (linear1 out i) v)
          vals)
  | "sycl.accessor.subscript" ->
    let acc = operand 0 and ids = operands_from 1 in
    let r = in_bank bank_elem (result 0) in
    let rb = at r 0 and ab = at acc 0 in
    (* The accessor value is copied into the reference now: a callee's
       frame slots are shared by its calls, so the accessor's own slot
       may hold another value by the time the reference is read. The
       common subscript — of a boxed accessor by indices in the int bank
       — reads them in place, and writes the accessor only when it
       changed: the lanes hold the same accessor from one execution to
       the next. *)
    if acc land 3 = bank_boxed && Array.for_all (fun s -> s land 3 = bank_int) ids
    then
      let idb = Array.map (fun s -> at s 0) ids and reads = Array.append [| acc |] ids in
      let rec run g =
        let m = g.mask in
        let ok = defined_in g reads m in
        if ok <> m then unbound_split g m ok run
        else begin
          alu g k m;
          mark g r m;
          let ints = g.ints and vals = g.vals in
          for l = 0 to g.last do
            if m land (1 lsl l) <> 0 then begin
              let accv = Array.unsafe_get vals (ab + l) in
              let a = lane_acc g l accv in
              let lin = ref 0 in
              for d = 0 to Array.length idb - 1 do
                lin := horner a !lin d (Array.unsafe_get ints (Array.unsafe_get idb d + l))
              done;
              let range = a.a_mem_range in
              if Array.length idb > Array.length range then
                lane_fail g l
                  (Sim_error "subscript with more indices than accessor dimensions");
              for d = Array.length idb to Array.length range - 1 do
                lin := !lin * range.(d)
              done;
              if Array.unsafe_get vals (rb + l) != accv then
                Array.unsafe_set vals (rb + l) accv;
              Array.unsafe_set ints (rb + l) !lin
            end
          done
        end
      in
      run
    else
      lanewise ~charge:f_alu (Array.append [| acc |] ids) r (fun g l ->
          let accv = lane_value g acc l in
          let lin = subscript_index g (lane_acc g l accv) ids l in
          Array.unsafe_set g.vals (rb + l) accv;
          Array.unsafe_set g.ints (rb + l) lin)
  | "sycl.accessor.get_range" -> acc_query (fun a -> a.a_range)
  | "sycl.accessor.get_mem_range" -> acc_query (fun a -> a.a_mem_range)
  | "sycl.accessor.get_offset" -> acc_query (fun a -> a.a_offset)
  | "sycl.accessor.distinct" ->
    let a = operand 0 and b = operand 1 and r = int_result () in
    lanewise ~charge:f_alu [| a; b |] r (fun g l ->
        let x = lane_acc g l (lane_value g a l) in
        let y = lane_acc g l (lane_value g b l) in
        Array.unsafe_set g.ints (at r l)
          (Bool.to_int (x.a_alloc.Memory.aid <> y.a_alloc.Memory.aid)))
  | name -> fail (Sim_error ("device simulator: unsupported op " ^ name))

let decode_with ~check_races ~(module_op : Core.op) ~(kernel : Core.op) :
    program =
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun f -> Hashtbl.replace funcs (Core.func_sym f) f)
    (Core.funcs module_op);
  let d =
    { kinds = infer_kinds funcs kernel; value_slots = Hashtbl.create 256;
      next = Array.make 3 0; n_defined = 0; decoded = []; n_ops = 0;
      has_barrier = false; races = check_races; funcs; fns = Hashtbl.create 8 }
  in
  let entry = decode_fn d kernel in
  let ops = Array.of_list (List.rev d.decoded) in
  let canonical = Array.init (Array.length ops) Fun.id in
  Array.sort (fun a b -> Int.compare ops.(a).Core.oid ops.(b).Core.oid) canonical;
  { entry; ops; canonical; bank_sizes = Array.copy d.next;
    n_defined = d.n_defined; has_barrier = d.has_barrier; races = check_races }

let decode ~module_op ~kernel = decode_with ~check_races:false ~module_op ~kernel

(* ------------------------------------------------------------------ *)
(* Work-group and launch scheduling                                    *)
(* ------------------------------------------------------------------ *)

(* Run a sub-group to the end of the kernel: bind the kernel arguments
   in every lane, then run the body. A barrier that ends a phase early
   ({!Stop}) ends the run; an error is left in [err]. *)
let run_subgroup (prog : program) (args : rv array) g =
  let ps = prog.entry.args in
  match
    for i = 0 to Array.length ps - 1 do
      if i >= Array.length args then raise (Sim_error "missing kernel argument");
      let v = args.(i) and pb = at ps.(i) 0 in
      for l = 0 to g.last do
        if Array.unsafe_get g.vals (pb + l) != v then Array.unsafe_set g.vals (pb + l) v
      done;
      mark g ps.(i) g.full
    done
  with
  | exception e -> leave g 0 e
  | () -> ( try run_block g prog.entry.body with Stop -> ())

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

(* A sub-group's phase is over: a lane's error ends the group's run
   here, as sub-groups run in order. *)
let check_failed g = match g.err with Some e -> raise e | None -> ()

(* Run a work-group's sub-groups in order. In a kernel with a barrier,
   each is a fiber that a barrier reached by all its lanes suspends; the
   group's barrier phase ends when every sub-group is at a barrier, and
   a phase that ends with part of the group done, or with a barrier
   reached under a partial mask, is a divergent barrier. *)
let run_workgroup (prog : program) args (wg : wg_ctx) (sgs : sg array)
    (status : fiber_status array) =
  if not prog.has_barrier then
    Array.iter
      (fun g ->
        run_subgroup prog args g;
        check_failed g)
      sgs
  else begin
    Array.iteri
      (fun s g ->
        status.(s) <-
          Effect.Deep.match_with (fun () -> run_subgroup prog args g) () fiber_handler;
        check_failed g)
      sgs;
    let rec rounds () =
      let n_done =
        Array.fold_left
          (fun n st -> match st with Fiber_done -> n + 1 | Fiber_at_barrier _ -> n)
          0 status
      in
      if Array.exists (fun g -> g.diverged) sgs then raise Barrier_divergence;
      if n_done < Array.length status then begin
        if n_done > 0 then raise Barrier_divergence;
        if wg.cur_barrier >= 0 then count wg wg.cur_barrier f_barriers 1;
        end_phase wg;
        Array.iteri
          (fun s g ->
            (match status.(s) with
            | Fiber_at_barrier k -> status.(s) <- Effect.Deep.continue k ()
            | Fiber_done -> ());
            check_failed g)
          sgs;
        rounds ()
      end
    in
    rounds ()
  end;
  end_phase wg

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
(* Race detection                                                      *)
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

type intra_race = { ir_group : int; ir_conflict : Memory.conflict }

exception Intra_group_race of intra_race list

let describe_intra_race (r : intra_race) =
  let c = r.ir_conflict in
  let touch (t : Memory.touch) =
    Printf.sprintf "%s %s%s" t.Memory.t_op
      (if t.Memory.t_write then "(write)" else "(read)")
      (if Loc.is_known t.Memory.t_loc then " at " ^ Loc.describe t.Memory.t_loc
       else "")
  in
  Printf.sprintf
    "work-group %d: work-items %d and %d both access %s %s[%d] in one barrier \
     phase: %s, %s"
    r.ir_group c.Memory.c_first.Memory.t_item c.Memory.c_second.Memory.t_item
    (match c.Memory.c_space with Types.Local -> "local" | _ -> "global")
    (if c.Memory.c_label = "" then "?" else c.Memory.c_label)
    c.Memory.c_cell (touch c.Memory.c_first) (touch c.Memory.c_second)

let intra_race_report races =
  let n = List.length races and shown = 10 in
  let b = Buffer.create 256 in
  Printf.bprintf b
    "RACE: %d cell(s) accessed by two work-items of one work-group between \
     barriers\n"
    n;
  List.iteri
    (fun i r -> if i < shown then Printf.bprintf b "  %s\n" (describe_intra_race r))
    races;
  if n > shown then Printf.bprintf b "  ... and %d more\n" (n - shown);
  Buffer.contents b

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
    match program with
    | Some (p : program) when p.races = check_races -> p
    | _ -> decode_with ~check_races ~module_op ~kernel
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
  (* Cache lines are found by a shift when their size is a power of
     two. *)
  let line_shift =
    let e = params.Cost.cache_line_elems in
    let rec log2 n i = if n = 1 then i else log2 (n lsr 1) (i + 1) in
    if e > 0 && e land (e - 1) = 0 then log2 e 0 else -1
  in
  (* A chunk's work-group and sub-group contexts, counters and work
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
    let cache =
      Option.map
        (fun c -> (c, Cache.reuse_create ()))
        (Cache.create params cache_model)
    in
    let wg =
      {
        params;
        footprint = None;
        locals = Hashtbl.create 4;
        counters = Array.make (n_ops * n_fields) 0;
        line_shift;
        cache_model;
        cache;
        dists = { counts = [||] };
        cur_barrier = -1;
      }
    in
    let grp = Array.make nd 0 in
    let subgroups =
      Array.init n_sub (fun index ->
          let first = index * width in
          let lanes = min width (items_per_group - first) in
          {
            wg;
            first;
            full = (1 lsl lanes) - 1;
            last = lanes - 1;
            n_full = lanes;
            gid = Array.make (nd * width) 0;
            lid =
              Array.init (nd * width) (fun j ->
                  let l = j mod width in
                  if l < lanes then lids.(first + l).(j / width) else 0);
            grp;
            global_range = global;
            local_range = wg_size;
            ints = Array.make (prog.bank_sizes.(bank_int) * width) 0;
            floats = Float.Array.make (prog.bank_sizes.(bank_float) * width) 0.0;
            vals = Array.make (prog.bank_sizes.(bank_boxed) * width) Unit;
            defined = Array.make prog.n_defined 0;
            mask = 0;
            alive = 0;
            lane = 0;
            err = None;
            diverged = false;
            tx = Array.make width 0;
            cell = Array.make width 0;
            distinct = Array.make width 0;
          })
    in
    let status = Array.make n_sub Fiber_done in
    let rems = Array.make n_ops 0 and counts = Array.make sgs 0
    and sums = Array.make n_fields 0 in
    (* Execute group [g]: reset the contexts to it, run its sub-groups,
       and flush its charges. Every group starts from an empty cache. *)
    let run_group g =
      unflatten_into grp group_range g;
      Array.fill wg.counters 0 (Array.length wg.counters) 0;
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
        (fun sg ->
          for d = 0 to nd - 1 do
            let base = grp.(d) * wg_size.(d) in
            for l = 0 to sg.last do
              let j = (d * width) + l in
              sg.gid.(j) <- base + sg.lid.(j)
            done
          done;
          Array.fill sg.defined 0 (Array.length sg.defined) 0;
          sg.mask <- sg.full;
          sg.alive <- sg.full;
          sg.err <- None;
          sg.diverged <- false)
        subgroups;
      run_workgroup prog args wg subgroups status;
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
    (s, tot, wg.dists, !failure)
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
    let intra =
      List.concat
        (List.mapi
           (fun g fp ->
             List.map
               (fun c -> { ir_group = g; ir_conflict = c })
               (Memory.footprint_conflicts fp))
           (Array.to_list fps))
    in
    let races = detect_races fps in
    if races <> [] then raise (Race_detected races);
    if intra <> [] then raise (Intra_group_race intra)
  | None -> ());
  stats
