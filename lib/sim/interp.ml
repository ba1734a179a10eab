(* The GPU device simulator: executes kernel IR over an ND-range with
   correct work-group semantics. Work-items of a work-group run as OCaml 5
   effect-handler fibers; a group barrier suspends the fiber, and the
   scheduler resumes all fibers of the group phase by phase — so the
   cooperative local-memory prefetch produced by loop internalization
   (Section VI-C) executes correctly, and a barrier in a divergent region
   is detected as the deadlock it would be on hardware.

   A kernel is decoded once before it runs ({!decode}): every SSA value
   of the kernel and of the device functions it calls gets a dense frame
   slot, and every op a dense index and a closure that does its work. An
   executed op is then one closure call that reads and writes the
   work-item's frame array — no op-name dispatch and no hashing per
   executed op. This is progressive lowering applied to the simulator:
   the IR is lowered once to an execution form.

   Costs are accumulated per work-group: ALU cycles per executed op,
   memory transactions per (instruction, occurrence, sub-group) with
   cache-line coalescing, and barrier costs. The same charges are kept
   per op, in arrays indexed by the op's dense index, for source
   attribution. Private memory is treated as registers (no memory cost),
   matching mem2reg-ed GPU code. *)

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

type wg_ctx = {
  params : Cost.params;
  footprint : Memory.footprint option;
      (* per-group global-write footprint, recorded under --sim-check-races *)
  locals : (int, Memory.allocation) Hashtbl.t;  (* gpu.alloc_local slot *)
  counters : int array;  (* per-op charges, see [n_fields] *)
  coalesce : int list array array;
      (* [op index * n_sub + sub-group] -> for each occurrence of the op
         in a work-item, the distinct transactions ({!transaction}) the
         sub-group's accesses made *)
  n_sub : int;  (* sub-groups per work-group *)
  cache_model : Cost.cache_model;
  cache : Cache.state option;  (* per-group cache; None under Flat *)
  reuse : Cache.reuse option;  (* per-group reuse-distance tracker *)
  cache_tab : Cache.table option;  (* per-op cache counter sink *)
  mutable cur_barrier : int;
      (* index of the barrier op the group is suspended at, or -1 *)
  mutable wg_alu : int;
  mutable wg_fdiv : int;
  mutable wg_barriers : int;
  mutable wg_global : int;
  mutable wg_local : int;
  mutable wg_const : int;
  mutable wg_hits : int;
  mutable wg_misses : int;
  mutable wg_evictions : int;
}

type wi_ctx = {
  wg : wg_ctx;
  gid : int array;
  lid : int array;
  grp : int array;
  global_range : int array;
  local_range : int array;
  subgroup : int;
  slots : rv array;  (* the work-item's frame: one slot per SSA value *)
  occ : int array;  (* per op index: accesses the op made so far *)
}

(* Frames start filled with [unbound]; reading it is a use of a value
   that was never defined. It is compared physically, so no runtime
   value can be taken for it. *)
let unbound = F (Sys.opaque_identity Float.nan)

let get w s =
  let v = Array.unsafe_get w.slots s in
  if v == unbound then raise (Sim_error "use of unbound SSA value in simulator")
  else v

(* Slots come from the decoder that sized the frame, so they are in
   range. *)
let set w s v = Array.unsafe_set w.slots s v

let count (g : wg_ctx) k f by =
  let i = (k * n_fields) + f in
  g.counters.(i) <- g.counters.(i) + by

(* Every charge names the charging op so attribution can account it to
   the op's source location; the per-wg aggregate counters stay the
   single source of truth for the cost formula. *)
let alu w k =
  let g = w.wg in
  g.wg_alu <- g.wg_alu + 1;
  count g k f_alu 1

let fdiv w k =
  let g = w.wg in
  g.wg_fdiv <- g.wg_fdiv + 1;
  count g k f_fdiv 1

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

let record_access w k (view : Memory.view) lin =
  let a = view.Memory.base in
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
      (match cls with
      | 0 ->
        g.wg_global <- g.wg_global + 1;
        count g k f_global 1
      | 1 ->
        g.wg_local <- g.wg_local + 1;
        count g k f_local 1
      | _ ->
        g.wg_const <- g.wg_const + 1;
        count g k f_const 1);
      (* Probe the cache exactly once per NEW coalesced global
         transaction, so hits + misses = global_transactions holds by
         construction. Fibers of a group run sequentially in canonical
         order, so the probe sequence is deterministic and domain-count
         independent. *)
      match g.cache with
      | Some cache when cls = 0 -> (
        let { Cache.o_hit; o_evicted } =
          Cache.access cache ~aid:a.Memory.aid ~line
        in
        if o_hit then begin
          g.wg_hits <- g.wg_hits + 1;
          count g k f_hits 1
        end
        else begin
          g.wg_misses <- g.wg_misses + 1;
          count g k f_misses 1
        end;
        if o_evicted then begin
          g.wg_evictions <- g.wg_evictions + 1;
          count g k f_evictions 1
        end;
        match g.reuse with
        | Some r -> (
          let d = Cache.reuse_access r ~aid:a.Memory.aid ~line in
          Option.iter (fun t -> Cache.observe_distance t d) g.cache_tab;
          match d with
          | Some d ->
            count g k f_dist_sum d;
            count g k f_dist_count 1
          | None -> ())
        | None -> ())
      | _ -> ()
    end

(* A store's charge, its entry in the group's write footprint (tagged
   with the storing op's source location, so a race report can name the
   culprit store — only global-space writes are kept, see
   {!Memory.footprint_write}) and the write itself. *)
let store w k loc (view : Memory.view) lin value =
  record_access w k view lin;
  (match w.wg.footprint with
  | Some fp -> Memory.footprint_write ~loc fp view lin
  | None -> ());
  view.Memory.base.Memory.data.(lin) <-
    (match value with
    | F f -> Memory.F f
    | I i -> Memory.I i
    | _ -> raise (Sim_error "cannot store non-scalar value"))

let load ~is_float (view : Memory.view) lin =
  match view.Memory.base.Memory.data.(lin) with
  | Memory.F f -> if is_float then F f else I (int_of_float f)
  | Memory.I i -> if is_float then F (float_of_int i) else I i

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
  n_slots : int;
}

type decoder = {
  value_slots : (int, int) Hashtbl.t;  (* value id -> frame slot *)
  mutable decoded : Core.op list;  (* by op index, newest first *)
  mutable n_ops : int;
  funcs : (string, Core.op) Hashtbl.t;  (* device functions by symbol *)
  fns : (int, fn) Hashtbl.t;  (* decoded functions by body block id *)
}

let slot d (v : Core.value) =
  match Hashtbl.find_opt d.value_slots v.Core.vid with
  | Some s -> s
  | None ->
    let s = Hashtbl.length d.value_slots in
    Hashtbl.replace d.value_slots v.Core.vid s;
    s

let slots d vs = Array.of_list (List.map (slot d) vs)

let run_block w (b : block_code) =
  let ops = b.ops in
  for i = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops i) w
  done

let read w (ss : int array) =
  let n = Array.length ss in
  if n = 0 then [||]
  else begin
    let a = Array.make n unbound in
    for i = 0 to n - 1 do
      a.(i) <- get w ss.(i)
    done;
    a
  end

let ints w (ss : int array) =
  let a = Array.make (Array.length ss) 0 in
  for i = 0 to Array.length ss - 1 do
    a.(i) <- as_int (get w ss.(i))
  done;
  a

(* [Memory.linear_index] of the indices held in slots [idx], without
   building the index array. *)
let linear w (view : Memory.view) (idx : int array) =
  let strides = view.Memory.strides in
  if Array.length idx > Array.length strides then Memory.rank_mismatch view;
  let lin = ref view.Memory.offset in
  for k = 0 to Array.length idx - 1 do
    lin := !lin + (as_int (get w idx.(k)) * strides.(k))
  done;
  Memory.check view !lin

(* Run a region's block and return what it yields. *)
let branch w (b : block_code) =
  run_block w b;
  read w b.yields

(* Bind an op's results to the values its region yielded. *)
let bind_results w (res : int array) (vs : rv array) =
  Array.iteri (fun i v -> set w res.(i) v) vs

(* scf.for / affine.for after their bounds are known: one ALU charge
   per iteration, the iteration arguments rebound from what the body
   yielded. *)
let run_loop w k ~lb ~ub ~step ~iv ~(iter : int array) inits body res =
  let cur = ref inits and i = ref lb in
  while !i < ub do
    alu w k;
    set w iv (I !i);
    let vs = !cur in
    if Array.length vs <> Array.length iter then
      raise
        (Sim_error
           (Printf.sprintf "loop carries %d values into %d iteration arguments"
              (Array.length vs) (Array.length iter)));
    for j = 0 to Array.length iter - 1 do
      set w iter.(j) vs.(j)
    done;
    cur := branch w body;
    i := !i + step
  done;
  bind_results w res !cur

(* An affine map ready to evaluate into an array. A map whose arity does
   not match its operands goes through [Map.eval], which rejects it. *)
type amap = { map : Affine_expr.Map.t; exprs : Affine_expr.t array }

let amap (m : Affine_expr.Map.t) = { map = m; exprs = Array.of_list m.Affine_expr.Map.exprs }

let eval_map (a : amap) dims =
  if Array.length dims = a.map.Affine_expr.Map.num_dims
     && a.map.Affine_expr.Map.num_syms = 0
  then Array.map (fun e -> Affine_expr.eval dims [||] e) a.exprs
  else Array.of_list (Affine_expr.Map.eval a.map ~dims ~syms:[||])

let getter_dim w ds = if ds < 0 then 0 else as_int (get w ds)

(* Dims and strides of every subscript's one-element view (views are
   never mutated, so one array serves them all). *)
let unit_extent = [| 1 |]

let subscript_view w acc_s (ids : int array) =
  let acc = as_acc (get w acc_s) in
  let ids =
    if Array.length ids = 1 then
      match get w ids.(0) with
      | I i -> [| i |]
      | Mem v ->
        (* An id struct in private memory: one cell per dimension. *)
        Array.init (Array.length acc.a_range) (fun d ->
            Memory.cell_to_int (Memory.read v [| d |]))
      | _ -> raise (Sim_error "bad subscript index")
    else
      (* Direct form: one index operand per dimension. *)
      ints w ids
  in
  (* Linearize against the *memory* range with the accessor offset,
     innermost dimension first. *)
  let range = acc.a_mem_range and offset = acc.a_offset in
  let n = Array.length range in
  if Array.length ids > n then
    raise (Sim_error "subscript with more indices than accessor dimensions");
  let lin = ref 0 and stride = ref 1 in
  for d = n - 1 downto 0 do
    if d < Array.length ids then begin
      let off = if d < Array.length offset then offset.(d) else 0 in
      lin := !lin + ((ids.(d) + off) * !stride)
    end;
    stride := !stride * range.(d)
  done;
  {
    Memory.base = acc.a_alloc;
    Memory.offset = !lin;
    Memory.dims = unit_extent;
    Memory.strides = unit_extent;
  }

let fail e : code = fun _ -> raise e

let rec decode_block d (b : Core.block) : block_code =
  let rec go acc = function
    | [] -> { ops = Array.of_list (List.rev acc); yields = [||] }
    | op :: rest -> (
      match op.Core.name with
      | "scf.yield" | "affine.yield" | "func.return" ->
        {
          ops = Array.of_list (List.rev acc);
          yields = Array.map (slot d) op.Core.operands;
        }
      | _ -> go (decode_op d op :: acc) rest)
  in
  go [] b.Core.body

and decode_fn d (f : Core.op) : fn =
  let body = Core.func_body f in
  match Hashtbl.find_opt d.fns body.Core.bid with
  | Some fn -> fn
  | None ->
    let fn =
      { args = Array.map (slot d) body.Core.bargs; body = { ops = [||]; yields = [||] } }
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

and op_code d k (op : Core.op) : code =
  let operand i = slot d (Core.operand op i) in
  let operands_from i =
    Array.map (slot d) (Array.sub op.Core.operands i (Core.num_operands op - i))
  in
  let result i = slot d (Core.result op i) in
  let results () = Array.map (slot d) op.Core.results in
  (* The optional dimension operand of a getter; -1 reads dimension 0. *)
  let dim_operand () = if Core.num_operands op >= 2 then operand 1 else -1 in
  let int2 charge f =
    let a = operand 0 and b = operand 1 and r = result 0 in
    fun w ->
      charge w k;
      set w r (I (f (as_int (get w a)) (as_int (get w b))))
  in
  let float2 charge f =
    let a = operand 0 and b = operand 1 and r = result 0 in
    fun w ->
      charge w k;
      set w r (F (f (as_float (get w a)) (as_float (get w b))))
  in
  let unary charge f =
    let a = operand 0 and r = result 0 in
    fun w ->
      charge w k;
      set w r (f (get w a))
  in
  let query f =
    let ds = dim_operand () and r = result 0 in
    fun w ->
      alu w k;
      set w r (I (f w).(getter_dim w ds))
  in
  let acc_query f =
    let a = operand 0 and ds = dim_operand () and r = result 0 in
    fun w ->
      alu w k;
      set w r (I (f (as_acc (get w a))).(getter_dim w ds))
  in
  match op.Core.name with
  | "arith.constant" -> (
    let const v =
      let r = result 0 in
      fun w -> set w r v
    in
    match Core.attr op "value" with
    | Some (Attr.Int i) -> const (I i)
    | Some (Attr.Float f) -> const (F f)
    | Some (Attr.Bool b) -> const (I (Bool.to_int b))
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
  | "arith.addf" -> float2 alu ( +. )
  | "arith.subf" -> float2 alu ( -. )
  | "arith.mulf" -> float2 alu ( *. )
  | "arith.divf" -> float2 fdiv ( /. )
  | "arith.minimumf" -> float2 alu Float.min
  | "arith.maximumf" -> float2 alu Float.max
  | "arith.negf" -> unary alu (fun x -> F (-.as_float x))
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
      let a = operand 0 and b = operand 1 and r = result 0 in
      fun w ->
        alu w k;
        set w r
          (I
             (Bool.to_int
                (Dialects.Arith.eval_fcmp p (as_float (get w a))
                   (as_float (get w b)))))
    | None -> fail (Sim_error "cmpf without predicate"))
  | "arith.select" ->
    let c = operand 0 and t = operand 1 and e = operand 2 and r = result 0 in
    fun w ->
      alu w k;
      set w r (if as_int (get w c) <> 0 then get w t else get w e)
  | "arith.index_cast" -> unary (fun _ _ -> ()) (fun x -> I (as_int x))
  | "arith.sitofp" -> unary alu (fun x -> F (float_of_int (as_int x)))
  | "arith.fptosi" -> unary alu (fun x -> I (int_of_float (as_float x)))
  | "math.sqrt" -> unary fdiv (fun x -> F (Float.sqrt (as_float x)))
  | "math.exp" -> unary fdiv (fun x -> F (Float.exp (as_float x)))
  | "math.absf" -> unary alu (fun x -> F (Float.abs (as_float x)))
  | "memref.alloca" | "memref.alloc" ->
    let ty = (Core.result op 0).Core.vty in
    let size, dims = alloc_size_of_type ty in
    let space =
      match ty with Types.Memref { space; _ } -> space | _ -> Types.Private
    in
    let r = result 0 in
    fun w ->
      let a = Memory.alloc ~label:"device-alloc" ~space ~size () in
      set w r (Mem (Memory.full_view ~dims a))
  | "gpu.alloc_local" ->
    let local_slot = Option.value ~default:0 (Core.attr_int op "slot") in
    let size, dims = alloc_size_of_type (Core.result op 0).Core.vty in
    let r = result 0 in
    fun w ->
      let a =
        match Hashtbl.find_opt w.wg.locals local_slot with
        | Some a -> a
        | None ->
          let a = Memory.alloc ~label:"wg-local" ~space:Types.Local ~size () in
          Hashtbl.replace w.wg.locals local_slot a;
          a
      in
      set w r (Mem (Memory.full_view ~dims a))
  | "memref.load" ->
    let m = operand 0 and idx = operands_from 1 and r = result 0 in
    let is_float = element_is_float (Core.operand op 0).Core.vty in
    fun w ->
      let view = as_mem (get w m) in
      let lin = linear w view idx in
      record_access w k view lin;
      set w r (load ~is_float view lin)
  | "memref.store" ->
    let v = operand 0 and m = operand 1 and idx = operands_from 2 in
    let loc = op.Core.loc in
    fun w ->
      let value = get w v in
      let view = as_mem (get w m) in
      store w k loc view (linear w view idx) value
  | "memref.dim" ->
    let m = operand 0 and i = operand 1 and r = result 0 in
    fun w ->
      let view = as_mem (get w m) in
      let d = as_int (get w i) in
      set w r (I view.Memory.dims.(d))
  | "memref.dealloc" -> fun _ -> ()
  | "affine.apply" ->
    let m = amap (Dialects.Affine_ops.access_map op) in
    let dims = operands_from 0 and r = result 0 in
    fun w ->
      alu w k;
      (match eval_map m (ints w dims) with
      | [| x |] -> set w r (I x)
      | _ -> raise (Sim_error "affine.apply with multiple results"))
  | "affine.load" ->
    let m = amap (Dialects.Affine_ops.access_map op) in
    let mem = operand 0 and dims = operands_from 1 and r = result 0 in
    let is_float = element_is_float (Core.operand op 0).Core.vty in
    fun w ->
      let view = as_mem (get w mem) in
      let lin = Memory.linear_index view (eval_map m (ints w dims)) in
      record_access w k view lin;
      set w r (load ~is_float view lin)
  | "affine.store" ->
    let m = amap (Dialects.Affine_ops.access_map op) in
    let v = operand 0 and mem = operand 1 and dims = operands_from 2 in
    let loc = op.Core.loc in
    fun w ->
      let value = get w v in
      let view = as_mem (get w mem) in
      let lin = Memory.linear_index view (eval_map m (ints w dims)) in
      store w k loc view lin value
  | "scf.for" ->
    let lb = operand 0 and ub = operand 1 and step = operand 2 in
    let body_block = Dialects.Scf.for_body op in
    let iv = slot d (Core.block_arg body_block 0) in
    let iter = slots d (Dialects.Scf.for_iter_args op) in
    let inits = slots d (Dialects.Scf.for_iter_inits op) in
    let body = decode_block d body_block and res = results () in
    fun w ->
      let lb = as_int (get w lb) and ub = as_int (get w ub)
      and step = as_int (get w step) in
      if step <= 0 then raise (Sim_error "scf.for with non-positive step");
      run_loop w k ~lb ~ub ~step ~iv ~iter (read w inits) body res
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
    let iv = slot d (Core.block_arg body_block 0) in
    let iter = slots d (A.for_iter_args op) in
    let inits = slots d (A.for_iter_inits op) in
    let body = decode_block d body_block and res = results () in
    fun w ->
      let lb = lb w in
      let ub = ub w in
      run_loop w k ~lb ~ub ~step ~iv ~iter (read w inits) body res
  | "scf.if" ->
    let c = operand 0 in
    let then_ = decode_block d (Core.entry_block op.Core.regions.(0)) in
    let else_ =
      if Core.num_regions op > 1 then
        Some (decode_block d (Core.entry_block op.Core.regions.(1)))
      else None
    in
    let res = results () in
    fun w ->
      alu w k;
      let vs =
        if as_int (get w c) <> 0 then branch w then_
        else match else_ with Some b -> branch w b | None -> [||]
      in
      bind_results w res vs
  | "func.call" -> (
    match Core.attr_symbol op "callee" with
    | None -> fail (Sim_error "call without callee")
    | Some callee -> (
      match Hashtbl.find_opt d.funcs callee with
      | None -> fail (Sim_error ("call to unknown device function " ^ callee))
      | Some f ->
        let fn = decode_fn d f and args = operands_from 0 and res = results () in
        fun w ->
          Array.iteri (fun i a -> set w a (get w args.(i))) fn.args;
          bind_results w res (branch w fn.body)))
  | "gpu.barrier" | "sycl.group_barrier" ->
    (* Remember which barrier op the group converges at, so the round
       charged by the scheduler can be attributed to it. Fibers of a
       group run sequentially, so this is deterministic. *)
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
    let r = result 0 in
    fun w ->
      alu w k;
      let lin = ref 0 in
      Array.iteri (fun d g -> lin := (!lin * w.global_range.(d)) + g) w.gid;
      set w r (I !lin)
  | "sycl.id.get" | "sycl.range.get" ->
    let m = operand 0 and ds = dim_operand () and r = result 0 in
    fun w ->
      alu w k;
      let v = as_mem (get w m) in
      set w r (I (Memory.cell_to_int (Memory.read v [| getter_dim w ds |])))
  | "sycl.constructor" ->
    let out = operand 0 and vals = slots d (Sycl_ops.constructor_args op) in
    fun w ->
      let out = as_mem (get w out) in
      Array.iteri
        (fun i s ->
          alu w k;
          Memory.write out [| i |] (Memory.I (as_int (get w s))))
        vals
  | "sycl.accessor.subscript" ->
    let acc = operand 0 and ids = operands_from 1 and r = result 0 in
    fun w ->
      alu w k;
      set w r (Mem (subscript_view w acc ids))
  | "sycl.accessor.get_range" -> acc_query (fun a -> a.a_range)
  | "sycl.accessor.get_mem_range" -> acc_query (fun a -> a.a_mem_range)
  | "sycl.accessor.get_offset" -> acc_query (fun a -> a.a_offset)
  | "sycl.accessor.distinct" ->
    let a = operand 0 and b = operand 1 and r = result 0 in
    fun w ->
      alu w k;
      let a = as_acc (get w a) and b = as_acc (get w b) in
      set w r (I (Bool.to_int (a.a_alloc.Memory.aid <> b.a_alloc.Memory.aid)))
  | name -> fail (Sim_error ("device simulator: unsupported op " ^ name))

let decode ~(module_op : Core.op) ~(kernel : Core.op) : program =
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun f -> Hashtbl.replace funcs (Core.func_sym f) f)
    (Core.funcs module_op);
  let d =
    { value_slots = Hashtbl.create 256; decoded = []; n_ops = 0; funcs;
      fns = Hashtbl.create 8 }
  in
  let entry = decode_fn d kernel in
  let ops = Array.of_list (List.rev d.decoded) in
  let canonical = Array.init (Array.length ops) Fun.id in
  Array.sort (fun a b -> Int.compare ops.(a).Core.oid ops.(b).Core.oid) canonical;
  { entry; ops; canonical; n_slots = Hashtbl.length d.value_slots }

(* ------------------------------------------------------------------ *)
(* Work-group and launch scheduling                                    *)
(* ------------------------------------------------------------------ *)

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
      wg.wg_barriers <- wg.wg_barriers + 1;
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

(* Fold one work-group's per-op charges into the chunk totals [tot].
   Memory transactions and barrier rounds carry exact per-op cycle
   costs; the compute quotient
   [(alu*alu_cycles + fdiv*fdiv_cycles) / subgroup_size] is divided once
   per group, so per-op shares use largest-remainder apportionment in
   canonical op (creation) order — the shares then sum exactly to the
   group's compute cycles, which makes the attribution total equal
   [total_wg_cycles] and keeps the result independent of domain
   chunking (the apportionment uses per-group state only). An op with
   no charge adds zero everywhere. *)
let accumulate_wg (prog : program) (wg : wg_ctx) (tot : int array) =
  let p = wg.params in
  let at k f = wg.counters.((k * n_fields) + f) in
  let n = Array.length prog.ops in
  let sgs = max 1 p.Cost.subgroup_size in
  let weight k = (at k f_alu * p.Cost.alu_cycles) + (at k f_fdiv * p.Cost.fdiv_cycles) in
  let total_weight = ref 0 and base_sum = ref 0 in
  for k = 0 to n - 1 do
    total_weight := !total_weight + weight k;
    base_sum := !base_sum + (weight k / sgs)
  done;
  let leftover = (!total_weight / sgs) - !base_sum in
  (* The ops receiving one extra cycle each: largest remainder first,
     ties by canonical op order. *)
  let extra = Array.make (if leftover > 0 then n else 0) 0 in
  if leftover > 0 then
    Array.to_list prog.canonical
    |> List.filter (fun k -> weight k mod sgs > 0)
    |> List.stable_sort (fun a b -> Int.compare (weight b mod sgs) (weight a mod sgs))
    |> List.iteri (fun i k -> if i < leftover then extra.(k) <- 1);
  for k = 0 to n - 1 do
    let base = k * n_totals in
    for f = 0 to n_fields - 1 do
      tot.(base + f) <- tot.(base + f) + at k f
    done;
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
    let compute_share = (weight k / sgs) + if leftover > 0 then extra.(k) else 0 in
    tot.(base + f_mem_cycles) <- tot.(base + f_mem_cycles) + mem_cycles;
    tot.(base + f_cycles) <-
      tot.(base + f_cycles) + compute_share + mem_cycles
      + (at k f_barriers * p.Cost.barrier_cycles)
  done

(* Flush a chunk's per-op totals into its attribution and cache tables,
   one row per charging op (ops sharing a name and location share a
   row), in canonical op order. The launch-global reuse histogram was
   already fed at probe time. *)
let flush_totals (prog : program) (tot : int array)
    (atab : Attribution.table option) (ctab : Cache.table option) =
  Array.iter
    (fun k ->
      let at f = tot.((k * n_totals) + f) in
      let op = prog.ops.(k) in
      (match atab with
      | Some tab
        when at f_alu + at f_fdiv + at f_accesses + at f_barriers + at f_hits
             + at f_misses
             > 0 ->
        let row = Attribution.row tab ~op_name:op.Core.name ~loc:op.Core.loc in
        row.Attribution.c_alu <- row.Attribution.c_alu + at f_alu;
        row.Attribution.c_fdiv <- row.Attribution.c_fdiv + at f_fdiv;
        row.Attribution.c_global <- row.Attribution.c_global + at f_global;
        row.Attribution.c_local <- row.Attribution.c_local + at f_local;
        row.Attribution.c_const <- row.Attribution.c_const + at f_const;
        row.Attribution.c_accesses <- row.Attribution.c_accesses + at f_accesses;
        row.Attribution.c_barriers <- row.Attribution.c_barriers + at f_barriers;
        row.Attribution.c_cycles <- row.Attribution.c_cycles + at f_cycles;
        row.Attribution.c_mem_cycles <- row.Attribution.c_mem_cycles + at f_mem_cycles;
        row.Attribution.c_hits <- row.Attribution.c_hits + at f_hits;
        row.Attribution.c_misses <- row.Attribution.c_misses + at f_misses
      | _ -> ());
      match ctab with
      | Some tab when at f_hits + at f_misses > 0 ->
        let r =
          Cache.row tab ~op_name:op.Core.name ~loc:(Loc.to_string op.Core.loc)
        in
        r.Cache.r_hits <- r.Cache.r_hits + at f_hits;
        r.Cache.r_misses <- r.Cache.r_misses + at f_misses;
        r.Cache.r_evictions <- r.Cache.r_evictions + at f_evictions;
        r.Cache.r_dist_sum <- r.Cache.r_dist_sum + at f_dist_sum;
        r.Cache.r_dist_count <- r.Cache.r_dist_count + at f_dist_count
      | _ -> ())
    prog.canonical

(** Flush a work-group's bookkeeping into the launch statistics and,
    when a table wants them, its per-op charges into the chunk totals. *)
let flush_wg (prog : program) (into : Cost.launch_stats) (tot : int array option)
    (wg : wg_ctx) (n_items : int) =
  let s = into in
  let p = wg.params in
  s.Cost.global_transactions <- s.Cost.global_transactions + wg.wg_global;
  s.Cost.local_transactions <- s.Cost.local_transactions + wg.wg_local;
  s.Cost.const_transactions <- s.Cost.const_transactions + wg.wg_const;
  s.Cost.alu_ops <- s.Cost.alu_ops + wg.wg_alu;
  s.Cost.fdiv_ops <- s.Cost.fdiv_ops + wg.wg_fdiv;
  s.Cost.barriers <- s.Cost.barriers + wg.wg_barriers;
  s.Cost.work_groups <- s.Cost.work_groups + 1;
  s.Cost.work_items <- s.Cost.work_items + n_items;
  s.Cost.cache_hits <- s.Cost.cache_hits + wg.wg_hits;
  s.Cost.cache_misses <- s.Cost.cache_misses + wg.wg_misses;
  s.Cost.cache_evictions <- s.Cost.cache_evictions + wg.wg_evictions;
  s.Cost.cache_mem_wait_cycles <-
    s.Cost.cache_mem_wait_cycles + (wg.wg_misses * p.Cost.global_mem_cycles);
  let wg_cycles =
    Cost.wg_cycles p ~model:wg.cache_model ~hits:wg.wg_hits
      ~misses:wg.wg_misses ~alu:wg.wg_alu ~fdiv:wg.wg_fdiv ~global:wg.wg_global
      ~local:wg.wg_local ~const:wg.wg_const ~barriers:wg.wg_barriers ()
  in
  s.Cost.total_wg_cycles <- s.Cost.total_wg_cycles + wg_cycles;
  if wg_cycles > s.Cost.max_wg_cycles then s.Cost.max_wg_cycles <- wg_cycles;
  Option.iter (accumulate_wg prog wg) tot

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

(* Process-wide defaults behind the --sim-domains / --sim-check-races
   CLI flags, so entry points configure the backend once instead of
   threading parameters through every call site. *)
let domains_default =
  (* SYCL_SIM_DOMAINS overrides the recommended count so a whole test or
     CI run can be forced onto the parallel backend without plumbing a
     flag through every entry point. *)
  let initial =
    match Option.bind (Sys.getenv_opt "SYCL_SIM_DOMAINS") int_of_string_opt with
    | Some n when n >= 1 -> n
    | _ -> Domain.recommended_domain_count ()
  in
  Atomic.make initial
let set_default_domains n = Atomic.set domains_default (max 1 n)
let default_domain_count () = Atomic.get domains_default
let check_races_default = Atomic.make false
let set_default_check_races b = Atomic.set check_races_default b
let default_check_races () = Atomic.get check_races_default

(* Process-wide default behind --cache-model. Flat keeps every output
   surface byte-identical to the pre-cache behaviour. *)
let cache_model_default = Atomic.make Cost.Flat
let set_default_cache_model m = Atomic.set cache_model_default m
let default_cache_model () = Atomic.get cache_model_default

(** Launch [kernel] over [global]/[wg_size]. [args.(i)] binds kernel
    argument i; the item-like argument must be bound to [Item]. Returns
    the accumulated launch statistics. When [metrics] is given, device
    execution counters (work-groups, work-items, barriers) are recorded
    into it through per-domain shards merged in canonical chunk order,
    so the registry contents are independent of the domain count. When
    [attribution] is given, every charge is additionally accounted to
    the charging op's source location into that table — through
    worker-private shards merged in the same canonical chunk order, so
    the table is byte-identical whatever the domain count. *)
let launch ?(params = Cost.default) ?domains ?check_races ?metrics ?attribution
    ?cache_model ?cache ?program ~(module_op : Core.op) ~(kernel : Core.op)
    ~(args : rv array) ~(global : int list) ~(wg_size : int list) () :
    Cost.launch_stats =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Atomic.get domains_default
  in
  let check_races =
    match check_races with
    | Some b -> b
    | None -> Atomic.get check_races_default
  in
  let cache_model =
    match cache_model with
    | Some m -> m
    | None -> Atomic.get cache_model_default
  in
  let stats = Cost.fresh_launch_stats () in
  let global = Array.of_list global and wg_size = Array.of_list wg_size in
  let nd = Array.length global in
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
  let n_sub =
    let sgs = max 1 params.Cost.subgroup_size in
    (items_per_group + sgs - 1) / sgs
  in
  let unflatten range lin =
    let idx = Array.make nd 0 in
    let rest = ref lin in
    for d = nd - 1 downto 0 do
      idx.(d) <- !rest mod range.(d);
      rest := !rest / range.(d)
    done;
    idx
  in
  let footprints =
    if check_races then
      Some (Array.init n_groups (fun _ -> Memory.footprint ()))
    else None
  in
  (* Execute one work-group, accumulating into [into] (its chunk's
     private record — group results are independent, so where they
     accumulate only affects scheduling, never the merged totals). The
     counters, coalescing table, frames and occurrence counts are the
     chunk's, cleared here for each of its groups. *)
  let run_group ~counters ~coalesce ~frames ~occs (into : Cost.launch_stats)
      (tot : int array option) (ctab : Cache.table option) (g : int) =
    let grp = unflatten group_range g in
    Array.fill counters 0 (Array.length counters) 0;
    Array.fill coalesce 0 (Array.length coalesce) [||];
    let wg =
      {
        params;
        footprint =
          (match footprints with Some a -> Some a.(g) | None -> None);
        locals = Hashtbl.create 4;
        counters;
        coalesce;
        n_sub;
        cache_model;
        (* Fresh per-group cache + reuse state: groups own their core,
           so no cross-group (and thus no cross-domain) coupling. *)
        cache = Cache.create params cache_model;
        reuse =
          (match (ctab, cache_model) with
          | Some _, (Cost.Direct_mapped | Cost.Set_associative) ->
            Some (Cache.reuse_create ())
          | _ -> None);
        cache_tab = ctab;
        cur_barrier = -1;
        wg_alu = 0;
        wg_fdiv = 0;
        wg_barriers = 0;
        wg_global = 0;
        wg_local = 0;
        wg_const = 0;
        wg_hits = 0;
        wg_misses = 0;
        wg_evictions = 0;
      }
    in
    let thunks =
      List.init items_per_group (fun li ->
          let lid = unflatten wg_size li in
          let gid = Array.init nd (fun d -> (grp.(d) * wg_size.(d)) + lid.(d)) in
          let lin_lid =
            let l = ref 0 in
            Array.iteri (fun d x -> l := (!l * wg_size.(d)) + x) lid;
            !l
          in
          let slots = frames.(li) and occ = occs.(li) in
          Array.fill slots 0 (Array.length slots) unbound;
          Array.fill occ 0 (Array.length occ) 0;
          let w =
            {
              wg;
              gid;
              lid;
              grp;
              global_range = global;
              local_range = wg_size;
              subgroup = lin_lid / params.Cost.subgroup_size;
              slots;
              occ;
            }
          in
          fun () ->
            let ps = prog.entry.args in
            for i = 0 to Array.length ps - 1 do
              if i < Array.length args then set w ps.(i) args.(i)
              else raise (Sim_error "missing kernel argument")
            done;
            run_block w prog.entry.body)
    in
    run_workgroup wg thunks;
    flush_wg prog into tot wg items_per_group
  in
  (* Balanced contiguous chunks of the canonical group order, one per
     domain of the shared pool; [d = 1] runs the one chunk on the
     calling domain. *)
  let d = max 1 (min domains n_groups) in
  (* One metrics shard per chunk; each chunk writes only its own shard,
     and the owner folds them in index order after joining. *)
  let sharded =
    Option.map (fun _ -> Sycl_obs.Metrics.Sharded.create d) metrics
  in
  let record_shard (r : Sycl_obs.Metrics.registry) (s : Cost.launch_stats) =
    Sycl_obs.Metrics.incr r ~by:s.Cost.work_groups "sim.work_groups";
    Sycl_obs.Metrics.incr r ~by:s.Cost.work_items "sim.work_items";
    Sycl_obs.Metrics.incr r ~by:s.Cost.barriers "sim.barriers"
  in
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
  let run_chunk i =
    let s = Cost.fresh_launch_stats () in
    (* Chunk-private attribution and cache shards, merged in chunk order
       below. *)
    let at = Option.map (fun _ -> Attribution.create ()) attribution in
    let ct = Option.map (fun _ -> Cache.create_table ()) cache in
    let counters = Array.make (n_ops * n_fields) 0 in
    let coalesce = Array.make (n_ops * n_sub) [||] in
    let frames =
      Array.init items_per_group (fun _ -> Array.make prog.n_slots unbound)
    in
    let occs = Array.init items_per_group (fun _ -> Array.make n_ops 0) in
    let tot =
      if Option.is_some at || Option.is_some ct then
        Some (Array.make (n_ops * n_totals) 0)
      else None
    in
    let failure = ref None in
    let start, stop = chunk i in
    let g = ref start in
    (try
       while !g < stop do
         run_group ~counters ~coalesce ~frames ~occs s tot ct !g;
         incr g
       done
     with e -> failure := Some (!g, e));
    Option.iter (fun tot -> flush_totals prog tot at ct) tot;
    (* Chunk-private shard: recorded inside the worker domain, no
       contention with the other chunks. *)
    (match sharded with
    | Some sh -> record_shard (Sycl_obs.Metrics.Sharded.shard sh i) s
    | None -> ());
    (s, at, ct, !failure)
  in
  let results = Sycl_obs.Pool.run d run_chunk in
  Array.iter (fun (s, _, _, _) -> Cost.merge_launch_stats ~into:stats s) results;
  (match attribution with
  | Some into ->
    Array.iter
      (fun (_, at, _, _) ->
        match at with Some src -> Attribution.merge ~into src | None -> ())
      results
  | None -> ());
  (match cache with
  | Some into ->
    Array.iter
      (fun (_, _, ct, _) ->
        match ct with Some src -> Cache.merge ~into src | None -> ())
      results
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
  (match (metrics, sharded) with
  | Some reg, Some sh -> Sycl_obs.Metrics.Sharded.merge_into ~into:reg sh
  | _ -> ());
  (* Cache counters are recorded once from the merged totals (so they
     are deterministic whatever the domain count), and only when a
     non-flat model ran — a flat launch leaves the registry untouched,
     keeping the metrics report byte-identical to the seed. *)
  (match metrics with
  | Some reg when cache_model <> Cost.Flat ->
    Sycl_obs.Metrics.incr reg ~by:stats.Cost.cache_hits "sim.cache.hits";
    Sycl_obs.Metrics.incr reg ~by:stats.Cost.cache_misses "sim.cache.misses";
    Sycl_obs.Metrics.incr reg ~by:stats.Cost.cache_evictions
      "sim.cache.evictions";
    Sycl_obs.Metrics.incr reg ~by:stats.Cost.cache_mem_wait_cycles
      "sim.cache.mem_wait_cycles";
    (match cache with
    | Some t ->
      (* Exact reuse-distance histogram (p50/p90/p99 are exact
         nearest-rank because the registry keeps a value->count table).
         Power-of-two bucket bounds for the rendered buckets. *)
      let bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |] in
      Cache.iter_hist t (fun dist count ->
          for _ = 1 to count do
            Sycl_obs.Metrics.observe reg ~bounds "sim.cache.reuse_distance"
              dist
          done)
    | None -> ())
  | _ -> ());
  (match footprints with
  | Some fps ->
    let races = detect_races fps in
    if races <> [] then raise (Race_detected races)
  | None -> ());
  stats
