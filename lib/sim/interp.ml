(* The GPU device simulator: executes kernel IR over an ND-range with
   correct work-group semantics. Work-items of a work-group run as OCaml 5
   effect-handler fibers; a group barrier suspends the fiber, and the
   scheduler resumes all fibers of the group phase by phase — so the
   cooperative local-memory prefetch produced by loop internalization
   (Section VI-C) executes correctly, and a barrier in a divergent region
   is detected as the deadlock it would be on hardware.

   Costs are accumulated per work-group: ALU cycles per executed op,
   memory transactions per (instruction, occurrence, sub-group) with
   cache-line coalescing, and barrier costs. Private memory is treated as
   registers (no memory cost), matching mem2reg-ed GPU code. *)

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

(* Per-work-group, per-op charge record for source attribution: which op
   incurred how many ALU/fdiv executions, raw memory accesses and barrier
   rounds. Transactions are recovered from [mem_table] (whose key already
   carries the op id) at flush time. *)
type op_charge = {
  oc_op : Core.op;
  mutable oc_alu : int;
  mutable oc_fdiv : int;
  mutable oc_accesses : int;  (* raw non-private accesses, pre-coalescing *)
  mutable oc_barriers : int;  (* barrier rounds this op's barrier closed *)
  (* Cache-model probes of this op's global transactions (all 0 under
     the flat model — no probes happen). *)
  mutable oc_hits : int;
  mutable oc_misses : int;
  mutable oc_evictions : int;
  mutable oc_dist_sum : int;  (* summed warm reuse distances *)
  mutable oc_dist_count : int;  (* warm re-accesses *)
}

type wg_ctx = {
  params : Cost.params;
  stats : Cost.launch_stats;
  footprint : Memory.footprint option;
      (* per-group global-write footprint, recorded under --sim-check-races *)
  locals : (int, Memory.allocation) Hashtbl.t;  (* gpu.alloc_local slot *)
  (* (op id, occurrence, subgroup) -> set of (alloc id, line, class) *)
  mem_table : (int * int * int, (int * int * int, unit) Hashtbl.t) Hashtbl.t;
  attribution : Attribution.table option;
      (* source-attribution sink; None skips per-op bookkeeping *)
  op_charges : (int, op_charge) Hashtbl.t;  (* op id -> per-wg charges *)
  cache_model : Cost.cache_model;
  cache : Cache.state option;  (* per-group cache; None under Flat *)
  reuse : Cache.reuse option;  (* per-group reuse-distance tracker *)
  cache_tab : Cache.table option;  (* per-op cache counter sink *)
  mutable cur_barrier : Core.op option;
      (* the barrier op the group is currently suspended at *)
  mutable wg_alu : int;
  mutable wg_fdiv : int;
  mutable wg_barriers : int;
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
  group_range : int array;
  subgroup : int;
  env : (int, rv) Hashtbl.t;
  occ : (int, int) Hashtbl.t;
  funcs : (string, Core.op) Hashtbl.t;  (* device functions by symbol *)
}

let lookup ctx (v : Core.value) =
  match Hashtbl.find_opt ctx.env v.Core.vid with
  | Some rv -> rv
  | None -> raise (Sim_error ("use of unbound SSA value in simulator"))

let bind ctx (v : Core.value) rv = Hashtbl.replace ctx.env v.Core.vid rv

(* Every charge names the charging op so attribution can account it to
   the op's source location; the per-wg aggregate counters stay the
   single source of truth for the cost formula. *)
let op_charge (wg : wg_ctx) (op : Core.op) =
  match Hashtbl.find_opt wg.op_charges op.Core.oid with
  | Some c -> c
  | None ->
    let c =
      { oc_op = op; oc_alu = 0; oc_fdiv = 0; oc_accesses = 0; oc_barriers = 0;
        oc_hits = 0; oc_misses = 0; oc_evictions = 0; oc_dist_sum = 0;
        oc_dist_count = 0 }
    in
    Hashtbl.replace wg.op_charges op.Core.oid c;
    c

let alu ctx op =
  ctx.wg.wg_alu <- ctx.wg.wg_alu + 1;
  if Option.is_some ctx.wg.attribution then
    let c = op_charge ctx.wg op in
    c.oc_alu <- c.oc_alu + 1

let fdiv ctx op =
  ctx.wg.wg_fdiv <- ctx.wg.wg_fdiv + 1;
  if Option.is_some ctx.wg.attribution then
    let c = op_charge ctx.wg op in
    c.oc_fdiv <- c.oc_fdiv + 1

(* Latency class: 0 = global, 1 = local, 2 = constant-cached. *)
let latency_class (a : Memory.allocation) =
  match a.Memory.space with
  | Types.Local -> 1
  | Types.Private -> 3 (* never recorded *)
  | Types.Global -> if a.Memory.constant_cached then 2 else 0

let record_access ctx (op : Core.op) (view : Memory.view) (idx : int list) =
  match view.Memory.base.Memory.space with
  | Types.Private -> alu ctx op
  | _ ->
    if Option.is_some ctx.wg.attribution then begin
      let c = op_charge ctx.wg op in
      c.oc_accesses <- c.oc_accesses + 1
    end;
    let lin = Memory.linear_index view idx in
    let line = lin / ctx.wg.params.Cost.cache_line_elems in
    let occ = Option.value ~default:0 (Hashtbl.find_opt ctx.occ op.Core.oid) in
    Hashtbl.replace ctx.occ op.Core.oid (occ + 1);
    let key = (op.Core.oid, occ, ctx.subgroup) in
    let tbl =
      match Hashtbl.find_opt ctx.wg.mem_table key with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace ctx.wg.mem_table key t;
        t
    in
    let a = view.Memory.base in
    let cls = latency_class a in
    let tkey = (a.Memory.aid, line, cls) in
    (* Probe the cache exactly once per NEW coalesced global transaction:
       the per-(op, occurrence, sub-group) table only ever grows, and the
       flush counts its entries as global transactions, so
       hits + misses = global_transactions holds by construction.
       Fibers of a group run sequentially in canonical order, so the
       probe sequence is deterministic and domain-count independent. *)
    (match ctx.wg.cache with
    | Some cache when cls = 0 && not (Hashtbl.mem tbl tkey) ->
      let { Cache.o_hit; o_evicted } =
        Cache.access cache ~aid:a.Memory.aid ~line
      in
      if o_hit then ctx.wg.wg_hits <- ctx.wg.wg_hits + 1
      else ctx.wg.wg_misses <- ctx.wg.wg_misses + 1;
      if o_evicted then ctx.wg.wg_evictions <- ctx.wg.wg_evictions + 1;
      let dist =
        match ctx.wg.reuse with
        | Some r ->
          let d = Cache.reuse_access r ~aid:a.Memory.aid ~line in
          Option.iter (fun t -> Cache.observe_distance t d) ctx.wg.cache_tab;
          d
        | None -> None
      in
      if Option.is_some ctx.wg.attribution || Option.is_some ctx.wg.cache_tab
      then begin
        let c = op_charge ctx.wg op in
        if o_hit then c.oc_hits <- c.oc_hits + 1
        else c.oc_misses <- c.oc_misses + 1;
        if o_evicted then c.oc_evictions <- c.oc_evictions + 1;
        match dist with
        | Some d ->
          c.oc_dist_sum <- c.oc_dist_sum + d;
          c.oc_dist_count <- c.oc_dist_count + 1
        | None -> ()
      end
    | _ -> ());
    Hashtbl.replace tbl tkey ()

(* Record a store into the group's write footprint (race detection),
   tagged with the storing op's source location so a race report can
   name the culprit store. Only global-space writes are kept — see
   {!Memory.footprint_write}. *)
let record_store ctx (op : Core.op) (view : Memory.view) (idx : int list) =
  match ctx.wg.footprint with
  | None -> ()
  | Some fp ->
    Memory.footprint_write ~loc:op.Core.loc fp view (Memory.linear_index view idx)

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
(* Op evaluation                                                       *)
(* ------------------------------------------------------------------ *)

let getter_dim ctx (op : Core.op) =
  if Core.num_operands op >= 2 then as_int (lookup ctx (Core.operand op 1)) else 0

let cell_of_rv = function
  | F f -> Memory.F f
  | I i -> Memory.I i
  | _ -> raise (Sim_error "cannot store non-scalar value")

let rv_of_cell ~is_float (c : Memory.cell) =
  match c with
  | Memory.F f -> if is_float then F f else I (int_of_float f)
  | Memory.I i -> if is_float then F (float_of_int i) else I i

let subscript_view ctx (op : Core.op) =
  let acc = as_acc (lookup ctx (Core.operand op 0)) in
  let ids =
    match List.tl (Core.operands op) with
    | [ single ] -> (
      match lookup ctx single with
      | I i -> [ i ]
      | Mem v ->
        (* An id struct in private memory: one cell per dimension. *)
        List.init (Array.length acc.a_range) (fun d ->
            Memory.cell_to_int (Memory.read v [ d ]))
      | _ -> raise (Sim_error "bad subscript index"))
    | many ->
      (* Direct form: one index operand per dimension. *)
      List.map (fun v -> as_int (lookup ctx v)) many
  in
  (* Linearize against the *memory* range with the accessor offset. *)
  let n = Array.length acc.a_mem_range in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * acc.a_mem_range.(i + 1)
  done;
  let lin = ref 0 in
  List.iteri
    (fun d i ->
      let off = if d < Array.length acc.a_offset then acc.a_offset.(d) else 0 in
      lin := !lin + ((i + off) * strides.(d)))
    ids;
  {
    Memory.base = acc.a_alloc;
    Memory.offset = !lin;
    Memory.dims = [| 1 |];
    Memory.strides = [| 1 |];
  }

let rec exec_block ctx (b : Core.block) : rv list =
  let rec go = function
    | [] -> []
    | op :: rest -> (
      match exec_op ctx op with
      | `Next -> go rest
      | `Yield vs -> vs)
  in
  go b.Core.body

and exec_region ctx (r : Core.region) : rv list =
  exec_block ctx (Core.entry_block r)

and exec_op ctx (op : Core.op) : [ `Next | `Yield of rv list ] =
  let operand i = lookup ctx (Core.operand op i) in
  let bind_result i rv = bind ctx (Core.result op i) rv in
  let int2 f =
    alu ctx op;
    bind_result 0 (I (f (as_int (operand 0)) (as_int (operand 1))));
    `Next
  in
  let float2 f =
    alu ctx op;
    bind_result 0 (F (f (as_float (operand 0)) (as_float (operand 1))));
    `Next
  in
  match op.Core.name with
  | "arith.constant" -> (
    match Core.attr op "value" with
    | Some (Attr.Int i) -> bind_result 0 (I i); `Next
    | Some (Attr.Float f) -> bind_result 0 (F f); `Next
    | Some (Attr.Bool b) -> bind_result 0 (I (Bool.to_int b)); `Next
    | _ -> raise (Sim_error "arith.constant without numeric value"))
  | "arith.addi" -> int2 ( + )
  | "arith.subi" -> int2 ( - )
  | "arith.muli" -> int2 ( * )
  | "arith.divsi" -> fdiv ctx op; bind_result 0 (I (as_int (operand 0) / as_int (operand 1))); `Next
  | "arith.remsi" -> fdiv ctx op; bind_result 0 (I (as_int (operand 0) mod as_int (operand 1))); `Next
  | "arith.andi" -> int2 ( land )
  | "arith.ori" -> int2 ( lor )
  | "arith.xori" -> int2 ( lxor )
  | "arith.minsi" -> int2 min
  | "arith.maxsi" -> int2 max
  | "arith.addf" -> float2 ( +. )
  | "arith.subf" -> float2 ( -. )
  | "arith.mulf" -> float2 ( *. )
  | "arith.divf" -> fdiv ctx op; bind_result 0 (F (as_float (operand 0) /. as_float (operand 1))); `Next
  | "arith.minimumf" -> float2 Float.min
  | "arith.maximumf" -> float2 Float.max
  | "arith.negf" ->
    alu ctx op;
    bind_result 0 (F (-.as_float (operand 0)));
    `Next
  | "arith.cmpi" ->
    alu ctx op;
    let p =
      match Dialects.Arith.icmp_predicate op with
      | Some p -> p
      | None -> raise (Sim_error "cmpi without predicate")
    in
    bind_result 0
      (I (Bool.to_int (Dialects.Arith.eval_icmp p (as_int (operand 0)) (as_int (operand 1)))));
    `Next
  | "arith.cmpf" ->
    alu ctx op;
    let p =
      match Option.bind (Core.attr_string op "predicate") Dialects.Arith.fcmp_pred_of_string with
      | Some p -> p
      | None -> raise (Sim_error "cmpf without predicate")
    in
    bind_result 0
      (I (Bool.to_int (Dialects.Arith.eval_fcmp p (as_float (operand 0)) (as_float (operand 1)))));
    `Next
  | "arith.select" ->
    alu ctx op;
    bind_result 0 (if as_int (operand 0) <> 0 then operand 1 else operand 2);
    `Next
  | "arith.index_cast" ->
    bind_result 0 (I (as_int (operand 0)));
    `Next
  | "arith.sitofp" ->
    alu ctx op;
    bind_result 0 (F (float_of_int (as_int (operand 0))));
    `Next
  | "arith.fptosi" ->
    alu ctx op;
    bind_result 0 (I (int_of_float (as_float (operand 0))));
    `Next
  | "math.sqrt" -> fdiv ctx op; bind_result 0 (F (Float.sqrt (as_float (operand 0)))); `Next
  | "math.exp" -> fdiv ctx op; bind_result 0 (F (Float.exp (as_float (operand 0)))); `Next
  | "math.absf" -> alu ctx op; bind_result 0 (F (Float.abs (as_float (operand 0)))); `Next
  | "memref.alloca" | "memref.alloc" ->
    let size, dims = alloc_size_of_type (Core.result op 0).Core.vty in
    let space =
      match (Core.result op 0).Core.vty with
      | Types.Memref { space; _ } -> space
      | _ -> Types.Private
    in
    let a = Memory.alloc ~label:"device-alloc" ~space ~size () in
    bind_result 0 (Mem (Memory.full_view ~dims a));
    `Next
  | "gpu.alloc_local" -> (
    let slot = Option.value ~default:0 (Core.attr_int op "slot") in
    let size, dims = alloc_size_of_type (Core.result op 0).Core.vty in
    match Hashtbl.find_opt ctx.wg.locals slot with
    | Some a -> bind_result 0 (Mem (Memory.full_view ~dims a)); `Next
    | None ->
      let a = Memory.alloc ~label:"wg-local" ~space:Types.Local ~size () in
      Hashtbl.replace ctx.wg.locals slot a;
      bind_result 0 (Mem (Memory.full_view ~dims a));
      `Next)
  | "memref.load" ->
    let view = as_mem (operand 0) in
    let idx = List.map (fun v -> as_int (lookup ctx v)) (List.tl (Core.operands op)) in
    record_access ctx op view idx;
    bind_result 0
      (rv_of_cell ~is_float:(element_is_float (Core.operand op 0).Core.vty)
         (Memory.read view idx));
    `Next
  | "memref.store" ->
    let value = operand 0 in
    let view = as_mem (operand 1) in
    let idx =
      List.map (fun v -> as_int (lookup ctx v))
        (List.filteri (fun i _ -> i >= 2) (Core.operands op))
    in
    record_access ctx op view idx;
    record_store ctx op view idx;
    Memory.write view idx (cell_of_rv value);
    `Next
  | "memref.dim" ->
    let view = as_mem (operand 0) in
    let d = as_int (operand 1) in
    bind_result 0 (I view.Memory.dims.(d));
    `Next
  | "memref.dealloc" -> `Next
  | "affine.apply" ->
    alu ctx op;
    let m = Dialects.Affine_ops.access_map op in
    let dims = Array.of_list (List.map (fun v -> as_int (lookup ctx v)) (Core.operands op)) in
    (match Affine_expr.Map.eval m ~dims ~syms:[||] with
    | [ r ] -> bind_result 0 (I r); `Next
    | _ -> raise (Sim_error "affine.apply with multiple results"))
  | "affine.load" ->
    let view = as_mem (operand 0) in
    let m = Dialects.Affine_ops.access_map op in
    let dims =
      Array.of_list
        (List.map (fun v -> as_int (lookup ctx v))
           (List.filteri (fun i _ -> i >= 1) (Core.operands op)))
    in
    let idx = Affine_expr.Map.eval m ~dims ~syms:[||] in
    record_access ctx op view idx;
    bind_result 0
      (rv_of_cell ~is_float:(element_is_float (Core.operand op 0).Core.vty)
         (Memory.read view idx));
    `Next
  | "affine.store" ->
    let value = operand 0 in
    let view = as_mem (operand 1) in
    let m = Dialects.Affine_ops.access_map op in
    let dims =
      Array.of_list
        (List.map (fun v -> as_int (lookup ctx v))
           (List.filteri (fun i _ -> i >= 2) (Core.operands op)))
    in
    let idx = Affine_expr.Map.eval m ~dims ~syms:[||] in
    record_access ctx op view idx;
    record_store ctx op view idx;
    Memory.write view idx (cell_of_rv value);
    `Next
  | "scf.for" ->
    let lb = as_int (operand 0) and ub = as_int (operand 1) and step = as_int (operand 2) in
    if step <= 0 then raise (Sim_error "scf.for with non-positive step");
    let body = Dialects.Scf.for_body op in
    let iv = Core.block_arg body 0 in
    let iter_args = Dialects.Scf.for_iter_args op in
    let inits = List.map (fun v -> lookup ctx v) (Dialects.Scf.for_iter_inits op) in
    let rec iterate i acc =
      if i >= ub then acc
      else begin
        alu ctx op;
        bind ctx iv (I i);
        List.iter2 (fun a v -> bind ctx a v) iter_args acc;
        let yielded = exec_block ctx body in
        iterate (i + step) yielded
      end
    in
    let final = iterate lb inits in
    List.iteri (fun i rv -> bind_result i rv) final;
    `Next
  | "affine.for" ->
    let eval_bound map operands =
      let dims =
        Array.of_list (List.map (fun v -> as_int (lookup ctx v)) operands)
      in
      match Affine_expr.Map.eval map ~dims ~syms:[||] with
      | [ r ] -> r
      | _ -> raise (Sim_error "affine.for bound with multiple results")
    in
    let lb = eval_bound (Dialects.Affine_ops.for_lb_map op) (Dialects.Affine_ops.for_lb_operands op) in
    let ub = eval_bound (Dialects.Affine_ops.for_ub_map op) (Dialects.Affine_ops.for_ub_operands op) in
    let step = Dialects.Affine_ops.for_step op in
    let body = Dialects.Affine_ops.for_body op in
    let iv = Core.block_arg body 0 in
    let iter_args = Dialects.Affine_ops.for_iter_args op in
    let inits = List.map (fun v -> lookup ctx v) (Dialects.Affine_ops.for_iter_inits op) in
    let rec iterate i acc =
      if i >= ub then acc
      else begin
        alu ctx op;
        bind ctx iv (I i);
        List.iter2 (fun a v -> bind ctx a v) iter_args acc;
        let yielded = exec_block ctx body in
        iterate (i + step) yielded
      end
    in
    let final = iterate lb inits in
    List.iteri (fun i rv -> bind_result i rv) final;
    `Next
  | "scf.if" ->
    alu ctx op;
    let c = as_int (operand 0) <> 0 in
    let results =
      if c then exec_region ctx op.Core.regions.(0)
      else if Core.num_regions op > 1 then exec_region ctx op.Core.regions.(1)
      else []
    in
    List.iteri (fun i rv -> bind_result i rv) results;
    `Next
  | "scf.yield" | "affine.yield" ->
    `Yield (List.map (fun v -> lookup ctx v) (Core.operands op))
  | "func.return" -> `Yield (List.map (fun v -> lookup ctx v) (Core.operands op))
  | "func.call" -> (
    match Core.attr_symbol op "callee" with
    | Some callee -> (
      match Hashtbl.find_opt ctx.funcs callee with
      | Some f ->
        let body = Core.func_body f in
        List.iteri
          (fun i a -> bind ctx a (lookup ctx (Core.operand op i)))
          (Core.block_args body);
        let results = exec_block ctx body in
        List.iteri (fun i rv -> bind_result i rv) results;
        `Next
      | None -> raise (Sim_error ("call to unknown device function " ^ callee)))
    | None -> raise (Sim_error "call without callee"))
  | "gpu.barrier" | "sycl.group_barrier" ->
    (* Remember which barrier op the group converges at, so the round
       charged by the scheduler can be attributed to it. Fibers of a
       group run sequentially, so this is deterministic. *)
    ctx.wg.cur_barrier <- Some op;
    Effect.perform Barrier;
    `Next
  (* --- SYCL getters --- *)
  | "sycl.item.get_id" | "sycl.nd_item.get_global_id" ->
    alu ctx op;
    bind_result 0 (I ctx.gid.(getter_dim ctx op));
    `Next
  | "sycl.nd_item.get_local_id" ->
    alu ctx op;
    bind_result 0 (I ctx.lid.(getter_dim ctx op));
    `Next
  | "sycl.nd_item.get_group_id" ->
    alu ctx op;
    bind_result 0 (I ctx.grp.(getter_dim ctx op));
    `Next
  | "sycl.item.get_range" | "sycl.nd_item.get_global_range" ->
    alu ctx op;
    bind_result 0 (I ctx.global_range.(getter_dim ctx op));
    `Next
  | "sycl.nd_item.get_local_range" ->
    alu ctx op;
    bind_result 0 (I ctx.local_range.(getter_dim ctx op));
    `Next
  | "sycl.item.get_linear_id" ->
    alu ctx op;
    let lin = ref 0 in
    Array.iteri (fun d g -> lin := (!lin * ctx.global_range.(d)) + g) ctx.gid;
    bind_result 0 (I !lin);
    `Next
  | "sycl.id.get" | "sycl.range.get" ->
    alu ctx op;
    let v = as_mem (operand 0) in
    bind_result 0 (I (Memory.cell_to_int (Memory.read v [ getter_dim ctx op ])));
    `Next
  | "sycl.constructor" ->
    let out = as_mem (operand 0) in
    List.iteri
      (fun i v ->
        alu ctx op;
        Memory.write out [ i ] (Memory.I (as_int (lookup ctx v))))
      (Sycl_ops.constructor_args op);
    `Next
  | "sycl.accessor.subscript" ->
    alu ctx op;
    bind_result 0 (Mem (subscript_view ctx op));
    `Next
  | "sycl.accessor.get_range" ->
    alu ctx op;
    bind_result 0 (I (as_acc (operand 0)).a_range.(getter_dim ctx op));
    `Next
  | "sycl.accessor.get_mem_range" ->
    alu ctx op;
    bind_result 0 (I (as_acc (operand 0)).a_mem_range.(getter_dim ctx op));
    `Next
  | "sycl.accessor.get_offset" ->
    alu ctx op;
    bind_result 0 (I (as_acc (operand 0)).a_offset.(getter_dim ctx op));
    `Next
  | "sycl.accessor.distinct" ->
    alu ctx op;
    let a = as_acc (operand 0) and b = as_acc (operand 1) in
    bind_result 0 (I (Bool.to_int (a.a_alloc.Memory.aid <> b.a_alloc.Memory.aid)));
    `Next
  | name -> raise (Sim_error ("device simulator: unsupported op " ^ name))

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
      (match (wg.cur_barrier, wg.attribution) with
      | Some op, Some _ ->
        let c = op_charge wg op in
        c.oc_barriers <- c.oc_barriers + 1
      | _ -> ());
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

(* Distribute one work-group's charges over its charging ops into the
   attribution table. Memory transactions and barrier rounds carry exact
   per-op cycle costs; the compute quotient
   [(alu*alu_cycles + fdiv*fdiv_cycles) / subgroup_size] is divided once
   per group, so per-op shares use largest-remainder apportionment in
   canonical op (creation) order — the shares then sum exactly to the
   group's compute cycles, which makes the attribution total equal
   [total_wg_cycles] and keeps the result independent of domain
   chunking (everything here is per-group state). *)
let attribute_wg (wg : wg_ctx) (tab : Attribution.table) =
  let p = wg.params in
  (* Per-op transaction counts by class, recovered from the coalescing
     table (its key already names the op). *)
  let mem : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (oid, _, _) tbl ->
      let counts =
        match Hashtbl.find_opt mem oid with
        | Some a -> a
        | None ->
          let a = [| 0; 0; 0 |] in
          Hashtbl.replace mem oid a;
          a
      in
      Hashtbl.iter
        (fun (_, _, cls) () ->
          let i = if cls = 0 then 0 else if cls = 1 then 1 else 2 in
          counts.(i) <- counts.(i) + 1)
        tbl)
    wg.mem_table;
  let charges =
    Hashtbl.fold (fun _ c acc -> c :: acc) wg.op_charges []
    |> List.sort (fun a b -> compare a.oc_op.Core.oid b.oc_op.Core.oid)
  in
  let sgs = max 1 p.Cost.subgroup_size in
  let weight c = (c.oc_alu * p.Cost.alu_cycles) + (c.oc_fdiv * p.Cost.fdiv_cycles) in
  let total_weight = List.fold_left (fun acc c -> acc + weight c) 0 charges in
  let compute_cycles = total_weight / sgs in
  let base_sum = List.fold_left (fun acc c -> acc + (weight c / sgs)) 0 charges in
  let leftover = compute_cycles - base_sum in
  (* The ops receiving one extra cycle each: largest remainder first,
     ties by canonical op order. *)
  let extra : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.map (fun c -> (weight c mod sgs, c.oc_op.Core.oid)) charges
  |> List.filter (fun (r, _) -> r > 0)
  |> List.sort (fun (ra, oa) (rb, ob) -> compare (-ra, oa) (-rb, ob))
  |> List.iteri (fun i (_, oid) -> if i < leftover then Hashtbl.replace extra oid ());
  List.iter
    (fun c ->
      let oid = c.oc_op.Core.oid in
      let m = Option.value ~default:[| 0; 0; 0 |] (Hashtbl.find_opt mem oid) in
      (* The op's global term uses the same hit/miss-differentiated
         formula as the group total (per-op hits + misses = per-op
         global transactions, exactly), so per-row cycles still sum to
         [total_wg_cycles] with no epsilon under any cache model. *)
      let mem_cycles =
        Cost.global_cycles p ~model:wg.cache_model ~global:m.(0)
          ~hits:c.oc_hits ~misses:c.oc_misses
        + (m.(1) * p.Cost.local_mem_cycles)
        + (m.(2) * p.Cost.const_mem_cycles)
      in
      let compute_share =
        (weight c / sgs) + if Hashtbl.mem extra oid then 1 else 0
      in
      let cycles =
        compute_share + mem_cycles + (c.oc_barriers * p.Cost.barrier_cycles)
      in
      let row =
        Attribution.row tab ~op_name:c.oc_op.Core.name ~loc:c.oc_op.Core.loc
      in
      row.Attribution.c_alu <- row.Attribution.c_alu + c.oc_alu;
      row.Attribution.c_fdiv <- row.Attribution.c_fdiv + c.oc_fdiv;
      row.Attribution.c_global <- row.Attribution.c_global + m.(0);
      row.Attribution.c_local <- row.Attribution.c_local + m.(1);
      row.Attribution.c_const <- row.Attribution.c_const + m.(2);
      row.Attribution.c_accesses <- row.Attribution.c_accesses + c.oc_accesses;
      row.Attribution.c_barriers <- row.Attribution.c_barriers + c.oc_barriers;
      row.Attribution.c_cycles <- row.Attribution.c_cycles + cycles;
      row.Attribution.c_mem_cycles <- row.Attribution.c_mem_cycles + mem_cycles;
      row.Attribution.c_hits <- row.Attribution.c_hits + c.oc_hits;
      row.Attribution.c_misses <- row.Attribution.c_misses + c.oc_misses)
    charges

(* Flush one work-group's per-op cache probes into the cache table (rows
   keyed like attribution; the launch-global reuse histogram was already
   fed at probe time). Canonical op order for determinism. *)
let cache_attribute_wg (wg : wg_ctx) (tab : Cache.table) =
  Hashtbl.fold (fun _ c acc -> c :: acc) wg.op_charges []
  |> List.sort (fun a b -> compare a.oc_op.Core.oid b.oc_op.Core.oid)
  |> List.iter (fun c ->
         if c.oc_hits + c.oc_misses > 0 then begin
           let r =
             Cache.row tab ~op_name:c.oc_op.Core.name
               ~loc:(Loc.to_string c.oc_op.Core.loc)
           in
           r.Cache.r_hits <- r.Cache.r_hits + c.oc_hits;
           r.Cache.r_misses <- r.Cache.r_misses + c.oc_misses;
           r.Cache.r_evictions <- r.Cache.r_evictions + c.oc_evictions;
           r.Cache.r_dist_sum <- r.Cache.r_dist_sum + c.oc_dist_sum;
           r.Cache.r_dist_count <- r.Cache.r_dist_count + c.oc_dist_count
         end)

(** Flush a work-group's bookkeeping into the launch statistics. *)
let flush_wg (wg : wg_ctx) (n_items : int) =
  let s = wg.stats in
  let p = wg.params in
  let g = ref 0 and l = ref 0 and c = ref 0 in
  Hashtbl.iter
    (fun _ tbl ->
      Hashtbl.iter
        (fun (_, _, cls) () ->
          match cls with 0 -> incr g | 1 -> incr l | _ -> incr c)
        tbl)
    wg.mem_table;
  s.Cost.global_transactions <- s.Cost.global_transactions + !g;
  s.Cost.local_transactions <- s.Cost.local_transactions + !l;
  s.Cost.const_transactions <- s.Cost.const_transactions + !c;
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
      ~misses:wg.wg_misses ~alu:wg.wg_alu ~fdiv:wg.wg_fdiv ~global:!g ~local:!l
      ~const:!c ~barriers:wg.wg_barriers ()
  in
  s.Cost.total_wg_cycles <- s.Cost.total_wg_cycles + wg_cycles;
  if wg_cycles > s.Cost.max_wg_cycles then s.Cost.max_wg_cycles <- wg_cycles;
  Option.iter (attribute_wg wg) wg.attribution;
  Option.iter (cache_attribute_wg wg) wg.cache_tab

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
    ?cache_model ?cache ~(module_op : Core.op) ~(kernel : Core.op)
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
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun f -> Hashtbl.replace funcs (Core.func_sym f) f)
    (Core.funcs module_op);
  let body = Core.func_body kernel in
  let params_list = Core.block_args body in
  (* Iterate over all work-groups. *)
  let n_groups = Array.fold_left ( * ) 1 group_range in
  let items_per_group = Array.fold_left ( * ) 1 wg_size in
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
     accumulate only affects scheduling, never the merged totals). *)
  let run_group (into : Cost.launch_stats) (atab : Attribution.table option)
      (ctab : Cache.table option) (g : int) =
    let grp = unflatten group_range g in
    let wg =
      {
        params;
        stats = into;
        footprint =
          (match footprints with Some a -> Some a.(g) | None -> None);
        locals = Hashtbl.create 4;
        mem_table = Hashtbl.create 256;
        attribution = atab;
        op_charges = Hashtbl.create 64;
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
        cur_barrier = None;
        wg_alu = 0;
        wg_fdiv = 0;
        wg_barriers = 0;
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
          let ctx =
            {
              wg;
              gid;
              lid;
              grp;
              global_range = global;
              local_range = wg_size;
              group_range;
              subgroup = lin_lid / params.Cost.subgroup_size;
              env = Hashtbl.create 64;
              occ = Hashtbl.create 16;
              funcs;
            }
          in
          fun () ->
            List.iteri
              (fun i p ->
                if i < Array.length args then bind ctx p args.(i)
                else raise (Sim_error "missing kernel argument"))
              params_list;
            ignore (exec_block ctx body))
    in
    run_workgroup wg thunks;
    flush_wg wg items_per_group
  in
  (* Balanced contiguous chunks of the canonical group order, one per
     domain; chunk 0 runs on the calling domain, so [d = 1] is the
     sequential backend. *)
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
    let failure = ref None in
    let start, stop = chunk i in
    let g = ref start in
    (try
       while !g < stop do
         run_group s at ct !g;
         incr g
       done
     with e -> failure := Some (!g, e));
    (* Chunk-private shard: recorded inside the worker domain, no
       contention with the other chunks. *)
    (match sharded with
    | Some sh -> record_shard (Sycl_obs.Metrics.Sharded.shard sh i) s
    | None -> ());
    (s, at, ct, !failure)
  in
  let workers =
    Array.init (d - 1) (fun i -> Domain.spawn (fun () -> run_chunk (i + 1)))
  in
  let first = run_chunk 0 in
  let results = Array.append [| first |] (Array.map Domain.join workers) in
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
