(* Host-program execution: interprets the raised host module (the
   sycl.host ops plus the scalar/control ops the frontend emits around
   them), drives the scheduler, performs host<->device transfers, and
   launches kernels on the device simulator.

   Cost accounting (everything the evaluation measures):
   - per command group: scheduler bookkeeping;
   - per launch: base overhead + per-argument overhead for the arguments
     the runtime actually passes (dead arguments, as marked by SYCL Dead
     Argument Elimination, are skipped — Section VII-B);
   - transfers host<->device per cache line;
   - device cycles from the simulator;
   - for AdaptiveCpp-style JIT configurations, a one-time JIT charge at
     first launch of each kernel (via [launch_hook]). *)

open Mlir
module Interp = Sycl_sim.Interp
module Memory = Sycl_sim.Memory
module Cost = Sycl_sim.Cost
module Profile = Sycl_sim.Profile
module Sim_config = Sycl_sim.Sim_config
module Sycl_types = Sycl_core.Sycl_types
module Sycl_host_ops = Sycl_core.Sycl_host_ops
module Dead_arg_elim = Sycl_core.Dead_arg_elim
module Metrics = Sycl_obs.Metrics

exception Host_error of string

type hv =
  | Scalar of Interp.rv
  | Queue of Objects.queue
  | Handler of Objects.handler
  | Buffer of Objects.buffer
  | Accessor of Objects.accessor
  | Usm of Memory.allocation

let as_scalar = function Scalar rv -> rv | _ -> raise (Host_error "expected scalar")
let as_int v = Interp.as_int (as_scalar v)
let as_handler = function Handler h -> h | _ -> raise (Host_error "expected handler")
let as_buffer = function Buffer b -> b | _ -> raise (Host_error "expected buffer")

(** Runtime information handed to the JIT specialization hook at first
    launch of a kernel (AdaptiveCpp configuration). *)
type launch_info = {
  li_global : int list;
  li_wg : int list;
  li_noalias_pairs : (int * int) list;
  li_constant_args : int list;
}

type run_result = {
  total_cycles : int;
  device_cycles : int;
  launch_overhead_cycles : int;
  transfer_cycles : int;
  scheduler_cycles : int;
  jit_cycles : int;
  kernel_launches : int;
  dependency_edges : int;
  per_kernel : (string * Cost.launch_stats) list;
  per_kernel_attribution : (string * Sycl_sim.Attribution.table) list;
      (** source-attributed charge tables, one per launch, in launch
          order (paired 1:1 with [per_kernel]); with a cache view under
          a non-flat cache model *)
  events : Sycl_obs.Trace.span list;
      (** the run's charge timeline in simulated cycles: host-runtime
          and device-lane spans, for trace export and profiling *)
  metrics : Metrics.registry;
      (** runtime event counters and latency histograms ([runtime.*]),
          plus device execution counters ([sim.*]) *)
}

(* Every run is priced with the one cost model. *)
let params = Cost.default

type state = {
  module_op : Core.op;
  env : (int, hv) Hashtbl.t;
  globals : (string, Memory.allocation) Hashtbl.t;
  (* Device copies of raw host data captures, keyed by host alloc id. *)
  device_copies : (int, Memory.allocation) Hashtbl.t;
  launch_hook : (Core.op -> launch_info -> unit) option;
  jit_cycles_per_kernel : int;
  jitted : (string, unit) Hashtbl.t;
  (* Kernels decoded for the simulator, by name. A kernel is decoded at
     its first launch, after the JIT hook has specialized it, and the
     run changes no kernel after that. *)
  decoded : (string, Interp.program) Hashtbl.t;
  sim : Sim_config.t;
  recorder : Profile.recorder;
  metrics : Metrics.registry;
  mutable r_device : int;
  mutable r_launch : int;
  mutable r_transfer : int;
  mutable r_sched : int;
  mutable r_jit : int;
  mutable r_launch_count : int;
  mutable r_deps : int;
  mutable r_per_kernel : (string * Cost.launch_stats) list;
  mutable r_attribution : (string * Sycl_sim.Attribution.table) list;
}

let lookup st (v : Core.value) =
  match Hashtbl.find_opt st.env v.Core.vid with
  | Some hv -> hv
  | None -> raise (Host_error "use of unbound host value")

let bind st (v : Core.value) hv = Hashtbl.replace st.env v.Core.vid hv

(* Host-side globals (constant tables such as the Sobel filter). *)
let global_alloc st name =
  match Hashtbl.find_opt st.globals name with
  | Some a -> a
  | None -> (
    match Dialects.Llvm.lookup_global st.module_op name with
    | Some g ->
      let alloc size =
        Memory.alloc ~label:("global:" ^ name) ~space:Types.Global ~size ()
      in
      let a =
        match Core.attr g "value" with
        | Some (Attr.Dense_float xs) ->
          let a = alloc (Array.length xs) in
          Array.iteri (Memory.set_float a) xs;
          a
        | Some (Attr.Dense_int xs) ->
          let a = alloc (Array.length xs) in
          Array.iteri (Memory.set_int a) xs;
          a
        | _ -> raise (Host_error ("global without dense value: " ^ name))
      in
      if Core.attr g "constant" = Some (Attr.Bool true) then
        a.Memory.constant_cached <- true;
      Hashtbl.replace st.globals name a;
      a
    | None -> raise (Host_error ("unknown global " ^ name)))

(* ------------------------------------------------------------------ *)
(* Kernel launch                                                       *)
(* ------------------------------------------------------------------ *)

let accessor_desc (b : Objects.buffer) (a : Objects.accessor)
    (dev : Memory.allocation) : Interp.acc_desc =
  {
    Interp.a_alloc = dev;
    Interp.a_range = a.Objects.acc_range;
    Interp.a_mem_range = b.Objects.b_dims;
    Interp.a_offset = a.Objects.acc_offset;
    Interp.a_is_float = b.Objects.b_is_float;
  }

let launch_kernel st (q : Objects.queue) (h : Objects.handler) =
  let kernel_name =
    match h.Objects.h_kernel with
    | Some k -> k
    | None -> raise (Host_error "parallel_for without kernel")
  in
  let kernel =
    match Core.lookup_func st.module_op kernel_name with
    | Some k -> k
    | None -> raise (Host_error ("unknown kernel " ^ kernel_name))
  in
  let global = h.Objects.h_global in
  let wg =
    match h.Objects.h_local with
    | Some l -> l
    | None -> Sycl_core.Launch_policy.default_wg_size global
  in
  (* End-to-end latency of this launch: every cycle charged between
     queue submission and device completion (observed into the
     launch-latency histogram at the end). *)
  let latency = ref 0 in
  let charge c = latency := !latency + c in
  let h2d ~label ~bytes cost =
    st.r_transfer <- st.r_transfer + cost;
    charge cost;
    if cost > 0 then begin
      Metrics.incr st.metrics "runtime.transfers_h2d";
      Metrics.incr st.metrics ~by:bytes "runtime.transfer_bytes_h2d"
    end;
    Profile.record st.recorder ~cat:"transfer" ~name:("h2d:" ^ label)
      ~args:[ ("bytes", bytes) ] ~dur:cost ()
  in
  (* Queue submit: scheduler bookkeeping + dependency edges from the
     buffer/accessor model (the DAG waits this command group incurred). *)
  let deps = Objects.dependencies_of h.Objects.h_captures in
  st.r_deps <- st.r_deps + List.length deps;
  st.r_sched <- st.r_sched + params.Cost.scheduler_cycles;
  charge params.Cost.scheduler_cycles;
  Metrics.incr st.metrics "runtime.submits";
  Metrics.incr st.metrics ~by:(List.length deps) "runtime.dag_wait_edges";
  Profile.record st.recorder ~cat:"submit" ~name:("submit:" ^ kernel_name)
    ~args:[ ("dependency_edges", List.length deps) ]
    ~dur:params.Cost.scheduler_cycles ();
  (* Data movement + argument binding. *)
  let max_idx =
    List.fold_left (fun acc (i, _) -> max acc i) 0 h.Objects.h_captures
  in
  let args = Array.make (max_idx + 1) Interp.Item in
  let noalias = ref [] in
  let const_args = ref [] in
  let accessor_allocs = ref [] in
  List.iter
    (fun (idx, cap) ->
      match cap with
      | Objects.Cap_accessor a ->
        let b = a.Objects.acc_buffer in
        let dev, cost = Objects.ensure_on_device params b in
        h2d ~label:b.Objects.b_host.Memory.label
          ~bytes:(Objects.buffer_bytes b) cost;
        (match a.Objects.acc_mode with
        | Sycl_types.Write | Sycl_types.Read_write -> b.Objects.b_device_dirty <- true
        | Sycl_types.Read -> ());
        args.(idx) <- Interp.Acc (accessor_desc b a dev);
        accessor_allocs := (idx, dev.Memory.aid) :: !accessor_allocs
      | Objects.Cap_scalar rv -> args.(idx) <- rv
      | Objects.Cap_usm alloc ->
        args.(idx) <- Interp.Mem (Memory.full_view alloc)
      | Objects.Cap_host_mem view ->
        (* Raw host data referenced from the kernel: copied to the device
           on first use. Whether the device may treat it as
           constant-cached is decided by compiler information (the
           sycl.constant_args attribute) or, for JIT configurations, the
           runtime's own knowledge surfaced through [li_constant_args] —
           never by default. *)
        let host = view.Memory.base in
        let dev =
          match Hashtbl.find_opt st.device_copies host.Memory.aid with
          | Some d -> d
          | None ->
            let elems = Memory.size host in
            let d =
              Memory.alloc ~label:("dev:" ^ host.Memory.label)
                ~space:Types.Global ~size:elems ()
            in
            Memory.blit ~src:(Memory.full_view host) ~dst:(Memory.full_view d)
              elems;
            h2d ~label:host.Memory.label ~bytes:(elems * Objects.elem_bytes)
              (Cost.transfer_cycles params ~elems);
            Hashtbl.replace st.device_copies host.Memory.aid d;
            d
        in
        if host.Memory.constant_cached then const_args := idx :: !const_args;
        args.(idx) <- Interp.Mem (Memory.full_view ~dims:view.Memory.dims dev))
    h.Objects.h_captures;
  (* AdaptiveCpp-style JIT specialization at first launch. *)
  (match st.launch_hook with
  | Some hook when not (Hashtbl.mem st.jitted kernel_name) ->
    Hashtbl.replace st.jitted kernel_name ();
    st.r_jit <- st.r_jit + st.jit_cycles_per_kernel;
    charge st.jit_cycles_per_kernel;
    Metrics.incr st.metrics "runtime.jit_specializations";
    Profile.record st.recorder ~cat:"jit" ~name:("jit:" ^ kernel_name)
      ~dur:st.jit_cycles_per_kernel ();
    let pairs = ref [] in
    List.iteri
      (fun i (idx_a, aid_a) ->
        List.iteri
          (fun j (idx_b, aid_b) ->
            if j > i && aid_a <> aid_b then pairs := (idx_a, idx_b) :: !pairs)
          !accessor_allocs)
      !accessor_allocs;
    hook kernel
      {
        li_global = global;
        li_wg = wg;
        li_noalias_pairs = !pairs;
        li_constant_args = !const_args;
      }
  | _ -> ());
  (* Constant-cached arguments marked by compile-time host analysis. *)
  (match Core.attr kernel "sycl.constant_args" with
  | Some (Attr.Array xs) ->
    List.iter
      (fun a ->
        match Attr.as_int a with
        | Some idx when idx < Array.length args -> (
          match args.(idx) with
          | Interp.Mem v -> v.Memory.base.Memory.constant_cached <- true
          | Interp.Acc d -> d.Interp.a_alloc.Memory.constant_cached <- true
          | _ -> ())
        | _ -> ())
      xs
  | _ -> ());
  (* Lowered-ABI kernels (Lower_sycl) take DPC++'s flattened accessor
     arguments: expand each accessor capture into data + range +
     mem_range + offset scalars. *)
  let args, live_args =
    match Sycl_core.Lower_sycl.expansion_of_kernel kernel with
    | None ->
      (* Launch overhead covers the arguments actually passed: dead
         arguments (SYCL Dead Argument Elimination) are skipped. *)
      let dead = Dead_arg_elim.dead_args kernel in
      (args, max 0 (List.length h.Objects.h_captures - List.length dead))
    | Some expansion ->
      let expanded = ref [ Interp.Item ] in
      List.iteri
        (fun i d ->
          let idx = i + 1 in
          let plain = if idx < Array.length args then args.(idx) else Interp.Unit in
          match (plain, d) with
          | Interp.Acc desc, d when d > 0 ->
            let data =
              Interp.Mem (Memory.full_view desc.Interp.a_alloc)
            in
            let scalars arr = Array.to_list (Array.map (fun x -> Interp.I x) arr) in
            expanded :=
              !expanded
              @ (data :: scalars desc.Interp.a_range)
              @ scalars desc.Interp.a_mem_range
              @ scalars desc.Interp.a_offset
          | v, _ -> expanded := !expanded @ [ v ])
        expansion;
      let arr = Array.of_list !expanded in
      (arr, Array.length arr - 1)
  in
  let overhead = Cost.launch_overhead params ~live_args in
  st.r_launch <- st.r_launch + overhead;
  st.r_launch_count <- st.r_launch_count + 1;
  charge overhead;
  Metrics.incr st.metrics "runtime.kernel_launches";
  Metrics.incr st.metrics ~by:overhead "runtime.launch_overhead_cycles";
  Profile.record st.recorder ~cat:"launch" ~name:kernel_name
    ~args:[ ("live_args", live_args) ] ~dur:overhead ();
  (* Execute on the device simulator. Attribution is always collected:
     it is a pure side table (the conservation oracle checks it equals
     the aggregate stats exactly), so collection cannot perturb the
     run — rendering it is what the --annotate surfaces gate. *)
  let attribution = Sycl_sim.Attribution.create () in
  let program =
    match Hashtbl.find_opt st.decoded kernel_name with
    | Some p -> p
    | None ->
      let p = Interp.decode ~module_op:st.module_op ~kernel in
      Hashtbl.replace st.decoded kernel_name p;
      p
  in
  let stats =
    Interp.launch ~config:st.sim ~metrics:st.metrics ~attribution ~program
      ~module_op:st.module_op ~kernel ~args ~global ~wg_size:wg ()
  in
  let dev_cycles = Cost.device_cycles params stats in
  st.r_device <- st.r_device + dev_cycles;
  charge dev_cycles;
  Profile.record st.recorder ~cat:"kernel" ~name:kernel_name
    ~args:(Profile.breakdown params stats) ~dur:dev_cycles ();
  Metrics.observe st.metrics ~bounds:Metrics.latency_bounds
    "runtime.launch_latency_cycles" !latency;
  st.r_per_kernel <- (kernel_name, stats) :: st.r_per_kernel;
  st.r_attribution <- (kernel_name, attribution) :: st.r_attribution;
  let cmd_id = q.Objects.q_next_cmd in
  q.Objects.q_next_cmd <- cmd_id + 1;
  q.Objects.q_commands <-
    { Objects.cmd_id; Objects.cmd_kernel = kernel_name; Objects.cmd_deps = deps }
    :: q.Objects.q_commands;
  Objects.note_command h.Objects.h_captures cmd_id

(* ------------------------------------------------------------------ *)
(* Host op execution                                                   *)
(* ------------------------------------------------------------------ *)

let rec exec_block st (b : Core.block) : hv list =
  let rec go = function
    | [] -> []
    | op :: rest -> (
      match exec_op st op with
      | `Next -> go rest
      | `Yield vs -> vs)
  in
  go (Core.ops b)

and exec_op st (op : Core.op) : [ `Next | `Yield of hv list ] =
  let operand i = lookup st (Core.operand op i) in
  let bind_result i hv = bind st (Core.result op i) hv in
  match op.Core.name with
  | "arith.constant" -> (
    match Core.attr op "value" with
    | Some (Attr.Int i) -> bind_result 0 (Scalar (Interp.I i)); `Next
    | Some (Attr.Float f) -> bind_result 0 (Scalar (Interp.F f)); `Next
    | Some (Attr.Bool b) -> bind_result 0 (Scalar (Interp.I (Bool.to_int b))); `Next
    | _ -> raise (Host_error "host constant without numeric value"))
  | "arith.addi" -> bind_result 0 (Scalar (Interp.I (as_int (operand 0) + as_int (operand 1)))); `Next
  | "arith.subi" -> bind_result 0 (Scalar (Interp.I (as_int (operand 0) - as_int (operand 1)))); `Next
  | "arith.muli" -> bind_result 0 (Scalar (Interp.I (as_int (operand 0) * as_int (operand 1)))); `Next
  | "arith.divsi" -> bind_result 0 (Scalar (Interp.I (as_int (operand 0) / as_int (operand 1)))); `Next
  | "arith.cmpi" ->
    let p = Option.get (Dialects.Arith.icmp_predicate op) in
    bind_result 0
      (Scalar (Interp.I (Bool.to_int (Dialects.Arith.eval_icmp p (as_int (operand 0)) (as_int (operand 1))))));
    `Next
  | "arith.index_cast" -> bind_result 0 (operand 0); `Next
  | "scf.for" ->
    let lb = as_int (operand 0) and ub = as_int (operand 1) and step = as_int (operand 2) in
    let body = Dialects.Scf.for_body op in
    let iv = Core.block_arg body 0 in
    let rec iterate i =
      if i < ub then begin
        bind st iv (Scalar (Interp.I i));
        ignore (exec_block st body);
        iterate (i + step)
      end
    in
    iterate lb;
    `Next
  | "scf.if" ->
    let c = as_int (operand 0) <> 0 in
    if c then ignore (exec_block st (Core.entry_block op.Core.regions.(0)))
    else if Core.num_regions op > 1 then
      ignore (exec_block st (Core.entry_block op.Core.regions.(1)));
    `Next
  | "scf.yield" -> `Yield []
  | "llvm.addressof" -> (
    match Core.attr_symbol op "global_name" with
    | Some name ->
      let a = global_alloc st name in
      bind_result 0 (Scalar (Interp.Mem (Memory.full_view a)));
      `Next
    | None -> raise (Host_error "addressof without global"))
  | "sycl.host.queue_ctor" ->
    bind_result 0 (Queue (Objects.make_queue ()));
    `Next
  | "sycl.host.buffer_ctor" -> (
    let dims =
      List.tl (Core.operands op)
      |> List.map (fun v -> as_int (lookup st v))
      |> Array.of_list
    in
    match operand 0 with
    | Scalar (Interp.Mem host_view) ->
      let is_float =
        match (Core.result op 0).Core.vty with
        | Sycl_types.Buffer { buf_element; _ } -> Types.is_float buf_element
        | _ -> true
      in
      bind_result 0
        (Buffer (Objects.make_buffer ~dims ~is_float host_view.Memory.base));
      `Next
    | _ -> raise (Host_error "buffer_ctor over non-memory host data"))
  | "sycl.host.submit" ->
    bind_result 0 (Handler (Objects.make_handler ()));
    `Next
  | "sycl.host.accessor_ctor" ->
    let b = as_buffer (operand 0) in
    let mode =
      Option.value ~default:Sycl_types.Read_write
        (Sycl_core.Sycl_host_ops.accessor_ctor_mode op)
    in
    let n = Array.length b.Objects.b_dims in
    let ranged = Core.attr op "ranged" = Some (Attr.Bool true) in
    let range, offset =
      if ranged then begin
        let rest = List.filteri (fun i _ -> i >= 2) (Core.operands op) in
        let vals = List.map (fun v -> as_int (lookup st v)) rest in
        ( Array.of_list (List.filteri (fun i _ -> i < n) vals),
          Array.of_list (List.filteri (fun i _ -> i >= n) vals) )
      end
      else (Array.copy b.Objects.b_dims, Array.make n 0)
    in
    bind_result 0
      (Accessor { Objects.acc_buffer = b; acc_mode = mode; acc_range = range; acc_offset = offset });
    `Next
  | "sycl.host.set_captured" -> (
    let h = as_handler (operand 0) in
    let idx = Sycl_host_ops.set_captured_index op in
    let cap =
      match operand 1 with
      | Accessor a -> Objects.Cap_accessor a
      | Scalar (Interp.Mem v) -> Objects.Cap_host_mem v
      | Scalar rv -> Objects.Cap_scalar rv
      | Usm a -> Objects.Cap_usm a
      | Buffer _ | Queue _ | Handler _ ->
        raise (Host_error "cannot capture this host object")
    in
    h.Objects.h_captures <- (idx, cap) :: h.Objects.h_captures;
    `Next)
  | "sycl.host.set_nd_range" ->
    let h = as_handler (operand 0) in
    h.Objects.h_global <-
      List.map (fun v -> as_int (lookup st v)) (Sycl_host_ops.nd_range_global op);
    h.Objects.h_local <-
      Option.map
        (List.map (fun v -> as_int (lookup st v)))
        (Sycl_host_ops.nd_range_local op);
    `Next
  | "sycl.host.parallel_for" ->
    let h = as_handler (operand 0) in
    h.Objects.h_kernel <- Sycl_host_ops.parallel_for_kernel op;
    (* In DPC++/SYCL-MLIR the command group executes when dependencies
       allow; our in-order host interp executes it here. *)
    let q =
      (* Queue recovered from the submit that produced the handler. *)
      match Core.defining_op (Core.operand op 0) with
      | Some sub when Sycl_host_ops.is_submit sub -> (
        match lookup st (Core.operand sub 0) with
        | Queue q -> q
        | _ -> raise (Host_error "submit on non-queue"))
      | _ -> raise (Host_error "handler without submit")
    in
    launch_kernel st q h;
    `Next
  | "sycl.host.wait" -> `Next
  | "sycl.host.buffer_dtor" ->
    let b = as_buffer (operand 0) in
    let cost = Objects.sync_to_host params b in
    st.r_transfer <- st.r_transfer + cost;
    if cost > 0 then begin
      Metrics.incr st.metrics "runtime.transfers_d2h";
      Metrics.incr st.metrics ~by:(Objects.buffer_bytes b)
        "runtime.transfer_bytes_d2h"
    end;
    Profile.record st.recorder ~cat:"transfer"
      ~name:("d2h:" ^ b.Objects.b_host.Memory.label)
      ~args:[ ("bytes", Objects.buffer_bytes b) ]
      ~dur:cost ();
    `Next
  | "sycl.host.malloc_device" ->
    let n = as_int (operand 1) in
    let a = Memory.alloc ~label:"usm-device" ~space:Types.Global ~size:n () in
    bind_result 0 (Usm a);
    `Next
  | "sycl.host.memcpy" -> (
    let n = as_int (operand 3) in
    let view_of = function
      | Usm a -> Memory.full_view a
      | Scalar (Interp.Mem v) -> v
      | _ -> raise (Host_error "memcpy over non-memory value")
    in
    let dst = view_of (operand 1) and src = view_of (operand 2) in
    Memory.blit ~src ~dst n;
    let cost = Cost.transfer_cycles params ~elems:n in
    st.r_transfer <- st.r_transfer + cost;
    if cost > 0 then begin
      Metrics.incr st.metrics "runtime.memcpys";
      Metrics.incr st.metrics ~by:(n * Objects.elem_bytes)
        "runtime.memcpy_bytes"
    end;
    Profile.record st.recorder ~cat:"transfer" ~name:"memcpy"
      ~args:[ ("bytes", n * Objects.elem_bytes) ]
      ~dur:cost ();
    `Next)
  | "sycl.host.free" -> `Next
  | "func.return" -> `Yield []
  | name -> raise (Host_error ("host interpreter: unsupported op " ^ name))

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Execute host function [main] of [module_op]. [main_args.(i)] binds the
    i-th host argument, typically host data arrays wrapped as
    [Scalar (Interp.Mem view)]. *)
let run ?launch_hook ?(jit_cycles = 0)
    ?(sim_domains = Sim_config.(default.domains))
    ?(check_races = Sim_config.(default.check_races))
    ?(cache_model = Sim_config.(default.cache_model)) ~(module_op : Core.op)
    (main_args : hv list) : run_result =
  let f =
    match Core.lookup_func module_op "main" with
    | Some f -> f
    | None -> raise (Host_error "no host function main")
  in
  let st =
    {
      module_op;
      env = Hashtbl.create 128;
      globals = Hashtbl.create 8;
      device_copies = Hashtbl.create 8;
      launch_hook;
      jit_cycles_per_kernel = jit_cycles;
      jitted = Hashtbl.create 4;
      decoded = Hashtbl.create 4;
      sim = { Sim_config.domains = sim_domains; check_races; cache_model };
      recorder = Profile.recorder ();
      metrics = Metrics.create ();
      r_device = 0;
      r_launch = 0;
      r_transfer = 0;
      r_sched = 0;
      r_jit = 0;
      r_launch_count = 0;
      r_deps = 0;
      r_per_kernel = [];
      r_attribution = [];
    }
  in
  let body = Core.func_body f in
  List.iteri
    (fun i arg ->
      match List.nth_opt main_args i with
      | Some hv -> bind st arg hv
      | None -> raise (Host_error "missing host main argument"))
    (Core.block_args body);
  ignore (exec_block st body);
  {
    total_cycles = st.r_device + st.r_launch + st.r_transfer + st.r_sched + st.r_jit;
    device_cycles = st.r_device;
    launch_overhead_cycles = st.r_launch;
    transfer_cycles = st.r_transfer;
    scheduler_cycles = st.r_sched;
    jit_cycles = st.r_jit;
    kernel_launches = st.r_launch_count;
    dependency_edges = st.r_deps;
    per_kernel = List.rev st.r_per_kernel;
    per_kernel_attribution = List.rev st.r_attribution;
    events = Profile.events st.recorder;
    metrics = st.metrics;
  }
