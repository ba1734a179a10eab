(* Simulator trace profiling: a timeline of everything the cost model
   charges during a run (scheduler bookkeeping, transfers, JIT, launch
   overhead, device execution), recorded directly as {!Sycl_obs.Trace}
   spans — kernel execution on the device lane, every other charge on
   the host-runtime lane — plus per-kernel profiles aggregated from the
   same spans.

   Time convention: one simulated cycle is one trace microsecond, so
   cycle counts read directly off the trace viewer. *)

module Trace = Sycl_obs.Trace

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(** One run's simulated timeline. The host runtime is in-order and a
    run records on its own domain, so each charge simply starts where
    the previous one ended. *)
type recorder = {
  mutable rc_clock : int;
  mutable rc_rev : Trace.span list;  (** newest first *)
}

let recorder () = { rc_clock = 0; rc_rev = [] }

let record (r : recorder) ~(cat : string) ~(name : string)
    ?(args = []) ~(dur : int) () =
  if dur > 0 then begin
    r.rc_rev <-
      { Trace.sp_name = name; sp_cat = cat;
        sp_lane = (if cat = "kernel" then Trace.Device else Trace.Host);
        sp_ts = r.rc_clock; sp_dur = dur; sp_args = args }
      :: r.rc_rev;
    r.rc_clock <- r.rc_clock + dur
  end

let events (r : recorder) = List.rev r.rc_rev

(* ------------------------------------------------------------------ *)
(* Kernel event payload                                                *)
(* ------------------------------------------------------------------ *)

(** Cycle breakdown of a launch under [p]: the categories the cost model
    charges per work-group, totalled across the launch. *)
let breakdown (p : Cost.params) (s : Cost.launch_stats) : (string * int) list =
  (* Under a non-flat cache model the global component prices hits and
     misses separately (same formula the work-group cost used); the
     cache counters ride along so trace viewers can chart hit rates. *)
  let global_cycles =
    if Cost.cache_active s then
      (s.Cost.cache_hits * p.Cost.cache_hit_cycles)
      + (s.Cost.cache_misses * p.Cost.global_mem_cycles)
    else s.Cost.global_transactions * p.Cost.global_mem_cycles
  in
  let memory_cycles =
    global_cycles
    + (s.Cost.local_transactions * p.Cost.local_mem_cycles)
    + (s.Cost.const_transactions * p.Cost.const_mem_cycles)
  and barrier_cycles = s.Cost.barriers * p.Cost.barrier_cycles in
  [
    (* {!Cost.wg_cycles} amortizes ALU and fdiv charges over the
       sub-group width, flooring once per work-group. Memory and barrier
       charges are linear, so compute is exactly what they leave of the
       work-group cycles. *)
    ("compute_cycles", s.Cost.total_wg_cycles - memory_cycles - barrier_cycles);
    ("memory_cycles", memory_cycles);
    ("barrier_cycles", barrier_cycles);
    ("global_transactions", s.Cost.global_transactions);
    ("local_transactions", s.Cost.local_transactions);
    ("const_transactions", s.Cost.const_transactions);
    ("work_groups", s.Cost.work_groups);
    ("work_items", s.Cost.work_items);
    ("total_wg_cycles", s.Cost.total_wg_cycles);
    ("max_wg_cycles", s.Cost.max_wg_cycles);
    ("num_cu", p.Cost.num_cu);
  ]
  @
  if Cost.cache_active s then
    [
      ("cache_hits", s.Cost.cache_hits);
      ("cache_misses", s.Cost.cache_misses);
      ("cache_evictions", s.Cost.cache_evictions);
      ("cache_mem_wait_cycles", s.Cost.cache_mem_wait_cycles);
    ]
  else []

(* ------------------------------------------------------------------ *)
(* Per-kernel profiles                                                 *)
(* ------------------------------------------------------------------ *)

type kernel_profile = {
  kp_name : string;
  kp_launches : int;
  kp_launch_cycles : int;  (** host-side launch overhead *)
  kp_device_cycles : int;  (** device wall time (work-groups spread over CUs) *)
  kp_compute_cycles : int;
  kp_memory_cycles : int;
  kp_barrier_cycles : int;
  kp_global_transactions : int;
  kp_local_transactions : int;
  kp_const_transactions : int;
  kp_work_items : int;
  kp_occupancy : float;
      (** fraction of CU capacity busy while the kernel ran:
          total work-group cycles / (num_cu * device wall cycles) *)
}

let arg (sp : Trace.span) k =
  match List.assoc_opt k sp.Trace.sp_args with Some v -> v | None -> 0

(** Aggregate per-kernel profiles from a run's spans. Kernel execution
    spans (cat ["kernel"]) carry the {!breakdown} payload; launch-
    overhead spans (cat ["launch"]) share the kernel's name and
    contribute [kp_launch_cycles]. Order follows first launch. *)
let of_events (evs : Trace.span list) : kernel_profile list =
  let tbl : (string, kernel_profile) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some p -> p
    | None ->
      order := name :: !order;
      {
        kp_name = name;
        kp_launches = 0;
        kp_launch_cycles = 0;
        kp_device_cycles = 0;
        kp_compute_cycles = 0;
        kp_memory_cycles = 0;
        kp_barrier_cycles = 0;
        kp_global_transactions = 0;
        kp_local_transactions = 0;
        kp_const_transactions = 0;
        kp_work_items = 0;
        kp_occupancy = 0.;
      }
  in
  (* The occupancy numerator/denominator accumulate separately. *)
  let busy : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let num_cu : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.span) ->
      let name = e.Trace.sp_name in
      match e.Trace.sp_cat with
      | "kernel" ->
        let p = get name in
        Hashtbl.replace busy name
          (Option.value ~default:0 (Hashtbl.find_opt busy name)
          + arg e "total_wg_cycles");
        Hashtbl.replace num_cu name (arg e "num_cu");
        Hashtbl.replace tbl name
          {
            p with
            kp_launches = p.kp_launches + 1;
            kp_device_cycles = p.kp_device_cycles + e.Trace.sp_dur;
            kp_compute_cycles = p.kp_compute_cycles + arg e "compute_cycles";
            kp_memory_cycles = p.kp_memory_cycles + arg e "memory_cycles";
            kp_barrier_cycles = p.kp_barrier_cycles + arg e "barrier_cycles";
            kp_global_transactions =
              p.kp_global_transactions + arg e "global_transactions";
            kp_local_transactions =
              p.kp_local_transactions + arg e "local_transactions";
            kp_const_transactions =
              p.kp_const_transactions + arg e "const_transactions";
            kp_work_items = p.kp_work_items + arg e "work_items";
          }
      | "launch" ->
        let p = get name in
        Hashtbl.replace tbl name
          { p with kp_launch_cycles = p.kp_launch_cycles + e.Trace.sp_dur }
      | _ -> ())
    evs;
  List.rev_map
    (fun name ->
      let p = Hashtbl.find tbl name in
      let cu = Option.value ~default:0 (Hashtbl.find_opt num_cu name) in
      let b = Option.value ~default:0 (Hashtbl.find_opt busy name) in
      let occ =
        if cu > 0 && p.kp_device_cycles > 0 then
          min 1.0 (float_of_int b /. float_of_int (cu * p.kp_device_cycles))
        else 0.
      in
      { p with kp_occupancy = occ })
    !order

let pp_table fmt (ps : kernel_profile list) =
  Format.fprintf fmt
    "%-24s %8s %10s %10s %10s %10s %9s %16s %9s %6s@\n"
    "kernel" "launches" "launch" "device" "compute" "memory" "barrier"
    "tx(g/l/c)" "items" "occ";
  List.iter
    (fun p ->
      Format.fprintf fmt
        "%-24s %8d %10d %10d %10d %10d %9d %16s %9d %5.0f%%@\n"
        p.kp_name p.kp_launches p.kp_launch_cycles p.kp_device_cycles
        p.kp_compute_cycles p.kp_memory_cycles p.kp_barrier_cycles
        (Printf.sprintf "%d/%d/%d" p.kp_global_transactions
           p.kp_local_transactions p.kp_const_transactions)
        p.kp_work_items
        (100. *. p.kp_occupancy))
    ps
