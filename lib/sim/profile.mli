(** Simulator trace profiling: a timeline of every cost-model charge in
    a run, recorded as {!Sycl_obs.Trace} spans (exported by
    {!Sycl_obs.Trace.to_json}), plus per-kernel profiles aggregated from
    the same spans.

    Time convention: 1 simulated cycle = 1 us of trace time, so cycle
    counts read directly off the trace viewer. *)

(** One run's simulated timeline (the host runtime is in-order). *)
type recorder

val recorder : unit -> recorder

(** Append a span at the recorder's clock and advance the clock by
    [dur]. Category ["kernel"] goes on the device lane; the others
    (["submit"], ["transfer"], ["jit"], ["launch"]) go on the
    host-runtime lane. Zero-duration charges are dropped. *)
val record :
  recorder ->
  cat:string ->
  name:string ->
  ?args:(string * int) list ->
  dur:int ->
  unit ->
  unit

(** Recorded spans, oldest first; timestamps in simulated cycles from
    the start of the run. *)
val events : recorder -> Sycl_obs.Trace.span list

(** Cycle breakdown of a launch — the args payload of a kernel span:
    compute/memory/barrier cycles (summing to [total_wg_cycles]),
    transaction and work-item counts, [total_wg_cycles],
    [max_wg_cycles], [num_cu]. *)
val breakdown : Cost.params -> Cost.launch_stats -> (string * int) list

type kernel_profile = {
  kp_name : string;
  kp_launches : int;
  kp_launch_cycles : int;  (** host-side launch overhead *)
  kp_device_cycles : int;
      (** device wall time (work-groups spread over CUs) *)
  kp_compute_cycles : int;
  kp_memory_cycles : int;
  kp_barrier_cycles : int;
  kp_global_transactions : int;
  kp_local_transactions : int;
  kp_const_transactions : int;
  kp_work_items : int;
  kp_occupancy : float;
      (** total work-group cycles / (num_cu * device wall cycles),
          clamped to 1 *)
}

(** Aggregate per-kernel profiles from a run's spans: cat ["kernel"]
    spans carry the {!breakdown} payload; cat ["launch"] spans share
    the kernel's name and contribute [kp_launch_cycles]. Ordered by
    first launch. *)
val of_events : Sycl_obs.Trace.span list -> kernel_profile list

val pp_table : Format.formatter -> kernel_profile list -> unit
