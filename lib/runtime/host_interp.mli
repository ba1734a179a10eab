(** Host-program execution.

    Interprets the raised host module (the sycl.host ops plus the
    scalar/control ops the frontend emits around them), drives the
    scheduler, performs host<->device transfers, and launches kernels on
    the device simulator — accounting for every cost the evaluation
    measures (scheduler bookkeeping, launch overhead per live argument,
    transfers, device cycles, one-time JIT charges). *)

open Mlir
module Interp = Sycl_sim.Interp
module Memory = Sycl_sim.Memory
module Cost = Sycl_sim.Cost

exception Host_error of string

(** Host values. Host data arrays are passed as
    [Scalar (Interp.Mem view)]. *)
type hv =
  | Scalar of Interp.rv
  | Queue of Objects.queue
  | Handler of Objects.handler
  | Buffer of Objects.buffer
  | Accessor of Objects.accessor
  | Usm of Memory.allocation

(** Runtime information handed to the JIT-specialization hook at the
    first launch of each kernel (AdaptiveCpp configuration). *)
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
      (** per-op cycle/traffic attribution for each launch, in launch
          order parallel to [per_kernel]; always collected (a pure side
          table — it cannot perturb the simulation), rendered only when
          a profiling surface asks for it. Under a non-flat cache model
          each table also carries its launch's cache view: per-op
          hits, misses, evictions and reuse distances, and the
          reuse-distance histogram. *)
  events : Sycl_obs.Trace.span list;
      (** the run's charge timeline in simulated cycles: host-runtime
          and device-lane spans, for trace export and profiling *)
  metrics : Sycl_obs.Metrics.registry;
      (** runtime event counters and latency histograms ([runtime.*]:
          submits, DAG-wait edges, transfer bytes by direction, launch
          overhead, JIT specializations, launch-latency histogram) plus
          device execution counters ([sim.*]) *)
}

(** Execute host function [main] of the module, priced with
    {!Cost.default}. [launch_hook], when given, fires once per kernel at
    its first launch with the runtime launch information; [jit_cycles]
    is charged at the same time. [sim_domains], [check_races] and
    [cache_model] are the fields of the {!Sycl_sim.Sim_config.t} every
    {!Interp.launch} of the run gets, each defaulting to
    {!Sycl_sim.Sim_config.default}'s. They are separate arguments rather
    than the record because the wall-clock benchmark (bench/perf), which
    is kept unchanged between benchmark revisions, passes them this
    way; its next revision can move [run] to the record. *)
val run :
  ?launch_hook:(Core.op -> launch_info -> unit) ->
  ?jit_cycles:int ->
  ?sim_domains:int ->
  ?check_races:bool ->
  ?cache_model:Cost.cache_model ->
  module_op:Core.op ->
  hv list ->
  run_result
