(** Compiler driver: the three compiler configurations compared in the
    paper's evaluation (Section VIII) and their pass pipelines.

    - {!Dpcpp}: the LLVM-based baseline; SMCP flow (Fig. 1, dotted path) —
      device code compiled in isolation from the host, generic
      optimizations only.
    - {!Sycl_mlir}: the paper's compiler; joint host/device module
      (Fig. 1, dashed path) — host raising, host-device propagation, then
      the SYCL-aware device pipeline.
    - {!Adaptive_cpp}: an SSCP JIT comparator — generic compile, with
      {!specialize_at_launch} invoked by the runtime at first launch using
      runtime information. *)

open Mlir

type mode =
  | Dpcpp
  | Sycl_mlir
  | Adaptive_cpp

val mode_to_string : mode -> string

type config = {
  mode : mode;
  enable_licm : bool;
  enable_reduction : bool;
  enable_internalization : bool;
  enable_host_device : bool;
  enable_fusion : bool;  (** the Section VII fusion extension (default off) *)
  enable_lowering : bool;
      (** progressive lowering to the flattened kernel ABI (default off) *)
  verify_each : bool;
}

(** Build a configuration; every optimization defaults to on except
    fusion (not part of the paper's evaluated compiler) and per-pass
    verification. *)
val config :
  ?enable_licm:bool ->
  ?enable_reduction:bool ->
  ?enable_internalization:bool ->
  ?enable_host_device:bool ->
  ?enable_fusion:bool ->
  ?enable_lowering:bool ->
  ?verify_each:bool ->
  mode ->
  config

(** Canonical serialization of a configuration (mode + every ablation
    switch), used as the pipeline half of the compile service's
    content-addressed cache key: equal keys iff equal configs. *)
val config_key : config -> string

(** Restricted LICM hoisting only pure speculatable ops — the baseline's
    level of loop-invariant code motion. *)
val licm_pure_pass : Pass.t

(** Device pipeline for a configuration. *)
val device_pipeline : config -> Pass.t list

(** Host pipeline (raising always runs so the runtime can execute the
    module; host-device propagation only under {!Sycl_mlir}). *)
val host_pipeline : config -> Pass.t list

(** The host pipeline, then the device pipeline: what {!compile} runs. *)
val pipeline : config -> Pass.t list

type compiled = {
  cfg : config;
  joint : Core.op;  (** the module: host main + device kernels *)
  pipeline_result : Pass.pipeline_result;
}

exception Compile_error of string

(** Compile a joint module in place. [instrumentations] are threaded to
    {!Pass.run_pipeline}. *)
val compile :
  ?instrumentations:Instrument.t list -> config -> Core.op -> compiled

(** Innermost module ancestor of an op. *)
val top_module : Core.op -> Core.op option

(** AdaptiveCpp-style JIT specialization at first kernel launch: the
    runtime supplies the actual launch configuration and runtime-derived
    facts; the kernel is optimized in place. Returns the pass statistics
    of the specialization. *)
val specialize_at_launch :
  Core.op ->
  global:int list ->
  wg:int list ->
  noalias_pairs:(int * int) list ->
  constant_args:int list ->
  Pass.Stats.t
