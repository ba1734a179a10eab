(* Workload infrastructure shared by the SYCL-Bench and oneAPI-sample
   reproductions: deterministic data generation, module construction
   helpers, validation and the measurement harness comparing the three
   compiler configurations. *)

open Mlir
module Interp = Sycl_sim.Interp
module Memory = Sycl_sim.Memory
module Cost = Sycl_sim.Cost
module Sim_config = Sycl_sim.Sim_config
module Host_interp = Sycl_runtime.Host_interp
module Driver = Sycl_core.Driver
module Kernel = Sycl_frontend.Kernel
module Host = Sycl_frontend.Host
module Sycl_types = Sycl_core.Sycl_types

type category =
  | Single_kernel
  | Polybench
  | Stencil

let category_to_string = function
  | Single_kernel -> "single-kernel"
  | Polybench -> "polybench"
  | Stencil -> "stencil"

type workload = {
  w_name : string;
  w_category : category;
  w_problem_size : int;  (** scaled problem size actually used *)
  w_paper_size : int;  (** the size used in the paper's runs *)
  (* Fresh joint module (host main + kernels); compilation mutates it. *)
  w_module : unit -> Core.op;
  (* Fresh host data: main arguments plus a validation check to run after
     execution. *)
  w_data : unit -> Host_interp.hv list * (unit -> bool);
  (* Models AdaptiveCpp's validation failures on this workload (the paper
     reports several, shown as missing bars in Figs. 2 and 3). *)
  w_acpp_ok : bool;
}

(* ------------------------------------------------------------------ *)
(* Data helpers                                                        *)
(* ------------------------------------------------------------------ *)

let rng seed = Random.State.make [| 0x5eed; seed |]

let farray_init n f =
  let a = Memory.alloc ~label:"host-data" ~space:Types.Global ~size:n () in
  for i = 0 to n - 1 do
    Memory.set_float a i (f i)
  done;
  a

let farray_random st n =
  farray_init n (fun _ -> Random.State.float st 2.0 -. 1.0)

let farray_zeros n = farray_init n (fun _ -> 0.0)

let read_f (a : Memory.allocation) i = Memory.get_float a i

let harg (a : Memory.allocation) =
  Host_interp.Scalar (Interp.Mem (Memory.full_view a))

let iarg i = Host_interp.Scalar (Interp.I i)

(** Relative-error comparison with an absolute floor. *)
let approx_eq ?(tol = 1e-3) a b =
  let d = Float.abs (a -. b) in
  d <= tol || d <= tol *. Float.max (Float.abs a) (Float.abs b)

let check_array ?(tol = 1e-3) (a : Memory.allocation) (expected : float array) =
  let ok = ref true in
  Array.iteri
    (fun i e -> if not (approx_eq ~tol (read_f a i) e) then ok := false)
    expected;
  !ok

let fresh_module () = Core.create_module ()

(* ------------------------------------------------------------------ *)
(* Measurement harness                                                 *)
(* ------------------------------------------------------------------ *)

type measurement = {
  m_cycles : int;  (** modeled cycles, the one-time JIT charge left out *)
  m_valid : bool;  (** the workload's ground-truth check after the run *)
  m_args : Host_interp.hv list;  (** the host data, as the run left it *)
  m_result : Host_interp.run_result;
  m_compile : Pass.pipeline_result;
      (** the compile's per-pass statistics and times *)
  m_module : Core.op;  (** the compiled located module *)
}

exception Unsupported of string

(** Execute host [main] of the compiled module [m] on [args] under the
    simulator settings [sim] (default {!Sim_config.default}). *)
let run_host ?(sim = Sim_config.default) ?launch_hook ?jit_cycles m args =
  Host_interp.run ?launch_hook ?jit_cycles ~sim_domains:sim.Sim_config.domains
    ~check_races:sim.Sim_config.check_races
    ~cache_model:sim.Sim_config.cache_model ~module_op:m args

(** [w]'s module printed and re-parsed under the virtual file name
    [<name>.sycl.mlir], so every op carries the [file:line] of its own
    textual form. Semantically identical: the textual pipeline tests
    prove print -> parse -> compile -> run matches the in-memory
    module. *)
let located_module (w : workload) : Core.op =
  Parser.parse_module ~file:(w.w_name ^ ".sycl.mlir")
    (Printer.to_string (w.w_module ()))

(** The one compile-and-run path: compile [w]'s located module with
    [compile] and run its [main] exactly once, on fresh host data, under
    the simulator settings [sim]. Under [jit] (AdaptiveCpp) the runtime
    specializes each kernel at its first launch and charges the JIT
    cycles for it; [m_cycles] leaves that charge out, as the paper's
    methodology discards the first run's JIT. *)
let compile_and_run ?sim ?(jit = false) ~compile (w : workload) : measurement =
  let m = located_module w in
  let pipeline_result = compile m in
  let launch_hook, jit_cycles =
    if jit then
      ( Some
          (fun kernel (info : Host_interp.launch_info) ->
            ignore
              (Driver.specialize_at_launch kernel
                 ~global:info.Host_interp.li_global ~wg:info.Host_interp.li_wg
                 ~noalias_pairs:info.Host_interp.li_noalias_pairs
                 ~constant_args:info.Host_interp.li_constant_args)),
        Cost.default.Cost.jit_compile_cycles )
    else (None, 0)
  in
  let args, validate = w.w_data () in
  let result = run_host ?sim ?launch_hook ~jit_cycles m args in
  let valid = validate () in
  {
    m_cycles = result.Host_interp.total_cycles - result.Host_interp.jit_cycles;
    m_valid = valid;
    m_args = args;
    m_result = result;
    m_compile = pipeline_result;
    m_module = m;
  }

(** The measurement of [w] under [cfg]: its located module compiled by
    {!Driver.compile} and run once under [sim] ({!compile_and_run}).
    Every surface of a measured run reads this one record. Raises
    {!Unsupported} for a workload AdaptiveCpp fails on. *)
let measure ?sim (cfg : Driver.config) (w : workload) : measurement =
  if cfg.Driver.mode = Driver.Adaptive_cpp && not w.w_acpp_ok then
    raise (Unsupported w.w_name);
  compile_and_run ?sim
    ~jit:(cfg.Driver.mode = Driver.Adaptive_cpp)
    ~compile:(fun m -> (Driver.compile cfg m).Driver.pipeline_result)
    w

let default_configs =
  [
    Driver.config Driver.Dpcpp;
    Driver.config Driver.Adaptive_cpp;
    Driver.config Driver.Sycl_mlir;
  ]

type comparison = {
  c_workload : workload;
  c_base : measurement;  (** DPC++ *)
  c_acpp : measurement option;  (** None when validation/support fails *)
  c_sycl_mlir : measurement;
}

let speedup (base : measurement) (m : measurement) =
  float_of_int base.m_cycles /. float_of_int (max 1 m.m_cycles)

let compare_workload ?sim (w : workload) : comparison =
  let base = measure ?sim (Driver.config Driver.Dpcpp) w in
  let acpp =
    match measure ?sim (Driver.config Driver.Adaptive_cpp) w with
    | m -> if m.m_valid then Some m else None
    | exception Unsupported _ -> None
  in
  let sycl_mlir = measure ?sim (Driver.config Driver.Sycl_mlir) w in
  { c_workload = w; c_base = base; c_acpp = acpp; c_sycl_mlir = sycl_mlir }

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
