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
  m_workload : string;
  m_mode : Driver.mode;
  m_cycles : int;
  m_valid : bool;
  m_result : Host_interp.run_result;
  m_compile : Pass.pipeline_result;
      (** the compile's per-pass statistics and times *)
  m_module : Core.op;  (** the compiled module (for annotated IR dumps) *)
}

exception Unsupported of string

(** Execute host [main] of the compiled module [m] on [args] under the
    simulator settings [sim] (default {!Sim_config.default}): the one
    way the workload harnesses run a module. *)
let run_host ?(sim = Sim_config.default) ?launch_hook ?jit_cycles m args =
  Host_interp.run ?launch_hook ?jit_cycles ~sim_domains:sim.Sim_config.domains
    ~check_races:sim.Sim_config.check_races
    ~cache_model:sim.Sim_config.cache_model ~module_op:m args

(** Compile and execute [w] under [cfg] with the simulator settings
    [sim]; the measured run excludes JIT warm-up (the paper's
    methodology discards the first run). *)
let measure ?sim (cfg : Driver.config) (w : workload) : measurement =
  if cfg.Driver.mode = Driver.Adaptive_cpp && not w.w_acpp_ok then
    raise (Unsupported w.w_name);
  let m = w.w_module () in
  let compiled = Driver.compile cfg m in
  let launch_hook, jit_cycles =
    match cfg.Driver.mode with
    | Driver.Adaptive_cpp ->
      ( Some
          (fun kernel (info : Host_interp.launch_info) ->
            ignore
              (Driver.specialize_at_launch kernel ~global:info.Host_interp.li_global
                 ~wg:info.Host_interp.li_wg
                 ~noalias_pairs:info.Host_interp.li_noalias_pairs
                 ~constant_args:info.Host_interp.li_constant_args)),
        Cost.default.Cost.jit_compile_cycles )
    | Driver.Dpcpp | Driver.Sycl_mlir -> (None, 0)
  in
  (* Warm-up run (JIT specialization happens here for AdaptiveCpp). *)
  (match cfg.Driver.mode with
  | Driver.Adaptive_cpp ->
    let args, _ = w.w_data () in
    ignore (run_host ?sim ?launch_hook ~jit_cycles m args)
  | _ -> ());
  let args, validate = w.w_data () in
  let result = run_host ?sim ?launch_hook ~jit_cycles m args in
  (* The measured run excludes the one-time JIT charge. *)
  let cycles = result.Host_interp.total_cycles - result.Host_interp.jit_cycles in
  {
    m_workload = w.w_name;
    m_mode = cfg.Driver.mode;
    m_cycles = cycles;
    m_valid = validate ();
    m_result = result;
    m_compile = compiled.Driver.pipeline_result;
    m_module = m;
  }

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
