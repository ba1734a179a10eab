(* Compiler driver: assembles the pass pipelines for the three compiler
   configurations the evaluation compares (Section VIII):

   - [Dpcpp]: the LLVM-based baseline. SMCP flow (Fig. 1, dotted path):
     the device module is compiled in isolation from the host, so no
     SYCL-semantic or host-context information is available. Generic
     optimizations plus pure-op LICM and dead-argument elimination.

   - [Sycl_mlir]: this paper's compiler. SSCP-style joint module (Fig. 1,
     dashed path): host raising, host-device propagation, then the full
     SYCL-aware device pipeline (alias-powered LICM, reduction detection,
     loop internalization).

   - [Adaptive_cpp]: an SSCP JIT compiler. At compile time it behaves like
     the generic baseline; at first kernel launch the runtime invokes
     [specialize_at_launch], which can exploit *runtime* information
     (actual ND-range, actual buffer addresses → no-alias facts) but has
     no SYCL dialect, so no loop internalization. JIT time is charged by
     the runtime at first launch. *)

open Mlir

type mode =
  | Dpcpp
  | Sycl_mlir
  | Adaptive_cpp

let mode_to_string = function
  | Dpcpp -> "DPC++"
  | Sycl_mlir -> "SYCL-MLIR"
  | Adaptive_cpp -> "AdaptiveCpp"

type config = {
  mode : mode;
  (* Ablation switches (all on for Sycl_mlir by default). *)
  enable_licm : bool;
  enable_reduction : bool;
  enable_internalization : bool;
  enable_host_device : bool;
  (* Compile-time kernel fusion: the Section VII extension. Off by
     default — the paper's evaluated compiler did not include it. *)
  enable_fusion : bool;
  (* Progressive lowering of the SYCL dialect to the flattened DPC++
     kernel ABI after optimization (Section IV's gradual-lowering story).
     Off by default: the simulator executes the SYCL dialect directly. *)
  enable_lowering : bool;
  verify_each : bool;
}

let config ?(enable_licm = true) ?(enable_reduction = true)
    ?(enable_internalization = true) ?(enable_host_device = true)
    ?(enable_fusion = false) ?(enable_lowering = false) ?(verify_each = false)
    mode =
  {
    mode;
    enable_licm;
    enable_reduction;
    enable_internalization;
    enable_host_device;
    enable_fusion;
    enable_lowering;
    verify_each;
  }

(** Canonical serialization of a configuration, for content-addressed
    compile caching: two configs produce the same key iff every field —
    mode and all ablation switches — agrees, so a cache keyed on
    (module text, config key) can never serve a result compiled under
    different flags. The field list is written out explicitly so adding
    a config field without extending the key is a type error. *)
let config_key (cfg : config) : string =
  let {
    mode;
    enable_licm;
    enable_reduction;
    enable_internalization;
    enable_host_device;
    enable_fusion;
    enable_lowering;
    verify_each;
  } =
    cfg
  in
  let b name v = Printf.sprintf "%s=%b" name v in
  String.concat ","
    [
      Printf.sprintf "mode=%s"
        (match mode with
        | Dpcpp -> "dpcpp"
        | Sycl_mlir -> "sycl-mlir"
        | Adaptive_cpp -> "acpp");
      b "licm" enable_licm;
      b "reduction" enable_reduction;
      b "internalization" enable_internalization;
      b "host-device" enable_host_device;
      b "fusion" enable_fusion;
      b "lowering" enable_lowering;
      b "verify-each" verify_each;
    ]

(* A restricted LICM hoisting only pure speculatable ops — the level of
   loop-invariant code motion a generic LLVM-style pipeline achieves
   without SYCL aliasing facts. *)
let licm_pure_pass =
  Pass.on_functions "licm-pure" (fun f stats ->
      List.iter
        (fun loop ->
          let region = loop.Core.regions.(0) in
          let body = Core.entry_block region in
          let hoisted = Hashtbl.create 16 in
          let inv v =
            Dominance.defined_outside_region region v
            ||
            match v.Core.vdef with
            | Core.Op_result (op, _) -> Hashtbl.mem hoisted op.Core.oid
            | _ -> false
          in
          let changed = ref true in
          while !changed do
            changed := false;
            List.iter
              (fun op ->
                if
                  (not (Hashtbl.mem hoisted op.Core.oid))
                  && Core.num_regions op = 0
                  && Op_registry.is_pure op
                  && Op_registry.is_speculatable op
                  && List.for_all inv (Core.operands op)
                then begin
                  Hashtbl.replace hoisted op.Core.oid ();
                  changed := true
                end)
              (Core.ops body)
          done;
          (* Loads with invariant addresses are exactly what the SYCL-aware
             LICM (Section V-A) hoists and this generic pipeline cannot:
             without accessor no-alias facts every store in the loop is a
             potential clobber. Report them as missed optimizations. *)
          if Remarks.enabled () then
            List.iter
              (fun op ->
                if
                  Dialects.Memref.is_load op
                  && (not (Hashtbl.mem hoisted op.Core.oid))
                  && List.for_all inv (Core.operands op)
                then
                  Remarks.emit ~pass:"licm-pure" ~name:"blocked-no-alias-info"
                    Remarks.Missed ~op
                    "loop-invariant load not hoisted: generic LICM has no \
                     SYCL accessor aliasing facts, so stores in the loop \
                     cannot be proven non-clobbering")
              (Core.ops body);
          List.iter
            (fun op ->
              if Hashtbl.mem hoisted op.Core.oid then begin
                Core.move_before ~anchor:loop op;
                if Remarks.enabled () then
                  Remarks.emit ~pass:"licm-pure" ~name:"hoisted" Remarks.Passed
                    ~op
                    (Printf.sprintf
                       "pure speculatable operation %s hoisted out of the loop"
                       op.Core.name);
                Pass.Stats.bump stats "licm-pure.hoisted"
              end)
            (Core.ops body))
        (Dialects.Loop.innermost_first f))

(** The device pipeline for a configuration. Inlining and constant-trip
    unrolling are generic (every LLVM-based SYCL compiler has them); the
    SYCL-aware passes are what set the configurations apart. *)
let device_pipeline (cfg : config) : Pass.t list =
  let common = [ Inline.pass; Canonicalize.pass; Cse.pass ] in
  match cfg.mode with
  | Dpcpp | Adaptive_cpp ->
    common
    @ [ licm_pure_pass; Loop_unroll.pass; Canonicalize.pass; Cse.pass;
        Dce.pass; Dead_arg_elim.pass ]
  | Sycl_mlir ->
    common
    @ (if cfg.enable_licm then [ Licm.pass ] else [])
    @ (if cfg.enable_reduction then [ Detect_reduction.pass ] else [])
    @ [ Canonicalize.pass; Loop_unroll.pass; Canonicalize.pass ]
    @ (if cfg.enable_internalization then [ Loop_internalization.pass ] else [])
    @ [ Cse.pass; Dce.pass; Dead_arg_elim.pass ]
    @ if cfg.enable_lowering then [ Lower_sycl.pass; Canonicalize.pass; Cse.pass ] else []

(** The host pipeline (joint module). Only SYCL-MLIR raises and analyzes
    host code at compile time. *)
let host_pipeline (cfg : config) : Pass.t list =
  match cfg.mode with
  | Sycl_mlir ->
    [ Host_raising.pass; Canonicalize.pass; Cse.pass ]
    @ (if cfg.enable_fusion then
         (* CSE between fusion and forwarding: the inlined consumer half
            re-derives the same subscripts, which must unify before
            store-to-load forwarding can see the must-alias. *)
         [ Kernel_fusion.pass; Canonicalize.pass; Cse.pass; Store_forwarding.pass ]
       else [])
    @
    if cfg.enable_host_device then [ Host_device_prop.pass ] else []
  | Dpcpp | Adaptive_cpp ->
    (* The host side still needs raising so the runtime can execute the
       module, but no information flows to the device compiler: raising
       happens (conceptually) in the runtime/driver, after device
       compilation. We model this by running raising WITHOUT the
       host-device propagation pass. *)
    [ Host_raising.pass; Canonicalize.pass; Cse.pass ]

(** The whole pipeline in the order {!compile} runs it: host, then
    device. *)
let pipeline (cfg : config) : Pass.t list =
  host_pipeline cfg @ device_pipeline cfg

type compiled = {
  cfg : config;
  joint : Core.op;  (** the module: host main + device kernels *)
  pipeline_result : Pass.pipeline_result;
}

exception Compile_error of string

(** Compile a joint module. The pass order mirrors Fig. 1: for SYCL-MLIR,
    host analysis runs first so device passes see its facts; for the
    baselines, device compilation is isolated. *)
let compile ?(instrumentations = []) (cfg : config) (m : Core.op) : compiled =
  if not (Core.is_module m) then raise (Compile_error "expected a module");
  let pipeline_result =
    try
      Pass.run_pipeline ~verify_each:cfg.verify_each ~instrumentations
        (pipeline cfg) m
    with
    | Pass.Invalid_input diagnostics ->
      raise (Compile_error (Verifier.failure "input" diagnostics))
    | Pass.Pass_failed { pass; diagnostics } ->
      raise (Compile_error (Verifier.failure ("pass " ^ pass) diagnostics))
  in
  { cfg; joint = m; pipeline_result }

let top_module (op : Core.op) =
  let rec go o = if Core.is_module o then Some o else Option.bind (Core.parent_op o) go in
  go op

(** AdaptiveCpp-style JIT specialization at first kernel launch: the
    runtime hands in the actual launch configuration; runtime values play
    the role host analysis plays for SYCL-MLIR — minus anything that needs
    the SYCL dialect (no internalization). *)
let specialize_at_launch (kernel : Core.op) ~(global : int list)
    ~(wg : int list) ~(noalias_pairs : (int * int) list)
    ~(constant_args : int list) : Pass.Stats.t =
  let stats = Pass.Stats.create () in
  Core.set_attr kernel "sycl.global_size"
    (Attr.Array (List.map (fun i -> Attr.Int i) global));
  Core.set_attr kernel "sycl.wg_size"
    (Attr.Array (List.map (fun i -> Attr.Int i) wg));
  List.iter (fun (i, j) -> Alias.add_noalias_pair kernel i j) noalias_pairs;
  if constant_args <> [] then
    Core.set_attr kernel "sycl.constant_args"
      (Attr.Array (List.map (fun i -> Attr.Int i) constant_args));
  (* Fold the now-constant range getters. *)
  Host_device_prop.replace_dim_getters stats kernel
    [ "sycl.item.get_range"; "sycl.nd_item.get_global_range" ]
    global;
  Host_device_prop.replace_dim_getters stats kernel
    [ "sycl.nd_item.get_local_range" ] wg;
  (* Generic optimizations with runtime aliasing facts: LICM and scalar
     promotion of reductions, as LLVM does at -O2 once aliasing is known. *)
  List.iter
    (fun p ->
      let s = Pass.Stats.create () in
      (match p with
      | `Canon -> Canonicalize.pass.Pass.run (Option.get (top_module kernel)) s
      | `Licm -> Licm.run_on_func kernel s
      | `Red -> Detect_reduction.run_on_func kernel s
      | `Cse -> Cse.run_on_func kernel s
      | `Dce -> Dce.run_on_func kernel s);
      List.iter (fun (k, v) -> Pass.Stats.bump ~by:v stats k) (Pass.Stats.to_list s))
    [ `Canon; `Cse; `Licm; `Red; `Canon; `Cse; `Dce ];
  stats
