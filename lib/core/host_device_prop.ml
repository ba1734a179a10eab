(* Host-device optimization (Section VII-B): with host and device in one
   module, static host analysis of the raised sycl.host ops feeds device
   code optimization:

   - Constant ND-range propagation: getter operations for constant
     ND-range information are replaced by constants; the work-group size
     the runtime will pick is predicted (Launch_policy) and recorded.
   - Accessor member propagation: constant ranges/offsets propagate;
     non-ranged accessors get zero offsets, and their access range is
     inferred equal to the underlying memory range even when not constant.
   - Constant scalar captures propagate into the kernel body; constant
     global arrays (e.g. the Sobel filter) are marked so the device treats
     them as constant-cached data.
   - Accessor aliasing: captures rooted in distinct buffers over distinct
     host allocations are recorded as no-alias pairs on the kernel,
     refining the device alias analysis (Section VII's outlook).

   Downstream, constants enable expression/control-flow simplification on
   the device and — via SYCL Dead Argument Elimination — cheaper kernel
   launches on the host. *)

open Mlir

let const_int_of v =
  match Rewrite.constant_of_value v with
  | Some a -> Attr.as_int a
  | None -> None

(** All ops using [handler] (the command-group function's contents). *)
let handler_ops (handler : Core.value) =
  List.map fst (Core.uses handler)

type launch_site = {
  ls_kernel : Core.op;  (** the kernel func *)
  ls_parallel_for : Core.op;
  ls_global : Core.value list;
  ls_local : Core.value list option;
  ls_captures : (int * Core.value) list;  (** capture index -> host value *)
}

let launch_sites (m : Core.op) : launch_site list =
  let sites = ref [] in
  Core.walk m ~f:(fun op ->
      if Sycl_host_ops.is_parallel_for op then begin
        let handler = Core.operand op 0 in
        let ops = handler_ops handler in
        let nd = List.find_opt Sycl_host_ops.is_set_nd_range ops in
        let captures =
          List.filter_map
            (fun o ->
              if Sycl_host_ops.is_set_captured o then
                Some (Sycl_host_ops.set_captured_index o, Core.operand o 1)
              else None)
            ops
        in
        match
          ( Option.bind (Sycl_host_ops.parallel_for_kernel op) (Core.lookup_func m),
            nd )
        with
        | Some kernel, Some nd ->
          sites :=
            {
              ls_kernel = kernel;
              ls_parallel_for = op;
              ls_global = Sycl_host_ops.nd_range_global nd;
              ls_local = Sycl_host_ops.nd_range_local nd;
              ls_captures = captures;
            }
            :: !sites
        | _ -> ()
      end);
  List.rev !sites

(* ------------------------------------------------------------------ *)
(* Device-side rewrites                                                *)
(* ------------------------------------------------------------------ *)

(** Replace every use of getter ops named [names] (with constant dim
    argument) inside [kernel] by the per-dimension constants [values]. *)
let replace_dim_getters stats kernel names (values : int list) =
  let getters = Core.collect kernel ~p:(Core.named names) in
  List.iter
    (fun g ->
      match Sycl_ops.getter_dim g with
      | Some d when d < List.length values ->
        let b = Builder.before g in
        (* The constant replaces the getter: keep its location. *)
        Builder.set_default_loc b g.Core.loc;
        let c = Dialects.Arith.const_index b (List.nth values d) in
        Core.replace_op g [ c ];
        Pass.Stats.bump stats "hostdev.ndrange-const"
      | _ -> ())
    getters

(** Kernel argument value for capture index [i] (captures bind to kernel
    arguments directly; argument 0 is the item). *)
let kernel_arg (kernel : Core.op) i =
  let args = Core.block_args (Core.func_body kernel) in
  List.nth_opt args i

let remark = Remarks.emit ~pass:"host-device-propagation"

let propagate_site stats (m : Core.op) (site : launch_site) =
  let kernel = site.ls_kernel in
  let kname = Core.func_sym kernel in
  (* --- ND-range --- *)
  let global_consts = List.map const_int_of site.ls_global in
  let global_known = List.for_all Option.is_some global_consts in
  if not global_known then
    remark ~name:"ndrange-unknown" Remarks.Missed ~func:kname
      "ND-range not propagated: the host launch range is not a compile-time \
       constant";
  if global_known then begin
    let global = List.map Option.get global_consts in
    Core.set_attr kernel "sycl.global_size"
      (Attr.Array (List.map (fun i -> Attr.Int i) global));
    let wg =
      match site.ls_local with
      | Some locals ->
        let lc = List.map const_int_of locals in
        if List.for_all Option.is_some lc then Some (List.map Option.get lc)
        else None
      | None -> Some (Launch_policy.default_wg_size global)
    in
    (match wg with
    | Some wg ->
      Core.set_attr kernel "sycl.wg_size"
        (Attr.Array (List.map (fun i -> Attr.Int i) wg));
      replace_dim_getters stats kernel [ "sycl.nd_item.get_local_range" ] wg;
      let groups = List.map2 (fun g w -> g / w) global wg in
      ignore groups
    | None -> ());
    replace_dim_getters stats kernel
      [ "sycl.item.get_range"; "sycl.nd_item.get_global_range" ]
      global;
    remark ~name:"ndrange-propagated" Remarks.Passed ~func:kname
      (Printf.sprintf
         "constant ND-range global=[%s]%s propagated from the host launch \
          site into the device kernel"
         (String.concat ", " (List.map string_of_int global))
         (match wg with
         | Some wg ->
           Printf.sprintf " wg=[%s]"
             (String.concat ", " (List.map string_of_int wg))
         | None -> ""))
  end;
  (* --- captures --- *)
  List.iter
    (fun (idx, host_v) ->
      match kernel_arg kernel idx with
      | None -> ()
      | Some arg -> (
        match Core.defining_op host_v with
        | Some def when Sycl_host_ops.is_accessor_ctor def -> (
          let buf = Sycl_host_ops.accessor_ctor_buffer def in
          let buf_dims_const =
            match Core.defining_op buf with
            | Some bctor when Sycl_host_ops.is_buffer_ctor bctor ->
              let dims = List.tl (Core.operands bctor) in
              let cs = List.map const_int_of dims in
              if List.for_all Option.is_some cs then
                Some (List.map Option.get cs)
              else None
            | _ -> None
          in
          let ranged = Core.attr def "ranged" = Some (Attr.Bool true) in
          if not ranged then begin
            (* Offsets are zero; access range = memory range = buffer dims. *)
            let getters =
              Core.collect kernel ~p:(fun o ->
                  Sycl_ops.is_accessor_member_getter o
                  && Core.value_equal (Core.operand o 0) arg)
            in
            List.iter
              (fun g ->
                let b = Builder.before g in
                (* Replacements stand in for the getter: keep its
                   location. *)
                Builder.set_default_loc b g.Core.loc;
                match (g.Core.name, Sycl_ops.getter_dim g, buf_dims_const) with
                | "sycl.accessor.get_offset", _, _ ->
                  let c = Dialects.Arith.const_index b 0 in
                  Core.replace_op g [ c ];
                  Pass.Stats.bump stats "hostdev.accessor-member-const"
                | _, Some d, Some dims when d < List.length dims ->
                  let c = Dialects.Arith.const_index b (List.nth dims d) in
                  Core.replace_op g [ c ];
                  Pass.Stats.bump stats "hostdev.accessor-member-const"
                | "sycl.accessor.get_mem_range", Some _, None ->
                  (* Not constant, but equal to the access range: replace
                     mem_range queries with range queries. *)
                  let r =
                    Sycl_ops.accessor_get_range b (Core.operand g 0)
                      (Core.operand g 1)
                  in
                  Core.replace_op g [ r ];
                  Pass.Stats.bump stats "hostdev.accessor-member-unified"
                | _ -> ())
              getters
          end)
        | Some def when Dialects.Arith.is_constant def -> (
          (* Constant scalar capture: materialize inside the kernel. *)
          match Dialects.Arith.constant_attr def with
          | Some a when Core.has_uses arg ->
            let entry = Core.func_body kernel in
            let b = Builder.at_start entry in
            (* The materialized constant carries the host-side
               definition's location across the host/device boundary;
               when the host IR is unlocated, fall back to the location
               of the capture's first use inside the kernel. *)
            let loc =
              if Loc.is_known def.Core.loc then def.Core.loc
              else
                match Core.uses arg with
                | (u, _) :: _ -> u.Core.loc
                | [] -> kernel.Core.loc
            in
            Builder.set_default_loc b loc;
            let c = Dialects.Arith.constant b a arg.Core.vty in
            Core.replace_all_uses_with arg c;
            remark ~name:"capture-const" Remarks.Passed ~func:kname
              (Printf.sprintf
                 "constant scalar capture %d propagated into the kernel body"
                 idx);
            Pass.Stats.bump stats "hostdev.capture-const"
          | _ -> ())
        | Some def when def.Core.name = "llvm.addressof" -> (
          (* Capture of a constant global array (e.g. the Sobel filter):
             the device may treat it as constant-cached data. *)
          match
            Option.bind (Core.attr_symbol def "global_name")
              (Dialects.Llvm.lookup_global m)
          with
          | Some g when Core.attr g "constant" = Some (Attr.Bool true) ->
            let existing =
              match Core.attr kernel "sycl.constant_args" with
              | Some (Attr.Array xs) -> xs
              | _ -> []
            in
            Core.set_attr kernel "sycl.constant_args"
              (Attr.Array (existing @ [ Attr.Int idx ]));
            remark ~name:"constant-global" Remarks.Passed ~func:kname
              (Printf.sprintf
                 "capture %d is a constant global array: device treats it \
                  as constant-cached data"
                 idx);
            Pass.Stats.bump stats "hostdev.constant-global"
          | _ -> ())
        | _ -> ()))
    site.ls_captures;
  (* --- accessor aliasing (host-informed no-alias facts) --- *)
  (* Two accessors alias only when built over the same buffer (or
     overlapping sub-buffers, which this dialect does not model): each
     SYCL buffer owns its device memory, so accessors over *distinct*
     buffer objects are disjoint regardless of the host pointers. *)
  let accessor_captures =
    List.filter_map
      (fun (idx, v) ->
        match Core.defining_op v with
        | Some def when Sycl_host_ops.is_accessor_ctor def ->
          Some (idx, Sycl_host_ops.accessor_ctor_buffer def)
        | _ -> None)
      site.ls_captures
  in
  List.iteri
    (fun i (idx_a, buf_a) ->
      List.iteri
        (fun j (idx_b, buf_b) ->
          if j > i && not (Core.value_equal buf_a buf_b) then begin
            Alias.add_noalias_pair kernel idx_a idx_b;
            remark ~name:"noalias-pair" Remarks.Analysis ~func:kname
              (Printf.sprintf
                 "accessor arguments %d and %d capture distinct buffers: \
                  recorded as no-alias for the device alias analysis"
                 idx_a idx_b);
            Pass.Stats.bump stats "hostdev.noalias-pair"
          end)
        accessor_captures)
    accessor_captures

let pass =
  Pass.make "host-device-propagation" (fun m stats ->
      List.iter (propagate_site stats m) (launch_sites m))
