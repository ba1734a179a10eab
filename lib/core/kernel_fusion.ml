(* Compile-time device-kernel fusion — the extension the paper's
   Section VII anticipates: "By merging multiple SYCL device kernels, the
   overhead associated with kernel launch can be reduced and dataflow ...
   can potentially be made internal to the fused kernel. ... With joint
   analysis and optimization of host and device code, such transformations
   could be done at compilation time" (rather than at runtime via a JIT,
   as Pérez et al. [16] had to).

   The pass runs on the raised host module. Two consecutively submitted
   command groups fuse when:
   - both launch plain (non-nd-range) kernels of the same dimensionality
     over value-identical global ranges, with no barriers inside;
   - only command-group-construction ops separate the two submissions;
   - every buffer accessed by both kernels — with at least one of the two
     writing it — is accessed exclusively at the work-item's own index
     (the element-wise producer/consumer pattern), so per-work-item
     sequencing preserves the inter-kernel dependence.

   The fused kernel concatenates both bodies; the host schedules one
   command group with the merged captures. Run Store_forwarding afterwards
   to turn the intermediate buffer's store->load into direct dataflow. *)

open Mlir

(* ------------------------------------------------------------------ *)
(* Safety analysis                                                     *)
(* ------------------------------------------------------------------ *)

(** Is every use of kernel argument [arg] (an accessor) a direct subscript
    at exactly (gid_0, ..., gid_{d-1})? *)
let identity_indexed_only (kernel : Core.op) (arg : Core.value) =
  let gid_dim (v : Core.value) =
    match v.Core.vdef with
    | Core.Op_result (op, _) when Sycl_ops.is_global_id_getter op ->
      Sycl_ops.getter_dim op
    | _ -> None
  in
  List.for_all
    (fun (user, idx) ->
      ignore idx;
      Sycl_ops.is_subscript user
      && Core.value_equal (Sycl_ops.subscript_accessor user) arg
      && Sycl_ops.subscript_is_direct user
      &&
      let indices = Sycl_ops.subscript_indices user in
      List.for_all2
        (fun i expected -> gid_dim i = Some expected)
        indices
        (List.init (List.length indices) Fun.id))
    (Core.uses arg)

let has_barrier (kernel : Core.op) =
  Core.find_first kernel ~p:Sycl_ops.is_barrier <> None

type site = {
  s_parallel_for : Core.op;
  s_submit : Core.op;
  s_nd_range : Core.op;
  s_captures : Core.op list;  (** set_captured ops, sorted by index *)
  s_kernel : Core.op;
}

let site_of (m : Core.op) (pf : Core.op) : site option =
  let handler = Core.operand pf 0 in
  let submit =
    match Core.defining_op handler with
    | Some s when Sycl_host_ops.is_submit s -> Some s
    | _ -> None
  in
  let uses = List.map fst (Core.uses handler) in
  let nd = List.find_opt Sycl_host_ops.is_set_nd_range uses in
  let captures =
    List.filter Sycl_host_ops.is_set_captured uses
    |> List.sort (fun a b ->
           compare (Sycl_host_ops.set_captured_index a)
             (Sycl_host_ops.set_captured_index b))
  in
  match
    ( submit, nd,
      Option.bind (Sycl_host_ops.parallel_for_kernel pf) (Core.lookup_func m) )
  with
  | Some s_submit, Some s_nd_range, Some s_kernel ->
    Some { s_parallel_for = pf; s_submit; s_nd_range; s_captures = captures; s_kernel }
  | _ -> None

(* Buffer behind a captured accessor value, if any. *)
let capture_buffer (cap : Core.op) =
  let v = Core.operand cap 1 in
  match Core.defining_op v with
  | Some ctor when Sycl_host_ops.is_accessor_ctor ctor ->
    Some (Sycl_host_ops.accessor_ctor_buffer ctor, ctor)
  | _ -> None

let capture_mode (cap : Core.op) =
  match capture_buffer cap with
  | Some (_, ctor) -> Sycl_host_ops.accessor_ctor_mode ctor
  | None -> None

let writes_mode = function
  | Some Sycl_types.Write | Some Sycl_types.Read_write -> true
  | _ -> false

(** Kernel argument bound by a set_captured op (captures bind 1:1 to args,
    arg 0 being the item). *)
let arg_of_capture (kernel : Core.op) (cap : Core.op) =
  List.nth_opt
    (Core.block_args (Core.func_body kernel))
    (Sycl_host_ops.set_captured_index cap)

(** The fusion-safety check across two sites. *)
let dependence_safe (a : site) (b : site) =
  let shared =
    List.concat_map
      (fun cap_a ->
        match capture_buffer cap_a with
        | None -> []
        | Some (buf_a, _) ->
          List.filter_map
            (fun cap_b ->
              match capture_buffer cap_b with
              | Some (buf_b, _) when Core.value_equal buf_a buf_b ->
                Some (cap_a, cap_b)
              | _ -> None)
            b.s_captures)
      a.s_captures
  in
  List.for_all
    (fun (cap_a, cap_b) ->
      let involved_in_write =
        writes_mode (capture_mode cap_a) || writes_mode (capture_mode cap_b)
      in
      (not involved_in_write)
      || (match (arg_of_capture a.s_kernel cap_a, arg_of_capture b.s_kernel cap_b) with
         | Some arg_a, Some arg_b ->
           identity_indexed_only a.s_kernel arg_a
           && identity_indexed_only b.s_kernel arg_b
         | _ -> false))
    shared

let same_nd_range (a : site) (b : site) =
  Sycl_host_ops.nd_range_local a.s_nd_range = None
  && Sycl_host_ops.nd_range_local b.s_nd_range = None
  &&
  let ga = Sycl_host_ops.nd_range_global a.s_nd_range in
  let gb = Sycl_host_ops.nd_range_global b.s_nd_range in
  List.length ga = List.length gb && List.for_all2 Core.value_equal ga gb

(* Only command-group construction may sit between the two launches. *)
let construction_only_between (block : Core.block) (a : Core.op) (b : Core.op) =
  let rec skip_to = function
    | [] -> None
    | op :: rest when op == a -> Some rest
    | _ :: rest -> skip_to rest
  in
  match skip_to (Core.ops block) with
  | None -> false
  | Some rest ->
    let rec check = function
      | [] -> false
      | op :: _ when op == b -> true
      | op :: rest ->
        let benign =
          Sycl_host_ops.is_submit op
          || Sycl_host_ops.is_accessor_ctor op
          || Sycl_host_ops.is_set_captured op
          || Sycl_host_ops.is_set_nd_range op
          || op.Core.name = "arith.constant"
          || op.Core.name = "llvm.addressof"
        in
        if benign then check rest else false
    in
    check rest

(* ------------------------------------------------------------------ *)
(* The transformation                                                  *)
(* ------------------------------------------------------------------ *)

let item_type (kernel : Core.op) =
  (List.hd (Core.block_args (Core.func_body kernel))).Core.vty

(* [<a>_<b>_fused<k>], where [k] counts this run's fusions and skips
   every name the module already defines: the name depends on the module
   alone, not on what the process compiled before. *)
let fused_name (m : Core.op) ~fusions (a : site) (b : site) =
  let defined name =
    List.exists
      (fun o -> Core.attr_string o "sym_name" = Some name)
      (Core.ops (Core.module_block m))
  in
  let rec next () =
    incr fusions;
    let name =
      Printf.sprintf "%s_%s_fused%d" (Core.func_sym a.s_kernel)
        (Core.func_sym b.s_kernel) !fusions
    in
    if defined name then next () else name
  in
  next ()

let build_fused (m : Core.op) ~fusions (a : site) (b : site) : Core.op =
  let name = fused_name m ~fusions a b in
  let args_a = List.tl (Core.block_args (Core.func_body a.s_kernel)) in
  let args_b = List.tl (Core.block_args (Core.func_body b.s_kernel)) in
  let arg_tys =
    item_type a.s_kernel
    :: (List.map (fun v -> v.Core.vty) args_a @ List.map (fun v -> v.Core.vty) args_b)
  in
  let fused =
    Dialects.Func.func m name ~args:arg_tys ~results:[] (fun bld vals ->
        match vals with
        | item :: rest ->
          let n_a = List.length args_a in
          let fa = List.filteri (fun i _ -> i < n_a) rest in
          let fb = List.filteri (fun i _ -> i >= n_a) rest in
          let inline kernel formals =
            let value_map = Hashtbl.create 32 in
            let orig_args = Core.block_args (Core.func_body kernel) in
            Hashtbl.replace value_map (List.hd orig_args).Core.vid item;
            List.iter2
              (fun o f -> Hashtbl.replace value_map o.Core.vid f)
              (List.tl orig_args) formals;
            List.iter
              (fun op ->
                if not (Op_registry.is_terminator op) then
                  ignore (Builder.insert bld (Core.clone_op ~value_map op)))
              (Core.ops (Core.func_body kernel))
          in
          inline a.s_kernel fa;
          inline b.s_kernel fb;
          Dialects.Func.return bld []
        | [] -> assert false)
  in
  Core.set_attr fused "sycl.kernel" Attr.Unit;
  (* The fused kernel's location fuses its constituents'; body ops keep
     the location of the kernel they were cloned from. *)
  fused.Core.loc <- Loc.fused [ a.s_kernel.Core.loc; b.s_kernel.Core.loc ];
  (* Constituent alias facts remain valid: A's argument indices are
     preserved, B's shift by |A's captures|. *)
  let n_a = List.length args_a in
  List.iter
    (fun (i, j) -> Alias.add_mustalias_pair fused i j)
    (Alias.mustalias_pairs a.s_kernel);
  List.iter
    (fun (i, j) -> Alias.add_mustalias_pair fused (i + n_a) (j + n_a))
    (Alias.mustalias_pairs b.s_kernel);
  List.iter
    (fun (i, j) -> Alias.add_noalias_pair fused i j)
    (Alias.noalias_pairs a.s_kernel);
  List.iter
    (fun (i, j) -> Alias.add_noalias_pair fused (i + n_a) (j + n_a))
    (Alias.noalias_pairs b.s_kernel);
  fused

let fuse (m : Core.op) ~fusions (a : site) (b : site) stats =
  let fused = build_fused m ~fusions a b in
  let n_a = List.length a.s_captures in
  (* Captures over the same buffer become must-aliased arguments of the
     fused kernel — what lets store-forwarding internalize the dataflow. *)
  List.iter
    (fun cap_a ->
      match capture_buffer cap_a with
      | None -> ()
      | Some (buf_a, _) ->
        List.iter
          (fun cap_b ->
            match capture_buffer cap_b with
            | Some (buf_b, _) when Core.value_equal buf_a buf_b ->
              Alias.add_mustalias_pair fused
                (Sycl_host_ops.set_captured_index cap_a)
                (Sycl_host_ops.set_captured_index cap_b + n_a)
            | _ -> ())
          b.s_captures)
    a.s_captures;
  (* Re-point B's command-group construction at A's handler. *)
  let h_a = Core.operand a.s_parallel_for 0 in
  List.iter
    (fun cap ->
      Core.set_operand cap 0 h_a;
      Core.set_attr cap "index"
        (Attr.Int (Sycl_host_ops.set_captured_index cap + n_a)))
    b.s_captures;
  Core.walk m ~f:(fun op ->
      if
        Sycl_host_ops.is_accessor_ctor op
        && Core.value_equal (Core.operand op 1) (Core.result b.s_submit 0)
      then Core.set_operand op 1 h_a);
  Core.set_attr a.s_parallel_for "kernel" (Attr.Symbol (Core.func_sym fused));
  (* The surviving launch now stands for both original launches. *)
  a.s_parallel_for.Core.loc <-
    Loc.fused [ a.s_parallel_for.Core.loc; b.s_parallel_for.Core.loc ];
  (* The merged launch must follow the second group's construction ops. *)
  Core.move_before ~anchor:b.s_parallel_for a.s_parallel_for;
  Core.erase_op b.s_parallel_for;
  Core.erase_op b.s_nd_range;
  (match Core.uses (Core.result b.s_submit 0) with
  | [] -> Core.erase_op b.s_submit
  | _ -> ());
  Remarks.emit ~pass:"kernel-fusion" ~name:"fused" Remarks.Passed
    ~func:(Core.func_sym fused) ~loc:fused.Core.loc
    (Printf.sprintf
       "kernels %s and %s fused into one launch: one command group replaces \
        two, and the shared buffer's dataflow becomes internal"
       (Core.func_sym a.s_kernel) (Core.func_sym b.s_kernel));
  Pass.Stats.bump stats "fusion.fused"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(** Why an adjacent pair of launch sites did not fuse — the
    -Rpass-missed reason shown for the first condition that fails. *)
let missed_fusion_reason (block : Core.block) (a : site) (b : site) :
    string option =
  if not (Types.equal (item_type a.s_kernel) (item_type b.s_kernel)) then
    Some "kernels have different dimensionality or item kinds"
  else if has_barrier a.s_kernel || has_barrier b.s_kernel then
    Some "a kernel contains a work-group barrier"
  else if not (same_nd_range a b) then
    Some "launch ranges are not value-identical plain ranges"
  else if not (construction_only_between block a.s_parallel_for b.s_parallel_for)
  then Some "host code other than command-group construction sits between the launches"
  else if not (dependence_safe a b) then
    Some
      "a shared buffer with a writer is not accessed purely at the \
       work-item's own index, so per-work-item sequencing would break the \
       inter-kernel dependence"
  else None

let try_fuse_in_block (m : Core.op) ~fusions (block : Core.block) stats : bool =
  let pfs = List.filter Sycl_host_ops.is_parallel_for (Core.ops block) in
  let rec pairs = function
    | pf_a :: (pf_b :: _ as rest) -> (
      match (site_of m pf_a, site_of m pf_b) with
      | Some a, Some b -> (
        match missed_fusion_reason block a b with
        | None ->
          fuse m ~fusions a b stats;
          true
        | Some reason ->
          if Remarks.enabled () then
            Remarks.emit ~pass:"kernel-fusion" ~name:"not-fused"
              Remarks.Missed
              ~func:(Core.func_sym a.s_kernel)
              (Printf.sprintf "launches of %s and %s not fused: %s"
                 (Core.func_sym a.s_kernel) (Core.func_sym b.s_kernel) reason);
          pairs rest)
      | _ -> pairs rest)
    | _ -> false
  in
  pairs pfs

let run (m : Core.op) stats =
  let fusions = ref 0 in
  List.iter
    (fun f ->
      if not (Dialects.Func.is_declaration f) then
        Core.walk f ~f:(fun op ->
            Array.iter
              (fun r ->
                List.iter
                  (fun blk ->
                    (* Fuse repeatedly: a fused site may fuse again. *)
                    let continue_ = ref true in
                    while !continue_ do
                      continue_ := try_fuse_in_block m ~fusions blk stats
                    done)
                  r.Core.blocks)
              op.Core.regions))
    (List.filter (fun f -> not (Uniformity.is_kernel f)) (Core.funcs m));
  (* Drop kernels no launch references anymore. *)
  let referenced = Hashtbl.create 8 in
  Core.walk m ~f:(fun op ->
      if Sycl_host_ops.is_parallel_for op then
        match Sycl_host_ops.parallel_for_kernel op with
        | Some k -> Hashtbl.replace referenced k ()
        | None -> ());
  List.iter
    (fun f ->
      if Uniformity.is_kernel f && not (Hashtbl.mem referenced (Core.func_sym f))
      then begin
        Core.walk f ~f:(fun o -> if not (o == f) then Core.erase_op_unsafe o);
        Core.erase_op f;
        Pass.Stats.bump stats "fusion.dead-kernels-removed"
      end)
    (Core.funcs m)

let pass = Pass.make "kernel-fusion" run
