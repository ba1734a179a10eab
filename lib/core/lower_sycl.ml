(* Progressive lowering of the SYCL dialect (the paper's Section IV:
   "lowered only after optimizations benefiting from access to the SYCL
   semantics have concluded").

   Accessor kernel arguments are flattened into DPC++'s actual ABI — the
   "four kernel arguments" of Section VII-B: the data pointer plus the
   access range, underlying memory range and offset (one index scalar per
   dimension each). Accessor subscripts become explicit row-major address
   arithmetic over the flattened pointer; accessor member getters become
   direct uses of the corresponding scalar argument.

   The item-like argument and the work-item query ops remain: they lower
   to platform built-ins only at target code generation, which is outside
   this reproduction's scope.

   The pass is a whole-function ABI change, so the runtime must expand
   captures accordingly; the lowered kernel carries the
   ["sycl.abi_expansion"] attribute describing, per original capture, how
   many arguments it now occupies. Opt-in (not part of the evaluated
   pipelines), like kernel fusion. *)

open Mlir

let abi_attr = "sycl.abi_expansion"

let expansion_of_kernel (kernel : Core.op) : int list option =
  match Core.attr kernel abi_attr with
  | Some (Attr.Array xs) -> Some (List.filter_map Attr.as_int xs)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Applicability                                                       *)
(* ------------------------------------------------------------------ *)

let supported_use (op : Core.op) =
  (Sycl_ops.is_subscript op && Sycl_ops.subscript_is_direct op)
  || List.mem op.Core.name Sycl_ops.accessor_member_getters

(* Subscript views must feed exactly loads/stores at constant index 0. *)
let subscript_uses_ok (op : Core.op) =
  List.for_all
    (fun (user, idx) ->
      let index_ok indices =
        match indices with
        | [ i ] -> Rewrite.constant_of_value i = Some (Attr.Int 0)
        | _ -> false
      in
      if Dialects.Memref.is_load user && idx = 0 then
        let _, indices = Dialects.Memref.load_parts user in
        index_ok indices
      else if Dialects.Memref.is_store user && idx = 1 then
        let _, _, indices = Dialects.Memref.store_parts user in
        index_ok indices
      else false)
    (Core.uses (Core.result op 0))

let can_lower (kernel : Core.op) =
  let ok = ref true in
  List.iter
    (fun arg ->
      if Sycl_types.is_accessor arg.Core.vty then
        List.iter
          (fun (user, _) -> if not (supported_use user) then ok := false)
          (Core.uses arg))
    (Core.block_args (Core.func_body kernel));
  Core.walk kernel ~f:(fun op ->
      if Sycl_ops.is_subscript op && not (subscript_uses_ok op) then ok := false);
  !ok

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)
(* ------------------------------------------------------------------ *)

type flat_arg = {
  fa_data : Core.value;
  fa_range : Core.value array;
  fa_mem_range : Core.value array;
  fa_offset : Core.value array;
}

type rewriter = {
  (* old value id -> new value *)
  vmap : (int, Core.value) Hashtbl.t;
  (* old accessor value id -> flattened descriptor *)
  flat : (int, flat_arg) Hashtbl.t;
  (* old subscript result id -> (data, linear index) *)
  addresses : (int, Core.value * Core.value) Hashtbl.t;
}

let mapped rw v =
  match Hashtbl.find_opt rw.vmap v.Core.vid with Some v' -> v' | None -> v

(* Row-major linear address of [idxs] (+ offsets) against mem_range. *)
let linear_address bld (fa : flat_arg) (idxs : Core.value list) =
  let d = List.length idxs in
  let strides = Array.make d None in
  for k = d - 2 downto 0 do
    strides.(k) <-
      Some
        (match strides.(k + 1) with
        | None -> fa.fa_mem_range.(k + 1)
        | Some s -> Dialects.Arith.muli bld s fa.fa_mem_range.(k + 1))
  done;
  List.mapi (fun k idx -> (k, idx)) idxs
  |> List.fold_left
       (fun acc (k, idx) ->
         let shifted = Dialects.Arith.addi bld idx fa.fa_offset.(k) in
         let term =
           match strides.(k) with
           | None -> shifted
           | Some s -> Dialects.Arith.muli bld shifted s
         in
         match acc with
         | None -> Some term
         | Some a -> Some (Dialects.Arith.addi bld a term))
       None
  |> Option.get

let rec rewrite_ops rw (bld : Builder.t) (ops : Core.op list) =
  List.iter
    (fun (op : Core.op) ->
      let acc_of i = Hashtbl.find_opt rw.flat (Core.operand op i).Core.vid in
      if op.Core.name = "func.return" then ()
      else if Sycl_ops.is_subscript op && acc_of 0 <> None then begin
        let fa = Option.get (acc_of 0) in
        let idxs = List.map (mapped rw) (Sycl_ops.subscript_indices op) in
        let lin = linear_address bld fa idxs in
        Hashtbl.replace rw.addresses (Core.result op 0).Core.vid (fa.fa_data, lin)
      end
      else if
        Dialects.Memref.is_load op
        && Hashtbl.mem rw.addresses (Core.operand op 0).Core.vid
      then begin
        let data, lin = Hashtbl.find rw.addresses (Core.operand op 0).Core.vid in
        let v = Dialects.Memref.load bld data [ lin ] in
        Hashtbl.replace rw.vmap (Core.result op 0).Core.vid v
      end
      else if
        Dialects.Memref.is_store op
        && Hashtbl.mem rw.addresses (Core.operand op 1).Core.vid
      then begin
        let data, lin = Hashtbl.find rw.addresses (Core.operand op 1).Core.vid in
        Dialects.Memref.store bld (mapped rw (Core.operand op 0)) data [ lin ]
      end
      else if
        List.mem op.Core.name Sycl_ops.accessor_member_getters && acc_of 0 <> None
      then begin
        let fa = Option.get (acc_of 0) in
        match Sycl_ops.getter_dim op with
        | Some dim ->
          let v =
            match op.Core.name with
            | "sycl.accessor.get_range" -> fa.fa_range.(dim)
            | "sycl.accessor.get_mem_range" -> fa.fa_mem_range.(dim)
            | _ -> fa.fa_offset.(dim)
          in
          Hashtbl.replace rw.vmap (Core.result op 0).Core.vid v
        | None -> invalid_arg "lower-sycl: non-constant getter dimension"
      end
      else begin
        (* Generic op: rebuild with rewritten operands and recursively
           rewritten regions. *)
        let regions =
          Array.to_list op.Core.regions
          |> List.map (fun (r : Core.region) ->
                 let blocks =
                   List.map
                     (fun (blk : Core.block) ->
                       let nb =
                         Core.create_block
                           ~args:(List.map (fun a -> a.Core.vty) (Core.block_args blk))
                           ()
                       in
                       Array.iteri
                         (fun i a ->
                           Hashtbl.replace rw.vmap a.Core.vid nb.Core.bargs.(i))
                         blk.Core.bargs;
                       (blk, nb))
                     r.Core.blocks
                 in
                 List.iter
                   (fun ((blk : Core.block), nb) ->
                     rewrite_ops rw (Builder.at_end nb) blk.Core.body)
                   blocks;
                 Core.create_region ~blocks:(List.map snd blocks) ())
        in
        let cloned =
          Core.create_op op.Core.name
            ~operands:(List.map (mapped rw) (Core.operands op))
            ~result_types:(List.map (fun r -> r.Core.vty) (Core.results op))
            ~attrs:op.Core.attrs ~regions
        in
        ignore (Builder.insert bld cloned);
        Array.iteri
          (fun i r ->
            Hashtbl.replace rw.vmap r.Core.vid cloned.Core.results.(i))
          op.Core.results
      end)
    ops

(* ------------------------------------------------------------------ *)
(* Kernel ABI flattening                                               *)
(* ------------------------------------------------------------------ *)

let lower_kernel (m : Core.op) (kernel : Core.op) stats =
  let old_body = Core.func_body kernel in
  let old_args = Core.block_args old_body in
  let expansion =
    List.tl old_args
    |> List.map (fun arg ->
           match Sycl_types.accessor_info arg.Core.vty with
           | Some info -> info.Sycl_types.acc_dims
           | None -> 0)
  in
  let new_arg_tys =
    (List.hd old_args).Core.vty
    :: List.concat_map
         (fun arg ->
           match Sycl_types.accessor_info arg.Core.vty with
           | Some info ->
             let d = info.Sycl_types.acc_dims in
             Types.memref_dyn info.Sycl_types.acc_element
             :: List.init (3 * d) (fun _ -> Types.Index)
           | None -> [ arg.Core.vty ])
         (List.tl old_args)
  in
  let name = Core.func_sym kernel in
  (* Free the symbol for the lowered function. *)
  Core.set_attr kernel "sym_name" (Attr.String (name ^ "__presycl"));
  let lowered =
    Dialects.Func.func m name ~args:new_arg_tys ~results:[] (fun b vals ->
        let rw =
          { vmap = Hashtbl.create 64; flat = Hashtbl.create 8;
            addresses = Hashtbl.create 16 }
        in
        Hashtbl.replace rw.vmap (List.hd old_args).Core.vid (List.hd vals);
        let rest = ref (List.tl vals) in
        let take () =
          match !rest with
          | v :: tl ->
            rest := tl;
            v
          | [] -> invalid_arg "lower-sycl: argument underflow"
        in
        List.iter
          (fun arg ->
            match Sycl_types.accessor_info arg.Core.vty with
            | Some info ->
              let d = info.Sycl_types.acc_dims in
              let fa_data = take () in
              let fa_range = Array.init d (fun _ -> take ()) in
              let fa_mem_range = Array.init d (fun _ -> take ()) in
              let fa_offset = Array.init d (fun _ -> take ()) in
              Hashtbl.replace rw.flat arg.Core.vid
                { fa_data; fa_range; fa_mem_range; fa_offset }
            | None -> Hashtbl.replace rw.vmap arg.Core.vid (take ()))
          (List.tl old_args);
        rewrite_ops rw b old_body.Core.body;
        Dialects.Func.return b [])
  in
  Core.set_attr lowered "sycl.kernel" Attr.Unit;
  Core.set_attr lowered abi_attr
    (Attr.Array (List.map (fun d -> Attr.Int d) expansion));
  (* The pre-lowering function is dropped. *)
  Core.walk kernel ~f:(fun o -> if not (o == kernel) then Core.erase_op_unsafe o);
  Core.erase_op kernel;
  Pass.Stats.bump stats "lower-sycl.kernels"

let run (m : Core.op) stats =
  List.iter
    (fun f ->
      if Uniformity.is_kernel f && expansion_of_kernel f = None then
        if can_lower f then lower_kernel m f stats
        else Pass.Stats.bump stats "lower-sycl.skipped")
    (Core.funcs m)

let pass = Pass.make "lower-sycl" run
