(* Loop internalization (Section VI-C): accessor loads inside a kernel
   loop that exhibit temporal reuse are prefetched, one work-group-sized
   tile at a time, into work-group local memory. The loop is tiled by the
   work-group size M; each work-item cooperatively loads one tile element;
   group barriers separate the fill from the tiled inner loop, so the
   Uniformity analysis must first prove the loop is not in a divergent
   region (a barrier there would deadlock).

   The supported access shapes are the Kaeli-style patterns of the
   polyhedral benchmarks: each accessor index row is either
       gid_d + c   (one work-item global-id dimension), or
       iv + c      (the candidate loop's induction variable), or
       c           (a constant),
   with exactly one iv row per access. This covers e.g. A[i][k], B[k][j],
   B[j][k] in the matmul family (2mm, 3mm, gemm, syrk, syr2k). *)

open Mlir

type row_shape =
  | Row_gid of int * int  (* dimension, offset *)
  | Row_iv of int  (* offset; coefficient on iv is 1 *)
  | Row_const of int

type candidate = {
  cand_access : Memory_access.access;
  cand_rows : row_shape list;
  cand_accessor : Core.value;
}

let remark = Remarks.emit ~pass:"loop-internalization"

(** Decompose the access-matrix rows of [a] against the candidate loop
    [loop]. Returns None when the shape is unsupported. *)
let row_shapes (loop : Core.op) (a : Memory_access.access) : row_shape list option =
  let vars = Array.of_list a.Memory_access.vars in
  let shape_of_row row offset =
    let nz =
      Array.to_list (Array.mapi (fun i c -> (i, c)) row)
      |> List.filter (fun (_, c) -> c <> 0)
    in
    match nz with
    | [] -> Some (Row_const offset)
    | [ (col, 1) ] -> (
      match vars.(col) with
      | Memory_access.Global_id d -> Some (Row_gid (d, offset))
      | Memory_access.Loop_iv oid when oid = loop.Core.oid -> Some (Row_iv offset)
      | _ -> None)
    | _ -> None
  in
  let rows =
    List.mapi
      (fun i row -> shape_of_row row a.Memory_access.offsets.(i))
      (Array.to_list a.Memory_access.matrix)
  in
  if List.for_all Option.is_some rows then Some (List.map Option.get rows)
  else None

let is_candidate ~(kd : int) (loop : Core.op) (a : Memory_access.access) :
    candidate option =
  if a.Memory_access.kind <> Memory_access.Load then None
    (* Stores are currently not considered (same restriction the paper
       reports for its implementation). *)
  else if not a.Memory_access.temporal_reuse then None
  else
    match (a.Memory_access.accessor, row_shapes loop a) with
    | Some acc, Some rows ->
      let n_iv =
        List.length (List.filter (function Row_iv _ -> true | _ -> false) rows)
      in
      let n_gid =
        List.length (List.filter (function Row_gid _ -> true | _ -> false) rows)
      in
      let rank = List.length rows in
      (* Supported tile shapes: rank-2 accesses in 2-D kernels with one iv
         row and at most one gid row (the matmul family), and rank-1
         accesses indexed purely by the loop iv (streamed vectors). *)
      let shape_ok =
        (rank = 2 && kd = 2 && n_iv = 1 && n_gid <= 1)
        || (rank = 1 && n_iv = 1 && n_gid = 0)
      in
      if shape_ok then
        Some { cand_access = a; cand_rows = rows; cand_accessor = acc }
      else None
    | _ -> None

(** Tile size = work-group size. Taken from the launch configuration when
    host analysis recorded one ("sycl.wg_size"); otherwise the runtime's
    preferred work-group size for the kernel's dimensionality is assumed
    and the generated code re-checks it at runtime (the versioning
    condition includes local-range equality, so a mismatching launch falls
    back to the original loop). *)
let wg_tile_size (kernel : Core.op) ~(kd : int) =
  match Core.attr kernel "sycl.wg_size" with
  | Some (Attr.Array xs) -> (
    match List.filter_map Attr.as_int xs with
    | [ m ] -> Some m
    | [ m0; m1 ] when m0 = m1 -> Some m0
    | _ -> None)
  | _ -> (
    match kd with
    | 1 -> Some Launch_policy.preferred_wg_1d
    | 2 -> Some Launch_policy.preferred_wg_2d
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* IR construction helpers                                             *)
(* ------------------------------------------------------------------ *)

(** (Re)materialize a global/local id getter at builder [b]. *)
let build_gid b (item : Core.value) d =
  let dim = Dialects.Arith.const_int b ~ty:Types.i32 d in
  match item.Core.vty with
  | Sycl_types.Nd_item _ -> Sycl_ops.nd_item_get_global_id b item dim
  | _ -> Sycl_ops.item_get_id b item dim

let build_lid b (item : Core.value) d =
  let dim = Dialects.Arith.const_int b ~ty:Types.i32 d in
  Sycl_ops.nd_item_get_local_id b item dim

let add_offset b v c =
  if c = 0 then v else Dialects.Arith.addi b v (Dialects.Arith.const_index b c)

(** Load one element of [accessor] at the index values [idx] (one per
    accessor dimension). *)
let load_accessor_element b (accessor : Core.value) (idx : Core.value list) =
  let view = Sycl_ops.accessor_subscript_multi b accessor idx in
  let c0 = Dialects.Arith.const_index b 0 in
  Dialects.Memref.load b view [ c0 ]

type tile = {
  tile_mem : Core.value;
  tile_cand : candidate;
  (* Index dimension of the local id the iv row maps to during fill. *)
  fill_iv_lid : int;
}

(* ------------------------------------------------------------------ *)
(* The transformation                                                  *)
(* ------------------------------------------------------------------ *)

(** Apply the transformation to [loop] in [kernel] for [cands]. [m] is the
    square work-group tile size. *)
let apply ~(kernel : Core.op) (loop : Core.op) (cands : candidate list) ~(m : int)
    (stats : Pass.Stats.t) =
  let kd = Memory_access.kernel_dims kernel in
  let item =
    match Memory_access.item_arg kernel with
    | Some v -> v
    | None -> invalid_arg "loop_internalization: kernel has no item argument"
  in
  (* Everything the rewrite materializes (ids, tiles, versioning guard,
     fill loop, tiled loop) stands for the original loop fused with the
     internalized accesses: builders stamp that location by default. *)
  let fused_loc =
    Loc.fused
      (loop.Core.loc
      :: List.map (fun c -> c.cand_access.Memory_access.acc_op.Core.loc) cands)
  in
  let entry = Core.func_body kernel in
  let top_builder = Builder.at_start entry in
  Builder.set_default_loc top_builder fused_loc;
  (* Local ids and gids, materialized at kernel entry (CSE cleans dups). *)
  let lids = Array.init kd (fun d -> build_lid top_builder item d) in
  let gid_cache = Hashtbl.create 4 in
  let gid d =
    match Hashtbl.find_opt gid_cache d with
    | Some v -> v
    | None ->
      let v = build_gid top_builder item d in
      Hashtbl.replace gid_cache d v;
      v
  in
  (* One local tile per candidate. Tile rank mirrors the access rank. *)
  let tiles =
    List.map
      (fun c ->
        let elem =
          match Sycl_types.accessor_info c.cand_accessor.Core.vty with
          | Some info -> info.Sycl_types.acc_element
          | None -> Types.f32
        in
        let rank = List.length c.cand_rows in
        let shape = List.init rank (fun _ -> m) in
        let tile_mem = Dialects.Gpu.alloc_local top_builder shape elem in
        (* The local-id dimension that walks the iv direction during the
           fill: the dimension not taken by the gid row (2-D work-groups),
           or dimension 0 for 1-D kernels. *)
        let gid_dim =
          List.find_map
            (function Row_gid (d, _) -> Some d | _ -> None)
            c.cand_rows
        in
        let fill_iv_lid =
          match gid_dim with
          | Some d when kd = 2 -> 1 - d
          | _ -> 0
        in
        { tile_mem; tile_cand = c; fill_iv_lid })
      cands
  in
  let b = Builder.before loop in
  Builder.set_default_loc b fused_loc;
  let lb, ub = Dialects.Loop.bound_values b loop in
  let m_c = Dialects.Arith.const_index b m in
  let zero = Dialects.Arith.const_index b 0 in
  (* Versioning: range > 0 && range mod M == 0. *)
  let range = Dialects.Arith.subi b ub lb in
  let pos = Dialects.Arith.cmpi b Dialects.Arith.Sgt range zero in
  let rem = Dialects.Arith.remsi b range m_c in
  let divisible = Dialects.Arith.cmpi b Dialects.Arith.Eq rem zero in
  let ok = Dialects.Arith.andi b pos divisible in
  (* The actual launch must use the assumed work-group size. When host
     analysis proved it (sycl.wg_size attr), no runtime check is needed;
     otherwise the versioning condition re-checks the local range. *)
  let ok =
    if Core.attr kernel "sycl.wg_size" <> None then ok
    else
      let check_dim acc d =
        let dim = Dialects.Arith.const_int b ~ty:Types.i32 d in
        let lr = Sycl_ops.nd_item_get_local_range b item dim in
        let eq = Dialects.Arith.cmpi b Dialects.Arith.Eq lr m_c in
        Dialects.Arith.andi b acc eq
      in
      List.fold_left check_dim ok (List.init kd Fun.id)
  in
  let orig_result_tys = List.map (fun r -> r.Core.vty) (Core.results loop) in
  let orig_inits = Dialects.Loop.iter_inits loop in
  let orig_clone = Core.clone_op loop in
  let body = Dialects.Loop.body loop in
  let orig_iv = Dialects.Loop.iv loop in
  let orig_iter_args = Dialects.Loop.iter_args loop in
  let orig_term =
    match Dialects.Loop.yield loop with
    | Some t -> t
    | None -> invalid_arg "loop_internalization: no terminator"
  in
  let orig_yields = Core.operands orig_term in
  let if_op =
    Dialects.Scf.if_ b ok ~result_types:orig_result_tys
      ~then_:(fun bb ->
        Builder.set_default_loc bb fused_loc;
        (* Outer tiled loop over t. *)
        let outer =
          Dialects.Scf.for_ bb ~lb ~ub ~step:m_c ~iter_args:orig_inits
            (fun ob t outer_args ->
              Builder.set_default_loc ob fused_loc;
              (* Cooperative fill of each tile. *)
              List.iter
                (fun tile ->
                  let c = tile.tile_cand in
                  let fill_lid = lids.(tile.fill_iv_lid) in
                  let idx =
                    List.map
                      (fun row ->
                        match row with
                        | Row_gid (d, off) -> add_offset ob (gid d) off
                        | Row_iv off ->
                          add_offset ob (Dialects.Arith.addi ob t fill_lid) off
                        | Row_const cst -> Dialects.Arith.const_index ob cst)
                      c.cand_rows
                  in
                  let loaded = load_accessor_element ob c.cand_accessor idx in
                  (* Tile store index: gid rows -> lid_d, iv row -> the
                     fill lid, const rows -> lid of the fill dimension
                     (replicated; use 0 guarded below if 1-D in 2-D WG). *)
                  let tidx =
                    List.map
                      (fun row ->
                        match row with
                        | Row_gid (d, _) -> lids.(d)
                        | Row_iv _ -> fill_lid
                        | Row_const _ -> zero)
                      c.cand_rows
                  in
                  let rank = List.length c.cand_rows in
                  if rank = 1 && kd = 2 then begin
                    (* Only one row of work-items fills a 1-D tile. *)
                    let other = lids.(1 - tile.fill_iv_lid) in
                    let is0 = Dialects.Arith.cmpi ob Dialects.Arith.Eq other zero in
                    ignore
                      (Dialects.Scf.if_ ob is0
                         ~then_:(fun tb ->
                           Builder.set_default_loc tb fused_loc;
                           Dialects.Memref.store tb loaded tile.tile_mem tidx;
                           [])
                         ())
                  end
                  else Dialects.Memref.store ob loaded tile.tile_mem tidx)
                tiles;
              Dialects.Gpu.barrier ob;
              (* Tiled inner loop. *)
              let inner =
                Dialects.Scf.for_ ob ~lb:zero ~ub:m_c ~step:(Dialects.Arith.const_index ob 1)
                  ~iter_args:outer_args
                  (fun ib k2 inner_args ->
                    Builder.set_default_loc ib fused_loc;
                    let value_map = Hashtbl.create 32 in
                    let iv2 = Dialects.Arith.addi ib t k2 in
                    Hashtbl.replace value_map orig_iv.Core.vid iv2;
                    List.iter2
                      (fun oarg iarg ->
                        Hashtbl.replace value_map oarg.Core.vid iarg)
                      orig_iter_args inner_args;
                    (* Candidate loads become tile loads; everything else
                       is cloned. *)
                    let tile_for op =
                      List.find_opt
                        (fun tile ->
                          tile.tile_cand.cand_access.Memory_access.acc_op == op)
                        tiles
                    in
                    List.iter
                      (fun op ->
                        if op == orig_term then ()
                        else
                          match tile_for op with
                          | Some tile ->
                            let c = tile.tile_cand in
                            let tidx =
                              List.map
                                (fun row ->
                                  match row with
                                  | Row_gid (d, _) -> lids.(d)
                                  | Row_iv _ -> k2
                                  | Row_const _ -> zero)
                                c.cand_rows
                            in
                            let tl = Dialects.Memref.load ib tile.tile_mem tidx in
                            Hashtbl.replace value_map
                              (Core.result op 0).Core.vid tl
                          | None ->
                            ignore
                              (Builder.insert ib (Core.clone_op ~value_map op)))
                      (Core.ops body);
                    List.map
                      (fun y ->
                        match Hashtbl.find_opt value_map y.Core.vid with
                        | Some v -> v
                        | None -> y)
                      orig_yields)
              in
              Dialects.Gpu.barrier ob;
              Core.results inner)
        in
        Core.results outer)
      ~else_:(fun eb ->
        Builder.insert eb orig_clone |> Core.results)
      ()
  in
  List.iteri
    (fun i r -> Core.replace_all_uses_with r (Core.result if_op i))
    (Core.results loop);
  Core.walk loop ~f:(fun o -> if not (o == loop) then Core.erase_op_unsafe o);
  Core.erase_op_unsafe loop;
  List.iter
    (fun c ->
      remark ~name:"prefetched" Remarks.Passed
        ~func:(Core.func_sym kernel)
        ~loc:(Loc.fused [ loop.Core.loc; c.cand_access.Memory_access.acc_op.Core.loc ])
        (Printf.sprintf
           "accessor load with temporal reuse prefetched into a %dx%d \
            work-group-local tile (loop tiled by the work-group size, with \
            a runtime divisibility guard)"
           m m))
    cands;
  (* Cache-model cross-reference: how the prefetched working set compares
     to the simulated per-core data cache ([Sycl_sim.Cost.default]: 64
     lines of 16 4-byte elements — restated here, lib/core cannot depend
     on lib/sim). A working set within capacity means the tiles also fit
     the modeled cache, so the local-memory prefetch competes with cache
     hits rather than DRAM; beyond capacity the prefetch saves the full
     miss latency. *)
  let cache_capacity_bytes = 64 * 16 * 4 in
  let elem_bytes = 4 in
  let working_set_bytes =
    List.fold_left
      (fun acc c ->
        let rank = List.length c.cand_rows in
        let elems = if rank >= 2 then m * m else m in
        acc + (elems * elem_bytes))
      0 cands
  in
  remark ~name:"working-set" Remarks.Analysis
    ~func:(Core.func_sym kernel) ~loc:loop.Core.loc
    (Printf.sprintf
       "prefetched working set is %d bytes across %d tile(s); the modeled \
        per-core cache holds %d bytes — the tiles %s"
       working_set_bytes (List.length cands) cache_capacity_bytes
       (if working_set_bytes <= cache_capacity_bytes then
          "fit in-cache (prefetch competes with cache hits)"
        else "exceed cache capacity (prefetch avoids repeated misses)"));
  Pass.Stats.bump ~by:(List.length cands) stats "internalization.prefetched";
  Pass.Stats.bump stats "internalization.loops"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let innermost_loops (f : Core.op) =
  let loops = ref [] in
  Core.walk f ~f:(fun o ->
      if Dialects.Loop.is_loop o then begin
        let has_nested_loop = Core.find_first o ~p:Dialects.Loop.is_loop <> None in
        if not has_nested_loop then loops := o :: !loops
      end);
  List.rev !loops

(* [uniformity] and the kernel's reaching definitions are computed on
   first use, so a kernel with no loop to look at pays for neither. The
   first use always precedes the first rewrite (each loop is analyzed
   before it is tiled), so both still describe the kernel as the pass
   found it. *)
let run_on_kernel (uniformity : Uniformity.t Lazy.t) (kernel : Core.op) stats =
  let kname = Core.func_sym kernel in
  match wg_tile_size kernel ~kd:(Memory_access.kernel_dims kernel) with
  | None ->
    remark ~name:"no-tile-size" Remarks.Missed ~func:kname
      "kernel not internalized: no usable work-group tile size (launch \
       configuration unknown or non-square)"
  | Some m ->
    let rd = lazy (Reaching_defs.analyze_with_args kernel) in
    List.iter
      (fun loop ->
        let uniformity = Lazy.force uniformity in
        if
          Uniformity.in_divergent_region uniformity loop
          || List.exists
               (fun v -> Uniformity.value uniformity v <> Uniformity.Uniform)
               (Dialects.Loop.bound_operands loop)
        then begin
          remark ~name:"rejected-divergent" Remarks.Missed ~op:loop
            "loop not internalized: it sits in a divergent region or has \
             non-uniform bounds, so the cooperative-fill barrier could \
             deadlock";
          Pass.Stats.bump stats "internalization.rejected-divergent"
        end
        else if Dialects.Loop.const_step loop <> Some 1 then
          remark ~name:"rejected-step" Remarks.Missed ~op:loop
            "loop not internalized: only unit-step loops are tiled"
        else begin
          let accesses =
            Memory_access.analyze_loop ~kernel (Lazy.force rd) loop
          in
          let cands =
            List.filter_map
              (is_candidate ~kd:(Memory_access.kernel_dims kernel) loop)
              accesses
          in
          (* Refuse when a store in the loop may clobber a prefetched
             accessor (the tile would go stale). *)
          let stores =
            Core.collect loop ~p:(fun o -> Dialects.Memref.is_store o)
          in
          let safe c =
            List.for_all
              (fun st ->
                let _, mem, _ = Dialects.Memref.store_parts st in
                not (Alias.may_alias mem c.cand_accessor))
              stores
          in
          let safe_cands = List.filter safe cands in
          if List.length safe_cands < List.length cands then
            remark ~name:"rejected-clobber" Remarks.Missed ~op:loop
              (Printf.sprintf
                 "%d candidate access(es) not prefetched: a store in the \
                  loop may alias the accessor, so the local tile could go \
                  stale"
                 (List.length cands - List.length safe_cands));
          if safe_cands <> [] then apply ~kernel loop safe_cands ~m stats
        end)
      (innermost_loops kernel)

let run (m : Core.op) stats =
  let uniformity = lazy (Uniformity.analyze m) in
  List.iter
    (fun f -> if Uniformity.is_kernel f then run_on_kernel uniformity f stats)
    (Core.funcs m)

let pass = Pass.make "loop-internalization" run
