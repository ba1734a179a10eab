(* Store-to-load forwarding: a load whose address must-alias a preceding
   store in the same block — with no possibly-aliasing write in between —
   takes the stored value directly. After kernel fusion (see
   Kernel_fusion), this removes the reload of the intermediate buffer
   element the producer kernel just wrote, realizing the "dataflow ...
   made internal to the fused kernel" benefit the paper's Section VII
   anticipates. *)

open Mlir

let run_on_block stats (block : Core.block) =
  (* last definite store per location, invalidated conservatively *)
  let forward (load : Core.op) =
    let lmem, lidx = Dialects.Memref.load_parts load in
    (* Scan backwards from the load within its block. *)
    let rec scan = function
      | [] -> None
      | op :: before when op == load -> scan_before before
      | _ :: before -> scan before
    and scan_before = function
      | [] -> None
      | op :: before -> (
        if Dialects.Memref.is_store op then begin
          let v, smem, sidx = Dialects.Memref.store_parts op in
          if
            Alias.must_alias lmem smem
            && List.length lidx = List.length sidx
            && List.for_all2 Core.value_equal lidx sidx
          then Some v
          else if Alias.may_alias smem lmem then None
          else scan_before before
        end
        else
          match Op_registry.memory_effects op with
          | Some effects ->
            let clobbers =
              List.exists
                (fun (kind, target) ->
                  match (kind, target) with
                  | (Op_registry.Write | Op_registry.Free), Op_registry.On_operand i
                    -> Alias.may_alias (Core.operand op i) lmem
                  | (Op_registry.Write | Op_registry.Free), _ -> true
                  | _ -> false)
                effects
            in
            (* Ops with regions may contain writes. *)
            let region_clobbers =
              Core.num_regions op > 0 && not (Op_registry.is_pure op)
            in
            if clobbers || region_clobbers then None else scan_before before
          | None -> None)
    in
    scan (List.rev (Core.ops block))
  in
  List.iter
    (fun op ->
      Pass.Stats.bump stats "store-forwarding.ops_visited";
      if Dialects.Memref.is_load op && op.Core.parent_block != None then begin
        Pass.Stats.bump stats "store-forwarding.loads-scanned";
        match forward op with
        | Some v when Types.equal v.Core.vty (Core.result op 0).Core.vty ->
          if Remarks.enabled () then
            Remarks.emit ~pass:"store-forwarding" ~name:"forwarded"
              Remarks.Passed ~op
              "load replaced by the value of a must-aliasing store in the \
               same block (no intervening may-aliasing write)";
          Core.replace_op op [ v ];
          Pass.Stats.bump stats "store-forwarding.forwarded"
        | Some _ ->
          if Remarks.enabled () then
            Remarks.emit ~pass:"store-forwarding" ~name:"type-mismatch"
              Remarks.Missed ~op
              "matching store found but the stored value's type differs \
               from the loaded type"
        | None -> ()
      end)
    (Core.ops block)

let run_on_func (f : Core.op) stats =
  Core.walk f ~f:(fun op ->
      Array.iter
        (fun r -> List.iter (fun b -> run_on_block stats b) r.Core.blocks)
        op.Core.regions)

let pass = Pass.on_functions "store-forwarding" run_on_func
