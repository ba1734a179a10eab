(* Dead code elimination: removes unused pure ops (post-order, to free up
   operands of earlier dead ops) and unused local allocations that are
   only ever written. *)

open Mlir

let is_alloc (op : Core.op) =
  List.mem op.Core.name
    [ "memref.alloca"; "memref.alloc"; "gpu.alloc_local"; "llvm.alloca" ]

(* An allocation is dead when every use is a pure address computation or a
   store INTO it (the stored values are then never observable). *)
let dead_alloc_uses (op : Core.op) =
  let rec check (v : Core.value) =
    List.for_all
      (fun (user, idx) ->
        if Dialects.Memref.is_store user then idx = 1 (* target, not value *)
        else if Sycl_ops.is_constructor user then idx = 0
        else if user.Core.name = "memref.dealloc" then true
        else if Sycl_ops.is_subscript user && idx = 0 then
          check (Core.result user 0)
        else false)
      (Core.uses v)
  in
  check (Core.result op 0)

let run_on_func (f : Core.op) stats =
  let changed = ref true in
  while !changed do
    changed := false;
    (* Post-order collection. *)
    let ops = ref [] in
    Core.walk f ~f:(fun o -> if not (o == f) then ops := o :: !ops);
    List.iter
      (fun op ->
        if op.Core.parent_block <> None then
          if Rewrite.erase_if_dead op then begin
            changed := true;
            Pass.Stats.bump stats "dce.erased"
          end
          else if is_alloc op && dead_alloc_uses op then begin
            (* Erase the allocation and all its users. *)
            let rec erase_users (v : Core.value) =
              List.iter
                (fun (user, _) ->
                  if user.Core.parent_block <> None then begin
                    List.iter erase_users (Core.results user);
                    Core.erase_op_unsafe user
                  end)
                (Core.uses v)
            in
            erase_users (Core.result op 0);
            Core.erase_op op;
            changed := true;
            Pass.Stats.bump stats "dce.dead-alloc"
          end)
      !ops
  done

let pass = Pass.on_functions ~idempotent:true "dce" run_on_func
