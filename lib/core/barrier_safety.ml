(* Barrier-safety diagnostic: a group barrier executed in a divergent
   region deadlocks on hardware (Section V-C's motivation for the
   uniformity analysis; the simulator raises Barrier_divergence in the
   same situation). This pass reports every barrier whose enclosing
   control flow is not provably uniform — a static version of that check,
   usable as a verification gate after transformations that insert
   barriers — as one located analysis remark per barrier. *)

open Mlir

type diagnostic = {
  bd_kernel : string;
  bd_barrier : Core.op;
  bd_guards : Core.value list;  (** the non-uniform guarding values *)
}

let check (m : Core.op) : diagnostic list =
  let uniformity = Uniformity.analyze m in
  let diags = ref [] in
  List.iter
    (fun f ->
      if Uniformity.is_kernel f then
        Core.walk f ~f:(fun op ->
            if Sycl_ops.is_barrier op then begin
              let bad_guards =
                List.filter
                  (fun v -> Uniformity.value uniformity v <> Uniformity.Uniform)
                  (Uniformity.guarding_values op)
              in
              if bad_guards <> [] then
                diags :=
                  { bd_kernel = Core.func_sym f; bd_barrier = op;
                    bd_guards = bad_guards }
                  :: !diags
            end))
    (Core.funcs m);
  List.rev !diags

let pass =
  Pass.make "barrier-safety" (fun m stats ->
      let diags = check m in
      Pass.Stats.bump ~by:(List.length diags) stats "barrier-safety.divergent-barriers";
      List.iter
        (fun d ->
          Remarks.emit ~pass:"barrier-safety" ~name:"divergent-barrier"
            Remarks.Analysis ~op:d.bd_barrier
            "group barrier under divergent control flow")
        diags)
