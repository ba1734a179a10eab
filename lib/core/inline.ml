(* Function inlining for device code: direct calls to small, defined,
   non-recursive functions are replaced by a copy of the callee body.
   Kernels in this compiler are usually single functions, but SYCL code
   frequently factors helpers (distance functions, index helpers); after
   inlining, the intra-procedural device analyses see through them. *)

open Mlir

(* A function is inlinable when it is defined, has a single block whose
   terminator is the func.return, and does not call itself. *)
let inlinable (f : Core.op) =
  (not (Dialects.Func.is_declaration f))
  &&
  match f.Core.regions.(0).Core.blocks with
  | [ body ] -> (
    match Core.last_op body with
    | Some term when term.Core.name = "func.return" ->
      not
        (List.exists
           (fun o ->
             Dialects.Func.is_call o
             && Dialects.Func.callee o = Some (Core.func_sym f))
           (Core.collect f ~p:(fun _ -> true)))
    | _ -> false)
  | _ -> false

(** Inline one call site. The callee body is cloned before the call with
    formals mapped to actuals; call results are replaced by the cloned
    return operands. *)
let inline_call (callee : Core.op) (call : Core.op) =
  let body = Core.func_body callee in
  let value_map = Hashtbl.create 32 in
  List.iteri
    (fun i formal ->
      Hashtbl.replace value_map formal.Core.vid (Core.operand call i))
    (Core.block_args body);
  let returned = ref [] in
  List.iter
    (fun op ->
      if op.Core.name = "func.return" then
        returned :=
          List.map
            (fun v ->
              match Hashtbl.find_opt value_map v.Core.vid with
              | Some v' -> v'
              | None -> v)
            (Core.operands op)
      else begin
        let cloned = Core.clone_op ~value_map op in
        Core.insert_before ~anchor:call cloned;
        (* MLIR-style inlining location: each inlined op remembers where it
           came from (callee side) and where it landed (the call site). *)
        Core.walk cloned ~f:(fun o ->
            o.Core.loc <-
              Loc.callsite ~callee:o.Core.loc ~caller:call.Core.loc)
      end)
    (Core.ops body);
  Core.replace_op call !returned

let max_rounds = 8

let run (m : Core.op) stats =
  (* Not-inlinable call sites are reported once, not once per round. *)
  let reported = Hashtbl.create 8 in
  (* Iterate so chains of helpers flatten (bounded; recursion excluded). *)
  let round () =
    let changed = ref false in
    List.iter
      (fun f ->
        if not (Dialects.Func.is_declaration f) then begin
          let calls = Core.collect f ~p:Dialects.Func.is_call in
          List.iter
            (fun call ->
              if call.Core.parent_block <> None then
                match Option.bind (Dialects.Func.callee call) (Core.lookup_func m) with
                | Some callee when (not (callee == f)) && inlinable callee ->
                  if Remarks.enabled () then
                    Remarks.emit ~pass:"inline" ~name:"inlined" Remarks.Passed
                      ~op:call
                      (Printf.sprintf "call to @%s inlined into @%s"
                         (Core.func_sym callee) (Core.func_sym f));
                  inline_call callee call;
                  Pass.Stats.bump stats "inline.inlined";
                  changed := true
                | Some callee
                  when (not (callee == f))
                       && not (Hashtbl.mem reported call.Core.oid) ->
                  Hashtbl.replace reported call.Core.oid ();
                  Pass.Stats.bump stats "inline.not-inlinable";
                  if Remarks.enabled () then
                    Remarks.emit ~pass:"inline" ~name:"not-inlinable"
                      Remarks.Missed ~op:call
                      (Printf.sprintf
                         "call to @%s not inlined: callee is a declaration, \
                          multi-block, or recursive"
                         (Core.func_sym callee))
                | _ -> ())
            calls
        end)
      (Core.funcs m);
    !changed
  in
  let n = ref 0 in
  while round () && !n < max_rounds do
    incr n
  done;
  (* Drop private helpers that are no longer called (kernels and main are
     entry points). *)
  let called = Hashtbl.create 8 in
  Core.walk m ~f:(fun o ->
      if Dialects.Func.is_call o || Dialects.Llvm.is_call o then
        match Core.attr_symbol o "callee" with
        | Some c -> Hashtbl.replace called c ()
        | None -> ());
  List.iter
    (fun f ->
      let name = Core.func_sym f in
      if
        (not (Uniformity.is_kernel f))
        && name <> "main"
        && (not (Dialects.Func.is_declaration f))
        && not (Hashtbl.mem called name)
      then begin
        if Remarks.enabled () then
          Remarks.emit ~pass:"inline" ~name:"dead-function-removed"
            Remarks.Passed ~func:name
            "uncalled private helper removed after inlining";
        Core.erase_op f;
        Pass.Stats.bump stats "inline.dead-functions-removed"
      end)
    (Core.funcs m)

let pass = Pass.make "inline" run
