(* IR verification: SSA visibility, block structure, per-op registered
   invariants. Used by the pass manager between passes (when enabled) and
   by tests. *)

type diag = {
  message : string;
  culprit : Core.op option;
  d_loc : Loc.t;  (** culprit's source location at failure time *)
  d_context : string;  (** "@func: op path" rendered at failure time *)
}

(* The context is rendered when the diagnostic is created: passes erase
   and detach ops after verification, so the path may not be computable
   later. Even location-less IR gets "@func: scf.for#1 > arith.addi#0"
   instead of bare value ids. *)
let context_of (op : Core.op) =
  match Core.enclosing_func op with
  | Some f when not (Core.is_func op) ->
    Printf.sprintf "@%s: %s" (Core.func_sym f) (Core.op_path op)
  | Some f -> Printf.sprintf "@%s" (Core.func_sym f)
  | None -> Core.op_path op

let diag_to_string d =
  let chain =
    (* Structured locations (call sites, fusions, names) carry history a
       bare file:line:col prefix cannot show — spell the chain out. *)
    match d.d_loc with
    | Loc.Unknown | Loc.File _ -> ""
    | l -> Printf.sprintf " [at %s]" (Loc.describe l)
  in
  match d.culprit with
  | None -> Loc.diag_prefix d.d_loc ^ d.message ^ chain
  | Some op ->
    Printf.sprintf "%s%s (in %s — %s)%s"
      (Loc.diag_prefix d.d_loc)
      d.message d.d_context (Printer.summary op) chain

let failure what diags =
  Printf.sprintf "%s failed verification: %s" what
    (String.concat "; " (List.map diag_to_string diags))

let verify ?(allow_unregistered = true) (top : Core.op) =
  let diags = ref [] in
  let fail ?op fmt =
    Printf.ksprintf
      (fun message ->
        let d_loc, d_context =
          match op with
          | Some o -> (o.Core.loc, context_of o)
          | None -> (Loc.Unknown, "")
        in
        diags := { message; culprit = op; d_loc; d_context } :: !diags)
      fmt
  in
  let check_op op =
    (* Operand visibility. *)
    Array.iteri
      (fun i v ->
        if not (Dominance.value_visible_at v op) then
          fail ~op "operand %d does not dominate its use" i)
      op.Core.operands;
    (* Registration and op-specific checks. *)
    let info =
      match Op_registry.registered op with
      | Some info ->
        (match info.Op_registry.verify op with
        | Ok () -> ()
        | Error msg -> fail ~op "%s" msg);
        info
      | None ->
        if not allow_unregistered then
          fail ~op "unregistered operation '%s'" op.Core.name;
        Op_registry.default_info
    in
    (* Region structure: every non-empty block in a code-bearing region
       must end with a terminator when the op expects sequential bodies. *)
    (match info.Op_registry.control with
    | Op_registry.Leaf -> ()
    | Op_registry.Seq | Op_registry.Branch | Op_registry.Loop ->
      Array.iter
        (fun r ->
          List.iter
            (fun b ->
              match List.rev b.Core.body with
              | [] -> ()
              | last :: _ ->
                if
                  (not (Op_registry.is_terminator last))
                  && not (Core.is_module op)
                then
                  fail ~op:last "block does not end with a terminator"
            )
            r.Core.blocks)
        op.Core.regions);
    (* Successor sanity: only terminators may carry successors, and every
       successor must be a block of the region enclosing this op. *)
    if Core.num_successors op > 0 then begin
      if not info.Op_registry.terminator then
        fail ~op "only terminators may have block successors";
      let enclosing_blocks =
        match op.Core.parent_block with
        | Some b -> (
          match b.Core.parent_region with
          | Some r -> r.Core.blocks
          | None -> [])
        | None -> []
      in
      Array.iteri
        (fun i _ ->
          let s = Core.successor op i in
          if not (List.exists (fun b -> b == s) enclosing_blocks) then
            fail ~op "successor %d is not a block of the enclosing region" i)
        op.Core.successors;
      (match op.Core.parent_block with
      | Some b -> (
        match List.rev b.Core.body with
        | last :: _ when last == op -> ()
        | _ -> fail ~op "terminator with successors must end its block")
      | None -> ())
    end;
    (* Use-list sanity: every operand's use list mentions this op. *)
    Array.iteri
      (fun i v ->
        if not (List.exists (fun (o, j) -> o == op && i = j) v.Core.uses) then
          fail ~op "use-list corruption for operand %d" i)
      op.Core.operands
  in
  Core.walk top ~f:check_op;
  match List.rev !diags with [] -> Ok () | ds -> Error ds

(* Common per-op check helpers for dialects to build their verify hooks. *)

let check_num_regions op n =
  if Core.num_regions op = n then Ok ()
  else
    Error (Printf.sprintf "expected %d regions, got %d" n (Core.num_regions op))

let check_operand_type op i pred ~expected =
  if i >= Core.num_operands op then
    Error (Printf.sprintf "missing operand %d" i)
  else if pred (Core.operand op i).Core.vty then Ok ()
  else
    Error
      (Printf.sprintf "operand %d must be %s, got %s" i expected
         (Types.to_string (Core.operand op i).Core.vty))

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e
