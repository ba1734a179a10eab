(* A dense forward data-flow framework over the structured-control-flow
   subset of the IR, mirroring the role of MLIR's data-flow analysis
   framework used by the paper's reaching-definition and uniformity
   analyses (Sections V-B, V-C).

   Clients provide a join-semilattice domain and a per-op transfer
   function. Region-bearing ops are driven by their registered control
   kind: Seq regions execute once in order, Branch regions join, Loop
   regions iterate to a fixpoint (joined with the zero-trip state). *)

module type DOMAIN = sig
  type t

  val join : t -> t -> t
  val equal : t -> t -> bool
end

module Forward (D : DOMAIN) = struct
  type transfer = Core.op -> D.t -> D.t

  type result = {
    (* State observed immediately BEFORE each op (keyed by op id). *)
    before : (int, D.t) Hashtbl.t;
    (* State at the end of each block (keyed by block id). *)
    at_end : (int, D.t) Hashtbl.t;
  }

  let max_loop_iterations = 64

  (** Analyze [top] and everything nested in it starting from [init].

      [transfer op state] must account only for the op itself, not its
      regions — the framework recurses into regions first and feeds the
      combined region state to [transfer]. [loop_header], when given, is
      applied to the state entering each Loop region iteration (e.g. to
      havoc loop-carried variables). *)
  let analyze ?loop_header (top : Core.op) ~(init : D.t) ~(transfer : transfer)
      : result =
    let res = { before = Hashtbl.create 256; at_end = Hashtbl.create 32 } in
    let rec exec_block (b : Core.block) (state : D.t) : D.t =
      let final =
        Core.fold_ops
          (fun state op ->
            Hashtbl.replace res.before op.Core.oid state;
            exec_op op state)
          state b
      in
      Hashtbl.replace res.at_end b.Core.bid final;
      final
    and exec_region (r : Core.region) (state : D.t) : D.t =
      List.fold_left (fun s b -> exec_block b s) state r.Core.blocks
    and exec_op (op : Core.op) (state : D.t) : D.t =
      let info = Op_registry.info op in
      let state_after_regions =
        match info.Op_registry.control with
        | Op_registry.Leaf -> state
        | Op_registry.Seq ->
          Array.fold_left (fun s r -> exec_region r s) state op.Core.regions
        | Op_registry.Branch ->
          (* One of the regions executes; an op may also skip them all
             (scf.if without an else region), so join with the incoming
             state. *)
          Array.fold_left
            (fun acc r -> D.join acc (exec_region r state))
            state op.Core.regions
        | Op_registry.Loop ->
          let body_of s =
            let s = match loop_header with None -> s | Some f -> f op s in
            Array.fold_left (fun s r -> exec_region r s) s op.Core.regions
          in
          let rec fix s n =
            let s' = D.join s (body_of s) in
            if D.equal s s' || n >= max_loop_iterations then s' else fix s' (n + 1)
          in
          fix state 0
      in
      transfer op state_after_regions
    in
    let (_ : D.t) = exec_op top init in
    res

  let before (res : result) (op : Core.op) = Hashtbl.find_opt res.before op.Core.oid
end
