(* Structured control flow: scf.for (with iter_args), scf.if and
   scf.yield, following MLIR's scf dialect. *)

open Mlir

(** [for_ b ~lb ~ub ~step ~iter_args body] builds an scf.for. [body] is
    called with a builder positioned inside the loop, the induction
    variable and the region iter_args, and must return the yielded values
    (one per iter_arg). Returns the loop op (its results are the final
    iter values). *)
let for_ b ~lb ~ub ~step ?(iter_args = []) body =
  let arg_types = Types.Index :: List.map (fun v -> v.Core.vty) iter_args in
  let region = Core.region_with_block ~args:arg_types () in
  let entry = Core.entry_block region in
  let iv = Core.block_arg entry 0 in
  let args = List.tl (Core.block_args entry) in
  (* The nested builder inherits the enclosing default location, so
     region scaffolding (the yield, anything the callback builds without
     overriding) is located like the loop itself. *)
  let bb = Builder.at_end entry in
  Builder.set_default_loc bb (Builder.default_loc b);
  let yielded = body bb iv args in
  Builder.op0 bb "scf.yield" ~operands:yielded;
  Builder.op b "scf.for"
    ~operands:([ lb; ub; step ] @ iter_args)
    ~result_types:(List.map (fun v -> v.Core.vty) iter_args)
    ~regions:[ region ]

(** [if_ b cond ~result_types ~then_ ~else_] builds an scf.if whose
    branches must yield values of [result_types]. *)
let if_ b cond ?(result_types = []) ~then_ ?else_ () =
  let mk body =
    let region = Core.region_with_block () in
    let bb = Builder.at_end (Core.entry_block region) in
    Builder.set_default_loc bb (Builder.default_loc b);
    let yielded = body bb in
    Builder.op0 bb "scf.yield" ~operands:yielded;
    region
  in
  let regions =
    match else_ with
    | Some e -> [ mk then_; mk e ]
    | None -> [ mk then_ ]
  in
  Builder.op b "scf.if" ~operands:[ cond ] ~result_types ~regions

let is_for op = op.Core.name = "scf.for"
let is_if op = op.Core.name = "scf.if"
let is_yield op = op.Core.name = "scf.yield"

let for_lb op = Core.operand op 0
let for_ub op = Core.operand op 1
let for_step op = Core.operand op 2
let for_iter_inits op = List.filteri (fun i _ -> i >= 3) (Core.operands op)

let for_body op = Core.entry_block op.Core.regions.(0)

let () =
  Op_registry.register "scf.for"
    {
      Op_registry.default_info with
      Op_registry.control = Op_registry.Loop;
      (* Effects are those of the body; None = derived by analyses
         recursing into the region. The op itself reads nothing. *)
      Op_registry.memory_effects = (fun _ -> Some []);
      Op_registry.verify =
        (fun op ->
          let ( let* ) = Verifier.( let* ) in
          let* () = Verifier.check_num_regions op 1 in
          let n_iter = Core.num_operands op - 3 in
          if n_iter < 0 then Error "scf.for needs lb, ub, step"
          else if Core.num_results op <> n_iter then
            Error "scf.for results must match iter_args"
          else if
            List.length (Core.block_args (for_body op)) <> n_iter + 1
          then Error "scf.for body must take iv plus iter_args"
          else Verifier.check_body_ends_with op ~yield:"scf.yield");
    };
  Op_registry.register "scf.if"
    {
      Op_registry.default_info with
      Op_registry.control = Op_registry.Branch;
      Op_registry.memory_effects = (fun _ -> Some []);
      Op_registry.verify =
        (fun op ->
          if Core.num_regions op < 1 || Core.num_regions op > 2 then
            Error "scf.if takes one or two regions"
          else if Core.num_results op > 0 && Core.num_regions op <> 2 then
            Error "scf.if with results requires an else region"
          else Ok ());
    };
  Op_registry.register "scf.yield"
    {
      Op_registry.default_info with
      Op_registry.terminator = true;
      Op_registry.memory_effects = (fun _ -> Some []);
    }
