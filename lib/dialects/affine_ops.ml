(* The affine dialect subset: affine.for with map-based bounds and
   iter_args, affine.load/store, affine.apply and affine.yield. *)

open Mlir

type bound =
  | Const of int
  | Value of Core.value  (** bound given by an SSA index value (identity map) *)

let bound_map = function
  | Const c -> (Affine_expr.Map.constant_map [ c ], [])
  | Value v -> (Affine_expr.Map.identity 1, [ v ])

(** [for_ b ~lb ~ub ~step ~iter_args body]: like {!Scf.for_} but as an
    affine.for with map bounds. *)
let for_ b ~lb ~ub ?(step = 1) ?(iter_args = []) body =
  let lb_map, lb_ops = bound_map lb in
  let ub_map, ub_ops = bound_map ub in
  let arg_types = Types.Index :: List.map (fun v -> v.Core.vty) iter_args in
  let region = Core.region_with_block ~args:arg_types () in
  let entry = Core.entry_block region in
  let iv = Core.block_arg entry 0 in
  let args = List.tl (Core.block_args entry) in
  let bb = Builder.at_end entry in
  Builder.set_default_loc bb (Builder.default_loc b);
  let yielded = body bb iv args in
  Builder.op0 bb "affine.yield" ~operands:yielded;
  Builder.op b "affine.for"
    ~operands:(lb_ops @ ub_ops @ iter_args)
    ~result_types:(List.map (fun v -> v.Core.vty) iter_args)
    ~attrs:
      [
        ("lb_map", Attr.Affine_map lb_map);
        ("ub_map", Attr.Affine_map ub_map);
        ("step", Attr.Int step);
        ("lb_count", Attr.Int (List.length lb_ops));
      ]
    ~regions:[ region ]

let is_for op = op.Core.name = "affine.for"
let is_yield op = op.Core.name = "affine.yield"

let for_iter_args op = List.tl (Core.block_args (Core.entry_block op.Core.regions.(0)))

(** The step attribute; 1 when absent. The verifier admits only a
    positive integer. *)
let for_step op = Option.value ~default:1 (Core.attr_int op "step")

let for_lb_map op =
  match Core.attr op "lb_map" with
  | Some (Attr.Affine_map m) -> m
  | _ -> invalid_arg "affine.for: missing lb_map"

let for_ub_map op =
  match Core.attr op "ub_map" with
  | Some (Attr.Affine_map m) -> m
  | _ -> invalid_arg "affine.for: missing ub_map"

let for_lb_operands op =
  let n = Option.value ~default:0 (Core.attr_int op "lb_count") in
  List.filteri (fun i _ -> i < n) (Core.operands op)

let for_ub_operands op =
  let n = Option.value ~default:0 (Core.attr_int op "lb_count") in
  let n_iter = List.length (for_iter_args op) in
  let total = Core.num_operands op in
  List.filteri (fun i _ -> i >= n && i < total - n_iter) (Core.operands op)

let for_iter_inits op =
  let n_iter = List.length (for_iter_args op) in
  let total = Core.num_operands op in
  List.filteri (fun i _ -> i >= total - n_iter) (Core.operands op)

(** affine.load %mem[map(operands)] *)
let load b mem map operands =
  Builder.op1 b "affine.load"
    ~operands:(mem :: operands)
    ~result_type:(Memref.element_type mem)
    ~attrs:[ ("map", Attr.Affine_map map) ]

let store b value mem map operands =
  Builder.op0 b "affine.store"
    ~operands:(value :: mem :: operands)
    ~attrs:[ ("map", Attr.Affine_map map) ]

let apply b map operands =
  Builder.op1 b "affine.apply" ~operands ~result_type:Types.Index
    ~attrs:[ ("map", Attr.Affine_map map) ]

let access_map op =
  match Core.attr op "map" with
  | Some (Attr.Affine_map m) -> m
  | _ -> invalid_arg "affine access op: missing map"

(* The [map] of an access op takes its [indices] index operands as its
   dims and then its symbols. *)
let verify_access_map ~indices op =
  match Core.attr op "map" with
  | Some (Attr.Affine_map m)
    when m.Affine_expr.Map.num_dims + m.Affine_expr.Map.num_syms = indices ->
    Ok ()
  | _ ->
    Error
      (Printf.sprintf "%s needs a map with %d dims and symbols" op.Core.name
         indices)

let () =
  Op_registry.register "affine.for"
    {
      Op_registry.default_info with
      Op_registry.control = Op_registry.Loop;
      Op_registry.memory_effects = (fun _ -> Some []);
      Op_registry.verify =
        (fun op ->
          let ( let* ) = Verifier.( let* ) in
          let* () = Verifier.check_num_regions op 1 in
          match Core.block_args (Core.entry_block (Core.region op 0)) with
          | [] -> Error "affine.for body must take iv plus iter_args"
          | _ :: iter_args when Core.num_results op <> List.length iter_args ->
            Error "affine.for results must match iter_args"
          | _ -> (
            let* () = Verifier.check_body_ends_with op ~yield:"affine.yield" in
            match Core.attr op "step" with
            | None -> Ok ()
            | Some (Attr.Int s) when s > 0 -> Ok ()
            | Some a ->
              Error ("affine.for step must be a positive integer, got " ^ Attr.to_string a)));
    };
  Op_registry.register "affine.yield"
    {
      Op_registry.default_info with
      Op_registry.terminator = true;
      Op_registry.memory_effects = (fun _ -> Some []);
    };
  Op_registry.register "affine.load"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ -> Some [ (Op_registry.Read, Op_registry.On_operand 0) ]);
      Op_registry.verify =
        (fun op -> verify_access_map ~indices:(Core.num_operands op - 1) op);
    };
  Op_registry.register "affine.store"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ -> Some [ (Op_registry.Write, Op_registry.On_operand 1) ]);
      Op_registry.verify =
        (fun op -> verify_access_map ~indices:(Core.num_operands op - 2) op);
    };
  (* The fold evaluates the map with no symbols into one value. *)
  Op_registry.register "affine.apply"
    {
      Op_registry.pure_info with
      Op_registry.verify =
        (fun op ->
          match Core.attr op "map" with
          | Some (Attr.Affine_map m)
            when m.Affine_expr.Map.num_dims = Core.num_operands op
                 && m.Affine_expr.Map.num_syms = 0
                 && Core.num_results op = 1 ->
            Ok ()
          | _ ->
            Error
              "affine.apply needs a map with one dim per operand and no \
               symbols, and one result");
      Op_registry.fold =
        (fun op consts ->
          if Array.for_all Option.is_some consts then
            let vals =
              Array.map
                (fun c -> match c with Some (Attr.Int i) -> i | _ -> min_int)
                consts
            in
            if Array.exists (fun v -> v = min_int) vals then None
            else
              let m = access_map op in
              match
                Affine_expr.Map.eval m ~dims:vals ~syms:[||]
              with
              | [ r ] -> Some (Op_registry.Fold_attrs [ Attr.Int r ])
              | _ -> None
          else None);
    }
