(* The func dialect: functions, returns and direct calls. *)

open Mlir

(** Create a func.func appended to module [m]. [body] receives a builder
    positioned in the entry block and the entry block arguments. The
    caller is responsible for terminating the body (or use [return]). *)
let func m name ~args ~results body =
  let region = Core.region_with_block ~args () in
  let entry = Core.entry_block region in
  let b = Builder.at_end (Core.module_block m) in
  let f =
    Builder.op b "func.func" ~operands:[] ~result_types:[]
      ~attrs:
        [
          ("sym_name", Attr.String name);
          ("function_type", Attr.Type (Types.Function (args, results)));
        ]
      ~regions:[ region ]
  in
  let bb = Builder.at_end entry in
  body bb (Core.block_args entry);
  f

(** Declaration-only function (empty body), e.g. an external runtime
    symbol on the host side. *)
let declare m name ~args ~results =
  let b = Builder.at_end (Core.module_block m) in
  Builder.op b "func.func" ~operands:[] ~result_types:[]
    ~attrs:
      [
        ("sym_name", Attr.String name);
        ("function_type", Attr.Type (Types.Function (args, results)));
        ("declaration", Attr.Unit);
      ]
    ~regions:[ Core.region_with_block () ]

let is_declaration f = Core.has_attr f "declaration"

let return b vs = Builder.op0 b "func.return" ~operands:vs

let call b callee ~operands ~results =
  Builder.op b "func.call" ~operands ~result_types:results
    ~attrs:[ ("callee", Attr.Symbol callee) ]

let call1 b callee ~operands ~result =
  Core.result (call b callee ~operands ~results:[ result ]) 0

let callee op = Core.attr_symbol op "callee"
let is_call op = op.Core.name = "func.call"

let () =
  Op_registry.register "func.func"
    {
      Op_registry.default_info with
      Op_registry.control = Op_registry.Seq;
      Op_registry.memory_effects = (fun _ -> Some []);
      Op_registry.verify =
        (fun op ->
          let ( let* ) = Verifier.( let* ) in
          let* () = Verifier.check_num_regions op 1 in
          match (Core.attr_string op "sym_name", Core.attr_type op "function_type") with
          | Some _, Some (Types.Function (args, _)) ->
            if is_declaration op then Ok ()
            else
              let entry = Core.func_body op in
              let arg_tys = List.map (fun v -> v.Core.vty) (Core.block_args entry) in
              if arg_tys = args then Ok ()
              else Error "entry block arguments do not match function type"
          | _ -> Error "func.func requires sym_name and function_type");
    };
  Op_registry.register "func.return"
    {
      Op_registry.default_info with
      Op_registry.terminator = true;
      Op_registry.memory_effects = (fun _ -> Some []);
    };
  (* Calls have unknown effects by default; analyses use the call graph
     to refine. *)
  Op_registry.register "func.call" Op_registry.default_info;
  Op_registry.register "builtin.module"
    {
      Op_registry.default_info with
      Op_registry.control = Op_registry.Seq;
      Op_registry.memory_effects = (fun _ -> Some []);
    }
