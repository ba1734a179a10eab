(* Unstructured control flow: cf.br and cf.cond_br terminators carrying
   block successors, following MLIR's cf dialect. The random IR generator
   emits them to exercise multi-block CFG printing and parsing (block
   labels, forward successor references). *)

open Mlir

let () =
  Op_registry.register "cf.br"
    {
      Op_registry.default_info with
      Op_registry.terminator = true;
      Op_registry.memory_effects = (fun _ -> Some []);
      Op_registry.verify =
        (fun op ->
          if Core.num_successors op <> 1 then
            Error "cf.br takes exactly one successor"
          else Ok ());
    };
  Op_registry.register "cf.cond_br"
    {
      Op_registry.default_info with
      Op_registry.terminator = true;
      Op_registry.memory_effects = (fun _ -> Some []);
      Op_registry.verify =
        (fun op ->
          let ( let* ) = Verifier.( let* ) in
          let* () =
            Verifier.check_operand_type op 0
              (fun ty -> ty = Types.Integer 1)
              ~expected:"i1"
          in
          if Core.num_successors op <> 2 then
            Error "cf.cond_br takes exactly two successors"
          else Ok ());
    }
