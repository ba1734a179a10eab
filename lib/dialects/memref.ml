(* The memref dialect subset used by the compiler: stack/private
   allocation, loads and stores with explicit indices, and dimension
   queries. Memory effects are registered so generic analyses (reaching
   definitions, LICM) can reason about them. *)

open Mlir

let alloca b ?(space = Types.Private) shape element =
  Builder.op1 b "memref.alloca" ~operands:[]
    ~result_type:(Types.memref ~space (List.map (fun d -> Some d) shape) element)

let element_type (v : Core.value) =
  match v.Core.vty with
  | Types.Memref { element; _ } -> element
  | t -> invalid_arg ("memref element_type: not a memref: " ^ Types.to_string t)

let load b mem indices =
  Builder.op1 b "memref.load" ~operands:(mem :: indices)
    ~result_type:(element_type mem)

let store b value mem indices =
  Builder.op0 b "memref.store" ~operands:(value :: mem :: indices)

let dim b mem i =
  let idx = Arith.const_index b i in
  Builder.op1 b "memref.dim" ~operands:[ mem; idx ] ~result_type:Types.Index

let is_load op = op.Core.name = "memref.load"
let is_store op = op.Core.name = "memref.store"

(** For a load: (memref, indices). *)
let load_parts op =
  assert (is_load op);
  (Core.operand op 0, List.tl (Core.operands op))

(** For a store: (stored value, memref, indices). *)
let store_parts op =
  assert (is_store op);
  match Core.operands op with
  | v :: m :: idx -> (v, m, idx)
  | _ -> invalid_arg "store_parts"

(** The info of every allocation op (memref.alloca, memref.alloc,
    gpu.alloc_local, llvm.alloca): its effect is on result 0, so it must
    have exactly that one result, a memref. *)
let alloc_info =
  {
    Op_registry.default_info with
    Op_registry.memory_effects =
      (fun _ -> Some [ (Op_registry.Alloc, Op_registry.On_result 0) ]);
    Op_registry.verify =
      (fun op ->
        match op.Core.results with
        | [| { Core.vty = Types.Memref _; _ } |] -> Ok ()
        | _ -> Error (op.Core.name ^ " must have exactly one result, of memref type"));
  }

(** Is [op] an allocation: an op registered with {!alloc_info}? *)
let is_alloc op =
  match Op_registry.registered op with Some info -> info == alloc_info | None -> false

let () =
  Op_registry.register "memref.alloca" alloc_info;
  Op_registry.register "memref.alloc" alloc_info;
  Op_registry.register "memref.load"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ -> Some [ (Op_registry.Read, Op_registry.On_operand 0) ]);
    };
  Op_registry.register "memref.store"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ -> Some [ (Op_registry.Write, Op_registry.On_operand 1) ]);
    };
  Op_registry.register "memref.dealloc"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ -> Some [ (Op_registry.Free, Op_registry.On_operand 0) ]);
    };
  Op_registry.register "memref.dim"
    {
      Op_registry.pure_info with
      Op_registry.fold =
        (fun op consts ->
          match consts with
          | [| _; Some (Attr.Int i) |] -> (
            match (Core.operand op 0).Core.vty with
            | Types.Memref { shape; _ } -> (
              match List.nth_opt shape i with
              | Some (Some d) -> Some (Op_registry.Fold_attrs [ Attr.Int d ])
              | _ -> None)
            | _ -> None)
          | _ -> None);
    }
