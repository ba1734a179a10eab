(* A small LLVM-flavoured dialect standing in for the MLIR code obtained
   from SYCL host modules via mlir-translate (Section IV of the paper):
   one-to-one with the low-level host IR, i.e. calls into the DPC++
   runtime ABI, stack slots, and module-level constant globals.

   For simplicity the dialect reuses memref types for pointers: an
   [llvm.alloca] yields a rank-1 private memref, and runtime objects
   (buffers, handlers, accessors) are opaque i64 handles. *)

open Mlir

(** The opaque handle type used for runtime objects on the host. *)
let handle = Types.i64

let call b callee ~operands ~results =
  Builder.op b "llvm.call" ~operands ~result_types:results
    ~attrs:[ ("callee", Attr.Symbol callee) ]

let call1 b callee ~operands ~result =
  Core.result (call b callee ~operands ~results:[ result ]) 0

let call0 b callee ~operands = ignore (call b callee ~operands ~results:[])

let callee op = Core.attr_symbol op "callee"
let is_call op = op.Core.name = "llvm.call"

(** Module-level constant global carrying dense data (e.g. the Sobel
    filter coefficient array of Section VIII). *)
let global m name data =
  let b = Builder.at_end (Core.module_block m) in
  let size = match data with
    | Attr.Dense_float xs -> Array.length xs
    | Attr.Dense_int xs -> Array.length xs
    | _ -> invalid_arg "llvm.global: expected dense data"
  in
  let element =
    match data with Attr.Dense_float _ -> Types.f32 | _ -> Types.i64
  in
  ignore size;
  ignore element;
  Builder.op b "llvm.global" ~operands:[] ~result_types:[]
    ~attrs:
      [
        ("sym_name", Attr.String name);
        ("value", data);
        ("constant", Attr.Bool true);
      ]

let addressof b m name =
  (* Type from the global's data. *)
  let g =
    List.find_opt
      (fun o ->
        o.Core.name = "llvm.global" && Core.attr_string o "sym_name" = Some name)
      (Core.module_block m).Core.body
  in
  let ty =
    match Option.bind g (fun g -> Core.attr g "value") with
    | Some (Attr.Dense_float xs) -> Types.memref [ Some (Array.length xs) ] Types.f32
    | Some (Attr.Dense_int xs) -> Types.memref [ Some (Array.length xs) ] Types.i64
    | _ -> Types.memref_dyn Types.f32
  in
  Builder.op1 b "llvm.addressof" ~operands:[] ~result_type:ty
    ~attrs:[ ("global_name", Attr.Symbol name) ]

let lookup_global m name =
  List.find_opt
    (fun o ->
      o.Core.name = "llvm.global" && Core.attr_string o "sym_name" = Some name)
    (Core.module_block m).Core.body

let () =
  Op_registry.register "llvm.call" Op_registry.default_info;
  Op_registry.register "llvm.alloca" Memref.alloc_info;
  Op_registry.register "llvm.return"
    {
      Op_registry.default_info with
      Op_registry.terminator = true;
      Op_registry.memory_effects = (fun _ -> Some []);
    };
  Op_registry.register "llvm.global"
    { Op_registry.default_info with Op_registry.memory_effects = (fun _ -> Some []) };
  Op_registry.register "llvm.addressof"
    { Op_registry.pure_info with Op_registry.speculatable = true }
