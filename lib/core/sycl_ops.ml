(* SYCL dialect device operations (Sections III and IV of the paper): work-
   item position queries, SYCL object constructors and accessor subscripts.
   Each op registers memory-effect information and the non-uniformity trait
   so the generic analyses of Section V can reason about it. *)

open Mlir

(* ------------------------------------------------------------------ *)
(* Work-item position queries                                          *)
(* ------------------------------------------------------------------ *)

(* All getters take the item-like kernel argument plus a constant i32
   dimension, and yield an index, e.g.
     %gid = sycl.nd_item.get_global_id(%item, %c0) : (!sycl.nd_item<2>, i32) -> index *)

let getter name b item dim_v =
  Builder.op1 b name ~operands:[ item; dim_v ] ~result_type:Types.Index

let item_get_id b item dim = getter "sycl.item.get_id" b item dim
let item_get_range b item dim = getter "sycl.item.get_range" b item dim

let nd_item_get_global_id b item dim = getter "sycl.nd_item.get_global_id" b item dim
let nd_item_get_local_id b item dim = getter "sycl.nd_item.get_local_id" b item dim
let nd_item_get_group_id b item dim = getter "sycl.nd_item.get_group_id" b item dim
let nd_item_get_global_range b item dim = getter "sycl.nd_item.get_global_range" b item dim
let nd_item_get_local_range b item dim = getter "sycl.nd_item.get_local_range" b item dim

let id_get b id_mem dim = getter "sycl.id.get" b id_mem dim

(* Names of getters yielding values that differ between work-items of the
   same work-group: these are the analysis' sources of non-uniformity
   (Section V-C). Group ids and ranges are work-group-uniform. *)
let non_uniform_getters =
  [
    "sycl.item.get_id";
    "sycl.item.get_linear_id";
    "sycl.nd_item.get_global_id";
    "sycl.nd_item.get_local_id";
  ]

let uniform_getters =
  [
    "sycl.item.get_range";
    "sycl.nd_item.get_group_id";
    "sycl.nd_item.get_global_range";
    "sycl.nd_item.get_local_range";
  ]

let is_global_id_getter op =
  op.Core.name = "sycl.item.get_id"
  || op.Core.name = "sycl.nd_item.get_global_id"

let is_local_id_getter op = op.Core.name = "sycl.nd_item.get_local_id"

(** The constant dimension argument of a getter, if constant. *)
let getter_dim op =
  if Core.num_operands op < 2 then None
  else
    Option.bind (Core.defining_op (Core.operand op 1)) Dialects.Arith.constant_int

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

(** [constructor b cls out args]: constructs a SYCL object of class [cls]
    (e.g. "id", "range") into the memory pointed to by [out]:
      sycl.constructor @id(%out, %i, %j, %k) *)
let constructor b cls out args =
  Builder.op0 b "sycl.constructor"
    ~operands:(out :: args)
    ~attrs:[ ("class", Attr.Symbol cls) ]

let is_constructor op = op.Core.name = "sycl.constructor"
let constructor_args op = List.tl (Core.operands op)

(* ------------------------------------------------------------------ *)
(* Accessor operations                                                 *)
(* ------------------------------------------------------------------ *)

(* The subscript has two source-level forms, mirroring the two ways DPC++
   lowers accessor indexing:
   - through an id struct in memory (the paper's Listing 3):
       %view = sycl.accessor.subscript %acc[%id]   — reads the id memref;
   - with the index values directly (after scalar promotion):
       %view = sycl.accessor.subscript %acc[%i, %j] — pure address math.
   Either yields a 1-D view (memref<? x elem>) of the element's location. *)
let subscript_result_type (acc : Core.value) =
  let element =
    match Sycl_types.accessor_info acc.Core.vty with
    | Some info -> info.Sycl_types.acc_element
    | None -> invalid_arg "accessor_subscript: not an accessor"
  in
  let space =
    match acc.Core.vty with
    | Sycl_types.Local_accessor _ -> Types.Local
    | _ -> Types.Global
  in
  Types.memref_dyn ~space element

let accessor_subscript b acc id_mem =
  Builder.op1 b "sycl.accessor.subscript" ~operands:[ acc; id_mem ]
    ~result_type:(subscript_result_type acc)

(** Subscript with the index values given directly (pure form). *)
let accessor_subscript_multi b acc indices =
  Builder.op1 b "sycl.accessor.subscript" ~operands:(acc :: indices)
    ~result_type:(subscript_result_type acc)

(** 1-D subscript with a plain index. *)
let is_subscript op = op.Core.name = "sycl.accessor.subscript"
let subscript_accessor op = Core.operand op 0
let subscript_index op = Core.operand op 1
let subscript_indices op = List.tl (Core.operands op)

(** True when the subscript carries its indices directly (pure form). *)
let subscript_is_direct op =
  List.for_all (fun v -> not (Types.is_memref v.Core.vty)) (subscript_indices op)

(** Accessor member getters (the "four flattened arguments" of DPC++
    accessors, Section VII-B): access range, underlying memory range and
    offset, per dimension. *)
let accessor_get_range b acc dim = getter "sycl.accessor.get_range" b acc dim
let accessor_get_offset b acc dim = getter "sycl.accessor.get_offset" b acc dim

let accessor_member_getters =
  [ "sycl.accessor.get_range"; "sycl.accessor.get_mem_range"; "sycl.accessor.get_offset" ]

(* ------------------------------------------------------------------ *)
(* Work-group cooperation                                              *)
(* ------------------------------------------------------------------ *)

(** sycl::group_barrier — semantically the gpu.barrier with SYCL dressing;
    the simulator treats both identically. *)
let group_barrier b = Builder.op0 b "sycl.group_barrier" ~operands:[]

let is_barrier op =
  op.Core.name = "sycl.group_barrier" || Dialects.Gpu.is_barrier op

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  (* Getters are pure; some are non-uniformity sources. *)
  List.iter
    (fun name ->
      Op_registry.register name
        { Op_registry.pure_info with Op_registry.non_uniform_source = true })
    non_uniform_getters;
  List.iter
    (fun name -> Op_registry.register name Op_registry.pure_info)
    uniform_getters;
  (* id/range member reads: read the struct's memory. *)
  List.iter
    (fun name ->
      Op_registry.register name
        {
          Op_registry.default_info with
          Op_registry.memory_effects =
            (fun _ -> Some [ (Op_registry.Read, Op_registry.On_operand 0) ]);
          Op_registry.speculatable = true;
        })
    [ "sycl.id.get"; "sycl.range.get" ];
  (* Accessor member getters are pure (they read the by-value accessor
     descriptor, not memory). *)
  List.iter
    (fun name -> Op_registry.register name Op_registry.pure_info)
    accessor_member_getters;
  (* The runtime accessor disjointness test of LICM's versioning,
     evaluated by the device interpreter. Pure: it reads only descriptor
     metadata. *)
  Op_registry.register "sycl.accessor.distinct" Op_registry.pure_info;
  (* The constructor writes the object representation to operand 0. *)
  Op_registry.register "sycl.constructor"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ -> Some [ (Op_registry.Write, Op_registry.On_operand 0) ]);
    };
  (* Subscript reads the id struct (operand 1) and computes an address;
     it does not itself touch the accessor's data. Its result aliases the
     accessor's underlying memory — encoded in the SYCL alias analysis. *)
  Op_registry.register "sycl.accessor.subscript"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun op ->
          if subscript_is_direct op then Some []
          else Some [ (Op_registry.Read, Op_registry.On_operand 1) ]);
      Op_registry.speculatable = true;
    };
  Op_registry.register "sycl.group_barrier"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ ->
          Some
            [
              (Op_registry.Read, Op_registry.Anywhere);
              (Op_registry.Write, Op_registry.Anywhere);
            ]);
    }
