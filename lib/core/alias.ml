(* Alias analysis (Section V-A): MLIR-style local alias analysis augmented
   with SYCL dialect knowledge — accessor subscripts alias their accessor's
   underlying buffer and nothing else; distinct allocations never alias;
   distinct memory spaces never alias; host-provided facts (the
   "sycl.noalias" function attribute produced by joint host/device
   analysis, Section VII-B) prove distinct accessor arguments disjoint. *)

open Mlir

type base =
  | Alloc of Core.op  (** memref.alloca/alloc, gpu.alloc_local, llvm.alloca *)
  | Global of string  (** llvm.addressof @g *)
  | Accessor_arg of Core.value  (** kernel argument of accessor type *)
  | Memref_arg of Core.value  (** other memref-typed argument *)
  | Unknown_base

type result =
  | No_alias
  | May_alias
  | Must_alias

let result_to_string = function
  | No_alias -> "no"
  | May_alias -> "may"
  | Must_alias -> "must"

(** The root object a pointer-like value refers to. *)
let rec base_of (v : Core.value) : base =
  match v.Core.vdef with
  | Core.Op_result (op, _) ->
    if Dialects.Memref.is_alloc op then Alloc op
    else if op.Core.name = "llvm.addressof" then
      Global (Option.value ~default:"?" (Core.attr_symbol op "global_name"))
    else if Sycl_ops.is_subscript op then base_of (Sycl_ops.subscript_accessor op)
    else Unknown_base
  | Core.Block_arg _ ->
    if Sycl_types.is_accessor v.Core.vty then Accessor_arg v
    else if Types.is_memref v.Core.vty then Memref_arg v
    else if Sycl_types.is_accessor v.Core.vty then Accessor_arg v
    else Memref_arg v

let memspace_of (v : Core.value) : Types.memspace option =
  match v.Core.vty with
  | Types.Memref { space; _ } -> Some space
  | Sycl_types.Accessor _ -> Some Types.Global
  | Sycl_types.Local_accessor _ -> Some Types.Local
  | _ -> None

(** Argument index of a block-arg value within its block, if it is one. *)
let arg_index (v : Core.value) =
  match v.Core.vdef with Core.Block_arg (_, i) -> Some i | _ -> None

(** Pairs of kernel argument indices proven disjoint by host analysis are
    recorded as a flat [Array [Int i; Int j; Int i'; Int j'; ...]] under
    this function attribute. *)
let noalias_attr = "sycl.noalias"

let noalias_pairs (f : Core.op) =
  match Core.attr f noalias_attr with
  | Some (Attr.Array xs) ->
    let ints = List.filter_map Attr.as_int xs in
    let rec pairs = function
      | a :: b :: rest -> (a, b) :: pairs rest
      | _ -> []
    in
    pairs ints
  | _ -> []

let add_noalias_pair (f : Core.op) i j =
  let existing =
    match Core.attr f noalias_attr with Some (Attr.Array xs) -> xs | _ -> []
  in
  Core.set_attr f noalias_attr
    (Attr.Array (existing @ [ Attr.Int i; Attr.Int j ]))

(** Pairs of arguments known to reference the *same* object (e.g. two
    accessors over one buffer after kernel fusion). *)
let mustalias_attr = "sycl.mustalias"

let mustalias_pairs (f : Core.op) =
  match Core.attr f mustalias_attr with
  | Some (Attr.Array xs) ->
    let ints = List.filter_map Attr.as_int xs in
    let rec pairs = function
      | a :: b :: rest -> (a, b) :: pairs rest
      | _ -> []
    in
    pairs ints
  | _ -> []

let add_mustalias_pair (f : Core.op) i j =
  let existing =
    match Core.attr f mustalias_attr with Some (Attr.Array xs) -> xs | _ -> []
  in
  Core.set_attr f mustalias_attr
    (Attr.Array (existing @ [ Attr.Int i; Attr.Int j ]))

let args_related pairs_of (a : Core.value) (b : Core.value) =
  match (arg_index a, arg_index b) with
  | Some i, Some j -> (
    (* Both must be entry args of the same function. *)
    let func_of v =
      match v.Core.vdef with
      | Core.Block_arg (blk, _) -> Core.parent_op_of_block blk
      | _ -> None
    in
    match (func_of a, func_of b) with
    | Some f, Some f' when f == f' && Core.is_func f ->
      List.exists
        (fun (x, y) -> (x = i && y = j) || (x = j && y = i))
        (pairs_of f)
    | _ -> false)
  | _ -> false

(** Are two accessor arguments of the same function proven disjoint? *)
let args_proven_disjoint a b = args_related noalias_pairs a b

(** Are two accessor arguments proven to reference the same buffer? *)
let args_proven_same a b = args_related mustalias_pairs a b

let alias_bases (ba : base) (bb : base) : result =
  match (ba, bb) with
  | Alloc a, Alloc b -> if a == b then Must_alias else No_alias
  | Global a, Global b -> if a = b then Must_alias else No_alias
  | Alloc _, Global _ | Global _, Alloc _ -> No_alias
  (* A fresh allocation cannot alias any argument the function received. *)
  | Alloc _, (Accessor_arg _ | Memref_arg _)
  | (Accessor_arg _ | Memref_arg _), Alloc _ -> No_alias
  (* Globals (host constant data) do not alias device buffers. *)
  | Global _, Accessor_arg _ | Accessor_arg _, Global _ -> No_alias
  | Accessor_arg a, Accessor_arg b ->
    if Core.value_equal a b || args_proven_same a b then Must_alias
    else if args_proven_disjoint a b then No_alias
    else
      (* SYCL allows two accessors over the same or overlapping buffers. *)
      May_alias
  | Memref_arg a, Memref_arg b ->
    if Core.value_equal a b then Must_alias else May_alias
  | Accessor_arg _, Memref_arg _ | Memref_arg _, Accessor_arg _ -> May_alias
  | Global _, Memref_arg _ | Memref_arg _, Global _ -> May_alias
  | Unknown_base, _ | _, Unknown_base -> May_alias

(** Alias relation between two pointer-like values. *)
let alias (a : Core.value) (b : Core.value) : result =
  if Core.value_equal a b then Must_alias
  else
    match (memspace_of a, memspace_of b) with
    | Some sa, Some sb when sa <> sb -> No_alias
    | _ -> (
      let ba = base_of a and bb = base_of b in
      match alias_bases ba bb with
      | No_alias -> No_alias
      | Must_alias ->
        (* Same base object; distinct derived pointers (e.g. two subscripts
           with different indices) may or may not overlap: only identical
           derivations are must-alias. *)
        if Core.value_equal a b then Must_alias
        else (
          match (a.Core.vdef, b.Core.vdef) with
          | Core.Op_result (oa, _), Core.Op_result (ob, _)
            when Sycl_ops.is_subscript oa && Sycl_ops.is_subscript ob ->
            let acc_a = Sycl_ops.subscript_accessor oa in
            let acc_b = Sycl_ops.subscript_accessor ob in
            let accessors_same =
              Core.value_equal acc_a acc_b || args_proven_same acc_a acc_b
            in
            let ia = Sycl_ops.subscript_indices oa in
            let ib = Sycl_ops.subscript_indices ob in
            if
              accessors_same
              && List.length ia = List.length ib
              && List.for_all2 Core.value_equal ia ib
            then Must_alias
            else May_alias
          | Core.Block_arg _, Core.Block_arg _ -> Must_alias
          | _ -> May_alias)
      | May_alias -> May_alias)

let may_alias a b = alias a b <> No_alias
let must_alias a b = alias a b = Must_alias
