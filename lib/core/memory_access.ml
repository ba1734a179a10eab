(* Memory access analysis (Section V-D), after Kaeli et al. [14], extended
   for SYCL accesses: given an (affine) loop in a kernel, each SYCL memory
   access is described by an access matrix A and offset vector c so that
   the accessed index vector is  A * (gid_0, ..., gid_{d-1}, iv_0, ...)ᵀ + c.

   The inter-work-item submatrix (thread columns) classifies coalescing;
   the intra-work-item submatrix (loop-iv columns) detects temporal reuse.
   Loop internalization (Section VI-C) consumes this analysis. *)

open Mlir

type var =
  | Global_id of int  (** work-item global id dimension *)
  | Local_id of int
  | Loop_iv of int  (** op id of the enclosing loop *)

type access_kind = Load | Store

type coalescing =
  | Linear  (** unit stride in the fastest-varying thread dimension *)
  | Reverse_linear
  | Thread_invariant  (** no dependence on any thread variable *)
  | Non_coalesced

let coalescing_to_string = function
  | Linear -> "linear"
  | Reverse_linear -> "reverse-linear"
  | Thread_invariant -> "thread-invariant"
  | Non_coalesced -> "non-coalesced"

type access = {
  acc_op : Core.op;  (** the memref.load / memref.store *)
  acc_subscript : Core.op option;  (** the sycl.accessor.subscript feeding it *)
  accessor : Core.value option;  (** the accessor kernel argument *)
  kind : access_kind;
  vars : var list;  (** column meanings *)
  matrix : int array array;  (** rows = accessor index dims *)
  offsets : int array;
  row_exprs : Affine_expr.t list;  (** per index dim, over [vars] *)
  coalescing : coalescing;
  temporal_reuse : bool;
}

(* ------------------------------------------------------------------ *)
(* Affine derivation of index expressions                              *)
(* ------------------------------------------------------------------ *)

type env = {
  columns : (var, int) Hashtbl.t;
  order : var list ref;  (* reversed *)
}

let column env var =
  match Hashtbl.find_opt env.columns var with
  | Some c -> c
  | None ->
    let c = Hashtbl.length env.columns in
    Hashtbl.replace env.columns var c;
    env.order := var :: !(env.order);
    c

(** The first item-like argument of a kernel function. *)
let item_arg (kernel : Core.op) =
  List.find_opt
    (fun v -> Sycl_types.is_item_like v.Core.vty)
    (Core.block_args (Core.func_body kernel))

let kernel_dims (kernel : Core.op) =
  match item_arg kernel with
  | Some v -> Option.value ~default:1 (Sycl_types.dims_of v.Core.vty)
  | None -> 1

(** Derive [v] as an affine expression over thread variables and loop
    induction variables. Returns None for non-affine values. *)
let rec expr_of (env : env) (v : Core.value) : Affine_expr.t option =
  match v.Core.vdef with
  | Core.Block_arg (blk, 0) -> (
    (* Possibly a loop induction variable. *)
    match Core.parent_op_of_block blk with
    | Some owner when Dialects.Loop.is_loop owner ->
      Some (Affine_expr.Dim (column env (Loop_iv owner.Core.oid)))
    | _ -> None)
  | Core.Block_arg _ -> None
  | Core.Op_result (op, _) -> (
    let bin f =
      match (expr_of env (Core.operand op 0), expr_of env (Core.operand op 1)) with
      | Some a, Some b -> Some (f a b)
      | _ -> None
    in
    match op.Core.name with
    | "arith.constant" -> (
      match Dialects.Arith.constant_int op with
      | Some c -> Some (Affine_expr.Const c)
      | None -> None)
    | "arith.addi" -> bin Affine_expr.add
    | "arith.subi" -> bin Affine_expr.sub
    | "arith.muli" -> (
      match bin Affine_expr.mul with
      | Some e when Affine_expr.is_pure_affine e -> Some e
      | _ -> None)
    | "arith.index_cast" -> expr_of env (Core.operand op 0)
    | "affine.apply" -> (
      let m = Dialects.Affine_ops.access_map op in
      let operand_exprs =
        List.map (expr_of env) (Core.operands op)
      in
      if List.for_all Option.is_some operand_exprs then
        let subs = Array.of_list (List.map Option.get operand_exprs) in
        match m.Affine_expr.Map.exprs with
        | [ e ] ->
          let rec subst e =
            match e with
            | Affine_expr.Dim i -> subs.(i)
            | Affine_expr.Sym _ -> e
            | Affine_expr.Const _ -> e
            | Affine_expr.Add (a, b) -> Affine_expr.add (subst a) (subst b)
            | Affine_expr.Mul (a, b) -> Affine_expr.mul (subst a) (subst b)
            | Affine_expr.Mod (a, b) -> Affine_expr.modulo (subst a) (subst b)
            | Affine_expr.Floordiv (a, b) -> Affine_expr.floordiv (subst a) (subst b)
            | Affine_expr.Ceildiv (a, b) -> Affine_expr.ceildiv (subst a) (subst b)
          in
          Some (subst e)
        | _ -> None
      else None)
    | name when Sycl_ops.is_global_id_getter op -> (
      ignore name;
      match Sycl_ops.getter_dim op with
      | Some d -> Some (Affine_expr.Dim (column env (Global_id d)))
      | None -> None)
    | _ when Sycl_ops.is_local_id_getter op -> (
      match Sycl_ops.getter_dim op with
      | Some d -> Some (Affine_expr.Dim (column env (Local_id d)))
      | None -> None)
    | _ -> None)

(** The sycl.constructor that uniquely defines the id struct referenced by
    [id_mem] at [at], found through reaching definitions. *)
let id_constructor (rd : Reaching_defs.t) (id_mem : Core.value) ~(at : Core.op) =
  let defs = Reaching_defs.defs_at rd id_mem ~at in
  match (defs.Reaching_defs.mods, defs.Reaching_defs.pmods) with
  | [ ctor ], [] when Sycl_ops.is_constructor ctor -> Some ctor
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Access extraction and classification                                *)
(* ------------------------------------------------------------------ *)

(** Index expressions (one per accessor dimension) for a load/store op. *)
let index_exprs (env : env) (rd : Reaching_defs.t) (op : Core.op) :
    (Affine_expr.t list * Core.op option * Core.value option) option =
  let subscript_exprs (sub : Core.op) =
    if Sycl_ops.subscript_is_direct sub then begin
      (* Direct form: index operands are the per-dimension expressions. *)
      let exprs = List.map (expr_of env) (Sycl_ops.subscript_indices sub) in
      if List.for_all Option.is_some exprs then Some (List.map Option.get exprs)
      else None
    end
    else
      (* Id-struct form (the paper's Listing 3): recover the constructor
         through reaching definitions and use its arguments. *)
      let idx = Sycl_ops.subscript_index sub in
      match id_constructor rd idx ~at:sub with
      | Some ctor ->
        let args = Sycl_ops.constructor_args ctor in
        let exprs = List.map (expr_of env) args in
        if List.for_all Option.is_some exprs then
          Some (List.map Option.get exprs)
        else None
      | None -> None
  in
  let from_mem mem extra_indices =
    match mem.Core.vdef with
    | Core.Op_result (sub, _) when Sycl_ops.is_subscript sub -> (
      match subscript_exprs sub with
      | Some exprs ->
        (* The view is 1-D; an extra index of 0 adds nothing, a non-zero
           one offsets the last dimension. *)
        let extra =
          match extra_indices with
          | [ e ] -> expr_of env e
          | [] -> Some (Affine_expr.Const 0)
          | _ -> None
        in
        (match extra with
        | Some (Affine_expr.Const 0) ->
          Some (exprs, Some sub, Some (Sycl_ops.subscript_accessor sub))
        | Some e ->
          let rec last_plus = function
            | [ l ] -> [ Affine_expr.add l e ]
            | x :: rest -> x :: last_plus rest
            | [] -> []
          in
          Some (last_plus exprs, Some sub, Some (Sycl_ops.subscript_accessor sub))
        | None -> None)
      | None -> None)
    | _ ->
      (* A plain memref access (e.g. a local-memory tile). *)
      let exprs = List.map (expr_of env) extra_indices in
      if List.for_all Option.is_some exprs && exprs <> [] then
        Some (List.map Option.get exprs, None, None)
      else None
  in
  if Dialects.Memref.is_load op then
    let mem, idx = Dialects.Memref.load_parts op in
    from_mem mem idx
  else if Dialects.Memref.is_store op then
    let _, mem, idx = Dialects.Memref.store_parts op in
    from_mem mem idx
  else None

let classify_access ~(kernel_dims : int) (vars : var list)
    (matrix : int array array) : coalescing =
  (* The fastest-varying thread dimension is the last global-id dim. *)
  let fastest = Global_id (kernel_dims - 1) in
  let col_of v =
    let rec go i = function
      | [] -> None
      | x :: _ when x = v -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 vars
  in
  let n_rows = Array.length matrix in
  if n_rows = 0 then Thread_invariant
  else
    (* Coalescing is determined by the fastest-varying thread dimension:
       work-items adjacent in a sub-group differ only in it. Accesses
       independent of it are broadcast (thread-invariant); unit stride in
       the last index row is Linear/ReverseLinear (after [14]). *)
    match col_of fastest with
    | None -> Thread_invariant
    | Some fc ->
      let depends =
        Array.exists (fun row -> row.(fc) <> 0) matrix
      in
      if not depends then Thread_invariant
      else
        let last = matrix.(n_rows - 1) in
        let others_clean =
          Array.for_all Fun.id
            (Array.init (n_rows - 1) (fun r -> matrix.(r).(fc) = 0))
        in
        if others_clean && last.(fc) = 1 then Linear
        else if others_clean && last.(fc) = -1 then Reverse_linear
        else Non_coalesced

(** Analyze all SYCL memory accesses in the body of [loop] (an scf.for or
    affine.for) inside [kernel]. *)
let analyze_loop ~(kernel : Core.op) (rd : Reaching_defs.t) (loop : Core.op) :
    access list =
  let kd = kernel_dims kernel in
  let accesses = ref [] in
  Core.walk loop ~f:(fun op ->
      if Dialects.Memref.is_load op || Dialects.Memref.is_store op then begin
        let env = { columns = Hashtbl.create 8; order = ref [] } in
        (* Pre-assign global id columns in dimension order so matrices are
           stable and comparable. *)
        for d = 0 to kd - 1 do
          ignore (column env (Global_id d))
        done;
        match index_exprs env rd op with
        | None -> ()
        | Some (row_exprs, sub, accessor) ->
          let vars = List.rev !(env.order) in
          let n_cols = List.length vars in
          let rows =
            List.map
              (fun e -> Affine_expr.linear_coeffs ~num_dims:n_cols ~num_syms:0 e)
              row_exprs
          in
          if List.for_all Option.is_some rows then begin
            let rows = List.map Option.get rows in
            let matrix = Array.of_list (List.map (fun (d, _, _) -> d) rows) in
            let offsets = Array.of_list (List.map (fun (_, _, c) -> c) rows) in
            let coalescing = classify_access ~kernel_dims:kd vars matrix in
            let iv_cols =
              List.filteri (fun _ v -> match v with Loop_iv _ -> true | _ -> false) vars
              |> List.filter_map (fun v ->
                     let rec go i = function
                       | [] -> None
                       | x :: _ when x = v -> Some i
                       | _ :: rest -> go (i + 1) rest
                     in
                     go 0 vars)
            in
            let temporal_reuse =
              List.exists
                (fun c -> Array.exists (fun row -> row.(c) <> 0) matrix)
                iv_cols
            in
            accesses :=
              {
                acc_op = op;
                acc_subscript = sub;
                accessor;
                kind = (if Dialects.Memref.is_load op then Load else Store);
                vars;
                matrix;
                offsets;
                row_exprs;
                coalescing;
                temporal_reuse;
              }
              :: !accesses
          end
      end);
  List.rev !accesses

let pp_access fmt (a : access) =
  let pp_row fmt row =
    Format.fprintf fmt "[%s]"
      (String.concat " " (Array.to_list (Array.map string_of_int row)))
  in
  Format.fprintf fmt "%s %s: matrix=%a offsets=[%s] coalescing=%s reuse=%b"
    (match a.kind with Load -> "load" | Store -> "store")
    (match a.accessor with Some _ -> "accessor" | None -> "memref")
    (fun fmt m -> Array.iter (pp_row fmt) m)
    a.matrix
    (String.concat " " (Array.to_list (Array.map string_of_int a.offsets)))
    (coalescing_to_string a.coalescing)
    a.temporal_reuse
