(* The arith dialect: integer/float arithmetic, comparisons and constants,
   mirroring MLIR's upstream arith dialect. All ops are pure and foldable. *)

open Mlir

type icmp_pred = Eq | Ne | Slt | Sle | Sgt | Sge

type fcmp_pred = Oeq | One | Olt | Ole | Ogt | Oge

let icmp_pred_to_string = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt" | Sge -> "sge"

let icmp_pred_of_string = function
  | "eq" -> Some Eq | "ne" -> Some Ne | "slt" -> Some Slt
  | "sle" -> Some Sle | "sgt" -> Some Sgt | "sge" -> Some Sge | _ -> None

let fcmp_pred_to_string = function
  | Oeq -> "oeq" | One -> "one" | Olt -> "olt" | Ole -> "ole" | Ogt -> "ogt" | Oge -> "oge"

let fcmp_pred_of_string = function
  | "oeq" -> Some Oeq | "one" -> Some One | "olt" -> Some Olt
  | "ole" -> Some Ole | "ogt" -> Some Ogt | "oge" -> Some Oge | _ -> None

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let constant b attr ty =
  Builder.op1 b "arith.constant" ~operands:[] ~result_type:ty
    ~attrs:[ ("value", attr) ]

let const_int b ?(ty = Types.i64) i = constant b (Attr.Int i) ty
let const_index b i = constant b (Attr.Int i) Types.Index
let const_float b ?(ty = Types.f32) f = constant b (Attr.Float f) ty
let const_bool b v = constant b (Attr.Bool v) Types.i1

let binop name b x y =
  Builder.op1 b name ~operands:[ x; y ] ~result_type:x.Core.vty

let addi b x y = binop "arith.addi" b x y
let subi b x y = binop "arith.subi" b x y
let muli b x y = binop "arith.muli" b x y
let divsi b x y = binop "arith.divsi" b x y
let remsi b x y = binop "arith.remsi" b x y
let andi b x y = binop "arith.andi" b x y
let minsi b x y = binop "arith.minsi" b x y
let maxsi b x y = binop "arith.maxsi" b x y
let addf b x y = binop "arith.addf" b x y
let subf b x y = binop "arith.subf" b x y
let mulf b x y = binop "arith.mulf" b x y
let divf b x y = binop "arith.divf" b x y
let minf b x y = binop "arith.minimumf" b x y
let maxf b x y = binop "arith.maximumf" b x y

let negf b x =
  Builder.op1 b "arith.negf" ~operands:[ x ] ~result_type:x.Core.vty

let cmpi b pred x y =
  Builder.op1 b "arith.cmpi" ~operands:[ x; y ] ~result_type:Types.i1
    ~attrs:[ ("predicate", Attr.String (icmp_pred_to_string pred)) ]

let cmpf b pred x y =
  Builder.op1 b "arith.cmpf" ~operands:[ x; y ] ~result_type:Types.i1
    ~attrs:[ ("predicate", Attr.String (fcmp_pred_to_string pred)) ]

let select b c x y =
  Builder.op1 b "arith.select" ~operands:[ c; x; y ] ~result_type:x.Core.vty

let index_cast b x ty =
  Builder.op1 b "arith.index_cast" ~operands:[ x ] ~result_type:ty

let sitofp b x ty = Builder.op1 b "arith.sitofp" ~operands:[ x ] ~result_type:ty
let fptosi b x ty = Builder.op1 b "arith.fptosi" ~operands:[ x ] ~result_type:ty

let math_unary name b x =
  Builder.op1 b name ~operands:[ x ] ~result_type:x.Core.vty

(* math.* unary float functions live here for convenience. *)
let sqrt b x = math_unary "math.sqrt" b x
let absf b x = math_unary "math.absf" b x

(* ------------------------------------------------------------------ *)
(* Matchers                                                            *)
(* ------------------------------------------------------------------ *)

let is_constant (op : Core.op) = op.Core.name = "arith.constant"

let constant_attr (op : Core.op) =
  if is_constant op then Core.attr op "value" else None

(** Integer value of a constant op (covers bools and indices). *)
let constant_int (op : Core.op) = Option.bind (constant_attr op) Attr.as_int

let icmp_predicate (op : Core.op) =
  Option.bind (Core.attr_string op "predicate") icmp_pred_of_string

(* ------------------------------------------------------------------ *)
(* Folding                                                             *)
(* ------------------------------------------------------------------ *)

let int2 f = fun a b ->
  match (a, b) with
  | Attr.Int x, Attr.Int y -> Some (Attr.Int (f x y))
  | _ -> None

let float2 f = fun a b ->
  match (a, b) with
  | Attr.Float x, Attr.Float y -> Some (Attr.Float (f x y))
  | _ -> None

let eval_icmp pred x y =
  match pred with
  | Eq -> x = y | Ne -> x <> y | Slt -> x < y
  | Sle -> x <= y | Sgt -> x > y | Sge -> x >= y

let eval_fcmp pred (x : float) y =
  match pred with
  | Oeq -> x = y | One -> x <> y | Olt -> x < y
  | Ole -> x <= y | Ogt -> x > y | Oge -> x >= y

let binary_fold eval : Core.op -> Attr.t option array -> Op_registry.fold_result option =
 fun _op consts ->
  match consts with
  | [| Some a; Some b |] ->
    Option.map (fun r -> Op_registry.Fold_attrs [ r ]) (eval a b)
  | _ -> None

(* Identity simplifications that only need one constant operand. *)
let addi_fold op consts =
  match consts with
  | [| Some (Attr.Int x); Some (Attr.Int y) |] ->
    Some (Op_registry.Fold_attrs [ Attr.Int (x + y) ])
  | [| Some (Attr.Int 0); None |] ->
    Some (Op_registry.Fold_values [ Core.operand op 1 ])
  | [| None; Some (Attr.Int 0) |] ->
    Some (Op_registry.Fold_values [ Core.operand op 0 ])
  | _ -> None

let muli_fold op consts =
  match consts with
  | [| Some (Attr.Int x); Some (Attr.Int y) |] ->
    Some (Op_registry.Fold_attrs [ Attr.Int (x * y) ])
  | [| Some (Attr.Int 1); None |] ->
    Some (Op_registry.Fold_values [ Core.operand op 1 ])
  | [| None; Some (Attr.Int 1) |] ->
    Some (Op_registry.Fold_values [ Core.operand op 0 ])
  | [| Some (Attr.Int 0); None |] | [| None; Some (Attr.Int 0) |] ->
    Some (Op_registry.Fold_attrs [ Attr.Int 0 ])
  | _ -> None

let cmp_fold op consts =
  match consts with
  | [| Some (Attr.Int x); Some (Attr.Int y) |] ->
    Option.map
      (fun p -> Op_registry.Fold_attrs [ Attr.Bool (eval_icmp p x y) ])
      (icmp_predicate op)
  | _ -> None

let cmpf_fold op consts =
  match consts with
  | [| Some (Attr.Float x); Some (Attr.Float y) |] ->
    Option.map
      (fun p -> Op_registry.Fold_attrs [ Attr.Bool (eval_fcmp p x y) ])
      (Option.bind (Core.attr_string op "predicate") fcmp_pred_of_string)
  | _ -> None

(* Every arith and math op has one result; [operands] is its operand
   count. Folds and the simulator index operands without checking. *)
let pure_with_fold ~operands fold =
  let verify op =
    if Core.num_operands op = operands && Core.num_results op = 1 then Ok ()
    else
      Error
        (Printf.sprintf "%s takes %d operand(s) and 1 result, got %d and %d"
           op.Core.name operands (Core.num_operands op) (Core.num_results op))
  in
  { Op_registry.pure_info with Op_registry.fold; verify }

let register_binop name eval =
  Op_registry.register name (pure_with_fold ~operands:2 (binary_fold eval))

let () =
  (* Constant: folds to its own attribute (marks it constant-like). *)
  Op_registry.register "arith.constant"
    (pure_with_fold ~operands:0 (fun op _ ->
         Option.map (fun a -> Op_registry.Fold_attrs [ a ]) (Core.attr op "value")));
  Op_registry.register "arith.addi" (pure_with_fold ~operands:2 addi_fold);
  Op_registry.register "arith.muli" (pure_with_fold ~operands:2 muli_fold);
  register_binop "arith.subi" (int2 ( - ));
  register_binop "arith.divsi" (int2 (fun a b -> if b = 0 then 0 else a / b));
  register_binop "arith.remsi" (int2 (fun a b -> if b = 0 then 0 else a mod b));
  register_binop "arith.andi" (int2 ( land ));
  register_binop "arith.ori" (int2 ( lor ));
  register_binop "arith.xori" (int2 ( lxor ));
  register_binop "arith.minsi" (int2 min);
  register_binop "arith.maxsi" (int2 max);
  register_binop "arith.addf" (float2 ( +. ));
  register_binop "arith.subf" (float2 ( -. ));
  register_binop "arith.mulf" (float2 ( *. ));
  register_binop "arith.divf" (float2 ( /. ));
  register_binop "arith.minimumf" (float2 Float.min);
  register_binop "arith.maximumf" (float2 Float.max);
  Op_registry.register "arith.negf"
    (pure_with_fold ~operands:1 (fun _ consts ->
         match consts with
         | [| Some (Attr.Float x) |] ->
           Some (Op_registry.Fold_attrs [ Attr.Float (-.x) ])
         | _ -> None));
  Op_registry.register "arith.cmpi" (pure_with_fold ~operands:2 cmp_fold);
  Op_registry.register "arith.cmpf" (pure_with_fold ~operands:2 cmpf_fold);
  Op_registry.register "arith.select"
    (pure_with_fold ~operands:3 (fun op consts ->
         match consts.(0) with
         | Some (Attr.Bool true) | Some (Attr.Int 1) ->
           Some (Op_registry.Fold_values [ Core.operand op 1 ])
         | Some (Attr.Bool false) | Some (Attr.Int 0) ->
           Some (Op_registry.Fold_values [ Core.operand op 2 ])
         | _ -> None));
  Op_registry.register "arith.index_cast"
    (pure_with_fold ~operands:1 (fun _ consts ->
         match consts with
         | [| Some (Attr.Int x) |] -> Some (Op_registry.Fold_attrs [ Attr.Int x ])
         | _ -> None));
  Op_registry.register "arith.sitofp"
    (pure_with_fold ~operands:1 (fun _ consts ->
         match consts with
         | [| Some (Attr.Int x) |] ->
           Some (Op_registry.Fold_attrs [ Attr.Float (float_of_int x) ])
         | _ -> None));
  Op_registry.register "arith.fptosi"
    (pure_with_fold ~operands:1 (fun _ consts ->
         match consts with
         | [| Some (Attr.Float x) |] ->
           Some (Op_registry.Fold_attrs [ Attr.Int (int_of_float x) ])
         | _ -> None));
  Op_registry.register "math.sqrt"
    (pure_with_fold ~operands:1 (fun _ consts ->
         match consts with
         | [| Some (Attr.Float x) |] ->
           Some (Op_registry.Fold_attrs [ Attr.Float (Float.sqrt x) ])
         | _ -> None));
  Op_registry.register "math.exp"
    (pure_with_fold ~operands:1 (fun _ consts ->
         match consts with
         | [| Some (Attr.Float x) |] ->
           Some (Op_registry.Fold_attrs [ Attr.Float (Float.exp x) ])
         | _ -> None));
  Op_registry.register "math.absf"
    (pure_with_fold ~operands:1 (fun _ consts ->
         match consts with
         | [| Some (Attr.Float x) |] ->
           Some (Op_registry.Fold_attrs [ Attr.Float (Float.abs x) ])
         | _ -> None));
  (* arith.constant materializes folded constants everywhere. *)
  Rewrite.set_constant_materializer (fun b attr ty -> constant b attr ty)
