(* Affine expressions and affine maps, mirroring MLIR's affine machinery.
   Expressions are over dimension variables (d0, d1, ...) and symbol
   variables (s0, s1, ...). *)

type t =
  | Dim of int
  | Sym of int
  | Const of int
  | Add of t * t
  | Mul of t * t
  | Mod of t * t
  | Floordiv of t * t
  | Ceildiv of t * t

let dim i = Dim i
let sym i = Sym i
let const c = Const c

let rec simplify e =
  match e with
  | Dim _ | Sym _ | Const _ -> e
  | Add (a, b) -> (
    match (simplify a, simplify b) with
    | Const 0, b -> b
    | a, Const 0 -> a
    | Const x, Const y -> Const (x + y)
    (* normalize constants to the right *)
    | Const x, b -> Add (b, Const x)
    | Add (a, Const x), Const y -> Add (a, Const (x + y))
    | a, b -> Add (a, b))
  | Mul (a, b) -> (
    match (simplify a, simplify b) with
    | Const 0, _ | _, Const 0 -> Const 0
    | Const 1, b -> b
    | a, Const 1 -> a
    | Const x, Const y -> Const (x * y)
    | Const x, b -> Mul (b, Const x)
    | a, b -> Mul (a, b))
  | Mod (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      let r = x mod y in
      Const (if r < 0 then r + y else r)
    | a, Const 1 -> Const 0
    | a, b -> Mod (a, b))
  | Floordiv (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      Const (if x >= 0 then x / y else -(((-x) + y - 1) / y))
    | a, Const 1 -> a
    | a, b -> Floordiv (a, b))
  | Ceildiv (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      Const (if x >= 0 then (x + y - 1) / y else -((-x) / y))
    | a, Const 1 -> a
    | a, b -> Ceildiv (a, b))

let add a b = simplify (Add (a, b))
let mul a b = simplify (Mul (a, b))
let modulo a b = simplify (Mod (a, b))
let floordiv a b = simplify (Floordiv (a, b))
let ceildiv a b = simplify (Ceildiv (a, b))
let neg a = mul a (Const (-1))
let sub a b = add a (neg b)

(** [eval dims syms e] evaluates [e] with [Dim i -> dims.(i)] and
    [Sym i -> syms.(i)]. *)
let rec eval dims syms e =
  match e with
  | Dim i -> dims.(i)
  | Sym i -> syms.(i)
  | Const c -> c
  | Add (a, b) -> eval dims syms a + eval dims syms b
  | Mul (a, b) -> eval dims syms a * eval dims syms b
  | Mod (a, b) ->
    let bv = eval dims syms b in
    let r = eval dims syms a mod bv in
    if r < 0 then r + abs bv else r
  | Floordiv (a, b) ->
    let x = eval dims syms a and y = eval dims syms b in
    if (x < 0) = (y < 0) || x = 0 then x / y else -(((abs x) + abs y - 1) / abs y)
  | Ceildiv (a, b) ->
    let x = eval dims syms a and y = eval dims syms b in
    if (x < 0) <> (y < 0) || x = 0 then x / y else ((abs x) + abs y - 1) / abs y * (if y < 0 then -1 else 1)

(* Is [e] a pure affine function (no Dim/Sym under Mul of two non-consts,
   no Mod/Floordiv by non-consts)? *)
let rec is_pure_affine e =
  match e with
  | Dim _ | Sym _ | Const _ -> true
  | Add (a, b) -> is_pure_affine a && is_pure_affine b
  | Mul (a, b) -> (
    (is_pure_affine a && is_const b) || (is_const a && is_pure_affine b))
  | Mod (a, b) | Floordiv (a, b) | Ceildiv (a, b) ->
    is_pure_affine a && is_const b

and is_const = function
  | Const _ -> true
  | Add (a, b) | Mul (a, b) | Mod (a, b) | Floordiv (a, b) | Ceildiv (a, b) ->
    is_const a && is_const b
  | Dim _ | Sym _ -> false

(** Decompose a pure affine expression into per-dimension coefficients, a
    per-symbol coefficient vector, and a constant offset. Returns [None] if
    the expression is not linear (e.g. uses mod/floordiv of a variable). *)
let linear_coeffs ~num_dims ~num_syms e =
  let dims = Array.make num_dims 0 in
  let syms = Array.make num_syms 0 in
  let cst = ref 0 in
  let exception Non_linear in
  let rec go scale e =
    match e with
    | Const c -> cst := !cst + (scale * c)
    | Dim i -> dims.(i) <- dims.(i) + scale
    | Sym i -> syms.(i) <- syms.(i) + scale
    | Add (a, b) ->
      go scale a;
      go scale b
    | Mul (a, Const c) | Mul (Const c, a) -> go (scale * c) a
    | Mul _ | Mod _ | Floordiv _ | Ceildiv _ -> raise Non_linear
  in
  match go 1 (simplify e) with
  | () -> Some (dims, syms, !cst)
  | exception Non_linear -> None

let rec write buf e =
  match e with
  | Dim i -> Buffer.add_char buf 'd'; Text.add_int buf i
  | Sym i -> Buffer.add_char buf 's'; Text.add_int buf i
  | Const c -> Text.add_int buf c
  | Add (a, Const c) when c < 0 ->
    write buf a; Buffer.add_string buf " - "; Text.add_int buf (-c)
  | Add (a, Mul (b, Const -1)) ->
    write buf a; Buffer.add_string buf " - "; write_factor buf b
  | Add (a, b) -> write buf a; Buffer.add_string buf " + "; write buf b
  | Mul (a, b) -> write_binary buf a " * " b
  | Mod (a, b) -> write_binary buf a " mod " b
  | Floordiv (a, b) -> write_binary buf a " floordiv " b
  | Ceildiv (a, b) -> write_binary buf a " ceildiv " b

and write_factor buf e =
  match e with
  | Add _ -> Buffer.add_char buf '('; write buf e; Buffer.add_char buf ')'
  | _ -> write buf e

and write_binary buf a op b =
  write_factor buf a;
  Buffer.add_string buf op;
  write_factor buf b

(** An affine map [(d0, ..., dn)[s0, ..., sm] -> (e0, ..., ek)]. *)
module Map = struct
  type expr = t

  type t = {
    num_dims : int;
    num_syms : int;
    exprs : expr list;
  }

  let make ~num_dims ~num_syms exprs =
    { num_dims; num_syms; exprs = List.map simplify exprs }

  let identity n = make ~num_dims:n ~num_syms:0 (List.init n dim)
  let constant_map cs = make ~num_dims:0 ~num_syms:0 (List.map const cs)

  let num_results m = List.length m.exprs

  let is_identity m =
    m.num_syms = 0
    && num_results m = m.num_dims
    && List.for_all2 (fun e i -> e = Dim i) m.exprs (List.init m.num_dims Fun.id)

  let eval m ~dims ~syms =
    assert (Array.length dims = m.num_dims);
    assert (Array.length syms = m.num_syms);
    List.map (eval dims syms) m.exprs

  let write buf m =
    let var prefix buf i = Buffer.add_char buf prefix; Text.add_int buf i in
    Buffer.add_char buf '(';
    Text.add_list buf (var 'd') (List.init m.num_dims Fun.id);
    Buffer.add_char buf ')';
    if m.num_syms > 0 then begin
      Buffer.add_char buf '[';
      Text.add_list buf (var 's') (List.init m.num_syms Fun.id);
      Buffer.add_char buf ']'
    end;
    Buffer.add_string buf " -> (";
    Text.add_list buf write m.exprs;
    Buffer.add_char buf ')'

  let to_string m =
    let buf = Buffer.create 32 in
    write buf m;
    Buffer.contents buf
end
