(** Affine expressions and maps, mirroring MLIR's affine machinery.
    Expressions range over dimension variables ([d0, d1, ...]) and symbol
    variables ([s0, s1, ...]). *)

type t =
  | Dim of int
  | Sym of int
  | Const of int
  | Add of t * t
  | Mul of t * t
  | Mod of t * t
  | Floordiv of t * t
  | Ceildiv of t * t

val dim : int -> t
val sym : int -> t
val const : int -> t

(** Structural simplification (constant folding, identities, constants
    normalized to the right). Preserves evaluation. *)
val simplify : t -> t

(** Smart constructors (simplify as they build). *)
val add : t -> t -> t

val mul : t -> t -> t
val modulo : t -> t -> t
val floordiv : t -> t -> t
val ceildiv : t -> t -> t
val neg : t -> t
val sub : t -> t -> t

(** [eval dims syms e] with [Dim i -> dims.(i)], [Sym i -> syms.(i)].
    [floordiv] rounds toward negative infinity; [mod] is non-negative for
    positive moduli. *)
val eval : int array -> int array -> t -> int

(** Affine in the polyhedral sense (mul/mod/div only by constants). *)
val is_pure_affine : t -> bool

(** Decompose a linear expression into per-dimension coefficients, a
    per-symbol coefficient vector and a constant offset; [None] when not
    linear. *)
val linear_coeffs :
  num_dims:int -> num_syms:int -> t -> (int array * int array * int) option

(** An affine map [(d0, ..., dn)\[s0, ..., sm\] -> (e0, ..., ek)]. *)
module Map : sig
  type expr = t

  type t = {
    num_dims : int;
    num_syms : int;
    exprs : expr list;
  }

  val make : num_dims:int -> num_syms:int -> expr list -> t
  val identity : int -> t
  val constant_map : int list -> t
  val num_results : t -> int
  val is_identity : t -> bool
  val eval : t -> dims:int array -> syms:int array -> int list

  (** Append the text of the map, [(d0, d1)[s0] -> (d0 + s0, d1)]. *)
  val write : Buffer.t -> t -> unit

  val to_string : t -> string
end
