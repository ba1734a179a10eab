(* Operation attributes: compile-time constant data attached to operations,
   mirroring MLIR's attribute system. *)

type t =
  | Unit
  | Bool of bool
  | Int of int  (** Also used for index-typed constants. *)
  | Float of float
  | String of string
  | Type of Types.t
  | Symbol of string  (** A symbol reference, printed as [@name]. *)
  | Array of t list
  | Dense_int of int array
  | Dense_float of float array
  | Affine_map of Affine_expr.Map.t

(* Shortest decimal spelling that re-parses to exactly the same bits.
   Special values use spellings the lexer knows ([nan], [infinity],
   [-infinity]); finite values always contain '.' or 'e' so they cannot
   be read back as integer literals. *)
let float_to_string f =
  match Float.classify_float f with
  | FP_nan -> "nan"
  | FP_infinite -> if f > 0.0 then "infinity" else "-infinity"
  | _ ->
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    let s =
      match exact 15 with
      | Some s -> s
      | None -> (
        match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

(* String literal escaping matched to the lexer: only backslash-n,
   backslash-t, backslash-backslash, backslash-quote and [\xHH] (for
   every other byte outside printable ASCII). *)
let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when c >= ' ' && c < '\x7f' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "\\x%02X" (Char.code c)))
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec to_string = function
  | Unit -> "unit"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | String s -> escape_string s
  | Type ty -> Types.to_string ty
  | Symbol s -> "@" ^ s
  | Array xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Dense_int xs ->
    "dense_i<"
    ^ String.concat ", " (Array.to_list (Array.map string_of_int xs))
    ^ ">"
  | Dense_float xs ->
    "dense_f<"
    ^ String.concat ", " (Array.to_list (Array.map float_to_string xs))
    ^ ">"
  | Affine_map m -> "affine_map<" ^ Affine_expr.Map.to_string m ^ ">"

(* Structural equality via [compare] rather than [=] so [Float nan]
   equals itself (polymorphic [=] uses IEEE comparison on floats, which
   would make any nan-carrying attribute unequal to its parsed copy). *)
let equal (a : t) (b : t) = compare a b = 0

(* Accessors returning [None] on kind mismatch. *)
let as_int = function Int i -> Some i | Bool b -> Some (Bool.to_int b) | _ -> None
let as_string = function String s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | Int i -> Some (i <> 0) | _ -> None
let as_type = function Type t -> Some t | _ -> None
let as_symbol = function Symbol s -> Some s | _ -> None

(** Is this attribute a numeric constant usable for folding? *)
let is_numeric = function Int _ | Float _ | Bool _ -> true | _ -> false
