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
let write_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when c >= ' ' && c < '\x7f' -> Buffer.add_char buf c
      | c ->
        Buffer.add_string buf "\\x";
        Buffer.add_char buf "0123456789ABCDEF".[Char.code c lsr 4];
        Buffer.add_char buf "0123456789ABCDEF".[Char.code c land 15])
    s;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  write_string buf s;
  Buffer.contents buf

(* [opening], the elements separated by ", ", and '>'. *)
let write_dense buf opening write_elt xs =
  Buffer.add_string buf opening;
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      write_elt buf x)
    xs;
  Buffer.add_char buf '>'

(** Append the text of an attribute to [buf]. *)
let rec write buf = function
  | Unit -> Buffer.add_string buf "unit"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Text.add_int buf i
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> write_string buf s
  | Type ty -> Types.write buf ty
  | Symbol s -> Buffer.add_char buf '@'; Buffer.add_string buf s
  | Array xs -> Buffer.add_char buf '['; Text.add_list buf write xs; Buffer.add_char buf ']'
  | Dense_int xs -> write_dense buf "dense_i<" Text.add_int xs
  | Dense_float xs ->
    write_dense buf "dense_f<" (fun buf f -> Buffer.add_string buf (float_to_string f)) xs
  | Affine_map m ->
    Buffer.add_string buf "affine_map<";
    Affine_expr.Map.write buf m;
    Buffer.add_char buf '>'

let to_string a =
  let buf = Buffer.create 16 in
  write buf a;
  Buffer.contents buf

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
