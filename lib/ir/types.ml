(* The IR type system. Types form an open (extensible) variant so that
   dialects — in particular the SYCL dialect — can add their own types,
   mirroring MLIR's extensible type system. Structural equality works via
   OCaml's polymorphic equality on extensible-variant payloads. *)

type t = ..

(** Memory spaces, after the SYCL/GPU memory hierarchy (Section II-A of the
    paper): global is shared by all work-items, local by a work-group,
    private by a single work-item. *)
type memspace =
  | Global
  | Local
  | Private

type memref_info = {
  (* [None] encodes a dynamic extent, printed as [?]. *)
  shape : int option list;
  element : t;
  space : memspace;
}

type t +=
  | Integer of int  (** [Integer n] is the [i<n>] type, e.g. i1, i32, i64. *)
  | Index
  | F32
  | F64
  | Memref of memref_info
  | Function of t list * t list
  | None_type

let i1 = Integer 1
let i32 = Integer 32
let i64 = Integer 64
let f32 = F32
let f64 = F64

let memref ?(space = Global) shape element = Memref { shape; element; space }

(** 1-D dynamically-sized memref, the shape Polygeist gives to pointers. *)
let memref_dyn ?(space = Global) element =
  Memref { shape = [ None ]; element; space }

let is_integer = function Integer _ -> true | _ -> false
let is_float = function F32 | F64 -> true | _ -> false
let is_index = function Index -> true | _ -> false
let is_int_or_index t = is_integer t || is_index t
let is_memref = function Memref _ -> true | _ -> false

let memspace_to_string = function
  | Global -> "global"
  | Local -> "local"
  | Private -> "private"

let memspace_of_string = function
  | "global" -> Some Global
  | "local" -> Some Local
  | "private" -> Some Private
  | _ -> None

(* Dialects register writers (and the parser registers readers) for their
   types here. A writer appends its type's text to the buffer and returns
   [true], or returns [false], having written nothing, when the type is
   not one of its. *)
let printers : (Buffer.t -> t -> bool) list ref = ref []
let register_printer f = printers := f :: !printers

(** Append the text of [ty] to [buf]. *)
let rec write buf ty =
  match ty with
  | Integer n -> Buffer.add_char buf 'i'; Text.add_int buf n
  | Index -> Buffer.add_string buf "index"
  | F32 -> Buffer.add_string buf "f32"
  | F64 -> Buffer.add_string buf "f64"
  | None_type -> Buffer.add_string buf "none"
  | Function (args, results) -> (
    Buffer.add_char buf '(';
    Text.add_list buf write args;
    Buffer.add_string buf ") -> ";
    match results with
    | [ t ] -> write buf t
    | ts -> Buffer.add_char buf '('; Text.add_list buf write ts; Buffer.add_char buf ')')
  | Memref { shape; element; space } ->
    Buffer.add_string buf "memref<";
    List.iter
      (fun d ->
        (match d with None -> Buffer.add_char buf '?' | Some n -> Text.add_int buf n);
        Buffer.add_string buf " x ")
      shape;
    write buf element;
    (match space with
    | Global -> ()
    | s -> Buffer.add_string buf ", "; Buffer.add_string buf (memspace_to_string s));
    Buffer.add_char buf '>'
  | _ ->
    if not (List.exists (fun f -> f buf ty) !printers) then
      Buffer.add_string buf "<unknown-type>"

let to_string ty =
  let buf = Buffer.create 16 in
  write buf ty;
  Buffer.contents buf

let equal (a : t) (b : t) = a = b
