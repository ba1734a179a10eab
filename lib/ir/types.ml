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

(* Dialects register printers (and the parser registers readers) for their
   types here. A printer returns [None] when the type is not one of its. *)
let printers : (t -> string option) list ref = ref []
let register_printer f = printers := f :: !printers

let rec to_string ty =
  match ty with
  | Integer n -> "i" ^ string_of_int n
  | Index -> "index"
  | F32 -> "f32"
  | F64 -> "f64"
  | None_type -> "none"
  | Function (args, results) ->
    let tuple = function
      | [ t ] -> to_string t
      | ts -> "(" ^ String.concat ", " (List.map to_string ts) ^ ")"
    in
    Printf.sprintf "(%s) -> %s"
      (String.concat ", " (List.map to_string args))
      (tuple results)
  | Memref { shape; element; space } ->
    let dim = function None -> "?" | Some n -> string_of_int n in
    let sp = match space with Global -> "" | s -> ", " ^ memspace_to_string s in
    let dims = List.map (fun d -> dim d ^ " x ") shape in
    Printf.sprintf "memref<%s%s%s>" (String.concat "" dims) (to_string element) sp
  | _ ->
    let rec try_printers = function
      | [] -> "<unknown-type>"
      | f :: rest -> ( match f ty with Some s -> s | None -> try_printers rest)
    in
    try_printers !printers

let equal (a : t) (b : t) = a = b
