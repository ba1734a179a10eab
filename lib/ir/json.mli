(** The one JSON reader/writer shared by every emitter in the repo
    (optimization remarks, simulator traces, fuzz reports, benchmark
    reports), with a single correct string escaper — OCaml's [%S] is not
    valid JSON for control or non-ASCII bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Deterministic serialization. Default is pretty-printed (2-space
    indent, trailing newline NOT included); [compact] is single-line. *)
val to_string : ?compact:bool -> t -> string

(** {2 Accessors}, all returning [None] on kind mismatch. *)

val member : string -> t -> t option
val as_string : t -> string option
val as_int : t -> int option

(** Ints widen to float. *)
val as_float : t -> float option

val as_bool : t -> bool option
val as_list : t -> t list option
val as_obj : t -> (string * t) list option

exception Parse_error of string

(** Parse standard JSON (objects, arrays, strings, numbers, booleans,
    null). Raises {!Parse_error}. *)
val parse : string -> t
