(** Parser for the textual generic form emitted by {!Printer}. Dialects
    register parsers for their types, keyed by the identifier after a
    ['!'] (e.g. [!sycl.id<2>]). *)

exception Parse_error of string

type t

(** [file] (default ["-"]) names the source in the parsed locations. *)
val parse_string : ?file:string -> string -> Core.op

(** {!parse_string}, requiring a [builtin.module] at top level. *)
val parse_module : ?file:string -> string -> Core.op

val make_parser : ?file:string -> string -> t
val parse_type : t -> Types.t
val parse_attr : t -> Attr.t

(** [register_type_parser key f] parses [!key...] with [f], called just
    after [key]; [f] reads tokens with the functions below. *)
val register_type_parser : string -> (t -> Types.t) -> unit

(** Consume the token spelled [s] (such as ["<"]), or raise
    {!Parse_error}. *)
val expect_punct : t -> string -> unit

(** Consume an integer literal / an identifier if it is the current token. *)
val accept_int : t -> int option

val accept_ident : t -> string option
