(** Interned strings for the hot identifiers of the IR — op names,
    attribute keys, printed type/attribute forms.

    An atom is a small dense integer with O(1) equality. Interning is
    thread-safe (mutex-protected table); [to_string] is lock-free and
    safe from any domain. *)

type t = int

(** Intern [s], returning its atom. Idempotent; the first interning of a
    string fixes its id for the process lifetime. *)
val intern : string -> t

(** The canonical string of an atom. Raises [Invalid_argument] for an id
    never returned by {!intern}. *)
val to_string : t -> string

val compare : t -> t -> int
