(** Interned strings for the hot identifiers of the IR — op names and
    the attribute keys and symbols the passes look up.

    An atom is a small dense integer with O(1) equality. Interning is
    thread-safe: each domain answers repeat interns from its own cache,
    and a new string takes a process-wide mutex. [to_string] is
    lock-free and safe from any domain. The table never shrinks, so
    intern only names the program knows, not data such as the printed
    value of every constant. *)

type t = int

(** Intern [s], returning its atom. Idempotent; the first interning of a
    string fixes its id for the process lifetime. *)
val intern : string -> t

(** The canonical string of an atom. Raises [Invalid_argument] for an id
    never returned by {!intern}. *)
val to_string : t -> string
