(** Seeded random IR generator for the print→parse→print fixpoint
    oracle: printable, re-parseable modules over the whole textual format,
    with no dialect-semantics promises. *)

type t

(** A generator; equal seeds give equal module sequences. *)
val create : int -> t

val gen_module : t -> Core.op
