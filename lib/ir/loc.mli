(** MLIR-style source locations carried by every {!Core.op}. *)

type t =
  | Unknown
  | File of { file : string; line : int; col : int }
  | Name of string * t
  | CallSite of { callee : t; caller : t }
  | Fused of t list

val unknown : t
val file : file:string -> line:int -> col:int -> t

(** [name n] / [name ~child n]: a named location, optionally wrapping a
    child position. *)
val name : ?child:t -> string -> t

(** Canonicalizing constructor: an [Unknown] side collapses to the other. *)
val callsite : callee:t -> caller:t -> t

(** Canonicalizing constructor: flattens nested [Fused], drops [Unknown]s,
    deduplicates; [[]] is [Unknown], a singleton is the location itself. *)
val fused : t list -> t

val equal : t -> t -> bool
val is_known : t -> bool

(** Append the MLIR textual syntax, inner form (no [loc(...)] wrapper):
    [unknown], ["f.cpp":3:1], ["name"], ["name"("f.cpp":3:1)],
    [callsite(l1 at l2)], [fused[l1, l2]]. *)
val write : Buffer.t -> t -> unit

(** {!write} into a fresh string. *)
val to_string : t -> string

(** First concrete [(file, line, col)] reachable from the location. *)
val resolve : t -> (string * int * int) option

(** ["file:line:col: "] or [""] — prepend to diagnostic messages. *)
val diag_prefix : t -> string

(** Human-readable chain ("inlined from", fusion components) for error
    reports. *)
val describe : t -> string
