(** Insertion-point based IR construction, mirroring MLIR's [OpBuilder]. *)

type t

(** Builders positioned at a block end / before an op. *)
val at_end : Core.block -> t

val before : Core.op -> t

val insertion_block : t -> Core.block option

(** Default source location stamped by {!insert} onto inserted ops that
    carry no location of their own ([Loc.Unknown]). *)
val set_default_loc : t -> Loc.t -> unit

val default_loc : t -> Loc.t

(** Run a function with the default location temporarily replaced. *)
val with_loc : t -> Loc.t -> (unit -> 'a) -> 'a

(** Insert a detached op at the current insertion point; stamps the
    builder's default location if the op's own is [Unknown]. *)
val insert : t -> Core.op -> Core.op

(** Create and insert an op. *)
val op :
  ?attrs:(string * Attr.t) list ->
  ?regions:Core.region list ->
  ?successors:Core.block list ->
  ?loc:Loc.t ->
  operands:Core.value list ->
  result_types:Types.t list ->
  t ->
  string ->
  Core.op

(** Like {!op} for single-result ops; returns the result value. *)
val op1 :
  ?attrs:(string * Attr.t) list ->
  ?regions:Core.region list ->
  ?successors:Core.block list ->
  ?loc:Loc.t ->
  operands:Core.value list ->
  result_type:Types.t ->
  t ->
  string ->
  Core.value

(** Like {!op} for zero-result ops. *)
val op0 :
  ?attrs:(string * Attr.t) list ->
  ?regions:Core.region list ->
  ?successors:Core.block list ->
  ?loc:Loc.t ->
  operands:Core.value list ->
  t ->
  string ->
  unit
