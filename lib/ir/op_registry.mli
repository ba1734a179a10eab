(** Per-op-name semantic information, mirroring MLIR's op interfaces and
    traits.

    Dialects register an {!op_info} record for each operation they define;
    analyses and transformations query it generically — this is what lets
    e.g. the reaching-definition analysis reason about SYCL dialect
    operations without depending on the SYCL dialect. *)

type effect_kind =
  | Read
  | Write
  | Alloc
  | Free

type effect_target =
  | On_operand of int
  | On_result of int
  | Anywhere  (** an effect on unknown memory *)

type effect = effect_kind * effect_target

(** Result of the folding hook: every result is either a constant
    attribute or an existing value. *)
type fold_result =
  | Fold_attrs of Attr.t list
  | Fold_values of Core.value list

(** How an op's regions execute, driving the data-flow framework. *)
type control =
  | Leaf  (** no regions, or regions that are not code *)
  | Seq  (** each region executes once, in order *)
  | Branch  (** at most one region executes (scf.if) *)
  | Loop  (** the region executes zero or more times *)

type op_info = {
  memory_effects : Core.op -> effect list option;
      (** [None] = unknown behaviour; [Some []] = free of memory effects *)
  control : control;
  non_uniform_source : bool;
      (** trait: results differ between work-items of a work-group *)
  speculatable : bool;
  terminator : bool;
  fold : Core.op -> Attr.t option array -> fold_result option;
  verify : Core.op -> (unit, string) result;
  verify_symbol_uses :
    lookup_func:(Core.op -> string -> Core.op option) -> Core.op -> (unit, string) result;
      (** checks against the functions the op names (MLIR's
          [SymbolUserOpInterface]); [lookup_func user name] finds the
          function [name] in the module nearest to [user], from a table
          the verifier builds once per run *)
}

(** All-unknown defaults. *)
val default_info : op_info

(** No memory effects, speculatable. *)
val pure_info : op_info

(** {2 Registration}

    Each dialect module registers its ops in a top-level [let () = ...],
    so linking the module registers them. The table may be read from any
    domain at any time; a registration, even a late one, publishes a new
    table atomically. *)

(** Register [info] for the op [name], replacing any earlier info. *)
val register : string -> op_info -> unit

(** The registered info of an op's name, if any. *)
val registered : Core.op -> op_info option

(** The registered info of the op name [name], if any. *)
val lookup : string -> op_info option

(** Info for an op (defaults when unregistered). *)
val info : Core.op -> op_info

(** {2 Queries} *)

val memory_effects : Core.op -> effect list option

(** The op {e and everything nested in it} is free of memory effects. *)
val is_pure : Core.op -> bool

val is_speculatable : Core.op -> bool
val is_terminator : Core.op -> bool

(** Effects of an op touching a specific value ([None] = unknown). *)
val effects_on_value : Core.op -> Core.value -> effect_kind list option

(** Does the op (shallowly) write/allocate/free, or read, any memory?
    [None] = unknown. *)
val writes_memory : Core.op -> bool option

val reads_memory : Core.op -> bool option
