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
}

(** All-unknown defaults. *)
val default_info : op_info

(** No memory effects, speculatable. *)
val pure_info : op_info

(** {2 Registration and freezing}

    Registration is an {e init-time-only} operation: dialects register
    their ops on a single domain before any concurrent compilation
    starts. Once every dialect has initialized, call {!freeze} — from
    then on the registry serves lookups from an immutable snapshot, so
    worker domains may query it concurrently without synchronization.

    After {!freeze}, [register] of an {e already-registered} name is a
    no-op (dialect [init] functions are idempotent and may run again),
    while [register] of a {e new} name raises [Invalid_argument]: new
    semantic information must not appear while workers are compiling.
    The compile service freezes the registry before spawning workers. *)

val register : string -> op_info -> unit
val register_pure : string -> unit

(** Snapshot the table and switch lookups to the immutable copy.
    Idempotent; later registrations of known names become no-ops. *)
val freeze : unit -> unit

val is_frozen : unit -> bool

(** Safe to call concurrently from any domain once {!freeze} has run;
    before that, only during the single-domain init phase. *)
val lookup : string -> op_info option

(** Info for an op (defaults when unregistered). *)
val info : Core.op -> op_info

val is_registered : string -> bool

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
