(** Pass instrumentation, mirrored on MLIR's PassInstrumentation:
    [before_pass]/[after_pass] hooks fired around every pass execution by
    {!Pass.run_pipeline}, plus the built-in instrumentations the
    reproduction's workflow depends on — hierarchical timing
    ([-mlir-timing]), IR-change detection (no-op pass runs flagged via
    module fingerprints) and before/after IR snapshots. *)

type t = {
  i_name : string;
  before_pass : pass_name:string -> Core.op -> unit;
  after_pass : pass_name:string -> Core.op -> unit;
}

val make :
  ?before_pass:(pass_name:string -> Core.op -> unit) ->
  ?after_pass:(pass_name:string -> Core.op -> unit) ->
  string ->
  t

(** Fire every [before_pass] hook, in registration order. *)
val run_before : t list -> pass_name:string -> Core.op -> unit

(** Fire every [after_pass] hook, in reverse registration order (so
    paired instrumentations nest like MLIR's). *)
val run_after : t list -> pass_name:string -> Core.op -> unit

(** {1 Hierarchical timing} *)

type timing_node = {
  t_name : string;
  mutable t_wall : float;  (** seconds, accumulated over executions *)
  mutable t_count : int;  (** executions merged into this line *)
  mutable t_children : timing_node list;
}

type timer

val timer : unit -> timer

(** The timing instrumentation: per-pass wall time, merged by pass name
    like mlir's TimingManager. *)
val timing : timer -> t

(** Snapshot of the tree; the root's wall time is the elapsed time since
    [timer] was created. *)
val timing_report : timer -> timing_node

(** Print the [-mlir-timing]-style report (total header, per-pass wall
    time with percentages, Rest and Total lines). *)
val pp_timing : Format.formatter -> timing_node -> unit

(** {1 IR-change detection} *)

(** Structural fingerprint of a module (digest of its canonical text). *)
val fingerprint : Core.op -> Digest.t

type change_log

val change_log : unit -> change_log

(** The change-detection instrumentation: fingerprints the module before
    and after each pass. *)
val ir_change : change_log -> t

(** One entry per pass execution, in pipeline order: did it change the IR? *)
val changes : change_log -> (string * bool) list

(** Pass executions that left the module bit-identical. *)
val noop_passes : change_log -> string list

(** {1 Location coverage} *)

type loc_coverage_entry = {
  lc_pass : string;
  lc_before_known : int;  (** ops with a known location before the pass *)
  lc_before_total : int;
  lc_after_known : int;
  lc_after_total : int;
}

(** Did the pass leave more unknown-location ops behind than it found
    (i.e. create or rewrite ops without propagating locations)? *)
val loc_coverage_lost : loc_coverage_entry -> bool

type loc_coverage_log

val loc_coverage_log : unit -> loc_coverage_log

(** The location-coverage instrumentation: counts known-location ops
    before and after every pass, so location loss is observable. *)
val loc_coverage : loc_coverage_log -> t

val loc_coverage_entries : loc_coverage_log -> loc_coverage_entry list

(** [(known, total)] ops in a module. *)
val count_locs : Core.op -> int * int

val pp_loc_coverage : Format.formatter -> loc_coverage_log -> unit

(** {1 Verification after every pass} *)

(** [verify_after ()] runs {!Verifier.verify} on the module after every
    pass, handing any diagnostics to [sink] with the offending pass's
    name (default sink: stderr). Backs [--verify-each] and the fuzzing
    harness's verifier oracle. *)
val verify_after :
  ?sink:(pass_name:string -> Verifier.diag list -> unit) -> unit -> t

(** {1 IR snapshots} *)

(** [dump ~filter ()] prints the module around every pass whose name
    matches [filter] (a literal pass name, or ["all"]). [sink] receives
    the banner and module text (default: stderr). *)
val dump :
  ?sink:(string -> unit) ->
  ?before:bool ->
  ?after:bool ->
  filter:string ->
  unit ->
  t
