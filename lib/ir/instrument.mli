(** Pass instrumentation, mirrored on MLIR's PassInstrumentation:
    [before_pass]/[after_pass] hooks fired around every pass execution by
    {!Pass.run_pipeline}, plus the built-in instrumentations the
    reproduction's workflow depends on — location coverage and
    before/after IR snapshots. The pass manager itself times every pass
    ({!Pass.pipeline_result}). *)

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
