(** Pass management: named passes over a module, pipelines, statistics and
    optional inter-pass verification — a small mirror of MLIR's
    PassManager. *)

(** Per-pass counters ("rewrites", "reduction.rewritten", ...). *)
module Stats : sig
  type t

  val create : unit -> t
  val bump : ?by:int -> t -> string -> unit
  val get : t -> string -> int
  val to_list : t -> (string * int) list
  val pp : Format.formatter -> t -> unit
end

type t = {
  pass_name : string;
  run : Core.op -> Stats.t -> unit;
}

val make : string -> (Core.op -> Stats.t -> unit) -> t

(** A pass running a function-level callback over every func.func. *)
val on_functions : string -> (Core.op -> Stats.t -> unit) -> t

exception
  Pass_failed of {
    pass : string;
    diagnostics : Verifier.diag list;
  }

(** The module failed verification before the first pass ran. *)
exception Invalid_input of Verifier.diag list

(** One pass execution: [t_start] is seconds after the run began. *)
type timing = {
  t_pass : string;
  t_start : float;
  t_seconds : float;
}

(** The one record of a pipeline run: per pass execution, in order, its
    statistics and its timing; [wall] is the run from entry to exit,
    verification included. *)
type pipeline_result = {
  per_pass_stats : (string * Stats.t) list;
  per_pass_time : timing list;
  wall : float;  (** seconds *)
}

(** Run a pipeline over a module. With [verify_each] (default), the
    verifier runs on the input, raising {!Invalid_input}, and after every
    pass, raising {!Pass_failed} for the pass that just ran;
    [instrumentations] fire around every pass execution (see
    {!Instrument}). *)
val run_pipeline :
  ?verify_each:bool ->
  ?instrumentations:Instrument.t list ->
  t list ->
  Core.op ->
  pipeline_result

(** All pass statistics merged into one table keyed ["pass/stat"]. *)
val merged_stats : pipeline_result -> Stats.t

(** Per distinct pass name, in first-execution order:
    [(name, executions, seconds)]. *)
val timing_lines : pipeline_result -> (string * int * float) list

(** Print the [-mlir-timing]-style report: total header, per-pass wall
    time merged by name with percentages of [wall], Rest (time outside
    passes) and Total lines. *)
val pp_timing : Format.formatter -> pipeline_result -> unit
