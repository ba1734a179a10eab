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
  idempotent : bool;
      (** running the pass on its own output changes nothing, so
          {!run_pipeline} may skip a provable repeat *)
}

(** [idempotent] defaults to [false]. *)
val make : ?idempotent:bool -> string -> (Core.op -> Stats.t -> unit) -> t

(** A pass running a function-level callback over every func.func. An
    idempotent one (its callback's result on a function depends on that
    function alone) skips, from its second execution in a pipeline run,
    every function with no op stamped since its previous execution. *)
val on_functions :
  ?idempotent:bool -> string -> (Core.op -> Stats.t -> unit) -> t

(** For the pass that {!run_pipeline} is running on this domain, if it
    is named [pass_name] and ran before in the same run: the generation
    ({!Core.generation}) at which its previous execution ended, so the
    ops stamped since are exactly the ones changed since. [None] on a
    first execution and outside a pipeline. *)
val previous_end : string -> int option

exception
  Pass_failed of {
    pass : string;
    diagnostics : Verifier.diag list;
  }

(** The module failed verification before the first pass ran. *)
exception Invalid_input of Verifier.diag list

(** One pass execution: [t_start] is seconds after the run began;
    [t_skipped] marks an idempotent pass skipped because nothing changed
    since its previous execution. *)
type timing = {
  t_pass : string;
  t_start : float;
  t_seconds : float;
  t_skipped : bool;
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
    {!Instrument}), a skipped one included. An idempotent pass is skipped
    (an empty stats table, [t_skipped]) when no op was stamped since its
    previous execution in the run ended. *)
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
    time merged by name with percentages of [wall] (["cse (3)"], or
    ["cse (3, 1 skipped)"] when some executions were skipped), Rest (time
    outside passes) and Total lines. *)
val pp_timing : Format.formatter -> pipeline_result -> unit
