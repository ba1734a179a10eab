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

type pipeline_result = {
  per_pass_stats : (string * Stats.t) list;
  per_pass_time : (string * float) list;  (** seconds *)
}

(** Run a pipeline over a module. With [verify_each] (default), the
    verifier runs on the input, raising {!Invalid_input}, and after every
    pass, raising {!Pass_failed} for the pass that just ran; [instrumentations] fire around every pass
    execution (see {!Instrument}). [remarks_sink] scopes an
    optimization-remark sink to exactly this pipeline run
    ({!Remarks.with_sink}): it is popped on the way out, so nested or
    concurrent pipelines keep their own streams. *)
val run_pipeline :
  ?verify_each:bool ->
  ?instrumentations:Instrument.t list ->
  ?remarks_sink:(Remarks.t -> unit) ->
  t list ->
  Core.op ->
  pipeline_result

(** All pass statistics merged into one table keyed ["pass/stat"]. *)
val merged_stats : pipeline_result -> Stats.t
