(** A dense forward data-flow framework over the structured-control-flow
    subset of the IR, mirroring the role of MLIR's data-flow analysis
    framework used by the paper's reaching-definition and uniformity
    analyses (Sections V-B, V-C).

    Clients provide a join-semilattice domain and a per-op transfer
    function; region-bearing ops are driven by their registered control
    kind: [Seq] regions execute once in order, [Branch] regions join with
    the incoming state, [Loop] regions iterate to a fixpoint (joined with
    the zero-trip state). *)

module type DOMAIN = sig
  type t

  val join : t -> t -> t
  val equal : t -> t -> bool
end

module Forward (D : DOMAIN) : sig
  (** [transfer op state] must account only for the op itself, not its
      regions — the framework recurses into regions first and feeds the
      combined region state in. *)
  type transfer = Core.op -> D.t -> D.t

  type result = {
    before : (int, D.t) Hashtbl.t;  (** state before each op, by op id *)
    at_end : (int, D.t) Hashtbl.t;  (** state at block ends, by block id *)
  }

  val max_loop_iterations : int

  (** Analyze an op and everything nested in it. [loop_header], when
      given, is applied to the state entering each Loop iteration (e.g.
      to havoc loop-carried variables). *)
  val analyze :
    ?loop_header:(Core.op -> D.t -> D.t) ->
    Core.op ->
    init:D.t ->
    transfer:transfer ->
    result

  (** State observed immediately before an op, if recorded. *)
  val before : result -> Core.op -> D.t option
end
