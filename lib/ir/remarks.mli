(** Optimization remarks in the style of LLVM's [-Rpass] /
    [-Rpass-missed] / [-Rpass-analysis]: passes emit structured records
    saying what they did ([Passed]), what they wanted to do but could
    not, and why ([Missed]), and what they learned ([Analysis]).

    Emission goes through a domain-local sink stack mirroring LLVM's
    remark streamer: with no sink installed, {!emit} is a near-no-op, so
    instrumented passes cost nothing in normal compilation. *)

type kind =
  | Passed
  | Missed
  | Analysis

val kind_to_string : kind -> string

type t = {
  r_pass : string;  (** emitting pass, e.g. ["licm"] *)
  r_name : string;  (** remark identifier, e.g. ["hoisted-mem"] *)
  r_kind : kind;
  r_func : string;  (** enclosing function / kernel ("?" when unknown) *)
  r_op : string;  (** op name the remark anchors to ("" when none) *)
  r_message : string;  (** human-readable reason *)
  r_loc : Loc.t;  (** source location of the anchor op ([Unknown] when none) *)
}

(** Is a sink installed (in this domain)? Passes may use this to skip
    expensive message construction. *)
val enabled : unit -> bool

(** Sinks form a domain-local stack: {!install} pushes, {!uninstall}
    pops — restoring the outer sink, so nested or concurrent pipelines
    cannot steal or drop each other's sinks. {!emit} broadcasts to every
    stacked sink, innermost first. *)
val install : (t -> unit) -> unit

val uninstall : unit -> unit

(** [with_sink f body] runs [body] with [f] as the innermost sink,
    popping it on the way out (exceptions included). *)
val with_sink : (t -> unit) -> (unit -> 'a) -> 'a

(** [isolated f body] runs [body] with [f] as the {e only} sink visible
    in this domain (outer sinks are hidden, and restored afterwards).
    The compile service uses this to capture a request's remarks exactly
    once regardless of which domain compiles it. *)
val isolated : (t -> unit) -> (unit -> 'a) -> 'a

(** Deliver an already-built remark to the current domain's installed
    sinks (no-op without one) — replaying collected or cached remarks on
    the caller's domain, in the caller's chosen order. *)
val broadcast : t -> unit

(** Emit a remark. The enclosing function name and source location are
    derived from [op] when [func] / [loc] are not given. No-op when no
    sink is installed. *)
val emit :
  pass:string ->
  name:string ->
  kind ->
  ?op:Core.op ->
  ?func:string ->
  ?loc:Loc.t ->
  string ->
  unit

(** Run a function with a collecting sink installed; returns its result
    and the remarks emitted during it, in order. An outer sink (if any)
    still receives every remark, so collectors nest. *)
val collect : (unit -> 'a) -> 'a * t list

(** ["[file:line:col: ]remark: <func>: <message> [-Rpass=<pass>:<name>]"]
    — prefixed with the resolved source position when the remark carries
    one. *)
val to_string : t -> string

(** Structured form, for embedding in larger documents. *)
val to_json_value : t -> Json.t
