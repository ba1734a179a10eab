(** The compile service: long-lived, concurrent, cached compilation of
    many modules through one pass pipeline (ROADMAP item 1).

    A service owns a fixed pass pipeline plus a content-addressed result
    cache and a pool of OCaml worker domains. Requests carry module
    {e text}; each request is parsed, canonicalized (printed back in the
    canonical textual form, so whitespace and SSA-name differences
    vanish), and looked up in the cache under

      [Digest (canonical module text ^ NUL ^ pipeline key)]

    — the pipeline key being a canonical serialization of the pass
    pipeline/driver configuration (see {!pipeline_key_of_passes} and
    [Sycl_core.Driver.config_key]). On a miss the pipeline runs and the
    printed result (or its deterministic pass failure) is cached; on a
    hit the cached output and its recorded optimization remarks are
    returned without running a single pass. Identical requests in flight
    at the same time are coalesced: exactly one compiles, the rest wait
    for its result and count as hits, so hit/miss totals are
    deterministic for a given request multiset no matter how many
    workers run or how they interleave (as long as nothing is evicted).

    The cache is bounded: beyond [cache_capacity] entries the least
    recently used entry is evicted (and re-requesting it recompiles).

    A request that fails to parse, or whose compile raises an exception,
    is answered with a {!Failure}, counted in [service.errors] and never
    cached; the service keeps answering later requests.

    Thread-safety prerequisites (the service enforces/relies on these):
    - op/value ids come from an atomic counter ([Core.next_id]), so
      modules built on different domains never share ids;
    - remarks are captured per request with [Remarks.isolated] on the
      compiling domain and re-delivered via [Remarks.broadcast] on the
      {e calling} domain, in canonical request order — a sink installed
      by the caller sees every remark exactly once, even though worker
      domains start with an empty sink stack.

    Telemetry lands in a [Sycl_obs.Metrics] registry (see {!metrics}):
    - [service.requests], [service.cache_hits], [service.cache_misses],
      [service.cache_evictions], [service.coalesced_waits],
      [service.errors] (counters);
    - [service.compile_cost_units] (histogram over {e cold} compiles):
      the deterministic compile cost of a request — the sum over pipeline
      passes of the module's op count when the pass starts. This is the
      latency measure BENCH reports gate on, because it is byte-identical
      across machines and domain counts, unlike wall time;
    - [service.request_wall_us] (histogram over all requests): measured
      wall-clock latency in microseconds;
    - [service.batch_wall_us] (counter), [service.modules_per_sec]
      (gauge): batch throughput. *)

open Mlir

type request = {
  rq_name : string;  (** display name; also the parser's file for locations *)
  rq_text : string;  (** module source text *)
}

type outcome =
  | Success of string  (** printed module after the pipeline *)
  | Failure of string
      (** parse error, verification failure or a compile that raised,
          human-readable *)

type response = {
  rs_name : string;
  rs_outcome : outcome;
  rs_cache_hit : bool;
  rs_remarks : Remarks.t list;
      (** remarks emitted while compiling this module (replayed from the
          cache on a hit), in emission order *)
  rs_wall_us : int;  (** caller-observed latency, microseconds *)
  rs_cost_units : int;  (** deterministic compile cost; 0 on a hit *)
}

type t

(** [create ~pipeline ~pipeline_key ()] builds a service.
    [cache_capacity] (default 256, minimum 1) bounds the cache;
    [workers] (default [Domain.recommended_domain_count ()]) bounds how
    many domains of the shared {!Sycl_obs.Pool} {!run_batch} uses;
    [verify_each] (default false) runs
    the verifier after every pass of every compile. *)
val create :
  ?cache_capacity:int ->
  ?workers:int ->
  ?verify_each:bool ->
  pipeline:Pass.t list ->
  pipeline_key:string ->
  unit ->
  t

(** Canonical key for a pass pipeline: the comma-joined pass names.
    Pipeline aliases that resolve to the same pass sequence share a key;
    any difference in the pass list changes it. (Configuration switches
    that change pass {e options} rather than pass names must use
    [Sycl_core.Driver.config_key] instead.) *)
val pipeline_key_of_passes : Pass.t list -> string

(** The content-addressed cache key (hex digest), exposed so tests can
    state canonicalization properties directly. *)
val cache_key : pipeline_key:string -> canonical_text:string -> string

(** The canonical text of a parsed module — what the key digests. *)
val canonical_text : Core.op -> string

(** Compile one request on the calling domain (serve mode). Remarks are
    broadcast to the caller's sinks before returning. *)
val compile_one : t -> request -> response

(** Compile a batch concurrently on the worker-domain pool. Responses
    are returned in request order, and every response's remarks are
    broadcast to the caller's sinks in that canonical order after the
    workers join. *)
val run_batch : t -> request list -> response list

(** Current number of cached results (ready entries only). *)
val cache_length : t -> int

(** The service's telemetry registry (shared, mutex-protected). *)
val metrics : t -> Sycl_obs.Metrics.registry
