(** The settings of a simulated run.

    Each entry point (the CLIs, the test runner) builds one record from
    its flags and passes it down to {!Interp.launch}; the library holds
    no simulator setting of its own and reads no environment variable,
    so two runs in one process may use different settings at the same
    time. Every launch is priced with {!Cost.default}. *)

type t = {
  domains : int;
      (** worker domains a launch's work-groups run on; [1] is the
          sequential backend. Results are bit-identical for every
          count. *)
  check_races : bool;
      (** record what each group reads and writes, and raise
          {!Interp.Race_detected} when two groups of a launch write one
          global cell, or {!Interp.Intra_group_race} when, between two
          barriers, work-items of one group touch a cell one of them
          writes *)
  cache_model : Cost.cache_model;
      (** the per-core data cache simulated over the coalesced global
          transactions *)
}

(** One domain, no race check, the flat (no-cache) model: the settings
    every output surface and golden is pinned to. *)
val default : t

(** [domains_of_string s] is the domain count [s] spells, when it is an
    integer [>= 1]. The one check behind [--sim-domains] and
    [SYCL_SIM_DOMAINS] in every entry point. *)
val domains_of_string : string -> int option
