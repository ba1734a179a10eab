(** Analysis introspection (printer passes).

    Each pass runs one of the paper's Section V analyses and records the
    results in the IR as discardable [sycl.*] attributes plus a textual
    report on the configured sink (stderr by default). The attributes use
    only constructs the printer/parser round-trip, so annotated modules
    re-parse and re-verify. *)

open Mlir

(** Redirect the textual report (default: stderr). *)
val set_sink : (string -> unit) -> unit

(** {2 Annotation attribute names} *)

val alias_group_attr : string
val arg_alias_groups_attr : string
val uniform_attr : string
val arg_uniform_attr : string
val def_id_attr : string
val reaching_mods_attr : string
val reaching_pmods_attr : string
val access_matrix_attr : string
val access_offsets_attr : string
val coalescing_attr : string
val temporal_reuse_attr : string

val cycles_attr : string
(** Per-op device cycles, written by the hotspot profiler
    ([Sycl_sim.Attribution.annotate_module]). *)

val mem_cycles_attr : string
(** Memory-traffic share of {!cycles_attr}. *)

val cache_hits_attr : string
(** Per-op cache hits under a non-flat [--cache-model], written by the
    hotspot profiler. *)

val cache_misses_attr : string
(** Per-op cache misses under a non-flat [--cache-model]. *)

val reuse_dist_attr : string
(** Predicted constant-stride reuse distance (in cache lines), written
    by the "reuse" printer. *)

(** Every attribute the printers may add. *)
val annotation_attrs : string list

(** {2 The printer passes} *)

val print_alias : Pass.t
val print_uniformity : Pass.t
val print_reaching_defs : Pass.t
val print_memory_access : Pass.t

val print_reuse : Pass.t
(** Predicts constant-stride reuse distances from the access matrices
    and records them as {!reuse_dist_attr}; cross-checked against the
    simulator's measured cache hit rates. *)

(** Look up a printer by its user-facing name ("alias", "uniformity",
    "reaching-defs", "memory-access", "reuse"). *)
val by_name : string -> Pass.t option

(** The user-facing analysis names accepted by {!by_name}. *)
val known : string list

(** Remove every annotation attribute from the module. *)
val strip_annotations : Core.op -> unit
