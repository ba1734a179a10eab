(** Alias analysis (paper Section V-A).

    MLIR-style local alias analysis augmented with SYCL dialect knowledge:
    subscript results alias their accessor's underlying buffer and nothing
    else, distinct allocations and distinct memory spaces never alias, and
    facts proven by the joint host/device analysis (Section VII-B) refine
    accessor-argument relations. *)

open Mlir

(** The root object a pointer-like value refers to. *)
type base =
  | Alloc of Core.op  (** memref.alloca/alloc, gpu.alloc_local, llvm.alloca *)
  | Global of string  (** llvm.addressof @g *)
  | Accessor_arg of Core.value  (** kernel argument of accessor type *)
  | Memref_arg of Core.value  (** other memref-typed argument (e.g. USM) *)
  | Unknown_base

type result =
  | No_alias
  | May_alias
  | Must_alias

val result_to_string : result -> string

(** Root object of a pointer-like value, walking through accessor
    subscripts. *)
val base_of : Core.value -> base

(** Alias relation between two pointer-like values. Conservative:
    [May_alias] whenever disjointness or equality cannot be proven. *)
val alias : Core.value -> Core.value -> result

val may_alias : Core.value -> Core.value -> bool
val must_alias : Core.value -> Core.value -> bool

(** {2 Host-provided facts}

    The host-device analysis records argument-level facts as function
    attributes; both directions are consumed transparently by {!alias}. *)

(** Pairs of kernel arguments proven disjoint. *)
val noalias_pairs : Core.op -> (int * int) list
val add_noalias_pair : Core.op -> int -> int -> unit

(** Pairs of kernel arguments proven to reference the same object
    (introduced by kernel fusion). *)
val mustalias_pairs : Core.op -> (int * int) list
val add_mustalias_pair : Core.op -> int -> int -> unit
