(** IR verification: SSA visibility, block structure (terminators),
    use-list consistency and per-op registered invariants. *)

type diag = {
  message : string;
  culprit : Core.op option;
  d_loc : Loc.t;  (** culprit's source location at failure time *)
  d_context : string;
      (** enclosing function and op path ("@gemm: scf.for#1 > arith.addi#0"),
          rendered when the diagnostic was created *)
}

(** ["[file:line:col: ]<message> (in @func: path — op(%a, %b))[ [at chain]]"].
    The location prefix appears when the culprit carries a resolvable
    position; structured locations also print their full chain. *)
val diag_to_string : diag -> string

(** ["<what> failed verification: <diag>; <diag>..."]. *)
val failure : string -> diag list -> string

(** Verify an op and everything nested in it. With
    [allow_unregistered = false], operations without a registry entry are
    also reported. *)
val verify : ?allow_unregistered:bool -> Core.op -> (unit, diag list) result

(** {2 Helpers for dialect verify hooks} *)

val check_num_regions : Core.op -> int -> (unit, string) result

val check_operand_type :
  Core.op -> int -> (Types.t -> bool) -> expected:string -> (unit, string) result

(** Result-monad bind over [(unit, string) result]. *)
val ( let* ) : (unit, 'e) result -> (unit -> (unit, 'e) result) -> (unit, 'e) result
