(* Differential-testing harness: the three oracles that keep the textual
   round-trip and the pass pipeline honest, plus the greedy pass-bisection
   shrinker that names the first pass breaking a check.

   Oracle (a) — print → parse → print fixpoint: any module's printed form
   must re-parse, and the re-parse must print identically.
   Oracle (b) — verify-each: the verifier must accept the input and the
   module after every pass of a pipeline; the pass manager's
   [~verify_each] stops at the first failure and names the input or the
   offending pass.
   Oracle (c) — simulator differential: optimized vs. unoptimized
   execution must agree. That oracle needs the simulator and workload
   layers, so it lives above this library (see Sycl_workloads.Differential);
   this module provides the generic machinery it shares with (a)/(b). *)

type failure = {
  f_oracle : string;  (** "roundtrip" | "verify-each" | "differential" *)
  f_detail : string;
  f_ir : string option;  (** offending module text, when available *)
}

let failure_to_string f =
  Printf.sprintf "[%s] %s" f.f_oracle f.f_detail

(* First line number (1-based) where two texts disagree, with both lines —
   small enough to put in a report, unlike two whole modules. *)
let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la, y :: lb when String.equal x y -> go (i + 1) la lb
    | x :: _, y :: _ -> Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<missing>")
    | [], y :: _ -> Some (i, "<missing>", y)
  in
  go 1 la lb

(* ------------------------------------------------------------------ *)
(* Oracle (a): print → parse → print fixpoint                          *)
(* ------------------------------------------------------------------ *)

(** [debuginfo] additionally prints a trailing [loc(...)] on every op in
    both renderings, so the oracle covers the location syntax too. Modules
    whose locations were built with the {!Loc} smart constructors (the
    parser, the builders, {!Irgen}) are already canonical, so the fixpoint
    holds for them just as it does for the loc-less form. *)
let check_roundtrip ?(debuginfo = false) (m : Core.op) : (unit, failure) result =
  let s1 = Printer.to_string ~debuginfo m in
  match Parser.parse_string s1 with
  | exception Parser.Parse_error msg ->
    Error
      { f_oracle = "roundtrip"; f_detail = "printed module fails to re-parse: " ^ msg;
        f_ir = Some s1 }
  | m' ->
    let s2 = Printer.to_string ~debuginfo m' in
    if String.equal s1 s2 then Ok ()
    else
      let detail =
        match first_diff s1 s2 with
        | Some (i, a, b) ->
          Printf.sprintf "print/reprint fixpoint broken at line %d: %S vs %S" i a b
        | None -> "print/reprint fixpoint broken"
      in
      Error { f_oracle = "roundtrip"; f_detail = detail; f_ir = Some s1 }

(* ------------------------------------------------------------------ *)
(* Oracle (b): verifier accepts every pass's output                    *)
(* ------------------------------------------------------------------ *)

(** Run [passes] over [m] with [Pass.run_pipeline ~verify_each:true]:
    it verifies the input, then the module after every pass, and stops
    at the first failure, which names the input or the breaking pass. *)
let check_pipeline_verified ~(passes : Pass.t list) (m : Core.op) :
    (unit, failure) result =
  let fail detail =
    Error
      { f_oracle = "verify-each"; f_detail = detail;
        f_ir = Some (Printer.to_string m) }
  in
  match Pass.run_pipeline ~verify_each:true passes m with
  | _ -> Ok ()
  | exception Pass.Invalid_input diagnostics ->
    fail (Verifier.failure "input" diagnostics)
  | exception Pass.Pass_failed { pass; diagnostics } ->
    fail
      (Printf.sprintf "pass '%s' broke the IR: %s" pass
         (String.concat "; " (List.map Verifier.diag_to_string diagnostics)))

(* ------------------------------------------------------------------ *)
(* Oracle (d): determinism — two renderings must agree byte-for-byte   *)
(* ------------------------------------------------------------------ *)

(** Compare two textual renderings of what must be the same result —
    e.g. the sequential simulator backend vs. the parallel one after its
    canonical merge. Any byte difference is a failure; the detail names
    the first differing line. [what] says which artefact disagreed
    ("stats", "profile", "bench-json", ...). *)
let check_deterministic ~(oracle : string) ~(what : string)
    ~(reference : string) ~(subject : string) () : (unit, failure) result =
  if String.equal reference subject then Ok ()
  else
    let detail =
      match first_diff reference subject with
      | Some (i, a, b) ->
        Printf.sprintf "%s differs at line %d: %S vs %S" what i a b
      | None -> what ^ " differs"
    in
    Error { f_oracle = oracle; f_detail = detail; f_ir = None }

(* ------------------------------------------------------------------ *)
(* Greedy pass bisection                                               *)
(* ------------------------------------------------------------------ *)

(** [bisect_passes ~passes ~base ~fresh ~check] names the first pass that
    breaks [check]: it grows the pipeline prefix one pass at a time, each
    time re-running from a [fresh] module, until [check] first reports
    failure. The first [base] passes are always included (e.g. host
    raising, without which a module cannot execute) and assumed good.
    Returns [None] when every prefix — including the full pipeline —
    passes. *)
let bisect_passes ~(passes : Pass.t list) ?(base = 0) ~(fresh : unit -> Core.op)
    ~(check : Core.op -> bool) () : string option =
  let n = List.length passes in
  let prefix k = List.filteri (fun i _ -> i < k) passes in
  let ok k =
    let m = fresh () in
    (try ignore (Pass.run_pipeline ~verify_each:false (prefix k) m)
     with _ -> ());
    check m
  in
  let rec go k =
    if k > n then None
    else if ok k then go (k + 1)
    else Some (List.nth passes (k - 1)).Pass.pass_name
  in
  go (max 1 (base + 1))
