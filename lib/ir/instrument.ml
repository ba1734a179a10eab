(* Pass instrumentation, mirrored on MLIR's PassInstrumentation: hooks
   that fire around every pass execution in a pipeline, with the
   built-in instrumentations the workflow depends on — location coverage
   (--stats) and before/after IR snapshots (-mlir-print-ir-after /
   --dump-after). The pass manager itself times every pass
   ({!Pass.pipeline_result}). *)

type t = {
  i_name : string;
  before_pass : pass_name:string -> Core.op -> unit;
  after_pass : pass_name:string -> Core.op -> unit;
}

let make ?(before_pass = fun ~pass_name:_ _ -> ())
    ?(after_pass = fun ~pass_name:_ _ -> ()) i_name =
  { i_name; before_pass; after_pass }

let run_before (is : t list) ~pass_name m =
  List.iter (fun i -> i.before_pass ~pass_name m) is

(* After-hooks run in reverse registration order, like MLIR, so paired
   instrumentations nest properly. *)
let run_after (is : t list) ~pass_name m =
  List.iter (fun i -> i.after_pass ~pass_name m) (List.rev is)

(* ------------------------------------------------------------------ *)
(* Location coverage (--stats)                                         *)
(* ------------------------------------------------------------------ *)

(* Per-pass counts of ops carrying a known (non-Unknown) source location,
   before and after the pass — so location *loss* inside a pass (rewrites
   that drop or forget locations) is itself observable. *)

type loc_coverage_entry = {
  lc_pass : string;
  lc_before_known : int;
  lc_before_total : int;
  lc_after_known : int;
  lc_after_total : int;
}

(** A pass "lost" locations when it left more unknown-location ops behind
    than it found — i.e. it created or rewrote ops without propagating. *)
let loc_coverage_lost e =
  e.lc_after_total - e.lc_after_known > e.lc_before_total - e.lc_before_known

type loc_coverage_log = {
  mutable lcl_entries : loc_coverage_entry list;  (* reversed *)
  mutable lcl_pending : (int * int) option;  (* known, total before pass *)
}

let loc_coverage_log () = { lcl_entries = []; lcl_pending = None }
let loc_coverage_entries l = List.rev l.lcl_entries

let count_locs (m : Core.op) =
  let known = ref 0 and total = ref 0 in
  Core.walk m ~f:(fun o ->
      incr total;
      if Loc.is_known o.Core.loc then incr known);
  (!known, !total)

let loc_coverage (l : loc_coverage_log) =
  make "loc-coverage"
    ~before_pass:(fun ~pass_name:_ m -> l.lcl_pending <- Some (count_locs m))
    ~after_pass:(fun ~pass_name m ->
      let before_known, before_total =
        match l.lcl_pending with Some p -> p | None -> (0, 0)
      in
      l.lcl_pending <- None;
      let after_known, after_total = count_locs m in
      l.lcl_entries <-
        {
          lc_pass = pass_name;
          lc_before_known = before_known;
          lc_before_total = before_total;
          lc_after_known = after_known;
          lc_after_total = after_total;
        }
        :: l.lcl_entries)

let pp_loc_coverage fmt (l : loc_coverage_log) =
  Format.fprintf fmt "  %-40s %14s %14s@." "pass" "located before"
    "located after";
  List.iter
    (fun e ->
      Format.fprintf fmt "  %-40s %8d/%-5d %8d/%-5d%s@." e.lc_pass
        e.lc_before_known e.lc_before_total e.lc_after_known e.lc_after_total
        (if loc_coverage_lost e then "  LOST" else ""))
    (loc_coverage_entries l)

(* ------------------------------------------------------------------ *)
(* IR snapshots (--dump-before / --dump-after)                         *)
(* ------------------------------------------------------------------ *)

(** [dump ~filter ()] prints the module around every pass whose name
    matches [filter] (the literal pass name, or ["all"]). Output goes to
    [sink] (default: stderr), one banner + module text per firing. *)
let dump ?(sink = prerr_string) ?(before = false) ?(after = true)
    ~(filter : string) () =
  let matches pass_name = filter = "all" || filter = pass_name in
  let emit phase pass_name m =
    sink (Printf.sprintf "// ----- IR %s %s -----\n" phase pass_name);
    sink (Printer.to_string m)
  in
  make "ir-dump"
    ~before_pass:(fun ~pass_name m ->
      if before && matches pass_name then emit "before" pass_name m)
    ~after_pass:(fun ~pass_name m ->
      if after && matches pass_name then emit "after" pass_name m)
