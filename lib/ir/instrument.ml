(* Pass instrumentation, mirrored on MLIR's PassInstrumentation: hooks
   that fire around every pass execution in a pipeline, with the three
   built-in instrumentations the paper's workflow depends on —
   hierarchical timing (-mlir-timing), IR-change detection (flagging
   no-op pass runs via module fingerprints), and before/after IR
   snapshots (-mlir-print-ir-after / --dump-after). *)

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
(* Hierarchical timing (-mlir-timing)                                  *)
(* ------------------------------------------------------------------ *)

type timing_node = {
  t_name : string;
  mutable t_wall : float;  (** seconds, accumulated over executions *)
  mutable t_count : int;  (** number of executions merged in *)
  mutable t_children : timing_node list;  (** in first-execution order *)
}

let fresh_node name = { t_name = name; t_wall = 0.0; t_count = 0; t_children = [] }

type timer = {
  tm_root : timing_node;
  (* Stack of (node, start-time); the root is charged on [timing_report]. *)
  mutable tm_stack : (timing_node * float) list;
  tm_started : float;
}

let timer () =
  { tm_root = fresh_node "root"; tm_stack = []; tm_started = Unix.gettimeofday () }

(** The child of [parent] named [name], merged-by-name like mlir's
    TimingManager (repeated runs of a pass aggregate into one line). *)
let child_node parent name =
  match List.find_opt (fun c -> c.t_name = name) parent.t_children with
  | Some c -> c
  | None ->
    let c = fresh_node name in
    parent.t_children <- parent.t_children @ [ c ];
    c

let timing (tm : timer) =
  make "timing"
    ~before_pass:(fun ~pass_name _ ->
      let parent =
        match tm.tm_stack with (n, _) :: _ -> n | [] -> tm.tm_root
      in
      tm.tm_stack <- (child_node parent pass_name, Unix.gettimeofday ()) :: tm.tm_stack)
    ~after_pass:(fun ~pass_name:_ _ ->
      match tm.tm_stack with
      | (node, t0) :: rest ->
        node.t_wall <- node.t_wall +. (Unix.gettimeofday () -. t0);
        node.t_count <- node.t_count + 1;
        tm.tm_stack <- rest
      | [] -> ())

(** Snapshot of the timing tree; the root's wall time is the elapsed time
    since the timer was created (so "Rest" — time outside passes — is the
    difference between the root and the sum of its children). *)
let timing_report (tm : timer) =
  tm.tm_root.t_wall <- Unix.gettimeofday () -. tm.tm_started;
  tm.tm_root.t_count <- 1;
  tm.tm_root

let pp_timing fmt (root : timing_node) =
  let total = Float.max root.t_wall 1e-9 in
  let line indent name count wall =
    Format.fprintf fmt "  %9.4f (%5.1f%%)  %s%s%s@."
      wall
      (100.0 *. wall /. total)
      (String.make (2 * indent) ' ')
      name
      (if count > 1 then Printf.sprintf " (%d)" count else "")
  in
  Format.fprintf fmt
    "===%s===@.  ... Pass execution timing report ...@.===%s===@."
    (String.make 60 '-') (String.make 60 '-');
  Format.fprintf fmt "  Total Execution Time: %.4f seconds@.@." root.t_wall;
  Format.fprintf fmt "  ----Wall Time----  ----Name----@.";
  let rec walk indent node =
    List.iter
      (fun c ->
        line indent c.t_name c.t_count c.t_wall;
        walk (indent + 1) c)
      node.t_children
  in
  walk 0 root;
  let accounted =
    List.fold_left (fun a c -> a +. c.t_wall) 0.0 root.t_children
  in
  if root.t_wall -. accounted > 1e-6 then
    line 0 "Rest" 1 (root.t_wall -. accounted);
  line 0 "Total" 1 root.t_wall

(* ------------------------------------------------------------------ *)
(* IR-change detection                                                 *)
(* ------------------------------------------------------------------ *)

(** Structural fingerprint of a module: digest of its canonical textual
    form (the printer emits attributes sorted, so the fingerprint is
    insensitive to attribute insertion order). *)
let fingerprint (m : Core.op) = Digest.string (Printer.to_string m)

type change_log = {
  (* One entry per pass execution, in pipeline order. *)
  mutable cl_entries : (string * bool) list;  (** pass, changed-the-IR? *)
  mutable cl_before : Digest.t option;
}

let change_log () = { cl_entries = []; cl_before = None }

let changes (cl : change_log) = List.rev cl.cl_entries

(** Pass executions that left the module bit-identical (no-op runs — the
    signal that a pass in the pipeline is not earning its keep). *)
let noop_passes (cl : change_log) =
  List.filter_map (fun (p, changed) -> if changed then None else Some p)
    (changes cl)

let ir_change (cl : change_log) =
  make "ir-change"
    ~before_pass:(fun ~pass_name:_ m -> cl.cl_before <- Some (fingerprint m))
    ~after_pass:(fun ~pass_name m ->
      let changed =
        match cl.cl_before with
        | Some before -> not (Digest.equal before (fingerprint m))
        | None -> true
      in
      cl.cl_before <- None;
      cl.cl_entries <- (pass_name, changed) :: cl.cl_entries)

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
(* Verification after every pass (--verify-each)                       *)
(* ------------------------------------------------------------------ *)

(** [verify_after ()] runs {!Verifier.verify} on the module after every
    pass and hands any diagnostics to [sink] together with the name of
    the offending pass. The default sink prints to stderr; the fuzzing
    harness installs its own sink to record which pass broke the IR. *)
let verify_after
    ?(sink =
      fun ~pass_name diags ->
        List.iter
          (fun d ->
            Printf.eprintf "verify after %s: %s\n%!" pass_name
              (Verifier.diag_to_string d))
          diags)
    () =
  make "verify-after"
    ~after_pass:(fun ~pass_name m ->
      match Verifier.verify m with
      | Ok () -> ()
      | Error diags -> sink ~pass_name diags)

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
