(* Source-attributed cost accounting: every charge the device simulator
   records (ALU, fdiv, memory transactions, barrier rounds, cache
   probes) is accounted to the charging op and aggregated here, keyed by
   (op name, source location). The per-work-group cycle formula of {!Cost} divides the
   summed compute charges by the sub-group width once per group, so
   per-op cycle shares are distributed inside each work-group with a
   largest-remainder rule in canonical op order — making the per-line
   cycle totals sum *exactly* to [Cost.launch_stats.total_wg_cycles]
   (the conservation oracle) and keeping the distribution independent
   of how work-groups are chunked over worker domains.

   The table is the only record of a launch's per-op charges: the
   interpreter counts them per op and flushes one launch's totals into
   it once, and every surface — hotspot lines, the cache view, the run
   report, the annotated IR — is rendered from it. All row fields are
   sums, so tables merge by addition ({!merge_launches}), and
   {!check_launches} checks each launch's table against its launch
   statistics. *)

open Mlir

type counts = {
  mutable c_alu : int;  (** ALU-class op executions *)
  mutable c_fdiv : int;  (** divide/sqrt/exp-class executions *)
  mutable c_global : int;  (** coalesced global-memory transactions *)
  mutable c_local : int;  (** work-group-local transactions *)
  mutable c_const : int;  (** constant-cached transactions *)
  mutable c_accesses : int;  (** raw accesses before coalescing *)
  mutable c_barriers : int;  (** barrier rounds charged to this op *)
  mutable c_cycles : int;  (** total cycles attributed (conserved) *)
  mutable c_mem_cycles : int;  (** memory portion of [c_cycles] *)
  mutable c_hits : int;  (** cache hits among [c_global] (non-flat model) *)
  mutable c_misses : int;  (** cache misses among [c_global] *)
  mutable c_evictions : int;  (** lines its cache misses evicted *)
  mutable c_dist_sum : int;  (** summed reuse distances of its warm probes *)
  mutable c_dist_count : int;  (** its warm probes (re-accesses) *)
}

type key = {
  k_op : string;  (** op name, e.g. ["memref.load"] *)
  k_loc : Loc.t;  (** the op's source location *)
}

(* Rows are keyed by (op name, printed location): [Loc.to_string] is the
   textual syntax, so distinct locations never collide and the ordering
   is total. The original [Loc.t] is kept alongside for resolution. *)
type table = {
  rows : (string * string, key * counts) Hashtbl.t;
  mutable reuse : Sycl_obs.Metrics.hist option;
      (** the reuse distances of the warm cache probes: [Some] once a
          launch under a non-flat cache model was flushed into the
          table — even one that made no probes — which is what gives
          the table its cache view *)
}

let create () = { rows = Hashtbl.create 64; reuse = None }

let fresh_counts () =
  {
    c_alu = 0;
    c_fdiv = 0;
    c_global = 0;
    c_local = 0;
    c_const = 0;
    c_accesses = 0;
    c_barriers = 0;
    c_cycles = 0;
    c_mem_cycles = 0;
    c_hits = 0;
    c_misses = 0;
    c_evictions = 0;
    c_dist_sum = 0;
    c_dist_count = 0;
  }

(** The row for (op name, loc), created on first charge. *)
let row (t : table) ~(op_name : string) ~(loc : Loc.t) : counts =
  let k = (op_name, Loc.to_string loc) in
  match Hashtbl.find_opt t.rows k with
  | Some (_, c) -> c
  | None ->
    let c = fresh_counts () in
    Hashtbl.replace t.rows k ({ k_op = op_name; k_loc = loc }, c);
    c

(** Rows in canonical order: by printed location, then op name. Every
    rendering (digest, JSON, report) iterates in this order, so output
    is deterministic whatever the accumulation schedule was. *)
let rows (t : table) : (key * counts) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.rows []
  |> List.sort (fun ((na, la), _) ((nb, lb), _) -> compare (la, na) (lb, nb))
  |> List.map snd

(** Add [c] to the row for (op name, loc). *)
let add (t : table) ~op_name ~loc (c : counts) =
  let d = row t ~op_name ~loc in
  d.c_alu <- d.c_alu + c.c_alu;
  d.c_fdiv <- d.c_fdiv + c.c_fdiv;
  d.c_global <- d.c_global + c.c_global;
  d.c_local <- d.c_local + c.c_local;
  d.c_const <- d.c_const + c.c_const;
  d.c_accesses <- d.c_accesses + c.c_accesses;
  d.c_barriers <- d.c_barriers + c.c_barriers;
  d.c_cycles <- d.c_cycles + c.c_cycles;
  d.c_mem_cycles <- d.c_mem_cycles + c.c_mem_cycles;
  d.c_hits <- d.c_hits + c.c_hits;
  d.c_misses <- d.c_misses + c.c_misses;
  d.c_evictions <- d.c_evictions + c.c_evictions;
  d.c_dist_sum <- d.c_dist_sum + c.c_dist_sum;
  d.c_dist_count <- d.c_dist_count + c.c_dist_count

(** Power-of-two display buckets of the reuse-distance histogram, in
    cache lines (its percentiles are exact whatever the buckets). *)
let reuse_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

(** The table's reuse-distance histogram, created empty — and with it
    the cache view — on first use. *)
let reuse_hist (t : table) =
  match t.reuse with
  | Some h -> h
  | None ->
    let h = Sycl_obs.Metrics.hist_make reuse_bounds in
    t.reuse <- Some h;
    h

(** One table for a whole run: the launches' tables merged in launch
    order. Every field is a sum, so the merged rows and histogram do not
    depend on the order, and the merged table has a cache view when any
    launch's table has one. *)
let merge_launches (tabs : (string * table) list) : table =
  let into = create () in
  List.iter
    (fun (_, src) ->
      Hashtbl.iter (fun _ (k, c) -> add into ~op_name:k.k_op ~loc:k.k_loc c) src.rows;
      Option.iter
        (fun h -> Sycl_obs.Metrics.merge_hist ~into:(reuse_hist into) h)
        src.reuse)
    tabs;
  into

let total_cycles (t : table) =
  Hashtbl.fold (fun _ (_, c) acc -> acc + c.c_cycles) t.rows 0

(* ------------------------------------------------------------------ *)
(* Conservation oracle                                                 *)
(* ------------------------------------------------------------------ *)

(** Check every launch against its table: [launches] and [tables] are a
    run's per-launch statistics and tables, in launch order. Each table
    must decompose its launch's aggregates exactly — every counter
    column sums to its [Cost.launch_stats] field, and the cycle column,
    apportioned per op, to [total_wg_cycles] — and under a cache model
    every global transaction made exactly one cache probe
    ([hits + misses = global_transactions]). Returns the first
    violation. *)
let check_launches (launches : (string * Cost.launch_stats) list)
    (tables : (string * table) list) : (unit, string) result =
  let check (name, (s : Cost.launch_stats)) (name', t) =
    let sum f = Hashtbl.fold (fun _ (_, c) acc -> acc + f c) t.rows 0 in
    let checks =
      [
        ("alu", sum (fun c -> c.c_alu), s.Cost.alu_ops);
        ("fdiv", sum (fun c -> c.c_fdiv), s.Cost.fdiv_ops);
        ("global", sum (fun c -> c.c_global), s.Cost.global_transactions);
        ("local", sum (fun c -> c.c_local), s.Cost.local_transactions);
        ("const", sum (fun c -> c.c_const), s.Cost.const_transactions);
        ("barriers", sum (fun c -> c.c_barriers), s.Cost.barriers);
        ("cycles", sum (fun c -> c.c_cycles), s.Cost.total_wg_cycles);
        ("cache hits", sum (fun c -> c.c_hits), s.Cost.cache_hits);
        ("cache misses", sum (fun c -> c.c_misses), s.Cost.cache_misses);
        ("cache evictions", sum (fun c -> c.c_evictions), s.Cost.cache_evictions);
      ]
      @
      if Option.is_none t.reuse then []
      else
        [
          ( "cache probes",
            s.Cost.cache_hits + s.Cost.cache_misses,
            s.Cost.global_transactions );
        ]
    in
    if name <> name' then Some "launch and table lists disagree"
    else
      List.find_map
        (fun (what, got, want) ->
          if got = want then None
          else
            Some (Printf.sprintf "%s: %s total %d != launch %d" name what got want))
        checks
  in
  if List.compare_lengths launches tables <> 0 then
    Error "launch and table lists disagree"
  else
    match
      List.find_map (fun (l, t) -> check l t) (List.combine launches tables)
    with
    | Some msg -> Error msg
    | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Source-line aggregation (perf-annotate view)                        *)
(* ------------------------------------------------------------------ *)

let unknown_line = "<unknown>"

(** The source line a row reports under: the location's first concrete
    [file:line] (Name children, CallSite callee-then-caller and Fused
    components are walked in order by {!Loc.resolve}). *)
let line_of_loc (l : Loc.t) =
  match Loc.resolve l with
  | Some (file, line, _) -> Printf.sprintf "%s:%d" file line
  | None -> unknown_line

type line_row = {
  l_line : string;  (** ["file:line"] or [unknown_line] *)
  l_cycles : int;
  l_mem_cycles : int;
  l_transactions : int;  (** coalesced transactions, all classes *)
  l_accesses : int;  (** raw accesses before coalescing *)
  l_hits : int;  (** cache hits (0 under the flat model) *)
  l_misses : int;  (** cache misses (0 under the flat model) *)
  l_ops : string list;  (** contributing op names, sorted *)
}

(** Per-line aggregation of the table, hottest line first (ties broken
    by line name, so the report is deterministic). *)
let by_line (t : table) : line_row list =
  let acc : (string, line_row ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (k, c) ->
      let line = line_of_loc k.k_loc in
      let r =
        match Hashtbl.find_opt acc line with
        | Some r -> r
        | None ->
          let r =
            ref
              {
                l_line = line;
                l_cycles = 0;
                l_mem_cycles = 0;
                l_transactions = 0;
                l_accesses = 0;
                l_hits = 0;
                l_misses = 0;
                l_ops = [];
              }
          in
          Hashtbl.replace acc line r;
          r
      in
      r :=
        {
          !r with
          l_cycles = !r.l_cycles + c.c_cycles;
          l_mem_cycles = !r.l_mem_cycles + c.c_mem_cycles;
          l_transactions = !r.l_transactions + c.c_global + c.c_local + c.c_const;
          l_accesses = !r.l_accesses + c.c_accesses;
          l_hits = !r.l_hits + c.c_hits;
          l_misses = !r.l_misses + c.c_misses;
          l_ops =
            (if List.mem k.k_op !r.l_ops then !r.l_ops else k.k_op :: !r.l_ops);
        })
    (rows t);
  Hashtbl.fold (fun _ r acc -> { !r with l_ops = List.sort compare !r.l_ops } :: acc) acc []
  |> List.sort (fun a b -> compare (-a.l_cycles, a.l_line) (-b.l_cycles, b.l_line))

(** Fraction of attributed cycles accounted to a known source line. *)
let known_cycle_fraction (t : table) =
  let total = total_cycles t in
  if total = 0 then 1.0
  else
    let known =
      List.fold_left
        (fun acc r -> if r.l_line = unknown_line then acc else acc + r.l_cycles)
        0 (by_line t)
    in
    float_of_int known /. float_of_int total

(** The perf-annotate-style hotspot report: top-[top] source lines with
    cycles, share of total, memory transactions and the coalescing ratio
    (raw accesses per coalesced transaction; "-" for pure-compute
    lines). *)
let pp_hotspots ?(top = 10) fmt (t : table) =
  let lines = by_line t in
  let total = total_cycles t in
  (* The hit/miss/hit-rate columns only appear when a non-flat cache
     model recorded probes, so flat-model reports stay byte-identical
     to the pre-cache golden format. *)
  let cached = List.exists (fun r -> r.l_hits + r.l_misses > 0) lines in
  Format.fprintf fmt "hotspots: %d source lines, %d attributed cycles@."
    (List.length lines) total;
  if cached then
    Format.fprintf fmt
      "    cycles   share    trans  coalesce     hits   misses  hitrate  line@."
  else Format.fprintf fmt "    cycles   share    trans  coalesce  line@.";
  List.iteri
    (fun i r ->
      if i < top then begin
        let share =
          if total = 0 then 0.0
          else 100.0 *. float_of_int r.l_cycles /. float_of_int total
        in
        let coalesce =
          if r.l_transactions = 0 then "-"
          else
            Printf.sprintf "%.2f"
              (float_of_int r.l_accesses /. float_of_int r.l_transactions)
        in
        if cached then begin
          let hitrate =
            if r.l_hits + r.l_misses = 0 then "-"
            else
              Printf.sprintf "%.1f%%"
                (100.0 *. float_of_int r.l_hits
                /. float_of_int (r.l_hits + r.l_misses))
          in
          Format.fprintf fmt "%10d  %5.1f%%  %7d  %8s  %7d  %7d  %7s  %s (%s)@."
            r.l_cycles share r.l_transactions coalesce r.l_hits r.l_misses
            hitrate r.l_line
            (String.concat ", " r.l_ops)
        end
        else
          Format.fprintf fmt "%10d  %5.1f%%  %7d  %8s  %s (%s)@." r.l_cycles
            share r.l_transactions coalesce r.l_line
            (String.concat ", " r.l_ops)
      end)
    lines

let hotspots_to_string ?top (t : table) =
  Format.asprintf "%a" (fun fmt -> pp_hotspots ?top fmt) t

(* ------------------------------------------------------------------ *)
(* Canonical textual rendering (determinism digest)                    *)
(* ------------------------------------------------------------------ *)

let pp_row fmt (k, c) =
  Format.fprintf fmt
    "%s @ %s: alu=%d fdiv=%d mem(g=%d l=%d c=%d acc=%d) barriers=%d \
     cycles=%d mem_cycles=%d"
    k.k_op (Loc.to_string k.k_loc) c.c_alu c.c_fdiv c.c_global c.c_local
    c.c_const c.c_accesses c.c_barriers c.c_cycles c.c_mem_cycles;
  (* Gated per row: flat-model rows never carry probes, so the digest
     stays byte-identical to the seed format. *)
  if c.c_hits + c.c_misses > 0 then
    Format.fprintf fmt " cache(h=%d m=%d)" c.c_hits c.c_misses

(** One line per row in canonical order — folded into the run digest so
    the determinism oracle covers attribution byte-for-byte. *)
let render (t : table) =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Format.asprintf "  %a" pp_row r);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let row_to_json (k, c) : Json.t =
  Json.Obj
    ([
       ("op", Json.String k.k_op);
       ("loc", Json.String (Loc.to_string k.k_loc));
       ("line", Json.String (line_of_loc k.k_loc));
       ("alu", Json.Int c.c_alu);
       ("fdiv", Json.Int c.c_fdiv);
       ("global", Json.Int c.c_global);
       ("local", Json.Int c.c_local);
       ("const", Json.Int c.c_const);
       ("accesses", Json.Int c.c_accesses);
       ("barriers", Json.Int c.c_barriers);
       ("cycles", Json.Int c.c_cycles);
       ("mem_cycles", Json.Int c.c_mem_cycles);
     ]
    @
    (* Gated: only rows with cache probes (non-flat model) carry the
       hit/miss fields, keeping flat-model JSON byte-identical. *)
    if c.c_hits + c.c_misses > 0 then
      [
        ("cache_hits", Json.Int c.c_hits);
        ("cache_misses", Json.Int c.c_misses);
        ( "cache_hit_rate",
          Json.Float
            (float_of_int c.c_hits /. float_of_int (c.c_hits + c.c_misses)) );
      ]
    else [])

let to_json (t : table) : Json.t =
  Json.Obj
    [
      ("total_cycles", Json.Int (total_cycles t));
      ("rows", Json.List (List.map row_to_json (rows t)));
    ]

(* ------------------------------------------------------------------ *)
(* Cache view                                                          *)
(* ------------------------------------------------------------------ *)

(* The cache view of a table with one: its reuse histogram, the rows
   that made probes and their hit/miss/eviction totals. *)
let cache_view (t : table) =
  Option.map
    (fun h ->
      let probed =
        List.filter (fun (_, c) -> c.c_hits + c.c_misses > 0) (rows t)
      in
      let sum f = List.fold_left (fun acc (_, c) -> acc + f c) 0 probed in
      ( h,
        probed,
        sum (fun c -> c.c_hits),
        sum (fun c -> c.c_misses),
        sum (fun c -> c.c_evictions) ))
    t.reuse

(* Every probe is either a first touch (cold) or a warm re-access whose
   distance the histogram holds, so the cold probes are the rest. *)
let warm_cold (h : Sycl_obs.Metrics.hist) ~probes =
  (h.Sycl_obs.Metrics.h_count, probes - h.Sycl_obs.Metrics.h_count)

(** The cache table [--annotate] prints: totals, the reuse-distance
    summary and one line per row that made probes. [None] when no
    launch of the table ran a cache model. *)
let cache_to_string (t : table) : string option =
  Option.map
    (fun (h, probed, hits, misses, evictions) ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "cache: hits=%d misses=%d evictions=%d hit_rate=%.4f\n"
           hits misses evictions
           (Cache.hit_rate ~hits ~misses));
      let pct p =
        match Sycl_obs.Metrics.hist_percentile h p with
        | Some d -> string_of_int d
        | None -> "-"
      in
      let warm, cold = warm_cold h ~probes:(hits + misses) in
      Buffer.add_string buf
        (Printf.sprintf "  reuse distance: warm=%d cold=%d p50=%s p90=%s p99=%s\n"
           warm cold (pct 50.0) (pct 90.0) (pct 99.0));
      List.iter
        (fun (k, c) ->
          let mean =
            if c.c_dist_count = 0 then "-"
            else
              Printf.sprintf "%.1f"
                (float_of_int c.c_dist_sum /. float_of_int c.c_dist_count)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "  %s @ %s: hits=%d misses=%d evictions=%d mean_reuse=%s\n"
               k.k_op (Loc.to_string k.k_loc) c.c_hits c.c_misses
               c.c_evictions mean))
        probed;
      Buffer.contents buf)
    (cache_view t)

let cache_row_to_json (k, c) : Json.t =
  Json.Obj
    [
      ("op", Json.String k.k_op);
      ("loc", Json.String (Loc.to_string k.k_loc));
      ("hits", Json.Int c.c_hits);
      ("misses", Json.Int c.c_misses);
      ("evictions", Json.Int c.c_evictions);
      ("hit_rate", Json.Float (Cache.hit_rate ~hits:c.c_hits ~misses:c.c_misses));
      ("reuse_dist_sum", Json.Int c.c_dist_sum);
      ("reuse_count", Json.Int c.c_dist_count);
    ]

(** The cache view as JSON (the run report's [cache] section); [None]
    when no launch of the table ran a cache model. *)
let cache_to_json (t : table) : Json.t option =
  Option.map
    (fun (h, probed, hits, misses, evictions) ->
      let pct p =
        match Sycl_obs.Metrics.hist_percentile h p with
        | Some d -> Json.Int d
        | None -> Json.Null
      in
      let warm, cold = warm_cold h ~probes:(hits + misses) in
      Json.Obj
        [
          ("hits", Json.Int hits);
          ("misses", Json.Int misses);
          ("evictions", Json.Int evictions);
          ("hit_rate", Json.Float (Cache.hit_rate ~hits ~misses));
          ( "reuse_distance",
            Json.Obj
              [
                ("warm", Json.Int warm);
                ("cold", Json.Int cold);
                ("p50", pct 50.0);
                ("p90", pct 90.0);
                ("p99", pct 99.0);
              ] );
          ("rows", Json.List (List.map cache_row_to_json probed));
        ])
    (cache_view t)

(* ------------------------------------------------------------------ *)
(* Annotated IR                                                        *)
(* ------------------------------------------------------------------ *)

(** Record the attribution back into the IR as the discardable
    [sycl.cycles] / [sycl.mem_cycles] attributes (the analysis-printer
    convention: plain attribute constructs that round-trip through
    parser and verifier, and that [Analysis_printer.strip_annotations]
    removes). Ops sharing (name, location) — e.g. clones made by
    unrolling — each report the combined count of the row. *)
let annotate_module (t : table) (m : Core.op) =
  Core.walk m ~f:(fun op ->
      match Hashtbl.find_opt t.rows (op.Core.name, Loc.to_string op.Core.loc) with
      | Some (_, c) when c.c_cycles > 0 ->
        Core.set_attr op Sycl_core.Analysis_printer.cycles_attr
          (Attr.Int c.c_cycles);
        if c.c_mem_cycles > 0 then
          Core.set_attr op Sycl_core.Analysis_printer.mem_cycles_attr
            (Attr.Int c.c_mem_cycles);
        if c.c_hits > 0 then
          Core.set_attr op Sycl_core.Analysis_printer.cache_hits_attr
            (Attr.Int c.c_hits);
        if c.c_misses > 0 then
          Core.set_attr op Sycl_core.Analysis_printer.cache_misses_attr
            (Attr.Int c.c_misses)
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Optimization-delta join                                             *)
(* ------------------------------------------------------------------ *)

(** All concrete file positions appearing anywhere in a location tree,
    in walk order — the [Fused]/[CallSite] constituents a post-
    optimization row may carry. *)
let rec constituents (l : Loc.t) : (string * int) list =
  match l with
  | Loc.Unknown -> []
  | Loc.File { file; line; _ } -> [ (file, line) ]
  | Loc.Name (_, child) -> constituents child
  | Loc.CallSite { callee; caller } -> constituents callee @ constituents caller
  | Loc.Fused ls -> List.concat_map constituents ls

type delta_row = {
  d_line : string;
  d_before : int;  (** cycles attributed to the line, unoptimized run *)
  d_after : int;  (** cycles attributed to the line, optimized run *)
  d_remarks : Remarks.t list;  (** remarks whose location joins the line *)
}

(** Join two attribution tables (unoptimized vs optimized run) per
    source line, and attach each optimization remark to the line its
    location reaches. A remark joins a line directly when they resolve
    to the same [file:line]; additionally, any constituent of a fused or
    call-site location in either table forwards to that row's primary
    line — so a remark anchored at a source line that survived only as a
    [Fused]/[CallSite] component still lands on the row carrying its
    cycles. Rows are sorted by cycle delta ascending (largest saving
    first), ties by line. *)
let delta ~(before : table) ~(after : table) ~(remarks : Remarks.t list) :
    delta_row list =
  let line_cycles t =
    let acc = Hashtbl.create 32 in
    List.iter
      (fun (r : line_row) -> Hashtbl.replace acc r.l_line r.l_cycles)
      (by_line t);
    acc
  in
  let bmap = line_cycles before and amap = line_cycles after in
  (* Constituent forwarding: "file:line" -> the primary line of a row
     whose location contains it (first writer in canonical row order
     wins; primary lines forward to themselves). *)
  let forward = Hashtbl.create 32 in
  let note_row (k, _) =
    let primary = line_of_loc k.k_loc in
    List.iter
      (fun (file, line) ->
        let key = Printf.sprintf "%s:%d" file line in
        if not (Hashtbl.mem forward key) then Hashtbl.replace forward key primary)
      (constituents k.k_loc)
  in
  List.iter note_row (rows after);
  List.iter note_row (rows before);
  let remark_line (r : Remarks.t) =
    let direct =
      match Loc.resolve r.Remarks.r_loc with
      | Some (file, line, _) -> Printf.sprintf "%s:%d" file line
      | None -> unknown_line
    in
    match Hashtbl.find_opt forward direct with
    | Some primary -> primary
    | None -> direct
  in
  let lines =
    let seen = Hashtbl.create 32 in
    let out = ref [] in
    let add l = if not (Hashtbl.mem seen l) then (Hashtbl.replace seen l (); out := l :: !out) in
    Hashtbl.iter (fun l _ -> add l) bmap;
    Hashtbl.iter (fun l _ -> add l) amap;
    List.iter (fun r -> add (remark_line r)) remarks;
    !out
  in
  let get m l = Option.value ~default:0 (Hashtbl.find_opt m l) in
  List.map
    (fun l ->
      {
        d_line = l;
        d_before = get bmap l;
        d_after = get amap l;
        d_remarks = List.filter (fun r -> remark_line r = l) remarks;
      })
    lines
  |> List.sort (fun a b ->
         compare (a.d_after - a.d_before, a.d_line) (b.d_after - b.d_before, b.d_line))

(** Print the delta report: per-line cycle deltas next to the remarks
    that claimed them. Lines with neither a cycle change nor a remark
    are elided. *)
let pp_delta fmt (ds : delta_row list) =
  Format.fprintf fmt
    "optimization delta (device cycles, optimized - unoptimized):@.";
  List.iter
    (fun d ->
      let delta = d.d_after - d.d_before in
      if delta <> 0 || d.d_remarks <> [] then begin
        Format.fprintf fmt "  %+10d  (%d -> %d)  %s@." delta d.d_before
          d.d_after d.d_line;
        List.iter
          (fun (r : Remarks.t) ->
            Format.fprintf fmt "              [%s] %s: %s@." r.Remarks.r_pass
              (Remarks.kind_to_string r.Remarks.r_kind)
              r.Remarks.r_message)
          d.d_remarks
      end)
    ds

let delta_to_string ds = Format.asprintf "%a" pp_delta ds
