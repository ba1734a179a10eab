(* Per-core (per-work-group) data cache model (ROADMAP item 3).

   The interpreter already coalesces every memory access into cache-line
   transactions per (instruction, occurrence, sub-group); this module
   simulates what those *global* transactions do to a per-core data
   cache. One [state] is created per work-group (work-groups own their
   core for the duration of a launch in the model, matching inter-group
   independence), and the coalescing code probes it exactly once per new
   global transaction — so

       hits + misses = global_transactions

   holds by construction, exactly, with no epsilon (the conservation
   oracle [conserves] checks it like [Attribution.conserves]).

   Two organizations are modelled, selected by [Cost.cache_model]:
   direct-mapped ([ways = 1]) and set-associative with true LRU
   replacement. The set index is [line mod num_sets] and the tag is the
   full [(allocation id, line)] pair: allocation ids come from an atomic
   counter, so involving them in the index would make placement depend
   on allocation order; using only the line index instead models
   base-aligned allocations (a conservative conflict model — distinct
   arrays with equal line offsets do conflict, as they would when the
   runtime base-aligns buffers).

   Determinism: work-items of a group run as fibers on one domain in
   canonical order, so the probe sequence — and therefore every counter
   — is independent of the domain count. Each worker accumulates a
   private [table] shard; shards are merged in canonical chunk order,
   like [Cost.merge_launch_stats] and [Attribution].

   Alongside the hit/miss counters the model measures the *reuse
   distance* of every warm re-access: the number of distinct lines
   touched since the previous access to the same line (the LRU stack
   distance). [distance < capacity] iff the access would hit in a
   fully-associative LRU cache of that capacity, which is what lets the
   static reuse analysis ([--print-analysis reuse]) be cross-checked
   against measured hit rates. Distances are computed exactly with a
   Fenwick tree over probe positions. *)

(* ------------------------------------------------------------------ *)
(* Cache state (one per work-group)                                    *)
(* ------------------------------------------------------------------ *)

(* The tag is (t_aid, t_line); [t_aid = -1] marks an invalid way
   (allocation ids are never negative). Plain int fields keep a probe
   free of allocation and polymorphic comparison. *)
type slot = {
  mutable t_aid : int;
  mutable t_line : int;
  mutable stamp : int;  (* last-use tick, for LRU *)
}

type state = {
  sets : slot array array;  (* num_sets x ways *)
  mutable tick : int;
}

let create (p : Cost.params) (model : Cost.cache_model) : state option =
  match model with
  | Cost.Flat -> None
  | Cost.Direct_mapped | Cost.Set_associative ->
    let ways =
      match model with
      | Cost.Direct_mapped -> 1
      | _ -> max 1 p.Cost.cache_ways
    in
    let num_sets = max 1 (p.Cost.cache_lines / ways) in
    Some
      {
        sets =
          Array.init num_sets (fun _ ->
              Array.init ways (fun _ -> { t_aid = -1; t_line = 0; stamp = 0 }));
        tick = 0;
      }

type outcome = { o_hit : bool; o_evicted : bool }

let hit = { o_hit = true; o_evicted = false }
let miss = { o_hit = false; o_evicted = false }
let miss_evicting = { o_hit = false; o_evicted = true }

(** Probe the cache for the line [(aid, line)]: on a hit the slot's LRU
    stamp is refreshed; on a miss the line is installed, evicting the
    least-recently-used valid way when the set is full. *)
let access (st : state) ~(aid : int) ~(line : int) : outcome =
  st.tick <- st.tick + 1;
  let set = st.sets.(line mod Array.length st.sets) in
  let ways = Array.length set in
  let rec find i =
    if i = ways then -1
    else
      let s = set.(i) in
      if s.t_aid = aid && s.t_line = line then i else find (i + 1)
  in
  let w = find 0 in
  if w >= 0 then begin
    set.(w).stamp <- st.tick;
    hit
  end
  else begin
    (* Fill: an invalid way if any, else the LRU way (lowest stamp; ties
       impossible because stamps are distinct ticks). *)
    let victim = ref set.(0) in
    Array.iter
      (fun s ->
        if !victim.t_aid >= 0 && (s.t_aid < 0 || s.stamp < !victim.stamp)
        then victim := s)
      set;
    let evicted = !victim.t_aid >= 0 in
    !victim.t_aid <- aid;
    !victim.t_line <- line;
    !victim.stamp <- st.tick;
    if evicted then miss_evicting else miss
  end

(* ------------------------------------------------------------------ *)
(* Exact reuse distances (LRU stack distance)                          *)
(* ------------------------------------------------------------------ *)

(* Fenwick tree over probe positions: position p carries 1 iff it is the
   *most recent* access position of some line. The distance of a
   re-access whose previous position is [prev] is then the number of
   live positions in (prev, now) — the count of distinct lines touched
   in between. The tree grows by doubling; live positions are re-added
   on growth (amortized O(log n) per probe). *)
type reuse = {
  mutable bit : int array;  (* 1-based Fenwick array *)
  mutable pos : int;  (* last assigned position *)
  last : (int, int) Hashtbl.t;  (* packed line -> its live position *)
}

(* (allocation id, line) as one int key: lines stay below 2^32, so the
   packing is injective for any id a process can mint. *)
let line_key ~aid ~line = (aid lsl 32) lor line

(* Starts small — one tracker is made per work-group — and doubles on
   demand. *)
let reuse_create () = { bit = Array.make 65 0; pos = 0; last = Hashtbl.create 16 }

let bit_add (r : reuse) i delta =
  let n = Array.length r.bit - 1 in
  let i = ref i in
  while !i <= n do
    r.bit.(!i) <- r.bit.(!i) + delta;
    i := !i + (!i land - !i)
  done

(* Sum of positions 1..i. *)
let bit_sum (r : reuse) i =
  let s = ref 0 in
  let i = ref i in
  while !i > 0 do
    s := !s + r.bit.(!i);
    i := !i - (!i land - !i)
  done;
  !s

let reuse_grow (r : reuse) =
  r.bit <- Array.make ((2 * (Array.length r.bit - 1)) + 1) 0;
  Hashtbl.iter (fun _ p -> bit_add r p 1) r.last

(** Record a probe of [(aid, line)]; returns the exact reuse distance,
    or [None] for a first touch (cold). *)
let reuse_access (r : reuse) ~(aid : int) ~(line : int) : int option =
  let key = line_key ~aid ~line in
  if r.pos >= Array.length r.bit - 1 then reuse_grow r;
  let now = r.pos + 1 in
  r.pos <- now;
  let dist =
    match Hashtbl.find_opt r.last key with
    | Some prev ->
      let d = bit_sum r (now - 1) - bit_sum r prev in
      bit_add r prev (-1);
      Some d
    | None -> None
  in
  bit_add r now 1;
  Hashtbl.replace r.last key now;
  dist

(* ------------------------------------------------------------------ *)
(* The per-launch counter table                                        *)
(* ------------------------------------------------------------------ *)

(** Per-op cache behaviour, keyed like [Attribution]: the charging op's
    (name, source location). *)
type row = {
  mutable r_hits : int;
  mutable r_misses : int;
  mutable r_evictions : int;
  mutable r_dist_sum : int;  (* sum of measured (warm) reuse distances *)
  mutable r_dist_count : int;  (* warm re-accesses *)
}

type table = {
  rows : (string * string, (string * string) * row) Hashtbl.t;
  hist : (int, int) Hashtbl.t;  (* reuse distance -> occurrences *)
  mutable t_cold : int;  (* first-touch probes (no finite distance) *)
}

let create_table () =
  { rows = Hashtbl.create 64; hist = Hashtbl.create 64; t_cold = 0 }

let row (t : table) ~op_name ~loc =
  let key = (op_name, loc) in
  match Hashtbl.find_opt t.rows key with
  | Some (_, r) -> r
  | None ->
    let r =
      { r_hits = 0; r_misses = 0; r_evictions = 0; r_dist_sum = 0;
        r_dist_count = 0 }
    in
    Hashtbl.replace t.rows key (key, r);
    r

let observe_distance (t : table) (d : int option) =
  match d with
  | None -> t.t_cold <- t.t_cold + 1
  | Some d ->
    Hashtbl.replace t.hist d
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.hist d))

(** Sorted by (location, op name), like [Attribution.rows]. *)
let rows (t : table) =
  Hashtbl.fold (fun _ v acc -> v :: acc) t.rows []
  |> List.sort (fun ((na, la), _) ((nb, lb), _) -> compare (la, na) (lb, nb))

(** Merge [src] into [into]. Every field is a sum, so merging the
    per-worker shards in canonical chunk order reproduces the
    sequential table exactly. *)
let merge ~(into : table) (src : table) =
  List.iter
    (fun ((name, loc), (r : row)) ->
      let d = row into ~op_name:name ~loc in
      d.r_hits <- d.r_hits + r.r_hits;
      d.r_misses <- d.r_misses + r.r_misses;
      d.r_evictions <- d.r_evictions + r.r_evictions;
      d.r_dist_sum <- d.r_dist_sum + r.r_dist_sum;
      d.r_dist_count <- d.r_dist_count + r.r_dist_count)
    (rows src);
  Hashtbl.iter
    (fun d c ->
      Hashtbl.replace into.hist d
        (c + Option.value ~default:0 (Hashtbl.find_opt into.hist d)))
    src.hist;
  into.t_cold <- into.t_cold + src.t_cold

let totals (t : table) =
  List.fold_left
    (fun (h, m, e) (_, r) -> (h + r.r_hits, m + r.r_misses, e + r.r_evictions))
    (0, 0, 0) (rows t)

(** Exact conservation against the launch totals, in the style of
    [Attribution.conserves]: table rows sum to the launch counters and
    every probe is a global transaction. No tolerance. *)
let conserves (t : table) (s : Cost.launch_stats) =
  let h, m, e = totals t in
  let checks =
    [
      ("hits", h, s.Cost.cache_hits);
      ("misses", m, s.Cost.cache_misses);
      ("evictions", e, s.Cost.cache_evictions);
      ( "probes",
        s.Cost.cache_hits + s.Cost.cache_misses,
        s.Cost.global_transactions );
    ]
  in
  List.filter_map
    (fun (what, got, want) ->
      if got = want then None
      else Some (Printf.sprintf "%s: table %d vs launch %d" what got want))
    checks

(** Iterate the reuse-distance histogram in ascending distance order
    (deterministic regardless of hash order). *)
let iter_hist (t : table) (f : int -> int -> unit) =
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) t.hist []
  |> List.sort compare
  |> List.iter (fun (d, c) -> f d c)

(* Exact nearest-rank percentile over the distance histogram. *)
let percentile (t : table) (p : float) =
  let total = Hashtbl.fold (fun _ c acc -> acc + c) t.hist 0 in
  if total = 0 then None
  else begin
    let rank =
      max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int total)))
    in
    let entries =
      Hashtbl.fold (fun d c acc -> (d, c) :: acc) t.hist []
      |> List.sort compare
    in
    let rec pick seen = function
      | [] -> None
      | (d, c) :: rest ->
        if seen + c >= rank then Some d else pick (seen + c) rest
    in
    pick 0 entries
  end

let hit_rate ~hits ~misses =
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

let render (t : table) =
  let buf = Buffer.create 256 in
  let h, m, e = totals t in
  Buffer.add_string buf
    (Printf.sprintf "cache: hits=%d misses=%d evictions=%d hit_rate=%.4f\n" h m
       e (hit_rate ~hits:h ~misses:m));
  let pct p = match percentile t p with Some d -> string_of_int d | None -> "-" in
  Buffer.add_string buf
    (Printf.sprintf "  reuse distance: warm=%d cold=%d p50=%s p90=%s p99=%s\n"
       (Hashtbl.fold (fun _ c acc -> acc + c) t.hist 0)
       t.t_cold (pct 50.0) (pct 90.0) (pct 99.0));
  List.iter
    (fun ((name, loc), (r : row)) ->
      let mean =
        if r.r_dist_count = 0 then "-"
        else
          Printf.sprintf "%.1f"
            (float_of_int r.r_dist_sum /. float_of_int r.r_dist_count)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %s @ %s: hits=%d misses=%d evictions=%d mean_reuse=%s\n" name loc
           r.r_hits r.r_misses r.r_evictions mean))
    (rows t);
  Buffer.contents buf

let row_to_json ((name, loc), (r : row)) =
  Mlir.Json.Obj
    [
      ("op", Mlir.Json.String name);
      ("loc", Mlir.Json.String loc);
      ("hits", Mlir.Json.Int r.r_hits);
      ("misses", Mlir.Json.Int r.r_misses);
      ("evictions", Mlir.Json.Int r.r_evictions);
      ("hit_rate", Mlir.Json.Float (hit_rate ~hits:r.r_hits ~misses:r.r_misses));
      ("reuse_dist_sum", Mlir.Json.Int r.r_dist_sum);
      ("reuse_count", Mlir.Json.Int r.r_dist_count);
    ]

let to_json (t : table) =
  let h, m, e = totals t in
  let pct p =
    match percentile t p with
    | Some d -> Mlir.Json.Int d
    | None -> Mlir.Json.Null
  in
  Mlir.Json.Obj
    [
      ("hits", Mlir.Json.Int h);
      ("misses", Mlir.Json.Int m);
      ("evictions", Mlir.Json.Int e);
      ("hit_rate", Mlir.Json.Float (hit_rate ~hits:h ~misses:m));
      ( "reuse_distance",
        Mlir.Json.Obj
          [
            ( "warm",
              Mlir.Json.Int (Hashtbl.fold (fun _ c acc -> acc + c) t.hist 0) );
            ("cold", Mlir.Json.Int t.t_cold);
            ("p50", pct 50.0);
            ("p90", pct 90.0);
            ("p99", pct 99.0);
          ] );
      ("rows", Mlir.Json.List (List.map row_to_json (rows t)));
    ]
