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
   oracle [Attribution.check_launches] checks it).

   Two organizations are modelled, selected by [Cost.cache_model]:
   direct-mapped ([ways = 1]) and set-associative with true LRU
   replacement. The set index is [line mod num_sets] and the tag is the
   full [(allocation id, line)] pair: allocation ids come from an atomic
   counter, so involving them in the index would make placement depend
   on allocation order; using only the line index instead models
   base-aligned allocations (a conservative conflict model — distinct
   arrays with equal line offsets do conflict, as they would when the
   runtime base-aligns buffers).

   Determinism: work-items of a group run on one domain in canonical
   order, so the probe sequence — and therefore every counter — is
   independent of the domain count. The interpreter counts each probe's
   outcome per op, beside the op's other charges, so the per-op cache
   columns live in the one {!Attribution} table.

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

let hit_rate ~hits ~misses =
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)
