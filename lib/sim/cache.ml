(* Per-core (per-work-group) data cache model (ROADMAP item 3).

   The interpreter already coalesces every memory access into cache-line
   transactions per executed instruction; this module simulates what
   those *global* transactions do to a per-core data cache. Every
   work-group starts from an empty [state] (work-groups own their core
   for the duration of a launch in the model, matching inter-group
   independence): the simulator makes one per chunk of groups and
   {!reset}s it before each group. The coalescing code probes it
   exactly once per new global transaction — so

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

   Determinism: a group runs on one domain, its sub-groups in order and
   their lanes in lockstep, and probes its own cache as each instruction
   executes, so the probe sequence — and therefore every counter — is
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
(* Cache state (emptied for each work-group)                           *)
(* ------------------------------------------------------------------ *)

(* Way [w] of set [s] is entry [s * ways + w] of three flat arrays: the
   tag (allocation id, line) and the last-use tick, for LRU. An
   allocation id of -1 marks an invalid way (ids are never negative).
   Plain int arrays keep a probe free of allocation and polymorphic
   comparison, and a reset is three fills. *)
type state = {
  ways : int;
  num_sets : int;
  aids : int array;
  lines : int array;
  stamps : int array;
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
    let n = num_sets * ways in
    Some
      { ways; num_sets; aids = Array.make n (-1); lines = Array.make n 0;
        stamps = Array.make n 0; tick = 0 }

let reset (st : state) =
  Array.fill st.aids 0 (Array.length st.aids) (-1);
  Array.fill st.lines 0 (Array.length st.lines) 0;
  Array.fill st.stamps 0 (Array.length st.stamps) 0;
  st.tick <- 0

type outcome = { o_hit : bool; o_evicted : bool }

let hit = { o_hit = true; o_evicted = false }
let miss = { o_hit = false; o_evicted = false }
let miss_evicting = { o_hit = false; o_evicted = true }

(** Probe the cache for the line [(aid, line)]: on a hit the way's LRU
    stamp is refreshed; on a miss the line is installed, evicting the
    least-recently-used valid way when the set is full. *)
let access (st : state) ~(aid : int) ~(line : int) : outcome =
  st.tick <- st.tick + 1;
  let first = (line mod st.num_sets) * st.ways in
  let last = first + st.ways - 1 in
  let w = ref first in
  while !w <= last && not (st.aids.(!w) = aid && st.lines.(!w) = line) do
    incr w
  done;
  if !w <= last then begin
    st.stamps.(!w) <- st.tick;
    hit
  end
  else begin
    (* Fill: the first invalid way if any, else the LRU way (lowest
       stamp; ties impossible because stamps are distinct ticks). *)
    let victim = ref first in
    for i = first to last do
      if st.aids.(!victim) >= 0
         && (st.aids.(i) < 0 || st.stamps.(i) < st.stamps.(!victim))
      then victim := i
    done;
    let v = !victim in
    let evicted = st.aids.(v) >= 0 in
    st.aids.(v) <- aid;
    st.lines.(v) <- line;
    st.stamps.(v) <- st.tick;
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
   on growth (amortized O(log n) per probe).

   Each line's live position is found in an open-addressing table keyed
   by the packed line ({!line_key}): linear probing over a power-of-two
   array that is at most half full, with no deletions (a line's entry is
   only ever overwritten). *)
type reuse = {
  mutable bit : int array;  (* 1-based Fenwick array *)
  mutable pos : int;  (* last assigned position *)
  mutable keys : int array;  (* packed line, or [no_key] *)
  mutable live : int array;  (* the key's live position *)
  mutable n_keys : int;
}

let no_key = -1

(* (allocation id, line) as one int key: lines stay below 2^32, so the
   packing is injective for any id a process can mint, and the key is
   never negative. *)
let line_key ~aid ~line = (aid lsl 32) lor line

(* Starts small and doubles on demand; one tracker serves all the groups
   of a chunk, reset in between. *)
let reuse_create () =
  { bit = Array.make 65 0; pos = 0; keys = Array.make 16 no_key;
    live = Array.make 16 0; n_keys = 0 }

let reuse_reset (r : reuse) =
  Array.fill r.bit 0 (Array.length r.bit) 0;
  r.pos <- 0;
  Array.fill r.keys 0 (Array.length r.keys) no_key;
  r.n_keys <- 0

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

(* The index of [key]'s entry in [keys], or of the empty entry where it
   belongs. Both halves of the key are mixed in, so lines of different
   allocations spread out. *)
let find_key (keys : int array) key =
  let mask = Array.length keys - 1 in
  let h = (key lxor (key lsr 32)) * 0x2545F4914F6CDD1D in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while keys.(!i) <> key && keys.(!i) <> no_key do
    i := (!i + 1) land mask
  done;
  !i

let grow_keys (r : reuse) =
  let keys = r.keys and live = r.live in
  r.keys <- Array.make (2 * Array.length keys) no_key;
  r.live <- Array.make (2 * Array.length keys) 0;
  Array.iteri
    (fun j key ->
      if key <> no_key then begin
        let i = find_key r.keys key in
        r.keys.(i) <- key;
        r.live.(i) <- live.(j)
      end)
    keys

let reuse_grow (r : reuse) =
  r.bit <- Array.make ((2 * (Array.length r.bit - 1)) + 1) 0;
  Array.iteri (fun i key -> if key <> no_key then bit_add r r.live.(i) 1) r.keys

(** Record a probe of [(aid, line)]; returns the exact reuse distance,
    or -1 for a first touch (cold). *)
let reuse_access (r : reuse) ~(aid : int) ~(line : int) : int =
  let key = line_key ~aid ~line in
  if r.pos >= Array.length r.bit - 1 then reuse_grow r;
  let now = r.pos + 1 in
  r.pos <- now;
  let i = find_key r.keys key in
  let dist =
    if r.keys.(i) = key then begin
      let prev = r.live.(i) in
      let d = bit_sum r (now - 1) - bit_sum r prev in
      bit_add r prev (-1);
      d
    end
    else begin
      r.keys.(i) <- key;
      r.n_keys <- r.n_keys + 1;
      -1
    end
  in
  bit_add r now 1;
  r.live.(i) <- now;
  if 2 * r.n_keys > Array.length r.keys then grow_keys r;
  dist

let hit_rate ~hits ~misses =
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)
