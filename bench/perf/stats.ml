(* Order statistics for per-op latencies. Percentiles are nearest-rank
   over whole percents, in integer arithmetic so that e.g. p99 of 1000
   samples is exactly rank 990. *)

(** Rank (1-based) of the nearest-rank [p]th percentile of [n] samples:
    the smallest rank with at least [p]% of the samples at or below it. *)
let rank ~n p = max 1 (min n (((p * n) + 99) / 100))

(** Nearest-rank [p]th percentile of an ascending array. *)
let nearest_rank (sorted : float array) p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  sorted.(rank ~n p - 1)

(** The tail percentile reported for [n] samples: the highest whole
    percentile, at most 99, that still has at least 10 samples beyond its
    rank. Runs too short to have one fall back to the median. *)
let tail_percentile n =
  let rec go p =
    if p <= 50 then 50 else if n - rank ~n p >= 10 then p else go (p - 1)
  in
  go 99

let sorted_copy (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs = nearest_rank (sorted_copy xs) 50

(** The fastest time of each op of a round, over the whole rounds in
    [times] (op [i] repeats op [i - round]); the times themselves when no
    round is complete. *)
let fastest_per_op ~round (times : float array) =
  let rounds = Array.length times / round in
  if rounds = 0 then Array.copy times
  else
    Array.init round (fun k ->
        let best = ref times.(k) in
        for r = 1 to rounds - 1 do
          best := Float.min !best times.((r * round) + k)
        done;
        !best)
