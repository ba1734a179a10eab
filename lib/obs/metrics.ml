(* Typed metrics registry: counters, gauges and fixed-bucket histograms
   with exact percentile extraction, exported through the shared
   {!Mlir.Json} writer.

   Every registry is internally mutex-protected, so concurrent
   observation is safe. Deterministic contents come from what is
   recorded, not from how: the simulator records its device counters
   once per launch, from statistics already merged in canonical chunk
   order, so the registry is byte-identical whatever the domain
   count. *)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* A histogram keeps two views of the same samples:
   - fixed display buckets (inclusive upper bounds, cumulative-friendly,
     bounded JSON size no matter how many samples arrive), and
   - an exact value -> count table used for percentile extraction.
   Samples are integers (cycles, bytes, nanoseconds); runs are
   deterministic so the number of *distinct* values stays small and the
   exact table costs O(distinct), not O(samples). *)
type hist = {
  h_bounds : int array;  (** inclusive upper bounds, strictly increasing *)
  h_buckets : int array;  (** length = bounds + 1; last is overflow *)
  h_exact : (int, int) Hashtbl.t;  (** value -> occurrence count *)
  mutable h_count : int;
  mutable h_sum : int;
}

(** Default bucket bounds for cycle-valued latencies: roughly
    logarithmic from 1k to 50M simulated cycles. *)
let latency_bounds =
  [|
    1_000; 2_000; 5_000; 10_000; 20_000; 50_000; 100_000; 200_000;
    500_000; 1_000_000; 2_000_000; 5_000_000; 10_000_000; 20_000_000;
    50_000_000;
  |]

let hist_make bounds =
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Metrics: histogram bounds must be strictly increasing")
    bounds;
  {
    h_bounds = Array.copy bounds;
    h_buckets = Array.make (Array.length bounds + 1) 0;
    h_exact = Hashtbl.create 16;
    h_count = 0;
    h_sum = 0;
  }

let bucket_index (h : hist) v =
  (* First bound >= v; the overflow bucket when none is. *)
  let n = Array.length h.h_bounds in
  let rec go i = if i >= n then n else if v <= h.h_bounds.(i) then i else go (i + 1) in
  go 0

let check_count count =
  if count < 0 then invalid_arg "Metrics: negative sample count";
  count > 0

(* [count] samples of value [v] (default 1): the same as [count] single
   observations, so [0] records nothing. *)
let hist_observe ?(count = 1) (h : hist) v =
  if check_count count then begin
    let i = bucket_index h v in
    h.h_buckets.(i) <- h.h_buckets.(i) + count;
    Hashtbl.replace h.h_exact v
      (count + Option.value ~default:0 (Hashtbl.find_opt h.h_exact v));
    h.h_count <- h.h_count + count;
    h.h_sum <- h.h_sum + (count * v)
  end

(** Exact nearest-rank percentile over the recorded samples: the
    smallest recorded value whose cumulative count reaches
    [ceil (p/100 * n)]. [None] on an empty histogram. *)
let hist_percentile (h : hist) (p : float) : int option =
  if h.h_count = 0 then None
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.h_count)))
    in
    let values =
      List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) h.h_exact [])
    in
    let rec walk cum = function
      | [] -> None (* unreachable: cumulative count reaches h_count *)
      | (v, c) :: rest -> if cum + c >= rank then Some v else walk (cum + c) rest
    in
    walk 0 values
  end

let hist_min (h : hist) =
  if h.h_count = 0 then None
  else Some (Hashtbl.fold (fun v _ acc -> min v acc) h.h_exact max_int)

let hist_max (h : hist) =
  if h.h_count = 0 then None
  else Some (Hashtbl.fold (fun v _ acc -> max v acc) h.h_exact min_int)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type metric =
  | Counter of int
  | Gauge of int
  | Hist of hist

type registry = {
  r_mutex : Mutex.t;
  r_tbl : (string, metric) Hashtbl.t;
}

let create () = { r_mutex = Mutex.create (); r_tbl = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name existing)
       wanted)

(** Add [by] (default 1) to counter [name], registering it at 0 first if
    unseen. Counters are monotonic across a run. *)
let incr (r : registry) ?(by = 1) name =
  Mutex.protect r.r_mutex (fun () ->
      match Hashtbl.find_opt r.r_tbl name with
      | None -> Hashtbl.replace r.r_tbl name (Counter by)
      | Some (Counter v) -> Hashtbl.replace r.r_tbl name (Counter (v + by))
      | Some m -> mismatch name m "counter")

(** Set gauge [name] to [v] (last write wins). *)
let set_gauge (r : registry) name v =
  Mutex.protect r.r_mutex (fun () ->
      match Hashtbl.find_opt r.r_tbl name with
      | None | Some (Gauge _) -> Hashtbl.replace r.r_tbl name (Gauge v)
      | Some m -> mismatch name m "gauge")

(** Record sample [v] into histogram [name], [count] times (default 1;
    the same as [count] single observations, so [0] records nothing);
    [bounds] applies only on first registration (default
    {!latency_bounds}). *)
let observe (r : registry) ?(bounds = latency_bounds) ?(count = 1) name v =
  if check_count count then
    Mutex.protect r.r_mutex (fun () ->
        let h =
          match Hashtbl.find_opt r.r_tbl name with
          | Some (Hist h) -> h
          | None ->
            let h = hist_make bounds in
            Hashtbl.replace r.r_tbl name (Hist h);
            h
          | Some m -> mismatch name m "histogram"
        in
        hist_observe ~count h v)

let counter_value (r : registry) name =
  Mutex.protect r.r_mutex (fun () ->
      match Hashtbl.find_opt r.r_tbl name with
      | Some (Counter v) -> v
      | _ -> 0)

let percentile (r : registry) name p =
  Mutex.protect r.r_mutex (fun () ->
      match Hashtbl.find_opt r.r_tbl name with
      | Some (Hist h) -> hist_percentile h p
      | _ -> None)

let hist_sample_count (r : registry) name =
  Mutex.protect r.r_mutex (fun () ->
      match Hashtbl.find_opt r.r_tbl name with
      | Some (Hist h) -> h.h_count
      | _ -> 0)

(** Fold histogram [src] into [into], sample by sample. *)
let merge_hist ~(into : hist) (src : hist) =
  if into.h_bounds <> src.h_bounds then
    invalid_arg "Metrics: merging histograms with different bucket bounds";
  Array.iteri (fun i c -> into.h_buckets.(i) <- into.h_buckets.(i) + c) src.h_buckets;
  Hashtbl.iter
    (fun v c ->
      Hashtbl.replace into.h_exact v
        (c + Option.value ~default:0 (Hashtbl.find_opt into.h_exact v)))
    src.h_exact;
  into.h_count <- into.h_count + src.h_count;
  into.h_sum <- into.h_sum + src.h_sum

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let json_of_metric (m : metric) : Mlir.Json.t =
  let open Mlir.Json in
  match m with
  | Counter v -> Obj [ ("type", String "counter"); ("value", Int v) ]
  | Gauge v -> Obj [ ("type", String "gauge"); ("value", Int v) ]
  | Hist h ->
    let opt_int = function Some v -> Int v | None -> Null in
    let pct p = opt_int (hist_percentile h p) in
    let buckets =
      List.concat
        [
          Array.to_list
            (Array.mapi
               (fun i c ->
                 Obj [ ("le", Int h.h_bounds.(i)); ("count", Int c) ])
               (Array.sub h.h_buckets 0 (Array.length h.h_bounds)));
          [
            Obj
              [
                ("le", Null);
                ("count", Int h.h_buckets.(Array.length h.h_bounds));
              ];
          ];
        ]
    in
    Obj
      [
        ("type", String "histogram");
        ("count", Int h.h_count);
        ("sum", Int h.h_sum);
        ("min", opt_int (hist_min h));
        ("max", opt_int (hist_max h));
        ("p50", pct 50.0);
        ("p90", pct 90.0);
        ("p99", pct 99.0);
        ("buckets", List buckets);
      ]

(** The whole registry as one JSON object, metric names sorted so the
    export is deterministic (difftest compares these byte-for-byte). *)
let to_json (r : registry) : Mlir.Json.t =
  let entries =
    Mutex.protect r.r_mutex (fun () ->
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.r_tbl []))
  in
  Mlir.Json.Obj (List.map (fun (k, m) -> (k, json_of_metric m)) entries)
