(* The JSON reader of the CLI transcripts.

     report-check FILE           the report's sections, then one line per
                                 invariant its sections support
     report-check FILE SECTION   SECTION printed canonically, for a cmp

   Every line shows the values it relates; a broken invariant prints
   "FAIL ..." and the exit code is 1. Only deterministic values are
   printed, so the transcript is the same at every domain count and on
   every run: pass spans are wall-clock (a pass that takes under a
   microsecond has none), so their names are left out. *)

open Mlir

let failed = ref false

let line ok fmt =
  Printf.ksprintf
    (fun s ->
      if not ok then failed := true;
      print_endline (if ok then s else "FAIL " ^ s))
    fmt

let member path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let get conv default path j =
  Option.value ~default (Option.bind (member path j) conv)

let int = get Json.as_int 0
let list = get Json.as_list []
let keys j = List.map fst (Option.value ~default:[] (Json.as_obj j))
let words l = String.concat " " l
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let ordered what j =
  let p50 = int [ "p50" ] j and p90 = int [ "p90" ] j in
  let p99 = int [ "p99" ] j in
  line (p50 <= p90 && p90 <= p99) "%s p50 <= p90 <= p99: %d <= %d <= %d" what
    p50 p90 p99;
  p50

let trace t =
  let events = list [ "traceEvents" ] t in
  let is key v e = member [ key ] e = Some (Json.String v) in
  let spans = List.filter (is "ph" "X") events in
  let strings key spans =
    List.sort_uniq compare
      (List.filter_map (fun e -> Option.bind (member [ key ] e) Json.as_string)
         spans)
  in
  let pids = List.sort_uniq compare (List.map (int [ "pid" ]) events) in
  line true "trace lanes: %s" (words (List.map string_of_int pids));
  line true "trace span categories: %s" (words (strings "cat" spans));
  let not_pass = List.filter (fun e -> not (is "cat" "pass" e)) spans in
  line true "trace span names, passes aside: %s" (words (strings "name" not_pass));
  let kernels = List.filter (is "cat" "kernel") spans in
  if kernels <> [] then begin
    let arg k e = int [ "args"; k ] e in
    let split e =
      arg "compute_cycles" e + arg "memory_cycles" e + arg "barrier_cycles" e
    in
    line
      (List.for_all (fun e -> split e = arg "total_wg_cycles" e) kernels)
      "kernel spans: %d, compute + memory + barrier = total_wg_cycles in each"
      (List.length kernels);
    line true "kernel span cycles: %d" (sum (int [ "dur" ]) kernels)
  end

let metrics m =
  let value name = int [ name; "value" ] m in
  Option.iter
    (fun h -> ignore (ordered "launch latency" h))
    (member [ "runtime.launch_latency_cycles" ] m);
  if member [ "runtime.transfer_bytes_h2d" ] m <> None then
    line (value "runtime.transfer_bytes_h2d" > 0) "transfer bytes h2d: %d"
      (value "runtime.transfer_bytes_h2d");
  if member [ "service.requests" ] m <> None then begin
    let hits = value "service.cache_hits" in
    let misses = value "service.cache_misses" in
    line
      (value "service.requests" = hits + misses && hits >= misses)
      "service requests = hits + misses, hits >= misses: %d = %d + %d"
      (value "service.requests") hits misses;
    let cost = Option.get (member [ "service.compile_cost_units" ] m) in
    line (ordered "service compile cost" cost > 0) "service compile cost p50 > 0"
  end

let attribution a =
  let rows = list [ "rows" ] a in
  let located r = String.contains (get Json.as_string "" [ "loc" ] r) ':' in
  line
    (rows <> [] && List.for_all located rows)
    "attribution rows: %d, every one located" (List.length rows);
  let total = int [ "total_cycles" ] a and row_sum = sum (int [ "cycles" ]) rows in
  line (total = row_sum) "attribution total_cycles = row sum: %d = %d" total
    row_sum

let cache c =
  let hits = int [ "hits" ] c and misses = int [ "misses" ] c in
  let transactions = int [ "global_transactions" ] c in
  let rows = list [ "rows" ] c in
  let row_hits = sum (int [ "hits" ]) rows in
  let row_misses = sum (int [ "misses" ]) rows in
  line (hits + misses = transactions)
    "cache hits + misses = global_transactions: %d + %d = %d" hits misses
    transactions;
  line
    (rows <> [] && row_hits = hits && row_misses = misses)
    "cache rows: %d, hits sum %d, misses sum %d" (List.length rows) row_hits
    row_misses;
  let rd = Option.get (member [ "reuse_distance" ] c) in
  let warm = int [ "warm" ] rd and cold = int [ "cold" ] rd in
  line (warm + cold = transactions)
    "reuse warm + cold = global_transactions: %d + %d = %d" warm cold
    transactions;
  ignore (ordered "reuse distance" rd)

let check doc =
  line true "sections: %s" (words (keys doc));
  List.iter
    (fun (k, v) ->
      match k with
      | "version" -> line true "version: %d" (int [] v)
      | "stats" -> line (List.mem "merged" (keys v)) "stats: %s" (words (keys v))
      | "remarks" ->
        line (Json.as_list v <> None) "remarks: %d" (List.length (list [] v))
      | "metrics" -> metrics v
      | "trace" -> trace v
      | "attribution" -> attribution v
      | "cache" -> cache v
      | _ -> ())
    (Option.value ~default:[] (Json.as_obj doc))

let () =
  let doc file =
    Json.parse (In_channel.with_open_text file In_channel.input_all)
  in
  match Sys.argv with
  | [| _; file |] ->
    check (doc file);
    if !failed then exit 1
  | [| _; file; section |] -> (
    match member [ section ] (doc file) with
    | Some j -> print_endline (Json.to_string j)
    | None ->
      Printf.eprintf "%s has no section %s\n" file section;
      exit 1)
  | _ ->
    prerr_endline "usage: report-check FILE [SECTION]";
    exit 2
