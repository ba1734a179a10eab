(* Wall-clock benchmark of the compiler, runtime, simulator and compile
   service, timed from outside through their public functions.

   One workload (prints metric lines, then one JSON object as the last
   line):
     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--trace-json FILE]
   All workloads, each in its own child process:
     perf.exe run [--seed N] [--seconds S] [--out FILE] [--trace FILE]
   Two run files against BENCHMARK.json's bounds, and for runs with the
   same seed against each other's exact counts (exit 1 on a regression):
     perf.exe compare A.json B.json

   Run from the repository root: suite-subset reads BENCH_seed.json, and
   [run] and [compare] read BENCHMARK.json. *)

open Perf_harness

let usage () =
  prerr_endline
    "usage: perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-json FILE]\n\
    \       perf.exe run [--seed N] [--seconds S] [--out FILE] [--trace FILE]\n\
    \       perf.exe compare A.json B.json";
  exit 2

(* "--key value" pairs; anything else is a usage error. *)
let parse_flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let flag flags k = List.assoc_opt k flags

let int_flag flags k ~default =
  match flag flags k with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let spec_path = "BENCHMARK.json"

let one_workload flags =
  let name = Option.value ~default:"" (flag flags "workload") in
  let w =
    match Workloads.find name with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  in
  let traced =
    match flag flags "trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  let r =
    Harness.run_workload w ?trace_json:(flag flags "trace-json")
      ~seed:(int_flag flags "seed" ~default:1)
      ~seconds:(float_of_int (int_flag flags "seconds" ~default:10))
      ~traced
  in
  Harness.print_lines r;
  print_endline (Mlir.Json.to_string ~compact:true (Harness.result_json r))

(* Run [exe --workload w ...] and return its result (its last stdout
   line), echoing the lines before it. *)
let child ~seed ~seconds ~trace_json w =
  let args =
    [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
      "--seconds"; string_of_int seconds; "--trace";
      (if trace_json = None then "0" else "1") ]
    @ match trace_json with Some f -> [ "--trace-json"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> l <> "") lines in
  List.iteri (fun i l -> if i < List.length lines - 1 then print_endline l) lines;
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ ->
    Harness.result_of_json ~workload:w (Mlir.Json.parse last)
  | _ ->
    Printf.eprintf "workload %s: child process failed\n" w;
    exit 1

let run_all flags =
  let spec = Harness.read_spec spec_path in
  let seed = int_flag flags "seed" ~default:1 in
  let seconds = int_flag flags "seconds" ~default:spec.Harness.run_seconds in
  let trace = flag flags "trace" in
  let results =
    List.map
      (fun w ->
        let trace_json =
          Option.map
            (fun f -> Filename.remove_extension f ^ "." ^ w ^ ".json")
            trace
        in
        child ~seed ~seconds ~trace_json w)
      spec.Harness.workload_names
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Mlir.Json.to_string
               (Harness.run_json ~seed ~seconds ~traced:(trace <> None) results));
          output_char oc '\n'))
    (flag flags "out");
  if List.exists (fun (r : Harness.result) -> not r.Harness.correct) results then
    exit 1

let compare a b =
  let load p = Harness.results_of_run_json (Harness.read_json p) in
  if Harness.compare_runs (Harness.read_spec spec_path) (load a) (load b) then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_all (parse_flags rest)
  | [ "compare"; a; b ] -> compare a b
  | args -> one_workload (parse_flags args)
