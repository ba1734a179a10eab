(* Pass management: named passes over a module op, pipelines, statistics,
   and optional inter-pass verification — a small mirror of MLIR's
   PassManager. *)

module Stats = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let bump ?(by = 1) (t : t) key =
    Hashtbl.replace t key (by + Option.value ~default:0 (Hashtbl.find_opt t key))

  let get (t : t) key = Option.value ~default:0 (Hashtbl.find_opt t key)

  (* Deterministic by construction: order by key with an explicit string
     comparison (never polymorphic compare over the pairs). *)
  let to_list (t : t) =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let pp fmt (t : t) =
    List.iter
      (fun (k, v) -> Format.fprintf fmt "  %-40s %d@." k v)
      (to_list t)
end

type t = {
  pass_name : string;
  run : Core.op -> Stats.t -> unit;
}

let make pass_name run = { pass_name; run }

(** A pass that runs [run_on_func] over every func.func in the module. *)
let on_functions pass_name run_on_func =
  make pass_name (fun m stats ->
      List.iter (fun f -> run_on_func f stats) (Core.funcs m))

exception
  Pass_failed of {
    pass : string;
    diagnostics : Verifier.diag list;
  }

exception Invalid_input of Verifier.diag list

type timing = {
  t_pass : string;
  t_start : float;
  t_seconds : float;
}

type pipeline_result = {
  per_pass_stats : (string * Stats.t) list;
  per_pass_time : timing list;
  wall : float;
}

(** Run [passes] over module [m]. When [verify_each] is set (default), the
    verifier runs on the input and after every pass; a failure is
    attributed to the input or to the pass that just ran.
    [instrumentations] fire around every pass execution (location
    coverage, dumps — see {!Instrument}). The clock is read at entry,
    around every pass and at exit, so the result times each execution
    and the whole run. *)
let run_pipeline ?(verify_each = true) ?(instrumentations = []) passes m =
  let started = Unix.gettimeofday () in
  (if verify_each then
     match Verifier.verify m with
     | Ok () -> ()
     | Error diagnostics -> raise (Invalid_input diagnostics));
  let per_pass_stats = ref [] in
  let per_pass_time = ref [] in
  List.iter
    (fun pass ->
      let stats = Stats.create () in
      Instrument.run_before instrumentations ~pass_name:pass.pass_name m;
      let t0 = Unix.gettimeofday () in
      pass.run m stats;
      let dt = Unix.gettimeofday () -. t0 in
      Instrument.run_after instrumentations ~pass_name:pass.pass_name m;
      per_pass_stats := (pass.pass_name, stats) :: !per_pass_stats;
      per_pass_time :=
        { t_pass = pass.pass_name; t_start = t0 -. started; t_seconds = dt }
        :: !per_pass_time;
      if verify_each then
        match Verifier.verify m with
        | Ok () -> ()
        | Error diagnostics ->
          raise (Pass_failed { pass = pass.pass_name; diagnostics }))
    passes;
  {
    per_pass_stats = List.rev !per_pass_stats;
    per_pass_time = List.rev !per_pass_time;
    wall = Unix.gettimeofday () -. started;
  }

(** Merge the stats of every pass occurrence into one table keyed by
    "pass/stat". *)
let merged_stats (r : pipeline_result) =
  let out = Stats.create () in
  List.iter
    (fun (pass, stats) ->
      List.iter
        (fun (k, v) -> Stats.bump ~by:v out (pass ^ "/" ^ k))
        (Stats.to_list stats))
    r.per_pass_stats;
  out

(** Per distinct pass name, in first-execution order: its number of
    executions and their summed seconds (repeated runs of a pass merge
    into one line, like mlir's TimingManager). *)
let timing_lines (r : pipeline_result) =
  List.fold_left
    (fun lines t ->
      if List.exists (fun (name, _, _) -> String.equal name t.t_pass) lines then
        List.map
          (fun ((name, n, s) as line) ->
            if String.equal name t.t_pass then (name, n + 1, s +. t.t_seconds)
            else line)
          lines
      else lines @ [ (t.t_pass, 1, t.t_seconds) ])
    [] r.per_pass_time

(** The [-mlir-timing]-style report: total header, one line per
    {!timing_lines} entry with its share of [wall], then Rest (time
    outside passes) and Total. *)
let pp_timing fmt (r : pipeline_result) =
  let total = Float.max r.wall 1e-9 in
  let line name count seconds =
    Format.fprintf fmt "  %9.4f (%5.1f%%)  %s%s@." seconds
      (100.0 *. seconds /. total)
      name
      (if count > 1 then Printf.sprintf " (%d)" count else "")
  in
  Format.fprintf fmt
    "===%s===@.  ... Pass execution timing report ...@.===%s===@."
    (String.make 60 '-') (String.make 60 '-');
  Format.fprintf fmt "  Total Execution Time: %.4f seconds@.@." r.wall;
  Format.fprintf fmt "  ----Wall Time----  ----Name----@.";
  let lines = timing_lines r in
  List.iter (fun (name, count, seconds) -> line name count seconds) lines;
  let accounted = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 lines in
  if r.wall -. accounted > 1e-6 then line "Rest" 1 (r.wall -. accounted);
  line "Total" 1 r.wall
