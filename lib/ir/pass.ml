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
  (* Running the pass again on its own output changes nothing. *)
  idempotent : bool;
}

let make ?(idempotent = false) pass_name run = { pass_name; run; idempotent }

(* The pass {!run_pipeline} is running on this domain, with the
   generation at which that pass's previous execution in the run ended.
   Domain-local: compile-service workers run pipelines concurrently. *)
let running_key : (string * int option) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let previous_end pass_name =
  match Domain.DLS.get running_key with
  | Some (name, g) when String.equal name pass_name -> g
  | _ -> None

(** A pass that runs [run_on_func] over every func.func in the module.
    From its second execution in a pipeline run, an idempotent one
    leaves alone each function none of whose ops was stamped since the
    previous execution ended: that execution left the function as a
    second one would. *)
let on_functions ?(idempotent = false) pass_name run_on_func =
  make ~idempotent pass_name (fun m stats ->
      let since = if idempotent then previous_end pass_name else None in
      List.iter
        (fun f ->
          match since with
          | Some g when not (Core.changed_since g f) -> ()
          | _ -> run_on_func f stats)
        (Core.funcs m))

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
  t_skipped : bool;
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
    coverage, dumps — see {!Instrument}), a skipped one included. The
    clock is read at entry, around every pass and at exit, so the result
    times each execution and the whole run.

    The run knows what changed: it keeps, per pass name, the generation
    ({!Core.generation}) at which that pass's previous execution ended.
    An idempotent pass is skipped when the generation has not moved
    since then (no op was stamped, so the module is exactly the output
    of its own previous execution); a pass that runs can read that
    generation with {!previous_end} to look only at what changed. *)
let run_pipeline ?(verify_each = true) ?(instrumentations = []) passes m =
  let started = Unix.gettimeofday () in
  (if verify_each then
     match Verifier.verify m with
     | Ok () -> ()
     | Error diagnostics -> raise (Invalid_input diagnostics));
  let ended : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let per_pass_stats = ref [] in
  let per_pass_time = ref [] in
  List.iter
    (fun pass ->
      let stats = Stats.create () in
      let previous = Hashtbl.find_opt ended pass.pass_name in
      let skipped = pass.idempotent && previous = Some (Core.generation ()) in
      Instrument.run_before instrumentations ~pass_name:pass.pass_name m;
      let t0 = Unix.gettimeofday () in
      if not skipped then begin
        let outer = Domain.DLS.get running_key in
        Domain.DLS.set running_key (Some (pass.pass_name, previous));
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set running_key outer)
          (fun () -> pass.run m stats)
      end;
      let dt = Unix.gettimeofday () -. t0 in
      Hashtbl.replace ended pass.pass_name (Core.generation ());
      Instrument.run_after instrumentations ~pass_name:pass.pass_name m;
      per_pass_stats := (pass.pass_name, stats) :: !per_pass_stats;
      per_pass_time :=
        { t_pass = pass.pass_name; t_start = t0 -. started; t_seconds = dt;
          t_skipped = skipped }
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
    {!timing_lines} entry with its share of [wall] — its execution count
    when above one, and how many of them were skipped — then Rest (time
    outside passes) and Total. *)
let pp_timing fmt (r : pipeline_result) =
  let total = Float.max r.wall 1e-9 in
  let line ?(skipped = 0) name count seconds =
    Format.fprintf fmt "  %9.4f (%5.1f%%)  %s%s@." seconds
      (100.0 *. seconds /. total)
      name
      (match (count, skipped) with
      | 1, 0 -> ""
      | n, 0 -> Printf.sprintf " (%d)" n
      | n, k -> Printf.sprintf " (%d, %d skipped)" n k)
  in
  let skipped name =
    List.length
      (List.filter
         (fun t -> t.t_skipped && String.equal t.t_pass name)
         r.per_pass_time)
  in
  Format.fprintf fmt
    "===%s===@.  ... Pass execution timing report ...@.===%s===@."
    (String.make 60 '-') (String.make 60 '-');
  Format.fprintf fmt "  Total Execution Time: %.4f seconds@.@." r.wall;
  Format.fprintf fmt "  ----Wall Time----  ----Name----@.";
  let lines = timing_lines r in
  List.iter
    (fun (name, count, seconds) ->
      line ~skipped:(skipped name) name count seconds)
    lines;
  let accounted = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 lines in
  if r.wall -. accounted > 1e-6 then line "Rest" 1 (r.wall -. accounted);
  line "Total" 1 r.wall
