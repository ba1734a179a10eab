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

type pipeline_result = {
  per_pass_stats : (string * Stats.t) list;
  per_pass_time : (string * float) list;
}

(** Run [passes] over module [m]. When [verify_each] is set (default), the
    verifier runs on the input and after every pass; a failure is
    attributed to the input or to the pass that just ran.
    [instrumentations] fire around every pass execution (timing,
    IR-change detection, dumps — see {!Instrument}).
    [remarks_sink] scopes an optimization-remark sink to exactly this
    pipeline ({!Remarks.with_sink}), so nested or concurrent pipelines
    each keep their own stream. *)
let run_pipeline ?(verify_each = true) ?(instrumentations = []) ?remarks_sink
    passes m =
  let go () =
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
        per_pass_time := (pass.pass_name, dt) :: !per_pass_time;
        if verify_each then
          match Verifier.verify m with
          | Ok () -> ()
          | Error diagnostics ->
            raise (Pass_failed { pass = pass.pass_name; diagnostics }))
      passes;
    {
      per_pass_stats = List.rev !per_pass_stats;
      per_pass_time = List.rev !per_pass_time;
    }
  in
  match remarks_sink with
  | None -> go ()
  | Some sink -> Remarks.with_sink sink go

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
