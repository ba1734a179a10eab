(* Span-based tracing: the one trace model and Chrome-trace writer.

   Spans from the three layers of the stack land in one timeline with a
   distinct lane (Chrome-trace process) per layer:

     pid 1  compile       parse + pass pipeline (Pass.pipeline_result)
     pid 2  host runtime  queue submits, DAG waits, transfers, JIT, launches
     pid 3  device        kernel execution (work-groups over CUs)

   so a single chrome://tracing load shows parse -> passes -> queue ops
   -> kernel cycles end to end. Time unit is microseconds; compile-side
   spans record real wall time, simulator-side spans use the PR 3
   convention of one simulated cycle = one microsecond, placed after the
   compile spans on the shared timeline. *)

type lane =
  | Compile
  | Host
  | Device

let pid_of_lane = function Compile -> 1 | Host -> 2 | Device -> 3

let lane_name = function
  | Compile -> "compile"
  | Host -> "host runtime"
  | Device -> "device"

type span = {
  sp_name : string;
  sp_cat : string;
  sp_lane : lane;
  sp_ts : int;  (** microseconds *)
  sp_dur : int;  (** microseconds *)
  sp_args : (string * int) list;
}

(** A Chrome counter sample ([ph:"C"]): named series values at one
    instant, rendered by the trace viewer as a stacked area chart. Used
    for the hotspot profile — per-source-line attributed cycles plotted
    on the device lane. *)
type counter = {
  ct_name : string;
  ct_lane : lane;
  ct_ts : int;  (** microseconds *)
  ct_series : (string * int) list;  (** series name -> sampled value *)
}

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type sink = {
  sk_mutex : Mutex.t;
  mutable sk_rev : span list;  (** newest first *)
  mutable sk_counters_rev : counter list;  (** newest first *)
}

let make_sink () =
  { sk_mutex = Mutex.create (); sk_rev = []; sk_counters_rev = [] }

let add (sk : sink) (sp : span) =
  Mutex.protect sk.sk_mutex (fun () -> sk.sk_rev <- sp :: sk.sk_rev)

let add_all (sk : sink) (sps : span list) =
  Mutex.protect sk.sk_mutex (fun () ->
      List.iter (fun sp -> sk.sk_rev <- sp :: sk.sk_rev) sps)

let add_counter (sk : sink) (ct : counter) =
  Mutex.protect sk.sk_mutex (fun () ->
      sk.sk_counters_rev <- ct :: sk.sk_counters_rev)

(** Counters in chronological order (ties by lane then name). *)
let counters (sk : sink) =
  let cts = Mutex.protect sk.sk_mutex (fun () -> List.rev sk.sk_counters_rev) in
  List.stable_sort
    (fun a b ->
      match compare a.ct_ts b.ct_ts with
      | 0 -> compare (pid_of_lane a.ct_lane, a.ct_name) (pid_of_lane b.ct_lane, b.ct_name)
      | c -> c)
    cts

(** Spans in chronological order (ties broken by lane then name, so the
    export is deterministic). *)
let spans (sk : sink) =
  let sps = Mutex.protect sk.sk_mutex (fun () -> List.rev sk.sk_rev) in
  List.stable_sort
    (fun a b ->
      match compare a.sp_ts b.sp_ts with
      | 0 -> compare (pid_of_lane a.sp_lane, a.sp_name) (pid_of_lane b.sp_lane, b.sp_name)
      | c -> c)
    sps

(** End of the recorded timeline: max of ts+dur over all spans (0 when
    empty). Runtime spans are placed at this offset so the merged trace
    reads compile-then-execute. *)
let span_end (sk : sink) =
  Mutex.protect sk.sk_mutex (fun () ->
      List.fold_left (fun acc sp -> max acc (sp.sp_ts + sp.sp_dur)) 0 sk.sk_rev)

(* ------------------------------------------------------------------ *)
(* Compile-side spans from the pass manager's record                   *)
(* ------------------------------------------------------------------ *)

let us_of_wall w = int_of_float (Float.round (w *. 1e6))

(** Record a pipeline run into [sk] at the current end of its timeline:
    a root span covering the run's wall time, and inside it one span per
    distinct pass ({!Mlir.Pass.timing_lines}), laid end to end in
    first-execution order, with a [count] argument when the pass ran
    more than once. Pass spans are rounded from their running total, so
    they never end past the root; spans that round to 0 us are left
    out. *)
let add_timing ?(root_name = "compile") (sk : sink)
    (r : Mlir.Pass.pipeline_result) =
  let base = span_end sk in
  let span name ~from ~until args =
    let dur = us_of_wall until - us_of_wall from in
    if dur > 0 then
      [ { sp_name = name; sp_cat = "pass"; sp_lane = Compile;
          sp_ts = base + us_of_wall from; sp_dur = dur; sp_args = args } ]
    else []
  in
  let _, passes =
    List.fold_left_map
      (fun from (name, count, seconds) ->
        ( from +. seconds,
          span name ~from ~until:(from +. seconds)
            (if count > 1 then [ ("count", count) ] else []) ))
      0.0 (Mlir.Pass.timing_lines r)
  in
  add_all sk
    (span root_name ~from:0.0 ~until:r.Mlir.Pass.wall [] @ List.concat passes)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

(* Within the host-runtime lane, transfers get their own thread row;
   every other lane is single-row. *)
let tid_of_span (sp : span) =
  match (sp.sp_lane, sp.sp_cat) with Host, "transfer" -> 2 | _ -> 1

(** The merged trace as a Chrome-trace JSON document: process metadata
    naming the three lanes, thread metadata for the transfer row, one
    complete event ([ph:"X"]) per span and one counter event ([ph:"C"])
    per sample. *)
let to_json ?(counters = []) (sps : span list) : Mlir.Json.t =
  let open Mlir.Json in
  let process_meta lane =
    Obj
      [
        ("name", String "process_name");
        ("ph", String "M");
        ("pid", Int (pid_of_lane lane));
        ("args", Obj [ ("name", String (lane_name lane)) ]);
      ]
  in
  let thread_meta ~pid ~tid name =
    Obj
      [
        ("name", String "thread_name");
        ("ph", String "M");
        ("pid", Int pid);
        ("tid", Int tid);
        ("args", Obj [ ("name", String name) ]);
      ]
  in
  let ev (sp : span) =
    Obj
      [
        ("name", String sp.sp_name);
        ("cat", String sp.sp_cat);
        ("ph", String "X");
        ("ts", Int sp.sp_ts);
        ("dur", Int sp.sp_dur);
        ("pid", Int (pid_of_lane sp.sp_lane));
        ("tid", Int (tid_of_span sp));
        ("args", Obj (List.map (fun (k, v) -> (k, Int v)) sp.sp_args));
      ]
  in
  let ctr (ct : counter) =
    Obj
      [
        ("name", String ct.ct_name);
        ("ph", String "C");
        ("ts", Int ct.ct_ts);
        ("pid", Int (pid_of_lane ct.ct_lane));
        ("tid", Int 1);
        ("args", Obj (List.map (fun (k, v) -> (k, Int v)) ct.ct_series));
      ]
  in
  let meta =
    List.map process_meta [ Compile; Host; Device ]
    @ [
        thread_meta ~pid:(pid_of_lane Host) ~tid:1 "runtime";
        thread_meta ~pid:(pid_of_lane Host) ~tid:2 "transfers";
      ]
  in
  Obj
    [
      ("traceEvents", List (meta @ List.map ev sps @ List.map ctr counters));
      ("displayTimeUnit", String "ms");
    ]

let export (sk : sink) : Mlir.Json.t =
  to_json ~counters:(counters sk) (spans sk)
