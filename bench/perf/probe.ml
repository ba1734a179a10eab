(* In-memory spans and counters for the traced run.

   Probes sit in the benchmark's own code, around each call it makes into
   a library. They are off unless [enable] was called: then [span] just
   calls its function and [count] does not evaluate its argument, so the
   untraced run pays one branch per layer call. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; -1 for a root span *)
  op : int;  (** index of the workload op the span belongs to *)
  name : string;  (** ["<layer>.<what>"] *)
  start : float;  (** seconds *)
  mutable stop : float;
}

let on = ref false
let current_op = ref 0
let next_id = ref 0
let recorded : span list ref = ref []  (* newest first *)
let open_spans : span list ref = ref []  (* innermost first *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let series : (string, float list) Hashtbl.t = Hashtbl.create 8

let reset () =
  next_id := 0;
  recorded := [];
  open_spans := [];
  Hashtbl.reset counters;
  Hashtbl.reset series

let enable () = on := true
let disable () = on := false
let enabled () = !on
let set_op i = current_op := i

let start name =
  let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = !next_id; parent; op = !current_op; name;
      start = Unix.gettimeofday (); stop = Float.nan }
  in
  incr next_id;
  recorded := s :: !recorded;
  open_spans := s :: !open_spans;
  s

(* Close [s] and anything still open inside it (a callee that raised
   between a before/after hook pair). *)
let finish s =
  let t = Unix.gettimeofday () in
  let rec pop = function
    | x :: rest ->
      if Float.is_nan x.stop then x.stop <- t;
      if x == s then rest else pop rest
    | [] -> []
  in
  if List.memq s !open_spans then open_spans := pop !open_spans

let span name f =
  if not !on then f ()
  else begin
    let s = start name in
    match f () with
    | v ->
      finish s;
      v
    | exception e ->
      finish s;
      raise e
  end

(** Add [f ()] to counter [name]; [f] runs only when tracing. *)
let count name f =
  if !on then
    Hashtbl.replace counters name
      (float_of_int (f ()) +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

(** Append [v] to the sample series [name] (tracing only). *)
let sample name v =
  if !on then
    Hashtbl.replace series name
      (v :: Option.value ~default:[] (Hashtbl.find_opt series name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)
let samples name = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt series name))

(** One span per pass execution, named ["core.pass.<pass>"], through the
    pass manager's public instrumentation hooks; [] when not tracing. *)
let instrumentations () =
  if not !on then []
  else
    [ Mlir.Instrument.make
        ~before_pass:(fun ~pass_name _ -> ignore (start ("core.pass." ^ pass_name)))
        ~after_pass:(fun ~pass_name:_ _ ->
          match !open_spans with s :: _ -> finish s | [] -> ())
        "perf-spans" ]

(** Spans in start order. *)
let spans () = List.rev !recorded

(* ------------------------------------------------------------------ *)
(* Self time                                                           *)
(* ------------------------------------------------------------------ *)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (la, lb) -> total +. (lb -. la) | None -> total

(** Self time per span name: each span's duration minus the part of it
    its child spans cover, summed over the spans of that name. Returns
    [(name, self seconds, span count)] sorted by name. *)
let self_times (spans : span list) =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
           :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids in
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (t +. self, n + 1))
    spans;
  Hashtbl.fold (fun name (t, n) l -> (name, t, n) :: l) acc []
  |> List.sort compare

(** The spans as a Chrome trace: one Compile-lane event per span, in
    microseconds from the first span, carrying its op id, id and parent. *)
let chrome_json (spans : span list) : Mlir.Json.t =
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let us t = Sycl_obs.Trace.us_of_wall (t -. t0) in
  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  Sycl_obs.Trace.to_json
    (List.map
       (fun s ->
         { Sycl_obs.Trace.sp_name = s.name; sp_cat = layer s.name;
           sp_lane = Sycl_obs.Trace.Compile; sp_ts = us s.start;
           sp_dur = us s.stop - us s.start;
           sp_args = [ ("op", s.op); ("id", s.id); ("parent", s.parent) ] })
       spans)
