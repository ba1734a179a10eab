(* Optimization remarks in the style of LLVM's -Rpass / -Rpass-missed /
   -Rpass-analysis: passes emit structured records saying what they did
   (Passed), what they wanted to do but could not, and why (Missed), and
   what they learned (Analysis). Emission goes through a domain-local
   sink stack, mirroring LLVM's remark streamer: when no sink is
   installed, [emit] is a near-no-op, so instrumented passes cost
   nothing in normal compilation. *)

type kind =
  | Passed
  | Missed
  | Analysis

let kind_to_string = function
  | Passed -> "passed"
  | Missed -> "missed"
  | Analysis -> "analysis"

type t = {
  r_pass : string;  (** emitting pass, e.g. ["licm"] *)
  r_name : string;  (** remark identifier, e.g. ["hoisted-mem"] *)
  r_kind : kind;
  r_func : string;  (** enclosing function / kernel ("?" when unknown) *)
  r_op : string;  (** op name the remark anchors to ("" when none) *)
  r_message : string;  (** human-readable reason *)
  r_loc : Loc.t;  (** source location of the anchor op ([Unknown] when none) *)
}

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)
(* ------------------------------------------------------------------ *)

(* The sink is a domain-local *stack*: [install] pushes, [uninstall]
   pops its own sink — restoring the outer one. (The previous
   implementation was a single global ref whose [uninstall] set [None]
   unconditionally, so any nested pipeline silently stole and then
   dropped the outer sink; and a ref shared across domains would let
   parallel pipelines do the same to each other.) [emit] broadcasts to
   every stacked sink, innermost first, so outer collectors keep seeing
   remarks from nested scopes. Domain.DLS keys give each worker domain
   an independent stack. *)
let sinks_key : (t -> unit) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let enabled () = Domain.DLS.get sinks_key <> []

let install f = Domain.DLS.set sinks_key (f :: Domain.DLS.get sinks_key)

let uninstall () =
  match Domain.DLS.get sinks_key with
  | [] -> ()
  | _ :: rest -> Domain.DLS.set sinks_key rest

(** Run [body] with [f] installed as the innermost sink; always pops it
    on the way out, exceptions included. *)
let with_sink f body =
  install f;
  Fun.protect ~finally:uninstall body

(** Run [body] with [f] as the {e only} sink visible in this domain,
    restoring the previous stack afterwards (exceptions included).
    Unlike {!with_sink}, outer sinks do NOT receive the remarks emitted
    inside [body] — this is how the compile service captures a request's
    remarks exactly once, then re-delivers them to the caller in
    canonical order (a request compiled on the calling domain must not
    stream into the caller's sinks twice, and one compiled on a fresh
    worker domain — whose DLS stack starts empty — must not drop them). *)
let isolated f body =
  let saved = Domain.DLS.get sinks_key in
  Domain.DLS.set sinks_key [ f ];
  Fun.protect ~finally:(fun () -> Domain.DLS.set sinks_key saved) body

(** Deliver an already-built remark record to the sinks installed in the
    current domain (innermost first). No-op when no sink is installed.
    Used to replay collected or cached remarks on the caller's domain. *)
let broadcast (r : t) = List.iter (fun s -> s r) (Domain.DLS.get sinks_key)

let emit ~pass ~name kind ?op ?func ?loc message =
  match Domain.DLS.get sinks_key with
  | [] -> ()
  | sinks ->
    let func =
      match (func, op) with
      | Some f, _ -> f
      | None, Some o -> (
        match Core.enclosing_func o with
        | Some f -> Core.func_sym f
        | None -> "?")
      | None, None -> "?"
    in
    let loc =
      match (loc, op) with
      | Some l, _ -> l
      | None, Some o -> o.Core.loc
      | None, None -> Loc.Unknown
    in
    let r =
      {
        r_pass = pass;
        r_name = name;
        r_kind = kind;
        r_func = func;
        r_op = (match op with Some o -> o.Core.name | None -> "");
        r_message = message;
        r_loc = loc;
      }
    in
    List.iter (fun s -> s r) sinks

(** Run [f] with a collecting sink installed; returns [f ()]'s result and
    the remarks emitted during it, in emission order. Outer sinks (if
    any) still receive every remark — {!emit} broadcasts down the whole
    stack — so collectors nest. *)
let collect f =
  let acc = ref [] in
  let result = with_sink (fun r -> acc := r :: !acc) f in
  (result, List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Text output (-Rpass style)                                          *)
(* ------------------------------------------------------------------ *)

let flag_of_kind = function
  | Passed -> "-Rpass"
  | Missed -> "-Rpass-missed"
  | Analysis -> "-Rpass-analysis"

let to_string (r : t) =
  Printf.sprintf "%s%s: %s%s: %s [%s=%s:%s]"
    (Loc.diag_prefix r.r_loc)
    (match r.r_kind with
    | Passed -> "remark"
    | Missed -> "remark (missed)"
    | Analysis -> "remark (analysis)")
    r.r_func
    (if r.r_op = "" then "" else Printf.sprintf " (%s)" r.r_op)
    r.r_message
    (flag_of_kind r.r_kind)
    r.r_pass r.r_name

(* ------------------------------------------------------------------ *)
(* JSON (via the shared Json module)                                  *)
(* ------------------------------------------------------------------ *)

let to_json_value (r : t) : Json.t =
  Json.Obj
    ([
       ("pass", Json.String r.r_pass);
       ("name", Json.String r.r_name);
       ("kind", Json.String (kind_to_string r.r_kind));
       ("function", Json.String r.r_func);
       ("op", Json.String r.r_op);
       ("message", Json.String r.r_message);
       (* Textual form ... *)
       ("loc", Json.String (Loc.to_string r.r_loc));
     ]
    (* ... plus the resolved position, pre-digested for consumers. *)
    @
    match Loc.resolve r.r_loc with
    | Some (file, line, col) ->
      [
        ("file", Json.String file);
        ("line", Json.Int line);
        ("col", Json.Int col);
      ]
    | None -> [])
