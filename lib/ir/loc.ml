(* MLIR-style source locations (UnknownLoc, FileLineColLoc, NameLoc,
   CallSiteLoc, FusedLoc). Every op carries one; the parser records textual
   positions, transforms propagate them deliberately, and the diagnostics
   engine (remarks, verifier, simulator) renders them back to the user.

   Printing uses MLIR's textual syntax for the *inner* form (the printer
   wraps it in [loc(...)]):
     unknown
     "file":line:col
     "name"            and  "name"("file":1:2)
     callsite(callee at caller)
     fused[loc1, loc2] *)

type t =
  | Unknown
  | File of { file : string; line : int; col : int }
  | Name of string * t
  | CallSite of { callee : t; caller : t }
  | Fused of t list

let unknown = Unknown
let file ~file ~line ~col = File { file; line; col }

let rec equal a b =
  match (a, b) with
  | Unknown, Unknown -> true
  | File a, File b -> a.file = b.file && a.line = b.line && a.col = b.col
  | Name (na, ca), Name (nb, cb) -> na = nb && equal ca cb
  | CallSite a, CallSite b -> equal a.callee b.callee && equal a.caller b.caller
  | Fused a, Fused b ->
    List.length a = List.length b && List.for_all2 equal a b
  | _ -> false

let is_known = function Unknown -> false | _ -> true

(* Smart constructors used by transforms (and irgen): they canonicalize so
   that locations built programmatically survive the print -> parse -> print
   fixpoint oracle and never accumulate useless structure. The parser itself
   builds raw constructors — it reproduces exactly what the text says. *)

let name ?(child = Unknown) n = Name (n, child)

let callsite ~callee ~caller =
  match (callee, caller) with
  | Unknown, Unknown -> Unknown
  | Unknown, l | l, Unknown -> l
  | _ -> CallSite { callee; caller }

(** Flatten nested [Fused], drop [Unknown]s, deduplicate (keeping first
    occurrence); [] collapses to [Unknown] and a singleton to the location
    itself. *)
let fused locs =
  let rec flatten l acc =
    match l with
    | Unknown -> acc
    | Fused ls -> List.fold_left (fun acc l -> flatten l acc) acc ls
    | l -> if List.exists (equal l) acc then acc else l :: acc
  in
  match List.rev (List.fold_left (fun acc l -> flatten l acc) [] locs) with
  | [] -> Unknown
  | [ l ] -> l
  | ls -> Fused ls

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec write buf = function
  | Unknown -> Buffer.add_string buf "unknown"
  | File { file; line; col } ->
    (* write_string wraps its argument in quotes *)
    Attr.write_string buf file;
    Buffer.add_char buf ':';
    Text.add_int buf line;
    Buffer.add_char buf ':';
    Text.add_int buf col
  | Name (n, Unknown) -> Attr.write_string buf n
  | Name (n, child) ->
    Attr.write_string buf n;
    Buffer.add_char buf '(';
    write buf child;
    Buffer.add_char buf ')'
  | CallSite { callee; caller } ->
    Buffer.add_string buf "callsite(";
    write buf callee;
    Buffer.add_string buf " at ";
    write buf caller;
    Buffer.add_char buf ')'
  | Fused ls -> Buffer.add_string buf "fused["; Text.add_list buf write ls; Buffer.add_char buf ']'

let to_string l =
  let buf = Buffer.create 32 in
  write buf l;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Diagnostics helpers                                                 *)
(* ------------------------------------------------------------------ *)

(** Best-effort resolution to a concrete [(file, line, col)]: the first
    file position found walking Name children, CallSite callee-then-caller,
    and Fused components in order. *)
let rec resolve = function
  | Unknown -> None
  | File { file; line; col } -> Some (file, line, col)
  | Name (_, child) -> resolve child
  | CallSite { callee; caller } -> (
    match resolve callee with Some _ as r -> r | None -> resolve caller)
  | Fused ls -> List.find_map resolve ls

(** [Some "file:line:col"] when a concrete position is resolvable. *)
let render l =
  match resolve l with
  | Some (f, ln, c) -> Some (Printf.sprintf "%s:%d:%d" f ln c)
  | None -> None

(** Compiler-style diagnostic prefix: ["file:line:col: "], or [""] when the
    location carries no concrete position. *)
let diag_prefix l =
  match render l with Some s -> s ^ ": " | None -> ""

(** Human-readable location chain for error reports: expands call sites as
    "inlined from" steps and names fusion components. *)
let rec describe = function
  | Unknown -> "<unknown location>"
  | File { file; line; col } -> Printf.sprintf "%s:%d:%d" file line col
  | Name (n, Unknown) -> Printf.sprintf "\"%s\"" n
  | Name (n, child) -> Printf.sprintf "\"%s\" at %s" n (describe child)
  | CallSite { callee; caller } ->
    Printf.sprintf "%s (inlined from %s)" (describe callee) (describe caller)
  | Fused ls ->
    Printf.sprintf "fused<%s>" (String.concat "; " (List.map describe ls))
