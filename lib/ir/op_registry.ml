(* Per-op-name semantic information, mirroring MLIR's op interfaces and
   traits. Dialects register an {!op_info} record for each operation they
   define; analyses and transformations query it generically, which is what
   lets e.g. the reaching-definition analysis reason about SYCL dialect
   operations without depending on the SYCL dialect (Section V-B of the
   paper). *)

type effect_kind =
  | Read
  | Write
  | Alloc
  | Free

type effect_target =
  | On_operand of int
  | On_result of int
  | Anywhere  (** An effect on unknown memory. *)

type effect = effect_kind * effect_target

(** Result of the folding hook: every result is either a constant attribute
    or an existing value. *)
type fold_result =
  | Fold_attrs of Attr.t list
  | Fold_values of Core.value list

(** How an op's regions execute, used by the data-flow framework to drive
    fixpoints without dialect-specific knowledge. *)
type control =
  | Leaf  (** No regions (or regions are not code, e.g. a module symbol table). *)
  | Seq  (** Each region executes once, in order (func bodies, modules). *)
  | Branch  (** Exactly one region executes (scf.if). *)
  | Loop  (** The (first) region executes zero or more times (scf.for / affine.for). *)

type op_info = {
  (* [None] means the op's memory behaviour is unknown; [Some []] means the
     op is known to be free of memory effects. *)
  memory_effects : Core.op -> effect list option;
  control : control;
  (* Trait: the op is a known source of non-uniform values (e.g. the SYCL
     global-id getters, Section V-C). *)
  non_uniform_source : bool;
  (* The op may be speculatively executed / hoisted if its operands allow. *)
  speculatable : bool;
  (* The op is a region terminator (scf.yield, func.return, ...). *)
  terminator : bool;
  (* Constant folding hook, given constant-or-not operand attributes. *)
  fold : Core.op -> Attr.t option array -> fold_result option;
  (* Op-specific structural verification. *)
  verify : Core.op -> (unit, string) result;
}

let default_info =
  {
    memory_effects = (fun _ -> None);
    control = Leaf;
    non_uniform_source = false;
    speculatable = false;
    terminator = false;
    fold = (fun _ _ -> None);
    verify = (fun _ -> Ok ());
  }

(** Convenience: a pure (no memory effects, speculatable) op_info. *)
let pure_info = { default_info with memory_effects = (fun _ -> Some []); speculatable = true }

(* One table, indexed by the atom of the op name ([Core.op.name_id]).
   Dialect modules register when they are linked (their top-level
   [let () = ...] runs before [main]); reads happen everywhere, including
   concurrently on compile-service worker domains. [register] publishes a
   grown copy under the mutex — the copy-on-grow scheme of [Atom.intern]
   — so a reader on any domain sees the old table or the new one, never a
   torn one. A later registration of a name replaces its info. *)
let table : op_info option array Atomic.t = Atomic.make [||]
let table_mutex = Mutex.create ()

let register name info =
  let id = Atom.intern name in
  Mutex.protect table_mutex (fun () ->
      let old = Atomic.get table in
      let n = Array.length old in
      Atomic.set table
        (Array.init (max n (id + 1)) (fun i ->
             if i = id then Some info else if i < n then old.(i) else None)))

let of_atom id =
  let t = Atomic.get table in
  if id < Array.length t then Array.unsafe_get t id else None

let registered (op : Core.op) = of_atom op.Core.name_id
let lookup name = of_atom (Atom.intern name)

let info op =
  match registered op with Some i -> i | None -> default_info

(* Queries used throughout the analyses. *)

let memory_effects op = (info op).memory_effects op

(** The op and everything nested in it is free of memory effects. *)
let rec is_pure op =
  (match memory_effects op with Some [] -> true | _ -> false)
  && Array.for_all
       (fun r ->
         List.for_all
           (fun b -> List.for_all is_pure b.Core.body)
           r.Core.blocks)
       op.Core.regions

let is_speculatable op = (info op).speculatable
let is_terminator op = (info op).terminator

let effects_on_value op v =
  match memory_effects op with
  | None -> None
  | Some effects ->
    Some
      (List.filter_map
         (fun (kind, target) ->
           match target with
           | On_operand i when Core.value_equal (Core.operand op i) v -> Some kind
           | On_result i when Core.value_equal (Core.result op i) v -> Some kind
           | On_operand _ | On_result _ -> None
           | Anywhere -> Some kind)
         effects)

(** Does the op (shallowly) write/alloc/free any memory? [None] = unknown. *)
let writes_memory op =
  match memory_effects op with
  | None -> None
  | Some effs ->
    Some (List.exists (fun (k, _) -> k = Write || k = Alloc || k = Free) effs)

let reads_memory op =
  match memory_effects op with
  | None -> None
  | Some effs -> Some (List.exists (fun (k, _) -> k = Read) effs)
