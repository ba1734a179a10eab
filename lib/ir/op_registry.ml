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

(* Registration happens once, at init time, on a single domain; lookups
   happen everywhere, including concurrently from compile-service worker
   domains. A plain shared Hashtbl would let a late [register] resize the
   bucket array underneath a concurrent [lookup] (a torn table). The
   contract (documented in the .mli) is therefore:

   - before {!freeze}: registration and lookup are init-phase,
     single-domain operations (exactly today's dialect-init flow);
     registrations racing each other are still serialized by a mutex.
   - {!freeze} snapshots the table into an immutable copy. From then on
     every lookup reads the snapshot, which is never mutated again, so
     concurrent reads are safe without a lock.
   - [register] after {!freeze} is a no-op for an already-registered
     name (dialect [init] functions are idempotent re-registrations and
     may legitimately run again, e.g. in tests) and an error for a new
     name — new semantic information must not appear while worker
     domains are compiling. *)
let table : (string, op_info) Hashtbl.t = Hashtbl.create 128
let table_mutex = Mutex.create ()

(* The frozen snapshot carries both the name-keyed copy (for [lookup] by
   arbitrary strings) and an atom-id-indexed array: [info] on the hot
   path becomes a single array read off the op's interned [name_id],
   with no hashing of the name at all. Atoms interned after the freeze
   index past the array's end — correctly reading as unregistered. *)
let frozen :
    ((string, op_info) Hashtbl.t * op_info option array) option Atomic.t =
  Atomic.make None

let register name info =
  match Atomic.get frozen with
  | Some (snapshot, _) ->
    if not (Hashtbl.mem snapshot name) then
      invalid_arg
        (Printf.sprintf
           "Op_registry.register: registry is frozen; cannot register new op %S \
            (dialects must register before Op_registry.freeze)"
           name)
  | None -> Mutex.protect table_mutex (fun () -> Hashtbl.replace table name info)

let register_pure name = register name pure_info

(** Idempotent: the first call snapshots, later calls are no-ops. *)
let freeze () =
  Mutex.protect table_mutex (fun () ->
      if Atomic.get frozen = None then begin
        let snapshot = Hashtbl.copy table in
        let by_id =
          Hashtbl.fold (fun name info acc -> (Atom.intern name, info) :: acc)
            snapshot []
        in
        let size =
          1 + List.fold_left (fun m (id, _) -> max m id) (-1) by_id
        in
        let arr = Array.make size None in
        List.iter (fun (id, info) -> arr.(id) <- Some info) by_id;
        Atomic.set frozen (Some (snapshot, arr))
      end)

let is_frozen () = Atomic.get frozen <> None

let lookup name =
  match Atomic.get frozen with
  | Some (snapshot, _) -> Hashtbl.find_opt snapshot name
  | None -> Hashtbl.find_opt table name

let info op =
  match Atomic.get frozen with
  | Some (_, arr) ->
    let id = op.Core.name_id in
    if id < Array.length arr then
      match Array.unsafe_get arr id with
      | Some i -> i
      | None -> default_info
    else default_info
  | None -> (
    match Hashtbl.find_opt table op.Core.name with
    | Some i -> i
    | None -> default_info)

let is_registered name = lookup name <> None

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
