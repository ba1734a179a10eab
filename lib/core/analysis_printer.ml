(* Analysis introspection: printer passes in the spirit of MLIR's
   -test-print-* passes. Each pass runs one of the Section V analyses
   (alias, uniformity, reaching definitions, memory access) and records
   the results directly in the IR as discardable `sycl.*` attributes —
   using only attribute constructs the parser round-trips — plus a
   human-readable report on the configured sink (stderr by default).
   The annotations let golden tests, and users debugging a transform
   decision, see exactly what the analyses proved. *)

open Mlir

(* ---------------------------------------------------------------- *)
(* Report sink                                                       *)

let sink : (string -> unit) ref = ref prerr_string
let set_sink f = sink := f
let reportf fmt = Printf.ksprintf (fun s -> !sink s) fmt

(* ---------------------------------------------------------------- *)
(* Annotation attribute names                                        *)

let alias_group_attr = "sycl.alias_group"
let arg_alias_groups_attr = "sycl.arg_alias_groups"
let uniform_attr = "sycl.uniform"
let arg_uniform_attr = "sycl.arg_uniform"
let divergent_attr = "sycl.divergent"
let def_id_attr = "sycl.def_id"
let reaching_mods_attr = "sycl.reaching_mods"
let reaching_pmods_attr = "sycl.reaching_pmods"
let access_matrix_attr = "sycl.access_matrix"
let access_offsets_attr = "sycl.access_offsets"
let coalescing_attr = "sycl.coalescing"
let temporal_reuse_attr = "sycl.temporal_reuse"

(* Hotspot attribution (written by Sycl_sim.Attribution.annotate_module):
   cycles and memory cycles the simulator attributed to the op, plus the
   cache-model hit/miss counts when a non-flat --cache-model ran. *)
let cycles_attr = "sycl.cycles"
let mem_cycles_attr = "sycl.mem_cycles"
let cache_hits_attr = "sycl.cache_hits"
let cache_misses_attr = "sycl.cache_misses"

(* Predicted constant-stride reuse distance (the "reuse" printer): the
   number of distinct cache lines a sub-group touches between two
   consecutive accesses of the same line, derived from the access
   matrix. *)
let reuse_dist_attr = "sycl.reuse_dist"

let annotation_attrs =
  [ alias_group_attr; arg_alias_groups_attr; uniform_attr; arg_uniform_attr;
    divergent_attr; def_id_attr; reaching_mods_attr; reaching_pmods_attr;
    access_matrix_attr; access_offsets_attr; coalescing_attr;
    temporal_reuse_attr; cycles_attr; mem_cycles_attr; cache_hits_attr;
    cache_misses_attr; reuse_dist_attr ]

(* ---------------------------------------------------------------- *)
(* Alias printer                                                     *)

let pointer_like (v : Core.value) =
  Types.is_memref v.Core.vty || Sycl_types.is_accessor v.Core.vty

let base_equal (a : Alias.base) (b : Alias.base) =
  match (a, b) with
  | Alias.Alloc x, Alias.Alloc y -> x == y
  | Alias.Global x, Alias.Global y -> x = y
  | Alias.Accessor_arg x, Alias.Accessor_arg y
  | Alias.Memref_arg x, Alias.Memref_arg y -> Core.value_equal x y
  | _ -> false

let arg_index (v : Core.value) =
  match v.Core.vdef with Core.Block_arg (_, i) -> Some i | _ -> None

let base_to_string = function
  | Alias.Alloc op -> "alloc " ^ Printer.summary op
  | Alias.Global g -> "global @" ^ g
  | Alias.Accessor_arg v ->
    Printf.sprintf "accessor arg %%arg%d"
      (Option.value ~default:(-1) (arg_index v))
  | Alias.Memref_arg v ->
    Printf.sprintf "memref arg %%arg%d"
      (Option.value ~default:(-1) (arg_index v))
  | Alias.Unknown_base -> "unknown"

let print_alias_on_func (f : Core.op) stats =
  if not (Dialects.Func.is_declaration f) then begin
    (* Assign group ids: one per distinct base object, in program order.
       Unknown bases are conservative — each gets its own group. *)
    let groups : (int * Alias.base) list ref = ref [] in
    let group_of (v : Core.value) =
      let b = Alias.base_of v in
      match
        List.find_opt
          (fun (_, b') ->
            b <> Alias.Unknown_base && b' <> Alias.Unknown_base
            && base_equal b b')
          !groups
      with
      | Some (g, _) -> g
      | None ->
        let g = List.length !groups in
        groups := !groups @ [ (g, b) ];
        Pass.Stats.bump stats "alias.groups";
        g
    in
    let args = Core.block_args (Core.func_body f) in
    let arg_groups =
      List.map
        (fun a ->
          if pointer_like a then begin
            Pass.Stats.bump stats "alias.pointer-values";
            group_of a
          end
          else -1)
        args
    in
    if List.exists (fun g -> g >= 0) arg_groups then
      Core.set_attr f arg_alias_groups_attr
        (Attr.Dense_int (Array.of_list arg_groups));
    Core.walk f ~f:(fun op ->
        if not (op == f) then
          List.iter
            (fun r ->
              if pointer_like r then begin
                Pass.Stats.bump stats "alias.pointer-values";
                Core.set_attr op alias_group_attr (Attr.Int (group_of r))
              end)
            (Core.results op));
    (* Report: the groups, then the pairwise relation of pointer args. *)
    reportf "=== alias: @%s ===\n" (Core.func_sym f);
    List.iter
      (fun (g, b) -> reportf "  group %d: %s\n" g (base_to_string b))
      !groups;
    let ptr_args = List.filter pointer_like args in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if j > i then
              reportf "  %%arg%d vs %%arg%d: %s-alias\n"
                (Option.value ~default:(-1) (arg_index a))
                (Option.value ~default:(-1) (arg_index b))
                (Alias.result_to_string (Alias.alias a b)))
          ptr_args)
      ptr_args;
    List.iter
      (fun (i, j) -> reportf "  host fact: args %d, %d are no-alias\n" i j)
      (Alias.noalias_pairs f);
    List.iter
      (fun (i, j) -> reportf "  host fact: args %d, %d are must-alias\n" i j)
      (Alias.mustalias_pairs f)
  end

let print_alias = Pass.on_functions "print-alias" print_alias_on_func

(* ---------------------------------------------------------------- *)
(* Uniformity printer (inter-procedural: runs on the whole module)   *)

let print_uniformity =
  Pass.make "print-uniformity" (fun m stats ->
      let u = Uniformity.analyze m in
      let lattice_attr vs =
        Attr.Array
          (List.map
             (fun v ->
               let l = Uniformity.value u v in
               (match l with
               | Uniformity.Uniform -> Pass.Stats.bump stats "uniformity.uniform"
               | Uniformity.Unknown -> Pass.Stats.bump stats "uniformity.unknown"
               | Uniformity.Non_uniform ->
                 Pass.Stats.bump stats "uniformity.non-uniform");
               Attr.String (Uniformity.lattice_to_string l))
             vs)
      in
      List.iter
        (fun f ->
          if not (Dialects.Func.is_declaration f) then begin
            let args = Core.block_args (Core.func_body f) in
            if args <> [] then
              Core.set_attr f arg_uniform_attr (lattice_attr args);
            let divergent = ref 0 in
            Core.walk f ~f:(fun op ->
                if not (op == f) then begin
                  if Core.results op <> [] then
                    Core.set_attr op uniform_attr
                      (lattice_attr (Core.results op));
                  if
                    Core.num_regions op > 0
                    && Uniformity.in_divergent_region u op
                  then begin
                    Core.set_attr op divergent_attr Attr.Unit;
                    incr divergent;
                    Pass.Stats.bump stats "uniformity.divergent-regions"
                  end
                end);
            let non_uniform_args =
              List.length
                (List.filter
                   (fun a -> Uniformity.value u a <> Uniformity.Uniform)
                   args)
            in
            reportf
              "=== uniformity: @%s ===\n\
              \  kernel: %b  non-uniform args: %d  divergent region ops: %d\n"
              (Core.func_sym f) (Uniformity.is_kernel f) non_uniform_args
              !divergent
          end)
        (Core.funcs m))

(* ---------------------------------------------------------------- *)
(* Reaching-definitions printer                                      *)

let writes_memory (op : Core.op) =
  match Op_registry.memory_effects op with
  | Some effects ->
    List.exists
      (fun (kind, _) ->
        match kind with
        | Op_registry.Write | Op_registry.Free -> true
        | _ -> false)
      effects
  | None -> Core.num_regions op = 0 && not (Op_registry.is_pure op)

let print_reaching_defs_on_func (f : Core.op) stats =
  if not (Dialects.Func.is_declaration f) then begin
    let rd = Reaching_defs.analyze_with_args f in
    (* Stable def ids in walk (program) order for every potential memory
       modifier; loads then reference modifiers by id. *)
    let ids = Hashtbl.create 32 in
    let next = ref 0 in
    let id_of (op : Core.op) =
      match Hashtbl.find_opt ids op.Core.oid with
      | Some i -> i
      | None ->
        let i = !next in
        incr next;
        Hashtbl.replace ids op.Core.oid i;
        Core.set_attr op def_id_attr (Attr.Int i);
        Pass.Stats.bump stats "reaching-defs.defs";
        i
    in
    Core.walk f ~f:(fun op ->
        if (not (op == f)) && writes_memory op then ignore (id_of op));
    reportf "=== reaching-defs: @%s ===\n" (Core.func_sym f);
    Core.walk f ~f:(fun op ->
        if Dialects.Memref.is_load op then begin
          let mem, _ = Dialects.Memref.load_parts op in
          let { Reaching_defs.mods; pmods } =
            Reaching_defs.defs_at rd mem ~at:op
          in
          let to_ids ops = Array.of_list (List.map id_of ops) in
          Core.set_attr op reaching_mods_attr (Attr.Dense_int (to_ids mods));
          Core.set_attr op reaching_pmods_attr (Attr.Dense_int (to_ids pmods));
          Pass.Stats.bump stats "reaching-defs.loads";
          let show ops =
            String.concat ", "
              (List.map
                 (fun o -> Printf.sprintf "#%d %s" (id_of o) (Printer.summary o))
                 ops)
          in
          reportf "  %s: MODS {%s} PMODS {%s}\n" (Printer.summary op)
            (show mods) (show pmods)
        end)
  end

let print_reaching_defs =
  Pass.on_functions "print-reaching-defs" print_reaching_defs_on_func

(* ---------------------------------------------------------------- *)
(* Memory-access printer                                             *)

let print_memory_access_on_func (f : Core.op) stats =
  if Uniformity.is_kernel f && not (Dialects.Func.is_declaration f) then begin
    let rd = Reaching_defs.analyze_with_args f in
    reportf "=== memory-access: @%s ===\n" (Core.func_sym f);
    let loops = Core.collect f ~p:Dialects.Loop.is_loop in
    List.iter
      (fun loop ->
        let accesses = Memory_access.analyze_loop ~kernel:f rd loop in
        List.iter
          (fun (a : Memory_access.access) ->
            let op = a.Memory_access.acc_op in
            Core.set_attr op access_matrix_attr
              (Attr.Array
                 (Array.to_list
                    (Array.map (fun row -> Attr.Dense_int (Array.copy row))
                       a.Memory_access.matrix)));
            Core.set_attr op access_offsets_attr
              (Attr.Dense_int (Array.copy a.Memory_access.offsets));
            Core.set_attr op coalescing_attr
              (Attr.String
                 (Memory_access.coalescing_to_string a.Memory_access.coalescing));
            Core.set_attr op temporal_reuse_attr
              (Attr.Bool a.Memory_access.temporal_reuse);
            Pass.Stats.bump stats "memory-access.accesses";
            (match a.Memory_access.coalescing with
            | Memory_access.Linear | Memory_access.Reverse_linear ->
              Pass.Stats.bump stats "memory-access.coalesced"
            | Memory_access.Thread_invariant ->
              Pass.Stats.bump stats "memory-access.thread-invariant"
            | Memory_access.Non_coalesced ->
              Pass.Stats.bump stats "memory-access.non-coalesced");
            if a.Memory_access.temporal_reuse then
              Pass.Stats.bump stats "memory-access.temporal-reuse";
            reportf "  %s\n"
              (Format.asprintf "%a" Memory_access.pp_access a))
          accesses)
      loops
  end

let print_memory_access =
  Pass.on_functions "print-memory-access" print_memory_access_on_func

(* ---------------------------------------------------------------- *)
(* Reuse-distance printer                                            *)

(* Static constant-stride reuse prediction from the access matrices.
   The model mirrors the simulator's per-work-group cache: a sub-group's
   coalesced lines are probed in canonical order, so the reuse distance
   of an access is bounded by the loop body's per-iteration line
   footprint — the number of distinct cache lines the sub-group touches
   in one iteration of the enclosing loop.

   An access has constant-stride reuse when its line is re-touched on
   the next iteration, i.e. when its index is loop-invariant in every
   dimension, or when only the fastest-varying dimension carries the
   loop induction variable with a stride below the cache line. Such
   accesses get a [sycl.reuse_dist] attribute holding the predicted
   distance (the footprint); accesses whose line changes every
   iteration have no short reuse and stay unannotated.

   The sub-group and line geometry mirror [Sycl_sim.Cost.default]
   (sub-group of 16, 16 elements per line); lib/core cannot depend on
   lib/sim, so the constants are restated here. *)

let reuse_subgroup_size = 16
let reuse_line_elems = 16

(* Coefficient of the fastest-varying thread dimension in [row], and the
   coefficient of any loop induction variable. *)
let row_coeffs (vars : Memory_access.var list) (row : int array) =
  let thread = ref 0 and loop = ref 0 in
  let fastest = ref (-1) in
  List.iteri
    (fun i v ->
      match v with
      | Memory_access.Global_id d | Memory_access.Local_id d ->
        if d > !fastest && row.(i) <> 0 then begin
          fastest := d;
          thread := row.(i)
        end
      | Memory_access.Loop_iv _ -> if row.(i) <> 0 then loop := row.(i))
    vars;
  (!thread, !loop)

(* Distinct lines a sub-group touches per iteration for one access. *)
let access_footprint (a : Memory_access.access) =
  let rows = Array.length a.Memory_access.matrix in
  if rows = 0 then 1
  else begin
    let t, _ = row_coeffs a.Memory_access.vars a.Memory_access.matrix.(rows - 1) in
    if t = 0 then 1
    else
      max 1
        ((reuse_subgroup_size * abs t + reuse_line_elems - 1)
        / reuse_line_elems)
  end

(* Does [a]'s line survive to the next iteration? *)
let constant_stride_reuse (a : Memory_access.access) =
  let rows = Array.length a.Memory_access.matrix in
  if rows = 0 then false
  else begin
    let loop_in_outer = ref false in
    for r = 0 to rows - 2 do
      let _, l = row_coeffs a.Memory_access.vars a.Memory_access.matrix.(r) in
      if l <> 0 then loop_in_outer := true
    done;
    let _, last_l =
      row_coeffs a.Memory_access.vars a.Memory_access.matrix.(rows - 1)
    in
    (not !loop_in_outer) && abs last_l < reuse_line_elems
  end

let print_reuse_on_func (f : Core.op) stats =
  if Uniformity.is_kernel f && not (Dialects.Func.is_declaration f) then begin
    let rd = Reaching_defs.analyze_with_args f in
    reportf "=== reuse: @%s ===\n" (Core.func_sym f);
    let loops = Core.collect f ~p:Dialects.Loop.is_loop in
    List.iter
      (fun loop ->
        let accesses = Memory_access.analyze_loop ~kernel:f rd loop in
        if accesses <> [] then begin
          let footprint =
            List.fold_left (fun acc a -> acc + access_footprint a) 0 accesses
          in
          List.iter
            (fun (a : Memory_access.access) ->
              Pass.Stats.bump stats "reuse.accesses";
              if constant_stride_reuse a then begin
                Core.set_attr a.Memory_access.acc_op reuse_dist_attr
                  (Attr.Int footprint);
                Pass.Stats.bump stats "reuse.constant-stride";
                reportf "  %s: predicted reuse distance %d (footprint %d \
                         lines/iter)\n"
                  (Printer.summary a.Memory_access.acc_op)
                  footprint footprint
              end
              else begin
                Pass.Stats.bump stats "reuse.streaming";
                reportf "  %s: streaming (no constant-stride reuse)\n"
                  (Printer.summary a.Memory_access.acc_op)
              end)
            accesses
        end)
      loops
  end

let print_reuse = Pass.on_functions "print-reuse" print_reuse_on_func

(* ---------------------------------------------------------------- *)

let by_name = function
  | "alias" -> Some print_alias
  | "uniformity" -> Some print_uniformity
  | "reaching-defs" -> Some print_reaching_defs
  | "memory-access" -> Some print_memory_access
  | "reuse" -> Some print_reuse
  | _ -> None

let known = [ "alias"; "uniformity"; "reaching-defs"; "memory-access"; "reuse" ]

(** Strip every annotation this module adds (so a pipeline can re-run the
    printers, or tests can check the IR is otherwise unchanged). *)
let strip_annotations (m : Core.op) =
  Core.walk m ~f:(fun op ->
      List.iter (fun a -> Core.remove_attr op a) annotation_attrs)
