(* The gpu dialect subset: work-group barriers and work-group local memory
   allocation, used by the loop-internalization optimization
   (Section VI-C of the paper). *)

open Mlir

let barrier b = Builder.op0 b "gpu.barrier" ~operands:[]

let is_barrier op = op.Core.name = "gpu.barrier"

let is_alloc_local op = op.Core.name = "gpu.alloc_local"

(* Slots key the simulator's per-work-group local-allocation table, so
   they need only be unique within a kernel. Number them from the IR
   enclosing the insertion point (max existing slot + 1) rather than a
   process-global counter, so compiling the same module twice yields
   byte-identical IR. *)
let fresh_slot b =
  let max_slot = ref 0 in
  let note o =
    if is_alloc_local o then
      match Core.attr_int o "slot" with
      | Some s when s > !max_slot -> max_slot := s
      | _ -> ()
  in
  let scan_op op = Core.walk op ~f:note in
  let scan_block (blk : Core.block) = List.iter scan_op (Core.ops blk) in
  let scan_region (r : Core.region) = List.iter scan_block r.Core.blocks in
  (* Climb to the outermost attached op/block/region; detached kernels
     under construction restart at 1, which is fine — slots never need
     to be unique across kernels. *)
  let rec root_of_op (op : Core.op) =
    match op.Core.parent_block with
    | None -> scan_op op
    | Some blk -> root_of_block blk
  and root_of_block (blk : Core.block) =
    match blk.Core.parent_region with
    | None -> scan_block blk
    | Some r -> (
      match r.Core.parent_op with
      | None -> scan_region r
      | Some op -> root_of_op op)
  in
  (match Builder.insertion_block b with
  | None -> ()
  | Some blk -> root_of_block blk);
  !max_slot + 1

(** Allocate work-group local memory. One allocation is shared by all
    work-items of a work-group (the simulator keys the allocation on the
    [slot] attribute). *)
let alloc_local b shape element =
  let slot = fresh_slot b in
  Builder.op1 b "gpu.alloc_local" ~operands:[]
    ~result_type:
      (Types.memref ~space:Types.Local (List.map (fun d -> Some d) shape) element)
    ~attrs:[ ("slot", Attr.Int slot) ]

let () =
  (* The barrier synchronizes memory: treat as read+write anywhere so no
     memory operation is moved across it. *)
  Op_registry.register "gpu.barrier"
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ ->
          Some
            [
              (Op_registry.Read, Op_registry.Anywhere);
              (Op_registry.Write, Op_registry.Anywhere);
            ]);
    };
  Op_registry.register "gpu.alloc_local" Memref.alloc_info
