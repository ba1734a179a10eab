(* SYCL dialect host operations (Section VII-A): the targets of the host
   raising pass. They capture SYCL object construction and kernel
   scheduling in host code, as in the paper's Listing 9. *)

open Mlir

(* queue construction: %q = sycl.host.queue_ctor() *)
let queue_ctor b =
  Builder.op1 b "sycl.host.queue_ctor" ~operands:[] ~result_type:Sycl_types.Queue

(* %buf = sycl.host.buffer_ctor(%host_data, %d0, %d1) : buffer over host
   memory with the given extents. *)
let buffer_ctor b ~element ~host_data dims =
  Builder.op1 b "sycl.host.buffer_ctor"
    ~operands:(host_data :: dims)
    ~result_type:(Sycl_types.buffer ~dims:(List.length dims) element)

(* %h = sycl.host.submit(%q): opens a command group on the queue. *)
let submit b q =
  Builder.op1 b "sycl.host.submit" ~operands:[ q ] ~result_type:Sycl_types.Handler

(* %acc = sycl.host.accessor_ctor(%buf, %h [, %range..., %offset...])
   {mode = "read"} — the optional operands make it a *ranged* accessor. *)
let accessor_ctor b ~mode buf handler ~ranged =
  let dims, element =
    match buf.Core.vty with
    | Sycl_types.Buffer { buf_dims; buf_element } -> (buf_dims, buf_element)
    | _ -> invalid_arg "accessor_ctor: not a buffer"
  in
  let extra = match ranged with None -> [] | Some (r, o) -> r @ o in
  Builder.op1 b "sycl.host.accessor_ctor"
    ~operands:(buf :: handler :: extra)
    ~result_type:(Sycl_types.accessor ~mode ~dims element)
    ~attrs:
      [
        ("mode", Attr.String (Sycl_types.access_mode_to_string mode));
        ("ranged", Attr.Bool (ranged <> None));
      ]

(* sycl.host.set_captured(%h, %v) {index = i}: the i-th capture of the
   kernel functor (in DPC++: a kernel argument after flattening). *)
let set_captured b handler ~index v =
  Builder.op0 b "sycl.host.set_captured" ~operands:[ handler; v ]
    ~attrs:[ ("index", Attr.Int index) ]

(* sycl.host.set_nd_range(%h, %g0, %g1 [, %l0, %l1]) {has_local} *)
let set_nd_range b handler ~global ~local =
  let locals = Option.value ~default:[] local in
  Builder.op0 b "sycl.host.set_nd_range"
    ~operands:((handler :: global) @ locals)
    ~attrs:
      [
        ("dims", Attr.Int (List.length global));
        ("has_local", Attr.Bool (local <> None));
      ]

(* sycl.host.parallel_for(%h) {kernel = @sym}: schedules the kernel. *)
let parallel_for b handler ~kernel =
  Builder.op0 b "sycl.host.parallel_for" ~operands:[ handler ]
    ~attrs:[ ("kernel", Attr.Symbol kernel) ]

(* sycl.host.wait(%q) *)
let wait b q = Builder.op0 b "sycl.host.wait" ~operands:[ q ]

(* sycl.host.buffer_dtor(%buf): destruction writes back to the host. *)
let buffer_dtor b buf = Builder.op0 b "sycl.host.buffer_dtor" ~operands:[ buf ]

(* USM: %p = sycl.host.malloc_device(%q, %n) {element}, memcpys, free. *)
let malloc_device b q n ~element =
  Builder.op1 b "sycl.host.malloc_device" ~operands:[ q; n ]
    ~result_type:(Types.memref_dyn element)

let memcpy b q ~dst ~src ~count =
  Builder.op0 b "sycl.host.memcpy" ~operands:[ q; dst; src; count ]

let free b q p = Builder.op0 b "sycl.host.free" ~operands:[ q; p ]

(* Matchers *)

let is_buffer_ctor op = op.Core.name = "sycl.host.buffer_ctor"
let is_submit op = op.Core.name = "sycl.host.submit"
let is_accessor_ctor op = op.Core.name = "sycl.host.accessor_ctor"
let is_set_captured op = op.Core.name = "sycl.host.set_captured"
let is_set_nd_range op = op.Core.name = "sycl.host.set_nd_range"
let is_parallel_for op = op.Core.name = "sycl.host.parallel_for"

let accessor_ctor_mode op =
  Option.bind (Core.attr_string op "mode") Sycl_types.access_mode_of_string

let accessor_ctor_buffer op = Core.operand op 0

let set_captured_index op =
  Option.value ~default:(-1) (Core.attr_int op "index")

let parallel_for_kernel op = Core.attr_symbol op "kernel"

let nd_range_dims op = Option.value ~default:1 (Core.attr_int op "dims")

let nd_range_global op =
  let d = nd_range_dims op in
  List.filteri (fun i _ -> i >= 1 && i <= d) (Core.operands op)

let nd_range_local op =
  let d = nd_range_dims op in
  if Core.attr op "has_local" = Some (Attr.Bool true) then
    Some (List.filteri (fun i _ -> i > d) (Core.operands op))
  else None

(* [dims] global sizes after the handler, then as many local sizes when
   [has_local] is set. *)
let verify_set_nd_range op =
  let d = nd_range_dims op in
  let local = Core.attr op "has_local" = Some (Attr.Bool true) in
  let want = 1 + if local then 2 * d else d in
  if d < 1 || d > 3 then
    Error (Printf.sprintf "sycl.host.set_nd_range: dims = %d, want 1 to 3" d)
  else if Core.num_operands op <> want then
    Error
      (Printf.sprintf
         "sycl.host.set_nd_range with dims = %d%s takes %d operands, got %d" d
         (if local then " and a local range" else "")
         want (Core.num_operands op))
  else Ok ()

let () =
  (* Host ops interact with the runtime: model them as opaque effects so
     nothing reorders around them, except the pure queries. *)
  let effectful =
    {
      Op_registry.default_info with
      Op_registry.memory_effects =
        (fun _ ->
          Some
            [
              (Op_registry.Read, Op_registry.Anywhere);
              (Op_registry.Write, Op_registry.Anywhere);
            ]);
    }
  in
  List.iter
    (fun name -> Op_registry.register name effectful)
    [
      "sycl.host.queue_ctor"; "sycl.host.buffer_ctor"; "sycl.host.submit";
      "sycl.host.accessor_ctor"; "sycl.host.set_captured";
      "sycl.host.parallel_for"; "sycl.host.wait"; "sycl.host.buffer_dtor";
      "sycl.host.malloc_device"; "sycl.host.memcpy"; "sycl.host.free";
    ];
  Op_registry.register "sycl.host.set_nd_range"
    { effectful with Op_registry.verify = verify_set_nd_range }
