(* Host raising (Section VII-A): the host module — obtained one-to-one
   from LLVM IR — is too low-level for analysis; this pass detects the
   DPC++ runtime-ABI call patterns and replaces them with SYCL dialect
   host operations (the sycl.host ops), producing code like the paper's
   Listing 9.

   As the paper notes, the raising patterns are tied to the runtime's ABI:
   if a call shape is not recognized (e.g. a non-constant mode argument),
   the call is left unraised and counted in the "raising.failed" statistic
   rather than mis-raised. *)

open Mlir

let const_int_of v =
  match Rewrite.constant_of_value v with
  | Some a -> Attr.as_int a
  | None -> None

let raise_call (op : Core.op) stats : bool =
  let b = Builder.before op in
  (* Raised sycl.host.* ops replace the call they model: keep its
     location. *)
  Builder.set_default_loc b op.Core.loc;
  let ok repl =
    Core.replace_op op (Core.results repl);
    Pass.Stats.bump stats "raising.raised";
    true
  in
  let ok0 () =
    Core.erase_op op;
    Pass.Stats.bump stats "raising.raised";
    true
  in
  let fail () =
    Pass.Stats.bump stats "raising.failed";
    false
  in
  match Dialects.Llvm.callee op with
  | Some c when c = Runtime_abi.queue_ctor ->
    let q = Sycl_host_ops.queue_ctor b in
    ok (Option.get (Core.defining_op q))
  | Some c when c = Runtime_abi.buffer_ctor -> (
    match Core.operands op with
    | data :: dims when dims <> [] -> (
      match data.Core.vty with
      | Types.Memref { element; _ } ->
        let buf = Sycl_host_ops.buffer_ctor b ~element ~host_data:data dims in
        ok (Option.get (Core.defining_op buf))
      | _ -> fail ())
    | _ -> fail ())
  | Some c when c = Runtime_abi.submit ->
    let h = Sycl_host_ops.submit b (Core.operand op 0) in
    ok (Option.get (Core.defining_op h))
  | Some c when c = Runtime_abi.accessor_ctor -> (
    match Core.operands op with
    | buf :: handler :: mode_v :: ranged_v :: rest -> (
      match (const_int_of mode_v, const_int_of ranged_v) with
      | Some mode_i, Some ranged_i -> (
        match Runtime_abi.mode_of_int mode_i with
        | Some mode ->
          let ranged =
            if ranged_i = 0 then None
            else begin
              let n = List.length rest / 2 in
              let ranges = List.filteri (fun i _ -> i < n) rest in
              let offsets = List.filteri (fun i _ -> i >= n) rest in
              Some (ranges, offsets)
            end
          in
          (* The raised accessor must reference the raised buffer value. *)
          if Sycl_types.(match buf.Core.vty with Buffer _ -> true | _ -> false)
          then
            let acc = Sycl_host_ops.accessor_ctor b ~mode buf handler ~ranged in
            ok (Option.get (Core.defining_op acc))
          else fail ()
        | None -> fail ())
      | _ -> fail ())
    | _ -> fail ())
  | Some c when c = Runtime_abi.set_captured -> (
    match (Core.operands op, const_int_of (Core.operand op 2)) with
    | [ handler; v; _ ], Some idx ->
      Sycl_host_ops.set_captured b handler ~index:idx v;
      ok0 ()
    | _ -> fail ())
  | Some c when c = Runtime_abi.set_nd_range -> (
    match Core.operands op with
    | handler :: dims_v :: rest -> (
      match const_int_of dims_v with
      | Some d when List.length rest >= d + 1 -> (
        let global = List.filteri (fun i _ -> i < d) rest in
        let has_local_v = List.nth rest d in
        match const_int_of has_local_v with
        | Some hl ->
          let local =
            if hl = 0 then None
            else Some (List.filteri (fun i _ -> i > d) rest)
          in
          Sycl_host_ops.set_nd_range b handler ~global ~local;
          ok0 ()
        | None -> fail ())
      | _ -> fail ())
    | _ -> fail ())
  | Some c when c = Runtime_abi.parallel_for -> (
    match Core.attr_symbol op "kernel" with
    | Some k ->
      Sycl_host_ops.parallel_for b (Core.operand op 0) ~kernel:k;
      ok0 ()
    | None -> fail ())
  | Some c when c = Runtime_abi.queue_wait ->
    Sycl_host_ops.wait b (Core.operand op 0);
    ok0 ()
  | Some c when c = Runtime_abi.buffer_dtor ->
    Sycl_host_ops.buffer_dtor b (Core.operand op 0);
    ok0 ()
  | Some c when c = Runtime_abi.malloc_device -> (
    match (Core.results op, Core.operands op) with
    | [ r ], [ q; n ] -> (
      match r.Core.vty with
      | Types.Memref { element; _ } ->
        let p = Sycl_host_ops.malloc_device b q n ~element in
        ok (Option.get (Core.defining_op p))
      | _ -> fail ())
    | _ -> fail ())
  | Some c when c = Runtime_abi.memcpy -> (
    match Core.operands op with
    | [ q; dst; src; n ] ->
      Sycl_host_ops.memcpy b q ~dst ~src ~count:n;
      ok0 ()
    | _ -> fail ())
  | Some c when c = Runtime_abi.free -> (
    match Core.operands op with
    | [ q; p ] ->
      Sycl_host_ops.free b q p;
      ok0 ()
    | _ -> fail ())
  | _ -> false

let run (m : Core.op) stats =
  List.iter
    (fun f ->
      if not (Dialects.Func.is_declaration f) then begin
        let calls =
          Core.collect f ~p:(fun o ->
              Dialects.Llvm.is_call o
              &&
              match Dialects.Llvm.callee o with
              | Some c -> String.length c > 7 && String.sub c 0 7 = "__sycl_"
              | None -> false)
        in
        List.iter (fun c -> ignore (raise_call c stats)) calls
      end)
    (Core.funcs m)

let pass = Pass.make "host-raising" run
