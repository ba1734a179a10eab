(* Host raising and host-device optimization walkthrough (Section VII):
   the host program arrives as low-level llvm-dialect calls against the
   DPC++ runtime ABI (the output of mlir-translate in Fig. 1); the host
   raising pass recovers sycl.host operations (the paper's Listing 8 →
   Listing 9 transformation); host analysis then propagates constants and
   accessor facts into the device kernel and marks dead arguments.

   Run with:  dune exec examples/host_device_opt.exe *)

open Mlir
module K = Sycl_frontend.Kernel
module Host = Sycl_frontend.Host
module S = Sycl_core.Sycl_types


let build () =
  let m = Core.create_module () in
  (* A kernel that queries its ND-range and accessor members — all of
     which the host knows. The global size here is a compile-time constant
     in host code (constexpr size = 1024 in the paper's Listing 8). *)
  ignore
    (K.define m ~name:"kernel_k" ~dims:1
       ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
       (fun b ~item ~args ->
         match args with
         | [ a; c ] ->
           let i = K.gid b item 0 in
           let n = K.grange b item 0 in
           let dim0 = Dialects.Arith.const_int b ~ty:Types.i32 0 in
           let off = Sycl_core.Sycl_ops.accessor_get_offset b a dim0 in
           let range = Sycl_core.Sycl_ops.accessor_get_range b a dim0 in
           (* reversed = a[offset + (range - 1 - i)], scaled by 1/n *)
           let one = K.idx b 1 in
           let j = K.addi b off (K.subi b (K.subi b range one) i) in
           let v = K.acc_get b a [ j ] in
           let nf = Dialects.Arith.sitofp b (Dialects.Arith.index_cast b n Types.i64) Types.f32 in
           K.acc_set b c [ i ] (K.divf b v nf)
         | _ -> assert false));
  ignore
    (Host.emit m
       {
         Host.host_args = [ Types.memref_dyn Types.f32; Types.memref_dyn Types.f32 ];
         Host.buffers =
           [
             { Host.buf_data_arg = 0; buf_dims = [ Host.Const 1024 ]; buf_element = Types.f32 };
             { Host.buf_data_arg = 1; buf_dims = [ Host.Const 1024 ]; buf_element = Types.f32 };
           ];
         Host.globals = [];
         Host.body =
           [
             Host.Submit
               {
                 Host.cg_kernel = "kernel_k";
                 cg_global = [ Host.Const 1024 ];
                 cg_local = None;
                 cg_captures =
                   [ Host.Capture_acc (0, S.Read); Host.Capture_acc (1, S.Write) ];
               };
           ];
       });
  m

let () =
  let m = build () in
  let host0 = Option.get (Core.lookup_func m "main") in
  print_endline "===== host code as obtained from LLVM IR (Listing 8's lowering) =====";
  Printer.print host0;

  (* Raise only. *)
  let _ = Pass.run_pipeline ~verify_each:true [ Sycl_core.Host_raising.pass ] m in
  print_endline "\n===== after host raising (the paper's Listing 9) =====";
  Printer.print (Option.get (Core.lookup_func m "main"));

  (* Full host-device propagation + device cleanup. *)
  let _ =
    Pass.run_pipeline ~verify_each:true
      [
        Sycl_core.Canonicalize.pass; Sycl_core.Cse.pass;
        Sycl_core.Host_device_prop.pass;
        Sycl_core.Canonicalize.pass; Sycl_core.Cse.pass; Sycl_core.Dce.pass;
        Sycl_core.Dead_arg_elim.pass;
      ]
      m
  in
  print_endline
    "\n===== device kernel after host-device constant propagation =====";
  print_endline "(the ND-range constant 1024, the zero accessor offset and the";
  print_endline " constant accessor range have all been folded into the kernel)";
  Printer.print (Option.get (Core.lookup_func m "kernel_k"))
