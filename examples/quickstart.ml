(* Quickstart: define a SYCL-like kernel and host program with the
   frontend EDSL, compile it with the SYCL-MLIR pipeline, execute it on
   the simulated device, and read the results back.

   Run with:  dune exec examples/quickstart.exe *)

open Mlir
module K = Sycl_frontend.Kernel
module Host = Sycl_frontend.Host
module S = Sycl_core.Sycl_types
module Driver = Sycl_core.Driver
module Memory = Sycl_sim.Memory
module Host_interp = Sycl_runtime.Host_interp

let () =
  (* 1. Nothing to register: the dialects (builtin + SYCL) registered
        their ops when this program was linked against them. *)

  (* 2. Build the joint module: one device kernel plus the host program
        (the latter is emitted as low-level runtime-ABI calls, exactly
        what a C++ compiler would produce — host raising recovers the
        structure during compilation). *)
  let m = Core.create_module () in
  let n = 1024 in

  ignore
    (K.define m ~name:"saxpy" ~dims:1
       ~args:
         [ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Read_write, Types.f32);
           K.Scal Types.f32 ]
       (fun b ~item ~args ->
         match args with
         | [ x; y; a ] ->
           let i = K.gid b item 0 in
           let xi = K.acc_get b x [ i ] in
           K.acc_update b y [ i ] (fun yi -> K.addf b (K.mulf b a xi) yi)
         | _ -> assert false));

  ignore
    (Host.emit m
       {
         Host.host_args = [ Types.memref_dyn Types.f32; Types.memref_dyn Types.f32; Types.Index ];
         Host.buffers =
           [
             { Host.buf_data_arg = 0; buf_dims = [ Host.Arg 2 ]; buf_element = Types.f32 };
             { Host.buf_data_arg = 1; buf_dims = [ Host.Arg 2 ]; buf_element = Types.f32 };
           ];
         Host.globals = [];
         Host.body =
           [
             Host.Submit
               {
                 Host.cg_kernel = "saxpy";
                 cg_global = [ Host.Arg 2 ];
                 cg_local = None;
                 cg_captures =
                   [
                     Host.Capture_acc (0, S.Read);
                     Host.Capture_acc (1, S.Read_write);
                     Host.Capture_scalar (Attr.Float 2.0);
                   ];
               };
           ];
       });

  (* 3. Compile with the SYCL-MLIR configuration (host raising +
        host-device propagation + SYCL-aware device optimizations). *)
  let compiled = Driver.compile (Driver.config ~verify_each:true Driver.Sycl_mlir) m in
  Printf.printf "compiled with %d passes\n"
    (List.length compiled.Driver.pipeline_result.Pass.per_pass_stats);

  (* 4. Prepare host data and run. *)
  let x = Memory.alloc ~label:"x" ~size:n () in
  let y = Memory.alloc ~label:"y" ~size:n () in
  for i = 0 to n - 1 do
    Memory.set_float x i (float_of_int i);
    Memory.set_float y i 1.0
  done;
  let harg a = Host_interp.Scalar (Sycl_sim.Interp.Mem (Memory.full_view a)) in
  let result =
    Host_interp.run ~module_op:m
      [ harg x; harg y; Host_interp.Scalar (Sycl_sim.Interp.I n) ]
  in

  (* 5. Inspect results and costs. *)
  let ok = ref true in
  for i = 0 to n - 1 do
    let expect = (2.0 *. float_of_int i) +. 1.0 in
    match Memory.get y i with
    | Memory.F v when Float.abs (v -. expect) < 1e-3 -> ()
    | _ -> ok := false
  done;
  Printf.printf "y = 2*x + y computed %s on the simulated device\n"
    (if !ok then "correctly" else "INCORRECTLY");
  Printf.printf
    "total=%d cycles (device=%d, launch=%d, transfers=%d, scheduler=%d) over %d launch(es)\n"
    result.Host_interp.total_cycles result.Host_interp.device_cycles
    result.Host_interp.launch_overhead_cycles result.Host_interp.transfer_cycles
    result.Host_interp.scheduler_cycles result.Host_interp.kernel_launches;
  (* The constant scalar capture was propagated and the argument marked
     dead by SYCL Dead Argument Elimination. *)
  let kernel = Option.get (Core.lookup_func m "saxpy") in
  Printf.printf "dead kernel arguments after host-device propagation: %s\n"
    (String.concat ", "
       (List.map string_of_int (Sycl_core.Dead_arg_elim.dead_args kernel)))
