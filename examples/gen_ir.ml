(* Regenerates the checked-in example IR from the workload builders:

     dune exec examples/gen_ir.exe -- matmul > examples/matmul.mlir
     dune exec examples/gen_ir.exe -- matmul --debuginfo > examples/matmul.loc.mlir

   The files under examples/ are committed so the CLI tools (and the
   transcripts of test/cli) have stable textual inputs without running
   OCaml first.
   [--debuginfo] prints a trailing loc(...) on every op — the golden
   input for the location round-trip checks. *)

open Sycl_workloads
module K = Sycl_frontend.Kernel
module Host = Sycl_frontend.Host
module S = Sycl_core.Sycl_types

(* GEMM with a per-row scale vector:
     C[i][j] = beta*C[i][j] + sum_k scale[i] * A[i][k] * B[k][j]
   The scale[i] load inside the k-loop is loop-invariant; hoisting it
   needs the SYCL-aware alias analysis (scale and C are distinct
   buffers), so the example exercises LICM's memory hoisting on top of
   the reduction rewrite and loop internalization plain GEMM shows. *)
let matmul_module () =
  let f32 = Mlir.Types.f32 in
  let m = Common.fresh_module () in
  ignore
    (K.define m ~name:"matmul" ~dims:2
       ~args:
         [ K.Acc (2, S.Read, f32); K.Acc (2, S.Read, f32);
           K.Acc (2, S.Read_write, f32); K.Acc (1, S.Read, f32); K.Scal f32 ]
       (fun b ~item ~args ->
         (* Name locations mimicking what a Clang-based frontend attaches:
            each statement of the kernel functor becomes a named location
            anchored at its position in the (hypothetical) matmul.cpp.
            The builder stamps the current default onto every op it
            inserts, so whole statements share one location — visible
            under --mlir-print-debuginfo and in located remarks. *)
         let at stmt line =
           Mlir.Loc.name stmt
             ~child:(Mlir.Loc.file ~file:"matmul.cpp" ~line ~col:5)
         in
         match args with
         | [ a; bb; c; scale; beta_v ] ->
           Mlir.Builder.set_default_loc b (at "indices" 12);
           let i = K.gid b item 0 and j = K.gid b item 1 in
           let n = K.grange b item 0 in
           Mlir.Builder.set_default_loc b (at "scale-C" 13);
           K.acc_update b c [ i; j ] (fun v -> K.mulf b v beta_v);
           Mlir.Builder.set_default_loc b (at "k-loop" 14);
           K.for_up b n (fun b2 k ->
               Mlir.Builder.set_default_loc b2 (at "dot-product" 15);
               let s = K.acc_get b2 scale [ i ] in
               let av = K.acc_get b2 a [ i; k ] in
               let bv = K.acc_get b2 bb [ k; j ] in
               let prod = K.mulf b2 s (K.mulf b2 av bv) in
               Mlir.Builder.set_default_loc b2 (at "accumulate" 16);
               K.acc_update b2 c [ i; j ] (fun v -> K.addf b2 v prod))
         | _ -> assert false));
  Polybench.emit_host m
    ~args:[ Polybench.mem; Polybench.mem; Polybench.mem; Polybench.mem;
            Mlir.Types.Index ]
    ~buffers:
      [ Polybench.sq_buf ~size_arg:4 0; Polybench.sq_buf ~size_arg:4 1;
        Polybench.sq_buf ~size_arg:4 2; Polybench.vec_buf ~size_arg:4 3 ]
    ~body:
      [ Polybench.submit2 ~kernel:"matmul" ~size_arg:4
          [ Polybench.cap_r 0; Polybench.cap_r 1; Polybench.cap_rw 2;
            Polybench.cap_r 3; Host.Capture_scalar (Mlir.Attr.Float 1.2) ] ];
  m

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let debuginfo = List.mem "--debuginfo" argv in
  let which =
    match List.filter (fun a -> a <> "--debuginfo") argv with
    | [] -> "matmul"
    | w :: _ -> w
  in
  let m =
    match which with
    | "matmul" -> matmul_module ()
    | "gemm" -> (Polybench.gemm ~n:16).Common.w_module ()
    | "vec-add" -> (Single_kernel.vec_add ~n:256).Common.w_module ()
    | other ->
      prerr_endline ("unknown example " ^ other ^ " (matmul|gemm|vec-add)");
      exit 2
  in
  print_string (Mlir.Printer.to_string ~debuginfo m)
