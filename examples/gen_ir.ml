(* Regenerates the checked-in example IR from the workload builders:

     dune exec examples/gen_ir.exe -- matmul > examples/matmul.mlir
     dune exec examples/gen_ir.exe -- matmul --debuginfo > examples/matmul.loc.mlir

   The files under examples/ are committed so the CLI tools (and the
   transcripts of test/cli) have stable textual inputs without running
   OCaml first.
   [--debuginfo] prints a trailing loc(...) on every op — the golden
   input for the location round-trip checks.

   It also prints the large single-block shapes that the IR core's
   scaling is measured on, each as one function @f:

     gen_ir.exe chain N     constants 1..N, each added (arith.addi) to the
                            running sum of %arg0: 2N+1 ops, which
                            canonicalize folds to %arg0 + N(N+1)/2
     gen_ir.exe unused N    N distinct unused constants
     gen_ir.exe fanout N    N unused arith.addi(%arg0, %arg0): N users of
                            one block argument
     gen_ir.exe stream K N  K modules of N constants each, all K*N
                            distinct, separated by "// -----" lines for
                            sycl-mlir-opt --serve *)

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

(* One function @f in a fresh module: [args] are its argument types, and
   [body] fills its block before the return of the values it gives. *)
let shape ~args ~results body =
  let m = Mlir.Core.create_module () in
  ignore
    (Dialects.Func.func m "f" ~args ~results (fun b params ->
         Dialects.Func.return b (body b params)));
  m

let chain n =
  shape ~args:[ Mlir.Types.i64 ] ~results:[ Mlir.Types.i64 ] (fun b params ->
      let sum = ref (List.hd params) in
      for i = 1 to n do
        sum := Dialects.Arith.addi b !sum (Dialects.Arith.const_int b i)
      done;
      [ !sum ])

let unused ?(first = 0) n =
  shape ~args:[] ~results:[] (fun b _ ->
      for i = first to first + n - 1 do
        ignore (Dialects.Arith.const_int b i)
      done;
      [])

let fanout n =
  shape ~args:[ Mlir.Types.i64 ] ~results:[] (fun b params ->
      let a = List.hd params in
      for _ = 1 to n do
        ignore (Dialects.Arith.addi b a a)
      done;
      [])

let usage () =
  prerr_endline
    "usage: gen_ir [matmul|gemm|vec-add] [--debuginfo] | chain N | unused N | fanout N | stream K N";
  exit 2

let count s =
  match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage ()

let print m = Mlir.Printer.print m

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  match argv with
  | [ "chain"; n ] -> print (chain (count n))
  | [ "unused"; n ] -> print (unused (count n))
  | [ "fanout"; n ] -> print (fanout (count n))
  | [ "stream"; k; n ] ->
    let k = count k and n = count n in
    for i = 0 to k - 1 do
      if i > 0 then print_string "// -----\n";
      print (unused ~first:(i * n) n)
    done
  | _ ->
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
