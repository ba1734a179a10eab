(* The SYCL-Bench polybench category (Fig. 3): linear-algebra and stencil
   compute kernels. These are the workloads the paper's device
   optimizations target: the matmul family (2mm, 3mm, gemm, syrk, syr2k)
   benefits from loop internalization, correlation/covariance from the
   array-reduction rewrite, and gramschmidt is the documented case whose
   candidate loop sits in a divergent region and must be rejected.

   Sizes are scaled (paper sizes recorded per workload); following
   SYCL-Bench, problem sizes arrive at the host program as runtime values
   (CLI-style), not compile-time constants. *)

open Mlir
open Common
module K = Kernel
module A = Dialects.Arith
module S = Sycl_types

let f32 = Types.f32

let racc = K.Acc (2, S.Read, f32)
let rwacc = K.Acc (2, S.Read_write, f32)
let racc1 = K.Acc (1, S.Read, f32)
let rwacc1 = K.Acc (1, S.Read_write, f32)
let wacc = K.Acc (2, S.Write, f32)

let mem = Types.memref_dyn f32

(* Host-program shorthands: buffers over leading host args, a trailing
   Index argument carries the (runtime) problem size. *)
let sq_buf ~size_arg i =
  { Host.buf_data_arg = i; buf_dims = [ Host.Arg size_arg; Host.Arg size_arg ];
    buf_element = f32 }

let vec_buf ~size_arg i =
  { Host.buf_data_arg = i; buf_dims = [ Host.Arg size_arg ]; buf_element = f32 }

let submit2 ~kernel ~size_arg captures =
  Host.Submit
    { Host.cg_kernel = kernel; cg_global = [ Host.Arg size_arg; Host.Arg size_arg ];
      cg_local = None; cg_captures = captures }

let submit1 ~kernel ~size_arg captures =
  Host.Submit
    { Host.cg_kernel = kernel; cg_global = [ Host.Arg size_arg ];
      cg_local = None; cg_captures = captures }

let cap_r i = Host.Capture_acc (i, S.Read)
let cap_w i = Host.Capture_acc (i, S.Write)
let cap_rw i = Host.Capture_acc (i, S.Read_write)

let emit_host m ~args ~buffers ~body =
  ignore (Host.emit m { Host.host_args = args; buffers; globals = []; body })

let snapshot (a : Sycl_sim.Memory.allocation) n = Array.init n (read_f a)

let mk ~name ~paper ~n ~category w_module w_data =
  { w_name = name; w_category = category; w_problem_size = n;
    w_paper_size = paper; w_module; w_data; w_acpp_ok = true }

(* ------------------------------------------------------------------ *)
(* The matmul family                                                   *)
(* ------------------------------------------------------------------ *)

(* C[i][j] = beta*C[i][j] + alpha * sum_k A[i][k] * B[k][j] *)
let matmul_kernel m ~name =
  ignore
    (K.define m ~name ~dims:2
       ~args:[ racc; racc; rwacc; K.Scal f32; K.Scal f32 ]
       (fun b ~item ~args ->
         match args with
         | [ a; bb; c; alpha_v; beta_v ] ->
           let i = K.gid b item 0 and j = K.gid b item 1 in
           let n = K.grange b item 0 in
           K.acc_update b c [ i; j ] (fun v -> K.mulf b v beta_v);
           K.for_up b n (fun b2 k ->
               let av = K.acc_get b2 a [ i; k ] in
               let bv = K.acc_get b2 bb [ k; j ] in
               let prod = K.mulf b2 alpha_v (K.mulf b2 av bv) in
               K.acc_update b2 c [ i; j ] (fun v -> K.addf b2 v prod))
         | _ -> assert false))

let gemm_caps ~a ~b ~c ~alpha ~beta =
  [ cap_r a; cap_r b; cap_rw c;
    Host.Capture_scalar (Attr.Float alpha); Host.Capture_scalar (Attr.Float beta) ]

let ref_gemm ~n ~alpha ~beta a b out =
  let res = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref (beta *. out.((i * n) + j)) in
      for k = 0 to n - 1 do
        acc := !acc +. (alpha *. a.((i * n) + k) *. b.((k * n) + j))
      done;
      res.((i * n) + j) <- !acc
    done
  done;
  res

let gemm ~n =
  let alpha = 1.5 and beta = 1.2 in
  let w_module () =
    let m = fresh_module () in
    matmul_kernel m ~name:"gemm";
    emit_host m
      ~args:[ mem; mem; mem; Types.Index ]
      ~buffers:[ sq_buf ~size_arg:3 0; sq_buf ~size_arg:3 1; sq_buf ~size_arg:3 2 ]
      ~body:[ submit2 ~kernel:"gemm" ~size_arg:3 (gemm_caps ~a:0 ~b:1 ~c:2 ~alpha ~beta) ];
    m
  in
  let w_data () =
    let st = rng 7 in
    let a = farray_random st (n * n) and b = farray_random st (n * n)
    and c = farray_random st (n * n) in
    let c0 = snapshot c (n * n) in
    let validate () =
      check_array c (ref_gemm ~n ~alpha ~beta (snapshot a (n * n)) (snapshot b (n * n)) c0)
    in
    ([ harg a; harg b; harg c; iarg n ], validate)
  in
  mk ~name:"GEMM" ~paper:1024 ~n ~category:Polybench w_module w_data

(* 2mm: Tmp = A*B; D = Tmp*C  (alpha/beta folded to 1/0 per kernel use) *)
let two_mm ~n =
  let w_module () =
    let m = fresh_module () in
    matmul_kernel m ~name:"mm_k";
    emit_host m
      ~args:[ mem; mem; mem; mem; mem; Types.Index ]
      ~buffers:
        [ sq_buf ~size_arg:5 0; sq_buf ~size_arg:5 1; sq_buf ~size_arg:5 2;
          sq_buf ~size_arg:5 3; sq_buf ~size_arg:5 4 ]
      ~body:
        [
          submit2 ~kernel:"mm_k" ~size_arg:5 (gemm_caps ~a:0 ~b:1 ~c:3 ~alpha:1.0 ~beta:0.0);
          submit2 ~kernel:"mm_k" ~size_arg:5 (gemm_caps ~a:3 ~b:2 ~c:4 ~alpha:1.0 ~beta:0.0);
        ];
    m
  in
  let w_data () =
    let st = rng 11 in
    let a = farray_random st (n * n) and b = farray_random st (n * n)
    and c = farray_random st (n * n) and tmp = farray_zeros (n * n)
    and d = farray_zeros (n * n) in
    let validate () =
      let t = ref_gemm ~n ~alpha:1.0 ~beta:0.0 (snapshot a (n * n)) (snapshot b (n * n))
                (Array.make (n * n) 0.0) in
      let expect = ref_gemm ~n ~alpha:1.0 ~beta:0.0 t (snapshot c (n * n))
                     (Array.make (n * n) 0.0) in
      check_array ~tol:5e-3 d expect
    in
    ([ harg a; harg b; harg c; harg tmp; harg d; iarg n ], validate)
  in
  mk ~name:"2mm" ~paper:1024 ~n ~category:Polybench w_module w_data

(* 3mm: E = A*B; F = C*D; G = E*F *)
let three_mm ~n =
  let w_module () =
    let m = fresh_module () in
    matmul_kernel m ~name:"mm_k";
    emit_host m
      ~args:[ mem; mem; mem; mem; mem; mem; mem; Types.Index ]
      ~buffers:(List.init 7 (fun i -> sq_buf ~size_arg:7 i))
      ~body:
        [
          submit2 ~kernel:"mm_k" ~size_arg:7 (gemm_caps ~a:0 ~b:1 ~c:4 ~alpha:1.0 ~beta:0.0);
          submit2 ~kernel:"mm_k" ~size_arg:7 (gemm_caps ~a:2 ~b:3 ~c:5 ~alpha:1.0 ~beta:0.0);
          submit2 ~kernel:"mm_k" ~size_arg:7 (gemm_caps ~a:4 ~b:5 ~c:6 ~alpha:1.0 ~beta:0.0);
        ];
    m
  in
  let w_data () =
    let st = rng 13 in
    let abcd = List.init 4 (fun _ -> farray_random st (n * n)) in
    let e = farray_zeros (n * n) and f = farray_zeros (n * n) and g = farray_zeros (n * n) in
    let validate () =
      let s x = snapshot x (n * n) in
      let z () = Array.make (n * n) 0.0 in
      match abcd with
      | [ a; b; c; d ] ->
        let ev = ref_gemm ~n ~alpha:1.0 ~beta:0.0 (s a) (s b) (z ()) in
        let fv = ref_gemm ~n ~alpha:1.0 ~beta:0.0 (s c) (s d) (z ()) in
        let gv = ref_gemm ~n ~alpha:1.0 ~beta:0.0 ev fv (z ()) in
        check_array ~tol:5e-3 g gv
      | _ -> false
    in
    (List.map harg abcd @ [ harg e; harg f; harg g; iarg n ], validate)
  in
  mk ~name:"3mm" ~paper:1024 ~n ~category:Polybench w_module w_data

(* SYRK: C = beta*C + alpha * A * Aᵀ  (C[i][j] += A[i][k]*A[j][k]) *)
let syrk ~n =
  let alpha = 1.5 and beta = 1.2 in
  let w_module () =
    let m = fresh_module () in
    ignore
      (K.define m ~name:"syrk" ~dims:2
         ~args:[ racc; rwacc; K.Scal f32; K.Scal f32 ]
         (fun b ~item ~args ->
           match args with
           | [ a; c; alpha_v; beta_v ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let n = K.grange b item 0 in
             K.acc_update b c [ i; j ] (fun v -> K.mulf b v beta_v);
             K.for_up b n (fun b2 k ->
                 let x = K.acc_get b2 a [ i; k ] in
                 let y = K.acc_get b2 a [ j; k ] in
                 let prod = K.mulf b2 alpha_v (K.mulf b2 x y) in
                 K.acc_update b2 c [ i; j ] (fun v -> K.addf b2 v prod))
           | _ -> assert false));
    emit_host m
      ~args:[ mem; mem; Types.Index ]
      ~buffers:[ sq_buf ~size_arg:2 0; sq_buf ~size_arg:2 1 ]
      ~body:
        [ submit2 ~kernel:"syrk" ~size_arg:2
            [ cap_r 0; cap_rw 1;
              Host.Capture_scalar (Attr.Float alpha);
              Host.Capture_scalar (Attr.Float beta) ] ];
    m
  in
  let w_data () =
    let st = rng 17 in
    let a = farray_random st (n * n) and c = farray_random st (n * n) in
    let c0 = snapshot c (n * n) in
    let validate () =
      let av = snapshot a (n * n) in
      let expect = Array.make (n * n) 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let acc = ref (beta *. c0.((i * n) + j)) in
          for k = 0 to n - 1 do
            acc := !acc +. (alpha *. av.((i * n) + k) *. av.((j * n) + k))
          done;
          expect.((i * n) + j) <- !acc
        done
      done;
      check_array c expect
    in
    ([ harg a; harg c; iarg n ], validate)
  in
  mk ~name:"SYRK" ~paper:1024 ~n ~category:Polybench w_module w_data

(* SYR2K: C = beta*C + alpha*(A*Bᵀ + B*Aᵀ) — four streamed references,
   the paper's biggest internalization win. *)
let syr2k ~n =
  let alpha = 1.5 and beta = 1.2 in
  let w_module () =
    let m = fresh_module () in
    ignore
      (K.define m ~name:"syr2k" ~dims:2
         ~args:[ racc; racc; rwacc; K.Scal f32; K.Scal f32 ]
         (fun b ~item ~args ->
           match args with
           | [ a; bb; c; alpha_v; beta_v ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let n = K.grange b item 0 in
             K.acc_update b c [ i; j ] (fun v -> K.mulf b v beta_v);
             K.for_up b n (fun b2 k ->
                 let a_ik = K.acc_get b2 a [ i; k ] in
                 let b_jk = K.acc_get b2 bb [ j; k ] in
                 let b_ik = K.acc_get b2 bb [ i; k ] in
                 let a_jk = K.acc_get b2 a [ j; k ] in
                 let t = K.addf b2 (K.mulf b2 a_ik b_jk) (K.mulf b2 b_ik a_jk) in
                 let prod = K.mulf b2 alpha_v t in
                 K.acc_update b2 c [ i; j ] (fun v -> K.addf b2 v prod))
           | _ -> assert false));
    emit_host m
      ~args:[ mem; mem; mem; Types.Index ]
      ~buffers:[ sq_buf ~size_arg:3 0; sq_buf ~size_arg:3 1; sq_buf ~size_arg:3 2 ]
      ~body:
        [ submit2 ~kernel:"syr2k" ~size_arg:3
            [ cap_r 0; cap_r 1; cap_rw 2;
              Host.Capture_scalar (Attr.Float alpha);
              Host.Capture_scalar (Attr.Float beta) ] ];
    m
  in
  let w_data () =
    let st = rng 19 in
    let a = farray_random st (n * n) and b = farray_random st (n * n)
    and c = farray_random st (n * n) in
    let c0 = snapshot c (n * n) in
    let validate () =
      let av = snapshot a (n * n) and bv = snapshot b (n * n) in
      let expect = Array.make (n * n) 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let acc = ref (beta *. c0.((i * n) + j)) in
          for k = 0 to n - 1 do
            acc :=
              !acc
              +. alpha
                 *. ((av.((i * n) + k) *. bv.((j * n) + k))
                    +. (bv.((i * n) + k) *. av.((j * n) + k)))
          done;
          expect.((i * n) + j) <- !acc
        done
      done;
      check_array c expect
    in
    ([ harg a; harg b; harg c; iarg n ], validate)
  in
  mk ~name:"SYR2K" ~paper:1024 ~n ~category:Polybench w_module w_data

(* ------------------------------------------------------------------ *)
(* Vector / matrix-vector family                                       *)
(* ------------------------------------------------------------------ *)

(* mat-vec accumulate kernel: out[g] += M[g][k]*v[k] (or transposed). *)
let matvec_kernel m ~name ~transposed =
  ignore
    (K.define m ~name ~dims:1 ~args:[ racc; racc1; rwacc1 ]
       (fun b ~item ~args ->
         match args with
         | [ mat; vec; out ] ->
           let i = K.gid b item 0 in
           let n = K.grange b item 0 in
           K.for_up b n (fun b2 k ->
               let mv =
                 if transposed then K.acc_get b2 mat [ k; i ]
                 else K.acc_get b2 mat [ i; k ]
               in
               let prod = K.mulf b2 mv (K.acc_get b2 vec [ k ]) in
               K.acc_update b2 out [ i ] (fun v -> K.addf b2 v prod))
         | _ -> assert false))

let ref_matvec ~n ~transposed mat vec out0 =
  Array.init n (fun i ->
      let acc = ref out0.(i) in
      for k = 0 to n - 1 do
        let mv = if transposed then mat.((k * n) + i) else mat.((i * n) + k) in
        acc := !acc +. (mv *. vec.(k))
      done;
      !acc)

(* ATAX: y = Aᵀ(Ax) *)
let atax ~n =
  let w_module () =
    let m = fresh_module () in
    matvec_kernel m ~name:"mv" ~transposed:false;
    matvec_kernel m ~name:"mv_t" ~transposed:true;
    emit_host m
      ~args:[ mem; mem; mem; mem; Types.Index ]
      ~buffers:
        [ sq_buf ~size_arg:4 0; vec_buf ~size_arg:4 1; vec_buf ~size_arg:4 2;
          vec_buf ~size_arg:4 3 ]
      ~body:
        [
          submit1 ~kernel:"mv" ~size_arg:4 [ cap_r 0; cap_r 1; cap_rw 2 ];
          submit1 ~kernel:"mv_t" ~size_arg:4 [ cap_r 0; cap_r 2; cap_rw 3 ];
        ];
    m
  in
  let w_data () =
    let st = rng 23 in
    let a = farray_random st (n * n) and x = farray_random st n in
    let tmp = farray_zeros n and y = farray_zeros n in
    let validate () =
      let av = snapshot a (n * n) and xv = snapshot x n in
      let t = ref_matvec ~n ~transposed:false av xv (Array.make n 0.0) in
      let expect = ref_matvec ~n ~transposed:true av t (Array.make n 0.0) in
      check_array ~tol:5e-3 y expect
    in
    ([ harg a; harg x; harg tmp; harg y; iarg n ], validate)
  in
  mk ~name:"Atax" ~paper:4096 ~n ~category:Polybench w_module w_data

(* BICG: s = rᵀA (i.e. Aᵀr); q = Ap *)
let bicg ~n =
  let w_module () =
    let m = fresh_module () in
    matvec_kernel m ~name:"mv" ~transposed:false;
    matvec_kernel m ~name:"mv_t" ~transposed:true;
    emit_host m
      ~args:[ mem; mem; mem; mem; mem; Types.Index ]
      ~buffers:
        [ sq_buf ~size_arg:5 0; vec_buf ~size_arg:5 1; vec_buf ~size_arg:5 2;
          vec_buf ~size_arg:5 3; vec_buf ~size_arg:5 4 ]
      ~body:
        [
          submit1 ~kernel:"mv_t" ~size_arg:5 [ cap_r 0; cap_r 1; cap_rw 3 ];
          submit1 ~kernel:"mv" ~size_arg:5 [ cap_r 0; cap_r 2; cap_rw 4 ];
        ];
    m
  in
  let w_data () =
    let st = rng 29 in
    let a = farray_random st (n * n) in
    let r = farray_random st n and p = farray_random st n in
    let s = farray_zeros n and q = farray_zeros n in
    let validate () =
      let av = snapshot a (n * n) in
      let sv = ref_matvec ~n ~transposed:true av (snapshot r n) (Array.make n 0.0) in
      let qv = ref_matvec ~n ~transposed:false av (snapshot p n) (Array.make n 0.0) in
      check_array ~tol:5e-3 s sv && check_array ~tol:5e-3 q qv
    in
    ([ harg a; harg r; harg p; harg s; harg q; iarg n ], validate)
  in
  mk ~name:"Bicg" ~paper:16384 ~n ~category:Polybench w_module w_data

(* MVT: x1 += A*y1; x2 += Aᵀ*y2 *)
let mvt ~n =
  let w_module () =
    let m = fresh_module () in
    matvec_kernel m ~name:"mv" ~transposed:false;
    matvec_kernel m ~name:"mv_t" ~transposed:true;
    emit_host m
      ~args:[ mem; mem; mem; mem; mem; Types.Index ]
      ~buffers:
        [ sq_buf ~size_arg:5 0; vec_buf ~size_arg:5 1; vec_buf ~size_arg:5 2;
          vec_buf ~size_arg:5 3; vec_buf ~size_arg:5 4 ]
      ~body:
        [
          submit1 ~kernel:"mv" ~size_arg:5 [ cap_r 0; cap_r 1; cap_rw 3 ];
          submit1 ~kernel:"mv_t" ~size_arg:5 [ cap_r 0; cap_r 2; cap_rw 4 ];
        ];
    m
  in
  let w_data () =
    let st = rng 31 in
    let a = farray_random st (n * n) in
    let y1 = farray_random st n and y2 = farray_random st n in
    let x1 = farray_random st n and x2 = farray_random st n in
    let x1_0 = snapshot x1 n and x2_0 = snapshot x2 n in
    let validate () =
      let av = snapshot a (n * n) in
      check_array ~tol:5e-3 x1 (ref_matvec ~n ~transposed:false av (snapshot y1 n) x1_0)
      && check_array ~tol:5e-3 x2 (ref_matvec ~n ~transposed:true av (snapshot y2 n) x2_0)
    in
    ([ harg a; harg y1; harg y2; harg x1; harg x2; iarg n ], validate)
  in
  mk ~name:"MVT" ~paper:16384 ~n ~category:Polybench w_module w_data

(* GESUMMV: y = alpha*A*x + beta*B*x, both accumulations in one loop. *)
let gesummv ~n =
  let alpha = 0.75 and beta = 1.25 in
  let w_module () =
    let m = fresh_module () in
    ignore
      (K.define m ~name:"gesummv" ~dims:1
         ~args:[ racc; racc; racc1; rwacc1; rwacc1; K.Scal f32; K.Scal f32 ]
         (fun b ~item ~args ->
           match args with
           | [ a; bb; x; tmp; y; alpha_v; beta_v ] ->
             let i = K.gid b item 0 in
             let n = K.grange b item 0 in
             K.for_up b n (fun b2 k ->
                 let xv = K.acc_get b2 x [ k ] in
                 let pa = K.mulf b2 (K.acc_get b2 a [ i; k ]) xv in
                 let pb = K.mulf b2 (K.acc_get b2 bb [ i; k ]) xv in
                 K.acc_update b2 tmp [ i ] (fun v -> K.addf b2 v pa);
                 K.acc_update b2 y [ i ] (fun v -> K.addf b2 v pb));
             let t = K.acc_get b tmp [ i ] in
             let yv = K.acc_get b y [ i ] in
             K.acc_set b y [ i ]
               (K.addf b (K.mulf b alpha_v t) (K.mulf b beta_v yv))
           | _ -> assert false));
    emit_host m
      ~args:[ mem; mem; mem; mem; mem; Types.Index ]
      ~buffers:
        [ sq_buf ~size_arg:5 0; sq_buf ~size_arg:5 1; vec_buf ~size_arg:5 2;
          vec_buf ~size_arg:5 3; vec_buf ~size_arg:5 4 ]
      ~body:
        [ submit1 ~kernel:"gesummv" ~size_arg:5
            [ cap_r 0; cap_r 1; cap_r 2; cap_rw 3; cap_rw 4;
              Host.Capture_scalar (Attr.Float alpha);
              Host.Capture_scalar (Attr.Float beta) ] ];
    m
  in
  let w_data () =
    let st = rng 37 in
    let a = farray_random st (n * n) and b = farray_random st (n * n) in
    let x = farray_random st n in
    let tmp = farray_zeros n and y = farray_zeros n in
    let validate () =
      let av = snapshot a (n * n) and bv = snapshot b (n * n) and xv = snapshot x n in
      let expect =
        Array.init n (fun i ->
            let ta = ref 0.0 and tb = ref 0.0 in
            for k = 0 to n - 1 do
              ta := !ta +. (av.((i * n) + k) *. xv.(k));
              tb := !tb +. (bv.((i * n) + k) *. xv.(k))
            done;
            (alpha *. !ta) +. (beta *. !tb))
      in
      check_array ~tol:5e-3 y expect
    in
    ([ harg a; harg b; harg x; harg tmp; harg y; iarg n ], validate)
  in
  mk ~name:"GESUMMV" ~paper:16384 ~n ~category:Polybench w_module w_data

(* ------------------------------------------------------------------ *)
(* Correlation / covariance                                            *)
(* ------------------------------------------------------------------ *)

let mean_kernel m ~name =
  (* mean[j] = (1/n) sum_i data[i][j] *)
  ignore
    (K.define m ~name ~dims:1 ~args:[ racc; rwacc1 ]
       (fun b ~item ~args ->
         match args with
         | [ data; mean ] ->
           let j = K.gid b item 0 in
           let n = K.grange b item 0 in
           K.for_up b n (fun b2 i ->
               let d = K.acc_get b2 data [ i; j ] in
               K.acc_update b2 mean [ j ] (fun v -> K.addf b2 v d));
           let nf = A.sitofp b (A.index_cast b n Types.i64) f32 in
           let mv = K.acc_get b mean [ j ] in
           K.acc_set b mean [ j ] (K.divf b mv nf)
         | _ -> assert false))

let center_kernel m ~name =
  ignore
    (K.define m ~name ~dims:2 ~args:[ rwacc; racc1 ]
       (fun b ~item ~args ->
         match args with
         | [ data; mean ] ->
           let i = K.gid b item 0 and j = K.gid b item 1 in
           let mv = K.acc_get b mean [ j ] in
           K.acc_update b data [ i; j ] (fun v -> K.subf b v mv)
         | _ -> assert false))

(* cov[j1][j2] = (1/(n-1)) sum_i data[i][j1]*data[i][j2] *)
let covar_kernel m ~name =
  ignore
    (K.define m ~name ~dims:2 ~args:[ racc; rwacc ]
       (fun b ~item ~args ->
         match args with
         | [ data; cov ] ->
           let j1 = K.gid b item 0 and j2 = K.gid b item 1 in
           let n = K.grange b item 0 in
           K.for_up b n (fun b2 i ->
               let x = K.acc_get b2 data [ i; j1 ] in
               let y = K.acc_get b2 data [ i; j2 ] in
               let p = K.mulf b2 x y in
               K.acc_update b2 cov [ j1; j2 ] (fun v -> K.addf b2 v p));
           let n1 =
             A.subf b (A.sitofp b (A.index_cast b n Types.i64) f32) (K.fconst b 1.0)
           in
           let cv = K.acc_get b cov [ j1; j2 ] in
           K.acc_set b cov [ j1; j2 ] (K.divf b cv n1)
         | _ -> assert false))

let ref_mean ~n data = Array.init n (fun j ->
    let s = ref 0.0 in
    for i = 0 to n - 1 do s := !s +. data.((i * n) + j) done;
    !s /. float_of_int n)

let covariance ~n =
  let w_module () =
    let m = fresh_module () in
    mean_kernel m ~name:"cov_mean";
    center_kernel m ~name:"cov_center";
    covar_kernel m ~name:"cov_covar";
    emit_host m
      ~args:[ mem; mem; mem; Types.Index ]
      ~buffers:[ sq_buf ~size_arg:3 0; vec_buf ~size_arg:3 1; sq_buf ~size_arg:3 2 ]
      ~body:
        [
          submit1 ~kernel:"cov_mean" ~size_arg:3 [ cap_r 0; cap_rw 1 ];
          submit2 ~kernel:"cov_center" ~size_arg:3 [ cap_rw 0; cap_r 1 ];
          submit2 ~kernel:"cov_covar" ~size_arg:3 [ cap_r 0; cap_rw 2 ];
        ];
    m
  in
  let w_data () =
    let st = rng 41 in
    let data = farray_random st (n * n) in
    let mean = farray_zeros n and cov = farray_zeros (n * n) in
    let d0 = snapshot data (n * n) in
    let validate () =
      let mv = ref_mean ~n d0 in
      let centered =
        Array.init (n * n) (fun k -> d0.(k) -. mv.(k mod n))
      in
      let expect = Array.make (n * n) 0.0 in
      for j1 = 0 to n - 1 do
        for j2 = 0 to n - 1 do
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            s := !s +. (centered.((i * n) + j1) *. centered.((i * n) + j2))
          done;
          expect.((j1 * n) + j2) <- !s /. float_of_int (n - 1)
        done
      done;
      check_array ~tol:5e-3 cov expect
    in
    ([ harg data; harg mean; harg cov; iarg n ], validate)
  in
  mk ~name:"Covariance" ~paper:1024 ~n ~category:Polybench w_module w_data

let correlation ~n =
  let w_module () =
    let m = fresh_module () in
    mean_kernel m ~name:"corr_mean";
    (* std[j] = sqrt((1/n) sum_i (data[i][j]-mean[j])^2), floored at 0.1 *)
    ignore
      (K.define m ~name:"corr_std" ~dims:1 ~args:[ racc; racc1; rwacc1 ]
         (fun b ~item ~args ->
           match args with
           | [ data; mean; std ] ->
             let j = K.gid b item 0 in
             let n = K.grange b item 0 in
             let mv = K.acc_get b mean [ j ] in
             K.for_up b n (fun b2 i ->
                 let d = K.subf b2 (K.acc_get b2 data [ i; j ]) mv in
                 let sq = K.mulf b2 d d in
                 K.acc_update b2 std [ j ] (fun v -> K.addf b2 v sq));
             let nf = A.sitofp b (A.index_cast b n Types.i64) f32 in
             let sv = A.sqrt b (K.divf b (K.acc_get b std [ j ]) nf) in
             let floor_v = K.fconst b 0.1 in
             let sv = A.maxf b sv floor_v in
             K.acc_set b std [ j ] sv
           | _ -> assert false));
    (* normalize: data[i][j] = (data[i][j]-mean[j]) / (sqrt(n)*std[j]) *)
    ignore
      (K.define m ~name:"corr_norm" ~dims:2 ~args:[ rwacc; racc1; racc1 ]
         (fun b ~item ~args ->
           match args with
           | [ data; mean; std ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let n = K.grange b item 0 in
             let mv = K.acc_get b mean [ j ] in
             let sv = K.acc_get b std [ j ] in
             let nf = A.sqrt b (A.sitofp b (A.index_cast b n Types.i64) f32) in
             let denom = K.mulf b nf sv in
             K.acc_update b data [ i; j ] (fun v ->
                 K.divf b (K.subf b v mv) denom)
           | _ -> assert false));
    covar_kernel m ~name:"corr_corr";
    emit_host m
      ~args:[ mem; mem; mem; mem; Types.Index ]
      ~buffers:
        [ sq_buf ~size_arg:4 0; vec_buf ~size_arg:4 1; vec_buf ~size_arg:4 2;
          sq_buf ~size_arg:4 3 ]
      ~body:
        [
          submit1 ~kernel:"corr_mean" ~size_arg:4 [ cap_r 0; cap_rw 1 ];
          submit1 ~kernel:"corr_std" ~size_arg:4 [ cap_r 0; cap_r 1; cap_rw 2 ];
          submit2 ~kernel:"corr_norm" ~size_arg:4 [ cap_rw 0; cap_r 1; cap_r 2 ];
          submit2 ~kernel:"corr_corr" ~size_arg:4 [ cap_r 0; cap_rw 3 ];
        ];
    m
  in
  let w_data () =
    let st = rng 43 in
    let data = farray_random st (n * n) in
    let mean = farray_zeros n and std = farray_zeros n and corr = farray_zeros (n * n) in
    let d0 = snapshot data (n * n) in
    let validate () =
      let nf = float_of_int n in
      let mv = ref_mean ~n d0 in
      let sv =
        Array.init n (fun j ->
            let s = ref 0.0 in
            for i = 0 to n - 1 do
              let d = d0.((i * n) + j) -. mv.(j) in
              s := !s +. (d *. d)
            done;
            Float.max (sqrt (!s /. nf)) 0.1)
      in
      let norm =
        Array.init (n * n) (fun k ->
            let j = k mod n in
            (d0.(k) -. mv.(j)) /. (sqrt nf *. sv.(j)))
      in
      let expect = Array.make (n * n) 0.0 in
      for j1 = 0 to n - 1 do
        for j2 = 0 to n - 1 do
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            s := !s +. (norm.((i * n) + j1) *. norm.((i * n) + j2))
          done;
          expect.((j1 * n) + j2) <- !s /. (nf -. 1.0)
        done
      done;
      check_array ~tol:1e-2 corr expect
    in
    ([ harg data; harg mean; harg std; harg corr; iarg n ], validate)
  in
  mk ~name:"Correlation" ~paper:1024 ~n ~category:Polybench w_module w_data

(* ------------------------------------------------------------------ *)
(* Convolutions and stencils                                           *)
(* ------------------------------------------------------------------ *)

(* 2D convolution with a fixed 3x3 kernel, interior points only. *)
let conv2d_coeffs =
  [| 0.2; -0.3; 0.4; -0.5; 0.6; -0.7; 0.8; -0.9; 0.10 |]

let conv2d ~n =
  let w_module () =
    let m = fresh_module () in
    ignore
      (K.define m ~name:"conv2d" ~dims:2 ~args:[ racc; wacc ]
         (fun b ~item ~args ->
           match args with
           | [ inp; out ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let n = K.grange b item 0 in
             let one = K.idx b 1 in
             let n1 = K.subi b n one in
             let interior d =
               let lo = A.cmpi b A.Sge d one in
               let hi = A.cmpi b A.Slt d n1 in
               A.andi b lo hi
             in
             let cond = A.andi b (interior i) (interior j) in
             ignore
               (Dialects.Scf.if_ b cond
                  ~then_:(fun b2 ->
                    let acc = ref (K.fconst b2 0.0) in
                    List.iteri
                      (fun idx coef ->
                        let di = (idx / 3) - 1 and dj = (idx mod 3) - 1 in
                        let ii = K.addi b2 i (K.idx b2 di) in
                        let jj = K.addi b2 j (K.idx b2 dj) in
                        let v = K.acc_get b2 inp [ ii; jj ] in
                        acc := K.addf b2 !acc (K.mulf b2 (K.fconst b2 coef) v))
                      (Array.to_list conv2d_coeffs);
                    K.acc_set b2 out [ i; j ] !acc;
                    [])
                  ())
           | _ -> assert false));
    emit_host m
      ~args:[ mem; mem; Types.Index ]
      ~buffers:[ sq_buf ~size_arg:2 0; sq_buf ~size_arg:2 1 ]
      ~body:[ submit2 ~kernel:"conv2d" ~size_arg:2 [ cap_r 0; cap_w 1 ] ];
    m
  in
  let w_data () =
    let st = rng 47 in
    let inp = farray_random st (n * n) and out = farray_zeros (n * n) in
    let i0 = snapshot inp (n * n) in
    let validate () =
      let ok = ref true in
      for i = 1 to n - 2 do
        for j = 1 to n - 2 do
          let s = ref 0.0 in
          Array.iteri
            (fun idx coef ->
              let di = (idx / 3) - 1 and dj = (idx mod 3) - 1 in
              s := !s +. (coef *. i0.(((i + di) * n) + j + dj)))
            conv2d_coeffs;
          if not (approx_eq (read_f out ((i * n) + j)) !s) then ok := false
        done
      done;
      !ok
    in
    ([ harg inp; harg out; iarg n ], validate)
  in
  mk ~name:"2DConvolution" ~paper:4096 ~n ~category:Polybench w_module w_data

(* 3D convolution: 2-D launch over (i,j), k-loop inside; 3-D accessors. *)
let conv3d ~n =
  let racc3 = K.Acc (3, S.Read, f32) and wacc3 = K.Acc (3, S.Write, f32) in
  let w_module () =
    let m = fresh_module () in
    ignore
      (K.define m ~name:"conv3d" ~dims:2 ~args:[ racc3; wacc3 ]
         (fun b ~item ~args ->
           match args with
           | [ inp; out ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let n = K.grange b item 0 in
             let one = K.idx b 1 in
             let n1 = K.subi b n one in
             let interior d =
               A.andi b (A.cmpi b A.Sge d one) (A.cmpi b A.Slt d n1)
             in
             let cond = A.andi b (interior i) (interior j) in
             ignore
               (Dialects.Scf.if_ b cond
                  ~then_:(fun b2 ->
                    K.for_range b2 ~lb:one ~ub:n1 ~step:(K.idx b2 1)
                      (fun b3 k ->
                        let get di dj dk =
                          let ii = K.addi b3 i (K.idx b3 di) in
                          let jj = K.addi b3 j (K.idx b3 dj) in
                          let kk = K.addi b3 k (K.idx b3 dk) in
                          K.acc_get b3 inp [ ii; jj; kk ]
                        in
                        let s =
                          K.addf b3
                            (K.addf b3
                               (K.mulf b3 (K.fconst b3 0.5) (get (-1) 0 0))
                               (K.mulf b3 (K.fconst b3 (-0.25)) (get 1 0 0)))
                            (K.addf b3
                               (K.mulf b3 (K.fconst b3 0.125) (get 0 (-1) 1))
                               (K.mulf b3 (K.fconst b3 0.0625) (get 0 1 (-1))))
                        in
                        K.acc_set b3 out [ i; j; k ] s);
                    [])
                  ())
           | _ -> assert false));
    emit_host m
      ~args:[ mem; mem; Types.Index ]
      ~buffers:
        [
          { Host.buf_data_arg = 0;
            buf_dims = [ Host.Arg 2; Host.Arg 2; Host.Arg 2 ]; buf_element = f32 };
          { Host.buf_data_arg = 1;
            buf_dims = [ Host.Arg 2; Host.Arg 2; Host.Arg 2 ]; buf_element = f32 };
        ]
      ~body:[ submit2 ~kernel:"conv3d" ~size_arg:2 [ cap_r 0; cap_w 1 ] ];
    m
  in
  let w_data () =
    let st = rng 53 in
    let inp = farray_random st (n * n * n) and out = farray_zeros (n * n * n) in
    let i0 = snapshot inp (n * n * n) in
    let at i j k = i0.((((i * n) + j) * n) + k) in
    let validate () =
      let ok = ref true in
      for i = 1 to n - 2 do
        for j = 1 to n - 2 do
          for k = 1 to n - 2 do
            let s =
              (0.5 *. at (i - 1) j k) +. (-0.25 *. at (i + 1) j k)
              +. (0.125 *. at i (j - 1) (k + 1))
              +. (0.0625 *. at i (j + 1) (k - 1))
            in
            if not (approx_eq (read_f out ((((i * n) + j) * n) + k)) s) then
              ok := false
          done
        done
      done;
      !ok
    in
    ([ harg inp; harg out; iarg n ], validate)
  in
  {
    (mk ~name:"3DConvolution" ~paper:1024 ~n ~category:Polybench w_module w_data) with
    w_acpp_ok = false (* models an AdaptiveCpp validation failure (Fig. 3) *);
  }

(* FDTD-2D: three kernels per simulated time step (host loop). *)
let fdtd2d ~n ~steps =
  let w_module () =
    let m = fresh_module () in
    ignore
      (K.define m ~name:"fdtd_ex" ~dims:2 ~args:[ rwacc; racc ]
         (fun b ~item ~args ->
           match args with
           | [ ex; hz ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let one = K.idx b 1 in
             let cond = A.cmpi b A.Sge j one in
             ignore
               (Dialects.Scf.if_ b cond
                  ~then_:(fun b2 ->
                    let j1 = K.subi b2 j one in
                    let d = K.subf b2 (K.acc_get b2 hz [ i; j ]) (K.acc_get b2 hz [ i; j1 ]) in
                    K.acc_update b2 ex [ i; j ] (fun v ->
                        K.subf b2 v (K.mulf b2 (K.fconst b2 0.5) d));
                    [])
                  ())
           | _ -> assert false));
    ignore
      (K.define m ~name:"fdtd_ey" ~dims:2 ~args:[ rwacc; racc ]
         (fun b ~item ~args ->
           match args with
           | [ ey; hz ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let one = K.idx b 1 in
             let cond = A.cmpi b A.Sge i one in
             ignore
               (Dialects.Scf.if_ b cond
                  ~then_:(fun b2 ->
                    let i1 = K.subi b2 i one in
                    let d = K.subf b2 (K.acc_get b2 hz [ i; j ]) (K.acc_get b2 hz [ i1; j ]) in
                    K.acc_update b2 ey [ i; j ] (fun v ->
                        K.subf b2 v (K.mulf b2 (K.fconst b2 0.5) d));
                    [])
                  ())
           | _ -> assert false));
    ignore
      (K.define m ~name:"fdtd_hz" ~dims:2 ~args:[ rwacc; racc; racc ]
         (fun b ~item ~args ->
           match args with
           | [ hz; ex; ey ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let n = K.grange b item 0 in
             let one = K.idx b 1 in
             let n1 = K.subi b n one in
             let cond =
               A.andi b (A.cmpi b A.Slt i n1) (A.cmpi b A.Slt j n1)
             in
             ignore
               (Dialects.Scf.if_ b cond
                  ~then_:(fun b2 ->
                    let i1 = K.addi b2 i one and j1 = K.addi b2 j one in
                    let dx = K.subf b2 (K.acc_get b2 ex [ i; j1 ]) (K.acc_get b2 ex [ i; j ]) in
                    let dy = K.subf b2 (K.acc_get b2 ey [ i1; j ]) (K.acc_get b2 ey [ i; j ]) in
                    K.acc_update b2 hz [ i; j ] (fun v ->
                        K.subf b2 v (K.mulf b2 (K.fconst b2 0.7) (K.addf b2 dx dy)));
                    [])
                  ())
           | _ -> assert false));
    emit_host m
      ~args:[ mem; mem; mem; Types.Index; Types.Index ]
      ~buffers:[ sq_buf ~size_arg:3 0; sq_buf ~size_arg:3 1; sq_buf ~size_arg:3 2 ]
      ~body:
        [
          Host.Repeat
            ( Host.Arg 4,
              [
                submit2 ~kernel:"fdtd_ex" ~size_arg:3 [ cap_rw 0; cap_r 2 ];
                submit2 ~kernel:"fdtd_ey" ~size_arg:3 [ cap_rw 1; cap_r 2 ];
                submit2 ~kernel:"fdtd_hz" ~size_arg:3 [ cap_rw 2; cap_r 0; cap_r 1 ];
              ] );
        ];
    m
  in
  let w_data () =
    let st = rng 59 in
    let ex = farray_random st (n * n) and ey = farray_random st (n * n)
    and hz = farray_random st (n * n) in
    let exv = snapshot ex (n * n) and eyv = snapshot ey (n * n)
    and hzv = snapshot hz (n * n) in
    let validate () =
      (* Host reference simulation. *)
      for _ = 1 to steps do
        for i = 0 to n - 1 do
          for j = 1 to n - 1 do
            exv.((i * n) + j) <-
              exv.((i * n) + j)
              -. (0.5 *. (hzv.((i * n) + j) -. hzv.((i * n) + j - 1)))
          done
        done;
        for i = 1 to n - 1 do
          for j = 0 to n - 1 do
            eyv.((i * n) + j) <-
              eyv.((i * n) + j)
              -. (0.5 *. (hzv.((i * n) + j) -. hzv.(((i - 1) * n) + j)))
          done
        done;
        for i = 0 to n - 2 do
          for j = 0 to n - 2 do
            hzv.((i * n) + j) <-
              hzv.((i * n) + j)
              -. 0.7
                 *. (exv.((i * n) + j + 1) -. exv.((i * n) + j)
                    +. eyv.(((i + 1) * n) + j)
                    -. eyv.((i * n) + j))
          done
        done
      done;
      check_array ~tol:1e-2 hz hzv
    in
    ([ harg ex; harg ey; harg hz; iarg n; iarg steps ], validate)
  in
  mk ~name:"FDTD2D" ~paper:1024 ~n ~category:Polybench w_module w_data

(* Gramschmidt (simplified column step): the R-accumulation loop sits in a
   divergent region (only the diagonal work-items run it), which is the
   case the paper reports as rejected by the Uniformity analysis. *)
let gramschmidt ~n =
  let w_module () =
    let m = fresh_module () in
    ignore
      (K.define m ~name:"gs_step" ~dims:2 ~args:[ racc; rwacc; wacc ]
         (fun b ~item ~args ->
           match args with
           | [ a; r; q ] ->
             let i = K.gid b item 0 and j = K.gid b item 1 in
             let n = K.grange b item 0 in
             let diag = A.cmpi b A.Eq i j in
             (* Divergent: only diagonal work-items run the column-norm
                loop. The a[t][j] access stream makes it an
                internalization candidate, but the Uniformity analysis
                must reject it — a group barrier here would deadlock
                (the case Section VIII reports for Gramschmidt). *)
             ignore
               (Dialects.Scf.if_ b diag
                  ~then_:(fun b2 ->
                    let zero = K.fconst b2 0.0 in
                    let sum =
                      Dialects.Scf.for_ b2 ~lb:(K.idx b2 0) ~ub:n
                        ~step:(K.idx b2 1) ~iter_args:[ zero ]
                        (fun b3 t acc ->
                          match acc with
                          | [ acc ] ->
                            let x = K.acc_get b3 a [ t; j ] in
                            [ K.addf b3 acc (K.mulf b3 x x) ]
                          | _ -> assert false)
                    in
                    K.acc_set b2 r [ j; j ] (Core.result sum 0);
                    [])
                  ());
             (* All work-items: Q[i][j] = A[i][j] scaled by a per-column
                normalizer derived from column sums recomputed locally. *)
             let col = K.acc_get b a [ i; j ] in
             K.acc_set b q [ i; j ] (K.mulf b col (K.fconst b 0.5))
           | _ -> assert false));
    emit_host m
      ~args:[ mem; mem; mem; Types.Index ]
      ~buffers:[ sq_buf ~size_arg:3 0; sq_buf ~size_arg:3 1; sq_buf ~size_arg:3 2 ]
      ~body:[ submit2 ~kernel:"gs_step" ~size_arg:3 [ cap_r 0; cap_rw 1; cap_w 2 ] ];
    m
  in
  let w_data () =
    let st = rng 61 in
    let a = farray_random st (n * n) in
    let r = farray_zeros (n * n) and q = farray_zeros (n * n) in
    let a0 = snapshot a (n * n) in
    let validate () =
      let ok = ref true in
      for j = 0 to n - 1 do
        let s = ref 0.0 in
        for t = 0 to n - 1 do
          s := !s +. (a0.((t * n) + j) *. a0.((t * n) + j))
        done;
        if not (approx_eq ~tol:5e-3 (read_f r ((j * n) + j)) !s) then ok := false
      done;
      for k = 0 to (n * n) - 1 do
        if not (approx_eq (read_f q k) (0.5 *. a0.(k))) then ok := false
      done;
      !ok
    in
    ([ harg a; harg r; harg q; iarg n ], validate)
  in
  {
    (mk ~name:"Gramschmidt" ~paper:1024 ~n ~category:Polybench w_module w_data) with
    w_acpp_ok = false (* models an AdaptiveCpp validation failure (Fig. 3) *);
  }

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let all ?(scale = 1) () =
  let s n = max 16 (n * scale) in
  [
    two_mm ~n:(s 48);
    three_mm ~n:(s 48);
    conv3d ~n:(s 24);
    conv2d ~n:(s 96);
    atax ~n:(s 256);
    bicg ~n:(s 256);
    correlation ~n:(s 64);
    covariance ~n:(s 64);
    fdtd2d ~n:(s 32) ~steps:6;
    gemm ~n:(s 64);
    gesummv ~n:(s 256);
    gramschmidt ~n:(s 64);
    mvt ~n:(s 256);
    syr2k ~n:(s 48);
    syrk ~n:(s 64);
  ]
