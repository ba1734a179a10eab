(* Loop-internalization tests (Section VI-C): the tiling + local-memory
   prefetch transformation, its divergence rejection, and end-to-end
   result equivalence on the simulator. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types
module LI = Sycl_core.Loop_internalization

let run_internalization m =
  let stats = Pass.Stats.create () in
  LI.pass.Pass.run m stats;
  stats

(* A gemm-style kernel body: for k: acc += A[i][k]*B[k][j]; C[i][j] = acc.
   Already in iter_args form so internalization is tested in isolation. *)
let gemm_kernel ?(divergent = false) m =
  Sycl_frontend.Kernel.define m ~name:"mm" ~dims:2
    ~args:
      [ K.Acc (2, S.Read, Types.f32); K.Acc (2, S.Read, Types.f32);
        K.Acc (2, S.Write, Types.f32) ]
    (fun b ~item ~args ->
      match args with
      | [ a; bb; c ] ->
        let i = K.gid b item 0 and j = K.gid b item 1 in
        let n = K.grange b item 0 in
        let zero = A.const_index b 0 in
        let one = A.const_index b 1 in
        let emit_loop builder =
          let loop =
            Dialects.Scf.for_ builder ~lb:zero ~ub:n ~step:one
              ~iter_args:[ K.fconst builder 0.0 ]
              (fun b2 k acc ->
                let av = K.acc_get b2 a [ i; k ] in
                let bv = K.acc_get b2 bb [ k; j ] in
                [ K.addf b2 (List.hd acc) (K.mulf b2 av bv) ])
          in
          K.acc_set builder c [ i; j ] (Core.result loop 0)
        in
        if divergent then begin
          let cond = A.cmpi b A.Sgt i zero in
          ignore
            (Dialects.Scf.if_ b cond
               ~then_:(fun b2 ->
                 emit_loop b2;
                 [])
               ())
        end
        else emit_loop b
      | _ -> assert false)

let tests_list =
  [
    Alcotest.test_case "gemm-style loop internalizes: tiles and barriers" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let f = gemm_kernel m in
        Core.set_attr f "sycl.wg_size" (Attr.Array [ Attr.Int 16; Attr.Int 16 ]);
        let stats = run_internalization m in
        Helpers.check_verifies m;
        Alcotest.(check int) "one loop internalized" 1
          (Pass.Stats.get stats "internalization.loops");
        Alcotest.(check int) "two refs prefetched" 2
          (Pass.Stats.get stats "internalization.prefetched");
        Alcotest.(check int) "two local tiles" 2 (Helpers.count_ops f "gpu.alloc_local");
        Alcotest.(check int) "two barriers" 2 (Helpers.count_ops f "gpu.barrier");
        (* Versioned: the original loop survives in the else branch. *)
        Alcotest.(check bool) "versioning scf.if present" true
          (Helpers.count_ops f "scf.if" >= 1));
    Alcotest.test_case "divergent region rejected (the Gramschmidt case)" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let f = gemm_kernel ~divergent:true m in
        Core.set_attr f "sycl.wg_size" (Attr.Array [ Attr.Int 16; Attr.Int 16 ]);
        let stats = run_internalization m in
        Alcotest.(check int) "rejected" 1
          (Pass.Stats.get stats "internalization.rejected-divergent");
        Alcotest.(check int) "no tiles" 0 (Helpers.count_ops f "gpu.alloc_local");
        Alcotest.(check int) "no barriers" 0 (Helpers.count_ops f "gpu.barrier"));
    Alcotest.test_case "non-square work-group size declines" `Quick (fun () ->
        let m = Helpers.fresh_module () in
        let f = gemm_kernel m in
        Core.set_attr f "sycl.wg_size" (Attr.Array [ Attr.Int 16; Attr.Int 8 ]);
        let stats = run_internalization m in
        Alcotest.(check int) "no loops internalized" 0
          (Pass.Stats.get stats "internalization.loops"));
    Alcotest.test_case "internalized kernel computes the same results" `Quick
      (fun () ->
        (* Run the same kernel before and after the pass on the simulator
           and compare the output buffers. *)
        let n = 32 in
        let module Interp = Sycl_sim.Interp in
        let module Memory = Sycl_sim.Memory in
        let run m f =
          let a = Memory.alloc ~label:"A" ~size:(n * n) () in
          let bb = Memory.alloc ~label:"B" ~size:(n * n) () in
          let c = Memory.alloc ~label:"C" ~size:(n * n) () in
          let st = Random.State.make [| 42 |] in
          for idx = 0 to (n * n) - 1 do
            Memory.set_float a idx (Random.State.float st 1.0);
            Memory.set_float bb idx (Random.State.float st 1.0)
          done;
          let desc alloc =
            Interp.Acc
              {
                Interp.a_alloc = alloc;
                a_range = [| n; n |];
                a_mem_range = [| n; n |];
                a_offset = [| 0; 0 |];
                a_is_float = true;
              }
          in
          let stats =
            Interp.launch ~config:Helpers.sim ~module_op:m ~kernel:f
              ~args:[| Interp.Item; desc a; desc bb; desc c |]
              ~global:[ n; n ] ~wg_size:[ 16; 16 ] ()
          in
          (Array.init (Memory.size c) (Memory.get_float c),
           stats)
        in
        let m1 = Helpers.fresh_module () in
        let f1 = gemm_kernel m1 in
        let before, stats_before = run m1 f1 in
        let m2 = Helpers.fresh_module () in
        let f2 = gemm_kernel m2 in
        Core.set_attr f2 "sycl.wg_size" (Attr.Array [ Attr.Int 16; Attr.Int 16 ]);
        ignore (run_internalization m2);
        let after, stats_after = run m2 f2 in
        Array.iteri
          (fun i x ->
            if Float.abs (x -. after.(i)) > 1e-3 then
              Alcotest.failf "mismatch at %d: %f vs %f" i x after.(i))
          before;
        (* And it actually moved traffic from global to local memory. *)
        Alcotest.(check bool) "fewer global transactions" true
          (stats_after.Sycl_sim.Cost.global_transactions
          < stats_before.Sycl_sim.Cost.global_transactions);
        Alcotest.(check bool) "local transactions appeared" true
          (stats_after.Sycl_sim.Cost.local_transactions > 0);
        Alcotest.(check bool) "barriers executed" true
          (stats_after.Sycl_sim.Cost.barriers > 0));
    Alcotest.test_case "runtime fallback when the launch wg mismatches" `Quick
      (fun () ->
        (* Kernel compiled without static wg info assumes the preferred
           size and re-checks at runtime: launching with wg 8x8 must take
           the original (un-tiled) loop and still be correct. *)
        let n = 16 in
        let module Interp = Sycl_sim.Interp in
        let module Memory = Sycl_sim.Memory in
        let m = Helpers.fresh_module () in
        let f = gemm_kernel m in
        ignore (run_internalization m);
        let a = Memory.alloc ~label:"A" ~size:(n * n) () in
        let bb = Memory.alloc ~label:"B" ~size:(n * n) () in
        let c = Memory.alloc ~label:"C" ~size:(n * n) () in
        for idx = 0 to (n * n) - 1 do
          Memory.set_float a idx 1.0;
          Memory.set_float bb idx 1.0
        done;
        let desc alloc =
          Interp.Acc
            {
              Interp.a_alloc = alloc;
              a_range = [| n; n |];
              a_mem_range = [| n; n |];
              a_offset = [| 0; 0 |];
              a_is_float = true;
            }
        in
        let stats =
          Interp.launch ~config:Helpers.sim ~module_op:m ~kernel:f
            ~args:[| Interp.Item; desc a; desc bb; desc c |]
            ~global:[ n; n ] ~wg_size:[ 8; 8 ] ()
        in
        Alcotest.(check bool) "no barriers on the fallback path" true
          (stats.Sycl_sim.Cost.barriers = 0);
        Array.iter
          (function
            | Memory.F x ->
              if Float.abs (x -. float_of_int n) > 1e-3 then
                Alcotest.failf "bad result %f" x
            | Memory.I _ -> Alcotest.fail "int cell")
          (Helpers.cells c));
    Alcotest.test_case "rank-1 streamed access tiles in a 1-D kernel" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let f =
          Sycl_frontend.Kernel.define m ~name:"dot1d" ~dims:1
            ~args:[ K.Acc (1, S.Read, Types.f32); K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              match args with
              | [ v; out ] ->
                let i = K.gid b item 0 in
                let n = K.grange b item 0 in
                let zero = A.const_index b 0 in
                let one = A.const_index b 1 in
                let loop =
                  Dialects.Scf.for_ b ~lb:zero ~ub:n ~step:one
                    ~iter_args:[ K.fconst b 0.0 ]
                    (fun b2 k acc ->
                      [ K.addf b2 (List.hd acc) (K.acc_get b2 v [ k ]) ])
                in
                K.acc_set b out [ i ] (Core.result loop 0)
              | _ -> assert false)
        in
        Core.set_attr f "sycl.wg_size" (Attr.Array [ Attr.Int 64 ]);
        let stats = run_internalization m in
        Helpers.check_verifies m;
        Alcotest.(check int) "one ref prefetched" 1
          (Pass.Stats.get stats "internalization.prefetched"));
  ]

let tests = ("loop-internalization", tests_list)
