(* Parallel multi-domain simulator backend: sequential-vs-parallel
   equivalence (stats, memory, profile), the cross-group race detector,
   and identical error reporting under both backends. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types
module Interp = Sycl_sim.Interp
module Memory = Sycl_sim.Memory
module Cost = Sycl_sim.Cost

let acc_desc ?(range = [| 16 |]) alloc =
  Interp.Acc
    {
      Interp.a_alloc = alloc;
      a_range = range;
      a_mem_range = range;
      a_offset = Array.map (fun _ -> 0) range;
      a_is_float = true;
    }

let launch ?(wg = [ 16 ]) ?(global = [ 64 ]) ?(domains = Helpers.sim_domains)
    ?(check_races = false) m k args =
  Interp.launch
    ~config:{ Helpers.sim with Sycl_sim.Sim_config.domains; check_races }
    ~module_op:m ~kernel:k ~args ~global ~wg_size:wg ()

let floats alloc =
  Array.init (Memory.size alloc) (Memory.get_float alloc)

let stats_str s = Format.asprintf "%a" Cost.pp_launch_stats s

(* A small matmul: c[i,j] = sum_k a[i,k] * b[k,j]. *)
let matmul_kernel m ~n =
  Sycl_frontend.Kernel.define m ~name:"matmul" ~dims:2
    ~args:
      [ K.Acc (2, S.Read, Types.f32); K.Acc (2, S.Read, Types.f32);
        K.Acc (2, S.Write, Types.f32) ]
    (fun b ~item ~args ->
      match args with
      | [ a; bm; c ] ->
        let i = K.gid b item 0 and j = K.gid b item 1 in
        let zero = A.const_index b 0 in
        let one = A.const_index b 1 in
        let nn = A.const_index b n in
        let loop =
          Dialects.Scf.for_ b ~lb:zero ~ub:nn ~step:one
            ~iter_args:[ K.fconst b 0.0 ]
            (fun bb kk acc ->
              let av = K.acc_get bb a [ i; kk ] in
              let bv = K.acc_get bb bm [ kk; j ] in
              [ K.addf bb (List.hd acc) (K.mulf bb av bv) ])
        in
        K.acc_set b c [ i; j ] (Core.result loop 0)
      | _ -> assert false)

(* The barrier stencil from the simulator tests: each item writes
   tile[lid], barriers, then reads the mirrored slot. *)
let stencil_kernel m =
  Sycl_frontend.Kernel.define m ~name:"rev" ~dims:1 ~nd:true
    ~args:[ K.Acc (1, S.Write, Types.f32) ]
    (fun b ~item ~args ->
      let out = List.hd args in
      let lid = K.lid b item 0 in
      let gid = K.gid b item 0 in
      let tile = Dialects.Gpu.alloc_local b [ 16 ] Types.f32 in
      let v = A.sitofp b (A.index_cast b lid Types.i64) Types.f32 in
      Dialects.Memref.store b v tile [ lid ];
      Dialects.Gpu.barrier b;
      let fifteen = A.const_index b 15 in
      let mirror = A.subi b fifteen lid in
      K.acc_set b out [ gid ] (Dialects.Memref.load b tile [ mirror ]))

let tests_list =
  [
    Alcotest.test_case "matmul: parallel stats and memory match sequential"
      `Quick (fun () ->
        let n = 8 in
        let run domains =
          let m = Helpers.fresh_module () in
          let k = matmul_kernel m ~n in
          let a = Memory.alloc ~label:"a" ~size:(n * n) () in
          let b = Memory.alloc ~label:"b" ~size:(n * n) () in
          let c = Memory.alloc ~label:"c" ~size:(n * n) () in
          for i = 0 to Memory.size a - 1 do
            Memory.set_float a i (float_of_int (i mod 7))
          done;
          for i = 0 to Memory.size b - 1 do
            Memory.set_float b i (float_of_int (i mod 5))
          done;
          let range = [| n; n |] in
          let stats =
            launch ~global:[ n; n ] ~wg:[ 4; 4 ] ~domains m k
              [| Interp.Item; acc_desc ~range a; acc_desc ~range b;
                 acc_desc ~range c |]
          in
          (stats_str stats, floats c)
        in
        let seq_stats, seq_c = run 1 in
        let par_stats, par_c = run 4 in
        Alcotest.(check string) "identical stats" seq_stats par_stats;
        Array.iteri
          (fun i x -> Alcotest.(check (float 0.0)) "identical memory" seq_c.(i) x)
          par_c);
    Alcotest.test_case "barrier stencil: parallel matches sequential" `Quick
      (fun () ->
        let run domains =
          let m = Helpers.fresh_module () in
          let k = stencil_kernel m in
          let c = Memory.alloc ~label:"c" ~size:64 () in
          let stats =
            launch ~global:[ 64 ] ~wg:[ 16 ] ~domains m k
              [| Interp.Item; acc_desc ~range:[| 64 |] c |]
          in
          (stats_str stats, floats c)
        in
        let seq_stats, seq_c = run 1 in
        let par_stats, par_c = run 4 in
        Alcotest.(check string) "identical stats (incl. barriers)" seq_stats
          par_stats;
        Array.iteri
          (fun i x -> Alcotest.(check (float 0.0)) "identical memory" seq_c.(i) x)
          par_c;
        (* Sanity: the stencil really computes the mirrored local id. *)
        Array.iteri
          (fun i x ->
            Alcotest.(check (float 1e-6)) "mirror"
              (float_of_int (15 - (i mod 16)))
              x)
          par_c);
    Alcotest.test_case "more domains than groups degrades gracefully" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k = stencil_kernel m in
        let c = Memory.alloc ~label:"c" ~size:32 () in
        let stats =
          launch ~global:[ 32 ] ~wg:[ 16 ] ~domains:16 m k
            [| Interp.Item; acc_desc ~range:[| 32 |] c |]
        in
        Alcotest.(check int) "2 work-groups" 2 stats.Cost.work_groups;
        Alcotest.(check int) "32 work-items" 32 stats.Cost.work_items);
    Alcotest.test_case "racy kernel caught by the race detector" `Quick
      (fun () ->
        (* Every work-item of every group writes out[0]: the two groups'
           footprints overlap on cell 0. *)
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"racy" ~dims:1
            ~args:[ K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let _i = K.gid b item 0 in
              K.acc_set b out [ A.const_index b 0 ] (K.fconst b 1.0))
        in
        let c = Memory.alloc ~label:"out" ~size:32 () in
        match
          launch ~global:[ 32 ] ~wg:[ 16 ] ~check_races:true m k
            [| Interp.Item; acc_desc ~range:[| 32 |] c |]
        with
        | _ -> Alcotest.fail "expected Race_detected"
        | exception Interp.Race_detected races ->
          Alcotest.(check bool) "at least one race" true (races <> []);
          let r = List.hd races in
          Alcotest.(check int) "cell 0" 0 r.Interp.r_cell;
          Alcotest.(check int) "group 0 first" 0 r.Interp.r_group_a;
          Alcotest.(check int) "group 1 second" 1 r.Interp.r_group_b;
          Alcotest.(check string) "names the buffer" "out" r.Interp.r_label);
    Alcotest.test_case "race-free kernel passes the race detector" `Quick
      (fun () ->
        let m = Helpers.fresh_module () in
        let k =
          Sycl_frontend.Kernel.define m ~name:"ok" ~dims:1
            ~args:[ K.Acc (1, S.Write, Types.f32) ]
            (fun b ~item ~args ->
              let out = List.hd args in
              let i = K.gid b item 0 in
              K.acc_set b out [ i ] (K.fconst b 1.0))
        in
        let c = Memory.alloc ~label:"out" ~size:64 () in
        let stats =
          launch ~global:[ 64 ] ~wg:[ 16 ] ~check_races:true ~domains:4 m k
            [| Interp.Item; acc_desc ~range:[| 64 |] c |]
        in
        Alcotest.(check int) "4 work-groups" 4 stats.Cost.work_groups);
    Alcotest.test_case "divergent barrier fails identically under both backends"
      `Quick (fun () ->
        let diverges domains =
          let m = Helpers.fresh_module () in
          let k =
            Sycl_frontend.Kernel.define m ~name:"bad" ~dims:1 ~nd:true ~args:[]
              (fun b ~item ~args:_ ->
                let lid = K.lid b item 0 in
                let zero = A.const_index b 0 in
                let c = A.cmpi b A.Eq lid zero in
                ignore
                  (Dialects.Scf.if_ b c
                     ~then_:(fun bb ->
                       Dialects.Gpu.barrier bb;
                       [])
                     ()))
          in
          match launch ~global:[ 64 ] ~wg:[ 16 ] ~domains m k [| Interp.Item |] with
          | _ -> false
          | exception Interp.Barrier_divergence -> true
        in
        Alcotest.(check bool) "sequential raises Barrier_divergence" true
          (diverges 1);
        Alcotest.(check bool) "parallel raises Barrier_divergence" true
          (diverges 4));
    Alcotest.test_case "gemm run digest identical under 4 domains" `Quick
      (fun () ->
        match
          Sycl_workloads.Differential.check_parallel ~domains:4
            (Sycl_workloads.Polybench.gemm ~n:16)
        with
        | Ok () -> ()
        | Error f -> Alcotest.fail (Difftest.failure_to_string f));
    Alcotest.test_case "two simulator configurations run at once" `Quick
      (fun () ->
        (* GEMM measured under dm and under the default settings in two
           tasks of one pool job: each run sees only its own settings. *)
        let module Common = Sycl_workloads.Common in
        let module Sim_config = Sycl_sim.Sim_config in
        let configs =
          [| { Sim_config.default with cache_model = Cost.Direct_mapped };
             Sim_config.default |]
        in
        let run sim =
          let m =
            Common.measure ~sim
              (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
              (Sycl_workloads.Polybench.gemm ~n:16)
          in
          let r = m.Common.m_result in
          (Sycl_workloads.Differential.digest m, r)
        in
        let sequential = Array.map (fun sim -> fst (run sim)) configs in
        let concurrent = Sycl_obs.Pool.run 2 (fun i -> run configs.(i)) in
        Array.iteri
          (fun i (digest, _) ->
            Alcotest.(check string) "digest of the sequential run"
              sequential.(i) digest)
          concurrent;
        let cache_view (_, r) =
          Sycl_sim.Attribution.cache_to_string
            (Sycl_sim.Attribution.merge_launches
               r.Common.Host_interp.per_kernel_attribution)
        in
        Alcotest.(check bool) "dm run has a cache view" true
          (cache_view concurrent.(0) <> None);
        Alcotest.(check bool) "default run has none" true
          (cache_view concurrent.(1) = None);
        let dm_launches = (snd concurrent.(0)).Common.Host_interp.per_kernel in
        Alcotest.(check bool) "dm run launched" true (dm_launches <> []);
        List.iter
          (fun (_, s) ->
            Alcotest.(check int) "hits + misses = global transactions"
              s.Cost.global_transactions
              (s.Cost.cache_hits + s.Cost.cache_misses))
          dm_launches);
  ]

let tests = ("parallel-sim", tests_list)
