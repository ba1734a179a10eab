(* The simulator's outputs pinned exactly: one digest over every run of
   the evaluation corpus under the three cache models, and small kernels
   whose work-items of one sub-group take different paths — a partial
   last sub-group, a load under a branch that alternates inside a loop,
   a loop whose trip count is the local id, a device-function call under
   a branch, two work-items failing at different points, and a barrier
   in each branch of a divergent if. The values are those of the
   group's work-items run one after another in local-id order, which
   lockstep execution must reproduce; the divergent if's barriers are
   the one case it reports differently, as the divergence it is. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types
module Interp = Sycl_sim.Interp
module Memory = Sycl_sim.Memory
module Cost = Sycl_sim.Cost
module Attribution = Sycl_sim.Attribution
module Sim_config = Sycl_sim.Sim_config

let acc_desc alloc =
  let n = Memory.size alloc in
  Interp.Acc
    { Interp.a_alloc = alloc; a_range = [| n |]; a_mem_range = [| n |];
      a_offset = [| 0 |]; a_is_float = true }

(* An nd-range kernel over [c] (write) and [a] (read). *)
let kernel ?(name = "k") f =
  let m = Helpers.fresh_module () in
  let k =
    K.define m ~name ~dims:1 ~nd:true
      ~args:[ K.Acc (1, S.Write, Types.f32); K.Acc (1, S.Read, Types.f32) ]
      (fun b ~item ~args ->
        match args with
        | [ c; a ] -> f m b ~item ~lid:(K.lid b item 0) ~gid:(K.gid b item 0) c a
        | _ -> assert false)
  in
  (m, k)

(* Launch [kernel] over [global] items in groups of [wg] under
   [cache_model], with [a] holding 0., 1., ... and [c] zeros; what it
   leaves is its launch statistics, then one MD5 over its attribution
   table, cache view and the final contents of [c]. *)
let observe ?(cache_model = Cost.Flat) ~global ~wg (m, k) =
  let a = Memory.alloc ~label:"a" ~size:global () in
  for i = 0 to global - 1 do
    Memory.set_float a i (float_of_int i)
  done;
  let c = Memory.alloc ~label:"c" ~size:global () in
  let tab = Attribution.create () in
  let stats =
    Interp.launch ~config:{ Helpers.sim with Sim_config.cache_model }
      ~attribution:tab ~module_op:m ~kernel:k
      ~args:[| Interp.Item; acc_desc c; acc_desc a |]
      ~global:[ global ] ~wg_size:[ wg ] ()
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Attribution.render tab);
  Option.iter (Buffer.add_string b) (Attribution.cache_to_string tab);
  for i = 0 to global - 1 do
    Buffer.add_string b (Printf.sprintf " %h" (Memory.get_float c i))
  done;
  ( Format.asprintf "%a" Cost.pp_launch_stats stats,
    Digest.to_hex (Digest.string (Buffer.contents b)) )

let check_observed name ~flat ~assoc ~global ~wg build =
  let check model (stats, digest) =
    let got = observe ~cache_model:model ~global ~wg (build ()) in
    Alcotest.(check string) (name ^ " stats") stats (fst got);
    Alcotest.(check string) (name ^ " attribution and output") digest (snd got)
  in
  check Cost.Flat flat;
  check Cost.Set_associative assoc

(* c[gid] += a[idx]. *)
let accumulate b c a ~gid idx =
  K.acc_update b c [ gid ] (fun x -> K.addf b x (K.acc_get b a [ idx ]))

let lane_cases =
  [
    Alcotest.test_case "a work-group of 24: a partial last sub-group" `Quick
      (fun () ->
        check_observed "wg24" ~global:48 ~wg:24
          ~flat:
            ( "alu=720 fdiv=48 mem(g=52 l=0 c=0) barriers=2 wgs=2 items=48 "
              ^ "cycles(total=2612 max=1450)",
              "dade0a0dca9d5fba280d949c9812bb58" )
          ~assoc:
            ( "alu=720 fdiv=48 mem(g=52 l=0 c=0) barriers=2 wgs=2 items=48 "
              ^ "cycles(total=764 max=394) "
              ^ "cache(hits=42 misses=10 evict=0 wait=480)",
              "eaf2be9b5086c6e87a1f5ffc60362d61" )
          (fun () ->
            kernel (fun _ b ~item:_ ~lid ~gid c a ->
                let x = K.acc_get b a [ gid ] in
                let five = K.idx b 5 and n = K.idx b 48 in
                let y = K.acc_get b a [ A.remsi b (K.muli b gid five) n ] in
                let z = K.acc_get b a [ K.muli b lid (K.idx b 2) ] in
                K.acc_set b c [ gid ] x;
                Dialects.Gpu.barrier b;
                accumulate b c a ~gid (K.idx b 0);
                K.acc_set b c [ gid ]
                  (K.addf b (K.acc_get b c [ gid ]) (K.mulf b y z)))));
    Alcotest.test_case "a load under a branch on (lid + i) mod 2 in a loop" `Quick
      (fun () ->
        check_observed "alternating" ~global:64 ~wg:32
          ~flat:
            ( "alu=2624 fdiv=576 mem(g=68 l=0 c=0) barriers=0 wgs=2 items=64 "
              ^ "cycles(total=3716 max=1858)",
              "f30aba73d00c910ece1a262482c0f5a1" )
          ~assoc:
            ( "alu=2624 fdiv=576 mem(g=68 l=0 c=0) barriers=0 wgs=2 items=64 "
              ^ "cycles(total=1252 max=626) "
              ^ "cache(hits=56 misses=12 evict=0 wait=576)",
              "86ab2ef2bc02d6d4900619558fbc0ed5" )
          (fun () ->
            kernel (fun _ b ~item:_ ~lid ~gid c a ->
                K.for_up b (K.idx b 6) (fun b i ->
                    let two = K.idx b 2 in
                    let even =
                      A.cmpi b A.Eq (A.remsi b (K.addi b lid i) two) (K.idx b 0)
                    in
                    ignore
                      (Dialects.Scf.if_ b even
                         ~then_:(fun b ->
                           let idx =
                             A.remsi b
                               (K.addi b (K.muli b lid (K.idx b 3)) i)
                               (K.idx b 64)
                           in
                           accumulate b c a ~gid idx;
                           [])
                         ())))));
    Alcotest.test_case "a loop whose trip count is the local id" `Quick
      (fun () ->
        check_observed "lid trips" ~global:64 ~wg:32
          ~flat:
            ( "alu=4096 fdiv=0 mem(g=276 l=0 c=0) barriers=0 wgs=2 items=64 "
              ^ "cycles(total=13504 max=6752)",
              "5c3b5301024dee3b8c5c638026b90449" )
          ~assoc:
            ( "alu=4096 fdiv=0 mem(g=276 l=0 c=0) barriers=0 wgs=2 items=64 "
              ^ "cycles(total=1712 max=856) "
              ^ "cache(hits=268 misses=8 evict=0 wait=384)",
              "7ba6bca0270dbdce10557744fe42b84c" )
          (fun () ->
            kernel (fun _ b ~item:_ ~lid ~gid c a ->
                K.for_up b lid (fun b j -> accumulate b c a ~gid j))));
    Alcotest.test_case "a device-function call under a branch" `Quick
      (fun () ->
        check_observed "call" ~global:32 ~wg:16
          ~flat:
            ( "alu=158 fdiv=0 mem(g=4 l=0 c=0) barriers=0 wgs=2 items=32 "
              ^ "cycles(total=200 max=100)",
              "f625608742989e104e9a137c1e119291" )
          ~assoc:
            ( "alu=158 fdiv=0 mem(g=4 l=0 c=0) barriers=0 wgs=2 items=32 "
              ^ "cycles(total=200 max=100) "
              ^ "cache(hits=0 misses=4 evict=0 wait=192)",
              "9e5cc6b2eb4abf1a52f542fa3f25bc4a" )
          (fun () ->
            kernel (fun m b ~item:_ ~lid ~gid c a ->
                ignore
                  (Dialects.Func.func m "twice"
                     ~args:[ a.Core.vty; Types.Index ] ~results:[ Types.f32 ]
                     (fun fb vs ->
                       match vs with
                       | [ acc; i ] ->
                         let v = K.acc_get fb acc [ i ] in
                         Dialects.Func.return fb [ K.addf fb v v ]
                       | _ -> assert false));
                let low = A.cmpi b A.Slt lid (K.idx b 5) in
                ignore
                  (Dialects.Scf.if_ b low
                     ~then_:(fun b ->
                       let v =
                         Dialects.Func.call1 b "twice" ~operands:[ a; gid ]
                           ~result:Types.f32
                       in
                       K.acc_set b c [ gid ] v;
                       [])
                     ()))));
    Alcotest.test_case "the lowest failing work-item's first error wins" `Quick
      (fun () ->
        (* Work-item 1 reads a value only work-item 0 defined (an unbound
           value, early); work-item 0 then loads out of bounds (late). *)
        let m, k =
          kernel (fun _ b ~item:_ ~lid ~gid c a ->
              let x = ref None in
              ignore
                (Dialects.Scf.if_ b (A.cmpi b A.Eq lid (K.idx b 0))
                   ~then_:(fun b ->
                     x := Some (K.fconst b 1.0);
                     [])
                   ());
              ignore
                (Dialects.Scf.if_ b (A.cmpi b A.Eq lid (K.idx b 1))
                   ~then_:(fun b ->
                     K.acc_set b c [ gid ] (Option.get !x);
                     [])
                   ());
              K.acc_set b c [ gid ] (K.acc_get b a [ K.idx b 1000 ]))
        in
        let outcome =
          match observe ~global:32 ~wg:16 (m, k) with
          | _ -> "ok"
          | exception Interp.Sim_error msg -> "Sim_error: " ^ msg
          | exception Memory.Out_of_bounds msg -> "Out_of_bounds: " ^ msg
        in
        Alcotest.(check string) "work-item 0's error"
          "Out_of_bounds: index 1000 out of bounds for a (size 32)" outcome);
    Alcotest.test_case "a barrier in each branch of a divergent if" `Quick
      (fun () ->
        let m, k =
          kernel (fun _ b ~item:_ ~lid ~gid:_ _ _ ->
              ignore
                (Dialects.Scf.if_ b (A.cmpi b A.Slt lid (K.idx b 8))
                   ~then_:(fun b ->
                     Dialects.Gpu.barrier b;
                     [])
                   ~else_:(fun b ->
                     Dialects.Gpu.barrier b;
                     [])
                   ()))
        in
        Alcotest.(check int) "barrier-safety flags both barriers" 2
          (List.length (Sycl_core.Barrier_safety.check m));
        (* Each branch reaches its barrier under a partial mask. Run one
           work-item after another, every work-item would wait at some
           barrier and the kernel would run on; in lockstep it is the
           divergent barrier the static check reports. *)
        Alcotest.(check string) "the simulator reports the divergence"
          "Barrier_divergence"
          (match observe ~global:32 ~wg:16 (m, k) with
          | _ -> "ok"
          | exception Interp.Barrier_divergence -> "Barrier_divergence"));
  ]

(* One MD5 over the MD5s of the run digest ({!Differential.run_digest}:
   launch statistics, attribution and cache views, events, buffers and
   metrics) of every suite and extension workload under the flat,
   direct-mapped and set-associative models, in that order. *)
let corpus_digest =
  Alcotest.test_case "run digest of the corpus under the three cache models"
    `Slow (fun () ->
      let module W = Sycl_workloads in
      let workloads = W.Suite.all () @ W.Suite.extensions () in
      let digests =
        List.concat_map
          (fun cache_model ->
            List.map
              (fun w ->
                Digest.string
                  (W.Differential.run_digest
                     ~sim:{ Helpers.sim with Sim_config.cache_model } w))
              workloads)
          [ Cost.Flat; Cost.Direct_mapped; Cost.Set_associative ]
      in
      Alcotest.(check string) "digest" "0627534b48e720edac731228cf2a2a20"
        (Digest.to_hex (Digest.string (String.concat "" digests))))

let tests = ("lanes", lane_cases @ [ corpus_digest ])
