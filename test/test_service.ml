(* The compile service (lib/service): content-addressed caching,
   coalescing, LRU eviction, multi-domain safety of the id mint and the
   op registry, and exactly-once remark delivery. *)

open Mlir
module Service = Sycl_service.Service
module Metrics = Sycl_obs.Metrics
module Driver = Sycl_core.Driver

(* A tiny module whose canonical text differs per [k] (the constant's
   value is an attribute, so changing it must change the cache key). *)
let module_text k =
  Printf.sprintf
    "builtin.module() ({\n\
    \  func.func() ({\n\
    \    %%0 = arith.constant() {value = %d} : () -> (i32)\n\
    \    func.return()\n\
    \  }) {function_type = () -> (), sym_name = \"f%d\"}\n\
     })\n"
    k k

(* Same module as [module_text k], different formatting: explicit empty
   block header, extra indentation and blank lines. Canonicalization
   (parse + reprint) must erase the difference. *)
let module_text_reformatted k =
  Printf.sprintf
    "builtin.module() ({\n\n\
    \    func.func() ({\n\
    \    ^bb0():\n\
    \        %%0 = arith.constant() {value = %d} : () -> (i32)\n\n\
    \        func.return()\n\
    \    }) {function_type = () -> (), sym_name = \"f%d\"}\n\n\
     })\n"
    k k

let pipeline () = [ Sycl_core.Canonicalize.pass ]

let make_service ?(capacity = 64) ?(workers = 4) () =
  let pipeline = pipeline () in
  Service.create ~cache_capacity:capacity ~workers ~pipeline
    ~pipeline_key:(Service.pipeline_key_of_passes pipeline) ()

let rq ?(name = "m") k = { Service.rq_name = name; rq_text = module_text k }

(* Canonicalize indexes the second operand of this malformed arith.addi
   and raises Invalid_argument. *)
let raising_text =
  "builtin.module() ({\n\
  \  func.func() ({\n\
  \    %0 = arith.constant() {value = 1} : () -> (index)\n\
  \    %1 = arith.addi(%0) : (index) -> (index)\n\
  \    func.return(%1) : (index) -> ()\n\
  \  }) {function_type = () -> (index), sym_name = \"f\"}\n\
   })\n"

(* The printed result of running [pipeline] over [text] on this domain,
   without a service. *)
let direct_compile pipeline text =
  let m = Parser.parse_module text in
  ignore (Pass.run_pipeline ~verify_each:false pipeline m);
  Printer.to_string m
let counter s n = Metrics.counter_value (Service.metrics s) n

let success (rs : Service.response) =
  match rs.Service.rs_outcome with
  | Service.Success s -> s
  | Service.Failure msg -> Alcotest.failf "%s failed: %s" rs.Service.rs_name msg

let tests_list =
  [
    Alcotest.test_case "op ids stay distinct across domains" `Quick (fun () ->
        (* Regression: the id mint was a plain ref; two domains could
           read the same counter value and mint duplicate oids/vids. *)
        let per_domain = 5000 in
        let spawned =
          Array.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  List.init per_domain (fun _ -> Core.next_id ())))
        in
        let all = List.concat_map Domain.join (Array.to_list spawned) in
        let distinct = List.sort_uniq compare all in
        Alcotest.(check int) "no duplicate ids" (4 * per_domain)
          (List.length distinct));
    Alcotest.test_case "identical in-flight requests coalesce to one compile"
      `Quick (fun () ->
        let s = make_service () in
        let reqs = List.init 8 (fun i -> rq ~name:(Printf.sprintf "r%d" i) 1) in
        let responses = Service.run_batch s reqs in
        let outputs = List.map success responses in
        Alcotest.(check int) "misses" 1 (counter s "service.cache_misses");
        Alcotest.(check int) "hits" 7 (counter s "service.cache_hits");
        Alcotest.(check int) "requests" 8 (counter s "service.requests");
        Alcotest.(check int) "one cached entry" 1 (Service.cache_length s);
        match outputs with
        | first :: rest ->
          List.iter
            (fun o -> Alcotest.(check string) "identical output" first o)
            rest
        | [] -> Alcotest.fail "no responses");
    Alcotest.test_case
      "byte-identical and reformatted text hit; attribute change misses"
      `Quick (fun () ->
        let s = make_service () in
        let r1 = Service.compile_one s (rq 1) in
        Alcotest.(check bool) "cold" false r1.Service.rs_cache_hit;
        let r2 = Service.compile_one s (rq 1) in
        Alcotest.(check bool) "byte-identical hits" true r2.Service.rs_cache_hit;
        let r3 =
          Service.compile_one s
            { Service.rq_name = "m'"; rq_text = module_text_reformatted 1 }
        in
        Alcotest.(check bool) "reformatted text hits" true
          r3.Service.rs_cache_hit;
        let r4 = Service.compile_one s (rq 2) in
        Alcotest.(check bool) "changed attribute misses" false
          r4.Service.rs_cache_hit;
        Alcotest.(check string) "hit serves the cold output" (success r1)
          (success r2));
    Alcotest.test_case "pass list and driver config change the cache key"
      `Quick (fun () ->
        let text = module_text 1 in
        let m = Mlir.Parser.parse_module text in
        let canonical = Service.canonical_text m in
        let key pk = Service.cache_key ~pipeline_key:pk ~canonical_text:canonical in
        let k_canon =
          key (Service.pipeline_key_of_passes [ Sycl_core.Canonicalize.pass ])
        in
        let k_canon_cse =
          key
            (Service.pipeline_key_of_passes
               [ Sycl_core.Canonicalize.pass; Sycl_core.Cse.pass ])
        in
        Alcotest.(check bool) "pass list distinguishes" true
          (k_canon <> k_canon_cse);
        let cfg_default = Driver.config Driver.Sycl_mlir in
        let cfg_no_licm = Driver.config ~enable_licm:false Driver.Sycl_mlir in
        let cfg_dpcpp = Driver.config Driver.Dpcpp in
        Alcotest.(check bool) "ablation flag distinguishes" true
          (key (Driver.config_key cfg_default)
          <> key (Driver.config_key cfg_no_licm));
        Alcotest.(check bool) "mode distinguishes" true
          (key (Driver.config_key cfg_default)
          <> key (Driver.config_key cfg_dpcpp));
        Alcotest.(check string) "key is deterministic"
          (key (Driver.config_key cfg_default))
          (key (Driver.config_key cfg_default)));
    Alcotest.test_case "LRU eviction respects capacity and recency" `Quick
      (fun () ->
        let s = make_service ~capacity:2 ~workers:1 () in
        ignore (Service.compile_one s (rq 1));
        ignore (Service.compile_one s (rq 2));
        Alcotest.(check int) "at capacity" 2 (Service.cache_length s);
        (* Touch 1 so 2 becomes the least recently used entry. *)
        Alcotest.(check bool) "1 still cached" true
          (Service.compile_one s (rq 1)).Service.rs_cache_hit;
        ignore (Service.compile_one s (rq 3));
        Alcotest.(check int) "bound holds" 2 (Service.cache_length s);
        Alcotest.(check bool) "recently-used entry survives" true
          (Service.compile_one s (rq 1)).Service.rs_cache_hit;
        Alcotest.(check bool) "LRU entry was evicted" false
          (Service.compile_one s (rq 2)).Service.rs_cache_hit;
        Alcotest.(check bool) "evictions counted" true
          (counter s "service.cache_evictions" >= 1);
        Alcotest.(check int) "bound still holds" 2 (Service.cache_length s));
    Alcotest.test_case "cached output is byte-identical to a cold compile"
      `Quick (fun () ->
        let s = make_service () in
        let cold = Service.compile_one s (rq 5) in
        let cached = Service.compile_one s (rq 5) in
        Alcotest.(check string) "same bytes" (success cold) (success cached);
        Alcotest.(check bool) "cold compile has a cost" true
          (cold.Service.rs_cost_units > 0);
        Alcotest.(check int) "hits are free" 0 cached.Service.rs_cost_units;
        (* And both match a direct pipeline run on the same text. *)
        let m = Mlir.Parser.parse_module (module_text 5) in
        ignore (Mlir.Pass.run_pipeline ~verify_each:false (pipeline ()) m);
        Alcotest.(check string) "matches direct compile"
          (Mlir.Printer.to_string m) (success cold));
    Alcotest.test_case "parse failures are reported, never cached" `Quick
      (fun () ->
        let s = make_service () in
        let bad = { Service.rq_name = "bad"; rq_text = "not mlir at all" } in
        let r = Service.compile_one s bad in
        (match r.Service.rs_outcome with
        | Service.Failure msg ->
          Alcotest.(check bool) "mentions parse" true
            (String.length msg >= 5 && String.sub msg 0 5 = "parse")
        | Service.Success _ -> Alcotest.fail "expected a parse failure");
        Alcotest.(check int) "nothing cached" 0 (Service.cache_length s);
        Alcotest.(check int) "error counted" 1 (counter s "service.errors");
        Alcotest.(check int) "no miss recorded" 0
          (counter s "service.cache_misses"));
    Alcotest.test_case
      "remarks arrive exactly once, in request order, and replay on hits"
      `Quick (fun () ->
        (* A synthetic pass emitting one remark per function, tagged with
           the function's name — so delivery order is observable. *)
        let noisy =
          Pass.make "noisy" (fun m _stats ->
              Core.walk m ~f:(fun o ->
                  if o.Core.name = "func.func" then
                    match Core.attr o "sym_name" with
                    | Some (Attr.String fn) ->
                      Remarks.emit ~pass:"noisy" ~name:"seen" Remarks.Passed
                        ("function " ^ fn)
                    | _ -> ()))
        in
        let pipeline = [ noisy ] in
        let s =
          Service.create ~cache_capacity:64 ~workers:4 ~pipeline
            ~pipeline_key:(Service.pipeline_key_of_passes pipeline) ()
        in
        let reqs = List.init 5 (fun i -> rq ~name:(string_of_int i) (i + 10)) in
        let expected =
          List.init 5 (fun i -> Printf.sprintf "function f%d" (i + 10))
        in
        let run () =
          let seen = ref [] in
          let responses =
            Remarks.with_sink
              (fun r -> seen := r.Remarks.r_message :: !seen)
              (fun () -> Service.run_batch s reqs)
          in
          (List.rev !seen, responses)
        in
        (* Cold round: every remark delivered once, in request order,
           even though worker domains started with no sink installed. *)
        let cold_msgs, cold_rs = run () in
        Alcotest.(check (list string)) "cold delivery" expected cold_msgs;
        List.iter
          (fun (rs : Service.response) ->
            Alcotest.(check int) "response carries its remark" 1
              (List.length rs.Service.rs_remarks))
          cold_rs;
        (* Cached round: the same remarks replay from the cache. *)
        let cached_msgs, cached_rs = run () in
        Alcotest.(check (list string)) "cached replay" expected cached_msgs;
        Alcotest.(check bool) "all hits" true
          (List.for_all
             (fun (rs : Service.response) -> rs.Service.rs_cache_hit)
             cached_rs));
    Alcotest.test_case "batch responses preserve request order" `Quick
      (fun () ->
        let s = make_service ~workers:4 () in
        let reqs =
          List.init 12 (fun i -> rq ~name:(Printf.sprintf "n%d" i) (i mod 3))
        in
        let responses = Service.run_batch s reqs in
        List.iteri
          (fun i (rs : Service.response) ->
            Alcotest.(check string) "order" (Printf.sprintf "n%d" i)
              rs.Service.rs_name)
          responses;
        (* 12 requests over 3 distinct modules: exactly 3 cold compiles,
           regardless of scheduling. *)
        Alcotest.(check int) "misses" 3 (counter s "service.cache_misses");
        Alcotest.(check int) "hits" 9 (counter s "service.cache_hits"));
    Alcotest.test_case "a batch that fuses kernels equals direct compiles"
      `Quick (fun () ->
        (* b's first kernel reads get_id dimension 1, so only its second
           and third kernels fuse; a process-global fusion counter named
           that kernel _fused3 in the batch and _fused1 alone. *)
        let a =
          Printer.to_string
            ((Sycl_workloads.Extensions.elementwise_chain ~n:64)
               .Sycl_workloads.Common.w_module ())
        in
        let get_id_dim d =
          Printf.sprintf "    %%4 = arith.constant() {value = %d} : () -> (i32)" d
        in
        let b =
          String.concat "\n"
            (List.mapi
               (fun i l ->
                 if i <> 3 then l
                 else begin
                   Alcotest.(check string) "line 4" (get_id_dim 0) l;
                   get_id_dim 1
                 end)
               (String.split_on_char '\n' a))
        in
        let pipeline =
          [ Sycl_core.Host_raising.pass; Sycl_core.Kernel_fusion.pass ]
        in
        let s =
          Service.create ~workers:1 ~pipeline
            ~pipeline_key:(Service.pipeline_key_of_passes pipeline) ()
        in
        let responses =
          Service.run_batch s
            [ { Service.rq_name = "a"; rq_text = a };
              { Service.rq_name = "b"; rq_text = b } ]
        in
        List.iter2
          (fun text rs ->
            Alcotest.(check string) rs.Service.rs_name
              (direct_compile pipeline text) (success rs))
          [ a; b ] responses);
    Alcotest.test_case "a compile that raises is answered; the service goes on"
      `Quick (fun () ->
        let bad = { Service.rq_name = "bad"; rq_text = raising_text } in
        let good = rq ~name:"good" 7 in
        let expected = direct_compile (pipeline ()) (module_text 7) in
        let check_failure (rs : Service.response) =
          match rs.Service.rs_outcome with
          | Service.Failure msg ->
            Alcotest.(check string) "names the exception"
              "compile raised Invalid_argument(\"index out of bounds\")" msg
          | Service.Success _ -> Alcotest.fail "the raising request succeeded"
        in
        let s1 = make_service () in
        check_failure (Service.compile_one s1 bad);
        Alcotest.(check string) "good after bad" expected
          (success (Service.compile_one s1 good));
        let s2 = make_service () in
        (match Service.run_batch s2 [ bad; good ] with
        | [ r_bad; r_good ] ->
          check_failure r_bad;
          Alcotest.(check string) "good in the same batch" expected
            (success r_good)
        | _ -> Alcotest.fail "expected two responses");
        List.iter
          (fun s ->
            Alcotest.(check int) "one error" 1 (counter s "service.errors");
            Alcotest.(check int) "only the good module cached" 1
              (Service.cache_length s);
            let again = Service.compile_one s good in
            Alcotest.(check bool) "still answers from its cache" true
              again.Service.rs_cache_hit;
            Alcotest.(check string) "cached bytes" expected (success again))
          [ s1; s2 ]);
    Alcotest.test_case "registering during a 4-domain batch is safe" `Quick
      (fun () ->
        (* Registration publishes a grown copy of the op table; workers
           reading it meanwhile see the old table or the new one. *)
        let cfg = Driver.config Driver.Sycl_mlir in
        let pipeline = Driver.pipeline cfg in
        let matmul =
          In_channel.with_open_text "../examples/matmul.mlir"
            In_channel.input_all
        in
        let texts = matmul :: List.init 7 (fun k -> module_text (100 + k)) in
        let expected = List.map (direct_compile pipeline) texts in
        let s =
          Service.create ~workers:4 ~pipeline
            ~pipeline_key:(Driver.config_key cfg) ()
        in
        let stop = Atomic.make false and started = Atomic.make false in
        let registrar =
          Domain.spawn (fun () ->
              let n = ref 0 in
              while (not (Atomic.get stop)) && !n < 500 do
                Op_registry.register
                  (Printf.sprintf "test.late_op_%d" !n)
                  Op_registry.pure_info;
                incr n;
                Atomic.set started true;
                Domain.cpu_relax ()
              done;
              !n)
        in
        (* On a loaded machine the new domain may not run before the
           batch ends: start the batch once registration is under way. *)
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        let responses =
          Service.run_batch s
            (List.mapi
               (fun i text ->
                 { Service.rq_name = string_of_int i; rq_text = text })
               texts)
        in
        Atomic.set stop true;
        let registered = Domain.join registrar in
        Alcotest.(check bool) "names were registered" true (registered > 0);
        List.iter2
          (fun e rs -> Alcotest.(check string) rs.Service.rs_name e (success rs))
          expected responses;
        Alcotest.(check bool) "the last one is visible" true
          (Op_registry.lookup
             (Printf.sprintf "test.late_op_%d" (registered - 1))
          <> None));
  ]

let tests = ("service", tests_list)
