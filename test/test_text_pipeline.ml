(* Textual-IR integration: a complete joint module (host + kernels) is
   printed, re-parsed, and the parsed copy is compiled and executed —
   proving the textual format carries everything the pipeline and the
   runtime need. *)

open Mlir
open Sycl_workloads
module Driver = Sycl_core.Driver

let roundtrip_and_run (w : Common.workload) mode =
  let original = w.Common.w_module () in
  let text = Printer.to_string original in
  let parsed = Parser.parse_module text in
  ignore (Driver.compile (Driver.config ~verify_each:true mode) parsed);
  let args, validate = w.Common.w_data () in
  let result =
    Sycl_runtime.Host_interp.run ~sim_domains:Helpers.sim_domains
      ~module_op:parsed args
  in
  (result, validate ())

let tests_list =
  [
    Alcotest.test_case "vec_add: parse -> compile -> run -> validate" `Quick
      (fun () ->
        let w = Single_kernel.vec_add ~n:256 in
        let _r, ok = roundtrip_and_run w Driver.Sycl_mlir in
        Alcotest.(check bool) "valid" true ok);
    Alcotest.test_case "gemm: parsed module optimizes identically" `Quick
      (fun () ->
        let w = Polybench.gemm ~n:16 in
        (* Compile the original and a parsed copy; their pass statistics
           must agree (same reductions, same prefetches). *)
        let compile m =
          let c = Driver.compile (Driver.config Driver.Sycl_mlir) m in
          Pass.merged_stats c.Driver.pipeline_result
        in
        let m1 = w.Common.w_module () in
        let text = Printer.to_string m1 in
        let s1 = compile m1 in
        let s2 = compile (Parser.parse_module text) in
        List.iter
          (fun key ->
            Alcotest.(check int) key (Pass.Stats.get s1 key) (Pass.Stats.get s2 key))
          [
            "detect-reduction/reduction.rewritten";
            "loop-internalization/internalization.prefetched";
            "host-device-propagation/hostdev.noalias-pair";
            "host-raising/raising.raised";
          ]);
    Alcotest.test_case "gemm: parsed module runs correctly under DPC++" `Quick
      (fun () ->
        let w = Polybench.gemm ~n:16 in
        let _r, ok = roundtrip_and_run w Driver.Dpcpp in
        Alcotest.(check bool) "valid" true ok);
    Alcotest.test_case "optimized module still prints and re-parses" `Quick
      (fun () ->
        (* After the full pipeline (internalized kernel with tiles,
           barriers, versioning), the IR must still round-trip. *)
        let w = Polybench.gemm ~n:16 in
        let m = w.Common.w_module () in
        ignore (Driver.compile (Driver.config Driver.Sycl_mlir) m);
        let text = Printer.to_string m in
        let parsed = Parser.parse_module text in
        Alcotest.(check string) "fixpoint print" text (Printer.to_string parsed));
  ]

let tests = ("textual-pipeline", tests_list)
