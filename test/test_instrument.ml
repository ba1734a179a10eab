(* The pass manager's record of a pipeline run (per-execution timings,
   lines merged by name, the -mlir-timing report) and the IR-snapshot
   instrumentation. *)

open Mlir
module A = Dialects.Arith

(* A module whose function contains one dead pure op: the first dce run
   erases it, a second run finds nothing. *)
let module_with_dead_op () =
  let m, _f =
    Helpers.with_func ~args:[ Types.i64 ] (fun b vals ->
        let x = List.hd vals in
        ignore (A.addi b x x))
  in
  m

let tests_list =
  [
    Alcotest.test_case "pipeline record times every pass run" `Quick
      (fun () ->
        let m = module_with_dead_op () in
        let r =
          Pass.run_pipeline ~verify_each:true
            [ Sycl_core.Dce.pass; Sycl_core.Canonicalize.pass;
              Sycl_core.Dce.pass ]
            m
        in
        let times = r.Pass.per_pass_time in
        Alcotest.(check (list string)) "one timing per execution, in order"
          [ "dce"; "canonicalize"; "dce" ]
          (List.map (fun t -> t.Pass.t_pass) times);
        let rec sequential from = function
          | [] -> true
          | t :: rest ->
            t.Pass.t_start >= from && t.Pass.t_seconds >= 0.0
            && sequential (t.Pass.t_start +. t.Pass.t_seconds) rest
        in
        Alcotest.(check bool) "starts non-decreasing, each after the last" true
          (sequential 0.0 times);
        Alcotest.(check bool) "every execution inside wall" true
          (List.for_all
             (fun t -> t.Pass.t_start +. t.Pass.t_seconds <= r.Pass.wall)
             times);
        let lines = Pass.timing_lines r in
        Alcotest.(check (list (pair string int))) "dce x2, then canonicalize"
          [ ("dce", 2); ("canonicalize", 1) ]
          (List.map (fun (name, n, _) -> (name, n)) lines);
        (match (lines, times) with
        | (_, _, dce) :: _, [ d1; _; d2 ] ->
          Alcotest.(check (float 0.0)) "dce line sums both runs"
            (d1.Pass.t_seconds +. d2.Pass.t_seconds) dce
        | _ -> Alcotest.fail "unexpected shape");
        (* The report renders the merged lines and a Total line. *)
        let buf = Buffer.create 256 in
        let fmt = Format.formatter_of_buffer buf in
        Pass.pp_timing fmt r;
        Format.pp_print_flush fmt ();
        let s = Buffer.contents buf in
        let contains sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        (* Canonicalize changes nothing after the first dce, so the
           second dce is a skipped repeat. *)
        Alcotest.(check bool) "dce line carries its count" true
          (contains "dce (2, 1 skipped)");
        Alcotest.(check bool) "report has a Total line" true (contains "Total"));
    Alcotest.test_case "dump-after fires once per matching pass run" `Quick
      (fun () ->
        let m = module_with_dead_op () in
        let buf = Buffer.create 256 in
        ignore
          (Pass.run_pipeline ~verify_each:false
             ~instrumentations:
               [ Instrument.dump ~sink:(Buffer.add_string buf) ~filter:"dce" () ]
             [ Sycl_core.Dce.pass; Sycl_core.Canonicalize.pass;
               Sycl_core.Dce.pass ]
             m);
        let s = Buffer.contents buf in
        let count_banner banner =
          let bl = String.length banner in
          let rec go i acc =
            if i + bl > String.length s then acc
            else if String.sub s i bl = banner then go (i + bl) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        Alcotest.(check int) "two dce banners" 2
          (count_banner "// ----- IR after dce -----");
        Alcotest.(check int) "canonicalize not dumped" 0
          (count_banner "// ----- IR after canonicalize -----"));
  ]

let tests = ("instrument", tests_list)
