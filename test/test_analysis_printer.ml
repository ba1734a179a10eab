(* Analysis printers: annotations land in the IR, the textual report
   names the interesting facts, the annotated module round-trips through
   printer/parser/verifier, and strip_annotations restores the module. *)

open Mlir
module AP = Sycl_core.Analysis_printer

let matmul_path = "../examples/matmul.mlir"

let contains ~needle hay =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let check_contains report needle =
  Alcotest.(check bool) (Printf.sprintf "report mentions %S" needle) true
    (contains ~needle report)

let printed_analyses () =
  let src = In_channel.with_open_text matmul_path In_channel.input_all in
  let m = Parser.parse_module src in
  let buf = Buffer.create 1024 in
  AP.set_sink (Buffer.add_string buf);
  let result =
    Pass.run_pipeline ~verify_each:true
      [ AP.print_alias; AP.print_uniformity; AP.print_reaching_defs;
        AP.print_memory_access ]
      m
  in
  AP.set_sink prerr_string;
  (m, Buffer.contents buf, result)

let has_attr m name =
  List.exists
    (fun op -> Core.attr op name <> None)
    (Core.collect m ~p:(fun _ -> true))

let tests_list =
  [
    Alcotest.test_case "matmul report names the facts" `Quick (fun () ->
        let _m, report, _r = printed_analyses () in
        check_contains report "=== alias: @matmul ===";
        check_contains report "accessor arg";
        check_contains report "may-alias";
        check_contains report "=== uniformity: @matmul ===";
        check_contains report "kernel: true";
        check_contains report "=== reaching-defs: @matmul ===";
        check_contains report "MODS";
        check_contains report "=== memory-access: @matmul ===");
    Alcotest.test_case "annotations land in the IR with nonzero stats" `Quick
      (fun () ->
        let m, _report, result = printed_analyses () in
        List.iter
          (fun a ->
            Alcotest.(check bool) (a ^ " present") true (has_attr m a))
          [ AP.alias_group_attr; AP.arg_alias_groups_attr; AP.uniform_attr;
            AP.arg_uniform_attr; AP.reaching_mods_attr; AP.reaching_pmods_attr;
            AP.def_id_attr; AP.access_matrix_attr; AP.access_offsets_attr;
            AP.coalescing_attr; AP.temporal_reuse_attr ];
        let st = Pass.merged_stats result in
        List.iter
          (fun key ->
            Alcotest.(check bool) (key ^ " > 0") true (Pass.Stats.get st key > 0))
          [ "print-alias/alias.groups"; "print-alias/alias.pointer-values";
            "print-uniformity/uniformity.uniform";
            "print-uniformity/uniformity.non-uniform";
            "print-reaching-defs/reaching-defs.loads";
            "print-reaching-defs/reaching-defs.defs";
            "print-memory-access/memory-access.accesses" ]);
    Alcotest.test_case "annotated module round-trips and verifies" `Quick
      (fun () ->
        let m, _report, _r = printed_analyses () in
        let printed = Printer.to_string m in
        let reparsed = Parser.parse_module printed in
        Helpers.check_verifies ~msg:"reparsed annotated module" reparsed;
        Alcotest.(check string) "print→parse→print fixpoint" printed
          (Printer.to_string reparsed);
        Alcotest.(check bool) "annotations survive the round-trip" true
          (has_attr reparsed AP.access_matrix_attr
          && has_attr reparsed AP.alias_group_attr));
    Alcotest.test_case "strip_annotations restores the original module" `Quick
      (fun () ->
        let m, _report, _r = printed_analyses () in
        AP.strip_annotations m;
        List.iter
          (fun a ->
            Alcotest.(check bool) (a ^ " stripped") false (has_attr m a))
          AP.annotation_attrs;
        let src = In_channel.with_open_text matmul_path In_channel.input_all in
        let fresh = Parser.parse_module src in
        Alcotest.(check string) "stripped print equals pristine print"
          (Printer.to_string fresh) (Printer.to_string m));
  ]

let tests = ("analysis-printer", tests_list)
