(* Optimization remarks: pass-level emission (Passed/Missed with
   reasons), the collecting sink, and the JSON round-trip. *)

open Mlir
module A = Dialects.Arith
module K = Sycl_frontend.Kernel
module S = Sycl_core.Sycl_types
module Driver = Sycl_core.Driver

let find_remarks ~pass ~kind rs =
  List.filter
    (fun r -> r.Remarks.r_pass = pass && r.Remarks.r_kind = kind)
    rs

let contains ~needle hay =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length hay
    && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let tests_list =
  [
    Alcotest.test_case "licm reports the blocking alias reason" `Quick
      (fun () ->
        (* The known-blocked shape from the LICM tests: a[0] is read and
           must-alias-stored every iteration, so the load cannot hoist. *)
        let _m, f =
          Helpers.with_kernel ~dims:1
            ~args:[ K.Acc (1, S.Read_write, Types.f32); K.Scal Types.Index ]
            (fun b ~item:_ ~args ->
              match args with
              | [ a; n ] ->
                let zero = A.const_index b 0 in
                let one = A.const_index b 1 in
                let a0 = K.acc_view b a [ zero ] in
                ignore
                  (Dialects.Scf.for_ b ~lb:zero ~ub:n ~step:one (fun bb _iv _ ->
                       let v = Dialects.Memref.load bb a0 [ zero ] in
                       Dialects.Memref.store bb (A.addf bb v v) a0 [ zero ];
                       []))
              | _ -> assert false)
        in
        let (), rs =
          Remarks.collect (fun () ->
              Sycl_core.Licm.run_on_func f (Pass.Stats.create ()))
        in
        match find_remarks ~pass:"licm" ~kind:Remarks.Missed rs with
        | [] -> Alcotest.fail "expected a missed-optimization remark from licm"
        | r :: _ ->
          Alcotest.(check bool) "names the aliasing store" true
            (contains ~needle:"must-aliasing store" r.Remarks.r_message);
          Alcotest.(check string) "anchored to the load" "memref.load"
            r.Remarks.r_op;
          Alcotest.(check string) "in the kernel" "k" r.Remarks.r_func);
    Alcotest.test_case "full pipeline on gemm: internalization Passed" `Quick
      (fun () ->
        let w = Sycl_workloads.Polybench.gemm ~n:16 in
        let m = w.Sycl_workloads.Common.w_module () in
        let _c, rs =
          Remarks.collect (fun () ->
              Driver.compile (Driver.config Driver.Sycl_mlir) m)
        in
        Alcotest.(check bool) "loop-internalization passed remark" true
          (find_remarks ~pass:"loop-internalization" ~kind:Remarks.Passed rs
          <> []);
        Alcotest.(check bool) "reduction rewrite reported" true
          (find_remarks ~pass:"detect-reduction" ~kind:Remarks.Passed rs <> []);
        (* Every remark from the device passes names the kernel. *)
        List.iter
          (fun r -> Alcotest.(check string) "kernel name" "gemm" r.Remarks.r_func)
          (find_remarks ~pass:"loop-internalization" ~kind:Remarks.Passed rs));
    Alcotest.test_case "dpcpp baseline reports the missing alias info" `Quick
      (fun () ->
        let w = Sycl_workloads.Polybench.gemm ~n:16 in
        let m = w.Sycl_workloads.Common.w_module () in
        let _c, rs =
          Remarks.collect (fun () ->
              Driver.compile (Driver.config Driver.Dpcpp) m)
        in
        match find_remarks ~pass:"licm-pure" ~kind:Remarks.Missed rs with
        | [] -> Alcotest.fail "expected a missed remark from the baseline LICM"
        | r :: _ ->
          Alcotest.(check bool) "reason names the missing alias facts" true
            (contains ~needle:"aliasing facts" r.Remarks.r_message));
    Alcotest.test_case "no sink installed means emission is off" `Quick
      (fun () ->
        Alcotest.(check bool) "disabled outside collect" false
          (Remarks.enabled ());
        let (), rs = Remarks.collect (fun () -> ()) in
        Alcotest.(check int) "nothing collected" 0 (List.length rs));
    Alcotest.test_case "collectors nest and outer sink still fires" `Quick
      (fun () ->
        let (((), inner), outer) =
          Remarks.collect (fun () ->
              Remarks.collect (fun () ->
                  Remarks.emit ~pass:"p" ~name:"n" Remarks.Passed ~func:"f"
                    "msg"))
        in
        Alcotest.(check int) "inner sees it" 1 (List.length inner);
        Alcotest.(check int) "outer sees it too" 1 (List.length outer));
    Alcotest.test_case "uninstall restores the outer sink" `Quick (fun () ->
        (* Regression: with a single global sink ref, a nested
           install/uninstall pair dropped the outer sink entirely. *)
        let outer = ref 0 and inner = ref 0 in
        Remarks.install (fun _ -> incr outer);
        Remarks.install (fun _ -> incr inner);
        Remarks.emit ~pass:"p" ~name:"n" Remarks.Passed ~func:"f" "nested";
        Remarks.uninstall ();
        Alcotest.(check bool) "outer still enabled" true (Remarks.enabled ());
        Remarks.emit ~pass:"p" ~name:"n" Remarks.Passed ~func:"f" "after";
        Remarks.uninstall ();
        Alcotest.(check bool) "all uninstalled" false (Remarks.enabled ());
        Alcotest.(check int) "inner saw only the nested emission" 1 !inner;
        Alcotest.(check int) "outer saw both" 2 !outer);
    Alcotest.test_case "nested pipeline keeps its own remark sink" `Quick
      (fun () ->
        (* A pass that itself runs a sub-pipeline with its own sink must
           not steal or drop the enclosing pipeline's sink. *)
        let m = Helpers.fresh_module () in
        let emit_pass tag =
          Pass.make ("emit-" ^ tag) (fun _ _ ->
              Remarks.emit ~pass:("emit-" ^ tag) ~name:"n" Remarks.Passed
                ~func:"f" tag)
        in
        let outer = ref [] and inner = ref [] in
        let nested =
          Pass.make "nested" (fun m _ ->
              Remarks.with_sink
                (fun r -> inner := r :: !inner)
                (fun () ->
                  ignore
                    (Pass.run_pipeline ~verify_each:false [ emit_pass "inner" ]
                       m)))
        in
        Remarks.with_sink
          (fun r -> outer := r :: !outer)
          (fun () ->
            ignore
              (Pass.run_pipeline ~verify_each:false
                 [ emit_pass "before"; nested; emit_pass "after" ]
                 m));
        Alcotest.(check int) "inner saw one remark" 1 (List.length !inner);
        Alcotest.(check int) "outer saw all three" 3 (List.length !outer);
        Alcotest.(check bool) "no sink left installed" false
          (Remarks.enabled ()));
  ]

let tests = ("remarks", tests_list)
