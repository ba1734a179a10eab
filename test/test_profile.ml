(* The per-kernel profile ([sycl_bench --annotate], [bench profile]) and
   the run timeline it is built from: each profile row sums its kernel's
   launches, each kernel span splits the work-group cycles the cost model
   charged into compute, memory and barrier, and a run's spans tile its
   simulated time with no gap or overlap. *)

open Sycl_workloads
module H = Sycl_runtime.Host_interp
module Cost = Sycl_sim.Cost
module Profile = Sycl_sim.Profile
module Trace = Sycl_obs.Trace

let run_workload cache_model (w : Common.workload) =
  (Helpers.measure_sycl_mlir ~cache_model w).Common.m_result

(* GEMM and the jacobi stencil, each under the flat and direct-mapped
   cache models, labelled for failure messages. *)
let runs () =
  List.concat_map
    (fun model ->
      List.map
        (fun (name, w) ->
          (name ^ "/" ^ Cost.model_to_string model, run_workload model w))
        [
          ("gemm", Polybench.gemm ~n:16);
          ("jacobi", Stencil.jacobi ~n:64 ~iters:2);
        ])
    [ Cost.Flat; Cost.Direct_mapped ]

let arg (sp : Trace.span) k =
  match List.assoc_opt k sp.Trace.sp_args with
  | Some v -> v
  | None -> Alcotest.failf "kernel span %s has no %s arg" sp.Trace.sp_name k

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let test_rows_sum_launches () =
  List.iter
    (fun (label, (r : H.run_result)) ->
      let check = Alcotest.(check int) in
      let profiles = Profile.of_events r.H.events in
      let names =
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          [] r.H.per_kernel
      in
      Alcotest.(check (list string))
        (label ^ ": one row per kernel, in first-launch order")
        names
        (List.map (fun p -> p.Profile.kp_name) profiles);
      List.iter
        (fun (p : Profile.kernel_profile) ->
          let launches =
            List.filter_map
              (fun (k, s) -> if k = p.Profile.kp_name then Some s else None)
              r.H.per_kernel
          in
          let row what = label ^ ": " ^ p.Profile.kp_name ^ " " ^ what in
          check (row "launches") (List.length launches) p.Profile.kp_launches;
          check (row "device cycles")
            (sum (Cost.device_cycles Cost.default) launches)
            p.Profile.kp_device_cycles;
          check (row "global transactions")
            (sum (fun s -> s.Cost.global_transactions) launches)
            p.Profile.kp_global_transactions;
          check (row "local transactions")
            (sum (fun s -> s.Cost.local_transactions) launches)
            p.Profile.kp_local_transactions;
          check (row "const transactions")
            (sum (fun s -> s.Cost.const_transactions) launches)
            p.Profile.kp_const_transactions;
          check (row "work-items")
            (sum (fun s -> s.Cost.work_items) launches)
            p.Profile.kp_work_items;
          check (row "compute + memory + barrier = work-group cycles")
            (sum (fun s -> s.Cost.total_wg_cycles) launches)
            (p.Profile.kp_compute_cycles + p.Profile.kp_memory_cycles
           + p.Profile.kp_barrier_cycles))
        profiles;
      check (label ^ ": launch cycles") r.H.launch_overhead_cycles
        (sum (fun p -> p.Profile.kp_launch_cycles) profiles))
    (runs ())

let test_kernel_spans_split_wg_cycles () =
  let barriers = ref 0 in
  List.iter
    (fun (label, (r : H.run_result)) ->
      List.iter
        (fun (sp : Trace.span) ->
          if sp.Trace.sp_cat = "kernel" then begin
            let compute = arg sp "compute_cycles" in
            barriers := !barriers + arg sp "barrier_cycles";
            Alcotest.(check bool)
              (label ^ ": compute cycles are non-negative")
              true (compute >= 0);
            Alcotest.(check int)
              (label ^ ": compute + memory + barrier = total_wg_cycles")
              (arg sp "total_wg_cycles")
              (compute + arg sp "memory_cycles" + arg sp "barrier_cycles")
          end)
        r.H.events)
    (runs ());
  Alcotest.(check bool) "some kernel charged barrier cycles" true
    (!barriers > 0)

let test_spans_are_contiguous () =
  List.iter
    (fun (label, (r : H.run_result)) ->
      let clock =
        List.fold_left
          (fun clock (sp : Trace.span) ->
            Alcotest.(check int)
              (label ^ ": " ^ sp.Trace.sp_name ^ " starts where the last ended")
              clock sp.Trace.sp_ts;
            Alcotest.(check bool)
              (label ^ ": kernel spans on the device lane, others on the host")
              (sp.Trace.sp_cat = "kernel")
              (sp.Trace.sp_lane = Trace.Device);
            clock + sp.Trace.sp_dur)
          0 r.H.events
      in
      Alcotest.(check int) (label ^ ": the spans cover the run")
        r.H.total_cycles clock)
    (runs ())

let test_table_has_a_row_per_kernel () =
  let _, r = List.hd (runs ()) in
  let profiles = Profile.of_events r.H.events in
  let lines =
    Format.asprintf "%a" Profile.pp_table profiles
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let words line = String.split_on_char ' ' line |> List.filter (( <> ) "") in
  Alcotest.(check (list string)) "header"
    [ "kernel"; "launches"; "launch"; "device"; "compute"; "memory";
      "barrier"; "tx(g/l/c)"; "items"; "occ" ]
    (words (List.hd lines));
  Alcotest.(check int) "one line per kernel" (List.length profiles)
    (List.length lines - 1);
  List.iter2
    (fun (p : Profile.kernel_profile) line ->
      match words line with
      | name :: launches :: launch :: device :: compute :: memory :: barrier
        :: tx :: items :: _ ->
        let expected =
          Profile.
            [
              p.kp_name;
              string_of_int p.kp_launches;
              string_of_int p.kp_launch_cycles;
              string_of_int p.kp_device_cycles;
              string_of_int p.kp_compute_cycles;
              string_of_int p.kp_memory_cycles;
              string_of_int p.kp_barrier_cycles;
              Printf.sprintf "%d/%d/%d" p.kp_global_transactions
                p.kp_local_transactions p.kp_const_transactions;
              string_of_int p.kp_work_items;
            ]
        in
        Alcotest.(check (list string)) "row columns" expected
          [ name; launches; launch; device; compute; memory; barrier; tx;
            items ]
      | _ -> Alcotest.failf "short profile row: %s" line)
    profiles (List.tl lines)

let tests =
  ( "profile",
    [
      Alcotest.test_case "profile rows sum their kernel's launches" `Quick
        test_rows_sum_launches;
      Alcotest.test_case "kernel spans split the work-group cycles exactly"
        `Quick test_kernel_spans_split_wg_cycles;
      Alcotest.test_case "a run's spans start where the last one ended"
        `Quick test_spans_are_contiguous;
      Alcotest.test_case "profile table has one row per kernel" `Quick
        test_table_has_a_row_per_kernel;
    ] )
