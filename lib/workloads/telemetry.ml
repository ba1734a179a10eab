(* The merged compile + runtime + device trace of one run, assembled in
   one place for every surface that exports it: [sycl_bench
   --report-json], [bench profile], the telemetry-neutrality oracle and
   the tests. *)

module H = Common.Host_interp
module Trace = Sycl_obs.Trace

(** Compile-phase spans from [timing], the compile's pipeline result
    (when given), on the compile lane, then the run's charge spans
    shifted past them on the host-runtime and
    device lanes — one chrome://tracing load shows parse -> passes ->
    queue ops -> kernel cycles. Counter events ride along on the device
    lane at the start of the run: the top five hotspot lines of
    [attribution] (when given) and one cache hit-rate sample per launch
    under a non-flat cache model. *)
let merged_trace ?timing ?attribution (r : H.run_result) : Trace.sink =
  let sink = Trace.make_sink () in
  Option.iter (Trace.add_timing sink) timing;
  let base = Trace.span_end sink in
  Trace.add_all sink
    (List.map
       (fun (sp : Trace.span) -> { sp with Trace.sp_ts = base + sp.Trace.sp_ts })
       r.H.events);
  let counter name series =
    Trace.add_counter sink
      { Trace.ct_name = name; ct_lane = Trace.Device; ct_ts = base;
        ct_series = series }
  in
  Option.iter
    (fun tab ->
      List.iteri
        (fun i (row : Sycl_sim.Attribution.line_row) ->
          if i < 5 then
            counter
              ("hotspot " ^ row.Sycl_sim.Attribution.l_line)
              [ ("cycles", row.Sycl_sim.Attribution.l_cycles) ])
        (Sycl_sim.Attribution.by_line tab))
    attribution;
  List.iter
    (fun (name, (s : Sycl_sim.Cost.launch_stats)) ->
      if Sycl_sim.Cost.cache_active s then
        counter ("cache " ^ name)
          [
            ("hits", s.Sycl_sim.Cost.cache_hits);
            ("misses", s.Sycl_sim.Cost.cache_misses);
            ( "hit_rate_pct",
              int_of_float
                (100.0
                *. Sycl_sim.Cache.hit_rate ~hits:s.Sycl_sim.Cost.cache_hits
                     ~misses:s.Sycl_sim.Cost.cache_misses) );
          ])
    r.H.per_kernel;
  sink
