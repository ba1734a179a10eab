(* The compile service: concurrent batch compilation with a
   content-addressed pass cache. See service.mli for the contract.

   Locking design: one service mutex guards the cache table, the
   in-flight (pending) set and the LRU clock. Compilation itself runs
   outside the lock; identical in-flight requests wait on the condition
   variable instead of compiling twice, which is what makes hit/miss
   totals deterministic for a given request multiset (absent eviction).
   The metrics registry carries its own mutex and is only ever acquired
   while the service lock is either free or held (never the reverse), so
   the lock order is acyclic. *)

open Mlir

type request = {
  rq_name : string;
  rq_text : string;
}

type outcome =
  | Success of string
  | Failure of string

type response = {
  rs_name : string;
  rs_outcome : outcome;
  rs_cache_hit : bool;
  rs_remarks : Remarks.t list;
  rs_wall_us : int;
  rs_cost_units : int;
}

(* A ready cache entry. Pass failures are cached too: the pipeline is
   deterministic, so recompiling a failing module would fail identically
   — and coalesced waiters need *some* entry to wake up to. Parse
   failures are never cached (no canonical text, hence no key). *)
type cached = {
  c_outcome : outcome;
  c_remarks : Remarks.t list;
  mutable c_last_use : int;  (** LRU clock value of the latest touch *)
}

type t = {
  pipeline : Pass.t list;
  pipeline_key : string;
  capacity : int;
  n_workers : int;
  verify_each : bool;
  reg : Sycl_obs.Metrics.registry;
  mutex : Mutex.t;
  cond : Condition.t;
  cache : (string, cached) Hashtbl.t;
  (* Keys being compiled right now. Guarded by [mutex]; removal always
     broadcasts [cond]. *)
  pending : (string, unit) Hashtbl.t;
  mutable clock : int;
}

(* Deterministic compile cost: ops in the module at every pass entry,
   summed over the pipeline. Unlike wall time it is byte-identical
   across machines and domain counts, so BENCH reports can gate its
   percentiles like simulator cycles. *)
let cost_bounds =
  [|
    100; 200; 500; 1_000; 2_000; 5_000; 10_000; 20_000; 50_000; 100_000;
    200_000; 500_000; 1_000_000;
  |]

let wall_bounds =
  [|
    50; 100; 200; 500; 1_000; 2_000; 5_000; 10_000; 20_000; 50_000;
    100_000; 200_000; 500_000; 1_000_000; 5_000_000;
  |]

let create ?(cache_capacity = 256) ?workers ?(verify_each = false) ~pipeline
    ~pipeline_key () =
  let n_workers =
    match workers with
    | Some w -> max 1 w
    | None -> Domain.recommended_domain_count ()
  in
  {
    pipeline;
    pipeline_key;
    capacity = max 1 cache_capacity;
    n_workers;
    verify_each;
    reg = Sycl_obs.Metrics.create ();
    mutex = Mutex.create ();
    cond = Condition.create ();
    cache = Hashtbl.create 64;
    pending = Hashtbl.create 8;
    clock = 0;
  }

let metrics t = t.reg
let cache_length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.cache)

let pipeline_key_of_passes passes =
  "passes=" ^ String.concat "," (List.map (fun p -> p.Pass.pass_name) passes)

let cache_key ~pipeline_key ~canonical_text =
  Digest.to_hex (Digest.string (canonical_text ^ "\x00" ^ pipeline_key))

let canonical_text (m : Core.op) = Printer.to_string m

(* ------------------------------------------------------------------ *)
(* Cache protocol                                                      *)
(* ------------------------------------------------------------------ *)

let touch t entry =
  t.clock <- t.clock + 1;
  entry.c_last_use <- t.clock

(* Under [t.mutex]: claim [key] for compilation, or wait for / return
   the ready result. [waited] reports whether we slept behind an
   in-flight compile of the same key (a coalesced hit). *)
let acquire t key : [ `Hit of cached * bool ] option =
  Mutex.protect t.mutex (fun () ->
      let waited = ref false in
      let rec go () =
        match Hashtbl.find_opt t.cache key with
        | Some entry ->
          touch t entry;
          Some (`Hit (entry, !waited))
        | None ->
          if Hashtbl.mem t.pending key then begin
            waited := true;
            Condition.wait t.cond t.mutex;
            go ()
          end
          else begin
            Hashtbl.replace t.pending key ();
            None
          end
      in
      go ())

(* Under [t.mutex]: publish [entry] under [key], evicting LRU entries
   beyond capacity, release the pending claim and wake waiters. Returns
   the number of evictions. *)
let release t key entry =
  Mutex.protect t.mutex (fun () ->
      touch t entry;
      Hashtbl.replace t.cache key entry;
      let evicted = ref 0 in
      while Hashtbl.length t.cache > t.capacity do
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, best) when best.c_last_use <= e.c_last_use -> acc
              | _ -> Some (k, e))
            t.cache None
        in
        match victim with
        | Some (k, _) ->
          Hashtbl.remove t.cache k;
          incr evicted
        | None -> ()
      done;
      Hashtbl.remove t.pending key;
      Condition.broadcast t.cond;
      !evicted)

(* Release a claim without publishing. A compile that raised must not
   strand coalesced waiters: they wake, find neither entry nor claim, and
   compile themselves. *)
let abandon t key =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.remove t.pending key;
      Condition.broadcast t.cond)

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)
(* ------------------------------------------------------------------ *)

let count_ops (m : Core.op) =
  let n = ref 0 in
  Core.walk m ~f:(fun _ -> incr n);
  !n

(* Process one request on the current domain. Does NOT broadcast
   remarks — the caller replays them on its own domain in canonical
   request order. *)
let process t (rq : request) : response =
  let module Metrics = Sycl_obs.Metrics in
  let t0 = Unix.gettimeofday () in
  let finish ~outcome ~hit ~remarks ~cost =
    let wall_us =
      max 1 (int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1e6)))
    in
    Metrics.incr t.reg "service.requests";
    Metrics.observe t.reg ~bounds:wall_bounds "service.request_wall_us" wall_us;
    {
      rs_name = rq.rq_name;
      rs_outcome = outcome;
      rs_cache_hit = hit;
      rs_remarks = remarks;
      rs_wall_us = wall_us;
      rs_cost_units = cost;
    }
  in
  match Parser.parse_module ~file:rq.rq_name rq.rq_text with
  | exception Parser.Parse_error msg ->
    Metrics.incr t.reg "service.errors";
    finish
      ~outcome:(Failure (Printf.sprintf "parse error: %s" msg))
      ~hit:false ~remarks:[] ~cost:0
  | m -> (
    let key =
      cache_key ~pipeline_key:t.pipeline_key ~canonical_text:(canonical_text m)
    in
    match acquire t key with
    | Some (`Hit (entry, waited)) ->
      Metrics.incr t.reg "service.cache_hits";
      if waited then Metrics.incr t.reg "service.coalesced_waits";
      finish ~outcome:entry.c_outcome ~hit:true ~remarks:entry.c_remarks
        ~cost:0
    | None ->
      (* Miss: we hold the pending claim for [key]. *)
      let cost = ref 0 in
      let cost_instr =
        Instrument.make
          ~before_pass:(fun ~pass_name:_ mo -> cost := !cost + count_ops mo)
          "service-cost"
      in
      let collected = ref [] in
      let compiled =
        match
          Remarks.isolated
            (fun r -> collected := r :: !collected)
            (fun () ->
              Pass.run_pipeline ~verify_each:t.verify_each
                ~instrumentations:[ cost_instr ] t.pipeline m)
        with
        | (_ : Pass.pipeline_result) -> Ok (Success (Printer.to_string m))
        | exception Pass.Invalid_input diagnostics ->
          Ok (Failure (Verifier.failure "input" diagnostics))
        | exception Pass.Pass_failed { pass; diagnostics } ->
          Ok (Failure (Verifier.failure ("pass " ^ pass) diagnostics))
        | exception e -> Error e
      in
      match compiled with
      | Error e ->
        (* Answered like a parse error: counted, never cached. *)
        abandon t key;
        Metrics.incr t.reg "service.errors";
        finish
          ~outcome:(Failure ("compile raised " ^ Printexc.to_string e))
          ~hit:false ~remarks:[] ~cost:0
      | Ok outcome ->
        let remarks = List.rev !collected in
        let entry =
          { c_outcome = outcome; c_remarks = remarks; c_last_use = 0 }
        in
        let evicted = release t key entry in
        Metrics.incr t.reg "service.cache_misses";
        if evicted > 0 then
          Metrics.incr t.reg ~by:evicted "service.cache_evictions";
        Metrics.observe t.reg ~bounds:cost_bounds "service.compile_cost_units"
          !cost;
        finish ~outcome ~hit:false ~remarks ~cost:!cost)

let deliver_remarks (rs : response) = List.iter Remarks.broadcast rs.rs_remarks

let compile_one t rq =
  let rs = process t rq in
  deliver_remarks rs;
  rs

let run_batch t (reqs : request list) : response list =
  let module Metrics = Sycl_obs.Metrics in
  let arr = Array.of_list reqs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let t0 = Unix.gettimeofday () in
    let results : response option array = Array.make n None in
    (* Work queue: an atomic next-index counter; workers pull until it
       runs past the end. Each slot is written by exactly one worker and
       read only after [Pool.run] has returned, so no further
       synchronization is needed. *)
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (process t arr.(i));
          loop ()
        end
      in
      loop ()
    in
    ignore (Sycl_obs.Pool.run (min t.n_workers n) (fun _ -> worker ()));
    let wall_us =
      max 1 (int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1e6)))
    in
    Metrics.incr t.reg ~by:wall_us "service.batch_wall_us";
    Metrics.set_gauge t.reg "service.modules_per_sec"
      (int_of_float
         (Float.round (float_of_int n *. 1e6 /. float_of_int wall_us)));
    let responses =
      Array.to_list
        (Array.map
           (function
             | Some r -> r
             | None -> invalid_arg "Service.run_batch: missing result")
           results)
    in
    (* Canonical remark delivery: request order, emission order within a
       request — independent of worker count and interleaving. *)
    List.iter deliver_remarks responses;
    responses
  end
