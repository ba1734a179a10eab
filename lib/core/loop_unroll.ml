(* Full unrolling of small constant-trip loops. Complements the constant
   propagation of Section VII-B: once a loop bound has been folded (e.g.
   a filter size), unrolling exposes the constant indices inside — the
   final step that lets constant-array loads fold away entirely. Only
   loops without side-effect-bearing region ops *need* care; we support
   scf.for and affine.for with iter_args. *)

open Mlir

let threshold = 16

let const_trip (loop : Core.op) =
  match (Dialects.Loop.const_bounds loop, Dialects.Loop.const_step loop) with
  | Some (lb, ub), Some step -> Some (lb, ub, step)
  | _ -> None

(* The trip count of a loop with constant bounds and a positive step, or
   None when it exceeds max_int: then [ub - lb] wraps. *)
let trip_count ~lb ~ub ~step =
  if ub <= lb then Some 0
  else
    let span = ub - lb in
    if span < 0 then None else Some (((span - 1) / step) + 1)

let body_size (loop : Core.op) =
  let n = ref 0 in
  Core.walk loop ~f:(fun _ -> incr n);
  !n - 1

let unroll (loop : Core.op) ~(lb : int) ~(trips : int) ~(step : int) stats =
  let b = Builder.before loop in
  let body = Dialects.Loop.body loop in
  let iv = Dialects.Loop.iv loop in
  let iter_args = Dialects.Loop.iter_args loop in
  let term =
    match Dialects.Loop.yield loop with
    | Some t -> t
    | None -> invalid_arg "loop_unroll: no terminator"
  in
  let carried = ref (Dialects.Loop.iter_inits loop) in
  for k = 0 to trips - 1 do
    let value_map = Hashtbl.create 32 in
    let iv_c = Dialects.Arith.const_index b (lb + (k * step)) in
    Hashtbl.replace value_map iv.Core.vid iv_c;
    List.iter2
      (fun formal actual -> Hashtbl.replace value_map formal.Core.vid actual)
      iter_args !carried;
    List.iter
      (fun op ->
        if not (op == term) then
          ignore (Builder.insert b (Core.clone_op ~value_map op)))
      (Core.ops body);
    carried :=
      List.map
        (fun y ->
          match Hashtbl.find_opt value_map y.Core.vid with
          | Some v -> v
          | None -> y)
        (Core.operands term)
  done;
  Core.replace_op loop !carried;
  Pass.Stats.bump stats "unroll.unrolled"

let run_on_func (f : Core.op) stats =
  (* Rejections are reported once per loop, not once per fixpoint sweep. *)
  let reported = Hashtbl.create 8 in
  let reject loop key message =
    if not (Hashtbl.mem reported loop.Core.oid) then begin
      Hashtbl.replace reported loop.Core.oid ();
      Pass.Stats.bump stats ("unroll.rejected-" ^ key);
      if Remarks.enabled () then
        Remarks.emit ~pass:"loop-unroll" ~name:("rejected-" ^ key)
          Remarks.Missed ~op:loop message
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun loop ->
        if loop.Core.parent_block <> None then
          match const_trip loop with
          | Some (lb, ub, step) -> (
            let innermost = Core.find_first loop ~p:Dialects.Loop.is_loop = None in
            match trip_count ~lb ~ub ~step with
            | Some trips
              when trips <= threshold
                   && trips * body_size loop <= threshold * threshold
                   && innermost ->
              if Remarks.enabled () then
                Remarks.emit ~pass:"loop-unroll" ~name:"unrolled" Remarks.Passed
                  ~op:loop
                  (Printf.sprintf
                     "constant-trip loop fully unrolled (%d iterations)" trips);
              unroll loop ~lb ~trips ~step stats;
              changed := true
            | trips ->
              if innermost then
                reject loop "size"
                  (Printf.sprintf
                     "constant-trip loop not unrolled: %s iterations x %d body \
                      ops exceeds the unroll threshold"
                     (match trips with
                     | Some n -> string_of_int n
                     | None -> Printf.sprintf "more than %d" max_int)
                     (body_size loop)))
          | None ->
            reject loop "non-constant"
              "loop not unrolled: bounds or step are not compile-time \
               constants")
      (Dialects.Loop.innermost_first f)
  done

let pass = Pass.on_functions "loop-unroll" run_on_func
