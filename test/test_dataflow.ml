(* Generic forward data-flow framework tests, using a simple constant-
   style domain over a designated memory cell. *)

open Mlir
module A = Dialects.Arith

(* Domain: what do we know about the last value stored anywhere — Bottom
   (nothing stored yet), Known c, or Top. *)
module D = struct
  type t =
    | Bottom
    | Known of int
    | Top

  let join a b =
    match (a, b) with
    | Bottom, x | x, Bottom -> x
    | Known x, Known y -> if x = y then Known x else Top
    | Top, _ | _, Top -> Top

  let equal = ( = )
end

module DF = Dataflow.Forward (D)

let transfer (op : Core.op) (state : D.t) : D.t =
  if Dialects.Memref.is_store op then
    let v, _, _ = Dialects.Memref.store_parts op in
    match Rewrite.constant_of_value v with
    | Some (Attr.Int c) -> D.Known c
    | _ -> D.Top
  else state

let analyze f = DF.analyze f ~init:D.Bottom ~transfer

let state_at res (op : Core.op) =
  Option.value ~default:D.Bottom (DF.before res op)

let the_load f = List.hd (Core.collect_named f "memref.load")

let dom = Alcotest.testable
    (Fmt.of_to_string (function
       | D.Bottom -> "bottom"
       | D.Known c -> Printf.sprintf "known %d" c
       | D.Top -> "top"))
    ( = )

let mk_store b mem c =
  Dialects.Memref.store b (A.const_int b c) mem [ A.const_index b 0 ]

let tests_list =
  [
    Alcotest.test_case "straight-line state threads through" `Quick (fun () ->
        let _m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.i64 ] (fun b vals ->
              let mem = List.hd vals in
              mk_store b mem 3;
              ignore (Dialects.Memref.load b mem [ A.const_index b 0 ]))
        in
        let res = analyze f in
        Alcotest.check dom "known 3" (D.Known 3) (state_at res (the_load f)));
    Alcotest.test_case "branch join merges agreeing states" `Quick (fun () ->
        let _m, f =
          Helpers.with_func
            ~args:[ Types.memref_dyn Types.i64; Types.i1 ] (fun b vals ->
              match vals with
              | [ mem; c ] ->
                ignore
                  (Dialects.Scf.if_ b c
                     ~then_:(fun bb -> mk_store bb mem 5; [])
                     ~else_:(fun bb -> mk_store bb mem 5; [])
                     ());
                ignore (Dialects.Memref.load b mem [ A.const_index b 0 ])
              | _ -> assert false)
        in
        let res = analyze f in
        Alcotest.check dom "both branches agree" (D.Known 5) (state_at res (the_load f)));
    Alcotest.test_case "branch join degrades disagreeing states to top" `Quick
      (fun () ->
        let _m, f =
          Helpers.with_func
            ~args:[ Types.memref_dyn Types.i64; Types.i1 ] (fun b vals ->
              match vals with
              | [ mem; c ] ->
                ignore
                  (Dialects.Scf.if_ b c
                     ~then_:(fun bb -> mk_store bb mem 5; [])
                     ~else_:(fun bb -> mk_store bb mem 6; [])
                     ());
                ignore (Dialects.Memref.load b mem [ A.const_index b 0 ])
              | _ -> assert false)
        in
        let res = analyze f in
        Alcotest.check dom "top" D.Top (state_at res (the_load f)));
    Alcotest.test_case "if without else joins with the incoming state" `Quick
      (fun () ->
        let _m, f =
          Helpers.with_func
            ~args:[ Types.memref_dyn Types.i64; Types.i1 ] (fun b vals ->
              match vals with
              | [ mem; c ] ->
                mk_store b mem 1;
                ignore
                  (Dialects.Scf.if_ b c
                     ~then_:(fun bb -> mk_store bb mem 2; [])
                     ());
                ignore (Dialects.Memref.load b mem [ A.const_index b 0 ])
              | _ -> assert false)
        in
        let res = analyze f in
        Alcotest.check dom "1 or 2 = top" D.Top (state_at res (the_load f)));
    Alcotest.test_case "loop reaches a fixpoint including the back edge" `Quick
      (fun () ->
        let _m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.i64 ] (fun b vals ->
              let mem = List.hd vals in
              mk_store b mem 1;
              let zero = A.const_index b 0 in
              let four = A.const_index b 4 in
              let one = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:four ~step:one (fun bb _ _ ->
                     (* Inside the loop, the state may be the pre-loop store
                        or the loop's own store. *)
                     ignore (Dialects.Memref.load bb mem [ A.const_index bb 0 ]);
                     mk_store bb mem 2;
                     [])))
        in
        let res = analyze f in
        Alcotest.check dom "1 joined with 2 = top" D.Top (state_at res (the_load f)));
    Alcotest.test_case "loop body that re-establishes the state stays precise"
      `Quick (fun () ->
        let _m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.i64 ] (fun b vals ->
              let mem = List.hd vals in
              mk_store b mem 7;
              let zero = A.const_index b 0 in
              let four = A.const_index b 4 in
              let one = A.const_index b 1 in
              ignore
                (Dialects.Scf.for_ b ~lb:zero ~ub:four ~step:one (fun bb _ _ ->
                     mk_store bb mem 7;
                     ignore (Dialects.Memref.load bb mem [ A.const_index bb 0 ]);
                     [])));
        in
        let res = analyze f in
        Alcotest.check dom "still known 7" (D.Known 7) (state_at res (the_load f)));
    Alcotest.test_case "block end states recorded" `Quick (fun () ->
        let _m, f =
          Helpers.with_func ~args:[ Types.memref_dyn Types.i64 ] (fun b vals ->
              mk_store b (List.hd vals) 9)
        in
        let res = analyze f in
        let body = Core.func_body f in
        Alcotest.check dom "end of entry block" (D.Known 9)
          (Option.value ~default:D.Bottom
             (Hashtbl.find_opt res.DF.at_end body.Core.bid)));
  ]

let tests = ("dataflow", tests_list)
