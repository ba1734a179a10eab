(* The full evaluated suite, indexed by the paper's figures. *)

open Common

let fig2 ?scale () = Single_kernel.all ?scale ()
let fig3 ?scale () = Polybench.all ?scale ()
let stencils ?scale () = Stencil.all ?scale ()

let all ?scale () = fig2 ?scale () @ fig3 ?scale () @ stencils ?scale ()

(* Extension workloads: runnable via sycl-bench but not part of the
   paper's figures. *)
let extensions () =
  [ Extensions.elementwise_chain ~n:8192; Extensions.tiled_matmul ~n:32 ~m_tile:8 ]

let find name =
  List.find_opt
    (fun w ->
      let norm s = String.lowercase_ascii (String.trim s) in
      norm w.w_name = norm name)
    (all () @ extensions ())

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  r_name : string;
  r_acpp : float option;  (** None = failed validation / unsupported *)
  r_sycl_mlir : float;
  r_base_cycles : int;
  r_comparison : comparison;
}

let run_row ?sim (w : workload) : row =
  let c = compare_workload ?sim w in
  {
    r_name = w.w_name;
    r_acpp = Option.map (fun m -> speedup c.c_base m) c.c_acpp;
    r_sycl_mlir = speedup c.c_base c.c_sycl_mlir;
    r_base_cycles = c.c_base.m_cycles;
    r_comparison = c;
  }

let bar width x =
  let n = int_of_float (x *. float_of_int width /. 4.5) in
  String.make (min width (max 1 n)) '#'

(** Print one figure: speedup over DPC++ per benchmark, ASCII bars like
    the paper's plots; missing AdaptiveCpp bars = failed validation. *)
let print_figure ~title (rows : row list) =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  Printf.printf "%-26s %-28s %-28s\n" "benchmark" "AdaptiveCpp" "SYCL-MLIR";
  List.iter
    (fun r ->
      let acpp_s =
        match r.r_acpp with
        | Some s -> Printf.sprintf "%5.2fx %s" s (bar 20 s)
        | None -> "  (failed validation)"
      in
      Printf.printf "%-26s %-28s %5.2fx %s\n" r.r_name acpp_s r.r_sycl_mlir
        (bar 20 r.r_sycl_mlir))
    rows;
  let acpp = List.filter_map (fun r -> r.r_acpp) rows in
  let sm = List.map (fun r -> r.r_sycl_mlir) rows in
  Printf.printf "%-26s %5.2fx%22s %5.2fx\n" "geo.-mean"
    (geomean acpp) "" (geomean sm)

let validity_ok (rows : row list) =
  List.for_all
    (fun r ->
      r.r_comparison.c_base.m_valid && r.r_comparison.c_sycl_mlir.m_valid)
    rows
