(* Shared test helpers. *)

open Mlir

let fresh_module () = Core.create_module ()

(** A module with a single function [name] whose body is built by [f]. *)
let with_func ?(name = "f") ?(args = []) ?(results = []) f =
  let m = fresh_module () in
  let fn =
    Dialects.Func.func m name ~args ~results (fun b vals ->
        f b vals;
        if results = [] then Dialects.Func.return b [])
  in
  (m, fn)

(** A kernel module (tagged sycl.kernel, item argument first). *)
let with_kernel ?(name = "k") ?(dims = 2) ?(nd = false) ~args f =
  let m = fresh_module () in
  let fn = Sycl_frontend.Kernel.define m ~name ~dims ~nd ~args f in
  (m, fn)

let check_verifies ?(msg = "module verifies") m =
  match Verifier.verify m with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "%s: %s" msg
      (String.concat "; " (List.map Verifier.diag_to_string ds))

let count_ops m name = List.length (Core.collect_named m name)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(** The cells of a simulated allocation, in order, and their values as
    floats. *)
let cells (a : Sycl_sim.Memory.allocation) =
  Array.init (Sycl_sim.Memory.size a) (Sycl_sim.Memory.get a)

let floats (a : Sycl_sim.Memory.allocation) =
  Array.init (Sycl_sim.Memory.size a) (Sycl_sim.Memory.get_float a)

(** The simulator domain count of every test that simulates and names
    no count of its own: [SYCL_SIM_DOMAINS] when set (CI runs the whole
    suite under 1 and under 4 to cover both backends), else the
    recommended count. *)
let sim_domains =
  match Sys.getenv_opt "SYCL_SIM_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some v -> (
    match Sycl_sim.Sim_config.domains_of_string v with
    | Some n -> n
    | None -> invalid_arg ("SYCL_SIM_DOMAINS=" ^ v ^ ": want an integer >= 1"))

(** {!Sycl_sim.Sim_config.default} on {!sim_domains} domains. *)
let sim = { Sycl_sim.Sim_config.default with domains = sim_domains }

(** [w] measured under the default SYCL-MLIR configuration on {!sim},
    with [cache_model] (default flat). *)
let measure_sycl_mlir ?(cache_model = Sycl_sim.Cost.Flat) w =
  Sycl_workloads.Common.measure
    ~sim:{ sim with cache_model }
    (Sycl_core.Driver.config Sycl_core.Driver.Sycl_mlir)
    w
