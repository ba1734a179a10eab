(* The one machine-readable report a tool run writes ([--report-json
   FILE] on sycl-mlir-opt and sycl_bench): a JSON object with a version
   field and one named section per surface the run produced. Each
   section holds exactly the document its surface's [to_json] renders —
   [metrics] is Metrics.to_json, [trace] is Trace.to_json, and so on. *)

module Json = Mlir.Json

(** Bumped whenever a section is renamed or its document changes shape. *)
let version = 1

let to_json (sections : (string * Json.t) list) : Json.t =
  Json.Obj (("version", Json.Int version) :: sections)

(** Write the report to [path]; [Error] carries the system message. *)
let write (path : string) (sections : (string * Json.t) list) :
    (unit, string) result =
  try
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Json.to_string (to_json sections) ^ "\n"));
    Ok ()
  with Sys_error msg -> Error msg
