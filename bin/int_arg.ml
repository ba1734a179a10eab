(* An integer flag with a lower bound: a value below it is a usage error
   that names the flag (cmdliner exits 124), never a silent clamp. *)
let at_least lo =
  Cmdliner.Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo -> Ok n
        | _ ->
          Error
            (`Msg
              (Printf.sprintf "invalid value '%s', expected an integer >= %d"
                 s lo))),
      Format.pp_print_int )
