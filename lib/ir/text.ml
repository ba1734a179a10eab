(* What the IR writers ({!Types.write}, {!Attr.write}, {!Loc.write},
   {!Affine_expr.Map.write} and the {!Printer}) share: they append to the
   caller's buffer and build no intermediate string. *)

(** [n] in decimal, spelled as [string_of_int n], without allocating. *)
let add_int buf n =
  (* Digits of [-m] for [m <= 0]: negative numbers reach [min_int]. *)
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char buf '-';
    digits n
  end
  else digits (-n)

(** [xs], each written by [write], separated by [", "]. *)
let add_list buf write xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      write buf x)
    xs
