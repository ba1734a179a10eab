(* Textual IR output in a generic, parseable form close to MLIR's generic
   operation syntax:

     %0, %1 = dialect.op(%a, %b) ({
       ^bb0(%arg: i32):
         ...
     }) {key = value} : (i32, i32) -> (f32, f32)

   The trailing function-type section is omitted for zero-operand,
   zero-result ops; regions and attributes are omitted when empty.
   Everything is written straight into one buffer, types and attributes
   through their own writers ({!Types.write}, {!Attr.write}). *)

(* Value and block ids are distinct sequential ints: they hash to
   themselves. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i
end)

type env = {
  buf : Buffer.t;
  (* The number [n] of each value printed so far, as [%n], by value id. *)
  names : int Itbl.t;
  (* Per-region block labels ([^bb0], [^bb1], ...): the block's position
     in its region, by block id. *)
  block_names : int Itbl.t;
  mutable counter : int;
  (* Emit trailing loc(...) attachments (--mlir-print-debuginfo). Off by
     default so golden output (and IR fingerprints) are location-free. *)
  debuginfo : bool;
}

let make_env ?(debuginfo = false) size =
  { buf = Buffer.create size; names = Itbl.create 64; block_names = Itbl.create 16;
    counter = 0; debuginfo }

(* Values are numbered in the order they are first printed. *)
let value_name env (v : Core.value) =
  let n =
    match Itbl.find env.names v.vid with
    | n -> n
    | exception Not_found ->
      let n = env.counter in
      env.counter <- n + 1;
      Itbl.add env.names v.vid n;
      n
  in
  Buffer.add_char env.buf '%';
  Text.add_int env.buf n

let block_name env (b : Core.block) =
  match Itbl.find env.block_names b.Core.bid with
  | i ->
    Buffer.add_string env.buf "^bb";
    Text.add_int env.buf i
  | exception Not_found ->
    Buffer.add_string env.buf "^orphan";
    Text.add_int env.buf b.Core.bid

(* [xs] written by [f], separated by ", ". *)
let comma_separated env f xs =
  for i = 0 to Array.length xs - 1 do
    if i > 0 then Buffer.add_string env.buf ", ";
    f env xs.(i)
  done

let value_type env (v : Core.value) = Types.write env.buf v.Core.vty

let spaces = String.make 64 ' '

let rec indent buf n =
  if n > 0 then begin
    let k = min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    indent buf (n - k)
  end

let rec print_op env level (op : Core.op) =
  let buf = env.buf in
  indent buf (2 * level);
  (* Results *)
  if Core.num_results op > 0 then begin
    comma_separated env value_name op.results;
    Buffer.add_string buf " = "
  end;
  Buffer.add_string buf op.name;
  (* Operands *)
  Buffer.add_char buf '(';
  comma_separated env value_name op.operands;
  Buffer.add_char buf ')';
  (* Successors *)
  if Core.num_successors op > 0 then begin
    Buffer.add_char buf '[';
    comma_separated env block_name op.successors;
    Buffer.add_char buf ']'
  end;
  (* Regions *)
  if Core.num_regions op > 0 then begin
    Buffer.add_string buf " (";
    Array.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string buf ", ";
        print_region env level r)
      op.regions;
    Buffer.add_char buf ')'
  end;
  (* Attributes, sorted by key for stable output *)
  (match op.attrs with
  | [] -> ()
  | attrs ->
    Buffer.add_string buf " {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf k;
        Buffer.add_string buf " = ";
        Attr.write buf v)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) attrs);
    Buffer.add_char buf '}');
  (* Type signature *)
  if Core.num_operands op > 0 || Core.num_results op > 0 then begin
    Buffer.add_string buf " : (";
    comma_separated env value_type op.operands;
    Buffer.add_string buf ") -> (";
    comma_separated env value_type op.results;
    Buffer.add_char buf ')'
  end;
  (* Location attachment *)
  if env.debuginfo then begin
    Buffer.add_string buf " loc(";
    Loc.write buf op.Core.loc;
    Buffer.add_char buf ')'
  end

and print_region env level (r : Core.region) =
  let buf = env.buf in
  Buffer.add_string buf "{\n";
  (* Assign per-region labels up front: successor references may point
     forward to blocks whose header has not been printed yet. *)
  List.iteri (fun i b -> Itbl.replace env.block_names b.Core.bid i) r.Core.blocks;
  let several = match r.Core.blocks with _ :: _ :: _ -> true | _ -> false in
  List.iteri
    (fun i b ->
      (* Print the block header when the block has arguments, when the
         region has several blocks, or when some branch names the block
         as a successor — an argument-less successor target in a
         single-block region would otherwise lose its label and the
         branch could not re-parse. *)
      if Array.length b.Core.bargs > 0 || several || Core.is_successor_target b
      then begin
        indent buf (2 * level);
        Buffer.add_string buf "^bb";
        Text.add_int buf i;
        Buffer.add_char buf '(';
        comma_separated env
          (fun env a ->
            value_name env a;
            Buffer.add_string buf ": ";
            value_type env a)
          b.Core.bargs;
        Buffer.add_string buf "):\n"
      end;
      List.iter
        (fun o ->
          print_op env (level + 1) o;
          Buffer.add_char buf '\n')
        (Core.ops b))
    r.Core.blocks;
  indent buf (2 * level);
  Buffer.add_char buf '}'

let to_buffer ?debuginfo op =
  let env = make_env ?debuginfo 1024 in
  print_op env 0 op;
  env.buf

let to_string ?debuginfo op = Buffer.contents (to_buffer ?debuginfo op)

let print ?(out = stdout) ?debuginfo op =
  Buffer.output_buffer out (to_buffer ?debuginfo op);
  output_char out '\n'

(** Short one-line description of an op, for diagnostics. *)
let summary (op : Core.op) =
  let env = make_env 64 in
  Buffer.add_string env.buf op.name;
  Buffer.add_char env.buf '(';
  comma_separated env value_name op.operands;
  Buffer.add_char env.buf ')';
  Buffer.contents env.buf

(* A replace that leaves a result used names the op it could not erase. *)
let () =
  Printexc.register_printer (function
    | Core.Has_uses op ->
      let uses = Array.fold_left (fun n r -> n + Core.num_uses r) 0 op.Core.results in
      Some
        (Printf.sprintf
           "Core.Has_uses: cannot erase %s at loc(%s): its results still \
            have %d use(s)"
           (summary op) (Loc.to_string op.Core.loc) uses)
    | _ -> None)
