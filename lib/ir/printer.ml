(* Textual IR output in a generic, parseable form close to MLIR's generic
   operation syntax:

     %0, %1 = dialect.op(%a, %b) ({
       ^bb0(%arg: i32):
         ...
     }) {key = value} : (i32, i32) -> (f32, f32)

   The trailing function-type section is omitted for zero-operand,
   zero-result ops; regions and attributes are omitted when empty. *)

type env = {
  buf : Buffer.t;
  names : (int, string) Hashtbl.t;
  (* Per-region block labels (^bb0, ^bb1, ...), keyed by block id. *)
  block_names : (int, string) Hashtbl.t;
  mutable counter : int;
  (* Emit trailing loc(...) attachments (--mlir-print-debuginfo). Off by
     default so golden output (and IR fingerprints) are location-free. *)
  debuginfo : bool;
}

let value_name env (v : Core.value) =
  match Hashtbl.find_opt env.names v.vid with
  | Some n -> n
  | None ->
    let n = Printf.sprintf "%%%d" env.counter in
    env.counter <- env.counter + 1;
    Hashtbl.replace env.names v.vid n;
    n

let block_name env (b : Core.block) =
  match Hashtbl.find_opt env.block_names b.Core.bid with
  | Some n -> n
  | None -> Printf.sprintf "^orphan%d" b.Core.bid

let indent env level = Buffer.add_string env.buf (String.make (2 * level) ' ')

let rec print_op env level (op : Core.op) =
  indent env level;
  (* Results *)
  if Core.num_results op > 0 then begin
    Buffer.add_string env.buf
      (String.concat ", " (List.map (value_name env) (Core.results op)));
    Buffer.add_string env.buf " = "
  end;
  Buffer.add_string env.buf op.name;
  (* Operands *)
  Buffer.add_char env.buf '(';
  Buffer.add_string env.buf
    (String.concat ", " (List.map (value_name env) (Core.operands op)));
  Buffer.add_char env.buf ')';
  (* Successors *)
  if Core.num_successors op > 0 then begin
    Buffer.add_string env.buf "[";
    Buffer.add_string env.buf
      (String.concat ", " (List.map (block_name env) (Core.successors op)));
    Buffer.add_char env.buf ']'
  end;
  (* Regions *)
  if Core.num_regions op > 0 then begin
    Buffer.add_string env.buf " (";
    Array.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string env.buf ", ";
        print_region env level r)
      op.regions;
    Buffer.add_char env.buf ')'
  end;
  (* Attributes, sorted for stable output *)
  if op.attrs <> [] then begin
    let attrs = List.sort (fun (a, _) (b, _) -> compare a b) op.attrs in
    Buffer.add_string env.buf " {";
    Buffer.add_string env.buf
      (String.concat ", "
         (List.map (fun (k, v) -> k ^ " = " ^ Attr.to_string v) attrs));
    Buffer.add_char env.buf '}'
  end;
  (* Type signature *)
  if Core.num_operands op > 0 || Core.num_results op > 0 then begin
    Buffer.add_string env.buf " : (";
    Buffer.add_string env.buf
      (String.concat ", "
         (List.map (fun v -> Types.to_string v.Core.vty) (Core.operands op)));
    Buffer.add_string env.buf ") -> (";
    Buffer.add_string env.buf
      (String.concat ", "
         (List.map (fun v -> Types.to_string v.Core.vty) (Core.results op)));
    Buffer.add_char env.buf ')'
  end;
  (* Location attachment *)
  if env.debuginfo then begin
    Buffer.add_string env.buf " loc(";
    Buffer.add_string env.buf (Loc.to_string op.Core.loc);
    Buffer.add_char env.buf ')'
  end

and print_region env level (r : Core.region) =
  Buffer.add_string env.buf "{\n";
  (* Assign per-region labels up front: successor references may point
     forward to blocks whose header has not been printed yet. *)
  List.iteri
    (fun i b ->
      Hashtbl.replace env.block_names b.Core.bid (Printf.sprintf "^bb%d" i))
    r.Core.blocks;
  List.iteri
    (fun i b ->
      (* Print the block header when the block has arguments, when the
         region has several blocks, or when some branch names the block
         as a successor — an argument-less successor target in a
         single-block region would otherwise lose its label and the
         branch could not re-parse. *)
      if
        Array.length b.Core.bargs > 0
        || List.length r.Core.blocks > 1
        || Core.is_successor_target b
      then begin
        indent env level;
        Buffer.add_string env.buf (Printf.sprintf "^bb%d(" i);
        Buffer.add_string env.buf
          (String.concat ", "
             (List.map
                (fun a ->
                  value_name env a ^ ": " ^ Types.to_string a.Core.vty)
                (Core.block_args b)));
        Buffer.add_string env.buf "):\n"
      end;
      List.iter
        (fun o ->
          print_op env (level + 1) o;
          Buffer.add_char env.buf '\n')
        b.Core.body)
    r.Core.blocks;
  indent env level;
  Buffer.add_char env.buf '}'

let to_string ?(debuginfo = false) op =
  let env =
    { buf = Buffer.create 1024; names = Hashtbl.create 64;
      block_names = Hashtbl.create 16; counter = 0; debuginfo }
  in
  print_op env 0 op;
  Buffer.contents env.buf

let print ?(out = stdout) ?debuginfo op =
  output_string out (to_string ?debuginfo op);
  output_char out '\n'

(** Short one-line description of an op, for diagnostics. *)
let summary (op : Core.op) =
  let env =
    { buf = Buffer.create 64; names = Hashtbl.create 8;
      block_names = Hashtbl.create 4; counter = 0; debuginfo = false }
  in
  Buffer.add_string env.buf op.name;
  Buffer.add_char env.buf '(';
  Buffer.add_string env.buf
    (String.concat ", " (List.map (value_name env) (Core.operands op)));
  Buffer.add_char env.buf ')';
  Buffer.contents env.buf
