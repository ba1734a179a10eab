(* Seeded random IR generator for the differential-testing harness.

   Generates modules that exercise the full surface of the textual
   format: every {!Attr.t} constructor (including nan/infinity floats
   and strings full of non-printable bytes), nested regions, dialect
   op names, and multi-block CFG bodies with forward and backward
   successor references. The output is structurally printable and
   re-parseable — def-before-use in print order, successors only on
   block-terminating ops — but makes no dialect-semantics promises:
   it feeds the print→parse→print fixpoint oracle, not the simulator. *)

let max_region_depth = 3 (* nesting limit for region-bearing ops *)
let max_ops_per_block = 4
let max_blocks_per_cfg = 4 (* blocks in a generated CFG region *)
let max_funcs = 3 (* top-level ops per module *)

type t = {
  rng : Random.State.t;
  mutable n_syms : int;  (** fresh-name counter for symbols/attr keys *)
}

let create seed = { rng = Random.State.make [| 0x1e9e; seed |]; n_syms = 0 }

let int g n = Random.State.int g.rng n
let pick g xs = List.nth xs (int g (List.length xs))
let pick_arr g xs = xs.(int g (Array.length xs))

let fresh_sym g prefix =
  g.n_syms <- g.n_syms + 1;
  Printf.sprintf "%s%d" prefix g.n_syms

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let scalar_types =
  [ Types.Index; Types.F32; Types.F64; Types.Integer 1; Types.Integer 8;
    Types.Integer 16; Types.Integer 32; Types.Integer 64; Types.None_type ]

let gen_scalar_type g = pick g scalar_types

let gen_memref_type g =
  let rank = int g 4 in
  let shape =
    List.init rank (fun _ -> if int g 4 = 0 then None else Some (1 + int g 64))
  in
  let space = pick g [ Types.Global; Types.Local; Types.Private ] in
  Types.Memref { shape; element = gen_scalar_type g; space }

let gen_type g =
  match int g 10 with
  | 0 | 1 -> gen_memref_type g
  | 2 ->
    let args = List.init (int g 3) (fun _ -> gen_scalar_type g) in
    let results = List.init (int g 3) (fun _ -> gen_scalar_type g) in
    Types.Function (args, results)
  | _ -> gen_scalar_type g

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)
(* ------------------------------------------------------------------ *)

let special_floats =
  [| 0.0; -0.0; 1.0; -1.0; 0.5; 1.2; -3.0; Float.nan; Float.infinity;
     Float.neg_infinity; Float.max_float; Float.min_float; epsilon_float;
     4.9e-324 (* smallest subnormal *); 0.1; 1.0000000000000002;
     3.14159265358979312; 1e300; -1e-300 |]

(* 64 random bits out of three 30-bit draws (Random.State.bits). *)
let bits64 g =
  let open Int64 in
  logxor
    (shift_left (of_int (Random.State.bits g.rng)) 34)
    (logxor
       (shift_left (of_int (Random.State.bits g.rng)) 17)
       (of_int (Random.State.bits g.rng)))

let gen_float g =
  match int g 4 with
  | 0 -> pick_arr g special_floats
  | 1 -> float_of_int (int g 2001 - 1000)
  | 2 -> Random.State.float g.rng 2e6 -. 1e6
  | _ -> Int64.float_of_bits (bits64 g)

let tricky_chars = [ '"'; '\\'; '\n'; '\t'; '?'; '%'; '^'; '{'; '}'; '\000'; '\r' ]

let gen_string g =
  String.init (int g 12) (fun _ ->
      match int g 6 with
      | 0 | 1 | 2 -> Char.chr (32 + int g 95) (* printable ASCII *)
      | 3 -> pick g tricky_chars
      | _ -> Char.chr (int g 256))

(* Built with the smart constructors so the stored tree is already in the
   canonical form {!Affine_expr.Map.to_string} and the parser agree on. *)
let affine_maps =
  let open Affine_expr in
  [ Map.identity 1; Map.identity 2;
    Map.make ~num_dims:2 ~num_syms:0 [ add (dim 0) (dim 1) ];
    Map.make ~num_dims:1 ~num_syms:1 [ add (mul (dim 0) (const 4)) (sym 0) ];
    Map.make ~num_dims:2 ~num_syms:0
      [ modulo (dim 0) (const 8); floordiv (dim 1) (const 2) ];
    Map.make ~num_dims:1 ~num_syms:0 [ sub (dim 0) (const 1) ];
    Map.constant_map [ 0; 3 ] ]

let rec gen_attr g ~depth =
  match int g (if depth > 0 then 11 else 10) with
  | 0 -> Attr.Unit
  | 1 -> Attr.Bool (Random.State.bool g.rng)
  | 2 ->
    Attr.Int
      (match int g 4 with
      | 0 -> int g 2001 - 1000
      | 1 -> max_int
      | 2 -> min_int
      | _ -> Random.State.bits g.rng)
  | 3 -> Attr.Float (gen_float g)
  | 4 -> Attr.String (gen_string g)
  | 5 -> Attr.Type (gen_type g)
  | 6 -> Attr.Symbol (fresh_sym g "sym")
  | 7 -> Attr.Dense_int (Array.init (int g 5) (fun _ -> int g 201 - 100))
  | 8 -> Attr.Dense_float (Array.init (int g 5) (fun _ -> gen_float g))
  | 9 -> Attr.Affine_map (pick g affine_maps)
  | _ -> Attr.Array (List.init (int g 4) (fun _ -> gen_attr g ~depth:(depth - 1)))

(* Attributes shaped like the analysis-printer annotations (dotted keys,
   the same value constructs), so the fuzzer's round-trip oracle covers
   annotated modules. *)
let gen_annotation_attr g =
  match int g 8 with
  | 0 -> ("sycl.alias_group", Attr.Int (int g 8))
  | 1 ->
    ( "sycl.uniform",
      Attr.Array
        (List.init
           (1 + int g 3)
           (fun _ ->
             Attr.String (pick g [ "uniform"; "unknown"; "non-uniform" ]))) )
  | 2 ->
    ( "sycl.reaching_mods",
      Attr.Dense_int (Array.init (int g 5) (fun _ -> int g 32)) )
  | 3 ->
    ( "sycl.access_matrix",
      Attr.Array
        (List.init
           (1 + int g 2)
           (fun _ -> Attr.Dense_int (Array.init (1 + int g 3) (fun _ -> int g 5 - 2)))) )
  | 4 ->
    ( "sycl.coalescing",
      Attr.String
        (pick g [ "linear"; "reverse-linear"; "thread-invariant"; "non-coalesced" ]) )
  | 5 -> ("sycl.cycles", Attr.Int (int g 100_000))
  | 6 -> ("sycl.mem_cycles", Attr.Int (int g 50_000))
  | _ -> ("sycl.temporal_reuse", Attr.Bool (Random.State.bool g.rng))

let gen_attrs g =
  let plain =
    List.init (int g 4) (fun i -> (Printf.sprintf "a%d" i, gen_attr g ~depth:2))
  in
  if int g 4 = 0 then plain @ [ gen_annotation_attr g ] else plain

(* ------------------------------------------------------------------ *)
(* Locations                                                           *)
(* ------------------------------------------------------------------ *)

(* Random source locations covering all five constructors, nested. Built
   with the {!Loc} smart constructors so the tree is already canonical
   (fused lists flattened/deduplicated, unknown callsite sides collapsed)
   — print -> parse is then the textual identity the debuginfo fixpoint
   oracle demands. *)
let rec gen_loc g ~depth =
  match int g (if depth > 0 then 8 else 4) with
  | 0 -> Loc.unknown
  | 1 | 2 ->
    Loc.file
      ~file:(match int g 3 with
            | 0 -> "mm.cpp"
            | 1 -> "kernel.sycl.cpp"
            | _ -> gen_string g)
      ~line:(1 + int g 500) ~col:(1 + int g 120)
  | 3 -> Loc.name (gen_string g)
  | 4 | 5 -> Loc.name ~child:(gen_loc g ~depth:(depth - 1)) (fresh_sym g "loc")
  | 6 ->
    Loc.callsite
      ~callee:(gen_loc g ~depth:(depth - 1))
      ~caller:(gen_loc g ~depth:(depth - 1))
  | _ ->
    Loc.fused (List.init (int g 4) (fun _ -> gen_loc g ~depth:(depth - 1)))

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(* Plain strings, not dialect-library dependencies: the generator lives
   below the dialect layer and only exercises the textual format. *)
let leaf_names =
  [| "arith.addf"; "arith.mulf"; "arith.addi"; "arith.select";
     "arith.constant"; "memref.load"; "memref.store"; "memref.alloc";
     "affine.apply"; "func.call"; "gpu.barrier"; "gpu.thread_id";
     "sycl.id.get"; "sycl.range.get"; "test.op"; "test.misc$special" |]

let region_names = [| "scf.execute_region"; "test.wrap"; "test.nested" |]

(* Values usable as operands: everything already printed at this point.
   Extended left-to-right as generation proceeds. *)
type env = Core.value list

let gen_operands g (env : env) =
  if env = [] then []
  else List.init (int g 3) (fun _ -> pick g env)

let gen_leaf g env =
  Core.create_op (pick_arr g leaf_names) ~operands:(gen_operands g env)
    ~result_types:(List.init (int g 3) (fun _ -> gen_type g))
    ~attrs:(if int g 2 = 0 then gen_attrs g else [])
    ~loc:(gen_loc g ~depth:2)

let rec gen_op g ~depth (env : env) : Core.op =
  if depth > 0 && int g 4 = 0 then
    let regions =
      List.init (1 + int g 2) (fun _ -> gen_region g ~depth:(depth - 1) env)
    in
    Core.create_op (pick_arr g region_names) ~operands:(gen_operands g env)
      ~result_types:(List.init (int g 2) (fun _ -> gen_type g))
      ~attrs:(if int g 2 = 0 then gen_attrs g else [])
      ~regions ~loc:(gen_loc g ~depth:2)
  else gen_leaf g env

(* A straight-line block body; returns the ops and the extended env. *)
and gen_body g ~depth (env : env) =
  let n = 1 + int g max_ops_per_block in
  let rec go acc env i =
    if i = n then (List.rev acc, env)
    else
      let op = gen_op g ~depth env in
      go (op :: acc) (env @ Core.results op) (i + 1)
  in
  go [] env 0

and gen_region g ~depth (env : env) : Core.region =
  if depth > 0 && int g 3 = 0 then gen_cfg_region g env
  else begin
    let args = List.init (int g 3) (fun _ -> gen_type g) in
    let block = Core.create_block ~args () in
    let ops, _ = gen_body g ~depth (env @ Core.block_args block) in
    List.iter (Core.append_op block) ops;
    Core.create_region ~blocks:[ block ] ()
  end

(* Multi-block CFG region: every block ends in a cf terminator whose
   successors point anywhere in the region (forward and backward edges),
   except the last block which ends in a plain leaf. Bodies only use
   block-local values plus the enclosing env, so print order equals
   def order. *)
and gen_cfg_region g (env : env) : Core.region =
  let n = 2 + int g (max_blocks_per_cfg - 1) in
  let blocks =
    List.init n (fun _ ->
        Core.create_block ~args:(List.init (int g 2) (fun _ -> gen_type g)) ())
  in
  List.iteri
    (fun i b ->
      let ops, env' = gen_body g ~depth:0 (env @ Core.block_args b) in
      List.iter (Core.append_op b) ops;
      let term =
        if i = n - 1 then Core.create_op "test.return" ~operands:[] ~result_types:[]
        else if Random.State.bool g.rng then
          Core.create_op "cf.br" ~operands:[] ~result_types:[]
            ~successors:[ pick g blocks ]
        else begin
          let cond =
            Core.create_op "arith.constant" ~operands:[]
              ~result_types:[ Types.Integer 1 ]
              ~attrs:[ ("value", Attr.Bool (Random.State.bool g.rng)) ]
          in
          Core.append_op b cond;
          Core.create_op "cf.cond_br"
            ~operands:(Core.result cond 0 :: gen_operands g env')
            ~result_types:[]
            ~successors:[ pick g blocks; pick g blocks ]
        end
      in
      Core.append_op b term)
    blocks;
  Core.create_region ~blocks ()

(* ------------------------------------------------------------------ *)
(* Modules                                                             *)
(* ------------------------------------------------------------------ *)

let gen_func g =
  let arg_tys = List.init (int g 3) (fun _ -> gen_type g) in
  let block = Core.create_block ~args:arg_tys () in
  let ops, _ =
    gen_body g ~depth:max_region_depth (Core.block_args block)
  in
  List.iter (Core.append_op block) ops;
  Core.append_op block
    (Core.create_op "func.return" ~operands:[] ~result_types:[]);
  let region = Core.create_region ~blocks:[ block ] () in
  Core.create_op "func.func" ~operands:[] ~result_types:[]
    ~attrs:
      [ ("sym_name", Attr.String (fresh_sym g "fn"));
        ("function_type", Attr.Type (Types.Function (arg_tys, []))) ]
    ~regions:[ region ] ~loc:(gen_loc g ~depth:1)

let gen_global g =
  Core.create_op "test.global" ~operands:[] ~result_types:[]
    ~attrs:(("sym_name", Attr.Symbol (fresh_sym g "g")) :: gen_attrs g)

(** A fresh random [builtin.module]. *)
let gen_module g : Core.op =
  let m = Core.create_module () in
  let body = Core.entry_block m.Core.regions.(0) in
  for _ = 1 to 1 + int g max_funcs do
    Core.append_op body
      (if int g 4 = 0 then gen_global g else gen_func g)
  done;
  m
