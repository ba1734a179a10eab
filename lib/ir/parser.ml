(* Parser for the textual generic form emitted by {!Printer}. Hand-rolled
   lexer + recursive descent. Dialects can register custom type parsers
   (keyed by the identifier following a ['!'], e.g. [!sycl.id<2>]). *)

exception Parse_error of string

type token =
  | Ident of string        (* foo, arith.constant, memref, true, ... *)
  | Value_ref of string    (* %0, %arg1 *)
  | Block_ref of string    (* ^bb0 *)
  | Symbol_ref of string   (* @kernel *)
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Lparen | Rparen
  | Lbrace | Rbrace
  | Lbracket | Rbracket
  | Langle | Rangle
  | Comma | Colon | Equal | Arrow | Bang | Star | Plus | Minus | Question
  | Eof

let token_to_string = function
  | Ident s -> s
  | Value_ref s -> "%" ^ s
  | Block_ref s -> "^" ^ s
  | Symbol_ref s -> "@" ^ s
  | Int_lit i -> string_of_int i
  | Float_lit f -> Attr.float_to_string f
  | String_lit s -> Attr.escape_string s
  | Lparen -> "(" | Rparen -> ")"
  | Lbrace -> "{" | Rbrace -> "}"
  | Lbracket -> "[" | Rbracket -> "]"
  | Langle -> "<" | Rangle -> ">"
  | Comma -> "," | Colon -> ":" | Equal -> "=" | Arrow -> "->"
  | Bang -> "!" | Star -> "*" | Plus -> "+" | Minus -> "-" | Question -> "?"
  | Eof -> "<eof>"

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  (* Position of the first character of the current line, for columns. *)
  mutable bol : int;
  (* Line/column (1-based) of the start of the most recent token. *)
  mutable tok_line : int;
  mutable tok_col : int;
}

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '.' || c = '$'

let is_digit c = c >= '0' && c <= '9'

let error lx msg =
  raise (Parse_error (Printf.sprintf "line %d: %s" lx.line msg))

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let rec skip_ws lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r') ->
    lx.pos <- lx.pos + 1;
    skip_ws lx
  | Some '\n' ->
    lx.pos <- lx.pos + 1;
    lx.line <- lx.line + 1;
    lx.bol <- lx.pos;
    skip_ws lx
  | Some '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/' ->
    while peek_char lx <> None && peek_char lx <> Some '\n' do
      lx.pos <- lx.pos + 1
    done;
    skip_ws lx
  | _ -> ()

let lex_while lx p =
  let start = lx.pos in
  while (match peek_char lx with Some c -> p c | None -> false) do
    lx.pos <- lx.pos + 1
  done;
  String.sub lx.src start (lx.pos - start)

let lex_number lx ~neg =
  (* Decimal integers (plus 0x hex integers) and decimal floats (1.5,
     2e3, 1.25e-7). Floats print in shortest-decimal form — C99 hex
     float literals (0x1.8p+3, as printed by %h) are rejected with an
     explicit error so a reintroduced hex printer cannot silently
     corrupt round-trips. *)
  let buf = Buffer.create 16 in
  if neg then Buffer.add_char buf '-';
  let add () =
    Buffer.add_char buf lx.src.[lx.pos];
    lx.pos <- lx.pos + 1
  in
  let digits p =
    while (match peek_char lx with Some c -> p c | None -> false) do
      add ()
    done
  in
  let is_hex c =
    is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let first = lx.pos in
  digits is_digit;
  let is_float = ref false in
  (if lx.src.[first] = '0' && (peek_char lx = Some 'x' || peek_char lx = Some 'X')
   then begin
     add ();
     digits is_hex;
     if
       peek_char lx = Some '.' || peek_char lx = Some 'p'
       || peek_char lx = Some 'P'
     then
       error lx
         "hex float literals are not supported (floats print in decimal; \
          use e.g. 3.0 instead of 0x1.8p+1)"
   end
   else begin
     if peek_char lx = Some '.' then begin
       is_float := true;
       add ();
       digits is_digit
     end;
     if peek_char lx = Some 'e' || peek_char lx = Some 'E' then begin
       is_float := true;
       add ();
       if peek_char lx = Some '+' || peek_char lx = Some '-' then add ();
       digits is_digit
     end
   end);
  let s = Buffer.contents buf in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float_lit f
    | None -> error lx (Printf.sprintf "bad float literal %S" s)
  else
    match int_of_string_opt s with
    | Some i -> Int_lit i
    | None -> error lx (Printf.sprintf "bad integer literal %S" s)

let lex_string lx =
  (* Opening quote consumed by caller. Escapes are exactly the ones the
     printer emits (backslash-n, backslash-t, backslash-backslash,
     backslash-quote, [\xHH]); anything else is an error rather than a
     silently dropped backslash. *)
  let buf = Buffer.create 16 in
  let hex_value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> error lx (Printf.sprintf "bad hex digit %C in \\x escape" c)
  in
  let rec go () =
    match peek_char lx with
    | None -> error lx "unterminated string literal"
    | Some '"' -> lx.pos <- lx.pos + 1
    | Some '\\' ->
      lx.pos <- lx.pos + 1;
      (match peek_char lx with
      | Some 'n' -> Buffer.add_char buf '\n'; lx.pos <- lx.pos + 1
      | Some 't' -> Buffer.add_char buf '\t'; lx.pos <- lx.pos + 1
      | Some '\\' -> Buffer.add_char buf '\\'; lx.pos <- lx.pos + 1
      | Some '"' -> Buffer.add_char buf '"'; lx.pos <- lx.pos + 1
      | Some 'x' ->
        lx.pos <- lx.pos + 1;
        let hi =
          match peek_char lx with
          | Some c -> lx.pos <- lx.pos + 1; hex_value c
          | None -> error lx "unterminated \\x escape"
        in
        let lo =
          match peek_char lx with
          | Some c -> lx.pos <- lx.pos + 1; hex_value c
          | None -> error lx "unterminated \\x escape"
        in
        Buffer.add_char buf (Char.chr ((hi * 16) + lo))
      | Some c -> error lx (Printf.sprintf "unknown string escape \\%c" c)
      | None -> error lx "unterminated escape");
      go ()
    | Some c ->
      if c = '\n' then begin
        lx.line <- lx.line + 1;
        lx.bol <- lx.pos + 1
      end;
      Buffer.add_char buf c;
      lx.pos <- lx.pos + 1;
      go ()
  in
  go ();
  String_lit (Buffer.contents buf)

let next_token lx =
  skip_ws lx;
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.pos - lx.bol + 1;
  match peek_char lx with
  | None -> Eof
  | Some c -> (
    match c with
    | '(' -> lx.pos <- lx.pos + 1; Lparen
    | ')' -> lx.pos <- lx.pos + 1; Rparen
    | '{' -> lx.pos <- lx.pos + 1; Lbrace
    | '}' -> lx.pos <- lx.pos + 1; Rbrace
    | '[' -> lx.pos <- lx.pos + 1; Lbracket
    | ']' -> lx.pos <- lx.pos + 1; Rbracket
    | '<' -> lx.pos <- lx.pos + 1; Langle
    | '>' -> lx.pos <- lx.pos + 1; Rangle
    | ',' -> lx.pos <- lx.pos + 1; Comma
    | ':' -> lx.pos <- lx.pos + 1; Colon
    | '=' -> lx.pos <- lx.pos + 1; Equal
    | '!' -> lx.pos <- lx.pos + 1; Bang
    | '*' -> lx.pos <- lx.pos + 1; Star
    | '+' -> lx.pos <- lx.pos + 1; Plus
    | '?' -> lx.pos <- lx.pos + 1; Question
    | '"' -> lx.pos <- lx.pos + 1; lex_string lx
    | '%' ->
      lx.pos <- lx.pos + 1;
      Value_ref (lex_while lx (fun c -> is_ident_char c))
    | '^' ->
      lx.pos <- lx.pos + 1;
      Block_ref (lex_while lx is_ident_char)
    | '@' ->
      lx.pos <- lx.pos + 1;
      Symbol_ref (lex_while lx is_ident_char)
    | '-' ->
      lx.pos <- lx.pos + 1;
      if peek_char lx = Some '>' then begin
        lx.pos <- lx.pos + 1;
        Arrow
      end
      else if (match peek_char lx with Some c -> is_digit c | None -> false) then
        lex_number lx ~neg:true
      else Minus
    | c when is_digit c -> lex_number lx ~neg:false
    | c when is_ident_start c -> Ident (lex_while lx is_ident_char)
    | c -> error lx (Printf.sprintf "unexpected character %C" c))

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-region block-label scope. Successor lists may reference a block
   before its header is seen, so labels resolve to placeholder blocks
   that the header later fills in. *)
type block_scope = {
  sc_blocks : (string, Core.block) Hashtbl.t;
  mutable sc_defined : string list;    (* labels with a header, reversed *)
  mutable sc_referenced : string list; (* labels used as successors *)
}

type t = {
  lx : lexer;
  file : string; (* name recorded in parsed File locations *)
  mutable tok : token;
  (* Line/column of the start of the current token [tok]. *)
  mutable tok_line : int;
  mutable tok_col : int;
  values : (string, Core.value) Hashtbl.t;
  mutable scopes : block_scope list; (* innermost region first *)
}

let advance p =
  p.tok <- next_token p.lx;
  p.tok_line <- p.lx.tok_line;
  p.tok_col <- p.lx.tok_col

let expect p tok =
  if p.tok = tok then advance p
  else
    error p.lx
      (Printf.sprintf "expected %s but found %s" (token_to_string tok)
         (token_to_string p.tok))

let expect_ident p =
  match p.tok with
  | Ident s -> advance p; s
  | t -> error p.lx (Printf.sprintf "expected identifier, found %s" (token_to_string t))

let accept p tok = if p.tok = tok then (advance p; true) else false

(* Dialect type parsers: keyed by the identifier after '!'. They read
   tokens by spelling, through [expect_punct], [accept_int] and
   [accept_ident], so the token type stays private to this module. *)
let dialect_type_parsers : (string, t -> Types.t) Hashtbl.t = Hashtbl.create 8
let register_type_parser key f = Hashtbl.replace dialect_type_parsers key f

let expect_punct p s =
  if token_to_string p.tok = s then advance p
  else
    error p.lx
      (Printf.sprintf "expected %s but found %s" s (token_to_string p.tok))

let accept_int p = match p.tok with Int_lit n -> advance p; Some n | _ -> None
let accept_ident p = match p.tok with Ident s -> advance p; Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_type p : Types.t =
  match p.tok with
  | Bang ->
    advance p;
    let key = expect_ident p in
    (match Hashtbl.find_opt dialect_type_parsers key with
    | Some f -> f p
    | None -> error p.lx (Printf.sprintf "no type parser registered for !%s" key))
  | Lparen ->
    (* Function type: (t, ...) -> t | (t, ...) *)
    advance p;
    let args = parse_type_list_until p Rparen in
    expect p Rparen;
    expect p Arrow;
    let results =
      if accept p Lparen then begin
        let rs = parse_type_list_until p Rparen in
        expect p Rparen;
        rs
      end
      else [ parse_type p ]
    in
    Types.Function (args, results)
  | Ident "index" -> advance p; Types.Index
  | Ident "f32" -> advance p; Types.F32
  | Ident "f64" -> advance p; Types.F64
  | Ident "none" -> advance p; Types.None_type
  | Ident s when String.length s > 1 && s.[0] = 'i'
                 && String.for_all is_digit (String.sub s 1 (String.length s - 1)) ->
    advance p;
    Types.Integer (int_of_string (String.sub s 1 (String.length s - 1)))
  | Ident "memref" ->
    advance p;
    expect p Langle;
    parse_memref_body p
  | t -> error p.lx (Printf.sprintf "expected type, found %s" (token_to_string t))

(* Everything after "memref<": zero or more "<dim> x " prefixes followed by
   the element type and an optional ", <space>". Dynamic dims are printed
   and lexed as '?'. *)
and parse_memref_body p =
  let dims = ref [] in
  let read_dim () =
    match p.tok with
    | Int_lit n -> advance p; Some (Some n)
    | Question -> advance p; Some None
    | _ -> None
  in
  let rec read_shape () =
    match read_dim () with
    | None -> ()
    | Some d -> (
      match p.tok with
      | Ident "x" ->
        advance p;
        dims := d :: !dims;
        read_shape ()
      | t ->
        error p.lx
          (Printf.sprintf "expected 'x' after memref dimension, found %s"
             (token_to_string t)))
  in
  read_shape ();
  let element = parse_type p in
  let space =
    if accept p Comma then begin
      let s = expect_ident p in
      match Types.memspace_of_string s with
      | Some sp -> sp
      | None -> error p.lx (Printf.sprintf "unknown memory space %s" s)
    end
    else Types.Global
  in
  expect p Rangle;
  Types.Memref { shape = List.rev !dims; element; space }

and parse_type_list_until p stop =
  if p.tok = stop then []
  else begin
    let t = parse_type p in
    if accept p Comma then t :: parse_type_list_until p stop else [ t ]
  end

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_attr p : Attr.t =
  match p.tok with
  | Int_lit i -> advance p; Attr.Int i
  | Float_lit f -> advance p; Attr.Float f
  | String_lit s -> advance p; Attr.String s
  | Symbol_ref s -> advance p; Attr.Symbol s
  | Ident "true" -> advance p; Attr.Bool true
  | Ident "false" -> advance p; Attr.Bool false
  | Ident "unit" -> advance p; Attr.Unit
  | Ident "nan" -> advance p; Attr.Float Float.nan
  | Ident ("infinity" | "inf") -> advance p; Attr.Float Float.infinity
  | Minus -> (
    advance p;
    match p.tok with
    | Ident ("infinity" | "inf") -> advance p; Attr.Float Float.neg_infinity
    | Ident "nan" -> advance p; Attr.Float (Float.neg Float.nan)
    | t ->
      error p.lx
        (Printf.sprintf "expected nan/infinity after '-', found %s"
           (token_to_string t)))
  | Lbracket ->
    advance p;
    let rec elems () =
      if p.tok = Rbracket then []
      else
        let a = parse_attr p in
        if accept p Comma then a :: elems () else [ a ]
    in
    let xs = elems () in
    expect p Rbracket;
    Attr.Array xs
  | Ident "dense_i" ->
    advance p;
    expect p Langle;
    let rec ints () =
      match p.tok with
      | Int_lit i ->
        advance p;
        if accept p Comma then i :: ints () else [ i ]
      | _ -> []
    in
    let xs = ints () in
    expect p Rangle;
    Attr.Dense_int (Array.of_list xs)
  | Ident "dense_f" ->
    advance p;
    expect p Langle;
    let element () =
      match p.tok with
      | Float_lit f -> advance p; Some f
      | Int_lit i -> advance p; Some (float_of_int i)
      | Ident "nan" -> advance p; Some Float.nan
      | Ident ("infinity" | "inf") -> advance p; Some Float.infinity
      | Minus -> (
        advance p;
        match p.tok with
        | Ident ("infinity" | "inf") -> advance p; Some Float.neg_infinity
        | Ident "nan" -> advance p; Some (Float.neg Float.nan)
        | t ->
          error p.lx
            (Printf.sprintf "expected nan/infinity after '-', found %s"
               (token_to_string t)))
      | _ -> None
    in
    let rec floats () =
      match element () with
      | Some f -> if accept p Comma then f :: floats () else [ f ]
      | None -> []
    in
    let xs = floats () in
    expect p Rangle;
    Attr.Dense_float (Array.of_list xs)
  | Ident "affine_map" ->
    advance p;
    expect p Langle;
    let m = parse_affine_map p in
    expect p Rangle;
    Attr.Affine_map m
  | _ -> Attr.Type (parse_type p)

(* affine_map<(d0, d1)[s0] -> (e0, e1)> *)
and parse_affine_map p =
  expect p Lparen;
  let dims = ref [] in
  let rec read_dims () =
    match p.tok with
    | Ident d when String.length d > 1 && d.[0] = 'd' ->
      advance p;
      dims := d :: !dims;
      if accept p Comma then read_dims ()
    | _ -> ()
  in
  read_dims ();
  expect p Rparen;
  let num_dims = List.length !dims in
  let num_syms = ref 0 in
  if accept p Lbracket then begin
    let rec read_syms () =
      match p.tok with
      | Ident s when String.length s > 1 && s.[0] = 's' ->
        advance p;
        incr num_syms;
        if accept p Comma then read_syms ()
      | _ -> ()
    in
    read_syms ();
    expect p Rbracket
  end;
  expect p Arrow;
  expect p Lparen;
  let rec read_exprs () =
    if p.tok = Rparen then []
    else
      let e = parse_affine_expr p in
      if accept p Comma then e :: read_exprs () else [ e ]
  in
  let exprs = read_exprs () in
  expect p Rparen;
  Affine_expr.Map.make ~num_dims ~num_syms:!num_syms exprs

and parse_affine_expr p : Affine_expr.t =
  let lhs = parse_affine_term p in
  match p.tok with
  | Plus ->
    advance p;
    Affine_expr.add lhs (parse_affine_expr p)
  | Minus ->
    advance p;
    Affine_expr.sub lhs (parse_affine_expr p)
  | _ -> lhs

and parse_affine_term p =
  let lhs = parse_affine_factor p in
  let rec go lhs =
    match p.tok with
    | Star ->
      advance p;
      go (Affine_expr.mul lhs (parse_affine_factor p))
    | Ident "mod" ->
      advance p;
      go (Affine_expr.modulo lhs (parse_affine_factor p))
    | Ident "floordiv" ->
      advance p;
      go (Affine_expr.floordiv lhs (parse_affine_factor p))
    | Ident "ceildiv" ->
      advance p;
      go (Affine_expr.ceildiv lhs (parse_affine_factor p))
    | _ -> lhs
  in
  go lhs

and parse_affine_factor p =
  match p.tok with
  | Int_lit i -> advance p; Affine_expr.Const i
  | Minus ->
    advance p;
    Affine_expr.neg (parse_affine_factor p)
  | Ident s when String.length s > 1 && s.[0] = 'd'
                 && String.for_all is_digit (String.sub s 1 (String.length s - 1)) ->
    advance p;
    Affine_expr.Dim (int_of_string (String.sub s 1 (String.length s - 1)))
  | Ident s when String.length s > 1 && s.[0] = 's'
                 && String.for_all is_digit (String.sub s 1 (String.length s - 1)) ->
    advance p;
    Affine_expr.Sym (int_of_string (String.sub s 1 (String.length s - 1)))
  | Lparen ->
    advance p;
    let e = parse_affine_expr p in
    expect p Rparen;
    e
  | t -> error p.lx (Printf.sprintf "expected affine factor, found %s" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Locations                                                           *)
(* ------------------------------------------------------------------ *)

(* The inner expression of a [loc(...)] attachment. Raw constructors are
   built deliberately (no canonicalization): the parser reproduces exactly
   what the text says, so print -> parse -> print is the identity. *)
let rec parse_loc_expr p : Loc.t =
  match p.tok with
  | Ident "unknown" -> advance p; Loc.Unknown
  | Ident "callsite" ->
    advance p;
    expect p Lparen;
    let callee = parse_loc_expr p in
    (match p.tok with
    | Ident "at" -> advance p
    | t ->
      error p.lx
        (Printf.sprintf "expected 'at' in callsite location, found %s"
           (token_to_string t)));
    let caller = parse_loc_expr p in
    expect p Rparen;
    Loc.CallSite { callee; caller }
  | Ident "fused" ->
    advance p;
    expect p Lbracket;
    let rec elems () =
      if p.tok = Rbracket then []
      else
        let l = parse_loc_expr p in
        if accept p Comma then l :: elems () else [ l ]
    in
    let ls = elems () in
    expect p Rbracket;
    Loc.Fused ls
  | String_lit s -> (
    advance p;
    match p.tok with
    | Colon ->
      advance p;
      let line =
        match p.tok with
        | Int_lit i -> advance p; i
        | t ->
          error p.lx
            (Printf.sprintf "expected line number in location, found %s"
               (token_to_string t))
      in
      expect p Colon;
      let col =
        match p.tok with
        | Int_lit i -> advance p; i
        | t ->
          error p.lx
            (Printf.sprintf "expected column number in location, found %s"
               (token_to_string t))
      in
      Loc.File { file = s; line; col }
    | Lparen ->
      advance p;
      let child = parse_loc_expr p in
      expect p Rparen;
      Loc.Name (s, child)
    | _ -> Loc.Name (s, Loc.Unknown))
  | t ->
    error p.lx (Printf.sprintf "expected location, found %s" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let lookup_value p name =
  match Hashtbl.find_opt p.values name with
  | Some v -> v
  | None -> error p.lx (Printf.sprintf "use of undefined value %%%s" name)

(* Resolve a ^label used as a successor in the innermost region, creating
   a placeholder block on forward references. *)
let successor_block p name =
  match p.scopes with
  | [] ->
    error p.lx
      (Printf.sprintf "successor ^%s used outside of any region" name)
  | scope :: _ -> (
    match Hashtbl.find_opt scope.sc_blocks name with
    | Some b -> b
    | None ->
      let b = Core.create_block () in
      Hashtbl.replace scope.sc_blocks name b;
      scope.sc_referenced <- name :: scope.sc_referenced;
      b)

let rec parse_op p : Core.op =
  (* Textual position of the op (its first token) — the default location
     when no explicit loc(...) trails the op. *)
  let start_line = p.tok_line and start_col = p.tok_col in
  (* results *)
  let result_names =
    match p.tok with
    | Value_ref _ ->
      let rec names () =
        match p.tok with
        | Value_ref n ->
          advance p;
          if accept p Comma then n :: names () else [ n ]
        | t -> error p.lx (Printf.sprintf "expected value ref, found %s" (token_to_string t))
      in
      let ns = names () in
      expect p Equal;
      ns
    | _ -> []
  in
  let name = expect_ident p in
  expect p Lparen;
  let rec operand_names () =
    match p.tok with
    | Value_ref n ->
      advance p;
      if accept p Comma then n :: operand_names () else [ n ]
    | _ -> []
  in
  let op_names = operand_names () in
  expect p Rparen;
  let operands = List.map (lookup_value p) op_names in
  (* successors: [^bb1, ^bb2] *)
  let successors =
    if accept p Lbracket then begin
      let rec labels () =
        match p.tok with
        | Block_ref n ->
          advance p;
          let b = successor_block p n in
          if accept p Comma then b :: labels () else [ b ]
        | t ->
          error p.lx
            (Printf.sprintf "expected block label in successor list, found %s"
               (token_to_string t))
      in
      let bs = labels () in
      expect p Rbracket;
      bs
    end
    else []
  in
  (* regions *)
  let regions =
    if p.tok = Lparen then begin
      advance p;
      let rec rs () =
        let r = parse_region p in
        if accept p Comma then r :: rs () else [ r ]
      in
      let regions = rs () in
      expect p Rparen;
      regions
    end
    else []
  in
  (* attributes *)
  let attrs =
    if accept p Lbrace then begin
      let rec kvs () =
        if p.tok = Rbrace then []
        else begin
          let k = expect_ident p in
          expect p Equal;
          let v = parse_attr p in
          if accept p Comma then (k, v) :: kvs () else [ (k, v) ]
        end
      in
      let attrs = kvs () in
      expect p Rbrace;
      attrs
    end
    else []
  in
  (* type signature *)
  let result_types =
    if accept p Colon then begin
      expect p Lparen;
      let _operand_tys = parse_type_list_until p Rparen in
      expect p Rparen;
      expect p Arrow;
      expect p Lparen;
      let rts = parse_type_list_until p Rparen in
      expect p Rparen;
      rts
    end
    else []
  in
  if List.length result_types <> List.length result_names then
    error p.lx
      (Printf.sprintf "op %s: %d result names but %d result types" name
         (List.length result_names) (List.length result_types));
  (* Trailing location attachment: an explicit loc(...) wins over the
     recorded textual position ('loc' is reserved as an op name). *)
  let loc =
    match p.tok with
    | Ident "loc" ->
      advance p;
      expect p Lparen;
      let l = parse_loc_expr p in
      expect p Rparen;
      l
    | _ -> Loc.File { file = p.file; line = start_line; col = start_col }
  in
  let op =
    Core.create_op name ~operands ~result_types ~attrs ~regions ~successors ~loc
  in
  List.iteri
    (fun i n -> Hashtbl.replace p.values n (Core.result op i))
    result_names;
  op

and parse_region p : Core.region =
  expect p Lbrace;
  let scope =
    { sc_blocks = Hashtbl.create 8; sc_defined = []; sc_referenced = [] }
  in
  p.scopes <- scope :: p.scopes;
  (* Optional block headers; a region with no header is a single block with
     no arguments. *)
  let parse_block_header () =
    match p.tok with
    | Block_ref name ->
      advance p;
      expect p Lparen;
      let rec args () =
        match p.tok with
        | Value_ref n ->
          advance p;
          expect p Colon;
          let ty = parse_type p in
          if accept p Comma then (n, ty) :: args () else [ (n, ty) ]
        | _ -> []
      in
      let args = args () in
      expect p Rparen;
      expect p Colon;
      Some (name, args)
    | _ -> None
  in
  let parse_block_body () =
    let rec ops () =
      match p.tok with
      | Rbrace | Block_ref _ -> []
      | _ ->
        let op = parse_op p in
        op :: ops ()
    in
    ops ()
  in
  let blocks = ref [] in
  let rec go first =
    match (p.tok, first) with
    | Rbrace, _ -> ()
    | _ ->
      let header = parse_block_header () in
      let block =
        match header with
        | Some (name, args) ->
          if List.mem name scope.sc_defined then
            error p.lx (Printf.sprintf "duplicate block label ^%s" name);
          scope.sc_defined <- name :: scope.sc_defined;
          (* A forward successor reference may already have created a
             placeholder for this label; attach the arguments to it. *)
          let b =
            match Hashtbl.find_opt scope.sc_blocks name with
            | Some b -> b
            | None ->
              let b = Core.create_block () in
              Hashtbl.replace scope.sc_blocks name b;
              b
          in
          List.iter
            (fun (n, ty) ->
              let v = Core.add_block_arg b ty in
              Hashtbl.replace p.values n v)
            args;
          b
        | None ->
          if not first then error p.lx "expected block header";
          Core.create_block ()
      in
      let body = parse_block_body () in
      List.iter (Core.append_op block) body;
      blocks := block :: !blocks;
      go false
  in
  go true;
  expect p Rbrace;
  List.iter
    (fun n ->
      if not (List.mem n scope.sc_defined) then
        error p.lx
          (Printf.sprintf "successor ^%s is never defined in this region" n))
    scope.sc_referenced;
  p.scopes <- List.tl p.scopes;
  let blocks = match List.rev !blocks with [] -> [ Core.create_block () ] | bs -> bs in
  Core.create_region ~blocks ()

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let make_parser ?(file = "-") src =
  let lx = { src; pos = 0; line = 1; bol = 0; tok_line = 1; tok_col = 1 } in
  let p =
    {
      lx;
      file;
      tok = Eof;
      tok_line = 1;
      tok_col = 1;
      values = Hashtbl.create 64;
      scopes = [];
    }
  in
  advance p;
  p

let parse_string ?file src =
  let p = make_parser ?file src in
  let op = parse_op p in
  if p.tok <> Eof then
    error p.lx (Printf.sprintf "trailing input: %s" (token_to_string p.tok));
  op

let parse_module ?file src =
  let op = parse_string ?file src in
  if not (Core.is_module op) then
    raise (Parse_error "expected a builtin.module at top level");
  op
