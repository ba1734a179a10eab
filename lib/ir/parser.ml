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

(* The lexer scans [src] by index and allocates nothing per character:
   an identifier or a name is one [String.sub], and a decimal integer is
   read in place. *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* One load per character in [lex_ident]'s loop. *)
let ident_chars =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if is_ident_start c || (c >= '0' && c <= '9') || c = '.' || c = '$' then '\001'
      else '\000')

let is_ident_char c = String.unsafe_get ident_chars (Char.code c) <> '\000'

let is_digit c = c >= '0' && c <= '9'

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let error lx msg =
  raise (Parse_error (Printf.sprintf "line %d: %s" lx.line msg))

(* The character at [i], or NUL past the end. No token continues with a
   NUL, so the scanning loops stop there either way; [next_token] and
   [lex_string] tell a NUL byte from the end of the input. *)
let char_at lx i =
  if i < String.length lx.src then String.unsafe_get lx.src i else '\000'

let skip_ws lx =
  let src = lx.src in
  let n = String.length src in
  let pos = ref lx.pos and stop = ref false in
  while (not !stop) && !pos < n do
    match String.unsafe_get src !pos with
    | ' ' | '\t' | '\r' -> incr pos
    | '\n' ->
      incr pos;
      lx.line <- lx.line + 1;
      lx.bol <- !pos
    | '/' when !pos + 1 < n && String.unsafe_get src (!pos + 1) = '/' ->
      while !pos < n && String.unsafe_get src !pos <> '\n' do
        incr pos
      done
    | _ -> stop := true
  done;
  lx.pos <- !pos

let skip_digits lx =
  while is_digit (char_at lx lx.pos) do
    lx.pos <- lx.pos + 1
  done

(* The identifier characters from [lx.pos] on. *)
let lex_ident lx =
  let src = lx.src in
  let n = String.length src in
  let start = lx.pos in
  let pos = ref start in
  while !pos < n && is_ident_char (String.unsafe_get src !pos) do
    incr pos
  done;
  lx.pos <- !pos;
  String.sub src start (!pos - start)

(* The decimal number [s.[first] .. s.[last - 1]], all digits, of at most
   18 of them, so it cannot overflow. *)
let decimal s first last =
  let v = ref 0 in
  for i = first to last - 1 do
    v := (!v * 10) + (Char.code (String.unsafe_get s i) - 48)
  done;
  !v

(* The literal from [start] (its sign, if any) to [lx.pos]. *)
let int_literal lx start =
  let s = String.sub lx.src start (lx.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int_lit i
  | None -> error lx (Printf.sprintf "bad integer literal %S" s)

let lex_number lx ~neg =
  (* Decimal integers (plus 0x hex integers) and decimal floats (1.5,
     2e3, 1.25e-7). Floats print in shortest-decimal form — C99 hex
     float literals (0x1.8p+3, as printed by %h) are rejected with an
     explicit error so a reintroduced hex printer cannot silently
     corrupt round-trips. Only floats, hex and decimals too long to be
     sure of fitting are converted from a substring. *)
  let first = lx.pos in
  let start = if neg then first - 1 else first in
  skip_digits lx;
  let c = char_at lx lx.pos in
  if lx.src.[first] = '0' && (c = 'x' || c = 'X') then begin
    lx.pos <- lx.pos + 1;
    while is_hex (char_at lx lx.pos) do
      lx.pos <- lx.pos + 1
    done;
    (match char_at lx lx.pos with
    | '.' | 'p' | 'P' ->
      error lx
        "hex float literals are not supported (floats print in decimal; \
         use e.g. 3.0 instead of 0x1.8p+1)"
    | _ -> ());
    int_literal lx start
  end
  else begin
    let is_float = c = '.' || c = 'e' || c = 'E' in
    if c = '.' then begin
      lx.pos <- lx.pos + 1;
      skip_digits lx
    end;
    (match char_at lx lx.pos with
    | 'e' | 'E' ->
      lx.pos <- lx.pos + 1;
      (match char_at lx lx.pos with
      | '+' | '-' -> lx.pos <- lx.pos + 1
      | _ -> ());
      skip_digits lx
    | _ -> ());
    if is_float then begin
      let s = String.sub lx.src start (lx.pos - start) in
      match float_of_string_opt s with
      | Some f -> Float_lit f
      | None -> error lx (Printf.sprintf "bad float literal %S" s)
    end
    else if lx.pos - first <= 18 then
      let v = decimal lx.src first lx.pos in
      Int_lit (if neg then -v else v)
    else int_literal lx start
  end

let lex_string lx =
  (* Opening quote consumed by caller. Escapes are exactly the ones the
     printer emits (backslash-n, backslash-t, backslash-backslash,
     backslash-quote, [\xHH]); anything else is an error rather than a
     silently dropped backslash. *)
  let buf = Buffer.create 16 in
  let n = String.length lx.src in
  let hex_value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> error lx (Printf.sprintf "bad hex digit %C in \\x escape" c)
  in
  let hex_digit () =
    if lx.pos >= n then error lx "unterminated \\x escape";
    let c = lx.src.[lx.pos] in
    lx.pos <- lx.pos + 1;
    hex_value c
  in
  let rec go () =
    if lx.pos >= n then error lx "unterminated string literal";
    match lx.src.[lx.pos] with
    | '"' -> lx.pos <- lx.pos + 1
    | '\\' ->
      lx.pos <- lx.pos + 1;
      if lx.pos >= n then error lx "unterminated escape";
      (match lx.src.[lx.pos] with
      | 'n' -> Buffer.add_char buf '\n'; lx.pos <- lx.pos + 1
      | 't' -> Buffer.add_char buf '\t'; lx.pos <- lx.pos + 1
      | '\\' -> Buffer.add_char buf '\\'; lx.pos <- lx.pos + 1
      | '"' -> Buffer.add_char buf '"'; lx.pos <- lx.pos + 1
      | 'x' ->
        lx.pos <- lx.pos + 1;
        let hi = hex_digit () in
        let lo = hex_digit () in
        Buffer.add_char buf (Char.chr ((hi * 16) + lo))
      | c -> error lx (Printf.sprintf "unknown string escape \\%c" c));
      go ()
    | c ->
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
  if lx.pos >= String.length lx.src then Eof
  else
    match String.unsafe_get lx.src lx.pos with
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
    | '"' ->
      lx.pos <- lx.pos + 1;
      lex_string lx
    | '%' ->
      lx.pos <- lx.pos + 1;
      Value_ref (lex_ident lx)
    | '^' ->
      lx.pos <- lx.pos + 1;
      Block_ref (lex_ident lx)
    | '@' ->
      lx.pos <- lx.pos + 1;
      Symbol_ref (lex_ident lx)
    | '-' ->
      lx.pos <- lx.pos + 1;
      let c = char_at lx lx.pos in
      if c = '>' then begin
        lx.pos <- lx.pos + 1;
        Arrow
      end
      else if is_digit c then lex_number lx ~neg:true
      else Minus
    | c when is_digit c -> lex_number lx ~neg:false
    | c when is_ident_start c -> Ident (lex_ident lx)
    | c -> error lx (Printf.sprintf "unexpected character %C" c)

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

module Stbl = Hashtbl.Make (String)

(* Per-region block-label scope. Successor lists may reference a block
   before its header is seen, so labels resolve to placeholder blocks
   that the header later fills in. *)
type block_scope = {
  sc_blocks : Core.block Stbl.t;
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
  values : Core.value Stbl.t;
  mutable scopes : block_scope list; (* innermost region first *)
}

let advance p =
  p.tok <- next_token p.lx;
  p.tok_line <- p.lx.tok_line;
  p.tok_col <- p.lx.tok_col

(* [expect], [accept] and [at] take a token without a payload (a
   constant constructor), so physical equality is token equality. *)
let at p tok = p.tok == tok

let expect p tok =
  if at p tok then advance p
  else
    error p.lx
      (Printf.sprintf "expected %s but found %s" (token_to_string tok)
         (token_to_string p.tok))

let expect_ident p =
  match p.tok with
  | Ident s -> advance p; s
  | t -> error p.lx (Printf.sprintf "expected identifier, found %s" (token_to_string t))

let accept p tok = if at p tok then (advance p; true) else false

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

let rec all_digits s i = i >= String.length s || (is_digit s.[i] && all_digits s (i + 1))

(* Is [s] the letter [c] and a non-empty run of digits ([i32], [d0])? *)
let numbered c s = String.length s > 1 && s.[0] = c && all_digits s 1

(* The number of a [numbered] identifier. One too long to be sure of
   fitting goes through [int_of_string], which raises on overflow. *)
let number s =
  let n = String.length s in
  if n <= 19 then decimal s 1 n else int_of_string (String.sub s 1 (n - 1))

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
  | Ident s when numbered 'i' s ->
    advance p;
    Types.Integer (number s)
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
  if at p stop then []
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
      if at p Rbracket then []
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
    if at p Rparen then []
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
  | Ident s when numbered 'd' s ->
    advance p;
    Affine_expr.Dim (number s)
  | Ident s when numbered 's' s ->
    advance p;
    Affine_expr.Sym (number s)
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
      if at p Rbracket then []
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
  match Stbl.find p.values name with
  | v -> v
  | exception Not_found -> error p.lx (Printf.sprintf "use of undefined value %%%s" name)

let rec lookup_values p = function
  | [] -> []
  | n :: rest ->
    let v = lookup_value p n in
    v :: lookup_values p rest

(* Resolve a ^label used as a successor in the innermost region, creating
   a placeholder block on forward references. *)
let successor_block p name =
  match p.scopes with
  | [] ->
    error p.lx
      (Printf.sprintf "successor ^%s used outside of any region" name)
  | scope :: _ -> (
    match Stbl.find scope.sc_blocks name with
    | b -> b
    | exception Not_found ->
      let b = Core.create_block () in
      Stbl.replace scope.sc_blocks name b;
      scope.sc_referenced <- name :: scope.sc_referenced;
      b)

(* The result names before '=': one or more. *)
let rec result_names p =
  match p.tok with
  | Value_ref n ->
    advance p;
    if accept p Comma then n :: result_names p else [ n ]
  | t -> error p.lx (Printf.sprintf "expected value ref, found %s" (token_to_string t))

(* The operand names: zero or more. *)
let rec operand_names p =
  match p.tok with
  | Value_ref n ->
    advance p;
    if accept p Comma then n :: operand_names p else [ n ]
  | _ -> []

let rec successor_labels p =
  match p.tok with
  | Block_ref n ->
    advance p;
    let b = successor_block p n in
    if accept p Comma then b :: successor_labels p else [ b ]
  | t ->
    error p.lx
      (Printf.sprintf "expected block label in successor list, found %s"
         (token_to_string t))

(* The entries of an attribute dictionary, after its '{'. *)
let rec attr_entries p =
  if at p Rbrace then []
  else begin
    let k = expect_ident p in
    expect p Equal;
    let v = parse_attr p in
    if accept p Comma then (k, v) :: attr_entries p else [ (k, v) ]
  end

(* The arguments of a block header, after its '('. *)
let rec block_args p =
  match p.tok with
  | Value_ref n ->
    advance p;
    expect p Colon;
    let ty = parse_type p in
    if accept p Comma then (n, ty) :: block_args p else [ (n, ty) ]
  | _ -> []

let rec parse_op p : Core.op =
  (* Textual position of the op (its first token) — the default location
     when no explicit loc(...) trails the op. *)
  let start_line = p.tok_line and start_col = p.tok_col in
  (* results *)
  let result_names =
    match p.tok with
    | Value_ref _ ->
      let ns = result_names p in
      expect p Equal;
      ns
    | _ -> []
  in
  let name = expect_ident p in
  expect p Lparen;
  let op_names = operand_names p in
  expect p Rparen;
  let operands = lookup_values p op_names in
  (* successors: [^bb1, ^bb2] *)
  let successors =
    if accept p Lbracket then begin
      let bs = successor_labels p in
      expect p Rbracket;
      bs
    end
    else []
  in
  (* regions *)
  let regions =
    if at p Lparen then begin
      advance p;
      let regions = parse_regions p in
      expect p Rparen;
      regions
    end
    else []
  in
  (* attributes *)
  let attrs =
    if accept p Lbrace then begin
      let attrs = attr_entries p in
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
  List.iteri (fun i n -> Stbl.replace p.values n op.Core.results.(i)) result_names;
  op

and parse_regions p =
  let r = parse_region p in
  if accept p Comma then r :: parse_regions p else [ r ]

(* The ops of a block, up to the next block header or the region's end. *)
and parse_block_ops p =
  match p.tok with
  | Rbrace | Block_ref _ -> []
  | _ ->
    let op = parse_op p in
    op :: parse_block_ops p

and parse_region p : Core.region =
  expect p Lbrace;
  let scope =
    { sc_blocks = Stbl.create 8; sc_defined = []; sc_referenced = [] }
  in
  p.scopes <- scope :: p.scopes;
  (* Optional block headers; a region with no header is a single block with
     no arguments. *)
  let parse_block_header () =
    match p.tok with
    | Block_ref name ->
      advance p;
      expect p Lparen;
      let args = block_args p in
      expect p Rparen;
      expect p Colon;
      Some (name, args)
    | _ -> None
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
            match Stbl.find scope.sc_blocks name with
            | b -> b
            | exception Not_found ->
              let b = Core.create_block () in
              Stbl.replace scope.sc_blocks name b;
              b
          in
          List.iter
            (fun (n, ty) ->
              let v = Core.add_block_arg b ty in
              Stbl.replace p.values n v)
            args;
          b
        | None ->
          if not first then error p.lx "expected block header";
          Core.create_block ()
      in
      Core.attach_body block (parse_block_ops p);
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
      values = Stbl.create 256;
      scopes = [];
    }
  in
  advance p;
  p

let parse_string ?file src =
  let p = make_parser ?file src in
  let op = parse_op p in
  if not (at p Eof) then
    error p.lx (Printf.sprintf "trailing input: %s" (token_to_string p.tok));
  op

let parse_module ?file src =
  let op = parse_string ?file src in
  if not (Core.is_module op) then
    raise (Parse_error "expected a builtin.module at top level");
  op
