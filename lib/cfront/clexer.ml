(* Scanner for the mini-C language. Handles ANSI C tokens, both comment
   styles, character/string escapes, hex/octal integer literals, and the
   paper's Section 2.5 qualifier extension: identifiers prefixed with `$'
   lex as QUALNAME so user qualifiers never collide with C identifiers.
   Preprocessor lines (`#...') are skipped — benchmark inputs are assumed
   to be post-expansion, as with the paper's use of a real C front end.

   The scanner is hand-written: at each position it takes the longest
   match, earliest rule first on ties, of the token grammar that
   test/clexer_ref.mll states as an ocamllex spec, and the test suite
   checks the two against each other. Line counting follows that spec
   exactly: a raw newline advances the line in code, in block comments
   and in strings, but not inside a character literal or right after a
   backslash in a string.

   Scanner state lives in a per-call record. Identifiers are interned
   from source slices straight into the process-wide {!Sym} table: the
   slice is hashed and compared in place, and its name is allocated only
   on its first sighting in the process. Each symbol owns one shared
   token, so a name costs no allocation per occurrence. Tokens and
   packed spans go straight into a {!Tokbuf.t}, together with the
   unit's distinct identifiers. The symbol table and the token table
   are shared, so calls must not run concurrently on several domains.

   Lexical errors are structured diagnostics (Diag.t). [tokenize] raises
   on the first error; the recovering [tokenize_partial] and
   [tokenize_buf] skip bad characters (E0101), turn unterminated
   strings/comments (E0102/E0103) into an early EOF, and keep an
   out-of-range integer literal (E0104) as a saturated INT_LIT, in every
   case accumulating diagnostics instead of failing. *)

open Ctoken

exception Lex_error of Diag.t

(* E0104, from the scanner to [tokenize_buf]: the literal is consumed,
   and a recovering scan keeps it as [INT_LIT max_int]. *)
exception Out_of_range of Diag.t

let keywords =
  [
    ("void", KW_VOID); ("char", KW_CHAR); ("short", KW_SHORT);
    ("int", KW_INT); ("long", KW_LONG); ("float", KW_FLOAT);
    ("double", KW_DOUBLE); ("signed", KW_SIGNED); ("unsigned", KW_UNSIGNED);
    ("const", KW_CONST); ("volatile", KW_VOLATILE); ("struct", KW_STRUCT);
    ("union", KW_UNION); ("enum", KW_ENUM); ("typedef", KW_TYPEDEF);
    ("static", KW_STATIC); ("extern", KW_EXTERN); ("register", KW_REGISTER);
    ("auto", KW_AUTO); ("if", KW_IF); ("else", KW_ELSE);
    ("while", KW_WHILE); ("do", KW_DO); ("for", KW_FOR);
    ("return", KW_RETURN); ("break", KW_BREAK); ("continue", KW_CONTINUE);
    ("switch", KW_SWITCH); ("case", KW_CASE); ("default", KW_DEFAULT);
    ("goto", KW_GOTO); ("sizeof", KW_SIZEOF);
  ]

let unescape = function
  | 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | '0' -> '\000'
  | 'b' -> '\b' | '\\' -> '\\' | '\'' -> '\'' | '"' -> '"'
  | c -> c

type st = {
  src : string;
  len : int;
  mutable pos : int;  (* next byte to scan *)
  mutable lnum : int;  (* current line, 1-based *)
  mutable bol : int;  (* offset where the current line began *)
  mutable sl : int;
      (* line and column where the current token, or the comment being
         skipped, began *)
  mutable sc : int;
  gen : int;  (* this scan's stamp in [seen] *)
  mutable idents : Sym.t list;  (* distinct identifiers, newest first *)
  (* the token buffer under construction *)
  mutable toks : Ctoken.t array;
  mutable spans : int array;
  mutable n : int;
}

(* ------------------------------------------------------------------ *)
(* Character classes and positions                                     *)
(* ------------------------------------------------------------------ *)

(* the byte at [i], or NUL past the end: every lookahead below tests for
   a non-NUL byte, so the sentinel never extends a match *)
let at st i = if i < st.len then String.unsafe_get st.src i else '\000'

let is_digit = function '0' .. '9' -> true | _ -> false
let is_alpha = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_alnum = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let is_hex = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let rec skip_while p st i = if p (at st i) then skip_while p st (i + 1) else i

(* the hot classes get their own loops, free of the indirect call *)
let rec skip_alnum src len i =
  if i < len && is_alnum (String.unsafe_get src i) then skip_alnum src len (i + 1)
  else i

let rec skip_digits src len i =
  if i < len && is_digit (String.unsafe_get src i) then skip_digits src len (i + 1)
  else i

let rec line_end st i =
  if i < st.len && String.unsafe_get st.src i <> '\n' then line_end st (i + 1)
  else i

let newline st i =
  st.lnum <- st.lnum + 1;
  st.bol <- i

let col st i = i - st.bol + 1

(* the span from the current token's start to the scan position *)
let token_span st : Diag.span =
  let ec = st.pos - st.bol in
  {
    Diag.sl = st.sl;
    sc = st.sc;
    el = st.lnum;
    ec = (if ec > st.sc then ec else st.sc);
  }

let bad_char st =
  let c = String.unsafe_get st.src st.pos in
  st.pos <- st.pos + 1;
  raise
    (Lex_error
       (Diag.error ~code:"E0101" (token_span st)
          (Printf.sprintf "unexpected character %C" c)))

(* the string or comment that began at [st.sl]:[st.sc] runs to the end
   of the input *)
let unterminated st ~code what =
  st.pos <- st.len;
  raise (Lex_error (Diag.error ~code (token_span st) ("unterminated " ^ what)))

(* ------------------------------------------------------------------ *)
(* Identifier interning                                                *)
(* ------------------------------------------------------------------ *)

(* symbol -> its unique token: a keyword's [KW_*], or the name's shared
   [IDENT]; [EOF] marks a symbol not yet seen by the scanner *)
let sym_toks = ref (Array.make 1024 EOF)

(* symbol -> the generation of the last scan that listed it in its
   [idents], so each scan collects its distinct identifiers without a
   table of its own *)
let seen = ref (Array.make 1024 0)
let last_gen = ref 0

let ensure_sym (s : Sym.t) =
  let s = (s :> int) in
  if s >= Array.length !sym_toks then begin
    let cap = max (s + 1) (2 * Array.length !sym_toks) in
    let t = Array.make cap EOF and g = Array.make cap 0 in
    Array.blit !sym_toks 0 t 0 (Array.length !sym_toks);
    Array.blit !seen 0 g 0 (Array.length !seen);
    sym_toks := t;
    seen := g
  end

let () =
  List.iter
    (fun (k, tok) ->
      let s = Sym.intern k in
      ensure_sym s;
      !sym_toks.((s :> int)) <- tok)
    keywords

(* the unique token of the name spelled by [src.[i..e-1]]: a keyword, or
   the shared IDENT for that name, which joins the scan's identifiers on
   its first sighting in this scan *)
let intern st i e =
  let s = Sym.intern_sub st.src i e in
  ensure_sym s;
  let k = (s :> int) in
  match Array.unsafe_get !sym_toks k with
  | IDENT _ as tok ->
      if Array.unsafe_get !seen k <> st.gen then begin
        Array.unsafe_set !seen k st.gen;
        st.idents <- s :: st.idents
      end;
      tok
  | EOF ->
      let tok = IDENT s in
      !sym_toks.(k) <- tok;
      !seen.(k) <- st.gen;
      st.idents <- s :: st.idents;
      tok
  | kw -> kw

(* ------------------------------------------------------------------ *)
(* Numbers                                                             *)
(* ------------------------------------------------------------------ *)

let out_of_range st =
  raise
    (Out_of_range
       (Diag.error ~code:"E0104" (token_span st) "integer literal out of range"))

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> Char.code c - 55

(* The value [int_of_string] gives the digits [i..e-1] in base [1 lsl
   bits] (hex, octal): any value below 2^63 is accepted and wraps to the
   63-bit int, so shifting in one more digit overflows once the
   accumulator reaches 2^(63 - bits). *)
let rec pow2_value st ~bits acc k e =
  if k = e then acc
  else if acc < 0 || acc >= 1 lsl (63 - bits) then out_of_range st
  else
    pow2_value st ~bits
      ((acc lsl bits) lor digit_value (String.unsafe_get st.src k))
      (k + 1) e

let rec decimal_value st acc k e =
  if k = e then acc
  else
    let d = Char.code (String.unsafe_get st.src k) - 48 in
    if acc > (max_int - d) / 10 then out_of_range st
    else decimal_value st ((acc * 10) + d) (k + 1) e

(* end of an optional exponent [['e' 'E'] ['+' '-']? digit+] at [f] *)
let exponent_end st f =
  match at st f with
  | 'e' | 'E' ->
      let j = match at st (f + 1) with '+' | '-' -> f + 2 | _ -> f + 1 in
      if is_digit (at st j) then skip_digits st.src st.len (j + 1) else f
  | _ -> f

(* Numeric literals, longest match over the rules (ties to the first):
     "0x" hex+                                      hex INT_LIT
     '0' ['0'-'7']+                                 octal INT_LIT
     digit+ '.' digit* exponent?                    FLOAT_LIT
     digit+ exponent                                FLOAT_LIT
     digit+                                         decimal INT_LIT
     digit+ ['u' 'U' 'l' 'L']+                      decimal INT_LIT
   So 0755 is octal, 0758 and 0755u are decimal, and a bare "0x" is the
   literal 0 followed by the identifier x. *)
let number st =
  let p = st.pos in
  if
    String.unsafe_get st.src p = '0'
    && at st (p + 1) = 'x'
    && is_hex (at st (p + 2))
  then begin
    let e = skip_while is_hex st (p + 3) in
    st.pos <- e;
    INT_LIT (pow2_value st ~bits:4 0 (p + 2) e)
  end
  else
    let e = skip_digits st.src st.len (p + 1) in
    let fe =
      match at st e with
      | '.' -> exponent_end st (skip_digits st.src st.len (e + 1))
      | 'e' | 'E' -> exponent_end st e
      | _ -> e
    in
    if fe > e then begin
      st.pos <- fe;
      FLOAT_LIT (float_of_string (String.sub st.src p (fe - p)))
    end
    else
      let se =
        skip_while (function 'u' | 'U' | 'l' | 'L' -> true | _ -> false) st e
      in
      st.pos <- se;
      if
        se = e && e > p + 1
        && String.unsafe_get st.src p = '0'
        && skip_while (function '0' .. '7' -> true | _ -> false) st (p + 1) = e
      then INT_LIT (pow2_value st ~bits:3 0 (p + 1) e)
      else INT_LIT (decimal_value st 0 p e)

(* ------------------------------------------------------------------ *)
(* Strings, characters, comments                                       *)
(* ------------------------------------------------------------------ *)

(* a string body from [i], decoded into [buf]; the opening quote is at
   [st.sl]:[st.sc] *)
let rec string_lit st buf i =
  if i >= st.len then unterminated st ~code:"E0102" "string"
  else
    match String.unsafe_get st.src i with
    | '"' ->
        st.pos <- i + 1;
        STRING_LIT (Buffer.contents buf)
    | '\\' when i + 1 < st.len ->
        Buffer.add_char buf (unescape (String.unsafe_get st.src (i + 1)));
        string_lit st buf (i + 2)
    | c ->
        if c = '\n' then newline st (i + 1);
        Buffer.add_char buf c;
        string_lit st buf (i + 1)

let char_lit st =
  let p = st.pos in
  if at st (p + 1) = '\\' && at st (p + 3) = '\'' then begin
    st.pos <- p + 4;
    CHAR_LIT (unescape (String.unsafe_get st.src (p + 2)))
  end
  else
    match at st (p + 1) with
    | c when c <> '\\' && c <> '\'' && p + 1 < st.len && at st (p + 2) = '\'' ->
        st.pos <- p + 3;
        CHAR_LIT c
    | _ -> bad_char st

(* a block comment whose "/*" is at [p] *)
let block_comment st p =
  st.sl <- st.lnum;
  st.sc <- col st p;
  let rec go i =
    if i >= st.len then unterminated st ~code:"E0103" "comment"
    else
      match String.unsafe_get st.src i with
      | '*' when at st (i + 1) = '/' -> st.pos <- i + 2
      | '\n' ->
          newline st (i + 1);
          go (i + 1)
      | _ -> go (i + 1)
  in
  go (p + 2)

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)
(* ------------------------------------------------------------------ *)

let op st k tok =
  st.pos <- st.pos + k;
  tok

(* the punctuator at [p], whose first byte is [c] *)
let punct st p c =
  let c1 = at st (p + 1) in
  match c with
  | '(' -> op st 1 LPAREN
  | ')' -> op st 1 RPAREN
  | '{' -> op st 1 LBRACE
  | '}' -> op st 1 RBRACE
  | '[' -> op st 1 LBRACKET
  | ']' -> op st 1 RBRACKET
  | ';' -> op st 1 SEMI
  | ',' -> op st 1 COMMA
  | ':' -> op st 1 COLON
  | '?' -> op st 1 QUESTION
  | '~' -> op st 1 TILDE
  | '.' -> if c1 = '.' && at st (p + 2) = '.' then op st 3 ELLIPSIS else op st 1 DOT
  | '-' -> (
      match c1 with
      | '>' -> op st 2 ARROW
      | '-' -> op st 2 MINUSMINUS
      | '=' -> op st 2 MINUS_ASSIGN
      | _ -> op st 1 MINUS)
  | '+' -> (
      match c1 with
      | '+' -> op st 2 PLUSPLUS
      | '=' -> op st 2 PLUS_ASSIGN
      | _ -> op st 1 PLUS)
  | '<' -> (
      match c1 with
      | '<' -> if at st (p + 2) = '=' then op st 3 SHL_ASSIGN else op st 2 SHL
      | '=' -> op st 2 LE
      | _ -> op st 1 LT)
  | '>' -> (
      match c1 with
      | '>' -> if at st (p + 2) = '=' then op st 3 SHR_ASSIGN else op st 2 SHR
      | '=' -> op st 2 GE
      | _ -> op st 1 GT)
  | '=' -> if c1 = '=' then op st 2 EQEQ else op st 1 ASSIGN
  | '!' -> if c1 = '=' then op st 2 NE else op st 1 BANG
  | '&' -> (
      match c1 with
      | '&' -> op st 2 AMPAMP
      | '=' -> op st 2 AMP_ASSIGN
      | _ -> op st 1 AMP)
  | '|' -> (
      match c1 with
      | '|' -> op st 2 BARBAR
      | '=' -> op st 2 BAR_ASSIGN
      | _ -> op st 1 BAR)
  | '*' -> if c1 = '=' then op st 2 STAR_ASSIGN else op st 1 STAR
  | '/' -> if c1 = '=' then op st 2 SLASH_ASSIGN else op st 1 SLASH
  | '%' -> if c1 = '=' then op st 2 PERCENT_ASSIGN else op st 1 PERCENT
  | '^' -> if c1 = '=' then op st 2 CARET_ASSIGN else op st 1 CARET
  | _ -> bad_char st

(* the first offset from [i] on that is not blank or inside a comment *)
let rec skip_blanks st src len i =
  if i >= len then i
  else
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' -> skip_blanks st src len (i + 1)
    | '\n' ->
        newline st (i + 1);
        skip_blanks st src len (i + 1)
    | '/' when at st (i + 1) = '*' ->
        block_comment st i;
        skip_blanks st src len st.pos
    | '/' when at st (i + 1) = '/' -> skip_blanks st src len (line_end st (i + 2))
    | '#' -> skip_blanks st src len (line_end st (i + 1))
    | _ -> i

(* Skip blanks and comments, then scan one token, leaving its start in
   [st.sl]/[st.sc] and its end at [st.pos]. *)
let token st =
  let p = skip_blanks st st.src st.len st.pos in
  st.pos <- p;
  st.sl <- st.lnum;
  st.sc <- col st p;
  if p >= st.len then EOF
  else
    match String.unsafe_get st.src p with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let e = skip_alnum st.src st.len (p + 1) in
        st.pos <- e;
        intern st p e
    | '0' .. '9' -> number st
    | '"' -> string_lit st (Buffer.create 16) (p + 1)
    | '\'' -> char_lit st
    | '$' when is_alpha (at st (p + 1)) ->
        let e = skip_alnum st.src st.len (p + 2) in
        st.pos <- e;
        QUALNAME (String.sub st.src (p + 1) (e - p - 1))
    | c -> punct st p c

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let create ?reuse src =
  let len = String.length src in
  (* a token spans at least one byte, and C averages nearer three: half
     the length in slots grows at most once, and only on dense input *)
  let cap = (len / 2) + 16 in
  let toks, spans =
    match reuse with
    | Some (tb : Tokbuf.t) when Array.length tb.Tokbuf.toks >= cap ->
        (tb.Tokbuf.toks, tb.Tokbuf.spans)
    | _ -> (Array.make cap EOF, Array.make (2 * cap) 0)
  in
  incr last_gen;
  {
    src;
    len;
    pos = 0;
    lnum = 1;
    bol = 0;
    sl = 1;
    sc = 1;
    gen = !last_gen;
    idents = [];
    toks;
    spans;
    n = 0;
  }

let push st tok =
  if st.n = Array.length st.toks then begin
    let cap = 2 * st.n in
    let toks = Array.make cap EOF and spans = Array.make (2 * cap) 0 in
    Array.blit st.toks 0 toks 0 st.n;
    Array.blit st.spans 0 spans 0 (2 * st.n);
    st.toks <- toks;
    st.spans <- spans
  end;
  let n = st.n in
  let ec = st.pos - st.bol in
  Array.unsafe_set st.toks n tok;
  Array.unsafe_set st.spans (2 * n) (Tokbuf.pack st.sl st.sc);
  Array.unsafe_set st.spans
    ((2 * n) + 1)
    (Tokbuf.pack st.lnum (if ec > st.sc then ec else st.sc));
  st.n <- n + 1

(* the EOF entry that ends the buffer early, at the scan position *)
let push_eof_here st =
  st.sl <- st.lnum;
  st.sc <- col st st.pos;
  push st EOF

let rec scan_all st =
  let tok = token st in
  push st tok;
  match tok with EOF -> () | _ -> scan_all st

(** Scan a whole source string into a token buffer. Strict mode raises
    {!Lex_error} on the first lexical error. Otherwise errors become
    diagnostics: a bad character is skipped; an out-of-range integer
    stays as [INT_LIT max_int]; an unterminated string or comment
    necessarily ends the input, so scanning stops there. At most
    [max_errors] diagnostics are produced; the last one ends the buffer
    at the point where it was found.

    [reuse] hands over a buffer its owner is done with: when its arrays
    are large enough the scan overwrites them instead of allocating,
    and the old buffer must not be read again. *)
let tokenize_buf ?(strict = false) ?(max_errors = 20) ?reuse (src : string) :
    Tokbuf.t * Diag.t list =
  let st = create ?reuse src in
  let diags = ref [] and n_diags = ref 0 in
  let rec run () =
    match scan_all st with
    | () -> ()
    | exception Lex_error d ->
        if strict then raise (Lex_error d);
        diags := d :: !diags;
        incr n_diags;
        if !n_diags < max_errors && String.equal d.Diag.d_code "E0101" then
          run ()
        else push_eof_here st
    | exception Out_of_range d ->
        if strict then raise (Lex_error d);
        diags := d :: !diags;
        incr n_diags;
        if !n_diags < max_errors then begin
          push st (INT_LIT max_int);
          run ()
        end
        else push_eof_here st
  in
  run ();
  ( { Tokbuf.toks = st.toks; spans = st.spans; n = st.n; idents = st.idents },
    List.rev !diags )

(** Tokenize a whole source string, pairing each token with its span.
    Raises {!Lex_error} on the first lexical error. *)
let tokenize (src : string) : (Ctoken.t * Diag.span) list =
  Tokbuf.to_list (fst (tokenize_buf ~strict:true src))

(** The recovering {!tokenize_buf}, as a list of tokens with spans. *)
let tokenize_partial ?max_errors (src : string) :
    (Ctoken.t * Diag.span) list * Diag.t list =
  let tb, diags = tokenize_buf ?max_errors src in
  (Tokbuf.to_list tb, diags)
