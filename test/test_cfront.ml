(* Tests for the mini-C frontend: lexer, declarators, statements,
   expressions, typedef expansion, struct tables. *)

open Cfront
open Cast

let parse src =
  match Cparse.parse_program_result src with
  | Ok p -> p
  | Error m -> Alcotest.failf "C parse error: %s\nin:\n%s" m src

let parse_err src =
  match Cparse.parse_program_result src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected C parse error for:\n%s" src

let first_var src =
  match List.find_opt (function GVar _ -> true | _ -> false) (parse src) with
  | Some (GVar d) -> d
  | _ -> Alcotest.fail "no variable parsed"

let type_str src = ctype_to_string (first_var src).d_type

(* does symbol [s] spell [name]? *)
let ( =$ ) s name = String.equal (Sym.name s) name

let test_lexer () =
  let toks = Clexer.tokenize "int x = 0x1f + 017; /* c */ // line\n\"a\\nb\" 'c' $tainted" in
  let tts = List.map fst toks in
  Alcotest.(check bool) "has hex" true (List.mem (Ctoken.INT_LIT 31) tts);
  Alcotest.(check bool) "has octal" true (List.mem (Ctoken.INT_LIT 15) tts);
  Alcotest.(check bool) "has string" true
    (List.mem (Ctoken.STRING_LIT "a\nb") tts);
  Alcotest.(check bool) "has char" true (List.mem (Ctoken.CHAR_LIT 'c') tts);
  Alcotest.(check bool) "has qualname" true
    (List.mem (Ctoken.QUALNAME "tainted") tts)

let test_simple_decls () =
  Alcotest.(check string) "int" "int" (type_str "int x;");
  Alcotest.(check string) "const int" "const int" (type_str "const int x;");
  Alcotest.(check string) "int const (postfix)" "const int"
    (type_str "int const x;");
  Alcotest.(check string) "unsigned" "unsigned int" (type_str "unsigned x;");
  Alcotest.(check string) "implicit-sign char" "char" (type_str "char x;")

let test_pointer_decls () =
  (match (first_var "int *p;").d_type with
  | TPtr (TInt (IInt, []), []) -> ()
  | t -> Alcotest.failf "int*: %s" (ctype_to_string t));
  (* const int *p : pointer to const int *)
  (match (first_var "const int *p;").d_type with
  | TPtr (TInt (IInt, [ "const" ]), []) -> ()
  | t -> Alcotest.failf "const int*: %s" (ctype_to_string t));
  (* int * const p : const pointer to int *)
  (match (first_var "int * const p;").d_type with
  | TPtr (TInt (IInt, []), [ "const" ]) -> ()
  | t -> Alcotest.failf "int* const: %s" (ctype_to_string t));
  (* int * const * p : pointer to const pointer to int *)
  match (first_var "int * const * p;").d_type with
  | TPtr (TPtr (TInt (IInt, []), [ "const" ]), []) -> ()
  | t -> Alcotest.failf "int*const*: %s" (ctype_to_string t)

let test_array_and_funptr () =
  (match (first_var "int a[10];").d_type with
  | TArray (TInt _, Some 10, _) -> ()
  | t -> Alcotest.failf "array: %s" (ctype_to_string t));
  (match (first_var "int a[2][3];").d_type with
  | TArray (TArray (TInt _, Some 3, _), Some 2, _) -> ()
  | t -> Alcotest.failf "2d array: %s" (ctype_to_string t));
  (match (first_var "int *a[4];").d_type with
  | TArray (TPtr (TInt _, _), Some 4, _) -> ()
  | t -> Alcotest.failf "array of ptr: %s" (ctype_to_string t));
  (match (first_var "int (*a)[4];").d_type with
  | TPtr (TArray (TInt _, Some 4, _), _) -> ()
  | t -> Alcotest.failf "ptr to array: %s" (ctype_to_string t));
  (* function pointer *)
  match (first_var "int (*f)(int, char *);").d_type with
  | TPtr (TFun (TInt _, [ (_, TInt _); (_, TPtr (TInt (IChar, _), _)) ], false), _)
    -> ()
  | t -> Alcotest.failf "funptr: %s" (ctype_to_string t)

let test_fundef () =
  let p = parse "int add(int a, int b) { return a + b; }" in
  match p with
  | [ GFun f ] ->
      Alcotest.(check string) "name" "add" (Sym.name f.f_name);
      Alcotest.(check int) "params" 2 (List.length f.f_params);
      Alcotest.(check bool) "not varargs" false f.f_varargs;
      (match f.f_body with
      | [ SReturn (Some (EBinop (Add, EVar a, EVar b))) ] when a =$ "a" && b =$ "b"
        -> ()
      | _ -> Alcotest.fail "body shape")
  | _ -> Alcotest.fail "expected one function"

let test_varargs_proto () =
  let p = parse "int printf(const char *fmt, ...);" in
  match p with
  | [ GProto (f, TFun (TInt _, [ _ ], true), _) ] when f =$ "printf" -> ()
  | _ -> Alcotest.fail "printf proto"

let test_struct_def () =
  let p = parse "struct st { int x; char *name; } a, b;" in
  let comps = List.filter_map (function GComp (t, u, fs, _) -> Some (t, u, fs) | _ -> None) p in
  (match comps with
  | [ (st, false, [ (x, TInt _); (name, TPtr (TInt (IChar, _), _)) ]) ]
    when st =$ "st" && x =$ "x" && name =$ "name" -> ()
  | _ -> Alcotest.fail "struct fields");
  let vars =
    List.filter_map (function GVar d -> Some (Sym.name d.d_name) | _ -> None) p
  in
  Alcotest.(check (list string)) "two vars" [ "a"; "b" ] vars

let test_typedef () =
  let p = parse "typedef int *ip; ip c, d;" in
  let prog = Cprog.build p in
  let c = Option.get (Sym.Tbl.find_opt prog.Cprog.globals (Sym.intern "c")) in
  match Cprog.expand prog c.d_type with
  | TPtr (TInt _, _) -> ()
  | t -> Alcotest.failf "typedef expansion: %s" (ctype_to_string t)

let test_typedef_quals_merge () =
  let p = parse "typedef char *str; const str s;" in
  let prog = Cprog.build p in
  let s = Option.get (Sym.Tbl.find_opt prog.Cprog.globals (Sym.intern "s")) in
  (* const str = char * const (const applies to the pointer) *)
  match Cprog.expand prog s.d_type with
  | TPtr (TInt (IChar, _), q) -> Alcotest.(check bool) "const on ptr" true (is_const q)
  | t -> Alcotest.failf "const typedef: %s" (ctype_to_string t)

let test_expr_precedence () =
  let p = parse "int f(void) { return 1 + 2 * 3 < 4 && 5 || 6; }" in
  match p with
  | [ GFun { f_body = [ SReturn (Some e) ]; _ } ] -> (
      match e with
      | EBinop (LOr, EBinop (LAnd, EBinop (Lt, EBinop (Add, EInt 1, EBinop (Mul, EInt 2, EInt 3)), EInt 4), EInt 5), EInt 6)
        -> ()
      | _ -> Alcotest.fail "precedence shape")
  | _ -> Alcotest.fail "no function"

let test_cast_vs_paren () =
  let body src =
    match parse src with
    | [ GFun { f_body = [ SReturn (Some e) ]; _ } ] -> e
    | [ _; GFun { f_body = [ SReturn (Some e) ]; _ } ] -> e
    | _ -> Alcotest.fail "no function"
  in
  (match body "int f(int x) { return (int)x; }" with
  | ECast (TInt _, EVar x) when x =$ "x" -> ()
  | _ -> Alcotest.fail "cast");
  (match body "int f(int x) { return (x); }" with
  | EVar x when x =$ "x" -> ()
  | _ -> Alcotest.fail "paren");
  (* typedef name makes it a cast *)
  match body "typedef int T; int f(int x) { return (T)x; }" with
  | ECast (TNamed (t, _), EVar x) when t =$ "T" && x =$ "x" -> ()
  | _ -> Alcotest.fail "typedef cast"

let test_statements () =
  let src =
    "int f(int n) {\n\
     int i, s = 0;\n\
     for (i = 0; i < n; i++) { s += i; }\n\
     while (s > 100) s--;\n\
     do { s++; } while (s < 10);\n\
     switch (n) { case 1: s = 1; break; default: s = 2; }\n\
     if (s) return s; else return -s;\n\
     }"
  in
  match parse src with
  | [ GFun f ] -> Alcotest.(check int) "stmt count" 6 (List.length f.f_body)
  | _ -> Alcotest.fail "statements"

let test_member_access () =
  let src =
    "struct p { int x; struct p *next; };\n\
     int f(struct p *l) { return l->next->x + (*l).x; }"
  in
  match parse src with
  | [ GComp _; GFun { f_body = [ SReturn (Some e) ]; _ } ] -> (
      match e with
      | EBinop (Add, EArrow (EArrow (EVar l, next), x), EMember (EDeref (EVar l'), x'))
        when l =$ "l" && next =$ "next" && x =$ "x" && l' =$ "l" && x' =$ "x"
        -> ()
      | _ -> Alcotest.fail "member shape")
  | _ -> Alcotest.fail "member parse"

let test_enum () =
  let p = parse "enum color { RED, GREEN = 5, BLUE }; int f(void) { return BLUE; }" in
  (* enum constants substitute as integers *)
  match p with
  | [ GEnum (color, items, _); GFun { f_body = [ SReturn (Some (EInt 6)) ]; _ } ]
    when color =$ "color" ->
      Alcotest.(check (list (pair string int)))
        "items"
        [ ("RED", 0); ("GREEN", 5); ("BLUE", 6) ]
        (List.map (fun (n, v) -> (Sym.name n, v)) items)
  | _ -> Alcotest.fail "enum"

let test_string_concat_and_escape () =
  let p = parse "char *s = \"ab\" \"cd\";" in
  match p with
  | [ GVar { d_init = Some (EString "abcd"); _ } ] -> ()
  | _ -> Alcotest.fail "string concat"

let test_init_list () =
  let p = parse "int a[3] = {1, 2, 3}; struct s { int x; int y; } v = { .x = 1, .y = 2 };" in
  let inits =
    List.filter_map (function GVar { d_init = Some i; _ } -> Some i | _ -> None) p
  in
  match inits with
  | [ EInitList [ EInt 1; EInt 2; EInt 3 ]; EInitList [ EInt 1; EInt 2 ] ] -> ()
  | _ -> Alcotest.fail "init lists"

let test_user_qualifier () =
  (* Section 2.5: $-prefixed user qualifiers in declarations *)
  let d = first_var "$tainted char *input;" in
  match d.d_type with
  | TPtr (TInt (IChar, q), _) ->
      Alcotest.(check bool) "tainted recorded" true (has_qual "tainted" q)
  | t -> Alcotest.failf "user qual: %s" (ctype_to_string t)

let test_preprocessor_skipped () =
  let p = parse "#include <stdio.h>\n#define X 3\nint x;" in
  Alcotest.(check int) "one global" 1 (List.length p)

let test_parse_errors () =
  parse_err "int x";
  parse_err "int f( {";
  parse_err "struct { int; } x;";
  parse_err "int 3x;"

let test_bitfields_and_unions () =
  let p = parse "union u { int flags : 4; char c; }; union u v;" in
  match p with
  | [ GComp (u, true, fields, _); GVar _ ] when u =$ "u" ->
      Alcotest.(check int) "fields" 2 (List.length fields)
  | _ -> Alcotest.fail "union/bitfield"

let test_static_and_extern () =
  let p = parse "static int hidden(void) { return 1; } extern int g;" in
  match p with
  | [ GFun f; GVar _ ] -> Alcotest.(check bool) "static" true f.f_static
  | _ -> Alcotest.fail "static/extern"

let test_comma_and_ternary () =
  match parse "int f(int a) { return a ? 1 : (a = 2, 3); }" with
  | [ GFun { f_body = [ SReturn (Some (ECond (EVar a, EInt 1, EComma (EAssign _, EInt 3)))) ]; _ } ]
    when a =$ "a" -> ()
  | _ -> Alcotest.fail "comma/ternary"

let test_sizeof () =
  match parse "int f(int *p) { return sizeof(int) + sizeof p; }" with
  | [ GFun { f_body = [ SReturn (Some (EBinop (Add, ESizeofT (TInt _), ESizeofE (EVar p)))) ]; _ } ]
    when p =$ "p" -> ()
  | _ -> Alcotest.fail "sizeof"

let tests =
  [
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "simple declarations" `Quick test_simple_decls;
    Alcotest.test_case "pointer declarators with const" `Quick
      test_pointer_decls;
    Alcotest.test_case "arrays and function pointers" `Quick
      test_array_and_funptr;
    Alcotest.test_case "function definition" `Quick test_fundef;
    Alcotest.test_case "varargs prototype" `Quick test_varargs_proto;
    Alcotest.test_case "struct definition" `Quick test_struct_def;
    Alcotest.test_case "typedef expansion" `Quick test_typedef;
    Alcotest.test_case "typedef qualifier merge" `Quick
      test_typedef_quals_merge;
    Alcotest.test_case "expression precedence" `Quick test_expr_precedence;
    Alcotest.test_case "cast vs parenthesis" `Quick test_cast_vs_paren;
    Alcotest.test_case "statements" `Quick test_statements;
    Alcotest.test_case "member access" `Quick test_member_access;
    Alcotest.test_case "enums substitute" `Quick test_enum;
    Alcotest.test_case "string concat/escapes" `Quick
      test_string_concat_and_escape;
    Alcotest.test_case "initializer lists" `Quick test_init_list;
    Alcotest.test_case "$user qualifiers" `Quick test_user_qualifier;
    Alcotest.test_case "preprocessor lines skipped" `Quick
      test_preprocessor_skipped;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "unions and bitfields" `Quick
      test_bitfields_and_unions;
    Alcotest.test_case "static and extern" `Quick test_static_and_extern;
    Alcotest.test_case "comma and ternary" `Quick test_comma_and_ternary;
    Alcotest.test_case "sizeof" `Quick test_sizeof;
  ]

(* ---------------- additional robustness ---------------- *)

let test_comma_decls () =
  let p = parse "int a = 1, *b, c[3];" in
  let names =
    List.filter_map (function GVar d -> Some (Sym.name d.d_name) | _ -> None) p
  in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ] names;
  match p with
  | [ GVar { d_init = Some (EInt 1); _ }; GVar { d_type = TPtr _; _ };
      GVar { d_type = TArray (_, Some 3, _); _ } ] -> ()
  | _ -> Alcotest.fail "comma decl shapes"

let test_nested_struct () =
  let p =
    parse
      "struct inner { int x; };\n\
       struct outer { struct inner i; struct inner *pi; };\n\
       int f(struct outer *o) { return o->i.x + o->pi->x; }"
  in
  Alcotest.(check int) "globals" 3 (List.length p)

let test_array_of_funptr () =
  match (first_var "int (*handlers[4])(char *);").d_type with
  | TArray (TPtr (TFun (TInt _, [ _ ], false), _), Some 4, _) -> ()
  | t -> Alcotest.failf "array of funptr: %s" (ctype_to_string t)

let test_funptr_returning_funptr () =
  (* "int ( *f(void) )(int)": function returning pointer to function *)
  match parse "int (*f(void))(int);" with
  | [ GProto (f, TFun (TPtr (TFun (TInt _, [ _ ], false), _), [], false), _) ]
    when f =$ "f" -> ()
  | _ -> Alcotest.fail "function returning function pointer"

let test_shift_and_mod_precedence () =
  let body src =
    match parse src with
    | [ GFun { f_body = [ SReturn (Some e) ]; _ } ] -> e
    | _ -> Alcotest.fail "no function"
  in
  (match body "int f(int a) { return a << 2 + 1; }" with
  | EBinop (Shl, EVar a, EBinop (Add, EInt 2, EInt 1)) when a =$ "a" -> ()
  | _ -> Alcotest.fail "shift binds looser than +");
  match body "int f(int a) { return a % 3 * 2; }" with
  | EBinop (Mul, EBinop (Mod, EVar a, EInt 3), EInt 2) when a =$ "a" -> ()
  | _ -> Alcotest.fail "% and * same level, left assoc"

let test_unary_chain () =
  match parse "int f(int *p) { return -*p + !*p + ~*p; }" with
  | [ GFun _ ] -> ()
  | _ -> Alcotest.fail "unary chain"

let test_assignment_ops () =
  let src =
    "void f(int x) { x += 1; x -= 2; x *= 3; x /= 4; x %= 5; x &= 6; x |= 7; x ^= 8; x <<= 1; x >>= 1; }"
  in
  match parse src with
  | [ GFun { f_body; _ } ] -> Alcotest.(check int) "10 stmts" 10 (List.length f_body)
  | _ -> Alcotest.fail "assign ops"

let test_char_escapes () =
  let toks = Clexer.tokenize {|'\n' '\t' '\\' '\'' '\0'|} in
  let cs = List.filter_map (function Ctoken.CHAR_LIT c, _ -> Some c | _ -> None) toks in
  Alcotest.(check (list char)) "escapes" [ '\n'; '\t'; '\\'; '\''; '\000' ] cs

let test_hex_and_suffixes () =
  let toks = Clexer.tokenize "0xFF 10L 20UL 077" in
  let ns = List.filter_map (function Ctoken.INT_LIT n, _ -> Some n | _ -> None) toks in
  Alcotest.(check (list int)) "values" [ 255; 10; 20; 63 ] ns

let test_empty_function_and_void () =
  match parse "void f(void) { }" with
  | [ GFun { f_params = []; f_body = []; _ } ] -> ()
  | _ -> Alcotest.fail "empty fn"

let test_lines_counted () =
  Alcotest.(check int) "lines" 3 (Cprog.count_lines "a\nb\nc")

let test_const_in_cast () =
  match parse "char *f(const char *s) { return (char *)s; }" with
  | [ GFun { f_body = [ SReturn (Some (ECast (TPtr (TInt (IChar, []), []), EVar s))) ]; _ } ]
    when s =$ "s" -> ()
  | _ -> Alcotest.fail "cast type"

let test_forward_struct_ref () =
  (* a struct can reference itself and a not-yet-defined struct through a
     pointer *)
  let p =
    parse
      "struct a;\n\
       struct b { struct a *pa; struct b *next; };\n\
       struct a { struct b inner; };\n\
       int f(struct b *x) { return 0; }"
  in
  Alcotest.(check bool) "parsed" true (List.length p >= 3)

let extra_tests =
  [
    Alcotest.test_case "comma declarations" `Quick test_comma_decls;
    Alcotest.test_case "nested structs" `Quick test_nested_struct;
    Alcotest.test_case "array of function pointers" `Quick
      test_array_of_funptr;
    Alcotest.test_case "function returning function pointer" `Quick
      test_funptr_returning_funptr;
    Alcotest.test_case "shift/mod precedence" `Quick
      test_shift_and_mod_precedence;
    Alcotest.test_case "unary chains" `Quick test_unary_chain;
    Alcotest.test_case "compound assignment operators" `Quick
      test_assignment_ops;
    Alcotest.test_case "char escapes" `Quick test_char_escapes;
    Alcotest.test_case "hex/octal/suffixed literals" `Quick
      test_hex_and_suffixes;
    Alcotest.test_case "empty void function" `Quick
      test_empty_function_and_void;
    Alcotest.test_case "line counting" `Quick test_lines_counted;
    Alcotest.test_case "const in cast" `Quick test_const_in_cast;
    Alcotest.test_case "forward struct references" `Quick
      test_forward_struct_ref;
  ]

(* ---------------- scanner vs the ocamllex reference model ------------ *)

(* Cfront.Clexer is a hand-written scanner; test/clexer_ref.mll states the
   same token grammar as an ocamllex spec. The two must agree token for
   token, span for span and diagnostic for diagnostic, in the strict and
   the recovering entry points, on clean sources and on every recovery
   path (bad characters, unterminated constructs, out-of-range
   literals, the error cap). *)

let pp_tok (t, (sp : Diag.span)) =
  Printf.sprintf "%s@%d:%d-%d:%d" (Ctoken.to_string t) sp.Diag.sl sp.Diag.sc
    sp.Diag.el sp.Diag.ec

let strict_outcome lex src =
  match lex src with
  | toks -> Ok (List.map pp_tok toks)
  | exception (Clexer.Lex_error d | Clexer_ref.Lex_error d) ->
      Error (Diag.to_string d)

(* a spent buffer with room to spare, for the [reuse] path *)
let spent () =
  fst (Clexer.tokenize_buf (String.concat "" (List.init 400 (fun _ -> "a+b; "))))

(* [None] when the scanner agrees with the model, else what differs *)
let scanner_mismatch ?max_errors src =
  let toks, diags = Clexer.tokenize_partial ?max_errors src in
  let rtoks, rdiags = Clexer_ref.tokenize_partial ?max_errors src in
  let tb, bdiags = Clexer.tokenize_buf ?max_errors ~reuse:(spent ()) src in
  let show toks diags =
    String.concat " " (List.map pp_tok toks)
    ^ " | "
    ^ String.concat "; " (List.map Diag.to_string diags)
  in
  let got = show toks diags and want = show rtoks rdiags in
  let strict = strict_outcome Clexer.tokenize src
  and rstrict = strict_outcome Clexer_ref.tokenize src in
  if got <> want then Some (Printf.sprintf "partial:\n  got  %s\n  want %s" got want)
  else if show (Tokbuf.to_list tb) bdiags <> want then Some "reused buffer differs"
  else if strict <> rstrict then Some "strict tokenize differs"
  else None

let check_scanner label ?max_errors src =
  match scanner_mismatch ?max_errors src with
  | None -> ()
  | Some m -> Alcotest.failf "%s: %s\nsource: %S" label m src

let test_scanner_corpora () =
  List.iter (fun (name, src) -> check_scanner name src) Cbench.Programs.all;
  List.iter
    (fun (name, src) -> check_scanner ("mini/" ^ name) src)
    Cbench.Programs.miniproject;
  List.iter
    (fun seed ->
      check_scanner
        (Printf.sprintf "gen seed %d" seed)
        (Cbench.Gen.generate ~seed ~target_lines:500 ()))
    [ 41; 42 ];
  List.iter
    (fun (label, src) -> check_scanner label src)
    [
      ("stray chars", "int a;\n@\nint b;\n`\nint c;\n");
      ("unterminated string", "int a;\nchar *s = \"oops;\nint b;\n");
      ("unterminated comment", "int a;\n/* never closed\nint b;\n");
      ("string with escapes", "char *s = \"a\\t\\\"b\\n\";\nint x;\n");
      ("overflow", "int x = 99999999999999999999;\nint y = 0x1ffffffffffffffff;\n");
    ];
  let flood = String.concat "" (List.init 40 (fun _ -> "@\n")) in
  check_scanner "error cap" ~max_errors:5 flood;
  check_scanner "error cap default" flood

(* strings over a C-ish alphabet that stresses every longest-match
   decision and recovery path *)
let scanner_input_gen =
  let open QCheck2.Gen in
  let piece =
    oneofl
      [
        "0x"; "0"; "7"; "8"; "9"; "1"; "x"; "f"; "e"; "E"; "u"; "L"; "."; "+";
        "-"; "$"; "'"; "\""; "\\"; "\n"; "\r"; "\t"; " "; "\000"; "\x80"; "/";
        "*"; "#"; "<"; ">"; "="; "&"; "|"; "_"; "a"; "int"; "const"; "ab";
        "99999999999999999999"; "0x7fffffffffffffff"; "0x8000000000000000";
        "0777777777777777777777"; "01000000000000000000000"; "4611686018427387904";
        ";"; "("; "{"; "}"; "@";
      ]
  in
  pair (int_range 1 5) (map (String.concat "") (list_size (int_range 0 40) piece))

let prop_scanner_model =
  QCheck2.Test.make ~count:2000
    ~name:"scanner = ocamllex model (random C-ish strings)"
    ~print:(fun (m, s) -> Printf.sprintf "max_errors %d, %S" m s)
    scanner_input_gen
    (fun (max_errors, src) ->
      match scanner_mismatch ~max_errors src with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* the longest-match and line-counting decisions, pinned by example *)
let test_scanner_edges () =
  let ints src =
    List.filter_map
      (function Ctoken.INT_LIT n, _ -> Some n | _ -> None)
      (Clexer.tokenize src)
  in
  Alcotest.(check (list int)) "0755 is octal" [ 493 ] (ints "0755");
  Alcotest.(check (list int)) "0758 is decimal" [ 758 ] (ints "0758");
  Alcotest.(check (list int)) "0755u is decimal" [ 755 ] (ints "0755u");
  Alcotest.(check (list string))
    "bare 0x" [ "0"; "x"; "<eof>" ]
    (List.map (fun (t, _) -> Ctoken.to_string t) (Clexer.tokenize "0x"));
  let line_after src =
    (* the line of the token after the literal *)
    match List.rev (Clexer.tokenize src) with
    | _eof :: (_, sp) :: _ -> sp.Diag.sl
    | _ -> Alcotest.fail "too few tokens"
  in
  Alcotest.(check int) "raw newline in a char literal" 1 (line_after "'\n' x");
  Alcotest.(check int) "newline after a backslash in a string" 1
    (line_after "\"a\\\nb\" x");
  Alcotest.(check int) "raw newline in a string" 2 (line_after "\"a\nb\" x");
  (match Clexer.tokenize_partial "int x = 99999999999999999999;" with
  | toks, [ d ] ->
      Alcotest.(check string)
        "E0104" "error[E0104] 1:9-28: integer literal out of range"
        (Diag.to_string d);
      Alcotest.(check bool) "saturated literal kept" true
        (List.mem (Ctoken.INT_LIT max_int) (List.map fst toks))
  | _ -> Alcotest.fail "expected one E0104")

let test_tokbuf_interns () =
  let tb, _ = Clexer.tokenize_buf "int foo; int bar; foo_t baz; foo bar;\n" in
  let mentions name = List.memq (Sym.intern name) tb.Tokbuf.idents in
  Alcotest.(check bool) "mentions foo" true (mentions "foo");
  Alcotest.(check bool) "mentions foo_t" true (mentions "foo_t");
  Alcotest.(check bool) "keyword not an ident" false (mentions "int");
  Alcotest.(check bool) "absent name" false (mentions "quux");
  let names = List.sort String.compare (List.map Sym.name tb.Tokbuf.idents) in
  Alcotest.(check (list string)) "ident set" [ "bar"; "baz"; "foo"; "foo_t" ]
    names;
  (* every occurrence of a name shares its one token *)
  let foos =
    List.filter
      (fun t -> match t with Ctoken.IDENT s -> s =$ "foo" | _ -> false)
      (List.init (Tokbuf.length tb) (Tokbuf.tok tb))
  in
  match foos with
  | [ a; b ] -> Alcotest.(check bool) "shared IDENT" true (a == b)
  | _ -> Alcotest.fail "expected two occurrences of foo"

(* ---------------- symbols ---------------- *)

let test_sym_roundtrip () =
  let names = [ "alpha"; "beta"; "gamma_1"; "_"; "x"; "alpha" ] in
  let ids = List.map Sym.intern names in
  List.iter2
    (fun n s ->
      Alcotest.(check string) "name (intern n) = n" n (Sym.name s);
      Alcotest.(check bool) "intern (name s) = s" true
        (Sym.equal s (Sym.intern (Sym.name s))))
    names ids;
  Alcotest.(check bool) "repeat interns to one id" true
    (Sym.equal (List.hd ids) (List.nth ids 5));
  let src = "the_slice_name" in
  Alcotest.(check bool) "slice = whole" true
    (Sym.equal (Sym.intern_sub ("<" ^ src ^ ">") 1 (String.length src + 1))
       (Sym.intern src))

let test_sym_dense () =
  let before = Sym.count () in
  let fresh =
    List.init 3000 (fun i -> Sym.intern (Printf.sprintf "dense$%d$%d" before i))
  in
  Alcotest.(check int) "count grows by the new names" (before + 3000)
    (Sym.count ());
  List.iteri
    (fun i (s : Sym.t) ->
      Alcotest.(check int) "ids are consecutive" (before + i) (s :> int))
    fresh;
  Alcotest.(check bool) "every id below count" true
    (List.for_all (fun (s : Sym.t) -> (s :> int) < Sym.count ()) fresh)

let test_sym_across_units () =
  let syms src =
    let tb, _ = Clexer.tokenize_buf src in
    List.sort Sym.compare tb.Tokbuf.idents
  in
  let a = syms "int shared_name; int only_in_a;"
  and b = syms "long only_in_b; char shared_name;" in
  let shared = Sym.intern "shared_name" in
  Alcotest.(check bool) "unit a lists shared_name" true (List.memq shared a);
  Alcotest.(check bool) "unit b lists shared_name" true (List.memq shared b);
  let parsed src =
    match parse src with
    | [ GVar d ] -> d.d_name
    | _ -> Alcotest.fail "one global"
  in
  Alcotest.(check bool) "one id in both units' ASTs" true
    (Sym.equal (parsed "int shared_name;") (parsed "char *shared_name;"))

(* ---------------- linking: Cprog.merge = a string-keyed model ---------------- *)

(* The pre-symbol linker as a model: one pass over the units' globals in
   unit order with name-keyed tables — typedefs, struct layouts,
   definitions and globals last-wins, prototypes first-wins, struct tags
   listed in first-definition order. *)
let model_merge (units : program list) =
  let typedefs = Hashtbl.create 16 and comps = Hashtbl.create 16
  and fundefs = Hashtbl.create 16 and protos = Hashtbl.create 16
  and globals = Hashtbl.create 16 and tags = ref [] in
  List.iter
    (List.iter (function
      | GTypedef (n, t, _) -> Hashtbl.replace typedefs (Sym.name n) t
      | GComp (tag, _, fs, _) ->
          if not (Hashtbl.mem comps (Sym.name tag)) then
            tags := Sym.name tag :: !tags;
          Hashtbl.replace comps (Sym.name tag) fs
      | GFun f -> Hashtbl.replace fundefs (Sym.name f.f_name) f
      | GProto (n, t, _) ->
          if not (Hashtbl.mem protos (Sym.name n)) then
            Hashtbl.replace protos (Sym.name n) t
      | GVar d -> Hashtbl.replace globals (Sym.name d.d_name) d
      | GEnum _ -> ()))
    units;
  (typedefs, comps, fundefs, protos, globals, List.rev !tags)

(* a duplicate of a global that the tables can tell from the original *)
let twin = function
  | GFun f -> GFun { f with f_body = []; f_line = f.f_line + 100_000 }
  | GProto (n, _, l) -> GProto (n, TFun (TVoid [], [], false), l + 100_000)
  | GTypedef (n, _, l) -> GTypedef (n, TFloat (FDouble, []), l + 100_000)
  | GComp (tag, u, fs, l) -> GComp (tag, u, List.rev fs, l + 100_000)
  | GVar d -> GVar { d with d_init = None; d_line = d.d_line + 100_000 }
  | GEnum _ as g -> g

let prop_merge_model =
  QCheck2.Test.make ~count:40 ~name:"Cprog.merge = string-keyed model"
    QCheck2.Gen.(
      pair (int_bound 10_000) (list_size (int_range 1 12) (pair nat nat)))
    (fun (seed, picks) ->
      let units =
        List.map
          (fun (_, src) -> (Cparse.parse_program_partial src).Cparse.pr_prog)
          (Cbench.Gen.generate_project ~seed ~target_lines:400 ())
      in
      let all = Array.of_list (List.concat units) in
      (* extra units of twins (and verbatim repeats), spliced in at
         seeded positions, so definitions and prototypes recur across
         units in both directions *)
      let units =
        List.fold_left
          (fun us (i, j) ->
            let g = all.(i mod Array.length all) in
            let extra = [ (if j mod 3 = 0 then g else twin g) ] in
            let k = j mod (List.length us + 1) in
            List.filteri (fun x _ -> x < k) us
            @ (extra :: List.filteri (fun x _ -> x >= k) us))
          units picks
      in
      let prog = Cprog.merge units in
      let typedefs, comps, fundefs, protos, globals, tags = model_merge units in
      let agree tbl model =
        (* every name the units mention, defined or not *)
        let names = Hashtbl.create 64 in
        List.iter
          (fun g ->
            List.iter
              (fun n -> Hashtbl.replace names (Sym.name n) ())
              (match g with
              | GFun f ->
                  f.f_name
                  :: Cast.fold_stmts_exprs Cast.expr_idents [] f.f_body
              | GProto (n, _, _) | GTypedef (n, _, _) | GComp (n, _, _, _)
              | GEnum (n, _, _) ->
                  [ n ]
              | GVar d -> [ d.d_name ]))
          (List.concat units);
        Hashtbl.fold
          (fun n () ok ->
            ok && Sym.Tbl.find_opt tbl (Sym.intern n) = Hashtbl.find_opt model n)
          names true
      in
      agree prog.Cprog.typedefs typedefs
      && agree prog.Cprog.comps comps
      && agree prog.Cprog.fundefs fundefs
      && agree prog.Cprog.protos protos
      && agree prog.Cprog.globals globals
      && List.map Sym.name prog.Cprog.comp_tags = tags
      && prog.Cprog.order = List.concat units)

let tokbuf_tests =
  [
    Alcotest.test_case "scanner = ocamllex model (corpora)" `Quick
      test_scanner_corpora;
    QCheck_alcotest.to_alcotest prop_scanner_model;
    Alcotest.test_case "scanner longest-match edges" `Quick test_scanner_edges;
    Alcotest.test_case "token buffer intern table" `Quick test_tokbuf_interns;
    QCheck_alcotest.to_alcotest prop_merge_model;
    Alcotest.test_case "symbols: name and intern are inverse" `Quick
      test_sym_roundtrip;
    Alcotest.test_case "symbols: ids are dense" `Quick test_sym_dense;
    Alcotest.test_case "symbols: one id across units" `Quick
      test_sym_across_units;
  ]

let tests = tests @ extra_tests @ tokbuf_tests
