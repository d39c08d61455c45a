(** Recursive-descent parser for the mini-C language.

    Covers the ANSI C declaration syntax the paper's const study needs:
    full declarators (pointers with per-star qualifiers, arrays, function
    pointers, parenthesized declarators), struct/union/enum definitions,
    typedefs (names tracked so casts and declarations disambiguate), the
    whole C expression grammar with correct precedence, and the usual
    statements. Menhir is not available in this environment, so the parser
    is hand-written over the scanner's token buffer. *)

open Cast

exception Parse_error of string * Diag.span

type st = {
  t_toks : Ctoken.t array;  (* flat token array; last entry is EOF *)
  t_spans : int array;  (* packed, see Tokbuf; span records are rebuilt
                           lazily, only on paths that report them *)
  t_len : int;
  mutable pos : int;
  typedefs : unit Sym.Tbl.t;
  enum_consts : int Sym.Tbl.t;
  mutable anon : int;
  recover : bool;
      (* panic-mode recovery: function bodies that fail to parse demote to
         prototypes instead of aborting the file *)
  mutable diags : Diag.t list;  (* reverse order *)
  mutable n_diags : int;  (* List.length diags, maintained incrementally *)
  mutable degraded : (string * string) list;  (* (function, reason) *)
  mutable new_typedefs : Sym.t list;
      (* typedef names registered while parsing, newest first: the unit's
         typedef exports, replayed into the link environment *)
  mutable new_enums : (Sym.t * int) list;
      (* enum constants registered while parsing, newest first *)
  mutable minted : Sym.t list;
      (* names the parser made up — anonymous tags, unnamed parameters —
         newest first, possibly repeated *)
  mutable last_params : (Sym.t * Diag.span) list;
      (* name spans of the parameter list parsed most recently — set by
         [parse_params] on completion, so after a declarator like
         [int foo(int a, char *b)] it holds a's and b's name spans. Inner
         (function-pointer) parameter lists finish before the enclosing
         one, which overwrites them; [parse_global] re-aligns by name and
         falls back to (0,0) on any mismatch. *)
}

(* A unit parse may be seeded with the accumulated environment of the
   units linked before it: their typedef and enum-constant exports and
   the running anonymous-tag counter, so [struct$N] numbering and
   typedef-sensitive disambiguation match a whole-program parse. *)
let make_state_tb ?(recover = false) ?(typedefs = []) ?(enums = [])
    ?(anon = 0) (tb : Tokbuf.t) =
  let tds = Sym.Tbl.create () in
  List.iter (fun n -> Sym.Tbl.replace tds n ()) typedefs;
  let ecs = Sym.Tbl.create () in
  List.iter (fun (n, v) -> Sym.Tbl.replace ecs n v) enums;
  {
    t_toks = tb.Tokbuf.toks;
    t_spans = tb.Tokbuf.spans;
    t_len = tb.Tokbuf.n;
    pos = 0;
    typedefs = tds;
    enum_consts = ecs;
    anon;
    recover;
    diags = [];
    n_diags = 0;
    degraded = [];
    new_typedefs = [];
    new_enums = [];
    minted = [];
    last_params = [];
  }

let add_diag st d =
  st.diags <- d :: st.diags;
  st.n_diags <- st.n_diags + 1

let peek st = st.t_toks.(st.pos)
let peek2 st =
  if st.pos + 1 < st.t_len then st.t_toks.(st.pos + 1) else Ctoken.EOF

let span st : Diag.span = Tokbuf.span_of st.t_spans st.pos

let line st = Tokbuf.line_of st.t_spans st.pos

let advance st = if st.pos + 1 < st.t_len then st.pos <- st.pos + 1

let next st =
  let t = st.t_toks.(st.pos) in
  advance st;
  t

let err st msg = raise (Parse_error (msg, span st))

(* Is the current token [t]? Only ever asked of punctuation and keywords:
   constant constructors, for which physical equality is token equality
   and costs no call into polymorphic compare. *)
let at st (t : Ctoken.t) = st.t_toks.(st.pos) == t

let at2 st (t : Ctoken.t) = st.pos + 1 < st.t_len && st.t_toks.(st.pos + 1) == t

(* [expect] and [ident] consume the current token either way, and build
   the error span only when they raise *)
let unexpected st what =
  let sp = span st in
  let got = next st in
  raise
    (Parse_error
       (Printf.sprintf "expected %s, got `%s'" what (Ctoken.to_string got), sp))

let expect st t =
  if at st t then advance st
  else unexpected st (Printf.sprintf "`%s'" (Ctoken.to_string t))

let ident st =
  match peek st with
  | Ctoken.IDENT x ->
      advance st;
      x
  | _ -> unexpected st "identifier"

let mint st name =
  let s = Sym.intern name in
  st.minted <- s :: st.minted;
  s

let fresh_anon st prefix =
  st.anon <- st.anon + 1;
  mint st (Printf.sprintf "%s$%d" prefix st.anon)

let is_typedef st name = Sym.Tbl.mem st.typedefs name

let register_typedef st name =
  Sym.Tbl.replace st.typedefs name ();
  st.new_typedefs <- name :: st.new_typedefs

let register_enum_const st name v =
  Sym.Tbl.replace st.enum_consts name v;
  st.new_enums <- (name, v) :: st.new_enums

(* Does the current token start a type (decl-specs)? *)
let starts_type st =
  match peek st with
  | Ctoken.KW_VOID | KW_CHAR | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT
  | KW_DOUBLE | KW_SIGNED | KW_UNSIGNED | KW_CONST | KW_VOLATILE | KW_STRUCT
  | KW_UNION | KW_ENUM | KW_TYPEDEF | KW_STATIC | KW_EXTERN | KW_REGISTER
  | KW_AUTO | QUALNAME _ ->
      true
  | IDENT x -> is_typedef st x
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Declaration specifiers                                              *)
(* ------------------------------------------------------------------ *)

type specs = {
  base : ctype;
  s_typedef : bool;
  s_static : bool;
  s_extern : bool;
}

(* The binary operator a token denotes, with its precedence level,
   loosest first. All binary operators are left-associative. *)
let binop_of_token : Ctoken.t -> (int * binop) option = function
  | BARBAR -> Some (0, LOr)
  | AMPAMP -> Some (1, LAnd)
  | BAR -> Some (2, BOr)
  | CARET -> Some (3, BXor)
  | AMP -> Some (4, BAnd)
  | EQEQ -> Some (5, Eq)
  | NE -> Some (5, Ne)
  | LT -> Some (6, Lt)
  | GT -> Some (6, Gt)
  | LE -> Some (6, Le)
  | GE -> Some (6, Ge)
  | SHL -> Some (7, Shl)
  | SHR -> Some (7, Shr)
  | PLUS -> Some (8, Add)
  | MINUS -> Some (8, Sub)
  | STAR -> Some (9, Mul)
  | SLASH -> Some (9, Div)
  | PERCENT -> Some (9, Mod)
  | _ -> None

(* the operator of a compound assignment token *)
let assign_op : Ctoken.t -> binop option = function
  | PLUS_ASSIGN -> Some Add
  | MINUS_ASSIGN -> Some Sub
  | STAR_ASSIGN -> Some Mul
  | SLASH_ASSIGN -> Some Div
  | PERCENT_ASSIGN -> Some Mod
  | AMP_ASSIGN -> Some BAnd
  | BAR_ASSIGN -> Some BOr
  | CARET_ASSIGN -> Some BXor
  | SHL_ASSIGN -> Some Shl
  | SHR_ASSIGN -> Some Shr
  | _ -> None

(* Struct/union/enum definitions encountered inside decl-specs are hoisted
   out as extra globals; the caller collects them. *)
let rec parse_decl_specs st (hoist : global list ref) : specs =
  let quals = ref [] in
  let signed = ref None in
  let base = ref None in
  let long_count = ref 0 in
  let is_typedef_kw = ref false in
  let is_static = ref false in
  let is_extern = ref false in
  let set_base b =
    match !base with
    | None -> base := Some b
    | Some _ -> err st "two base types in declaration"
  in
  let continue_ = ref true in
  while !continue_ do
    (match peek st with
    | Ctoken.KW_CONST ->
        ignore (next st);
        quals := add_qual "const" !quals
    | QUALNAME q ->
        ignore (next st);
        quals := add_qual q !quals
    | KW_VOLATILE | KW_REGISTER | KW_AUTO -> ignore (next st)
    | KW_TYPEDEF ->
        ignore (next st);
        is_typedef_kw := true
    | KW_STATIC ->
        ignore (next st);
        is_static := true
    | KW_EXTERN ->
        ignore (next st);
        is_extern := true
    | KW_VOID ->
        ignore (next st);
        set_base `Void
    | KW_CHAR ->
        ignore (next st);
        set_base `Char
    | KW_SHORT ->
        ignore (next st);
        set_base `Short
    | KW_INT -> (
        ignore (next st);
        match !base with
        | Some (`Short | `Long) | None ->
            if Option.is_none !base then set_base `Int
        | Some _ -> err st "two base types in declaration")
    | KW_LONG ->
        ignore (next st);
        incr long_count;
        (match !base with
        | None | Some `Int -> base := Some `Long
        | Some _ -> ())
    | KW_FLOAT ->
        ignore (next st);
        set_base `Float
    | KW_DOUBLE ->
        ignore (next st);
        set_base `Double
    | KW_SIGNED ->
        ignore (next st);
        signed := Some true
    | KW_UNSIGNED ->
        ignore (next st);
        signed := Some false
    | KW_STRUCT | KW_UNION ->
        let is_union = at st KW_UNION in
        ignore (next st);
        let tag =
          match peek st with
          | IDENT x ->
              ignore (next st);
              x
          | _ -> fresh_anon st (if is_union then "union" else "struct")
        in
        if at st LBRACE then begin
          let fields = parse_fields st hoist in
          hoist := GComp (tag, is_union, fields, line st) :: !hoist
        end;
        set_base (`Struct tag)
    | KW_ENUM ->
        ignore (next st);
        let tag =
          match peek st with
          | IDENT x ->
              ignore (next st);
              x
          | _ -> fresh_anon st "enum"
        in
        if at st LBRACE then begin
          ignore (next st);
          let items = ref [] in
          let v = ref 0 in
          let rec items_loop () =
            match peek st with
            | RBRACE -> ignore (next st)
            | IDENT x ->
                ignore (next st);
                (match peek st with
                | ASSIGN ->
                    ignore (next st);
                    (* constant expressions: integer literal, possibly
                       negated, or a previously defined enum constant *)
                    let value =
                      match next st with
                      | INT_LIT n -> n
                      | MINUS -> (
                          match next st with
                          | INT_LIT n -> -n
                          | _ -> err st "expected integer in enum")
                      | IDENT y -> (
                          match Sym.Tbl.find_opt st.enum_consts y with
                          | Some n -> n
                          | None -> err st "unknown enum constant")
                      | _ -> err st "expected constant in enum"
                    in
                    v := value
                | _ -> ());
                register_enum_const st x !v;
                items := (x, !v) :: !items;
                incr v;
                (match peek st with
                | COMMA -> ignore (next st)
                | _ -> ());
                items_loop ()
            | _ -> err st "bad enum body"
          in
          items_loop ();
          hoist := GEnum (tag, List.rev !items, line st) :: !hoist
        end;
        (* enums are ints for the analysis *)
        set_base `Int
    | IDENT x
      when Option.is_none !base && Option.is_none !signed && is_typedef st x
      ->
        ignore (next st);
        set_base (`Named x)
    | _ -> continue_ := false);
    if Option.is_some !base && not (starts_spec_continuation st) then
      continue_ := false
  done;
  let q = List.sort_uniq compare !quals in
  let ikind_of b =
    match (b, !signed) with
    | `Char, Some false -> IUChar
    | `Char, _ -> IChar
    | `Short, Some false -> IUShort
    | `Short, _ -> IShort
    | `Int, Some false -> IUInt
    | `Int, _ -> IInt
    | `Long, Some false -> IULong
    | `Long, _ -> ILong
    | _ -> IInt
  in
  let base_t =
    match !base with
    | Some `Void -> TVoid q
    | Some ((`Char | `Short | `Int | `Long) as b) -> TInt (ikind_of b, q)
    | Some `Float -> TFloat (FFloat, q)
    | Some `Double -> TFloat (FDouble, q)
    | Some (`Struct tag) -> TStruct (tag, q)
    | Some (`Named x) -> TNamed (x, q)
    | None ->
        if Option.is_some !signed || !long_count > 0 then TInt (ikind_of `Int, q)
        else TInt (IInt, q) (* implicit int, as in K&R C *)
  in
  {
    base = base_t;
    s_typedef = !is_typedef_kw;
    s_static = !is_static;
    s_extern = !is_extern;
  }

and starts_spec_continuation st =
  (* after a base type, only qualifiers/storage may continue the specs *)
  match peek st with
  | Ctoken.KW_CONST | KW_VOLATILE | QUALNAME _ | KW_TYPEDEF | KW_STATIC
  | KW_EXTERN | KW_REGISTER | KW_AUTO | KW_UNSIGNED | KW_SIGNED | KW_LONG
  | KW_INT ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

(* A parsed declarator: optional name (with the span of its defining
   token, anchoring the report's position keys) plus a function that
   wraps the base type into the declared type (the standard inside-out
   construction). *)
and parse_declarator st (hoist : global list ref) :
    (Sym.t * Diag.span) option * (ctype -> ctype) =
  (* pointer prefix: each star may carry its own qualifiers *)
  let rec ptrs acc =
    match peek st with
    | Ctoken.STAR ->
        ignore (next st);
        let rec qs acc =
          match peek st with
          | Ctoken.KW_CONST ->
              ignore (next st);
              qs (add_qual "const" acc)
          | QUALNAME q ->
              ignore (next st);
              qs (add_qual q acc)
          | KW_VOLATILE ->
              ignore (next st);
              qs acc
          | _ -> acc
        in
        ptrs (qs no_quals :: acc)
    | _ -> acc
  in
  let ptr_quals = ptrs [] in
  (* ptr_quals is reversed source order (head = last star); the first star
     in source order is the innermost pointer, so fold source order left *)
  let apply_ptrs b =
    List.fold_left (fun t q -> TPtr (t, q)) b (List.rev ptr_quals)
  in
  (* direct declarator *)
  let name, wrap_direct =
    match peek st with
    | Ctoken.IDENT x ->
        let sp = span st in
        ignore (next st);
        (Some (x, sp), fun t -> t)
    | LPAREN when is_nested_declarator st ->
        ignore (next st);
        let n, w = parse_declarator st hoist in
        expect st RPAREN;
        (n, w)
    | _ -> (None, fun t -> t)
    (* abstract declarator *)
  in
  (* suffixes *)
  let rec suffixes acc =
    match peek st with
    | Ctoken.LBRACKET ->
        ignore (next st);
        let n =
          match peek st with
          | INT_LIT n ->
              ignore (next st);
              Some n
          | IDENT x when Sym.Tbl.mem st.enum_consts x ->
              ignore (next st);
              Sym.Tbl.find_opt st.enum_consts x
          | RBRACKET -> None
          | _ ->
              (* skip a constant expression we do not evaluate *)
              skip_until_bracket st;
              None
        in
        expect st RBRACKET;
        suffixes (`Arr n :: acc)
    | LPAREN ->
        ignore (next st);
        let params, varargs = parse_params st hoist in
        expect st RPAREN;
        suffixes (`Fn (params, varargs) :: acc)
    | _ -> List.rev acc
  in
  let sfx = suffixes [] in
  (* the first suffix in source order is outermost: a[2][3] is array 2 of
     array 3 of the base *)
  let apply_suffixes b =
    List.fold_right
      (fun s inner ->
        match s with
        | `Arr n -> TArray (inner, n, no_quals)
        | `Fn (ps, va) -> TFun (inner, ps, va))
      sfx b
  in
  (name, fun base -> wrap_direct (apply_suffixes (apply_ptrs base)))

and skip_until_bracket st =
  let depth = ref 0 in
  let rec go () =
    match peek st with
    | Ctoken.RBRACKET when !depth = 0 -> ()
    | LBRACKET ->
        incr depth;
        ignore (next st);
        go ()
    | RBRACKET ->
        decr depth;
        ignore (next st);
        go ()
    | EOF -> err st "unterminated ["
    | _ ->
        ignore (next st);
        go ()
  in
  go ()

(* '(' just consumed-to-be: decide nested declarator vs parameter list *)
and is_nested_declarator st =
  match peek2 st with
  | Ctoken.STAR | LPAREN -> true
  | IDENT x -> not (is_typedef st x)
  | _ -> false

and parse_params st hoist : (Sym.t * ctype) list * bool =
  let finish acc varargs =
    let params = List.rev acc in
    st.last_params <-
      List.filter_map
        (fun (name, _, sp) -> Option.map (fun sp -> (name, sp)) sp)
        params;
    (List.map (fun (name, t, _) -> (name, t)) params, varargs)
  in
  match peek st with
  | Ctoken.RPAREN -> finish [] false
  | KW_VOID when at2 st RPAREN ->
      ignore (next st);
      finish [] false
  | _ ->
      let rec go acc =
        match peek st with
        | Ctoken.ELLIPSIS ->
            ignore (next st);
            finish acc true
        | _ ->
            let specs = parse_decl_specs st hoist in
            let name, wrap = parse_declarator st hoist in
            let t = wrap specs.base in
            let name, sp =
              match name with
              | Some (n, sp) -> (n, Some sp)
              | None -> (mint st (Printf.sprintf "$p%d" (List.length acc)), None)
            in
            let acc = (name, t, sp) :: acc in
            if at st COMMA then begin
              ignore (next st);
              go acc
            end
            else finish acc false
      in
      go []

and parse_fields st hoist : (Sym.t * ctype) list =
  expect st LBRACE;
  let fields = ref [] in
  while not (at st RBRACE) do
    let specs = parse_decl_specs st hoist in
    (* bitfields and multiple declarators *)
    let rec decls () =
      let name, wrap = parse_declarator st hoist in
      let bitfield =
        match peek st with
        | COLON ->
            (* bitfield width: skip the constant *)
            ignore (next st);
            (match next st with
            | INT_LIT _ -> ()
            | IDENT _ -> ()
            | _ -> err st "bad bitfield width");
            true
        | _ -> false
      in
      (match name with
      | Some (n, _) -> fields := (n, wrap specs.base) :: !fields
      | None ->
          (* only anonymous bitfields may omit the field name *)
          if not bitfield then err st "struct field without a name");
      match peek st with
      | COMMA ->
          ignore (next st);
          decls ()
      | _ -> ()
    in
    decls ();
    expect st SEMI
  done;
  expect st RBRACE;
  List.rev !fields

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and parse_type_name st hoist : ctype =
  let specs = parse_decl_specs st hoist in
  let _, wrap = parse_declarator st hoist in
  wrap specs.base

and parse_expr st hoist : expr =
  let e = parse_assign st hoist in
  match peek st with
  | Ctoken.COMMA ->
      ignore (next st);
      EComma (e, parse_expr st hoist)
  | _ -> e

and parse_assign st hoist : expr =
  let lhs = parse_cond st hoist in
  match peek st with
  | Ctoken.ASSIGN ->
      advance st;
      EAssign (lhs, parse_assign st hoist)
  | t -> (
      match assign_op t with
      | Some op ->
          advance st;
          EAssignOp (op, lhs, parse_assign st hoist)
      | None -> lhs)

and parse_cond st hoist : expr =
  let c = parse_binary st hoist 0 in
  match peek st with
  | Ctoken.QUESTION ->
      ignore (next st);
      let e1 = parse_expr st hoist in
      expect st COLON;
      let e2 = parse_cond st hoist in
      ECond (c, e1, e2)
  | _ -> c

(* binary operators of level [min_level] or tighter, by precedence
   climbing: the same left-associative trees as one grammar rule per
   level, without descending through every level for every operand *)
and parse_binary st hoist min_level : expr =
  binary_rest st hoist min_level (parse_cast_expr st hoist)

and binary_rest st hoist min_level lhs =
  match binop_of_token (peek st) with
  | Some (level, op) when level >= min_level ->
      advance st;
      let rhs = parse_binary st hoist (level + 1) in
      binary_rest st hoist min_level (EBinop (op, lhs, rhs))
  | _ -> lhs

and parse_cast_expr st hoist : expr =
  match peek st with
  | Ctoken.LPAREN when starts_type_at st (st.pos + 1) ->
      ignore (next st);
      let t = parse_type_name st hoist in
      expect st RPAREN;
      (* (T){...} compound literals: treat as cast of init list *)
      if at st LBRACE then ECast (t, parse_init st hoist)
      else ECast (t, parse_cast_expr st hoist)
  | _ -> parse_unary st hoist

and starts_type_at st pos =
  if pos >= st.t_len then false
  else
    match st.t_toks.(pos) with
    | Ctoken.KW_VOID | KW_CHAR | KW_SHORT | KW_INT | KW_LONG | KW_FLOAT
    | KW_DOUBLE | KW_SIGNED | KW_UNSIGNED | KW_CONST | KW_VOLATILE
    | KW_STRUCT | KW_UNION | KW_ENUM | QUALNAME _ ->
        true
    | IDENT x -> is_typedef st x
    | _ -> false

and parse_unary st hoist : expr =
  match peek st with
  | Ctoken.PLUSPLUS ->
      ignore (next st);
      EIncDec (true, true, parse_unary st hoist)
  | MINUSMINUS ->
      ignore (next st);
      EIncDec (true, false, parse_unary st hoist)
  | AMP ->
      ignore (next st);
      EAddr (parse_cast_expr st hoist)
  | STAR ->
      ignore (next st);
      EDeref (parse_cast_expr st hoist)
  | PLUS ->
      ignore (next st);
      parse_cast_expr st hoist
  | MINUS ->
      ignore (next st);
      EUnop (Neg, parse_cast_expr st hoist)
  | BANG ->
      ignore (next st);
      EUnop (Not, parse_cast_expr st hoist)
  | TILDE ->
      ignore (next st);
      EUnop (BitNot, parse_cast_expr st hoist)
  | KW_SIZEOF ->
      ignore (next st);
      if at st LPAREN && starts_type_at st (st.pos + 1) then begin
        ignore (next st);
        let t = parse_type_name st hoist in
        expect st RPAREN;
        ESizeofT t
      end
      else ESizeofE (parse_unary st hoist)
  | _ -> parse_postfix st hoist

and parse_postfix st hoist : expr =
  postfix_rest st hoist (parse_primary st hoist)

and postfix_rest st hoist e =
  match peek st with
  | Ctoken.LBRACKET ->
      advance st;
      let i = parse_expr st hoist in
      expect st RBRACKET;
      postfix_rest st hoist (EIndex (e, i))
  | LPAREN ->
      advance st;
      let args = if at st RPAREN then [] else parse_args st hoist [] in
      expect st RPAREN;
      postfix_rest st hoist (ECall (e, args))
  | DOT ->
      advance st;
      postfix_rest st hoist (EMember (e, ident st))
  | ARROW ->
      advance st;
      postfix_rest st hoist (EArrow (e, ident st))
  | PLUSPLUS ->
      advance st;
      postfix_rest st hoist (EIncDec (false, true, e))
  | MINUSMINUS ->
      advance st;
      postfix_rest st hoist (EIncDec (false, false, e))
  | _ -> e

and parse_args st hoist acc =
  let a = parse_assign st hoist in
  if at st COMMA then begin
    advance st;
    parse_args st hoist (a :: acc)
  end
  else List.rev (a :: acc)

and parse_primary st hoist : expr =
  match peek st with
  | Ctoken.INT_LIT n ->
      advance st;
      EInt n
  | FLOAT_LIT f ->
      advance st;
      EFloat f
  | CHAR_LIT c ->
      advance st;
      EChar c
  | STRING_LIT s ->
      advance st;
      (* adjacent string literals concatenate *)
      let buf = Buffer.create (String.length s) in
      Buffer.add_string buf s;
      let rec more () =
        match peek st with
        | STRING_LIT s2 ->
            ignore (next st);
            Buffer.add_string buf s2;
            more ()
        | _ -> ()
      in
      more ();
      EString (Buffer.contents buf)
  | IDENT x -> (
      advance st;
      match Sym.Tbl.find_opt st.enum_consts x with
      | Some n -> EInt n
      | None -> EVar x)
  | LPAREN ->
      advance st;
      let e = parse_expr st hoist in
      expect st RPAREN;
      e
  | t ->
      let sp = span st in
      advance st;
      raise
        (Parse_error
           (Printf.sprintf "unexpected token `%s'" (Ctoken.to_string t), sp))

and parse_init st hoist : expr =
  match peek st with
  | Ctoken.LBRACE ->
      ignore (next st);
      let items = ref [] in
      let rec go () =
        match peek st with
        | RBRACE -> ignore (next st)
        | _ ->
            (* skip designators: .field = / [i] = *)
            (match peek st with
            | DOT ->
                ignore (next st);
                ignore (ident st);
                expect st ASSIGN
            | LBRACKET ->
                ignore (next st);
                skip_until_bracket st;
                expect st RBRACKET;
                expect st ASSIGN
            | _ -> ());
            items := parse_init st hoist :: !items;
            (match peek st with COMMA -> ignore (next st) | _ -> ());
            go ()
      in
      go ();
      EInitList (List.rev !items)
  | _ -> parse_assign st hoist

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_stmt st hoist : stmt =
  match peek st with
  | Ctoken.SEMI ->
      ignore (next st);
      SNull
  | LBRACE -> SBlock (parse_block st hoist)
  | KW_IF ->
      ignore (next st);
      expect st LPAREN;
      let c = parse_expr st hoist in
      expect st RPAREN;
      let s1 = parse_stmt st hoist in
      let s2 =
        if at st KW_ELSE then begin
          ignore (next st);
          Some (parse_stmt st hoist)
        end
        else None
      in
      SIf (c, s1, s2)
  | KW_WHILE ->
      ignore (next st);
      expect st LPAREN;
      let c = parse_expr st hoist in
      expect st RPAREN;
      SWhile (c, parse_stmt st hoist)
  | KW_DO ->
      ignore (next st);
      let body = parse_stmt st hoist in
      expect st KW_WHILE;
      expect st LPAREN;
      let c = parse_expr st hoist in
      expect st RPAREN;
      expect st SEMI;
      SDoWhile (body, c)
  | KW_FOR ->
      ignore (next st);
      expect st LPAREN;
      let init =
        if at st SEMI then begin
          ignore (next st);
          None
        end
        else if starts_type st then begin
          let ds = parse_local_decl st hoist in
          Some (SDecl ds)
        end
        else begin
          let e = parse_expr st hoist in
          expect st SEMI;
          Some (SExpr e)
        end
      in
      let cond =
        if at st SEMI then None else Some (parse_expr st hoist)
      in
      expect st SEMI;
      let step =
        if at st RPAREN then None else Some (parse_expr st hoist)
      in
      expect st RPAREN;
      SFor (init, cond, step, parse_stmt st hoist)
  | KW_RETURN ->
      ignore (next st);
      if at st SEMI then begin
        ignore (next st);
        SReturn None
      end
      else begin
        let e = parse_expr st hoist in
        expect st SEMI;
        SReturn (Some e)
      end
  | KW_BREAK ->
      ignore (next st);
      expect st SEMI;
      SBreak
  | KW_CONTINUE ->
      ignore (next st);
      expect st SEMI;
      SContinue
  | KW_SWITCH ->
      ignore (next st);
      expect st LPAREN;
      let e = parse_expr st hoist in
      expect st RPAREN;
      SSwitch (e, parse_stmt st hoist)
  | KW_CASE ->
      ignore (next st);
      let e = parse_cond st hoist in
      expect st COLON;
      SCase (e, parse_stmt_or_null st hoist)
  | KW_DEFAULT ->
      ignore (next st);
      expect st COLON;
      SDefault (parse_stmt_or_null st hoist)
  | KW_GOTO ->
      ignore (next st);
      let l = ident st in
      expect st SEMI;
      SGoto (Sym.name l)
  | IDENT x when at2 st COLON && not (is_typedef st x) ->
      ignore (next st);
      ignore (next st);
      SLabel (Sym.name x, parse_stmt_or_null st hoist)
  | _ when starts_type st -> SDecl (parse_local_decl st hoist)
  | _ ->
      let e = parse_expr st hoist in
      expect st SEMI;
      SExpr e

and parse_stmt_or_null st hoist =
  (* a case label may be immediately followed by another label or `}' *)
  match peek st with
  | Ctoken.RBRACE | KW_CASE | KW_DEFAULT -> SNull
  | _ -> parse_stmt st hoist

and parse_block st hoist : stmt list =
  expect st LBRACE;
  let stmts = ref [] in
  while not (at st RBRACE) do
    stmts := parse_stmt st hoist :: !stmts
  done;
  expect st RBRACE;
  List.rev !stmts

and parse_local_decl st hoist : decl list =
  let ln = line st in
  let specs = parse_decl_specs st hoist in
  if at st SEMI then begin
    (* pure struct/enum declaration inside a function *)
    ignore (next st);
    []
  end
  else begin
    let rec go acc =
      let name, wrap = parse_declarator st hoist in
      let t = wrap specs.base in
      let name =
        match name with
        | Some (n, _) -> n
        | None -> err st "declaration without name"
      in
      let init =
        if at st ASSIGN then begin
          ignore (next st);
          Some (parse_init st hoist)
        end
        else None
      in
      if specs.s_typedef then register_typedef st name;
      let acc = { d_name = name; d_type = t; d_init = init; d_line = ln } :: acc in
      match peek st with
      | COMMA ->
          ignore (next st);
          go acc
      | _ ->
          expect st SEMI;
          List.rev acc
    in
    go []
  end

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* Skip a balanced {...} starting at the current LBRACE (used to step over
   a function body that failed to parse). Stops at EOF. *)
let skip_balanced_braces st =
  if at st LBRACE then begin
    ignore (next st);
    let depth = ref 1 in
    while !depth > 0 && not (at st EOF) do
      (match peek st with
      | Ctoken.LBRACE -> incr depth
      | Ctoken.RBRACE -> decr depth
      | _ -> ());
      ignore (next st)
    done
  end

let parse_global st (hoist : global list ref) : global list =
  let ln = line st in
  let specs = parse_decl_specs st hoist in
  if at st SEMI then begin
    (* struct/union/enum definition alone *)
    ignore (next st);
    []
  end
  else begin
    let name, wrap = parse_declarator st hoist in
    let t = wrap specs.base in
    match (name, peek st) with
    | Some (fname, fsp), Ctoken.LBRACE -> (
        (* function definition *)
        match t with
        | TFun (ret, params, varargs) -> (
            (* anchor each parameter at its name token. [last_params]
               holds the most recently completed parameter list, which
               for an exotic declarator (a function returning a function
               pointer) may be an inner one — re-align by name and drop
               to (0,0) on any mismatch, so keys are never mislocated *)
            let param_locs =
              List.map
                (fun (pname, _) ->
                  match List.assq_opt pname st.last_params with
                  | Some (sp : Diag.span) -> (sp.Diag.sl, sp.Diag.sc)
                  | None -> (0, 0))
                params
            in
            let mk body =
              [
                GFun
                  {
                    f_name = fname;
                    f_ret = ret;
                    f_params = params;
                    f_varargs = varargs;
                    f_body = body;
                    f_static = specs.s_static;
                    f_line = ln;
                    f_name_loc = (fsp.Diag.sl, fsp.Diag.sc);
                    f_param_locs = param_locs;
                  };
              ]
            in
            if not st.recover then mk (parse_block st hoist)
            else
              (* fault isolation: a body that fails to parse demotes the
                 function to a prototype (analyzed like a library function,
                 which is conservative) rather than poisoning the file *)
              let brace = st.pos in
              match parse_block st hoist with
              | body -> mk body
              | exception Parse_error (m, sp) ->
                  add_diag st (Diag.error ~code:"E0202" sp m);
                  st.degraded <-
                    (Sym.name fname, Printf.sprintf "body failed to parse: %s" m)
                    :: st.degraded;
                  st.pos <- brace;
                  skip_balanced_braces st;
                  [ GProto (fname, t, ln) ])
        | _ -> err st "function body after non-function declarator")
    | Some (n, _), _ ->
        let rec go acc name t =
          let init =
            if at st ASSIGN then begin
              ignore (next st);
              Some (parse_init st hoist)
            end
            else None
          in
          let g =
            if specs.s_typedef then begin
              register_typedef st name;
              GTypedef (name, t, ln)
            end
            else
              match t with
              | TFun _ -> GProto (name, t, ln)
              | _ -> GVar { d_name = name; d_type = t; d_init = init; d_line = ln }
          in
          let acc = g :: acc in
          match peek st with
          | COMMA ->
              ignore (next st);
              let name2, wrap2 = parse_declarator st hoist in
              let name2 =
                match name2 with
                | Some (n, _) -> n
                | None -> err st "declarator without name"
              in
              go acc name2 (wrap2 specs.base)
          | _ ->
              expect st SEMI;
              List.rev acc
        in
        go [] n t
    | None, _ -> err st "declaration without a name"
  end

(** Parse a complete translation unit. Raises {!Parse_error} or
    {!Clexer.Lex_error} on the first error (the strict entry point; the
    resilient pipeline uses {!parse_program_partial}). *)
let parse_program (src : string) : program =
  let tb, _ = Clexer.tokenize_buf ~strict:true src in
  let st = make_state_tb tb in
  let globals = ref [] in
  while not (at st EOF) do
    let hoist = ref [] in
    let gs = parse_global st hoist in
    (* hoisted struct/enum definitions come first *)
    globals := List.rev_append gs (List.rev_append !hoist !globals)
  done;
  List.rev !globals

let parse_program_result src =
  match parse_program src with
  | p -> Ok p
  | exception Parse_error (m, sp) ->
      Error (Fmt.str "%a: %s" Diag.pp_span sp m)
  | exception Clexer.Lex_error d -> Error (Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* Panic-mode recovery                                                 *)
(* ------------------------------------------------------------------ *)

(* Synchronize after a parse error: skip to the next plausible top-level
   declaration boundary. We consume until a `;' or `}' at brace depth 0
   (an unmatched `}' closes whatever construct the error interrupted) or
   until a token that starts a declaration. Stopping at a type-start token
   without consuming anything is safe: the parser only reaches an error
   with a type-start lookahead after consuming at least one token, so the
   outer loop always makes progress. *)
let sync st =
  let depth = ref 0 in
  let stop = ref false in
  while not !stop do
    match peek st with
    | Ctoken.EOF -> stop := true
    | Ctoken.LBRACE ->
        incr depth;
        ignore (next st)
    | Ctoken.RBRACE ->
        if !depth > 0 then begin
          decr depth;
          ignore (next st)
        end
        else begin
          ignore (next st);
          if at st SEMI then ignore (next st);
          stop := true
        end
    | Ctoken.SEMI when !depth = 0 ->
        ignore (next st);
        if starts_type st || at st EOF then stop := true
    | _ when !depth = 0 && starts_type st -> stop := true
    | _ -> ignore (next st)
  done

type presult = {
  pr_prog : program;  (** every global that parsed *)
  pr_diags : Diag.t list;  (** in source order, lexical errors first *)
  pr_degraded : (string * string) list;
      (** functions demoted to prototypes because their body failed to
          parse, with the reason *)
}

(* The panic-mode top-level loop shared by the whole-program and per-unit
   entry points. [count_base] is how many diagnostics earlier units of
   the same run already consumed: the cap fires when the running total
   reaches [max_errors], but the E0299 note always quotes the caller's
   original budget. Returns [true] when it gave up. *)
let parse_toplevel st ~max_errors ~count_base : program * bool =
  let globals = ref [] in
  let capped = ref false in
  while not (at st EOF) && not !capped do
    let hoist = ref [] in
    (match parse_global st hoist with
    | gs -> globals := List.rev_append gs (List.rev_append !hoist !globals)
    | exception Parse_error (m, sp) ->
        add_diag st (Diag.error ~code:"E0201" sp m);
        (* keep whatever was hoisted before the failure *)
        globals := List.rev_append !hoist !globals;
        sync st);
    if count_base + st.n_diags >= max_errors && not (at st EOF) then begin
      capped := true;
      add_diag st
        (Diag.note ~code:"E0299" (span st)
           (Printf.sprintf
              "too many errors (%d); giving up on the rest of the file"
              max_errors))
    end
  done;
  (List.rev !globals, !capped)

(** Parse with panic-mode error recovery: always returns a (possibly
    partial) program plus the diagnostics encountered, up to
    [max_errors] (default 20; an [E0299] note marks the cutoff). *)
let parse_program_partial ?(max_errors = 20) (src : string) : presult =
  let tb, lex_diags = Clexer.tokenize_buf ~max_errors src in
  let st = make_state_tb ~recover:true tb in
  st.diags <- List.rev lex_diags;
  st.n_diags <- List.length lex_diags;
  let prog, _ = parse_toplevel st ~max_errors ~count_base:0 in
  {
    pr_prog = prog;
    pr_diags = List.rev st.diags;
    pr_degraded = List.rev st.degraded;
  }

(* ------------------------------------------------------------------ *)
(* Per-unit parsing                                                    *)
(* ------------------------------------------------------------------ *)

(** The cross-unit parser environment a unit parse can be seeded with:
    typedef and enum-constant exports of the units linked before it, the
    running anonymous-tag counter, and the number of diagnostics those
    units already consumed from the run's error budget. *)
type useed = {
  us_typedefs : Sym.t list;
  us_enums : (Sym.t * int) list;
  us_anon : int;
  us_count_base : int;
}

let empty_seed =
  { us_typedefs = []; us_enums = []; us_anon = 0; us_count_base = 0 }

type uresult = {
  ur_pr : presult;
  ur_typedefs : Sym.t list;
      (** typedef names this unit registered, in registration order *)
  ur_enums : (Sym.t * int) list;
      (** enum constants this unit registered, in registration order *)
  ur_anon : int;  (** anonymous struct/union/enum tags this unit created *)
  ur_idents : Sym.t list;
      (** distinct identifiers lexed from the unit: the link step's
          evidence that a speculative (unseeded) parse could not have
          been influenced by earlier units' exports *)
  ur_minted : Sym.t list;
      (** distinct names the parser made up (anonymous tags, unnamed
          parameters); with [ur_idents], every symbol the result
          carries *)
  ur_first_span : Diag.span;
      (** span of the unit's first token — where a whole-program parse
          would report "too many errors" if the budget ran out exactly at
          the boundary before this unit *)
  ur_capped : bool;  (** the unit itself emitted E0299 and gave up *)
}

(** Parse one translation unit over an already-lexed token buffer.
    Seeded with {!empty_seed} this is a speculative, order-independent
    parse; the link step re-invokes it with the real environment only
    when the unit's identifiers overlap earlier exports, the unit mints
    anonymous tags after earlier units did, or the diagnostic budget
    spills across the unit boundary (see DESIGN.md "Per-unit frontend"). *)
let parse_unit ?(max_errors = 20) ?(seed = empty_seed) (tb : Tokbuf.t)
    ~(lex_diags : Diag.t list) : uresult =
  let st =
    make_state_tb ~recover:true ~typedefs:seed.us_typedefs
      ~enums:seed.us_enums ~anon:seed.us_anon tb
  in
  st.diags <- List.rev lex_diags;
  st.n_diags <- List.length lex_diags;
  let first_span =
    if tb.Tokbuf.n > 0 then Tokbuf.span tb 0 else Diag.dummy_span
  in
  let prog, capped =
    parse_toplevel st ~max_errors ~count_base:seed.us_count_base
  in
  {
    ur_pr =
      {
        pr_prog = prog;
        pr_diags = List.rev st.diags;
        pr_degraded = List.rev st.degraded;
      };
    ur_typedefs = List.rev st.new_typedefs;
    ur_enums = List.rev st.new_enums;
    ur_anon = st.anon - seed.us_anon;
    ur_idents = tb.Tokbuf.idents;
    ur_minted = List.sort_uniq Sym.compare st.minted;
    ur_first_span = first_span;
    ur_capped = capped;
  }

(** The result with every symbol mapped through [f] (see
    {!Cast.map_program}). *)
let map_uresult (f : Sym.t -> Sym.t) (r : uresult) : uresult =
  {
    r with
    ur_pr = { r.ur_pr with pr_prog = Cast.map_program f r.ur_pr.pr_prog };
    ur_typedefs = List.map f r.ur_typedefs;
    ur_enums = List.map (fun (n, v) -> (f n, v)) r.ur_enums;
    ur_idents = List.map f r.ur_idents;
    ur_minted = List.map f r.ur_minted;
  }
