(** Abstract syntax of the mini-C language (the subject language of the
    paper's Section 4). Every C construct the paper's const-inference
    discussion mentions is present: pointers with per-level qualifiers,
    structs with shared field declarations, typedefs (macro-expanded),
    casts, variadic functions, library prototypes, globals.

    Qualifiers on types are kept as the literal list of source qualifier
    names ([const], plus [$name] user qualifiers per Section 2.5);
    [volatile] and storage classes are parsed and dropped, as they are
    irrelevant to qualifier inference.

    Every name — variables, fields, functions, parameters, struct tags,
    typedefs — is an interned {!Sym.t}; literals and labels stay
    strings. *)

type quals = string list
(** qualifier names, sorted, no duplicates; [const] is the one Section 4
    analyzes *)

let no_quals : quals = []
let has_qual q (qs : quals) = List.mem q qs
let add_qual q (qs : quals) = if List.mem q qs then qs else List.sort compare (q :: qs)
let merge_quals (a : quals) (b : quals) = List.sort_uniq compare (a @ b)
let is_const qs = has_qual "const" qs

(** C types. Integer kinds are collapsed to {!TInt} with a width tag kept
    only for printing; the qualifier analysis does not distinguish them
    (the paper's translation handles "pointer and integer types"). *)
type ctype =
  | TVoid of quals
  | TInt of ikind * quals
  | TFloat of fkind * quals
  | TPtr of ctype * quals  (** quals qualify the pointer value itself *)
  | TArray of ctype * int option * quals
  | TStruct of Sym.t * quals  (** reference to a struct/union tag *)
  | TNamed of Sym.t * quals  (** typedef name, expanded before analysis *)
  | TFun of ctype * (Sym.t * ctype) list * bool  (** return, params, varargs *)

and ikind = IChar | IShort | IInt | ILong | IUChar | IUShort | IUInt | IULong
and fkind = FFloat | FDouble

type unop = Neg | Not | BitNot

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | BAnd | BOr | BXor
  | Lt | Gt | Le | Ge | Eq | Ne
  | LAnd | LOr

type expr =
  | EInt of int
  | EFloat of float
  | EChar of char
  | EString of string
  | EVar of Sym.t
  | EUnop of unop * expr
  | EBinop of binop * expr * expr
  | EAssign of expr * expr
  | EAssignOp of binop * expr * expr  (** [e1 op= e2] *)
  | EIncDec of bool * bool * expr  (** pre?, inc?, lvalue *)
  | ECond of expr * expr * expr
  | EComma of expr * expr
  | ECall of expr * expr list
  | EIndex of expr * expr
  | EMember of expr * Sym.t  (** [e.f] *)
  | EArrow of expr * Sym.t  (** [e->f] *)
  | ECast of ctype * expr
  | ESizeofT of ctype
  | ESizeofE of expr
  | EAddr of expr  (** [&e] *)
  | EDeref of expr  (** [*e] *)
  | EInitList of expr list  (** brace initializer *)

type decl = {
  d_name : Sym.t;
  d_type : ctype;
  d_init : expr option;
  d_line : int;
}

type stmt =
  | SExpr of expr
  | SDecl of decl list
  | SBlock of stmt list
  | SIf of expr * stmt * stmt option
  | SWhile of expr * stmt
  | SDoWhile of stmt * expr
  | SFor of stmt option * expr option * expr option * stmt
      (** init is a decl or expression statement *)
  | SReturn of expr option
  | SBreak
  | SContinue
  | SSwitch of expr * stmt
  | SCase of expr * stmt
  | SDefault of stmt
  | SLabel of string * stmt
  | SGoto of string
  | SNull

type fundef = {
  f_name : Sym.t;
  f_ret : ctype;
  f_params : (Sym.t * ctype) list;
  f_varargs : bool;
  mutable f_body : stmt list;
      (** emptied by a releasing batch analysis once the function's SCC
          is done, so the body can be collected (see [Analysis.run]) *)
  f_static : bool;
  f_line : int;
  f_name_loc : int * int;
      (** (line, column) of the defining occurrence of [f_name]; column 0
          when only line precision is available (cf. {!Diag.span}) *)
  f_param_locs : (int * int) list;
      (** (line, column) of each parameter's name, aligned with
          [f_params]; (0, 0) for unnamed or unlocatable parameters.
          These anchor the report's stable position keys
          ([file:line:col]), so a position survives marshaling without
          its solver-variable back-pointer. *)
}

type global =
  | GVar of decl
  | GFun of fundef
  | GProto of Sym.t * ctype * int  (** name, TFun type, line *)
  | GTypedef of Sym.t * ctype * int
  | GComp of Sym.t * bool * (Sym.t * ctype) list * int
      (** tag, is_union, fields, line — struct/union definition *)
  | GEnum of Sym.t * (Sym.t * int) list * int

type program = global list

(* ------------------------------------------------------------------ *)
(* Type utilities                                                      *)
(* ------------------------------------------------------------------ *)

let quals_of = function
  | TVoid q | TInt (_, q) | TFloat (_, q) | TPtr (_, q) | TArray (_, _, q)
  | TStruct (_, q) | TNamed (_, q) ->
      q
  | TFun _ -> no_quals

let set_quals q = function
  | TVoid _ -> TVoid q
  | TInt (k, _) -> TInt (k, q)
  | TFloat (k, _) -> TFloat (k, q)
  | TPtr (t, _) -> TPtr (t, q)
  | TArray (t, n, _) -> TArray (t, n, q)
  | TStruct (s, _) -> TStruct (s, q)
  | TNamed (s, _) -> TNamed (s, q)
  | TFun _ as t -> t

let add_quals extra t = set_quals (merge_quals extra (quals_of t)) t

let is_pointer = function
  | TPtr _ | TArray _ -> true
  | TNamed _ -> false (* callers expand typedefs first *)
  | TFun _ | TVoid _ | TInt _ | TFloat _ | TStruct _ -> false

let pointer_target = function
  | TPtr (t, _) -> Some t
  | TArray (t, _, _) -> Some t
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_quals ppf (qs : quals) =
  List.iter
    (fun q ->
      if String.length q > 0 && q.[0] <> '$' && q <> "const" then
        Fmt.pf ppf "$%s " q
      else Fmt.pf ppf "%s " q)
    qs

let ikind_name = function
  | IChar -> "char"
  | IShort -> "short"
  | IInt -> "int"
  | ILong -> "long"
  | IUChar -> "unsigned char"
  | IUShort -> "unsigned short"
  | IUInt -> "unsigned int"
  | IULong -> "unsigned long"

let rec pp_ctype ppf = function
  | TVoid q -> Fmt.pf ppf "%avoid" pp_quals q
  | TInt (k, q) -> Fmt.pf ppf "%a%s" pp_quals q (ikind_name k)
  | TFloat (FFloat, q) -> Fmt.pf ppf "%afloat" pp_quals q
  | TFloat (FDouble, q) -> Fmt.pf ppf "%adouble" pp_quals q
  | TPtr (t, q) -> Fmt.pf ppf "%a*%a" pp_ctype t pp_quals q
  | TArray (t, Some n, q) -> Fmt.pf ppf "%a%a[%d]" pp_quals q pp_ctype t n
  | TArray (t, None, q) -> Fmt.pf ppf "%a%a[]" pp_quals q pp_ctype t
  | TStruct (s, q) -> Fmt.pf ppf "%astruct %s" pp_quals q (Sym.name s)
  | TNamed (s, q) -> Fmt.pf ppf "%a%s" pp_quals q (Sym.name s)
  | TFun (r, ps, va) ->
      Fmt.pf ppf "%a(%a%s)" pp_ctype r
        Fmt.(list ~sep:comma (fun ppf (_, t) -> pp_ctype ppf t))
        ps
        (if va then ", ..." else "")

let ctype_to_string t = Fmt.str "%a" pp_ctype t

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* The folds below recurse over lists and options directly rather than
   through List.fold_left / Option.fold, so a walk allocates no closure
   per node: the FDG folds them over every function body. *)

(** Fold over every expression in a statement (pre-order). *)
let rec fold_stmt_exprs f acc = function
  | SExpr e -> f acc e
  | SDecl ds -> fold_decl_inits f acc ds
  | SBlock ss -> fold_stmts_exprs f acc ss
  | SIf (e, s1, s2) ->
      let acc = fold_stmt_exprs f (f acc e) s1 in
      (match s2 with Some s -> fold_stmt_exprs f acc s | None -> acc)
  | SWhile (e, s) -> fold_stmt_exprs f (f acc e) s
  | SDoWhile (s, e) -> f (fold_stmt_exprs f acc s) e
  | SFor (init, cond, step, body) ->
      let acc = match init with Some s -> fold_stmt_exprs f acc s | None -> acc in
      let acc = match cond with Some e -> f acc e | None -> acc in
      let acc = match step with Some e -> f acc e | None -> acc in
      fold_stmt_exprs f acc body
  | SReturn (Some e) -> f acc e
  | SReturn None | SBreak | SContinue | SGoto _ | SNull -> acc
  | SSwitch (e, s) -> fold_stmt_exprs f (f acc e) s
  | SCase (e, s) -> fold_stmt_exprs f (f acc e) s
  | SDefault s | SLabel (_, s) -> fold_stmt_exprs f acc s

(** {!fold_stmt_exprs} over a statement list, in order. *)
and fold_stmts_exprs f acc = function
  | [] -> acc
  | s :: ss -> fold_stmts_exprs f (fold_stmt_exprs f acc s) ss

and fold_decl_inits f acc = function
  | [] -> acc
  | { d_init = Some e; _ } :: ds -> fold_decl_inits f (f acc e) ds
  | { d_init = None; _ } :: ds -> fold_decl_inits f acc ds

(** Fold [f] over every identifier occurrence in an expression, left to
    right (for the FDG). *)
let rec fold_expr_vars f acc = function
  | EInt _ | EFloat _ | EChar _ | EString _ | ESizeofT _ -> acc
  | EVar x -> f acc x
  | EUnop (_, e) | ECast (_, e) | ESizeofE e | EAddr e | EDeref e
  | EIncDec (_, _, e) ->
      fold_expr_vars f acc e
  | EBinop (_, a, b) | EAssign (a, b) | EAssignOp (_, a, b) | EComma (a, b)
  | EIndex (a, b) ->
      fold_expr_vars f (fold_expr_vars f acc a) b
  | ECond (a, b, c) ->
      fold_expr_vars f (fold_expr_vars f (fold_expr_vars f acc a) b) c
  | ECall (g, args) -> fold_exprs_vars f (fold_expr_vars f acc g) args
  | EMember (e, _) | EArrow (e, _) -> fold_expr_vars f acc e
  | EInitList es -> fold_exprs_vars f acc es

and fold_exprs_vars f acc = function
  | [] -> acc
  | e :: es -> fold_exprs_vars f (fold_expr_vars f acc e) es

(** All identifiers referenced in an expression. *)
let expr_idents acc e = fold_expr_vars (fun acc x -> x :: acc) acc e

(* ------------------------------------------------------------------ *)
(* Renaming                                                            *)
(* ------------------------------------------------------------------ *)

(** The program with every symbol mapped through [f]: how an AST
    persisted under another process's symbol ids is rebased onto this
    process's (see DESIGN.md "Symbols"). *)
let map_program (f : Sym.t -> Sym.t) (p : program) : program =
  let rec ty = function
    | (TVoid _ | TInt _ | TFloat _) as t -> t
    | TPtr (t, q) -> TPtr (ty t, q)
    | TArray (t, n, q) -> TArray (ty t, n, q)
    | TStruct (s, q) -> TStruct (f s, q)
    | TNamed (s, q) -> TNamed (f s, q)
    | TFun (r, ps, va) -> TFun (ty r, params ps, va)
  and params ps = List.map (fun (n, t) -> (f n, ty t)) ps in
  let rec expr = function
    | (EInt _ | EFloat _ | EChar _ | EString _) as e -> e
    | EVar x -> EVar (f x)
    | EUnop (o, e) -> EUnop (o, expr e)
    | EBinop (o, a, b) -> EBinop (o, expr a, expr b)
    | EAssign (a, b) -> EAssign (expr a, expr b)
    | EAssignOp (o, a, b) -> EAssignOp (o, expr a, expr b)
    | EIncDec (pre, inc, e) -> EIncDec (pre, inc, expr e)
    | ECond (a, b, c) -> ECond (expr a, expr b, expr c)
    | EComma (a, b) -> EComma (expr a, expr b)
    | ECall (g, args) -> ECall (expr g, List.map expr args)
    | EIndex (a, b) -> EIndex (expr a, expr b)
    | EMember (e, x) -> EMember (expr e, f x)
    | EArrow (e, x) -> EArrow (expr e, f x)
    | ECast (t, e) -> ECast (ty t, expr e)
    | ESizeofT t -> ESizeofT (ty t)
    | ESizeofE e -> ESizeofE (expr e)
    | EAddr e -> EAddr (expr e)
    | EDeref e -> EDeref (expr e)
    | EInitList es -> EInitList (List.map expr es)
  in
  let decl d =
    {
      d with
      d_name = f d.d_name;
      d_type = ty d.d_type;
      d_init = Option.map expr d.d_init;
    }
  in
  let rec stmt = function
    | SExpr e -> SExpr (expr e)
    | SDecl ds -> SDecl (List.map decl ds)
    | SBlock ss -> SBlock (List.map stmt ss)
    | SIf (e, a, b) -> SIf (expr e, stmt a, Option.map stmt b)
    | SWhile (e, s) -> SWhile (expr e, stmt s)
    | SDoWhile (s, e) -> SDoWhile (stmt s, expr e)
    | SFor (i, c, step, b) ->
        SFor (Option.map stmt i, Option.map expr c, Option.map expr step, stmt b)
    | SReturn e -> SReturn (Option.map expr e)
    | (SBreak | SContinue | SGoto _ | SNull) as s -> s
    | SSwitch (e, s) -> SSwitch (expr e, stmt s)
    | SCase (e, s) -> SCase (expr e, stmt s)
    | SDefault s -> SDefault (stmt s)
    | SLabel (l, s) -> SLabel (l, stmt s)
  in
  List.map
    (function
      | GVar d -> GVar (decl d)
      | GFun fd ->
          GFun
            {
              fd with
              f_name = f fd.f_name;
              f_ret = ty fd.f_ret;
              f_params = params fd.f_params;
              f_body = List.map stmt fd.f_body;
            }
      | GProto (n, t, l) -> GProto (f n, ty t, l)
      | GTypedef (n, t, l) -> GTypedef (f n, ty t, l)
      | GComp (tag, u, fs, l) -> GComp (f tag, u, params fs, l)
      | GEnum (tag, items, l) ->
          GEnum (f tag, List.map (fun (n, v) -> (f n, v)) items, l))
    p
