(** Const inference for C (Section 4): flow-insensitive constraint
    generation over mini-C programs.

    Every C construct the paper discusses is handled:
    - variables are refs; r-positions auto-dereference (Section 4.1);
    - assignment requires the target ref below [¬const] (rule (Assign'));
    - struct fields share one set of qualifier variables per declaration,
      while the top-level qualifiers of distinct struct variables stay
      independent (Section 4.2);
    - typedefs are macro-expanded, sharing nothing (Section 4.2);
    - undefined (library) functions are conservative: pointer arguments
      whose parameter is not declared const are forced non-const; their
      results are fresh per call (Section 4.2);
    - explicit casts lose the association between value and type; implicit
      conversions retain what they can (Section 4.2);
    - variadic calls and arity mismatches ignore extra arguments
      (Section 4.2);
    - polymorphic inference generalizes per strongly connected component of
      the FDG, traversed callees-first; global variables stay monomorphic
      (Section 4.3). *)

module Solver = Typequal.Solver
module Budget = Typequal.Budget
module Elt = Typequal.Lattice.Elt
module Space = Typequal.Lattice.Space
module Q = Typequal.Qualifier
open Cfront
open Qtypes

type mode =
  | Mono
  | Poly
  | Polyrec
      (** polymorphic recursion (Section 4.3's "we would prefer to use
          polymorphic recursion": decidable and efficient because the
          qualifier lattice is finite and qualifiers do not change the
          type structure); implemented as Mycroft-style iteration of the
          per-SCC generalization to a fixed point of the interface
          summaries *)

(** The qualifier space used by const inference. *)
let const_space = Space.create [ Q.const ]

(** Per-qualifier rule set for the C analysis — the C-side analogue of the
    example language's hooks. The engine (flows, ℓ translation, struct
    sharing, FDG polymorphism) is qualifier-agnostic; these three callbacks
    give a space its semantics. *)
type qrules = {
  qr_space : Space.t;
  qr_name : string;  (** the qualifier whose verdicts {!Report} counts *)
  qr_write : Solver.t -> Solver.var -> unit;
      (** called with the qualifier of every assigned ref (the paper's
          (Assign') choice point) *)
  qr_escape : Solver.t -> declared:Cast.quals option -> Solver.var -> unit;
      (** called with the qualifier of each pointer level of a value
          escaping to unknown code (library/variadic/undeclared calls),
          together with the declared qualifiers of the corresponding
          parameter level if a prototype provides them *)
  qr_seed : Solver.t -> Qtypes.cell -> Cast.quals -> unit;
      (** interpretation of source-level qualifiers on a declaration *)
}

(** Section 4's const rules, generalized over the ambient space (which
    must contain ["const"]): assignment targets below ¬const; escaping
    pointer levels not declared const are forced non-const; declared
    qualifiers in the space seed lower bounds. Running the same rules in a
    wider space (extra coordinates, possibly multi-level) must not change
    the const verdicts — the bench's lattice section checks exactly that. *)
let const_rules_in sp : qrules =
  let not_const = Elt.not_name sp "const" in
  {
    qr_space = sp;
    qr_name = "const";
    qr_write =
      (fun store q ->
        Solver.add_leq_vc ~reason:"assignment target must be non-const (Assign')"
          store q not_const);
    qr_escape =
      (fun store ~declared q ->
        let exempt =
          match declared with Some qs -> Cast.is_const qs | None -> false
        in
        if not exempt then
          Solver.add_leq_vc
            ~reason:"escapes to unknown code not declared const" store q
            not_const);
    qr_seed =
      (fun store c quals ->
        seed_declared store c quals ~reason:"declared qualifier");
  }

let const_rules : qrules = const_rules_in const_space

let taint_space = Space.create [ Q.tainted ]

(** CQual-style taint rules over the Section 2.5 [$]-qualifier syntax:
    [$tainted] on a declaration level seeds taint (sources), [$untainted]
    pins the level below ¬tainted (trusted sinks). Writes are unrestricted;
    escaping to unknown code neither taints nor untaints (library
    behaviour is described by its prototype annotations). *)
let taint_rules : qrules =
  let sp = taint_space in
  let not_tainted = Elt.not_name sp "tainted" in
  let tainted = Elt.of_names_up sp [ "tainted" ] in
  {
    qr_space = sp;
    qr_name = "tainted";
    qr_write = (fun _ _ -> ());
    qr_escape =
      (fun store ~declared q ->
        match declared with
        | Some qs when Cast.has_qual "untainted" qs ->
            Solver.add_leq_vc ~reason:"trusted sink ($untainted)" store q
              not_tainted
        | _ -> ());
    qr_seed =
      (fun store c quals ->
        if Cast.has_qual "tainted" quals then
          Solver.add_leq_cv ~reason:"declared $tainted (source)" store tainted
            c.Qtypes.q;
        if Cast.has_qual "untainted" quals then
          Solver.add_leq_vc ~reason:"declared $untainted (sink)" store
            c.Qtypes.q not_tainted);
  }

(** Generic rules for a user-defined lattice (the [--lattice FILE] path):
    CQual's declaration semantics. A declared classic qualifier seeds a
    lower bound (presence), as in {!const_rules}. A declared {e level} of
    an ordered coordinate pins the coordinate to exactly that level — the
    declaration states the variable's constant value, so [$tainted] data
    cannot flow into a [$untainted] cell and vice versa only downward.
    Escapes to unknown code are bounded by the declared level of the
    prototype parameter when one exists (the CQual trusted-sink pattern:
    [$untainted] pins escapes at bottom); writes are unrestricted.
    [qual] names the coordinate {!Report} measures. *)
let lattice_rules sp ~qual : qrules =
  if not (Space.mem sp qual) then
    invalid_arg ("Analysis.lattice_rules: qualifier " ^ qual ^ " not in space");
  let pin_level store v i l ~reason =
    let mask = Elt.singleton_mask sp i in
    Solver.add_leq_cv ~mask ~reason store
      (Elt.with_level sp i l (Elt.bottom sp))
      v;
    Solver.add_leq_vc ~mask ~reason store v (Elt.with_level sp i l (Elt.top sp))
  in
  {
    qr_space = sp;
    qr_name = qual;
    qr_write = (fun _ _ -> ());
    qr_escape =
      (fun store ~declared q ->
        match declared with
        | Some qs ->
            List.iter
              (fun qn ->
                match Space.resolve sp qn with
                | Some (`Level (i, l)) ->
                    Solver.add_leq_vc
                      ~mask:(Elt.singleton_mask sp i)
                      ~reason:("escapes to code declared " ^ qn)
                      store q
                      (Elt.with_level sp i l (Elt.top sp))
                | Some (`Qual _) | None -> ())
              qs
        | None -> ());
    qr_seed =
      (fun store c quals ->
        (* classic qualifiers: presence as a lower bound *)
        seed_declared store c
          (List.filter
             (fun qn ->
               match Space.resolve sp qn with Some (`Qual _) -> true | _ -> false)
             quals)
          ~reason:"declared qualifier";
        (* levels: the declaration is the coordinate's constant value *)
        List.iter
          (fun qn ->
            match Space.resolve sp qn with
            | Some (`Level (i, l)) ->
                pin_level store c.Qtypes.q i l ~reason:("declared " ^ qn)
            | Some (`Qual _) | None -> ())
          quals);
  }

type fentry =
  | FMono of fsig  (** constraints link directly to these cells *)
  | FPoly of Solver.scheme * fsig  (** instantiated per occurrence *)

(** Per-function analysis outcome. A degraded function contributed no (or
    only partial) constraints; its callers see it as a library function,
    which is conservative, and {!Report} excludes its positions. *)
type outcome = Analyzed | Degraded of string

(** May instances of a scheme be shared between call sites of the same
    callee? Decided once per (scheme, callee), from the shape of the
    registered interface and the scheme's own atoms. *)
type memo_verdict =
  | MFlat
      (** the whole signature is flat (flat return, flat pointed-to
          contents on every parameter): linking {e any} call against it
          emits no atoms, and the scheme's atoms can never violate on
          their own — the registered interface serves every call site
          with no instantiation at all *)
  | MSession
      (** flat return only: one instance may serve all call sites with
          identical argument shapes and variables within one recording
          session (the PR 4 memo) *)
  | MNonflatRet  (** rejected: using the result emits structural atoms *)
  | MMayViolate
      (** rejected: a dropped instance copy could drop a bound violation *)

(** Phase breakdown of the deleted parallel analysis engine. No run
    produces one any more; the type remains only because the perfbench
    tool ([perfbench/tool/pbtool.ml]) still reads its fields. *)
type par_stats = {
  ps_jobs : int;
  ps_tasks : int;
  ps_gen_s : float;
  ps_merge_s : float;
}

(** A struct's shared field cells, slot by slot in declaration order. *)
type fields = { fnames : Sym.t array; fcells : cell array }

type env = {
  store : Solver.t;
  prog : Cprog.t;
  mode : mode;
  fields : fields Sym.Tbl.t;  (** struct/union tag -> its field cells *)
  funs : fentry Sym.Tbl.t;
  globals : cell Sym.Tbl.t;  (** declared global variables *)
  autos : cell Sym.Tbl.t;
      (** auto-declared globals: identifiers used without a declaration *)
  rules : qrules;
  mutable warnings : string list;
  late_mono : (int, unit) Hashtbl.t;
      (** variables that join the monomorphic environment after the global
          watermark (auto-declared identifiers); never generalized *)
  field_sharing : bool;
      (** Section 4.2 field sharing; [false] only for the ablation study:
          every struct access then gets fresh field cells *)
  outcomes : outcome Sym.Tbl.t;  (** per defined function *)
  budget : Budget.t option;
      (** resource guard; exhaustion degrades remaining functions *)
  par : par_stats option;
      (** always [None]; remains only for the perfbench tool, which
          reads it *)
  compact : bool;
      (** scheme compaction at generalization and instantiation
          memoization (default on); [false] restores the uncompacted
          behaviour — reports are identical either way, only the
          constraint-system size differs *)
  shapes : Shape.table;  (** hash-consed r-type skeletons, per store *)
  imemo : (int * int * (int * int list) list, fsig) Hashtbl.t;
      (** instantiation memo: (scheme id, callee, per-argument
          (shape id, qualifier-variable uids)) -> the shared instance.
          Valid only within one recording session — every session
          boundary resets it, so a memo hit always names an instance
          whose atoms were captured into the current recording. *)
  memo_ok : (int * int, memo_verdict) Hashtbl.t;
      (** cached sharing eligibility per (scheme id, callee); see
          {!memo_verdict} *)
  fdg : Fdg.t Lazy.t;
      (** the program's function dependence graph: forced by the
          polymorphic analyses to schedule SCCs, and reused afterwards for
          the run's FDG statistics, so one run builds it at most once. *)
  release : bool;
      (** drop each function's body once its SCC is done (see {!run}) *)
}

let warn env msg = env.warnings <- msg :: env.warnings

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                     *)
(* ------------------------------------------------------------------ *)

let degrade env name reason = Sym.Tbl.replace env.outcomes name (Degraded reason)

let mark_analyzed env name =
  if not (Sym.Tbl.mem env.outcomes name) then
    Sym.Tbl.replace env.outcomes name Analyzed

let budget_reason env =
  match env.budget with Some b -> Budget.exhausted b | None -> None

let reason_of_exn = function
  | Cprog.Frontend_error m -> m
  | Failure m -> "analysis failure: " ^ m
  | Stack_overflow -> "analysis failure: stack overflow"
  | e -> "analysis failure: " ^ Printexc.to_string e

(* Run [k] under fault isolation for function [name]: exceptions and
   budget exhaustion degrade the function instead of aborting the run.
   Out-of-memory and interrupts are never swallowed. *)
let guarded env name (k : unit -> 'a) : 'a option =
  match budget_reason env with
  | Some r ->
      degrade env name ("budget exhausted: " ^ r);
      None
  | None -> (
      match k () with
      | x ->
          mark_analyzed env name;
          Some x
      | exception ((Out_of_memory | Sys.Break) as e) -> raise e
      | exception e ->
          degrade env name (reason_of_exn e);
          None)

(* declaration-qualifier seeding, per the active rule set *)
let seed env = env.rules.qr_seed env.store

(* ------------------------------------------------------------------ *)
(* Shared struct field tables (Section 4.2)                            *)
(* ------------------------------------------------------------------ *)

let fields_of env ~name tag =
  let fs = Cprog.fields env.prog tag in
  {
    fnames = Array.of_list (List.map fst fs);
    fcells =
      Array.of_list
        (List.map
           (fun (f, ft) -> cell_of_ctype ~name:(name f) ~seed:(seed env) env.store ft)
           fs);
  }

let no_fields = { fnames = [||]; fcells = [||] }

let field_cells env tag : fields =
  match Sym.Tbl.find_opt env.fields tag with
  | Some fs when env.field_sharing -> fs
  | Some _ ->
      (* ablation: fresh cells per access site, no sharing *)
      fields_of env ~name:Sym.name tag
  | None ->
      (* install a placeholder first so recursive structs terminate *)
      Sym.Tbl.replace env.fields tag no_fields;
      let fs =
        fields_of env
          ~name:(fun f -> Sym.name tag ^ "." ^ Sym.name f)
          tag
      in
      Sym.Tbl.replace env.fields tag fs;
      fs

let rec slot_of fs fname i =
  if i = Array.length fs.fnames then None
  else if Sym.equal fs.fnames.(i) fname then Some fs.fcells.(i)
  else slot_of fs fname (i + 1)

(* the cell in the first slot named [fname] *)
let find_field env tag fname = slot_of (field_cells env tag) fname 0

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

type scope = {
  mutable locals : (Sym.t * cell) list;
      (** innermost first; symbols are immediate, so [assq] compares ids *)
  ret : rt;  (** current function's return r-type *)
}

(* a declared variable: a local, else a declared global *)
let declared_var env scope x : cell option =
  match List.assq_opt x scope.locals with
  | Some c -> Some c
  | None -> Sym.Tbl.find_opt env.globals x

let lookup_var env scope x : cell option =
  match declared_var env scope x with
  | Some c -> Some c
  | None -> Sym.Tbl.find_opt env.autos x

(* Undeclared identifiers (K&R implicit, or benchmarks referencing symbols
   from headers we do not have): auto-declare as an int global so repeated
   uses alias. *)
let auto_global env x =
  match Sym.Tbl.find_opt env.autos x with
  | Some c -> c
  | None ->
      let c = fresh_cell ~name:("auto_" ^ Sym.name x) env.store RBase in
      Sym.Tbl.replace env.autos x c;
      Hashtbl.replace env.late_mono (Solver.var_id c.q) ();
      c

(* ------------------------------------------------------------------ *)
(* Function interfaces                                                 *)
(* ------------------------------------------------------------------ *)

let iface_of_fundef env (f : Cast.fundef) : fsig =
  {
    fs_params =
      List.map
        (fun (n, pt) ->
          cell_of_param ~seed:(seed env) env.store n
            (Cprog.expand env.prog pt))
        f.f_params;
    fs_ret =
      rt_of_ctype ~seed:(seed env) env.store
        (Cprog.expand env.prog (Cprog.decay f.f_ret));
    fs_varargs = f.f_varargs;
  }

(* A fresh signature for an undefined (library) function, from its
   prototype. Fresh per call site: library results never alias. *)
let lib_sig env name : fsig option =
  match Cprog.find_proto env.prog name with
  | Some (TFun _ as ft) -> (
      match rt_of_ctype ~seed:(seed env) env.store (Cprog.expand env.prog ft) with
      | RFun s -> Some s
      | _ -> None)
  | _ -> None

(** Apply the escape rule to every pointer level of [r]: the conservative
    treatment of values reaching unknown code (Section 4.2). When [decl]
    is the declared parameter type, each level's declared qualifiers are
    passed to the rule (e.g. const-declared levels are exempt from
    non-const forcing). *)
let rec force_escape env ?(decl : Cast.ctype option) (r : rt) =
  match r with
  | RBase | RVoid | RStruct _ -> ()
  | RFun _ -> ()
  | RPtr c ->
      let target_decl =
        match decl with
        | Some (TPtr (t, _)) | Some (TArray (t, _, _)) -> Some t
        | _ -> None
      in
      let declared = Option.map Cast.quals_of target_decl in
      env.rules.qr_escape env.store ~declared c.q;
      force_escape env ?decl:target_decl c.contents

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* the (Assign') choice point: rules restrict the assigned ref *)
let assign_to env (c : cell) = env.rules.qr_write env.store c.q

(* instantiate a defined function for one occurrence *)
let fun_occurrence env name : fsig option =
  match Sym.Tbl.find_opt env.funs name with
  | Some (FMono s) -> Some s
  | Some (FPoly (sch, s)) ->
      let rn = Solver.instantiate env.store sch in
      Some (copy_fsig rn s)
  | None -> None

(* Classify one (scheme, callee) pair for instance sharing; see
   {!memo_verdict}. Requirements, from weakest to strongest:
   (a) a flat return type, so using the result emits no structural
   constraints; (b) atoms that can never produce a bound violation on
   their own, so dropping a would-be second copy cannot drop an error;
   (c) flat pointed-to contents on every parameter, so the [sub
   r p.contents] in {!call} emits nothing for any argument. (a)+(b) give
   session sharing over identical-argument call sites; (a)+(b)+(c) give
   MFlat — no call site can ever reach an instance variable, so the
   registered interface itself serves every occurrence. The
   pessimistically-pinned set for (b) is exactly the instance variables a
   call site flows into: each parameter's pointed-to contents and the
   result (empty under (c)). A parameter's own top-level qualifier
   receives no call-site inflow, so it keeps its scheme-internal bounds —
   pinning it too would reject every function that increments a pointer
   parameter. Cached per (scheme, callee). *)
let memo_verdict env sch (s : fsig) (name : Sym.t) =
  let key = (Solver.scheme_id sch, (name :> int)) in
  match Hashtbl.find_opt env.memo_ok key with
  | Some v -> v
  | None ->
      let v =
        if not (Shape.flat (Shape.of_rt env.shapes s.fs_ret)) then MNonflatRet
        else begin
          let flat_params =
            List.for_all
              (fun (p : cell) ->
                Shape.flat (Shape.of_rt env.shapes p.contents))
              s.fs_params
          in
          let inflow =
            if flat_params then []
            else
              rt_qvars s.fs_ret
              @ List.concat_map
                  (fun (p : cell) -> rt_qvars p.contents)
                  s.fs_params
          in
          if
            Solver.atoms_never_violate
              (Solver.space env.store)
              ~locals:(Solver.scheme_locals sch)
              ~exposed:inflow
              (Solver.scheme_atoms sch)
          then if flat_params then MFlat else MSession
          else MMayViolate
        end
      in
      Hashtbl.replace env.memo_ok key v;
      v

(* Instantiate a defined function for one CALL occurrence. Two calls of an
   eligible polymorphic callee whose arguments have identical skeletons
   and qualifier variables emit literally identical argument-flow atoms
   against either instance, and the flat result is consumed without
   constraints — so the second call re-uses the first call's instance
   instead of re-emitting the scheme. Observationally invisible:
   solutions of named program variables and the violation set are
   unchanged (the skipped copy's atoms never violate, and its fresh
   variables are unobservable). *)
let fun_call_occurrence env (name : Sym.t) (arg_rts : rt list) : fsig option =
  match Sym.Tbl.find_opt env.funs name with
  | Some (FMono s) -> Some s
  | Some (FPoly (sch, s)) ->
      let instantiate () =
        let rn = Solver.instantiate env.store sch in
        copy_fsig rn s
      in
      if env.compact then begin
        Solver.note_memo_candidate env.store;
        match memo_verdict env sch s name with
        | MFlat ->
            (* no call can reach an instance variable and the scheme's
               atoms never violate: the registered interface IS the
               summary, shared across sessions, SCCs, and rounds *)
            Solver.note_memo_hit env.store;
            Some s
        | MSession -> (
            let arg_key =
              List.map
                (fun r ->
                  ( Shape.id (Shape.of_rt env.shapes r),
                    List.map Solver.var_uid (rt_qvars r) ))
                arg_rts
            in
            let key = (Solver.scheme_id sch, (name :> int), arg_key) in
            match Hashtbl.find_opt env.imemo key with
            | Some inst ->
                Solver.note_memo_hit env.store;
                Some inst
            | None ->
                Solver.note_memo_miss env.store;
                let inst = instantiate () in
                Hashtbl.replace env.imemo key inst;
                Some inst)
        | MNonflatRet ->
            Solver.note_memo_reject_nonflat_ret env.store;
            Some (instantiate ())
        | MMayViolate ->
            Solver.note_memo_reject_may_violate env.store;
            Some (instantiate ())
      end
      else Some (instantiate ())
  | None -> None

let rec lvalue env scope (e : Cast.expr) : cell =
  match e with
  | EVar x -> (
      match lookup_var env scope x with
      | Some c -> c
      | None -> (
          match fun_occurrence env x with
          | Some s -> fresh_cell env.store (RFun s)
          | None -> (
              match lib_sig env x with
              | Some s -> fresh_cell env.store (RFun s)
              | None -> auto_global env x)))
  | EDeref e -> (
      match rvalue env scope e with
      | RPtr c -> c
      | RFun s -> fresh_cell env.store (RFun s) (* *f on a function *)
      | _ -> fresh_cell env.store RBase (* cast/void*: information lost *))
  | EIndex (e, i) -> (
      ignore (rvalue env scope i);
      match rvalue env scope e with
      | RPtr c -> c
      | _ -> fresh_cell env.store RBase)
  | EMember (e, fname) ->
      let parent = lvalue env scope e in
      member_cell env parent fname
  | EArrow (e, fname) -> (
      match rvalue env scope e with
      | RPtr parent -> member_cell env parent fname
      | _ -> fresh_cell env.store RBase)
  | ECast (t, e) ->
      ignore (rvalue env scope e);
      cell_of_ctype ~seed:(seed env) env.store (Cprog.expand env.prog t)
  | EComma (a, b) ->
      ignore (rvalue env scope a);
      lvalue env scope b
  | _ ->
      (* not an l-value in our subset; lose information *)
      ignore (rvalue env scope e);
      fresh_cell env.store RBase

(* Field access through a parent cell: the field's qualifier variables are
   shared per struct declaration; the l-value seen here is a guard cell
   whose qualifier joins the parent's and the field's, so an assignment
   (an upper bound ¬const) forces BOTH non-const while reads share the
   field's contents (Section 4.2). *)
and member_cell env (parent : cell) fname : cell =
  match parent.contents with
  | RStruct tag -> (
      match find_field env tag fname with
      | Some fc ->
          let g =
            fresh_cell ~name:("access_" ^ Sym.name fname) env.store fc.contents
          in
          Solver.add_leq_vv ~reason:"field qualifier" env.store fc.q g.q;
          Solver.add_leq_vv ~reason:"enclosing struct qualifier" env.store
            parent.q g.q;
          g
      | None -> fresh_cell env.store RBase)
  | _ -> fresh_cell env.store RBase

and rvalue env scope (e : Cast.expr) : rt =
  match e with
  | EInt _ | EFloat _ | EChar _ | ESizeofT _ -> RBase
  | ESizeofE e ->
      ignore (rvalue env scope e);
      RBase
  | EString _ ->
      (* a C89 string literal has type char[]; its cell is fresh *)
      RPtr (fresh_cell ~name:"strlit" env.store RBase)
  | EVar x -> (
      (* function designators are values, not refs *)
      match lookup_var env scope x with
      | Some c -> c.contents
      | None -> (
          match fun_occurrence env x with
          | Some s -> RFun s
          | None -> (
              match lib_sig env x with
              | Some s -> RFun s
              | None -> (auto_global env x).contents)))
  | EUnop (_, e) ->
      ignore (rvalue env scope e);
      RBase
  | EBinop (op, a, b) -> (
      let ra = rvalue env scope a in
      let rb = rvalue env scope b in
      match (op, ra, rb) with
      (* pointer arithmetic preserves the pointer *)
      | (Add | Sub), (RPtr _ as p), _ -> p
      | (Add | Sub), _, (RPtr _ as p) -> p
      | _ -> RBase)
  | EAssign (lhs, rhs) ->
      let c = lvalue env scope lhs in
      assign_to env c;
      let rr = rvalue env scope rhs in
      sub ~reason:"assignment flow" env.store rr c.contents;
      c.contents
  | EAssignOp (_, lhs, rhs) ->
      let c = lvalue env scope lhs in
      assign_to env c;
      ignore (rvalue env scope rhs);
      c.contents
  | EIncDec (_, _, lhs) ->
      let c = lvalue env scope lhs in
      assign_to env c;
      c.contents
  | ECond (g, a, b) -> (
      ignore (rvalue env scope g);
      let ra = rvalue env scope a in
      let rb = rvalue env scope b in
      match (ra, rb) with
      | RPtr c1, RPtr c2 ->
          let r = fresh_cell ~name:"cond" env.store c1.contents in
          Solver.add_leq_vv ~reason:"?: left" env.store c1.q r.q;
          Solver.add_leq_vv ~reason:"?: right" env.store c2.q r.q;
          eq_contents ~reason:"?: contents" env.store c1.contents c2.contents;
          RPtr r
      | (RPtr _ as p), _ | _, (RPtr _ as p) -> p (* e.g. p ? p : 0 *)
      | ra, _ -> ra)
  | EComma (a, b) ->
      ignore (rvalue env scope a);
      rvalue env scope b
  | EAddr e -> RPtr (lvalue env scope e)
  | EDeref _ | EIndex _ | EMember _ | EArrow _ ->
      (lvalue env scope e).contents
  | ECast (t, e) ->
      (* explicit cast: evaluate for effects, then sever the association *)
      ignore (rvalue env scope e);
      rt_of_ctype ~seed:(seed env) env.store (Cprog.expand env.prog t)
  | EInitList es ->
      List.iter (fun e -> ignore (rvalue env scope e)) es;
      RBase
  | ECall (callee, args) -> call env scope callee args

and call env scope callee args : rt =
  let arg_rts = List.map (fun a -> rvalue env scope a) args in
  let link_sig (s : fsig) =
    let rec link ps rs =
      match (ps, rs) with
      | _, [] -> ()
      | [], _ -> () (* extra arguments are ignored (Section 4.2) *)
      | (p : cell) :: ps, r :: rs ->
          sub ~reason:"argument flow" env.store r p.contents;
          link ps rs
    in
    link s.fs_params arg_rts;
    (* variadic extras and arity mismatches are ignored (Section 4.2:
       "we simply ignore extra arguments") *)
    s.fs_ret
  in
  (* a name in scope is a function pointer, unless it is a function
     designator: a prototype written inside a body names the external
     function, so the call resolves as a direct call *)
  let direct fname =
    match declared_var env scope fname with
    | None | Some { contents = RFun _; _ } -> true
    | Some _ -> false
  in
  match callee with
  | EVar fname when direct fname -> (
      match fun_call_occurrence env fname arg_rts with
      | Some s -> link_sig s
      | None -> (
          match lib_sig env fname with
          | Some s ->
              (* library call: parameters not declared const are treated as
                 non-const (Section 4.2) *)
              let decls =
                match Cprog.find_proto env.prog fname with
                | Some (TFun (_, ps, _)) ->
                    List.map (fun (_, t) -> Cprog.decay (Cprog.expand env.prog t)) ps
                | _ -> []
              in
              let rec force rs ds i =
                match rs with
                | [] -> ()
                | r :: rs ->
                    (match List.nth_opt ds i with
                    | Some d -> force_escape env ~decl:d r
                    | None ->
                        (* extra (variadic) arguments are ignored,
                           Section 4.2 *)
                        ());
                    force rs ds (i + 1)
              in
              force arg_rts decls 0;
              s.fs_ret
          | None ->
              (* no prototype at all: every pointer argument is conservative *)
              warn env ("call to undeclared function " ^ Sym.name fname);
              List.iter (fun r -> force_escape env r) arg_rts;
              RBase))
  | _ -> (
      (* call through an expression or a declared pointer variable (a
         local or global shadows any function of the same name): a
         function pointer *)
      match rvalue env scope callee with
      | RFun s -> link_sig s
      | RPtr { contents = RFun s; _ } -> link_sig s
      | _ ->
          List.iter (fun r -> force_escape env r) arg_rts;
          RBase)

(* ------------------------------------------------------------------ *)
(* Initializers and statements                                         *)
(* ------------------------------------------------------------------ *)

let rec init_into env scope (c : cell) (e : Cast.expr) =
  match (e, c.contents) with
  | EInitList items, RStruct tag ->
      let fs = field_cells env tag in
      List.iteri
        (fun i item ->
          if i < Array.length fs.fcells then init_into env scope fs.fcells.(i) item
          else ignore (rvalue env scope item))
        items
  | EInitList items, RPtr elem ->
      (* array initializer: every item flows into the element cell *)
      List.iter (fun item -> init_into env scope elem item) items
  | EInitList items, _ ->
      List.iter (fun item -> ignore (rvalue env scope item)) items
  | e, _ ->
      let r = rvalue env scope e in
      sub ~reason:"initializer flow" env.store r c.contents

let declare_local env scope (d : Cast.decl) =
  let ty = Cprog.expand env.prog d.d_type in
  let c = cell_of_ctype ~name:(Sym.name d.d_name) ~seed:(seed env) env.store ty in
  scope.locals <- (d.d_name, c) :: scope.locals;
  match d.d_init with Some e -> init_into env scope c e | None -> ()

let rec stmt env scope (s : Cast.stmt) =
  match s with
  | SExpr e -> ignore (rvalue env scope e)
  | SDecl ds -> List.iter (declare_local env scope) ds
  | SBlock ss ->
      (* block scoping: restore locals on exit *)
      let saved = scope.locals in
      List.iter (stmt env scope) ss;
      scope.locals <- saved
  | SIf (g, s1, s2) ->
      ignore (rvalue env scope g);
      stmt env scope s1;
      Option.iter (stmt env scope) s2
  | SWhile (g, b) ->
      ignore (rvalue env scope g);
      stmt env scope b
  | SDoWhile (b, g) ->
      stmt env scope b;
      ignore (rvalue env scope g)
  | SFor (init, cond, step, body) ->
      let saved = scope.locals in
      Option.iter (stmt env scope) init;
      Option.iter (fun e -> ignore (rvalue env scope e)) cond;
      Option.iter (fun e -> ignore (rvalue env scope e)) step;
      stmt env scope body;
      scope.locals <- saved
  | SReturn (Some e) ->
      let r = rvalue env scope e in
      sub ~reason:"return flow" env.store r scope.ret
  | SReturn None | SBreak | SContinue | SGoto _ | SNull -> ()
  | SSwitch (g, b) ->
      ignore (rvalue env scope g);
      stmt env scope b
  | SCase (g, b) ->
      ignore (rvalue env scope g);
      stmt env scope b
  | SDefault b | SLabel (_, b) -> stmt env scope b

let analyze_body env (f : Cast.fundef) (iface : fsig) =
  let scope =
    {
      locals = List.map2 (fun (n, _) c -> (n, c)) f.f_params iface.fs_params;
      ret = iface.fs_ret;
    }
  in
  List.iter (stmt env scope) f.f_body

(* ------------------------------------------------------------------ *)
(* Whole-program drivers                                               *)
(* ------------------------------------------------------------------ *)

let make_env ?(rules = const_rules) ?(field_sharing = true) ?(compact = true)
    ?budget ?(release = false) mode (prog : Cprog.t) : env =
  let store = Solver.create rules.qr_space in
  Solver.set_budget store budget;
  {
    store;
    prog;
    mode;
    fields = Sym.Tbl.create ();
    funs = Sym.Tbl.create ();
    globals = Sym.Tbl.create ();
    autos = Sym.Tbl.create ();
    rules;
    warnings = [];
    late_mono = Hashtbl.create 16;
    field_sharing;
    outcomes = Sym.Tbl.create ();
    budget;
    par = None;
    compact;
    shapes = Shape.create_table ();
    imemo = Hashtbl.create 64;
    memo_ok = Hashtbl.create 16;
    fdg = lazy (Fdg.build prog);
    release;
  }

(* A releasing run empties each body the analysis will never read again.
   The fundef record is the one the program tables, the link order and the
   unit parses share, so the body becomes garbage everywhere at once. *)
let release_bodies env (fs : Cast.fundef list) =
  if env.release then List.iter (fun (f : Cast.fundef) -> f.f_body <- []) fs

(* Credit a wall-clock window to one of the per-phase stats columns,
   minus whatever the solver already credited to the nested phases
   (instantiate/compact run inside the congen window), so the columns
   stay disjoint and sum to roughly the analysis wall time. *)
let timed_phase env ph f =
  let st = env.store in
  let i0 = Solver.phase_seconds st Solver.Instantiate
  and c0 = Solver.phase_seconds st Solver.Compact in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let nested =
    Solver.phase_seconds st Solver.Instantiate
    -. i0
    +. (Solver.phase_seconds st Solver.Compact -. c0)
  in
  Solver.note_phase st ph (Float.max 0. (dt -. nested));
  r

(* Global variables and struct tables are part of the monomorphic
   environment: build them eagerly so scheme generalization can exclude
   their variables by creation time. *)
let build_global_env env =
  List.iter
    (fun (d : Cast.decl) ->
      let name = Sym.name d.d_name in
      try
        let ty = Cprog.expand env.prog d.d_type in
        Sym.Tbl.replace env.globals d.d_name
          (cell_of_ctype ~name ~seed:(seed env) env.store ty)
      with Cprog.Frontend_error m ->
        (* e.g. the typedef's definition was lost to a parse error: the
           global keeps a fresh unconstrained cell so uses still alias *)
        warn env
          (Printf.sprintf "global %s: %s; treated as unconstrained" name m);
        Sym.Tbl.replace env.globals d.d_name
          (fresh_cell ~name env.store RBase))
    (Cprog.global_vars env.prog);
  (* struct tags in first-definition order *)
  List.iter
    (fun tag ->
      try ignore (field_cells env tag)
      with Cprog.Frontend_error m ->
        warn env
          (Printf.sprintf "struct %s: %s; fields treated as unconstrained"
             (Sym.name tag) m))
    env.prog.Cprog.comp_tags

let analyze_global_inits env =
  (* initializer calls instantiate outside any recording: a fresh memo
     session (instances memoized during the last SCC are not shareable
     here — their atoms belong to that SCC's scheme, not the store) *)
  Hashtbl.reset env.imemo;
  let scope = { locals = []; ret = RBase } in
  timed_phase env Solver.Congen (fun () ->
      List.iter
        (fun (d : Cast.decl) ->
          match d.d_init with
          | Some e -> (
              match Sym.Tbl.find_opt env.globals d.d_name with
              | Some c -> (
                  try init_into env scope c e
                  with Cprog.Frontend_error m ->
                    warn env
                      (Printf.sprintf "initializer of %s: %s; ignored"
                         (Sym.name d.d_name) m))
              | None -> ())
          | None -> ())
        (Cprog.global_vars env.prog))

(** Monomorphic const inference (the "Mono" column of Table 2). *)
let run_mono ?rules ?field_sharing ?compact ?budget ?release (prog : Cprog.t) :
    env * (Sym.t * fsig) list =
  let env = make_env ?rules ?field_sharing ?compact ?budget ?release Mono prog in
  build_global_env env;
  let funs = Cprog.functions prog in
  (* pass 1: interfaces, so calls in any order link directly; a function
     whose interface cannot be built is degraded and left out of env.funs,
     so its callers fall back to the conservative library treatment *)
  let ifaces =
    timed_phase env Solver.Congen (fun () ->
        List.filter_map
          (fun (f : Cast.fundef) ->
            match guarded env f.f_name (fun () -> iface_of_fundef env f) with
            | Some s ->
                Sym.Tbl.replace env.funs f.f_name (FMono s);
                Some (f.f_name, s)
            | None -> None)
          funs)
  in
  (* the run's FDG statistics read the bodies: build it before they go *)
  if env.release then ignore (Lazy.force env.fdg : Fdg.t);
  (* pass 2: bodies *)
  timed_phase env Solver.Congen (fun () ->
      List.iter
        (fun (f : Cast.fundef) ->
          (match Sym.Tbl.find_opt env.funs f.f_name with
          | Some (FMono s) ->
              ignore (guarded env f.f_name (fun () -> analyze_body env f s))
          | _ -> ());
          release_bodies env [ f ])
        funs);
  analyze_global_inits env;
  (env, ifaces)

(* Generalize an SCC's captured constraints: every variable mentioned
   that is not part of the monomorphic global environment becomes a scheme
   local (Section 4.3). [is_global] decides membership in the monomorphic
   environment. *)
let generalize_scc ~is_global atoms
    (scc_ifaces : (Cast.fundef * fsig) list) : Solver.scheme =
  let seen = Hashtbl.create 64 in
  let locals = ref [] in
  let consider v =
    let id = Solver.var_id v in
    if (not (is_global v)) && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      locals := v :: !locals
    end
  in
  List.iter
    (function
      | Solver.Avc (v, _, _, _) | Solver.Acv (_, v, _, _) -> consider v
      | Solver.Avv (a, b, _, _) ->
          consider a;
          consider b)
    atoms;
  List.iter (fun (_, s) -> List.iter consider (rt_qvars (RFun s))) scc_ifaces;
  Solver.make_scheme ~locals:!locals ~atoms

(* A deterministic bounds summary of an interface, used as the
   convergence criterion for polymorphic recursion: the (lo, hi) vector is
   structural, so two rounds can be compared even though their variables
   differ. [bounds] maps a variable id to its (lo, hi) pair, typically
   {!Solver.solve_atoms} over the scheme's own atoms — no global solve. *)
let summarize_iface bounds (s : fsig) : (Elt.t * Elt.t) list =
  let acc = ref [] in
  let seen = Hashtbl.create 16 in
  let rec go_rt = function
    | RBase | RVoid | RStruct _ -> ()
    | RPtr c -> go_cell c
    | RFun f ->
        List.iter go_cell f.fs_params;
        go_rt f.fs_ret
  and go_cell c =
    if not (Hashtbl.mem seen (Solver.var_id c.q)) then begin
      Hashtbl.add seen (Solver.var_id c.q) ();
      acc := bounds (Solver.var_id c.q) :: !acc;
      go_rt c.contents
    end
  in
  go_rt (RFun s);
  List.rev !acc

(* A multi-member SCC generalizes into one scheme carrying every
   member's constraints and every member's interface — but a call to
   one member must not pay for the whole component. The scale corpora's
   cross-file recursion rings tie SCC size to project size, so
   instantiating the shared scheme at each ring call site made total
   instantiation cost quadratic in project size (measured: ~20k ring
   calls x ~120 locals each = 80% of all variables created on the
   megacorpus). At registration, re-compact the shared scheme down to
   the member's own interface-reachable core: exact by compaction's
   contract (identical interface solutions and bound violations),
   deterministic (compaction never iterates a hash table), and excluded
   from the scheme-size counters ([~count:false]) so those keep describing
   the primary generalizations. Singleton SCCs keep their scheme as is:
   it was already compacted against exactly this interface. *)
let member_scheme env sch (s : fsig) : Solver.scheme =
  if env.compact then
    Solver.compact ~count:false env.store ~interface:(rt_qvars (RFun s)) sch
  else sch

let register_member_schemes env sch (scc_ifaces : (Cast.fundef * fsig) list) =
  let multi = match scc_ifaces with _ :: _ :: _ -> true | _ -> false in
  List.iter
    (fun ((f : Cast.fundef), s) ->
      let sch_m = if multi then member_scheme env sch s else sch in
      Sym.Tbl.replace env.funs f.f_name (FPoly (sch_m, s)))
    scc_ifaces

(* Process one SCC (Poly): interfaces first so mutual recursion links
   directly, then bodies; capture the atoms, generalize, optionally
   simplify, and register the scheme for the members. Raises on analysis
   failure — fault isolation is the caller's job. *)
let poly_scc env ~is_global ~simplify members : (Cast.fundef * fsig) list =
  (* one memo session per recording: hits must name instances captured
     into THIS scheme *)
  Hashtbl.reset env.imemo;
  let scc_ifaces, atoms =
    timed_phase env Solver.Congen (fun () ->
        Solver.recording env.store (fun () ->
            let is =
              List.map
                (fun (f : Cast.fundef) ->
                  let s = iface_of_fundef env f in
                  Sym.Tbl.replace env.funs f.f_name (FMono s);
                  (f, s))
                members
            in
            List.iter (fun (f, s) -> analyze_body env f s) is;
            is))
  in
  let sch =
    timed_phase env Solver.Generalize (fun () ->
        generalize_scc ~is_global atoms scc_ifaces)
  in
  let interface =
    List.concat_map (fun (_, s) -> rt_qvars (RFun s)) scc_ifaces
  in
  let sch =
    if simplify then Solver.simplify_scheme env.store ~interface sch else sch
  in
  let sch =
    if env.compact then Solver.compact env.store ~interface sch else sch
  in
  register_member_schemes env sch scc_ifaces;
  scc_ifaces

(* The callee-first walk over the FDG's SCCs shared by the polymorphic
   modes (Section 4.3): [process] analyzes one SCC, registers its
   members' schemes and returns their interfaces. Fault isolation is per
   SCC: members are generalized together, so a failure in any of them
   invalidates the whole component's scheme, and callers of a degraded
   member fall back to the conservative library treatment. *)
let run_sccs ?rules ?field_sharing ?compact ?budget ?release mode
    ~(process :
       env ->
       is_global:(Solver.var -> bool) ->
       Sym.t list ->
       Cast.fundef list ->
       (Cast.fundef * fsig) list) (prog : Cprog.t) :
    env * (Sym.t * fsig) list =
  let env = make_env ?rules ?field_sharing ?compact ?budget ?release mode prog in
  build_global_env env;
  let fdg = Lazy.force env.fdg in
  (* a definition shadowed by a later one of the same name is never
     analyzed (last definition wins) *)
  if env.release then
    release_bodies env
      (List.filter
         (fun (f : Cast.fundef) ->
           match Cprog.find_fun prog f.f_name with
           | Some g -> g != f
           | None -> true)
         (Cprog.functions prog));
  (* variables created so far (globals, struct fields) are monomorphic,
     and so are the auto globals that arrive later *)
  let global_watermark = Solver.num_vars env.store in
  let is_global v =
    Solver.var_id v < global_watermark
    || Hashtbl.mem env.late_mono (Solver.var_id v)
  in
  let ifaces = ref [] in
  let degrade_scc members reason =
    List.iter
      (fun (f : Cast.fundef) ->
        degrade env f.f_name reason;
        Sym.Tbl.remove env.funs f.f_name)
      members
  in
  List.iter
    (fun scc ->
      let members =
        List.filter_map (fun name -> Cprog.find_fun prog name) scc
      in
      (match budget_reason env with
      | Some r -> degrade_scc members ("budget exhausted: " ^ r)
      | None -> (
          match process env ~is_global scc members with
          | exception ((Out_of_memory | Sys.Break) as e) -> raise e
          | exception e -> degrade_scc members (reason_of_exn e)
          | scc_ifaces ->
              List.iter
                (fun ((f : Cast.fundef), s) ->
                  mark_analyzed env f.f_name;
                  ifaces := (f.f_name, s) :: !ifaces)
                scc_ifaces));
      (* the SCC's scheme is registered: its bodies are never read again *)
      release_bodies env members)
    fdg.Fdg.sccs;
  analyze_global_inits env;
  (env, List.rev !ifaces)

(** Polymorphic const inference (Section 4.3, the "Poly" column): SCCs of
    the FDG processed callees-first; each SCC's constraints are captured
    and generalized into one scheme shared by its members. *)
let run_poly ?rules ?field_sharing ?(simplify = false) ?compact ?budget
    ?release (prog : Cprog.t) : env * (Sym.t * fsig) list =
  run_sccs ?rules ?field_sharing ?compact ?budget ?release Poly prog
    ~process:(fun env ~is_global _ members ->
      poly_scc env ~is_global ~simplify members)

(* Process one SCC (Polyrec): Mycroft iteration to a fixed point of the
   interface summaries, entirely within [env]'s store (each round's
   constraints stay in the store). Returns the final interfaces; raises
   on analysis failure. *)
let polyrec_scc env ~is_global prog scc members : (Cast.fundef * fsig) list =
  let max_rounds = 6 in
  let is_recursive =
    match scc with
    | [ f ] -> (
        (* the FDG filters self-edges; detect direct recursion from the
           body's own mentions *)
        match Cprog.find_fun prog f with
        | Some fd -> List.mem f (Fdg.mentions fd)
        | None -> false)
    | _ -> true
  in
  let process_round () =
    (* memo sessions never span rounds: a later round's scheme must
       capture its own copies of every instance *)
    Hashtbl.reset env.imemo;
    timed_phase env Solver.Congen (fun () ->
        Solver.recording env.store (fun () ->
            let is =
              List.map
                (fun (f : Cast.fundef) -> (f, iface_of_fundef env f))
                members
            in
            List.iter (fun (f, s) -> analyze_body env f s) is;
            is))
  in
  let finish scc_ifaces atoms =
    let sch =
      timed_phase env Solver.Generalize (fun () ->
          generalize_scc ~is_global atoms scc_ifaces)
    in
    let interface =
      List.concat_map (fun (_, s) -> rt_qvars (RFun s)) scc_ifaces
    in
    (* both reduce the scheme to its interface-reachable core and are
       exact on interface solutions; compact additionally dedupes and
       collapses cycles, so when it is on running both would be wasted
       work (measured: they reach the same size) *)
    let sch =
      if env.compact then Solver.compact env.store ~interface sch
      else Solver.simplify_scheme env.store ~interface sch
    in
    register_member_schemes env sch scc_ifaces;
    sch
  in
  if not is_recursive then begin
    (* non-recursive: identical to plain per-SCC polymorphism, but members
       must be callable monomorphically while their own bodies are
       analyzed *)
    Hashtbl.reset env.imemo;
    let scc_ifaces, atoms =
      timed_phase env Solver.Congen (fun () ->
          Solver.recording env.store (fun () ->
              let is =
                List.map
                  (fun (f : Cast.fundef) ->
                    let s = iface_of_fundef env f in
                    Sym.Tbl.replace env.funs f.f_name (FMono s);
                    (f, s))
                  members
              in
              List.iter (fun (f, s) -> analyze_body env f s) is;
              is))
    in
    ignore (finish scc_ifaces atoms : Solver.scheme);
    scc_ifaces
  end
  else begin
    (* round 0: most general summaries — unconstrained skeletons *)
    List.iter
      (fun (f : Cast.fundef) ->
        let sk = iface_of_fundef env f in
        let sch0 = Solver.make_scheme ~locals:(rt_qvars (RFun sk)) ~atoms:[] in
        Sym.Tbl.replace env.funs f.f_name (FPoly (sch0, sk)))
      members;
    let rec iterate prev_summaries round =
      (* bodies analyzed against the PREVIOUS round's schemes: in-SCC
         calls instantiate polymorphically *)
      let scc_ifaces, atoms = process_round () in
      let sch = finish scc_ifaces atoms in
      let bounds =
        Solver.solve_atoms (Solver.space env.store) (Solver.scheme_atoms sch)
      in
      let summaries =
        List.map (fun (_, s) -> summarize_iface bounds s) scc_ifaces
      in
      if summaries = prev_summaries || round >= max_rounds then scc_ifaces
      else iterate summaries (round + 1)
    in
    iterate [] 1
  end

(** Polymorphic recursion: like {!run_poly}, but recursive calls within
    an SCC are themselves polymorphic. Each SCC is re-analyzed with the
    previous iteration's schemes used for in-SCC calls — starting from the
    most general (unconstrained) summaries — until the interface verdicts
    reach a fixed point. Termination: the summaries form a finite domain
    and the iteration is capped (the cap is never reached in practice;
    the fixed point typically arrives by the second round). *)
let run_polyrec ?rules ?field_sharing ?compact ?budget ?release
    (prog : Cprog.t) : env * (Sym.t * fsig) list =
  run_sccs ?rules ?field_sharing ?compact ?budget ?release Polyrec prog
    ~process:(fun env ~is_global scc members ->
      polyrec_scc env ~is_global prog scc members)

(** Run an analysis. [release] (default [false]) empties every defined
    function's body once the run no longer needs it: after its SCC's
    scheme is registered (poly/polyrec), after its body pass (mono, which
    builds the FDG first). The program keeps every declaration, so the
    report is unchanged, but a released program cannot be analyzed again:
    only one-shot batch runs pass it. [jobs] is accepted and ignored: the
    analysis is serial. It remains only because the perfbench tool still
    passes it. *)
let run ?rules ?field_sharing ?simplify ?compact ?budget ?release
    ?jobs:(_ : int option) mode prog =
  match mode with
  | Mono -> run_mono ?rules ?field_sharing ?compact ?budget ?release prog
  | Poly ->
      run_poly ?rules ?field_sharing ?simplify ?compact ?budget ?release prog
  | Polyrec -> run_polyrec ?rules ?field_sharing ?compact ?budget ?release prog

(** Solver statistics accumulated by the analysis (see {!Solver.stats}). *)
let stats (env : env) = Solver.stats env.store
