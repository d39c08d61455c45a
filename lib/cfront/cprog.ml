(** Whole-program tables over a parsed translation unit: typedef expansion
    (typedefs are macro-expanded, so distinct uses share no qualifiers —
    Section 4.2), struct/union field tables (shared per declaration —
    Section 4.2), and the function/global inventories the const inference
    and the FDG construction consume. *)

open Cast

type t = {
  typedefs : ctype Sym.Tbl.t;
  comps : (Sym.t * ctype) list Sym.Tbl.t;  (* struct/union tag -> fields *)
  comp_tags : Sym.t list;  (* tags of [comps], first definition first *)
  fundefs : fundef Sym.Tbl.t;
  protos : ctype Sym.Tbl.t;  (* declared but possibly undefined *)
  globals : decl Sym.Tbl.t;
  order : global list;  (* original order *)
}

exception Frontend_error of string

(** Link unit programs into one whole-program table: one write pass over
    the units' globals in unit order. Typedefs, struct/union layouts,
    function definitions and global variables resolve
    last-definition-wins, while prototypes keep the first declaration. *)
let merge (units : program list) : t =
  let typedefs = Sym.Tbl.create ()
  and comps = Sym.Tbl.create ()
  and fundefs = Sym.Tbl.create ()
  and protos = Sym.Tbl.create ()
  and globals = Sym.Tbl.create () in
  let comp_tags = ref [] in
  List.iter
    (List.iter (function
      | GTypedef (name, ty, _) -> Sym.Tbl.replace typedefs name ty
      | GComp (tag, _, fields, _) ->
          if not (Sym.Tbl.mem comps tag) then comp_tags := tag :: !comp_tags;
          Sym.Tbl.replace comps tag fields
      | GFun f -> Sym.Tbl.replace fundefs f.f_name f
      | GProto (name, ty, _) ->
          if not (Sym.Tbl.mem protos name) then Sym.Tbl.replace protos name ty
      | GVar d -> Sym.Tbl.replace globals d.d_name d
      | GEnum _ -> ()))
    units;
  {
    typedefs;
    comps;
    comp_tags = List.rev !comp_tags;
    fundefs;
    protos;
    globals;
    order = (match units with [ u ] -> u | _ -> List.concat units);
  }

(** The tables of one translation unit. *)
let build (prog : program) : t = merge [ prog ]

(** Expand typedefs away (macro-expansion semantics, Section 4.2): the
    qualifiers written on the use site are merged with the definition's.
    Function types expand their parameter and return types. *)
let rec expand t (ty : ctype) : ctype =
  match ty with
  | TNamed (name, q) -> (
      match Sym.Tbl.find_opt t.typedefs name with
      | Some def -> expand t (add_quals q def)
      | None -> raise (Frontend_error ("unknown typedef " ^ Sym.name name)))
  | TPtr (inner, q) -> TPtr (expand t inner, q)
  | TArray (inner, n, q) -> TArray (expand t inner, n, q)
  | TFun (ret, params, va) ->
      TFun
        ( expand t ret,
          List.map (fun (n, pt) -> (n, expand t pt)) params,
          va )
  | TVoid _ | TInt _ | TFloat _ | TStruct _ -> ty

(** Array-of-T in parameter position decays to pointer-to-T. *)
let decay = function
  | TArray (inner, _, q) -> TPtr (inner, q)
  | ty -> ty

(** Parameters of a function type, typedefs expanded, arrays decayed. *)
let param_types t = function
  | TFun (_, params, _) ->
      List.map (fun (n, pt) -> (n, decay (expand t pt))) params
  | _ -> raise (Frontend_error "param_types: not a function type")

let return_type t = function
  | TFun (ret, _, _) -> expand t ret
  | _ -> raise (Frontend_error "return_type: not a function type")

let fields t tag =
  match Sym.Tbl.find_opt t.comps tag with
  | Some fs -> List.map (fun (n, ft) -> (n, expand t ft)) fs
  | None -> []

let find_fun t name = Sym.Tbl.find_opt t.fundefs name
let is_defined t name = Sym.Tbl.mem t.fundefs name

(** Declared (prototype) type of a function not defined in this program:
    the paper's "library function" case (Section 4.2). *)
let find_proto t name = Sym.Tbl.find_opt t.protos name

let functions t =
  List.filter_map (function GFun f -> Some f | _ -> None) t.order

let global_vars t =
  List.filter_map (function GVar d -> Some d | _ -> None) t.order

(** Count physical source lines (for Table 1-style reporting). *)
let count_lines src =
  let n = ref 1 in
  for i = 0 to String.length src - 1 do
    if String.unsafe_get src i = '\n' then incr n
  done;
  !n
