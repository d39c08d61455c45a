(** Flat token buffer: the product of the scanner ({!Clexer}).

    A [(Ctoken.t * Diag.span) list] costs a cons cell, a tuple and a
    span record per token, ~14 words each, which dominates frontend
    allocation on million-line corpora. A [Tokbuf.t] instead holds one
    pointer array of tokens (identifiers interned, so each distinct name
    owns a single boxed [IDENT]) and one flat [int array] of packed span
    endpoints; span records are rebuilt lazily, only on the paths that
    report them.

    The intern table doubles as the unit's identifier set: the link step
    of the per-unit frontend asks {!mentions} to decide whether a
    speculatively parsed unit could have been influenced by typedef or
    enum-constant names exported by earlier units (see DESIGN.md
    "Per-unit frontend"). *)

type t = {
  toks : Ctoken.t array;  (** [n] tokens; the last is always [EOF] *)
  spans : int array;
      (** 2 ints per token: the packed start ([sl], [sc]) and end ([el],
          [ec]) positions, see {!pack} *)
  n : int;
  interns : (string, Ctoken.t) Hashtbl.t;
      (** name -> its unique token: keywords map to their [KW_*], every
          identifier seen in this unit maps to its shared [IDENT] *)
}

(* One position per int: the line above [col_bits], the column below.
   Both saturate at [field_max], so spans are exact for any source under
   2 GiB. *)
let col_bits = 31
let field_max = (1 lsl col_bits) - 1

let[@inline] clamp (x : int) = if x > field_max then field_max else x
let[@inline] pack line col = (clamp line lsl col_bits) lor clamp col

let length t = t.n

let tok t i = t.toks.(i)

let span_of (spans : int array) i : Diag.span =
  let s = spans.(2 * i) and e = spans.((2 * i) + 1) in
  {
    Diag.sl = s lsr col_bits;
    sc = s land field_max;
    el = e lsr col_bits;
    ec = e land field_max;
  }

let line_of (spans : int array) i = spans.(2 * i) lsr col_bits

let span t i = span_of t.spans i

let line t i = line_of t.spans i

(** Did this unit's source mention [name] as an identifier? Keywords map
    to keyword tokens, so they never answer [true]. *)
let mentions t name =
  match Hashtbl.find_opt t.interns name with
  | Some (Ctoken.IDENT _) -> true
  | _ -> false

(** Distinct identifier names lexed from the unit, in no particular
    order — the persistent form of {!mentions} carried by the per-unit
    AST cache payload (the intern table itself is not marshaled). *)
let ident_names t =
  Hashtbl.fold
    (fun name tok acc ->
      match tok with Ctoken.IDENT _ -> name :: acc | _ -> acc)
    t.interns []

(** The tokens paired with their spans, for list-based consumers. *)
let to_list t =
  List.init t.n (fun i -> (tok t i, span t i))
