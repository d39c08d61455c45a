(** Flat token buffer: the product of the scanner ({!Clexer}).

    A [(Ctoken.t * Diag.span) list] costs a cons cell, a tuple and a
    span record per token, ~14 words each, which dominates frontend
    allocation on million-line corpora. A [Tokbuf.t] instead holds one
    pointer array of tokens (identifiers interned as {!Sym.t}, so each
    distinct name owns a single boxed [IDENT]) and one flat [int array]
    of packed span endpoints; span records are rebuilt lazily, only on
    the paths that report them.

    The buffer also lists the unit's distinct identifiers: the link step
    of the per-unit frontend checks them to decide whether a
    speculatively parsed unit could have been influenced by typedef or
    enum-constant names exported by earlier units (see DESIGN.md
    "Per-unit frontend"). *)

type t = {
  toks : Ctoken.t array;  (** [n] tokens; the last is always [EOF] *)
  spans : int array;
      (** 2 ints per token: the packed start ([sl], [sc]) and end ([el],
          [ec]) positions, see {!pack} *)
  n : int;
  idents : Sym.t list;
      (** the distinct identifiers lexed from the unit (keywords
          excluded), newest first *)
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

(** The tokens paired with their spans, for list-based consumers. *)
let to_list t =
  List.init t.n (fun i -> (tok t i, span t i))
