(** Interned identifiers: one dense integer per distinct name.

    The table is process-wide and append-only. The scanner interns every
    identifier straight from its source slice, and every later layer —
    the AST, the linked program tables, the FDG, the analysis environment
    and the report — keys on the id instead of hashing the name again.
    Ids are born in first-sighting order, starting at 0, and are never
    reused or released: a long-lived process holds one entry per distinct
    name it has ever seen. They are meaningful only inside the process
    that minted them; anything persisted carries names and is remapped
    on load (see DESIGN.md "Symbols"). Not safe for concurrent use from
    several domains. *)

type t = private int

val intern : string -> t
(** The id of a name, minting it on first sighting. *)

val intern_sub : string -> int -> int -> t
(** [intern_sub s i e] is [intern (String.sub s i (e - i))], but the
    slice is hashed and compared in place: the name is allocated only on
    its first sighting. *)

val name : t -> string
(** The interned name; [name (intern s) = s]. *)

val count : unit -> int
(** Number of ids minted so far; every id is below it. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Id order, i.e. first-sighting order (not name order). *)

val compare_names : t -> t -> int
(** [String.compare] on the names. *)

(** A map from symbols to values as a growable array indexed by id:
    lookups are one bounds check and one load, and a read past the
    written prefix is a miss. *)
module Tbl : sig
  type sym = t
  type 'a t

  val create : unit -> 'a t
  val find_opt : 'a t -> sym -> 'a option
  val mem : 'a t -> sym -> bool
  val replace : 'a t -> sym -> 'a -> unit
  val remove : 'a t -> sym -> unit
end
