(** The analysis session: the const-inference pipeline as named stages —
    unit table → linked program → FDG → published schemes → solved store
    → report — behind one batch entry point ({!run_sources}) and a
    persistent {!t} that keeps warm artifacts between runs and answers
    position-level queries without re-parsing or re-solving clean units.
    Every C input, a single file included, goes through the per-unit
    frontend. See DESIGN.md "Per-unit frontend" and "Session architecture
    & wire protocol". *)

(** {1 Batch pipeline} *)

type timing = {
  t_compile : float;  (** parse + table construction, seconds *)
  t_analysis : float;  (** constraint generation + solving *)
}

(** Frontend phase breakdown. The phases run one after another on one
    domain, so each time is a wall time and their sum is at most the
    compile wall clock. *)
type frontend_stats = {
  fs_units : int;
  fs_reparsed : int;
      (** units whose speculative parse was discarded and redone with
          the linked environment *)
  fs_lex_s : float;
  fs_parse_s : float;
  fs_build_s : float;
  fs_link_s : float;
}

type run = {
  results : Report.results;
  timing : timing;
  lines : int;
  n_functions : int;
  n_constraints : int;  (** number of qualifier variables *)
  solver_stats : Typequal.Solver.stats;
  diagnostics : Cfront.Diag.t list;
      (** lexer/parser diagnostics recovered from, in source order *)
  fdg_scc_count : int;
  fdg_largest_scc : int;
  wavefront_width : int;
  par : Analysis.par_stats option;
      (** always [None]; remains only for the perfbench tool, which
          reads it *)
  frontend : frontend_stats option;
      (** [None] only for whole-run cache hits *)
}

exception Error of string

val compile : string -> Cfront.Cprog.t
(** Parse a single source to its program tables; raises {!Error} when
    nothing parses. *)

(** {2 Persistent on-disk cache} *)

type cache_spec = {
  cs_cache : Typequal.Cache.t;
  cs_opts_id : string;
      (** caller identity beyond the lattice: analysis flavour, lattice
          file digest, measured qualifier *)
}

val space_fingerprint : Typequal.Lattice.Space.t -> Digest.t
(** The envelope context digest: lattice dump, compiler version, and
    payload-format revision. *)

val open_cache :
  ?warn:(string -> unit) ->
  ?rules:Analysis.qrules ->
  opts_id:string ->
  string ->
  cache_spec option
(** Open a cache directory for runs under this rule set; [None] (after
    [warn]) when the path is unusable. Never raises. *)

val unit_digest : string -> string -> Digest.t
(** [unit_digest name content]: the per-file content hash that keys
    invalidation. *)

val mode_name : Analysis.mode -> string

(** {2 One-shot entry points} *)

type compiled = {
  co_prog : Cfront.Cprog.t;
  co_diags : Cfront.Diag.t list;
  co_degraded : (string * string) list;
  co_lines : int;
  co_t_compile : float;
  co_frontend : frontend_stats option;
}
(** the frontend's product: the linked program plus what the report
    needs from the parse *)

val run_sources :
  ?mode:Analysis.mode ->
  ?rules:Analysis.qrules ->
  ?field_sharing:bool ->
  ?simplify:bool ->
  ?compact:bool ->
  ?budget:Typequal.Budget.t ->
  ?max_errors:int ->
  ?cache:cache_spec ->
  (string * string) list ->
  run
(** One mode over [(name, source)] translation units, analyzed as one
    whole program; a single file is a project of one unit. Recovers from
    lexer/parser errors (see DESIGN.md "Resilience"). [max_errors]
    (default 20) caps the diagnostics collected; below 1 raises
    {!Error}. *)

val compile_sources :
  ?jobs:int -> ?max_errors:int -> (string * string) list -> compiled
(** The frontend alone — parse and link without analyzing. Raises
    {!Error} for a [max_errors] below 1. [jobs] is accepted and ignored;
    it remains only because the perfbench tool passes it. *)

(** Run both modes, reusing the parse: one row of Table 2. *)
type row = {
  name : string;
  r_lines : int;
  compile_s : float;
  mono_s : float;
  poly_s : float;
  declared : int;
  mono : int;
  poly : int;
  total : int;
  mono_results : Report.results;
  poly_results : Report.results;
}

val table2_row : name:string -> string -> row

(** {1 The persistent session} *)

type t
(** A persistent analysis session over a set of named translation
    units. Derived stages (linked program, solved stores, reports) are
    dropped on any unit edit; the content-addressed per-unit AST memo
    survives. Re-running after an edit therefore costs one parse per
    edited unit, the link, and the same serial analysis a batch
    [cqualc] run performs. *)

val create :
  ?rules:Analysis.qrules ->
  ?mode:Analysis.mode ->
  ?field_sharing:bool ->
  ?simplify:bool ->
  ?compact:bool ->
  ?max_errors:int ->
  ?jobs:int ->
  ?cache:cache_spec ->
  (string * string) list ->
  t
(** [create units] builds a session over [(name, source)] pairs.
    [mode] is the default query/analysis mode (default [Poly]);
    [cache] additionally attaches the persistent disk tiers. Nothing is
    parsed or analyzed until the first {!run} or query. Raises {!Error}
    for a [max_errors] below 1. [jobs] is accepted and ignored; it
    remains only because the perfbench tool passes it. *)

val units : t -> string list
(** Current unit names, in link order. *)

val default_mode : t -> Analysis.mode
(** The mode queries default to (the [mode] given to {!create}). *)

val update_unit : t -> string -> string -> [ `Added | `Updated | `Unchanged ]
(** [update_unit t name src] replaces (or appends) one unit's source.
    [`Unchanged] (same content digest) invalidates nothing; otherwise
    all derived stages are dropped, and the next run re-parses only this
    unit (every other unit's AST comes from the memo), then links and
    analyzes the whole program afresh. *)

val remove_unit : t -> string -> bool
(** Remove a unit; [false] if it was not present. *)

val run : ?mode:Analysis.mode -> t -> run
(** Analyze the current units under [mode] (default: the session's).
    Repeated calls return the computed state; after an edit, clean units
    replay from the AST memo and the analysis runs as in batch. *)

val diagnostics : t -> Cfront.Diag.t list
(** Frontend diagnostics for the current units (mode-independent). *)

(** {2 Position-level queries}

    Positions are addressed by the stable keys of
    {!Report.position_key}: canonical [unit:line:col@level], or the
    structural alias [unit:fun:pN@level] / [unit:fun:ret@level]. *)

val positions :
  ?mode:Analysis.mode ->
  t ->
  (string * Report.position * Report.verdict) list
(** Every interesting position with its canonical key, in report
    order. *)

val classify :
  ?mode:Analysis.mode ->
  t ->
  string ->
  (Report.position * Report.verdict) option
(** "Is this position must-const?" — answered from the warm store. *)

val explain :
  ?mode:Analysis.mode ->
  t ->
  string ->
  (Report.position * Report.verdict * string option, string) result
(** Why a position's qualifier variable is forced: the solver's
    forcing/violation path, [None] when nothing binds it. [Error] for
    unknown keys. *)

type whatif_change = {
  wc_key : string;
  wc_fun : string;
  wc_before : Report.verdict;
  wc_after : Report.verdict;
}

type whatif_result = {
  w_key : string;  (** the annotated position *)
  w_qual : string;  (** the qualifier speculatively added *)
  w_changed : whatif_change list;  (** positions whose verdict moved *)
  w_errors_before : int;
  w_errors_after : int;
}

val whatif_task :
  ?mode:Analysis.mode ->
  t ->
  qual:string ->
  string ->
  (unit -> whatif_result, string) result
(** "What breaks if I add [$qual] here?" — the prepare step snapshots
    the warm store and baseline verdicts; the returned thunk solves a
    private clone and touches no session state. The split lets the
    perfbench tool time the two steps apart. *)

val whatif :
  ?mode:Analysis.mode ->
  t ->
  qual:string ->
  string ->
  (whatif_result, string) result
(** {!whatif_task} prepared and evaluated inline. *)

(** {2 Statistics} *)

type session_stats = {
  ss_units : int;
  ss_modes : string list;  (** warm (already analyzed) modes *)
  ss_memo_hits : int;
      (** per-unit AST memo hits: units whose parse was reused, summed
          over every compile of the session's life *)
  ss_memo_misses : int;
      (** per-unit AST memo misses: units that had to be lexed and parsed
          (on a cold session, every unit) *)
  ss_cache : Typequal.Cache.stats option;  (** disk tiers, when attached *)
}

val stats : t -> session_stats

(** {2 Rendering} *)

val render_run :
  ?stats:bool ->
  ?positions:bool ->
  ?jobs:int ->
  name:string ->
  Analysis.mode ->
  run ->
  string
(** The per-run report exactly as [cqualc] prints it (stdout block
    only). [jobs] is accepted and ignored; it remains only because the
    perfbench tool passes it. *)

val render :
  ?mode:Analysis.mode ->
  ?stats:bool ->
  ?positions:bool ->
  ?name:string ->
  t ->
  string
(** One mode of the session rendered with {!render_run} — the daemon's
    [render] method, diffable against a cold [cqualc] run. *)
