(** The analysis session: the const-inference pipeline as named stages —
    unit table → linked program → FDG → published schemes → solved store
    → report — behind both one-shot batch entry points and a persistent {!t} that keeps warm artifacts between
    runs and answers position-level queries without re-parsing or
    re-solving clean units. See DESIGN.md "Session architecture & wire
    protocol". *)

(** {1 Batch pipeline} *)

type timing = {
  t_compile : float;  (** parse + table construction, seconds *)
  t_analysis : float;  (** constraint generation + solving *)
}

(** Which frontend assembles the whole program from translation units. *)
type frontend =
  | Per_unit  (** per-unit parse + link (default) *)
  | Concat  (** legacy megastring concatenation: the parity oracle *)

(** Frontend phase breakdown. Under [--jobs] > 1 the lex/parse/build
    times are summed across worker domains, so they can exceed the
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
      (** [None] for the concat oracle, single-source runs, and
          whole-run cache hits *)
}

exception Error of string

val compile : string -> Cfront.Cprog.t
(** Parse a single source to its program tables; raises {!Error} when
    nothing parses. *)

val oversubscription : jobs:int -> int option
(** [Some cores] when [jobs] exceeds the host's available cores. *)

val oversubscription_notice : jobs:int -> Cfront.Diag.t option
(** The oversubscription advisory as a structured {!Cfront.Diag.Notice}
    (code N0901). The CLIs print it with a ["warning: "] prefix —
    byte-identical to the historical free-form line — and the daemon
    ships it to clients as data. *)

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

type span = int * int * string * string
(** a unit's span in a concatenated program: first line, last line,
    unit name, content digest *)

val mode_name : Analysis.mode -> string

(** {2 One-shot entry points} *)

val analyze :
  ?rules:Analysis.qrules ->
  ?field_sharing:bool ->
  ?simplify:bool ->
  ?compact:bool ->
  ?budget:Typequal.Budget.t ->
  Analysis.mode ->
  Cfront.Cprog.t ->
  Analysis.env * Report.results * float
(** Analysis plus measurement over an already-compiled program. *)

type compiled = {
  co_prog : Cfront.Cprog.t;
  co_diags : Cfront.Diag.t list;
  co_degraded : (string * string) list;
  co_lines : int;
  co_t_compile : float;
  co_frontend : frontend_stats option;
}
(** the frontend's product, whichever frontend built it *)

val finish :
  ?rules:Analysis.qrules ->
  ?field_sharing:bool ->
  ?simplify:bool ->
  ?compact:bool ->
  ?budget:Typequal.Budget.t ->
  ?locate:(string -> int -> string * int) ->
  Analysis.mode ->
  compiled ->
  run
(** The shared back half of both frontends: analyze, measure, and attach
    FDG statistics. [locate] resolves a function's AST line to its
    (unit, local line) anchor for stable position keys. *)

val run_concat :
  ?mode:Analysis.mode ->
  ?rules:Analysis.qrules ->
  ?field_sharing:bool ->
  ?simplify:bool ->
  ?compact:bool ->
  ?budget:Typequal.Budget.t ->
  ?jobs:int ->
  ?max_errors:int ->
  ?cache:cache_spec ->
  ?lines:int ->
  spans:span list ->
  string ->
  run
(** One mode over an already-concatenated program. [jobs] is accepted
    for symmetry with {!run_units} and ignored: one program is parsed
    serially. *)

val run_units :
  ?mode:Analysis.mode ->
  ?rules:Analysis.qrules ->
  ?field_sharing:bool ->
  ?simplify:bool ->
  ?compact:bool ->
  ?budget:Typequal.Budget.t ->
  ?jobs:int ->
  ?max_errors:int ->
  ?cache:cache_spec ->
  (string * string) list ->
  run
(** One mode over the per-unit pipeline. *)

val run_source :
  ?mode:Analysis.mode ->
  ?rules:Analysis.qrules ->
  ?field_sharing:bool ->
  ?simplify:bool ->
  ?compact:bool ->
  ?budget:Typequal.Budget.t ->
  ?jobs:int ->
  ?max_errors:int ->
  ?cache:cache_spec ->
  ?unit:string ->
  string ->
  run
(** Run one mode on a single C source, recovering from lexer/parser
    errors. *)

val concat_sources_spans : (string * string) list -> string * span list
val concat_sources : (string * string) list -> string

val run_sources :
  ?frontend:frontend ->
  ?mode:Analysis.mode ->
  ?rules:Analysis.qrules ->
  ?field_sharing:bool ->
  ?simplify:bool ->
  ?compact:bool ->
  ?budget:Typequal.Budget.t ->
  ?jobs:int ->
  ?max_errors:int ->
  ?cache:cache_spec ->
  (string * string) list ->
  run
(** Multi-file projects under either frontend; reports, diagnostics and
    solver counters are byte-identical either way. *)

val compile_sources :
  ?frontend:frontend ->
  ?jobs:int ->
  ?max_errors:int ->
  (string * string) list ->
  compiled
(** The frontend alone — parse and link without analyzing. *)

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
    [cqualc] run performs. [jobs] sets the domains that parse units
    and evaluate [whatif] batches; the analysis itself is serial. *)

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
    parsed or analyzed until the first {!run} or query. *)

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
(** "What breaks if I add [$qual] here?" — the serial prepare step
    snapshots the warm store and baseline verdicts (run it with
    exclusive session access); the returned thunk solves a private
    clone and touches no session state, so any number of thunks may run
    concurrently on the domain pool. *)

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
    only). *)

val render :
  ?mode:Analysis.mode ->
  ?stats:bool ->
  ?positions:bool ->
  ?name:string ->
  t ->
  string
(** One mode of the session rendered with {!render_run} — the daemon's
    [render] method, diffable against a cold [cqualc] run. *)
