(** The analysis session: every stage of the const-inference pipeline —
    unit table, linked program, FDG, published schemes, solved store,
    report — as a persistent value with precise invalidation, plus the
    one batch entry point ({!run_sources}) that drives one-shot runs over
    the same machinery.

    The staged pipeline Table 2 and Figure 6 are produced from lives
    here. A {!t} keeps one warm artifact between edits: the per-unit AST
    memo (keyed by unit content digest), so after {!update_unit} only the
    edited unit is lexed and parsed again; the link and the analysis
    then run exactly as a batch [cqualc] run does. Queries ({!classify},
    {!explain}, {!whatif}) are answered against the warm solved store
    through stable [unit:line:col] position keys (see
    {!Report.position_key}).

    Every C input goes through the {e per-unit frontend}, a single file
    being a project of one unit: each translation unit is lexed and
    parsed independently, then a deterministic link step merges the unit
    programs and threads the cross-unit parser environment. The whole
    pipeline runs on one domain. See DESIGN.md "Per-unit frontend" and
    "Session architecture". *)

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
          the linked environment (typedef/enum-name overlap, anonymous
          tag numbering, or a diagnostic budget spill) *)
  fs_lex_s : float;
  fs_parse_s : float;
  fs_build_s : float;
      (** the one pass writing the linked units into the program tables *)
  fs_link_s : float;
      (** the replay of the cross-unit environment, reparses included *)
}

type run = {
  results : Report.results;
  timing : timing;
  lines : int;
  n_functions : int;
  n_constraints : int;  (** number of qualifier variables, a proxy for size *)
  solver_stats : Typequal.Solver.stats;
      (** constraint-store counters (unifications, dedup, cycle collapses,
          worklist pops) accumulated over the whole run *)
  diagnostics : Cfront.Diag.t list;
      (** lexer/parser diagnostics recovered from, in source order; empty
          for a clean parse. Multi-unit runs carry unit-local positions
          ([Diag.d_unit] names the file). *)
  fdg_scc_count : int;  (** SCCs in the function dependence graph *)
  fdg_largest_scc : int;  (** size of the largest (mutual-recursion) SCC *)
  wavefront_width : int;
      (** maximum SCCs simultaneously ready under wavefront scheduling: an
          upper bound on useful analysis parallelism *)
  par : Analysis.par_stats option;
      (** always [None]; remains only for the perfbench tool, which
          reads it *)
  frontend : frontend_stats option;
      (** per-unit frontend phase breakdown; [None] only for whole-run
          cache hits *)
}

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

exception Error of string

let compile src =
  match Cfront.Cparse.parse_program_result src with
  | Error m -> raise (Error m)
  | Ok p -> Cfront.Cprog.build p

(* ------------------------------------------------------------------ *)
(* Persistent cache (two disk tiers; see DESIGN.md)                    *)
(* ------------------------------------------------------------------ *)

module Cache = Typequal.Cache

(** an open cache plus the caller's identity string for everything the
    fingerprints below cannot see — the rule set beyond its qualifier
    space (e.g. which CLI analysis flavour and lattice file built it) *)
type cache_spec = { cs_cache : Cache.t; cs_opts_id : string }

(* The context digest stamped into every envelope: qualifier-space dump
   (the full lattice structure), compiler version (Marshal payloads are
   not portable across it), and a payload-format revision to bump whenever
   any marshaled type in this file or the analysis changes shape. *)
let space_fingerprint (sp : Typequal.Lattice.Space.t) : Digest.t =
  Digest.string
    (Fmt.str "%a|%s|payload-fmt-4" Typequal.Lattice.Space.pp_dump sp
       Sys.ocaml_version)

(** Open a cache directory for runs under this rule set (default: const
    inference). Returns [None] — after [warn] — when the path is unusable;
    run without a cache then. Never raises. *)
let open_cache ?warn ?(rules = Analysis.const_rules) ~opts_id dir :
    cache_spec option =
  match
    Cache.open_dir ?warn ~ctx:(space_fingerprint rules.Analysis.qr_space) dir
  with
  | Some c -> Some { cs_cache = c; cs_opts_id = opts_id }
  | None -> None

(* Unit identity: the per-file content hash that keys invalidation. The
   name participates, so renaming a file on disk invalidates exactly the
   units (and run) that file contributes to. *)
let unit_digest name content = Digest.string (name ^ "\000" ^ content)

let mode_name = function
  | Analysis.Mono -> "mono"
  | Analysis.Poly -> "poly"
  | Analysis.Polyrec -> "polyrec"

(* Everything that parameterizes inference besides the program text and
   the qualifier space (already in the envelope context). *)
let opt_fingerprint ~opts_id ~mode ~field_sharing ~simplify ~compact
    ~max_errors : string =
  let ob = function Some b -> string_of_bool b | None -> "-" in
  Digest.string
    (String.concat "|"
       [
         opts_id;
         mode_name mode;
         ob field_sharing;
         ob simplify;
         ob compact;
         (match max_errors with Some n -> string_of_int n | None -> "-");
       ])

(* the run record's cacheable core: no wall-clock, solver counters
   sanitized of nondeterministic fields *)
type cached_run = {
  cr_results : Report.results;
  cr_lines : int;
  cr_n_functions : int;
  cr_n_constraints : int;
  cr_stats : Typequal.Solver.stats;
  cr_diags : Cfront.Diag.t list;
  cr_scc_count : int;
  cr_largest_scc : int;
  cr_wavefront : int;
}

(* load kind/key and unmarshal as ['a]; any decode failure rejects the
   entry (the envelope verified, so the payload was well-formed bytes that
   mean nothing to us — e.g. written by a differently-shaped build) *)
let load_marshal (type a) (c : Cache.t) ~kind ~key ~deps : a option =
  match Cache.load c ~kind ~key ~deps with
  | None -> None
  | Some payload -> (
      match (Marshal.from_string payload 0 : a) with
      | v -> Some v
      | exception ((Out_of_memory | Sys.Break) as e) -> raise e
      | exception _ ->
          Cache.reject_undecodable c ~kind ~key;
          None)

(* analysis + measurement, also returning the live interfaces and the
   classified positions the persistent session indexes *)
let analyze ?rules ?field_sharing ?simplify ?compact ?budget ?locate mode prog
    =
  let (env, ifaces), t =
    time (fun () ->
        Analysis.run ?rules ?field_sharing ?simplify ?compact ?budget mode
          prog)
  in
  let st = env.Analysis.store in
  let solve0 = (Typequal.Solver.stats st).solve_s in
  let (results, classified), t2 =
    time (fun () -> Report.measure_full ?locate env ifaces)
  in
  (* the report's own cost, minus the final solve it triggers (that time
     is already accounted to solve_s) *)
  let solve_d = (Typequal.Solver.stats st).solve_s -. solve0 in
  Typequal.Solver.note_phase st Typequal.Solver.Report
    (Float.max 0. (t2 -. solve_d));
  (env, ifaces, results, classified, t +. t2)

(* ------------------------------------------------------------------ *)
(* Analysis back half: analyze, measure, attach FDG statistics        *)
(* ------------------------------------------------------------------ *)

(* the frontend's product: the linked program plus what the report
   needs from the parse *)
type compiled = {
  co_prog : Cfront.Cprog.t;
  co_diags : Cfront.Diag.t list;
  co_degraded : (string * string) list;
  co_lines : int;
  co_t_compile : float;
  co_frontend : frontend_stats option;
}

let finish ?rules ?field_sharing ?simplify ?compact ?budget ?locate mode
    (co : compiled) =
  let env, ifaces, results, classified, t_analysis =
    analyze ?rules ?field_sharing ?simplify ?compact ?budget ?locate mode
      co.co_prog
  in
  (* the graph the polymorphic analyses scheduled from (built here only
     for mono, which never needed it) *)
  let fdg = Lazy.force env.Analysis.fdg in
  let results =
    {
      results with
      (* tail-recursive construction: a pathological input can demote
         thousands of functions, and outcome lists are program-sized *)
      Report.outcomes =
        List.rev_append
          (List.rev results.Report.outcomes)
          (List.rev
             (List.rev_map
                (fun (name, reason) -> (name, Analysis.Degraded reason))
                co.co_degraded));
    }
  in
  let run =
    {
      results;
      timing = { t_compile = co.co_t_compile; t_analysis };
      lines = co.co_lines;
      n_functions = List.length (Cfront.Cprog.functions co.co_prog);
      n_constraints = Typequal.Solver.num_vars env.Analysis.store;
      solver_stats = Analysis.stats env;
      diagnostics = co.co_diags;
      fdg_scc_count = Fdg.scc_count fdg;
      fdg_largest_scc = Fdg.largest_scc fdg;
      wavefront_width = Fdg.wavefront_width fdg;
      par = env.Analysis.par;
      frontend = co.co_frontend;
    }
  in
  (run, env, ifaces, classified)

let run_of_cached (cr : cached_run) ~t_lookup : run =
  {
    results = cr.cr_results;
    timing = { t_compile = 0.; t_analysis = t_lookup };
    lines = cr.cr_lines;
    n_functions = cr.cr_n_functions;
    n_constraints = cr.cr_n_constraints;
    solver_stats = cr.cr_stats;
    diagnostics = cr.cr_diags;
    fdg_scc_count = cr.cr_scc_count;
    fdg_largest_scc = cr.cr_largest_scc;
    wavefront_width = cr.cr_wavefront;
    par = None;
    frontend = None;
  }

(* Wall-clock and heap fields are nondeterministic: a cached run carries
   only the deterministic counters. *)
let sanitize_stats (s : Typequal.Solver.stats) : Typequal.Solver.stats =
  {
    s with
    Typequal.Solver.solve_s = 0.;
    absorb_s = 0.;
    congen_s = 0.;
    generalize_s = 0.;
    compact_s = 0.;
    instantiate_s = 0.;
    report_s = 0.;
    heap_words = 0;
    top_heap_words = 0;
    cores_available = 0;
  }

let cached_of_run (r : run) : cached_run =
  {
    cr_results = r.results;
    cr_lines = r.lines;
    cr_n_functions = r.n_functions;
    cr_n_constraints = r.n_constraints;
    cr_stats = sanitize_stats r.solver_stats;
    cr_diags = r.diagnostics;
    cr_scc_count = r.fdg_scc_count;
    cr_largest_scc = r.fdg_largest_scc;
    cr_wavefront = r.wavefront_width;
  }

(* the whole-run cache key over the units' content digests *)
let run_key ~optfp (digests : string list) =
  Digest.string (optfp ^ String.concat "" digests)

(* ------------------------------------------------------------------ *)
(* Per-unit frontend                                                   *)
(* ------------------------------------------------------------------ *)

(* the per-unit AST cache payload: the speculative (environment-free)
   parse of one unit, reusable under any link order. Reparses triggered
   by the link environment are never cached — they depend on it. Symbol
   ids are private to the process that minted them, so the payload
   carries the name of every symbol in [cu_res]: [cu_names.(i)] is the
   name of the writer's id [cu_ids.(i)]. *)
type cached_unit = {
  cu_res : Cfront.Cparse.uresult;
  cu_ids : Cfront.Sym.t array;
  cu_names : string array;
}

let unit_key ~max_errors ~digest =
  Digest.string (Printf.sprintf "unit\000%d\000%s" max_errors digest)

let cached_unit_of (res : Cfront.Cparse.uresult) : cached_unit =
  let ids =
    Array.of_list (res.Cfront.Cparse.ur_idents @ res.Cfront.Cparse.ur_minted)
  in
  { cu_res = res; cu_ids = ids; cu_names = Array.map Cfront.Sym.name ids }

(* Rebase a loaded payload onto this process's symbol ids: intern every
   name, and rename the AST only when some id differs (a payload written
   by this process, or under the same intern order, is used as is). *)
let uresult_of_cached (cu : cached_unit) : Cfront.Cparse.uresult =
  let ids = Array.map Cfront.Sym.intern cu.cu_names in
  if Array.for_all2 Cfront.Sym.equal ids cu.cu_ids then cu.cu_res
  else begin
    let remap : (int, Cfront.Sym.t) Hashtbl.t =
      Hashtbl.create (Array.length ids)
    in
    Array.iteri
      (fun i (old : Cfront.Sym.t) -> Hashtbl.replace remap (old :> int) ids.(i))
      cu.cu_ids;
    Cfront.Cparse.map_uresult
      (fun s ->
        match Hashtbl.find_opt remap (s :> int) with
        | Some s' -> s'
        | None -> failwith "cached unit: symbol without a name")
      cu.cu_res
  end

(* one unit's frontend product, pre-link *)
type unit_fe = {
  uf_name : string;
  uf_src : string;
  uf_res : Cfront.Cparse.uresult;
}

(* the persistent session's in-memory AST tier: unit digest ->
   speculative parse, with probe counters *)
type fe_memo = {
  fm_tbl : (string, Cfront.Cparse.uresult) Hashtbl.t;
  mutable fm_hits : int;
  mutable fm_misses : int;
}

(** The per-unit frontend alone: a speculative lex+parse+build per
    translation unit, then a deterministic link that replays the
    cross-unit parser environment in file order and re-parses the rare
    unit whose speculative result it could have influenced. Returns the
    compiled program plus the function-name -> defining-unit table that
    anchors the report's stable position keys. [fe_memo] is the
    persistent session's in-memory AST tier, probed (and counted) before
    the disk tier and fed by fresh parses. Everything runs on the
    calling domain, so the phase times are wall times. *)
let compile_units ?cache ?fe_memo ~me (files : (string * string) list) :
    compiled * string Cfront.Sym.Tbl.t =
  let lines =
    List.fold_left
      (fun acc (_, src) -> acc + Cfront.Cprog.count_lines src)
      0 files
  in
  let multi = match files with [] | [ _ ] -> false | _ -> true in
  let t0 = Unix.gettimeofday () in
  let files_a = Array.of_list files in
  let digests_a =
    Array.map (fun (name, src) -> unit_digest name src) files_a
  in
  let n = Array.length files_a in
  (* --- per-unit AST memo + cache probes, all before the first fresh
     parse feeds either tier --- *)
  let probed =
    Array.map
      (fun digest ->
        let memo_hit =
          match fe_memo with
          | None -> None
          | Some m -> (
              match Hashtbl.find_opt m.fm_tbl digest with
              | Some res ->
                  m.fm_hits <- m.fm_hits + 1;
                  Some res
              | None ->
                  m.fm_misses <- m.fm_misses + 1;
                  None)
        in
        match (memo_hit, cache) with
        | Some _, _ | None, None -> memo_hit
        | None, Some cs -> (
            let key = unit_key ~max_errors:me ~digest in
            match
              (load_marshal cs.cs_cache ~kind:"unit" ~key ~deps:[]
                : cached_unit option)
            with
            | None -> None
            | Some cu -> (
                match uresult_of_cached cu with
                | res -> Some res
                | exception Failure _ ->
                    Cache.reject_undecodable cs.cs_cache ~kind:"unit" ~key;
                    None)))
      digests_a
  in
  (* --- speculative lex+parse, one unit at a time; fresh parses feed
     the memo and the disk tier --- *)
  let lex_s = ref 0. and parse_s = ref 0. in
  (* the last parsed unit's token buffer, for the next scan to overwrite:
     a project allocates token storage about once, not once per unit *)
  let spare = ref None in
  let parse_fresh i src =
    let (tb, lex_diags), t_lex =
      time (fun () ->
          Cfront.Clexer.tokenize_buf ~max_errors:me ?reuse:!spare src)
    in
    lex_s := !lex_s +. t_lex;
    let res, t_parse =
      time (fun () -> Cfront.Cparse.parse_unit ~max_errors:me tb ~lex_diags)
    in
    parse_s := !parse_s +. t_parse;
    spare := Some tb;
    (match fe_memo with
    | Some m -> Hashtbl.replace m.fm_tbl digests_a.(i) res
    | None -> ());
    (match cache with
    | Some cs ->
        Cache.store cs.cs_cache ~kind:"unit"
          ~key:(unit_key ~max_errors:me ~digest:digests_a.(i))
          ~deps:[]
          (Marshal.to_string (cached_unit_of res) [])
    | None -> ());
    res
  in
  let ufs =
    Array.mapi
      (fun i (name, src) ->
        let res =
          match probed.(i) with Some res -> res | None -> parse_fresh i src
        in
        { uf_name = name; uf_src = src; uf_res = res })
      files_a
  in
  (* --- link: validate each speculative parse against the accumulated
     environment, re-parse when it could have been influenced, thread
     the diagnostic budget --- *)
  let link_t0 = Unix.gettimeofday () in
  (* the exported typedef and enum-constant names so far, as sets and
     as lists in first-export order (the seed of a reparse) *)
  let env_typedefs : unit Cfront.Sym.Tbl.t = Cfront.Sym.Tbl.create () in
  let env_enums : int Cfront.Sym.Tbl.t = Cfront.Sym.Tbl.create () in
  let typedef_names = ref [] and enum_names = ref [] in
  let env_anon = ref 0 in
  let consumed = ref 0 in
  let capped = ref false in
  let reparsed = ref 0 in
  let progs = ref [] in
  let diags = ref [] in
  let degraded = ref [] in
  let unit_of_tbl : string Cfront.Sym.Tbl.t = Cfront.Sym.Tbl.create () in
  Array.iter
    (fun uf ->
      if not !capped then
        if !consumed >= me then begin
          (* the budget ran out exactly at a unit boundary: a
             whole-program parse would give up at this unit's first
             token *)
          capped := true;
          let d =
            Cfront.Diag.note ~code:"E0299"
              uf.uf_res.Cfront.Cparse.ur_first_span
              (Printf.sprintf
                 "too many errors (%d); giving up on the rest of the \
                  file"
                 me)
          in
          let d =
            if multi then Cfront.Diag.with_unit uf.uf_name d else d
          in
          diags := d :: !diags
        end
        else begin
          let spec = uf.uf_res in
          let k =
            List.length spec.Cfront.Cparse.ur_pr.Cfront.Cparse.pr_diags
          in
          let mention_hit =
            (!typedef_names <> [] || !enum_names <> [])
            && List.exists
                 (fun id ->
                   Cfront.Sym.Tbl.mem env_typedefs id
                   || Cfront.Sym.Tbl.mem env_enums id)
                 spec.Cfront.Cparse.ur_idents
          in
          let anon_hit =
            !env_anon > 0 && spec.Cfront.Cparse.ur_anon > 0
          in
          let budget_hit = !consumed > 0 && k > 0 && !consumed + k >= me in
          let res =
            if not (mention_hit || anon_hit || budget_hit) then spec
            else begin
              incr reparsed;
              let seed =
                {
                  Cfront.Cparse.us_typedefs = !typedef_names;
                  us_enums =
                    List.filter_map
                      (fun k ->
                        Option.map
                          (fun v -> (k, v))
                          (Cfront.Sym.Tbl.find_opt env_enums k))
                      !enum_names;
                  us_anon = !env_anon;
                  us_count_base = !consumed;
                }
              in
              let tb, lex_diags =
                Cfront.Clexer.tokenize_buf ~max_errors:(me - !consumed)
                  uf.uf_src
              in
              Cfront.Cparse.parse_unit ~max_errors:me ~seed tb ~lex_diags
            end
          in
          let pr = res.Cfront.Cparse.ur_pr in
          consumed := !consumed + List.length pr.Cfront.Cparse.pr_diags;
          if res.Cfront.Cparse.ur_capped then capped := true;
          List.iter
            (fun name ->
              if not (Cfront.Sym.Tbl.mem env_typedefs name) then begin
                Cfront.Sym.Tbl.replace env_typedefs name ();
                typedef_names := name :: !typedef_names
              end)
            res.Cfront.Cparse.ur_typedefs;
          List.iter
            (fun (name, v) ->
              if not (Cfront.Sym.Tbl.mem env_enums name) then
                enum_names := name :: !enum_names;
              Cfront.Sym.Tbl.replace env_enums name v)
            res.Cfront.Cparse.ur_enums;
          env_anon := !env_anon + res.Cfront.Cparse.ur_anon;
          let prog = pr.Cfront.Cparse.pr_prog in
          progs := prog :: !progs;
          List.iter
            (fun d ->
              let d =
                if multi then Cfront.Diag.with_unit uf.uf_name d else d
              in
              diags := d :: !diags)
            pr.Cfront.Cparse.pr_diags;
          List.iter
            (fun dg -> degraded := dg :: !degraded)
            pr.Cfront.Cparse.pr_degraded;
          List.iter
            (function
              | Cfront.Cast.GFun f ->
                  if not (Cfront.Sym.Tbl.mem unit_of_tbl f.Cfront.Cast.f_name)
                  then
                    Cfront.Sym.Tbl.replace unit_of_tbl f.Cfront.Cast.f_name
                      uf.uf_name
              | _ -> ())
            prog
        end)
    ufs;
  let link_s = Unix.gettimeofday () -. link_t0 in
  (* --- build: one write pass of the linked units into the
     symbol-indexed program tables --- *)
  let prog, build_s =
    time (fun () -> Cfront.Cprog.merge (List.rev !progs))
  in
  let t_compile = Unix.gettimeofday () -. t0 in
  let fe =
    {
      fs_units = n;
      fs_reparsed = !reparsed;
      fs_lex_s = !lex_s;
      fs_parse_s = !parse_s;
      fs_build_s = build_s;
      fs_link_s = link_s;
    }
  in
  let co =
    {
      co_prog = prog;
      co_diags = List.rev !diags;
      co_degraded = List.rev !degraded;
      co_lines = lines;
      co_t_compile = t_compile;
      co_frontend = Some fe;
    }
  in
  (co, unit_of_tbl)

(* the per-unit frontend's position anchor: a function's lines are
   already unit-local, so only the unit name needs resolving *)
let locate_of_tbl (tbl : string Cfront.Sym.Tbl.t) fname line =
  match Cfront.Sym.Tbl.find_opt tbl fname with
  | Some u -> (u, line)
  | None -> ("", line)

(* ------------------------------------------------------------------ *)
(* Batch entry points                                                  *)
(* ------------------------------------------------------------------ *)

(* the diagnostic budget (default 20); a budget below 1 would give up
   before the first token and analyze nothing *)
let error_budget = function
  | None -> 20
  | Some n when n >= 1 -> n
  | Some n ->
      raise (Error (Printf.sprintf "max_errors must be at least 1 (got %d)" n))

(** One mode over [(name, source)] translation units — a single file is a
    project of one unit — with the whole-run and per-unit AST cache tiers
    layered over {!compile_units}. Recovers from lexer/parser errors:
    globals that fail to parse are dropped (with a diagnostic), function
    bodies that fail are demoted to prototypes and reported as degraded
    outcomes. Raises {!Error} for a [max_errors] below 1, and otherwise
    only for faults that leave nothing to analyze (e.g.
    [Cfront.Cprog.Frontend_error] from table construction). *)
let run_sources ?(mode = Analysis.Mono) ?rules ?field_sharing ?simplify
    ?compact ?budget ?max_errors ?cache (files : (string * string) list) :
    run =
  let me = error_budget max_errors in
  (* budgeted runs are load-dependent, not reproducible artifacts: never
     cached, never served from cache *)
  let cache = match budget with Some _ -> None | None -> cache in
  let t0 = Unix.gettimeofday () in
  let digests = List.map (fun (n, s) -> unit_digest n s) files in
  let optfp =
    match cache with
    | None -> ""
    | Some cs ->
        opt_fingerprint ~opts_id:cs.cs_opts_id ~mode ~field_sharing ~simplify
          ~compact ~max_errors
  in
  let rkey = run_key ~optfp digests in
  let run_hit =
    match cache with
    | None -> None
    | Some cs ->
        (load_marshal cs.cs_cache ~kind:"run" ~key:rkey ~deps:[]
          : cached_run option)
  in
  match run_hit with
  | Some cr -> run_of_cached cr ~t_lookup:(Unix.gettimeofday () -. t0)
  | None ->
      let co, unit_of_tbl = compile_units ?cache ~me files in
      let run, _, _, _ =
        finish ?rules ?field_sharing ?simplify ?compact ?budget
          ~locate:(locate_of_tbl unit_of_tbl) mode co
      in
      (match cache with
      | None -> ()
      | Some cs ->
          Cache.store cs.cs_cache ~kind:"run" ~key:rkey ~deps:[]
            (Marshal.to_string (cached_of_run run) []));
      run

(** The frontend alone — parse and link without analyzing. What the
    bench harness times and heap-profiles. [jobs] is accepted and
    ignored: it remains only because the perfbench tool passes it. *)
let compile_sources ?jobs:(_ : int option) ?max_errors
    (files : (string * string) list) : compiled =
  fst (compile_units ~me:(error_budget max_errors) files)

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

let table2_row ~name (src : string) : row =
  let prog, t_compile = time (fun () -> compile src) in
  let analyze mode =
    let _, _, results, _, t = analyze mode prog in
    (results, t)
  in
  let mono_results, mono_s = analyze Analysis.Mono in
  let poly_results, poly_s = analyze Analysis.Poly in
  {
    name;
    r_lines = Cfront.Cprog.count_lines src;
    compile_s = t_compile;
    mono_s;
    poly_s;
    declared = mono_results.Report.declared;
    mono = mono_results.Report.possible;
    poly = poly_results.Report.possible;
    total = mono_results.Report.total;
    mono_results;
    poly_results;
  }

(* ------------------------------------------------------------------ *)
(* The persistent session                                              *)
(* ------------------------------------------------------------------ *)

module Solver = Typequal.Solver
module Lat = Typequal.Lattice

(* one mode's warm artifacts: the solved store with its live interfaces
   and the stable-key index into it *)
type mode_state = {
  ms_run : run;
  ms_env : Analysis.env;
  ms_ifaces : (Cfront.Sym.t * Qtypes.fsig) list;
  ms_index :
    (string, Report.position * Report.verdict * Solver.var) Hashtbl.t;
}

type t = {
  s_rules : Analysis.qrules;
  s_default_mode : Analysis.mode;
  s_field_sharing : bool option;
  s_simplify : bool option;
  s_compact : bool option;
  s_max_errors : int;  (* the validated diagnostic budget *)
  s_cache : cache_spec option;
  (* the warm tier that survives invalidation: keyed by unit content
     digest, so a stale entry can never be served — an edit simply stops
     hitting it *)
  s_fe_memo : fe_memo;
  mutable s_units : (string * string) list;  (* (name, source), in order *)
  (* stages derived from the unit table; dropped on any unit edit *)
  mutable s_compiled : (compiled * string Cfront.Sym.Tbl.t) option;
  s_modes : (string, mode_state) Hashtbl.t;
}

(* [jobs] is accepted and ignored, for the perfbench tool *)
let create ?rules ?(mode = Analysis.Poly) ?field_sharing ?simplify ?compact
    ?max_errors ?jobs:(_ : int option) ?cache (units : (string * string) list)
    : t =
  {
    s_rules = Option.value rules ~default:Analysis.const_rules;
    s_default_mode = mode;
    s_field_sharing = field_sharing;
    s_simplify = simplify;
    s_compact = compact;
    s_max_errors = error_budget max_errors;
    s_cache = cache;
    s_fe_memo = { fm_tbl = Hashtbl.create 64; fm_hits = 0; fm_misses = 0 };
    s_units = units;
    s_compiled = None;
    s_modes = Hashtbl.create 4;
  }

let units t = List.map fst t.s_units
let default_mode t = t.s_default_mode

(* Drop the derived stages. The AST memo is kept: it is content-addressed,
   so the next compile re-parses only the edited units. *)
let invalidate t =
  t.s_compiled <- None;
  Hashtbl.reset t.s_modes

let update_unit t name src : [ `Added | `Updated | `Unchanged ] =
  let digest = unit_digest name src in
  let status = ref `Added in
  let rec go = function
    | [] -> [ (name, src) ]
    | (n, s) :: rest when n = name ->
        if unit_digest n s = digest then begin
          status := `Unchanged;
          (n, s) :: rest
        end
        else begin
          status := `Updated;
          (name, src) :: rest
        end
    | u :: rest -> u :: go rest
  in
  let units = go t.s_units in
  if !status <> `Unchanged then begin
    t.s_units <- units;
    invalidate t
  end;
  !status

let remove_unit t name : bool =
  let found = List.mem_assoc name t.s_units in
  if found then begin
    t.s_units <- List.remove_assoc name t.s_units;
    invalidate t
  end;
  found

let ensure_compiled t =
  match t.s_compiled with
  | Some c -> c
  | None ->
      if t.s_units = [] then raise (Error "session has no units");
      let c =
        compile_units ?cache:t.s_cache ~fe_memo:t.s_fe_memo ~me:t.s_max_errors
          t.s_units
      in
      t.s_compiled <- Some c;
      c

let ensure_mode t mode : mode_state =
  let key = mode_name mode in
  match Hashtbl.find_opt t.s_modes key with
  | Some ms -> ms
  | None ->
      let co, tbl = ensure_compiled t in
      let run, env, ifaces, classified =
        finish ~rules:t.s_rules ?field_sharing:t.s_field_sharing
          ?simplify:t.s_simplify ?compact:t.s_compact
          ~locate:(locate_of_tbl tbl) mode co
      in
      let ms =
        {
          ms_run = run;
          ms_env = env;
          ms_ifaces = ifaces;
          ms_index = Report.index_of classified;
        }
      in
      Hashtbl.replace t.s_modes key ms;
      ms

let mode_of t = function Some m -> m | None -> t.s_default_mode

(** Run one mode over the session's current units. Clean units replay
    their ASTs from the memo; the link and the analysis are the batch
    pipeline's. A repeat of an already-computed mode returns its state
    untouched. *)
let run ?mode t : run = (ensure_mode t (mode_of t mode)).ms_run

let diagnostics t : Cfront.Diag.t list = (fst (ensure_compiled t)).co_diags

(* the session's positions in report order, each with its canonical key
   and live solver variable *)
let indexed_positions (ms : mode_state) :
    (string * Report.position * Report.verdict * Solver.var) list =
  List.filter_map
    (fun ((p : Report.position), v) ->
      let k = Report.position_key p in
      match Hashtbl.find_opt ms.ms_index k with
      | Some (_, _, var) -> Some (k, p, v, var)
      | None -> None)
    ms.ms_run.results.Report.positions

(** Every interesting position with its canonical key and verdict. *)
let positions ?mode t :
    (string * Report.position * Report.verdict) list =
  let ms = ensure_mode t (mode_of t mode) in
  List.map (fun (k, p, v, _) -> (k, p, v)) (indexed_positions ms)

(** Answer "is this position must-const?" (or must-[qual]) by stable
    key — [unit:line:col@level] or the structural
    [unit:fun:pN@level] / [unit:fun:ret@level] alias. *)
let classify ?mode t key : (Report.position * Report.verdict) option =
  let ms = ensure_mode t (mode_of t mode) in
  Option.map
    (fun (p, v, _) -> (p, v))
    (Hashtbl.find_opt ms.ms_index key)

(** Explain why a position's qualifier variable is forced: the solver's
    violation/forcing path, or [None] when nothing binds it (its bounds
    are consistent). Unknown keys return [Error]. *)
let explain ?mode t key :
    (Report.position * Report.verdict * string option, string) result =
  let ms = ensure_mode t (mode_of t mode) in
  match Hashtbl.find_opt ms.ms_index key with
  | None -> Result.Error (Printf.sprintf "unknown position key %S" key)
  | Some (p, v, var) ->
      Ok (p, v, Solver.explain_var ms.ms_env.Analysis.store var)

(* ---- speculative queries (what-if) ---- *)

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

let verdict_of_solver = function
  | Solver.Forced_up -> Report.Must_const
  | Solver.Forced_down -> Report.Must_not_const
  | Solver.Free -> Report.Either

(** "What breaks if I add [$qual] here?" — split into a prepare step
    and an evaluation thunk, so the perfbench tool can time them apart.
    The prepare step snapshots the warm store ({!Solver.export}) and the
    baseline verdicts. The returned thunk clones the snapshot into a
    private store, adds the speculative annotation as a lower bound,
    re-solves incrementally, and diffs every position's verdict; it
    touches no session state, so it may run any number of times. *)
let whatif_task ?mode t ~qual key :
    ((unit -> whatif_result), string) result =
  let ms = ensure_mode t (mode_of t mode) in
  let store = ms.ms_env.Analysis.store in
  let sp = Solver.space store in
  match Hashtbl.find_opt ms.ms_index key with
  | None -> Result.Error (Printf.sprintf "unknown position key %S" key)
  | Some (_, _, var0) -> (
      match Lat.Space.find_opt sp qual with
      | None -> Result.Error (Printf.sprintf "unknown qualifier %S" qual)
      | Some _ ->
          let batch = Solver.export store in
          let snapshot =
            List.map
              (fun (k, (p : Report.position), _, var) ->
                ( k,
                  p.Report.p_fun,
                  verdict_of_solver (Solver.classify_name store var qual),
                  var ))
              (indexed_positions ms)
          in
          let errors_before = List.length (Solver.last_errors store) in
          Ok
            (fun () ->
              let clone = Solver.create sp in
              let rename = Solver.absorb clone batch in
              let tr v = Option.value (rename v) ~default:v in
              Solver.add_leq_cv
                ~reason:(Printf.sprintf "whatif $%s at %s" qual key)
                ~mask:(Lat.Elt.mask_of_names sp [ qual ])
                clone
                (Lat.Elt.of_names_up sp [ qual ])
                (tr var0);
              ignore (Solver.solve clone : (unit, _) result);
              let changed =
                List.filter_map
                  (fun (k, fname, before, var) ->
                    let after =
                      verdict_of_solver
                        (Solver.classify_name clone (tr var) qual)
                    in
                    if after = before then None
                    else
                      Some
                        {
                          wc_key = k;
                          wc_fun = fname;
                          wc_before = before;
                          wc_after = after;
                        })
                  snapshot
              in
              {
                w_key = key;
                w_qual = qual;
                w_changed = changed;
                w_errors_before = errors_before;
                w_errors_after = List.length (Solver.last_errors clone);
              }))

(** {!whatif_task} prepared and evaluated inline. *)
let whatif ?mode t ~qual key : (whatif_result, string) result =
  Result.map (fun f -> f ()) (whatif_task ?mode t ~qual key)

(* ---- session statistics ---- *)

type session_stats = {
  ss_units : int;
  ss_modes : string list;  (** warm (already analyzed) modes *)
  ss_memo_hits : int;
      (** per-unit AST memo: units whose parse was reused, summed over
          every compile of the session's life *)
  ss_memo_misses : int;  (** units that had to be lexed and parsed *)
  ss_cache : Typequal.Cache.stats option;  (** disk tiers, when attached *)
}

let stats t : session_stats =
  {
    ss_units = List.length t.s_units;
    ss_modes = List.of_seq (Hashtbl.to_seq_keys t.s_modes);
    ss_memo_hits = t.s_fe_memo.fm_hits;
    ss_memo_misses = t.s_fe_memo.fm_misses;
    ss_cache =
      Option.map (fun cs -> Typequal.Cache.stats cs.cs_cache) t.s_cache;
  }

(* ------------------------------------------------------------------ *)
(* Rendering (the batch CLIs' report block, shared with the daemon)    *)
(* ------------------------------------------------------------------ *)

let pp_mode_long ppf = function
  | Analysis.Mono -> Fmt.string ppf "monomorphic"
  | Analysis.Poly -> Fmt.string ppf "polymorphic"
  | Analysis.Polyrec -> Fmt.string ppf "polymorphic-recursive"

(** The per-run report exactly as [cqualc] prints it (stdout block only;
    diagnostics go to stderr and stay in the CLI). The daemon's [render]
    method returns this same text, which is what the CI smoke job diffs
    against a cold [cqualc] run. [jobs] is accepted and ignored: it
    remains only because the perfbench tool passes it. *)
let render_run ?(stats = false) ?(positions = false) ?jobs:(_ : int option)
    ~name mode (r : run) : string =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let res = r.results in
  pr "=== %s (%s) ===\n" name (Fmt.str "%a" pp_mode_long mode);
  let degraded =
    List.filter_map
      (fun (f, o) ->
        match o with
        | Analysis.Degraded reason -> Some (f, reason)
        | Analysis.Analyzed -> None)
      res.Report.outcomes
  in
  let n_analyzed = List.length res.Report.outcomes - List.length degraded in
  pr
    "lines: %d, functions: %d (%d analyzed, %d degraded), qualifier \
     variables: %d\n"
    r.lines
    (List.length res.Report.outcomes)
    n_analyzed (List.length degraded) r.n_constraints;
  List.iter (fun (f, reason) -> pr "degraded: %s: %s\n" f reason) degraded;
  if stats then begin
    pr "solver: %s\n" (Fmt.str "%a" Typequal.Solver.pp_stats r.solver_stats);
    pr "fdg: %d sccs, largest %d, wavefront width %d\n" r.fdg_scc_count
      r.fdg_largest_scc r.wavefront_width;
    match r.frontend with
    | Some fs ->
        pr
          "frontend: %d units, %d reparsed, lex %.3fs, parse %.3fs, build \
           %.3fs, link %.3fs\n"
          fs.fs_units fs.fs_reparsed fs.fs_lex_s fs.fs_parse_s fs.fs_build_s
          fs.fs_link_s
    | None -> ()
  end;
  pr
    "interesting const positions: %d total; %d declared, %d possible (%d \
     must-const, %d could-be-either), %d must-not\n"
    res.Report.total res.Report.declared res.Report.possible res.Report.must
    (res.Report.possible - res.Report.must)
    (res.Report.total - res.Report.possible);
  if res.Report.type_errors > 0 then
    pr "TYPE ERRORS: %d (const usage is inconsistent)\n"
      res.Report.type_errors;
  List.iter (fun w -> pr "warning: %s\n" w) res.Report.warnings;
  if positions then
    List.iter
      (fun pv -> pr "  %s\n" (Fmt.str "%a" Report.pp_position pv))
      res.Report.positions;
  Buffer.contents b

(** Render one mode of the session — the daemon's [render] method. *)
let render ?mode ?stats ?positions ?(name = "session") t : string =
  let m = mode_of t mode in
  render_run ?stats ?positions ~name m (ensure_mode t m).ms_run
