(* pbtool: the benchmark's own helper binary. It links the same library
   layers the shipped binaries compose and calls them from outside, with
   a span around each public call.

     pbtool gen SEED LINES DIR
         write Cbench.Gen.generate_project's files into DIR, plus DIR/MANIFEST
         (one file name per line, in link order); print a JSON summary.

     pbtool batch --jobs N --render OUT --spans OUT FILE...
         the cqualc --mode poly pipeline, composed step by step:
         compile_sources -> Analysis.run -> Report.measure_indexed ->
         Fdg.build -> render_run. The rendered report goes to --render.

     pbtool serve --jobs N --spans OUT FILE...
         a newline-delimited JSON-RPC loop on stdin/stdout answering the
         subset of typequald's methods the benchmark sends (run, update,
         classify, explain, whatif, render, shutdown) through Wire and
         Session, one request at a time.

   Spans are kept in memory and written to --spans as JSON lines when the
   command ends: name, id, parent id (-1 at top level), request id, start
   and end (seconds from the first span's start), minor words allocated
   and major collections during the span (Gc.quick_stat deltas); a last
   line holds the counters the layer calls returned. *)

open Cqual

type span = {
  s_id : int;
  s_parent : int;
  s_name : string;
  s_rid : int;
  s_t0 : float;
  s_t1 : float;
  s_minor_w : float;
  s_major : int;
}

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let current_rid = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      let g1 = Gc.quick_stat () in
      open_spans := List.tl !open_spans;
      spans :=
        {
          s_id = id;
          s_parent = parent;
          s_name = name;
          s_rid = !current_rid;
          s_t0 = t0;
          s_t1 = t1;
          s_minor_w = g1.Gc.minor_words -. g0.Gc.minor_words;
          s_major = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: !spans)
    f

let json_of_span s =
  Wire.Obj
    [
      ("name", Wire.Str s.s_name);
      ("id", Wire.num_int s.s_id);
      ("parent", Wire.num_int s.s_parent);
      ("rid", Wire.num_int s.s_rid);
      ("t0", Wire.Num s.s_t0);
      ("t1", Wire.Num s.s_t1);
      ("minor_w", Wire.Num s.s_minor_w);
      ("major", Wire.num_int s.s_major);
    ]

(* Wire prints floats with 12 significant digits, too few for epoch
   timestamps at microsecond grain: times are written relative to the
   first span. *)
let write_spans path extra =
  let t_base =
    List.fold_left (fun acc s -> Float.min acc s.s_t0) infinity !spans
  in
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      output_string oc
        (Wire.to_string
           (json_of_span { s with s_t0 = s.s_t0 -. t_base; s_t1 = s.s_t1 -. t_base }));
      output_char oc '\n')
    (List.rev !spans);
  output_string oc (Wire.to_string (Wire.Obj extra));
  output_char oc '\n';
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* The numbers the layer calls return                                  *)
(* ------------------------------------------------------------------ *)

let num k v = (k, Wire.Num v)
let int k v = (k, Wire.num_int v)

let returned_of_run (r : Session.run) : (string * Wire.json) list =
  let st = r.Session.solver_stats in
  let fe =
    match r.Session.frontend with
    | Some fs ->
        [
          num "lex_s" fs.Session.fs_lex_s;
          num "parse_s" fs.Session.fs_parse_s;
          num "build_s" fs.Session.fs_build_s;
          num "link_s" fs.Session.fs_link_s;
          int "units_reparsed" fs.Session.fs_reparsed;
        ]
    | None -> []
  in
  let par =
    match r.Session.par with
    | Some p ->
        [
          int "pool_tasks" p.Analysis.ps_tasks;
          num "pool_gen_s" p.Analysis.ps_gen_s;
          num "pool_merge_s" p.Analysis.ps_merge_s;
        ]
    | None -> [ int "pool_tasks" 0; num "pool_gen_s" 0.; num "pool_merge_s" 0. ]
  in
  fe @ par
  @ [
      int "lines" r.Session.lines;
      num "congen_s" st.Typequal.Solver.congen_s;
      num "generalize_s" st.Typequal.Solver.generalize_s;
      num "compact_s" st.Typequal.Solver.compact_s;
      num "instantiate_s" st.Typequal.Solver.instantiate_s;
      num "solve_s" st.Typequal.Solver.solve_s;
      num "absorb_s" st.Typequal.Solver.absorb_s;
      int "vars_created" st.Typequal.Solver.vars_created;
      int "edges_added" st.Typequal.Solver.edges_added;
      int "edges_deduped" st.Typequal.Solver.edges_deduped;
      int "worklist_pops" st.Typequal.Solver.worklist_pops;
      int "scheme_vars_before" st.Typequal.Solver.scheme_vars_before;
      int "scheme_vars_after" st.Typequal.Solver.scheme_vars_after;
      int "memo_hits" st.Typequal.Solver.instantiations_memo_hits;
      int "memo_candidates" st.Typequal.Solver.memo_candidates;
      int "fdg_sccs" r.Session.fdg_scc_count;
      int "fdg_largest_scc" r.Session.fdg_largest_scc;
      int "fdg_wavefront_width" r.Session.wavefront_width;
      int "report_positions" (List.length r.Session.results.Report.positions);
    ]

let gc_extra () =
  let g = Gc.quick_stat () in
  [
    int "gc_major_collections" g.Gc.major_collections;
    int "gc_top_heap_words" g.Gc.top_heap_words;
  ]

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen seed lines dir =
  let t0 = Unix.gettimeofday () in
  let files = Cbench.Gen.generate_project ~seed ~target_lines:lines () in
  let gen_s = Unix.gettimeofday () -. t0 in
  List.iter (fun (name, src) -> write_file (Filename.concat dir name) src) files;
  write_file
    (Filename.concat dir "MANIFEST")
    (String.concat "" (List.map (fun (name, _) -> name ^ "\n") files));
  print_endline
    (Wire.to_string
       (Wire.Obj
          [
            int "files" (List.length files);
            int "lines" (Cbench.Gen.project_lines files);
            num "gen_s" gen_s;
          ]));
  0

(* ------------------------------------------------------------------ *)
(* batch: the cqualc pipeline, one public call per span                *)
(* ------------------------------------------------------------------ *)

let batch ~jobs ~render_out ~spans_out paths =
  let mode = Analysis.Poly in
  let files = List.map (fun p -> (p, read_file p)) paths in
  let co = span "cfront.compile" (fun () -> Session.compile_sources ~jobs files) in
  let env, ifaces =
    span "analysis.run" (fun () -> Analysis.run ~jobs mode co.Session.co_prog)
  in
  let results, _index =
    span "report.measure" (fun () -> Report.measure_indexed env ifaces)
  in
  let fdg = span "fdg.build" (fun () -> Fdg.build co.Session.co_prog) in
  let results =
    {
      results with
      Report.outcomes =
        results.Report.outcomes
        @ List.map
            (fun (name, reason) -> (name, Analysis.Degraded reason))
            co.Session.co_degraded;
    }
  in
  let run =
    {
      Session.results;
      timing =
        {
          Session.t_compile = co.Session.co_t_compile;
          t_analysis = 0.;
        };
      lines = co.Session.co_lines;
      n_functions = List.length (Cfront.Cprog.functions co.Session.co_prog);
      n_constraints = Typequal.Solver.num_vars env.Analysis.store;
      solver_stats = Analysis.stats env;
      diagnostics = co.Session.co_diags;
      fdg_scc_count = Fdg.scc_count fdg;
      fdg_largest_scc = Fdg.largest_scc fdg;
      wavefront_width = Fdg.wavefront_width fdg;
      par = env.Analysis.par;
      frontend = co.Session.co_frontend;
    }
  in
  let text =
    span "render.run" (fun () ->
        Session.render_run ~jobs ~name:(String.concat "+" paths) mode run)
  in
  write_file render_out text;
  write_spans spans_out
    (returned_of_run run @ gc_extra () @ [ int "render_bytes" (String.length text) ]);
  0

(* ------------------------------------------------------------------ *)
(* serve: the typequald request path, one public call per span         *)
(* ------------------------------------------------------------------ *)

let verdict_str v = Fmt.str "%a" Report.pp_verdict v

let json_of_position key (p : Report.position) v =
  Wire.Obj
    [
      ("key", Wire.Str key);
      ("declared", Wire.Bool p.Report.p_declared);
      ("verdict", Wire.Str (verdict_str v));
    ]

let json_of_run (r : Session.run) =
  let res = r.Session.results in
  Wire.Obj
    [
      int "total" res.Report.total;
      int "declared" res.Report.declared;
      int "possible" res.Report.possible;
      int "must" res.Report.must;
      int "type_errors" res.Report.type_errors;
    ]

let json_of_whatif (w : Session.whatif_result) =
  Wire.Obj
    [
      ("key", Wire.Str w.Session.w_key);
      int "changed" (List.length w.Session.w_changed);
      int "errors_before" w.Session.w_errors_before;
      int "errors_after" w.Session.w_errors_after;
    ]

type state = {
  jobs : int;
  units : (string * string) list;
  mutable session : Session.t option;
  mutable last_run : Session.run option;
}

let answer st (rq : Wire.request) : (Wire.json, string) result =
  let params = rq.Wire.rq_params in
  let session () =
    match st.session with
    | Some s -> s
    | None -> failwith "no run yet"
  in
  let key () = Option.value (Wire.mem_string "key" params) ~default:"" in
  match rq.Wire.rq_method with
  | "run" ->
      let r =
        match st.session with
        | None ->
            span "session.create_run" (fun () ->
                let s = Session.create ~jobs:st.jobs st.units in
                st.session <- Some s;
                Session.run s)
        | Some s -> span "session.rerun" (fun () -> Session.run s)
      in
      st.last_run <- Some r;
      Ok (json_of_run r)
  | "update" -> (
      match
        (Wire.mem_string "name" params, Wire.mem_string "source" params)
      with
      | Some name, Some src ->
          let status =
            span "session.update" (fun () ->
                Session.update_unit (session ()) name src)
          in
          Ok
            (Wire.Obj
               [
                 ( "status",
                   Wire.Str
                     (match status with
                     | `Added -> "added"
                     | `Updated -> "updated"
                     | `Unchanged -> "unchanged") );
               ])
      | _ -> Error "update wants {name, source}")
  | "classify" -> (
      let k = key () in
      match span "session.classify" (fun () -> Session.classify (session ()) k) with
      | Some (p, v) -> Ok (json_of_position k p v)
      | None -> Error (Printf.sprintf "unknown position key %S" k))
  | "explain" -> (
      let k = key () in
      match span "session.explain" (fun () -> Session.explain (session ()) k) with
      | Ok (p, v, e) ->
          Ok
            (Wire.Obj
               [
                 ("position", json_of_position k p v);
                 ( "explanation",
                   match e with Some e -> Wire.Str e | None -> Wire.Null );
               ])
      | Error m -> Error m)
  | "whatif" -> (
      let qual = Option.value (Wire.mem_string "qual" params) ~default:"" in
      let k = key () in
      match
        span "session.whatif_prepare" (fun () ->
            Session.whatif_task (session ()) ~qual k)
      with
      | Ok thunk -> Ok (json_of_whatif (span "session.whatif_eval" thunk))
      | Error m -> Error m)
  | "render" ->
      let name = Option.value (Wire.mem_string "name" params) ~default:"session" in
      Ok
        (Wire.Obj
           [
             ( "text",
               Wire.Str
                 (span "render.session" (fun () -> Session.render ~name (session ())))
             );
           ])
  | "shutdown" -> Ok (Wire.Obj [ ("ok", Wire.Bool true) ])
  | m -> Error (Printf.sprintf "unknown method %S" m)

let serve ~jobs ~spans_out paths =
  let st =
    {
      jobs;
      units = List.map (fun p -> (p, read_file p)) paths;
      session = None;
      last_run = None;
    }
  in
  let quit = ref false in
  while not !quit do
    match In_channel.input_line stdin with
    | None -> quit := true
    | Some line when String.trim line = "" -> ()
    | Some line ->
        current_rid := 0;
        let resp =
          match span "wire.decode" (fun () -> Wire.parse_request line) with
          | Error m -> Wire.response_error ~id:Wire.Null ("bad request: " ^ m)
          | Ok rq ->
              (match rq.Wire.rq_id with
              | Wire.Num f -> current_rid := int_of_float f
              | _ -> ());
              if rq.Wire.rq_method = "shutdown" then quit := true;
              let result =
                try answer st rq with
                | Session.Error m | Failure m -> Error m
                | Cfront.Cprog.Frontend_error m -> Error ("frontend: " ^ m)
              in
              span "wire.encode" (fun () ->
                  match result with
                  | Ok j -> Wire.response_ok ~id:rq.Wire.rq_id j
                  | Error m -> Wire.response_error ~id:rq.Wire.rq_id m)
        in
        print_string resp;
        print_char '\n';
        flush stdout
  done;
  let extra =
    (match st.last_run with Some r -> returned_of_run r | None -> [])
    @ gc_extra ()
    @
    match st.session with
    | Some s ->
        let ss = Session.stats s in
        [
          int "session_memo_hits" ss.Session.ss_memo_hits;
          int "session_memo_misses" ss.Session.ss_memo_misses;
        ]
    | None -> []
  in
  write_spans spans_out extra;
  0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: pbtool gen SEED LINES DIR\n\
    \       pbtool batch --jobs N --render OUT --spans OUT FILE...\n\
    \       pbtool serve --jobs N --spans OUT FILE...";
  2

let () =
  (match Typequal.Gctune.setup () with Ok _ -> () | Error _ -> ());
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | ("--jobs" | "--render" | "--spans") as k :: v :: rest ->
        opts ((k, v) :: acc) rest
    | rest -> (acc, rest)
  in
  let code =
    match args with
    | [ "gen"; seed; lines; dir ] -> (
        match (int_of_string_opt seed, int_of_string_opt lines) with
        | Some seed, Some lines -> gen seed lines dir
        | _ -> usage ())
    | cmd :: rest -> (
        let o, files = opts [] rest in
        let get k = List.assoc_opt k o in
        let jobs = Option.bind (get "--jobs") int_of_string_opt in
        match (cmd, jobs, get "--render", get "--spans", files) with
        | "batch", Some jobs, Some render_out, Some spans_out, _ :: _ ->
            batch ~jobs ~render_out ~spans_out files
        | "serve", Some jobs, None, Some spans_out, _ :: _ ->
            serve ~jobs ~spans_out files
        | _ -> usage ())
    | [] -> usage ()
  in
  exit code
