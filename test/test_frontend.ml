(* The per-unit frontend: parity with a test-only model of the
   whole-program (concatenate, then parse once) frontend, unit-boundary
   diagnostic positions, cross-unit parser-environment threading
   (typedef / enum-constant / anonymous-tag reparses), the diagnostic
   budget crossing unit boundaries, the per-unit AST cache tier, and the
   outcome-list construction on many-degraded programs. *)

open Cqual
module Diag = Cfront.Diag
module Cparse = Cfront.Cparse
module Solver = Typequal.Solver

(* everything observable from a run: the test_parallel digest plus the
   rendered diagnostics (unit prefix and all) *)
let digest (r : Session.run) : string =
  let b = Buffer.create 1024 in
  let res = r.Session.results in
  List.iter
    (fun d -> Buffer.add_string b (Diag.to_string d ^ "\n"))
    r.Session.diagnostics;
  List.iter
    (fun pv -> Buffer.add_string b (Fmt.str "%a\n" Report.pp_position pv))
    res.Report.positions;
  Buffer.add_string b
    (Printf.sprintf "lines=%d declared=%d possible=%d must=%d total=%d \
                     errors=%d\n"
       r.Session.lines res.Report.declared res.Report.possible res.Report.must
       res.Report.total res.Report.type_errors);
  List.iter
    (fun w -> Buffer.add_string b ("warning " ^ w ^ "\n"))
    res.Report.warnings;
  List.iter
    (fun (f, o) ->
      Buffer.add_string b
        (match o with
        | Analysis.Analyzed -> "analyzed " ^ f ^ "\n"
        | Analysis.Degraded why -> "degraded " ^ f ^ ": " ^ why ^ "\n"))
    res.Report.outcomes;
  let st = r.Session.solver_stats in
  Buffer.add_string b
    (Printf.sprintf "vars=%d unified=%d edges=%d deduped=%d cycles=%d pops=%d\n"
       st.Solver.vars_created st.Solver.vars_unified st.Solver.edges_added
       st.Solver.edges_deduped st.Solver.cycles_collapsed
       st.Solver.worklist_pops);
  Buffer.contents b

let run ?mode ?jobs ?max_errors files =
  Session.run_sources ?mode ?jobs ?max_errors files

(* what the whole-program frontend must agree on with the per-unit one,
   leaving out everything that carries a line: the report counts,
   outcome names and kinds, solver counters, and the diagnostics as a
   sorted (code, message) list *)
let projection (res : Report.results) (st : Solver.stats) diags : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "declared=%d possible=%d must=%d total=%d errors=%d\n"
    res.Report.declared res.Report.possible res.Report.must res.Report.total
    res.Report.type_errors;
  List.iter
    (fun (f, o) ->
      Printf.bprintf b "%s %s\n"
        (match o with
        | Analysis.Analyzed -> "analyzed"
        | Analysis.Degraded _ -> "degraded")
        f)
    res.Report.outcomes;
  Printf.bprintf b "vars=%d unified=%d edges=%d deduped=%d cycles=%d pops=%d\n"
    st.Solver.vars_created st.Solver.vars_unified st.Solver.edges_added
    st.Solver.edges_deduped st.Solver.cycles_collapsed st.Solver.worklist_pops;
  List.iter
    (fun (code, msg) -> Printf.bprintf b "%s %s\n" code msg)
    (List.sort compare
       (List.map (fun d -> (d.Diag.d_code, d.Diag.d_message)) diags));
  Buffer.contents b

(* The test-only model of the whole-program frontend: join the units
   into one text, each behind a comment naming its file, parse it once,
   then build, analyze and measure it. *)
let concat_model ?(mode = Analysis.Mono) ?(max_errors = 20) files : string =
  let src =
    String.concat ""
      (List.map
         (fun (name, s) ->
           let nl =
             if s <> "" && s.[String.length s - 1] <> '\n' then "\n" else ""
           in
           Printf.sprintf "/* === %s === */\n%s%s" name s nl)
         files)
  in
  let pr = Cparse.parse_program_partial ~max_errors src in
  let env, ifaces =
    Analysis.run mode (Cfront.Cprog.build pr.Cparse.pr_prog)
  in
  let res = Report.measure env ifaces in
  let res =
    {
      res with
      Report.outcomes =
        res.Report.outcomes
        @ List.map
            (fun (f, why) -> (f, Analysis.Degraded why))
            pr.Cparse.pr_degraded;
    }
  in
  projection res (Analysis.stats env) pr.Cparse.pr_diags

(* the per-unit frontend agrees with itself across job counts on
   everything observable, and with the whole-program model on the
   line-free projection *)
let check_parity ?mode ?max_errors what files =
  let r1 = run ?mode ?max_errors ~jobs:1 files in
  let d0 = digest r1 in
  Alcotest.(check string) (what ^ ": per-unit jobs 4") d0
    (digest (run ?mode ?max_errors ~jobs:4 files));
  Alcotest.(check string) (what ^ ": whole-program model")
    (concat_model ?mode ?max_errors files)
    (projection r1.Session.results r1.Session.solver_stats
       r1.Session.diagnostics);
  d0

(* ---------------- parity on generated projects ---------------- *)

let test_parity_generated () =
  List.iter
    (fun seed ->
      let files =
        Cbench.Gen.generate_project ~seed ~target_lines:2000 ()
      in
      List.iter
        (fun (mname, mode) ->
          ignore
            (check_parity ~mode
               (Printf.sprintf "seed %d %s" seed mname)
               files))
        [ ("mono", Analysis.Mono); ("poly", Analysis.Poly) ])
    [ 21; 22 ]

(* ---------------- unit-boundary diagnostics ---------------- *)

let test_unit_boundary_positions () =
  (* a parse error on line 1 of the third file must be reported as
     third-file line 1, not as an offset into a concatenated program *)
  let files =
    [
      ("a.c", "int f(int x) { return x; }\n");
      ("b.c", "int g(int y) { return y; }\n");
      ("c.c", "int 5broken;\nint h(int z) { return z; }\n");
    ]
  in
  let check_diags label r =
    match r.Session.diagnostics with
    | [ d ] ->
        Alcotest.(check string) (label ^ ": unit") "c.c"
          (Option.value d.Diag.d_unit ~default:"<none>");
        Alcotest.(check int) (label ^ ": line") 1 d.Diag.d_span.Diag.sl
    | ds -> Alcotest.failf "%s: expected 1 diagnostic, got %d" label
              (List.length ds)
  in
  check_diags "per-unit" (run ~mode:Analysis.Mono files);
  ignore (check_parity ~mode:Analysis.Mono "boundary diag" files)

(* ---------------- cross-unit environment threading ---------------- *)

let frontend_stats (r : Session.run) =
  match r.Session.frontend with
  | Some fs -> fs
  | None -> Alcotest.fail "expected per-unit frontend stats"

let test_typedef_threading () =
  (* unit 2 uses a typedef exported by unit 1: its speculative parse
     (which reads [myint x;] as two declarations) must be discarded and
     redone with the linked environment *)
  let files =
    [
      ("header.c", "typedef int myint;\n");
      ("use.c", "myint global_x;\nint f(myint m) { return m; }\n");
    ]
  in
  let r = run ~mode:Analysis.Mono files in
  Alcotest.(check bool) "use.c reparsed" true
    ((frontend_stats r).Session.fs_reparsed >= 1);
  Alcotest.(check (list string)) "no diagnostics" []
    (List.map Diag.to_string r.Session.diagnostics);
  ignore (check_parity ~mode:Analysis.Mono "typedef threading" files)

let test_enum_threading () =
  let files =
    [
      ("header.c", "enum color { RED, GREEN = 5, BLUE };\n");
      ("use.c", "int f(void) { return GREEN + BLUE; }\n");
    ]
  in
  let r = run ~mode:Analysis.Mono files in
  Alcotest.(check bool) "use.c reparsed" true
    ((frontend_stats r).Session.fs_reparsed >= 1);
  ignore (check_parity ~mode:Analysis.Mono "enum threading" files)

let test_anon_tag_threading () =
  (* anonymous struct tags are numbered program-wide in a whole-program
     parse; a later unit with its own anonymous tag must be re-parsed
     with the running counter so the generated tags match *)
  let files =
    [
      ("a.c", "struct { int x; } g_a;\n");
      ("b.c", "struct { int y; } g_b;\nint f(void) { return g_b.y; }\n");
    ]
  in
  let r = run ~mode:Analysis.Mono files in
  Alcotest.(check bool) "b.c reparsed" true
    ((frontend_stats r).Session.fs_reparsed >= 1);
  ignore (check_parity ~mode:Analysis.Mono "anon tags" files)

let test_independent_units_not_reparsed () =
  let files =
    [
      ("a.c", "int f(int x) { return x; }\n");
      ("b.c", "int g(int y) { return y; }\n");
    ]
  in
  let r = run ~mode:Analysis.Mono files in
  Alcotest.(check int) "no reparses" 0
    (frontend_stats r).Session.fs_reparsed;
  Alcotest.(check int) "two units" 2 (frontend_stats r).Session.fs_units

(* ---------------- diagnostic budget across units ---------------- *)

let bad_decls n = String.concat "" (List.init n (fun _ -> "int 5;\n"))

let test_budget_crosses_boundary () =
  (* 3 parse errors in unit 1, budget 5: unit 2's errors must keep
     counting from 3, so the cap (and its E0299 note) fires inside
     unit 2, as in the whole-program model *)
  let files =
    [
      ("a.c", bad_decls 3 ^ "int f(int x) { return x; }\n");
      ("b.c", bad_decls 4 ^ "int g(int y) { return y; }\n");
    ]
  in
  let d = check_parity ~mode:Analysis.Mono ~max_errors:5 "budget" files in
  Alcotest.(check bool) "cap fired in b.c" true
    (let r = run ~mode:Analysis.Mono ~max_errors:5 files in
     List.exists
       (fun dg ->
         dg.Diag.d_code = "E0299" && dg.Diag.d_unit = Some "b.c")
       r.Session.diagnostics);
  Alcotest.(check bool) "digest mentions the cap" true
    (let sub = "E0299" in
     let n = String.length d and m = String.length sub in
     let rec go i = i + m <= n && (String.sub d i m = sub || go (i + 1)) in
     go 0)

let test_budget_exact_boundary () =
  (* the budget runs out exactly at the unit boundary: a whole-program
     parse gives up at the next unit's first token, so the per-unit link
     must synthesize the E0299 note there without parsing the unit *)
  let files =
    [
      ("a.c", bad_decls 2);
      ("b.c", "int g(int y) { return y; }\n");
    ]
  in
  ignore (check_parity ~mode:Analysis.Mono ~max_errors:2 "exact boundary" files);
  let r = run ~mode:Analysis.Mono ~max_errors:2 files in
  (match List.rev r.Session.diagnostics with
  | last :: _ ->
      Alcotest.(check string) "E0299 last" "E0299" last.Diag.d_code;
      Alcotest.(check string) "in b.c" "b.c"
        (Option.value last.Diag.d_unit ~default:"<none>")
  | [] -> Alcotest.fail "expected diagnostics");
  (* b.c was never parsed: g contributes no outcome *)
  Alcotest.(check bool) "g not parsed" true
    (not (List.mem_assoc "g" r.Session.results.Report.outcomes))

(* ---------------- many degraded functions (outcome construction) ----- *)

let test_many_degraded_outcomes () =
  (* thousands of demoted bodies: the outcome list must come back
     complete and in program order (and its construction must not be
     quadratic in the degraded count) *)
  let n = 2000 in
  let src =
    String.concat ""
      (List.init n (fun i ->
           Printf.sprintf "int f%04d(int *p) { return * ; }\n" i))
  in
  let r =
    Session.run_sources ~mode:Analysis.Mono ~max_errors:(n + 1)
      [ ("<input>", src) ]
  in
  let outs = r.Session.results.Report.outcomes in
  Alcotest.(check int) "all functions have outcomes" n (List.length outs);
  List.iteri
    (fun i (name, o) ->
      if name <> Printf.sprintf "f%04d" i then
        Alcotest.failf "outcome %d out of order: %s" i name;
      match o with
      | Analysis.Degraded _ -> ()
      | Analysis.Analyzed -> Alcotest.failf "%s unexpectedly analyzed" name)
    outs

(* ---------------- per-unit AST cache ---------------- *)

let with_cache_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "typequal-test-frontend-%d-%d" (Unix.getpid ())
         (Hashtbl.hash f))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      try
        Array.iter
          (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
          (Sys.readdir dir);
        Sys.rmdir dir
      with Sys_error _ -> ())
    (fun () -> f dir)

let unit_counts (cs : Session.cache_spec) =
  match
    Hashtbl.find_opt (Typequal.Cache.stats cs.Session.cs_cache).Typequal.Cache.by_kind
      "unit"
  with
  | Some hm -> hm
  | None -> (0, 0)

let test_dirty_unit_reparses_one () =
  with_cache_dir (fun dir ->
      let files = Cbench.Gen.generate_project ~seed:31 ~target_lines:1500 () in
      let nunits = List.length files in
      Alcotest.(check bool) "project has several units" true (nunits > 1);
      let open_cs () =
        match Session.open_cache ~opts_id:"test" dir with
        | Some cs -> cs
        | None -> Alcotest.fail "cannot open cache"
      in
      let cs = open_cs () in
      let r_cold = Session.run_sources ~mode:Analysis.Mono ~cache:cs files in
      Alcotest.(check (pair int int)) "cold: all units miss" (0, nunits)
        (unit_counts cs);
      let dirty =
        match List.rev files with
        | (name, src) :: rest ->
            List.rev ((name, src ^ "/* touched */\n") :: rest)
        | [] -> assert false
      in
      let cs2 = open_cs () in
      let r_dirty = Session.run_sources ~mode:Analysis.Mono ~cache:cs2 dirty in
      Alcotest.(check (pair int int)) "dirty: one unit re-parses"
        (nunits - 1, 1) (unit_counts cs2);
      (* the touched comment changes no report content except the line
         count *)
      Alcotest.(check int) "same verdicts"
        r_cold.Session.results.Report.possible
        r_dirty.Session.results.Report.possible)

(* ---------------- oversubscription warning predicate ---------------- *)

let test_oversubscription () =
  let cores = Typequal.Pool.cores_available () in
  Alcotest.(check (option int)) "jobs=1 never oversubscribes" None
    (Session.oversubscription ~jobs:1);
  Alcotest.(check (option int)) "cores+1 oversubscribes" (Some cores)
    (Session.oversubscription ~jobs:(cores + 1));
  Alcotest.(check (option int)) "jobs=cores fits" None
    (Session.oversubscription ~jobs:cores)

(* ---------------- domains share no scanner state ---------------- *)

(* Units dense in constructs whose spans start before their last lexeme
   (multi-line strings and comments) and in lexical errors, including
   unterminated constructs: lexed on 4 domains at once, every span and
   diagnostic must match the serial frontend's. *)
let test_jobs_scanner_isolation () =
  let unit_src i =
    let b = Buffer.create 4096 in
    for k = 1 to 60 do
      Printf.bprintf b
        "/* unit %d block %d\n   spans\n   lines */\n\
         char *s%d_%d = \"multi\nline \\\"%d\\\"\n\
         string\";\n\
         int f%d_%d(const char *p) { /* inner\n */ return *p + '\\n'; }\n\
         int big%d_%d = 99999999999999999999;\n@\n"
        i k i k k i k i k
    done;
    (match i mod 3 with
    | 0 -> Buffer.add_string b "char *open = \"never\nclosed;\n"
    | 1 -> Buffer.add_string b "/* never\nclosed\n"
    | _ -> ());
    (Printf.sprintf "u%02d.c" i, Buffer.contents b)
  in
  let files = List.init 12 unit_src in
  let fingerprint (co : Session.compiled) =
    ( List.map Diag.to_string co.Session.co_diags,
      Marshal.to_string co.Session.co_prog.Cfront.Cprog.order [] )
  in
  let compile jobs =
    fingerprint (Session.compile_sources ~jobs ~max_errors:10_000 files)
  in
  let d1, p1 = compile 1 and d4, p4 = compile 4 in
  Alcotest.(check bool) "diagnostics present" true (List.length d1 > 12 * 60);
  Alcotest.(check (list string)) "diagnostics" d1 d4;
  Alcotest.(check bool) "programs" true (String.equal p1 p4)

let tests =
  [
    Alcotest.test_case "parity on generated projects" `Quick
      test_parity_generated;
    Alcotest.test_case "jobs 4 = jobs 1 on string/comment-heavy units" `Quick
      test_jobs_scanner_isolation;
    Alcotest.test_case "unit-boundary diagnostic positions" `Quick
      test_unit_boundary_positions;
    Alcotest.test_case "typedef threading forces reparse" `Quick
      test_typedef_threading;
    Alcotest.test_case "enum-constant threading forces reparse" `Quick
      test_enum_threading;
    Alcotest.test_case "anonymous-tag numbering forces reparse" `Quick
      test_anon_tag_threading;
    Alcotest.test_case "independent units parse speculatively" `Quick
      test_independent_units_not_reparsed;
    Alcotest.test_case "diagnostic budget crosses unit boundary" `Quick
      test_budget_crosses_boundary;
    Alcotest.test_case "budget exhausted exactly at a boundary" `Quick
      test_budget_exact_boundary;
    Alcotest.test_case "many degraded functions: outcomes complete" `Quick
      test_many_degraded_outcomes;
    Alcotest.test_case "dirty unit re-parses exactly one unit" `Quick
      test_dirty_unit_reparses_one;
    Alcotest.test_case "oversubscription predicate" `Quick
      test_oversubscription;
  ]
