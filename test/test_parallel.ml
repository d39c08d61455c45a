(* The [--jobs] contract: a job count never changes a report. Every run
   is serial; the entry points that still take [?jobs] (the session, the
   frontend, the analysis and the renderer) accept and ignore it. These
   tests guard that no job-count-dependent path creeps back in —
   including under faults and budget exhaustion. *)

module Budget = Typequal.Budget
module Solver = Typequal.Solver
open Cqual

(* ---------------- determinism: any jobs == serial ---------------- *)

(* Everything observable from a run, rendered to a string: per-position
   verdicts, counts, warnings, per-function outcomes, and the solver's
   structural counters. Wall-clock fields are excluded; all else must be
   identical across job counts. *)
let digest (r : Session.run) : string =
  let b = Buffer.create 1024 in
  let res = r.Session.results in
  List.iter
    (fun pv -> Buffer.add_string b (Fmt.str "%a\n" Report.pp_position pv))
    res.Report.positions;
  Buffer.add_string b
    (Printf.sprintf "declared=%d possible=%d must=%d total=%d errors=%d\n"
       res.Report.declared res.Report.possible res.Report.must
       res.Report.total res.Report.type_errors);
  List.iter (fun w -> Buffer.add_string b ("warning " ^ w ^ "\n")) res.Report.warnings;
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

let modes =
  [ ("mono", Analysis.Mono); ("poly", Analysis.Poly); ("polyrec", Analysis.Polyrec) ]

(* a run through the session, which still accepts a job count *)
let session_run ?rules ~jobs mode files =
  Session.run (Session.create ?rules ~mode ~jobs files)

let test_parallel_deterministic () =
  (* random programs, every mode: a jobs-4 run must be observably
     identical to the jobs-1 run, down to the solver counters *)
  List.iter
    (fun seed ->
      let src = Cbench.Gen.generate ~seed ~target_lines:400 () in
      List.iter
        (fun (mname, mode) ->
          let serial = Session.run_sources ~mode [ ("<input>", src) ] in
          let par = session_run ~jobs:4 mode [ ("<input>", src) ] in
          Alcotest.(check string)
            (Printf.sprintf "seed %d %s: jobs 4 = jobs 1" seed mname)
            (digest serial) (digest par))
        modes)
    [ 11; 12; 13 ]

let test_parallel_deterministic_taint () =
  let src = Cbench.Gen.generate ~seed:14 ~target_lines:300 () in
  let rules = Analysis.taint_rules in
  List.iter
    (fun (mname, mode) ->
      let serial = Session.run_sources ~rules ~mode [ ("<input>", src) ] in
      let par = session_run ~rules ~jobs:2 mode [ ("<input>", src) ] in
      Alcotest.(check string)
        (Printf.sprintf "taint %s: jobs 2 = jobs 1" mname)
        (digest serial) (digest par))
    modes

let test_parallel_repeatable () =
  (* the same jobs-4 run twice: nothing nondeterministic may leak *)
  let src = Cbench.Gen.generate ~seed:15 ~target_lines:400 () in
  let a = session_run ~jobs:4 Analysis.Poly [ ("<input>", src) ] in
  let b = session_run ~jobs:4 Analysis.Poly [ ("<input>", src) ] in
  Alcotest.(check string) "two jobs-4 runs agree" (digest a) (digest b)

(* The perfbench tool's batch path hands [~jobs] to the frontend, the
   analysis and the renderer: each must behave exactly as without it,
   down to the rendered [--stats] block. *)
let test_ignored_jobs_arguments () =
  let files = Cbench.Programs.miniproject in
  let co = Session.compile_sources files in
  let co4 = Session.compile_sources ~jobs:4 files in
  Alcotest.(check (list string))
    "compile_sources: diagnostics"
    (List.map Cfront.Diag.to_string co.Session.co_diags)
    (List.map Cfront.Diag.to_string co4.Session.co_diags);
  List.iter
    (fun (mname, mode) ->
      let measure ?jobs () =
        let env, ifaces = Analysis.run ?jobs mode co4.Session.co_prog in
        Report.measure env ifaces
      in
      Alcotest.(check bool)
        (mname ^ ": Analysis.run results")
        true
        (measure () = measure ~jobs:4 ());
      let r = Session.run_sources ~mode files in
      let render ?jobs () =
        Session.render_run ~stats:true ~positions:true ?jobs ~name:"p" mode r
      in
      Alcotest.(check string)
        (mname ^ ": render_run")
        (render ()) (render ~jobs:4 ()))
    modes

(* ---------------- degradation ---------------- *)

let test_budget_exhaustion_parallel () =
  (* a budget that trips mid-run: the analysis must degrade —
     every function still gets an outcome, nothing crashes, and the
     report is produced (the CLI exits 0 on this path) *)
  let src = Cbench.Gen.generate ~seed:16 ~target_lines:600 () in
  List.iter
    (fun (mname, mode) ->
      let budget = Budget.create ~max_vars:60 ~clock:Unix.gettimeofday () in
      let r = Session.run_sources ~mode ~budget [ ("<input>", src) ] in
      let res = r.Session.results in
      let degraded =
        List.filter
          (fun (_, o) -> match o with Analysis.Degraded _ -> true | _ -> false)
          res.Report.outcomes
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: budget tripped somewhere" mname)
        true
        (List.length degraded > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: every function has an outcome" mname)
        true
        (List.length res.Report.outcomes >= r.Session.n_functions))
    modes

let test_faulting_scc_isolated () =
  (* [use] faults during analysis (its typedef was lost to parser
     recovery, so interface construction raises): batch and through
     the session at jobs 4, the fault degrades that function only *)
  let src =
    "typedef int T, 5;\n\
     int use(T *p) { return *p; }\n\
     int ok(int *q) { return *q; }\n\
     int caller(int *r) { return use(r) + ok(r); }\n"
  in
  let serial =
    Session.run_sources ~mode:Analysis.Poly [ ("<input>", src) ]
  in
  let par = session_run ~jobs:4 Analysis.Poly [ ("<input>", src) ] in
  List.iter
    (fun r ->
      let outcome f = List.assoc f r.Session.results.Report.outcomes in
      (match outcome "ok" with
      | Analysis.Analyzed -> ()
      | Analysis.Degraded why -> Alcotest.failf "ok degraded: %s" why);
      match outcome "use" with
      | Analysis.Degraded _ -> ()
      | Analysis.Analyzed -> Alcotest.fail "use should degrade")
    [ serial; par ];
  (* and the two agree on the whole report *)
  Alcotest.(check string) "fault parity" (digest serial) (digest par)

(* the job-count cases keep positions 4 and 5, by which recorded test
   results name them *)
let tests =
  [
    Alcotest.test_case "parallel runs repeatable" `Quick
      test_parallel_repeatable;
    Alcotest.test_case "budget exhaustion degrades gracefully" `Slow
      test_budget_exhaustion_parallel;
    Alcotest.test_case "faulting function isolated under parallelism" `Quick
      test_faulting_scc_isolated;
    Alcotest.test_case "ignored jobs: compile, analyze, render" `Quick
      test_ignored_jobs_arguments;
    Alcotest.test_case "jobs 4 = jobs 1 (const, all modes)" `Slow
      test_parallel_deterministic;
    Alcotest.test_case "jobs 2 = jobs 1 (taint, all modes)" `Slow
      test_parallel_deterministic_taint;
  ]
