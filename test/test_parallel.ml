(* The domain pool, and the [--jobs] contract: a job count never changes
   a report. The analysis is serial at every job count (only the per-unit
   frontend parse and what-if batches use the pool), so these tests guard
   that no job-count-dependent path creeps back in — including under
   faults and budget exhaustion. Multi-file runs, where the pool actually
   parses units, are covered by the arena, frontend, session and cache
   suites at jobs 1 and 4. *)

module Pool = Typequal.Pool
module Budget = Typequal.Budget
module Solver = Typequal.Solver
open Cqual

(* ---------------- the domain pool itself ---------------- *)

let test_pool_runs_everything () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = Atomic.make 0 in
      for _ = 1 to 200 do
        Pool.submit pool (fun () -> Atomic.incr n)
      done;
      Pool.wait pool;
      Alcotest.(check int) "all tasks ran" 200 (Atomic.get n))

let test_pool_nested_submit () =
  (* tasks submitting tasks: wait drains transitively *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let n = Atomic.make 0 in
      for _ = 1 to 10 do
        Pool.submit pool (fun () ->
            Atomic.incr n;
            Pool.submit pool (fun () -> Atomic.incr n))
      done;
      Pool.wait pool;
      Alcotest.(check int) "children too" 20 (Atomic.get n))

let test_pool_funnels_exceptions () =
  match
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.submit pool (fun () -> failwith "boom");
        Pool.wait pool)
  with
  | () -> Alcotest.fail "expected the funneled exception"
  | exception Failure m -> Alcotest.(check string) "first exception" "boom" m

let test_pool_serial_inline () =
  (* jobs <= 1: no domains, tasks run inline in submission order *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let order = ref [] in
      List.iter
        (fun i -> Pool.submit pool (fun () -> order := i :: !order))
        [ 1; 2; 3 ];
      Pool.wait pool;
      Alcotest.(check (list int)) "submission order" [ 1; 2; 3 ]
        (List.rev !order))

(* ---------------- determinism: jobs=4 == jobs=1 ---------------- *)

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

let test_parallel_deterministic () =
  (* random programs, every mode: a jobs-4 run must be observably
     identical to the jobs-1 run, down to the solver counters *)
  List.iter
    (fun seed ->
      let src = Cbench.Gen.generate ~seed ~target_lines:400 () in
      List.iter
        (fun (mname, mode) ->
          let serial = Session.run_sources ~mode ~jobs:1 [ ("<input>", src) ] in
          let par = Session.run_sources ~mode ~jobs:4 [ ("<input>", src) ] in
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
      let serial =
        Session.run_sources ~rules ~mode ~jobs:1 [ ("<input>", src) ]
      in
      let par = Session.run_sources ~rules ~mode ~jobs:2 [ ("<input>", src) ] in
      Alcotest.(check string)
        (Printf.sprintf "taint %s: jobs 2 = jobs 1" mname)
        (digest serial) (digest par))
    modes

let test_parallel_repeatable () =
  (* the same jobs-4 run twice: nothing nondeterministic may leak *)
  let src = Cbench.Gen.generate ~seed:15 ~target_lines:400 () in
  let a =
    Session.run_sources ~mode:Analysis.Poly ~jobs:4 [ ("<input>", src) ]
  in
  let b =
    Session.run_sources ~mode:Analysis.Poly ~jobs:4 [ ("<input>", src) ]
  in
  Alcotest.(check string) "two jobs-4 runs agree" (digest a) (digest b)

(* ---------------- degradation at jobs > 1 ---------------- *)

let test_budget_exhaustion_parallel () =
  (* a budget that trips mid-run at jobs 4: the analysis must degrade —
     every function still gets an outcome, nothing crashes, and the
     report is produced (the CLI exits 0 on this path) *)
  let src = Cbench.Gen.generate ~seed:16 ~target_lines:600 () in
  List.iter
    (fun (mname, mode) ->
      let budget = Budget.create ~max_vars:60 ~clock:Unix.gettimeofday () in
      let r = Session.run_sources ~mode ~budget ~jobs:4 [ ("<input>", src) ] in
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
     recovery, so interface construction raises): at jobs 1 and 4 the
     fault degrades that function only *)
  let src =
    "typedef int T, 5;\n\
     int use(T *p) { return *p; }\n\
     int ok(int *q) { return *q; }\n\
     int caller(int *r) { return use(r) + ok(r); }\n"
  in
  List.iter
    (fun jobs ->
      let r =
        Session.run_sources ~mode:Analysis.Poly ~jobs [ ("<input>", src) ]
      in
      let outcome f = List.assoc f r.Session.results.Report.outcomes in
      (match outcome "ok" with
      | Analysis.Analyzed -> ()
      | Analysis.Degraded why -> Alcotest.failf "ok degraded: %s" why);
      match outcome "use" with
      | Analysis.Degraded _ -> ()
      | Analysis.Analyzed -> Alcotest.fail "use should degrade")
    [ 1; 4 ];
  (* and the two job counts agree on the whole report *)
  let serial =
    Session.run_sources ~mode:Analysis.Poly ~jobs:1 [ ("<input>", src) ]
  in
  let par =
    Session.run_sources ~mode:Analysis.Poly ~jobs:4 [ ("<input>", src) ]
  in
  Alcotest.(check string) "fault parity" (digest serial) (digest par)

let tests =
  [
    Alcotest.test_case "pool: runs every task" `Quick test_pool_runs_everything;
    Alcotest.test_case "pool: nested submit" `Quick test_pool_nested_submit;
    Alcotest.test_case "pool: funnels exceptions" `Quick
      test_pool_funnels_exceptions;
    Alcotest.test_case "pool: jobs=1 is inline and ordered" `Quick
      test_pool_serial_inline;
    Alcotest.test_case "jobs 4 = jobs 1 (const, all modes)" `Slow
      test_parallel_deterministic;
    Alcotest.test_case "jobs 2 = jobs 1 (taint, all modes)" `Slow
      test_parallel_deterministic_taint;
    Alcotest.test_case "parallel runs repeatable" `Quick
      test_parallel_repeatable;
    Alcotest.test_case "budget exhaustion degrades gracefully" `Slow
      test_budget_exhaustion_parallel;
    Alcotest.test_case "faulting function isolated under parallelism" `Quick
      test_faulting_scc_isolated;
  ]
