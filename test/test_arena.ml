(* Parity of the flat-arena solver core against the pre-arena reference
   store (Solver_ref, the PR 5 implementation kept verbatim): identical
   op sequences must produce byte-identical counters, solutions, and
   error messages — serially and across a store copy (the what-if
   clone). Plus determinism of the multi-file cbench corpora and the
   multi-file driver entry point. *)

open Typequal
module Sp = Lattice.Space
module E = Lattice.Elt

(* ------------------------------------------------------------------ *)
(* A common signature both cores satisfy, so one driver replays the
   same op sequence through either. *)
(* ------------------------------------------------------------------ *)

module type CORE = sig
  type t
  type var
  type error

  type stats = {
    vars_created : int;
    vars_unified : int;
    edges_added : int;
    edges_deduped : int;
    cycles_collapsed : int;
    incr_solves : int;
    full_solves : int;
    worklist_pops : int;
    solve_s : float;
    absorb_s : float;
    congen_s : float;
    generalize_s : float;
    compact_s : float;
    instantiate_s : float;
    report_s : float;
    scheme_vars_before : int;
    scheme_vars_after : int;
    scheme_edges_before : int;
    scheme_edges_after : int;
    instantiations_memo_hits : int;
    memo_candidates : int;
    memo_reject_nonflat_ret : int;
    memo_reject_may_violate : int;
    memo_misses : int;
    heap_words : int;
    top_heap_words : int;
    cores_available : int;
  }

  val create : ?cycle_elim:bool -> Sp.t -> t
  val fresh : ?name:string -> t -> var
  val add_leq_vc : ?reason:string -> ?mask:int -> t -> var -> E.t -> unit
  val add_leq_cv : ?reason:string -> ?mask:int -> t -> E.t -> var -> unit
  val add_leq_vv : ?reason:string -> ?mask:int -> t -> var -> var -> unit
  val add_leq_cc : ?reason:string -> ?mask:int -> t -> E.t -> E.t -> unit
  val add_eq_vv : ?reason:string -> ?mask:int -> t -> var -> var -> unit
  val add_eq_vc : ?reason:string -> ?mask:int -> t -> var -> E.t -> unit
  val solve : t -> (unit, error list) result
  val solve_from_scratch : t -> (unit, error list) result
  val last_errors : t -> error list
  val error_message : error -> string
  val least : t -> var -> E.t
  val greatest : t -> var -> E.t
  val stats : t -> stats
end

module Arena : CORE = Typequal.Solver
module Ref : CORE = Typequal.Solver_ref

(* ------------------------------------------------------------------ *)
(* Random op sequences                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Edge of int * int * int          (* a <= b under mask *)
  | Lower of E.t * int * int         (* c <= a under mask *)
  | Upper of int * E.t * int         (* a <= c under mask *)
  | Eqvv of int * int * int
  | Eqvc of int * E.t * int
  | Ground of E.t * E.t * int        (* c1 <= c2: ground check *)
  | Solve
  | Full

let space_gen : Sp.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* pols = list_repeat n bool in
  return
    (Sp.create
       (List.mapi
          (fun i pos ->
            if pos then Qualifier.positive (Printf.sprintf "p%d" i)
            else Qualifier.negative (Printf.sprintf "n%d" i))
          pols))

let elt_gen sp : E.t QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun bits -> bits land E.full_mask sp)
    QCheck2.Gen.(int_bound (E.full_mask sp))

let scenario_gen : (Sp.t * int * op list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* sp = space_gen in
  let* n = int_range 2 20 in
  let full = E.full_mask sp in
  let var = int_bound (n - 1) in
  let mask = frequency [ (3, return full); (2, int_bound full) ] in
  let op =
    frequency
      [
        ( 5,
          let* a = var and* b = var and* m = mask in
          return (Edge (a, b, m)) );
        ( 2,
          let* c = elt_gen sp and* a = var and* m = mask in
          return (Lower (c, a, m)) );
        ( 2,
          let* a = var and* c = elt_gen sp and* m = mask in
          return (Upper (a, c, m)) );
        ( 1,
          let* a = var and* b = var and* m = mask in
          return (Eqvv (a, b, m)) );
        ( 1,
          let* a = var and* c = elt_gen sp and* m = mask in
          return (Eqvc (a, c, m)) );
        ( 1,
          let* c1 = elt_gen sp and* c2 = elt_gen sp and* m = mask in
          return (Ground (c1, c2, m)) );
        (1, return Solve);
        (1, return Full);
      ]
  in
  let* ops = list_size (int_range 5 80) op in
  return (sp, n, ops)

(* ------------------------------------------------------------------ *)
(* Replaying through a core and rendering everything observable        *)
(* ------------------------------------------------------------------ *)

module Drive (C : CORE) = struct
  let apply st v = function
    | Edge (a, b, m) -> C.add_leq_vv ~mask:m st v.(a) v.(b)
    | Lower (c, a, m) -> C.add_leq_cv ~mask:m st c v.(a)
    | Upper (a, c, m) -> C.add_leq_vc ~mask:m st v.(a) c
    | Eqvv (a, b, m) -> C.add_eq_vv ~mask:m st v.(a) v.(b)
    | Eqvc (a, c, m) -> C.add_eq_vc ~mask:m st v.(a) c
    | Ground (c1, c2, m) -> C.add_leq_cc ~mask:m st c1 c2
    | Solve -> ignore (C.solve st)
    | Full -> ignore (C.solve_from_scratch st)

  (* counters (wall-clock and machine fields excluded), per-variable
     solutions, and error messages — the full observable state *)
  let digest sp st vars =
    let b = Buffer.create 512 in
    let s = C.stats st in
    Buffer.add_string b
      (Printf.sprintf
         "vars=%d unified=%d edges=%d deduped=%d cycles=%d incr=%d \
          full=%d pops=%d\n"
         s.C.vars_created s.C.vars_unified s.C.edges_added s.C.edges_deduped
         s.C.cycles_collapsed s.C.incr_solves s.C.full_solves
         s.C.worklist_pops);
    Array.iteri
      (fun i v ->
        Buffer.add_string b
          (Fmt.str "%d: %a / %a\n" i (E.pp sp) (C.least st v) (E.pp sp)
             (C.greatest st v)))
      vars;
    List.iter
      (fun e -> Buffer.add_string b ("error " ^ C.error_message e ^ "\n"))
      (C.last_errors st);
    Buffer.contents b

  let run_serial sp n ops =
    let st = C.create sp in
    let v = Array.init n (fun _ -> C.fresh st) in
    List.iter (apply st v) ops;
    ignore (C.solve st);
    digest sp st v
end

module DA = Drive (Arena)
module DR = Drive (Ref)

let prop_serial_parity =
  QCheck2.Test.make ~count:300
    ~name:"arena = pre-arena store: counters, solutions, errors (serial)"
    scenario_gen
    (fun (sp, n, ops) -> DA.run_serial sp n ops = DR.run_serial sp n ops)

(* ------------------------------------------------------------------ *)
(* Store copy: the what-if clone                                       *)
(* ------------------------------------------------------------------ *)

module S = Typequal.Solver
module DS = Drive (S)

(* a scenario plus a cut point into its op list *)
let cut_gen : (Sp.t * int * op list * int) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* sp, n, ops = scenario_gen in
  let* k = int_bound (List.length ops) in
  return (sp, n, ops, k)

(* the arena digest plus every coordinate's classification *)
let copy_observe sp st vars =
  DS.digest sp st vars
  ^ String.concat ""
      (Array.to_list
         (Array.map
            (fun v ->
              String.concat " "
                (List.init (Sp.size sp) (fun i ->
                     Fmt.str "%a" S.pp_verdict (S.classify st v i)))
              ^ "\n")
            vars))

(* Build the first [k] ops into a store, copy it, then apply the rest to
   the copy {e first} and to the original second: a copy sharing any
   mutable state with its source (a dedup set, a column, the error
   table) would make the original's replay diverge. Returns the
   original's and the copy's observations. *)
let run_cut sp n ops k =
  let st = S.create sp in
  let v = Array.init n (fun _ -> S.fresh st) in
  let prefix = List.filteri (fun i _ -> i < k) ops
  and suffix = List.filteri (fun i _ -> i >= k) ops in
  List.iter (DS.apply st v) prefix;
  let c, rn = S.copy st in
  let vc = Array.map rn v in
  List.iter (DS.apply c vc) suffix;
  List.iter (DS.apply st v) suffix;
  (copy_observe sp st v, copy_observe sp c vc)

let prop_copy_at_cut =
  QCheck2.Test.make ~count:300
    ~name:"arena: copy at a random cut = the original (solutions, errors, classify, counters)"
    cut_gen
    (fun (sp, n, ops, k) ->
      let orig, copied = run_cut sp n ops k in
      orig = copied)

let prop_copy_parity =
  (* the copy continues exactly where the source stood: a cut run
     observed on the copy equals the pre-arena store's uncut serial run,
     counters included *)
  QCheck2.Test.make ~count:200
    ~name:"arena copy at a cut = pre-arena store, serial"
    cut_gen
    (fun (sp, n, ops, k) ->
      let st = S.create sp in
      let v = Array.init n (fun _ -> S.fresh st) in
      List.iteri (fun i o -> if i < k then DS.apply st v o) ops;
      let c, rn = S.copy st in
      let vc = Array.map rn v in
      List.iteri (fun i o -> if i >= k then DS.apply c vc o) ops;
      ignore (S.solve c);
      DS.digest sp c vc = DR.run_serial sp n ops)

(* A what-if query solves a speculative bound on a copy of the warm
   store: the session's own store must keep its solutions and its error
   count. Observed through the live store: [explain] walks it, and a
   later what-if reads its verdicts and error count as the baseline, so
   both must equal a fresh session's answers. *)
let test_whatif_leaves_store () =
  let units =
    Cbench.Programs.miniproject
    @ [ ("viol.c", "void vf(const char *s) { char *p; p = s; *p = 'x'; }\n") ]
  in
  let warm = Cqual.Session.create units in
  let keys = List.map (fun (k, _, _) -> k) (Cqual.Session.positions warm) in
  Alcotest.(check bool) "have keys" true (List.length keys > 4);
  let explain t =
    List.map
      (fun k ->
        match Cqual.Session.explain t k with
        | Ok (_, v, why) -> Fmt.str "%s %a %a" k Cqual.Report.pp_verdict v
                              Fmt.(option string) why
        | Error e -> e)
      keys
  in
  let whatif t k =
    match Cqual.Session.whatif t ~qual:"const" k with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let before = explain warm in
  List.iter (fun k -> ignore (whatif warm k)) keys;
  Alcotest.(check (list string)) "explain unchanged" before (explain warm);
  let fresh = Cqual.Session.create units in
  List.iter
    (fun k ->
      let w = whatif warm k and f = whatif fresh k in
      Alcotest.(check int) (k ^ ": errors before") f.Cqual.Session.w_errors_before
        w.Cqual.Session.w_errors_before;
      Alcotest.(check bool) (k ^ ": same answer") true (w = f))
    keys;
  Alcotest.(check bool) "the violation is still reported" true
    ((whatif warm (List.hd keys)).Cqual.Session.w_errors_before > 0)

(* ------------------------------------------------------------------ *)
(* Multi-file corpora: determinism and the driver entry point          *)
(* ------------------------------------------------------------------ *)

let test_project_deterministic () =
  let gen () =
    Cbench.Gen.generate_project ~seed:0xC0DE ~target_lines:12_000 ()
  in
  let a = gen () and b = gen () in
  Alcotest.(check int) "same file count" (List.length a) (List.length b);
  List.iter2
    (fun (na, ca) (nb, cb) ->
      Alcotest.(check string) "same file name" na nb;
      Alcotest.(check string) ("same content for " ^ na) ca cb)
    a b;
  let c = Cbench.Gen.generate_project ~seed:0xBEEF ~target_lines:12_000 () in
  Alcotest.(check bool) "different seed differs" true
    (List.map snd a <> List.map snd c)

let test_project_shape () =
  let files = Cbench.Gen.generate_project ~seed:7 ~target_lines:20_000 () in
  let lines = Cbench.Gen.project_lines files in
  Alcotest.(check bool) "reaches the line target" true (lines >= 20_000);
  Alcotest.(check bool) "multiple translation units" true
    (List.length files >= 3);
  (* every unit must parse as part of the whole program *)
  let r = Cqual.Session.run_sources ~mode:Cqual.Analysis.Poly files in
  Alcotest.(check bool) "functions analyzed" true (r.Cqual.Session.n_functions > 0)

let test_multifile_driver_parity () =
  let files = Cbench.Programs.miniproject in
  let serial = Cqual.Session.run_sources ~mode:Cqual.Analysis.Poly files in
  let par = Test_parallel.session_run ~jobs:4 Cqual.Analysis.Poly files in
  Alcotest.(check string) "miniproject: jobs 4 = jobs 1"
    (Test_parallel.digest serial) (Test_parallel.digest par);
  Alcotest.(check int) "no degradations" 0
    (List.length
       (List.filter
          (fun (_, o) ->
            match o with Cqual.Analysis.Degraded _ -> true | _ -> false)
          serial.Cqual.Session.results.Cqual.Report.outcomes))

let test_scale_corpus_parity () =
  (* a small instance of the scale corpus end-to-end: batch and the
     session at jobs 4 report identically, as CI diffs on the big one *)
  let files = Cbench.Gen.generate_project ~seed:0xA12 ~target_lines:6_000 () in
  let serial = Cqual.Session.run_sources ~mode:Cqual.Analysis.Poly files in
  let par = Test_parallel.session_run ~jobs:4 Cqual.Analysis.Poly files in
  Alcotest.(check string) "scale corpus: jobs 4 = jobs 1"
    (Test_parallel.digest serial) (Test_parallel.digest par)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_serial_parity;
    QCheck_alcotest.to_alcotest prop_copy_at_cut;
    QCheck_alcotest.to_alcotest prop_copy_parity;
    Alcotest.test_case "whatif leaves the warm store unchanged" `Quick
      test_whatif_leaves_store;
    Alcotest.test_case "multi-file project generation deterministic" `Quick
      test_project_deterministic;
    Alcotest.test_case "multi-file project shape and analyzability" `Slow
      test_project_shape;
    Alcotest.test_case "multi-file driver: jobs 4 = jobs 1" `Quick
      test_multifile_driver_parity;
    Alcotest.test_case "scale corpus (small): jobs 4 = jobs 1" `Slow
      test_scale_corpus_parity;
  ]
