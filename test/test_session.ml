(* The edit-script replay harness for the persistent Session, the
   daemon's wire format, and the built daemon answering what-if batches.

   The core property: a warm session that has lived through a sequence
   of edits renders byte-identically to a cold session built fresh over
   the same sources — at every step, for clean and for broken corpora.
   Scripts end by restoring the original sources, so the final render
   must equal the very first. *)

open Cqual

(* ---------------- corpora ---------------- *)

let clean_units = Cbench.Programs.miniproject

(* a parse-error unit (recovered) next to a const violation: the replay
   must stay byte-identical even when the report has TYPE ERRORS and the
   frontend emits diagnostics *)
let viol_src = "void vf(const char *s) { char *p; p = s; *p = 'x'; }\n"
let viol_fixed = "void vf(const char *s) { const char *p; p = s; (void)*p; }\n"

let bad_src =
  "int good(void) { return 1; }\n@ $$$ garbage @@@\nint tail(void) { return 2; }\n"

let bad_fixed = "int good(void) { return 1; }\nint tail(void) { return 2; }\n"
let broken_units = [ ("viol.c", viol_src); ("bad.c", bad_src) ]

(* ---------------- the replay harness ---------------- *)

let render_diags ds =
  String.concat "" (List.map (fun d -> Fmt.str "%a@." Cfront.Diag.pp d) ds)

(* assoc-replace keeping link order, appending unknown names *)
let update_assoc units name src =
  if List.mem_assoc name units then
    List.map (fun (n, s) -> if n = name then (n, src) else (n, s)) units
  else units @ [ (name, src) ]

let snapshot t =
  ( Session.render ~positions:true ~name:"replay" t,
    render_diags (Session.diagnostics t) )

(* cold oracle: a fresh session over the same sources *)
let cold_snapshot units = snapshot (Session.create units)

(* Apply [script] (a list of (unit, new-source) edits) to a warm session,
   checking warm = cold after every step. The script must end with the
   units back at their original sources. *)
let replay units script =
  let t = Session.create units in
  let check step units =
    let warm_r, warm_d = snapshot t in
    let cold_r, cold_d = cold_snapshot units in
    Alcotest.(check string) (step ^ ": render") cold_r warm_r;
    Alcotest.(check string) (step ^ ": diagnostics") cold_d warm_d
  in
  check "initial" units;
  let initial, _ = snapshot t in
  let cur = ref units in
  List.iteri
    (fun i (name, src) ->
      ignore (Session.update_unit t name src);
      cur := update_assoc !cur name src;
      check (Printf.sprintf "step %d (%s)" i name) !cur)
    script;
  let final, _ = snapshot t in
  Alcotest.(check string) "script restores the initial render" initial final

let clean_script () =
  let a0 = List.assoc "proj_a.c" clean_units in
  let b0 = List.assoc "proj_b.c" clean_units in
  [
    (* grow a.c with an independent function *)
    ("proj_a.c", a0 ^ "int proj_a_extra(int x) { return x + 1; }\n");
    (* then touch b.c too *)
    ("proj_b.c", b0 ^ "int proj_b_extra(int x) { return x - 1; }\n");
    ("proj_a.c", a0);
    ("proj_b.c", b0);
  ]

let broken_script () =
  [
    ("bad.c", bad_fixed);
    ("viol.c", viol_fixed);
    ("bad.c", bad_src);
    ("viol.c", viol_src);
  ]

let test_replay_clean_serial () = replay clean_units (clean_script ())
let test_replay_broken_serial () = replay broken_units (broken_script ())

(* ---------------- invalidation granularity ---------------- *)

let test_unchanged_is_noop () =
  let t = Session.create clean_units in
  let r1 = Session.run t in
  let status =
    Session.update_unit t "proj_a.c" (List.assoc "proj_a.c" clean_units)
  in
  Alcotest.(check bool)
    "same content reports `Unchanged" true
    (status = `Unchanged);
  let r2 = Session.run t in
  Alcotest.(check bool) "run is not recomputed (physically equal)" true
    (r1 == r2)

(* a one-unit edit re-parses exactly that unit: every other unit's AST
   comes from the memo, and the result still renders as a cold session *)
let test_memo_survives_edit () =
  let t = Session.create clean_units in
  ignore (Session.run t);
  let s0 = Session.stats t in
  Alcotest.(check (pair int int))
    "cold run parses every unit"
    (0, List.length clean_units)
    (s0.Session.ss_memo_hits, s0.Session.ss_memo_misses);
  let a0 = List.assoc "proj_a.c" clean_units in
  let edited =
    update_assoc clean_units "proj_a.c"
      (a0 ^ "int proj_a_extra(int x) { return x + 1; }\n")
  in
  ignore
    (Session.update_unit t "proj_a.c" (List.assoc "proj_a.c" edited));
  ignore (Session.run t);
  let s1 = Session.stats t in
  Alcotest.(check (pair int int))
    "edit: one miss, every other unit hits"
    (List.length clean_units - 1, 1)
    ( s1.Session.ss_memo_hits - s0.Session.ss_memo_hits,
      s1.Session.ss_memo_misses - s0.Session.ss_memo_misses );
  Alcotest.(check string)
    "edited render = cold render" (fst (cold_snapshot edited))
    (fst (snapshot t))

let test_remove_unit () =
  let t = Session.create clean_units in
  ignore (Session.run t);
  Alcotest.(check bool) "known unit removed" true
    (Session.remove_unit t "proj_a.c");
  Alcotest.(check bool) "unknown unit refused" false
    (Session.remove_unit t "proj_a.c");
  Alcotest.(check (list string))
    "link order preserved" [ "proj_h.c"; "proj_b.c" ] (Session.units t)

(* ---------------- position keys ---------------- *)

let test_position_key_aliases () =
  let t = Session.create clean_units in
  let ps = Session.positions t in
  Alcotest.(check bool) "some positions" true (ps <> []);
  let anchored =
    List.filter (fun (_, p, _) -> p.Report.p_line > 0 && p.Report.p_col > 0) ps
  in
  Alcotest.(check bool) "canonical anchors exist" true (anchored <> []);
  List.iter
    (fun (key, p, v) ->
      Alcotest.(check string) "key is canonical" (Report.position_key p) key;
      (match Session.classify t key with
      | Some (_, v') ->
          Alcotest.(check bool) "canonical key resolves" true (v = v')
      | None -> Alcotest.fail ("canonical key unknown: " ^ key));
      match Session.classify t (Report.structural_key p) with
      | Some (_, v') ->
          Alcotest.(check bool) "structural alias agrees" true (v = v')
      | None ->
          Alcotest.fail ("structural alias unknown: " ^ Report.structural_key p))
    anchored

let test_explain_contract () =
  let t = Session.create clean_units in
  (match Session.positions t with
  | (key, _, _) :: _ -> (
      match Session.explain t key with
      | Ok (p, _, _) ->
          Alcotest.(check string)
            "explains the queried position" key (Report.position_key p)
      | Error e -> Alcotest.fail ("explain failed on known key: " ^ e))
  | [] -> Alcotest.fail "no positions");
  match Session.explain t "nope.c:1:1@1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must be an Error"

(* ---------------- whatif: concurrent thunks = inline ---------------- *)

(* the first [n] position keys of the clean corpus *)
let clean_keys n =
  let t = Session.create clean_units in
  List.filteri (fun i _ -> i < n) (Session.positions t)
  |> List.map (fun (k, _, _) -> k)

(* the perfbench tool's path — prepare with [whatif_task], then run the
   thunk — answers as [whatif] does, and asking a key twice gives the
   same answer twice *)
let test_whatif_task_matches_inline () =
  let t = Session.create clean_units in
  let keys = clean_keys 6 in
  Alcotest.(check bool) "have keys" true (keys <> []);
  let inline k =
    match Session.whatif t ~qual:"const" k with
    | Ok r -> r
    | Error e -> Alcotest.fail ("inline whatif failed: " ^ e)
  in
  List.iteri
    (fun i k ->
      let expect = inline k in
      (match Session.whatif_task t ~qual:"const" k with
      | Ok f ->
          Alcotest.(check bool)
            (Printf.sprintf "task thunk %d matches inline" i)
            true
            (f () = expect)
      | Error e -> Alcotest.fail ("whatif_task failed: " ^ e));
      Alcotest.(check bool)
        (Printf.sprintf "key %d asked twice" i)
        true
        (inline k = expect))
    keys

(* ---------------- the built daemon ---------------- *)

let typequald =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "typequald.exe" ]

(* run typequald with [input] on stdin — a regular file, so the daemon
   reads every request in one read and answers them as one batch *)
let run_daemon args input =
  let inp = Filename.temp_file "typequald" ".in" in
  let out = Filename.temp_file "typequald" ".out" in
  Out_channel.with_open_bin inp (fun oc -> output_string oc input);
  let fd_in = Unix.openfile inp [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process typequald
      (Array.of_list (typequald :: args))
      fd_in fd_out Unix.stderr
  in
  Unix.close fd_in;
  Unix.close fd_out;
  let _, status = Unix.waitpid [] pid in
  let lines =
    In_channel.with_open_bin out In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove inp;
  Sys.remove out;
  (status, lines)

(* two whatif requests in one write — the same key twice, then two
   distinct keys — each get two results and a clean exit *)
let test_daemon_whatif_pairs () =
  let k1, k2 =
    match clean_keys 2 with
    | [ k1; k2 ] -> (k1, k2)
    | _ -> Alcotest.fail "need two position keys"
  in
  let request id key =
    Printf.sprintf
      "{\"id\":%d,\"method\":\"whatif\",\"params\":{\"key\":\"%s\",\"qual\":\"const\"}}\n"
      id key
  in
  List.iter
    (fun (what, ka, kb) ->
      let status, lines =
        run_daemon
          [ "--bench"; "miniproject"; "--mode"; "poly" ]
          (request 1 ka ^ request 2 kb)
      in
      Alcotest.(check bool) (what ^ ": exit 0") true (status = Unix.WEXITED 0);
      let results =
        List.map
          (fun l ->
            match Wire.of_string l with
            | Ok j -> (Wire.mem_int "id" j, Wire.mem "result" j)
            | Error e -> Alcotest.failf "%s: bad response %S: %s" what l e)
          lines
      in
      match results with
      | [ (Some 1, Some r1); (Some 2, Some r2) ] ->
          if ka = kb then
            Alcotest.(check string) (what ^ ": equal answers")
              (Wire.to_string r1) (Wire.to_string r2)
      | _ ->
          Alcotest.failf "%s: want two results, got %s" what
            (String.concat " | " lines))
    [ ("same key", k1, k1); ("distinct keys", k1, k2) ]

(* ---------------- symbols across edits and processes ---------------- *)

(* re-lexing an edited unit resolves its names to the ids they already
   have: an edit that introduces no new name mints no symbol *)
let test_update_keeps_symbols () =
  let s = Session.create ~mode:Analysis.Poly clean_units in
  let r0 = Session.run s in
  let name, src = List.hd clean_units in
  let before = Cfront.Sym.count () in
  let edited = src ^ "\n" in
  ignore (Session.update_unit s name edited : [ `Added | `Updated | `Unchanged ]);
  let r1 = Session.run s in
  Alcotest.(check int) "no symbol minted by the edit" before (Cfront.Sym.count ());
  Alcotest.(check string) "same report" (Test_parallel.digest r0)
    (Test_parallel.digest r1)

(* A unit payload written by another process, whose symbol table minted
   the same names in another order, is rebased onto this process's ids:
   the warm run equals the cold one. *)
let test_cache_payload_remapped () =
  let dir = Test_cache.fresh_dir () and srcdir = Test_cache.fresh_dir () in
  let units =
    [
      ( Filename.concat srcdir "remap_a.c",
        "typedef struct { char *remap_buf; int remap_len; } remap_t;\n\
         struct remap_node { struct remap_node *remap_next; char *remap_data; };\n\
         int remap_peek(remap_t *remap_r) { return *remap_r->remap_buf; }\n\
         char *remap_head(struct remap_node *remap_n) { return remap_n->remap_data; }\n" );
      ( Filename.concat srcdir "remap_b.c",
        "int remap_peek(void *remap_r);\n\
         char *remap_head(struct remap_node *remap_n);\n\
         void remap_fill(struct remap_node *remap_m, char *remap_s) {\n\
         remap_m->remap_data = remap_s; *remap_head(remap_m) = 0; }\n" );
    ]
  in
  List.iter (fun (path, src) -> Test_cache.write_file path src) units;
  (* the daemon is a fresh process: it mints these names in source order,
     right after the keywords, and writes one unit payload per file *)
  let status, lines =
    run_daemon
      ([ "--cache"; dir; "--mode"; "mono" ] @ List.map fst units)
      "{\"id\":1,\"method\":\"run\"}\n"
  in
  Alcotest.(check bool) "daemon exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check int) "one answer" 1 (List.length lines);
  (* this process mints them in reverse, after whatever it interned so
     far, so every id differs from the writer's *)
  List.iter
    (fun n -> ignore (Cfront.Sym.intern n : Cfront.Sym.t))
    [ "remap_s"; "remap_m"; "remap_fill"; "remap_n"; "remap_head"; "remap_r";
      "remap_peek"; "remap_data"; "remap_next"; "remap_node"; "remap_t";
      "remap_len"; "remap_buf" ];
  let cold = Session.run_sources ~mode:Analysis.Poly units in
  let cs = Test_cache.open_cache_exn dir in
  let warm = Session.run_sources ~mode:Analysis.Poly ~cache:cs units in
  Alcotest.(check (pair int int)) "both units served from the payloads" (2, 0)
    (Test_cache.kind_counts cs "unit");
  Alcotest.(check string) "remapped warm = cold" (Test_parallel.digest cold)
    (Test_parallel.digest warm)

(* ---------------- the wire format ---------------- *)

let roundtrip j =
  match Wire.of_string (Wire.to_string j) with
  | Ok j' -> Alcotest.(check bool) ("roundtrip " ^ Wire.to_string j) true (j = j')
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)

let test_wire_roundtrip () =
  roundtrip Wire.Null;
  roundtrip (Wire.Bool true);
  roundtrip (Wire.num_int 42);
  roundtrip (Wire.num_int (-7));
  roundtrip (Wire.Num 2.5);
  roundtrip (Wire.Str "");
  roundtrip (Wire.Str "hello");
  roundtrip (Wire.Str "quote\" back\\ slash/ nl\n tab\t ctl\x01\x1f");
  roundtrip
    (Wire.Obj
       [
         ("id", Wire.num_int 3);
         ("arr", Wire.Arr [ Wire.Null; Wire.Bool false; Wire.Str "x" ]);
         ("nest", Wire.Obj [ ("k", Wire.Str "v") ]);
       ]);
  (* integer-valued floats print without a fraction *)
  Alcotest.(check string) "int float" "42" (Wire.to_string (Wire.num_int 42))

let test_wire_unicode () =
  (* \uXXXX escapes, including a surrogate pair, decode to UTF-8 *)
  match Wire.of_string {|"\u0041\u00e9\ud83d\ude00"|} with
  | Ok (Wire.Str s) ->
      Alcotest.(check string) "utf-8 bytes" "A\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail ("unicode parse failed: " ^ e)

let test_wire_errors () =
  (match Wire.of_string "{\"a\":1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object must fail");
  match Wire.of_string "1 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing input must fail"

let test_parse_request () =
  (match
     Wire.parse_request {|{"id":7,"method":"run","params":{"mode":"poly"}}|}
   with
  | Ok rq ->
      Alcotest.(check string) "method" "run" rq.Wire.rq_method;
      Alcotest.(check bool) "id" true (rq.Wire.rq_id = Wire.num_int 7);
      Alcotest.(check bool)
        "params" true
        (Wire.mem_string "mode" rq.Wire.rq_params = Some "poly")
  | Error e -> Alcotest.fail ("parse_request failed: " ^ e));
  (match Wire.parse_request {|{"id":1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing method must fail");
  (* responses are themselves valid single-line JSON *)
  let ok = Wire.response_ok ~id:(Wire.num_int 7) (Wire.Str "done") in
  let err = Wire.response_error ~id:Wire.Null "boom" in
  List.iter
    (fun line ->
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Wire.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("response not JSON: " ^ e))
    [ ok; err ]

(* ---------------- body release in one-shot runs ---------------- *)

(* [run_sources] analyzes its program once, so it drops each function's
   body after the function's SCC; a persistent session keeps its
   program for later modes and queries. Neither may change a report. *)

(* a generated project, plus a function defined twice: the later
   definition wins and the shadowed body is never analyzed *)
let release_units =
  Cbench.Gen.generate_project ~seed:0xB0D ~target_lines:3_000 ()
  @ [
      ("dup_a.c", "int dup_f(int *p) { return *p; }\nint dup_g(int *q) { return dup_f(q); }\n");
      ("dup_b.c", "int dup_f(int *p) { *p = 1; return 0; }\n");
    ]

let modes =
  [ ("mono", Analysis.Mono); ("poly", Analysis.Poly); ("polyrec", Analysis.Polyrec) ]

let test_release_render_parity () =
  List.iter
    (fun (mname, mode) ->
      let cold = Session.run_sources ~mode release_units in
      let warm = Session.create ~mode release_units in
      Alcotest.(check string)
        (mname ^ ": render")
        (Session.render ~positions:true ~name:"p" warm)
        (Session.render_run ~positions:true ~name:"p" mode cold);
      Alcotest.(check string)
        (mname ^ ": counters and outcomes")
        (Test_parallel.digest (Session.run warm))
        (Test_parallel.digest cold))
    modes

(* weak pointers to every non-empty body of the program *)
let weak_bodies (prog : Cfront.Cprog.t) =
  let funs =
    List.filter
      (fun (f : Cfront.Cast.fundef) -> f.f_body <> [])
      (Cfront.Cprog.functions prog)
  in
  let w = Weak.create (List.length funs) in
  List.iteri (fun i (f : Cfront.Cast.fundef) -> Weak.set w i (Some f.f_body)) funs;
  w

let live w =
  let n = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr n
  done;
  !n

(* After a releasing run no body survives a major collection, although
   the program, the analysis environment and the report stay alive; the
   same run without release keeps every body (the control that makes the
   weak pointers meaningful). *)
let test_release_unreachable () =
  List.iter
    (fun (mname, mode) ->
      let check release =
        let co = Session.compile_sources release_units in
        let w = weak_bodies co.Session.co_prog in
        Alcotest.(check bool) (mname ^ ": bodies to release") true
          (Weak.length w > 10);
        let env, ifaces = Analysis.run ~release mode co.Session.co_prog in
        let r = Report.measure env ifaces in
        Gc.full_major ();
        let n = live w in
        ignore (Sys.opaque_identity (co, env, r));
        (n, Weak.length w)
      in
      let n, total = check false in
      Alcotest.(check int) (mname ^ ": kept without release") total n;
      let n, _ = check true in
      Alcotest.(check int) (mname ^ ": reachable after release") 0 n)
    modes

(* A session analyzes its program in several modes and answers what-if
   queries from it: a session that runs poly, then polyrec, then a
   what-if, must answer as cold runs do. *)
let test_session_never_released () =
  let t = Session.create ~mode:Analysis.Poly release_units in
  let poly = Session.run ~mode:Analysis.Poly t in
  let polyrec = Session.run ~mode:Analysis.Polyrec t in
  let key =
    match Session.positions ~mode:Analysis.Poly t with
    | (k, _, _) :: _ -> k
    | [] -> Alcotest.fail "no positions"
  in
  let whatif t =
    match Session.whatif ~mode:Analysis.Poly t ~qual:"const" key with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let w = whatif t in
  List.iter
    (fun (mname, mode, r) ->
      Alcotest.(check string) (mname ^ ": = cold run")
        (Test_parallel.digest (Session.run_sources ~mode release_units))
        (Test_parallel.digest r))
    [ ("poly", Analysis.Poly, poly); ("polyrec", Analysis.Polyrec, polyrec) ];
  Alcotest.(check bool) "whatif = a fresh session's" true
    (w = whatif (Session.create ~mode:Analysis.Poly release_units))

let tests =
  [
    Alcotest.test_case "replay: clean corpus, serial" `Quick
      test_replay_clean_serial;
    Alcotest.test_case "replay: broken corpus, serial" `Quick
      test_replay_broken_serial;
    Alcotest.test_case "unchanged update invalidates nothing" `Quick
      test_unchanged_is_noop;
    Alcotest.test_case "AST memo survives an edit" `Quick
      test_memo_survives_edit;
    Alcotest.test_case "remove_unit keeps link order" `Quick test_remove_unit;
    Alcotest.test_case "canonical and structural keys agree" `Quick
      test_position_key_aliases;
    Alcotest.test_case "explain: Ok on known, Error on unknown" `Quick
      test_explain_contract;
    Alcotest.test_case "whatif: task thunk matches inline" `Quick
      test_whatif_task_matches_inline;
    Alcotest.test_case "daemon: whatif pairs in one write" `Quick
      test_daemon_whatif_pairs;
    Alcotest.test_case "symbols: an edit mints no symbol" `Quick
      test_update_keeps_symbols;
    Alcotest.test_case "cache: payload from another intern order" `Quick
      test_cache_payload_remapped;
    Alcotest.test_case "wire: roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: unicode escapes" `Quick test_wire_unicode;
    Alcotest.test_case "wire: malformed input" `Quick test_wire_errors;
    Alcotest.test_case "wire: request/response framing" `Quick
      test_parse_request;
    Alcotest.test_case "release: run_sources = session render, every mode"
      `Quick test_release_render_parity;
    Alcotest.test_case "release: no body reachable after a releasing run"
      `Quick test_release_unreachable;
    Alcotest.test_case "release: a session's program is never released"
      `Quick test_session_never_released;
  ]
