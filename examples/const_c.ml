(* Const inference for C (Section 4), on the embedded mini string library.

   This reproduces the paper's introduction story: the standard library's
   strchr takes `const char *s` but returns `char *` pointing into s —
   monomorphic C forces a choice between dropping const and casting, while
   qualifier polymorphism lets one function serve both usages.

   Run with: dune exec examples/const_c.exe *)

open Cqual

let banner title = Fmt.pr "@.== %s ==@." title

let show_run name mode src =
  let r = Session.run_sources ~mode [ ("<input>", src) ] in
  let res = r.Session.results in
  Fmt.pr "@.[%s — %s]@." name
    (match mode with
    | Analysis.Mono -> "monomorphic"
    | Poly -> "polymorphic"
    | Polyrec -> "polymorphic-recursive");
  Fmt.pr "  %d interesting positions: %d declared const, %d possible, %d must-not@."
    res.Report.total res.Report.declared res.Report.possible
    (res.Report.total - res.Report.possible);
  List.iter (fun pv -> Fmt.pr "  %a@." Report.pp_position pv) res.Report.positions;
  res

let () =
  banner "1. The paper's introduction example: two identity functions";
  let id2 =
    "typedef const int ci;\n\
     int *id1(int *x) { return x; }\n\
     ci *id2(ci *x) { return x; }\n"
  in
  let r = Session.run_sources ~mode:Analysis.Mono [ ("<input>", id2) ] in
  Fmt.pr
    "C needs both id1 and id2 (%d const positions, %d declared).@."
    r.Session.results.Report.total r.Session.results.Report.declared;
  let poly_id =
    "char *id(char *x) { return x; }\n\
     void use_writable(void) { char b[8]; char *p; p = id(b); *p = 'x'; }\n\
     int use_const(const char *s) { char *q = (char *)s; return *(id(q)); }\n"
  in
  Fmt.pr
    "with qualifier polymorphism ONE id serves both (see the verdicts):@.";
  ignore (show_run "single id" Analysis.Poly poly_id);

  banner "2. The mini string library, mono vs poly";
  let src = Cbench.Programs.string_lib in
  let mono = show_run "string-lib" Analysis.Mono src in
  let poly = show_run "string-lib" Analysis.Poly src in
  Fmt.pr
    "@.monomorphic inference allows %d consts; polymorphic allows %d — the \
     difference is my_strchr, whose result is written through by one caller \
     (main) but whose other uses are read-only.@."
    mono.Report.possible poly.Report.possible;

  banner "3. Incorrect const usage is a type error";
  let bad = "void f(const char *s) { char *p; p = s; *p = 'x'; }" in
  let r = Session.run_sources ~mode:Analysis.Mono [ ("<input>", bad) ] in
  Fmt.pr "program:@.%s@." bad;
  Fmt.pr "type errors: %d (writing through an alias of a const pointer)@."
    r.Session.results.Report.type_errors;

  banner "4. The whole embedded suite";
  List.iter
    (fun (name, src) ->
      let row = Session.table2_row ~name src in
      Fmt.pr "  %-12s lines=%4d declared=%3d mono=%3d poly=%3d total=%3d@."
        name row.Session.r_lines row.Session.declared row.Session.mono
        row.Session.poly row.Session.total)
    Cbench.Programs.all
