#!/usr/bin/env python3
"""The repo's benchmark: cqualc and typequald on seeded generated corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   (every workload, untraced then traced)

Run it from the root of a source tree. It builds the binaries with dune
into $CARGO_TARGET_DIR (default .bench_build), generates the workload's
corpus once per (corpus seed, target lines) into that directory, and then

  --trace 0  measures the end-to-end metrics of BENCHMARK.json from the
             real binaries, with no tracing;
  --trace 1  measures the per-layer metrics: the same layer calls the
             binaries compose, made from outside by perfbench/tool/pbtool
             with a span around each call.

--seed drives the edit script and the query mix. The corpus comes from
--corpus-seed, which defaults to the workload's own seed; the frozen
expected reports in expected.json apply only to that default. Every
operation is checked; a failed check counts the operation as failed.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A fuller record, with the host block, goes to
<build dir>/perfbench/results/.
"""

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# Each workload: the program, its corpus, its domain count. The reasons
# for each choice are recorded beside the workload in BENCHMARK.json.
WORKLOADS = {
    "mega-poly-j1": {"program": "cqualc", "corpus_seed": 0xA11, "lines": 1_000_000, "jobs": 1},
    "midi-poly-j2": {"program": "cqualc", "corpus_seed": 0xA12, "lines": 100_000, "jobs": 2},
    "midi-session-edit": {"program": "typequald", "corpus_seed": 0xA12, "lines": 100_000, "jobs": 1},
}

# A resident session over the mega corpus needs more memory than a shared
# host should give one benchmark, so on larger corpora the traced run
# probes the session layers on the midi corpus instead.
SESSION_PROBE = WORKLOADS["midi-session-edit"]

SETUP_SPAWNS_BATCH = 5  # cqualc runs on the shared header per run, for setup_s
SETUP_SPAWNS_SESSION = 3  # fixed-work typequald loads per run
COLD_EVERY = 3  # edit steps between cold cqualc runs in the session loop
COLD_RUNS_SESSION = 3  # at least this many cold runs, for wall_s
TIMEOUT_S = 150  # any single program run or request past this is killed

class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Accounting


class Ops:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


# ---------------------------------------------------------------------------
# Host, build and corpus


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_block(root, build):
    ocaml = ""
    if shutil.which("ocamlopt"):
        ocaml = subprocess.run(["ocamlopt", "-version"], capture_output=True,
                               text=True).stdout.strip()
    commit = ""
    if os.path.isdir(os.path.join(root, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True).stdout.strip()
    return {"nproc": cores(), "ocaml": ocaml, "commit": commit or "unknown",
            "source_digest": source_digest(root), "python": platform.python_version(),
            "machine": platform.machine(), "build_dir": os.path.relpath(build, root)}


def source_digest(root):
    """sha256 over the sources the binaries are built from, so a result
    names the code it measured even outside a git checkout."""
    parts = []
    for top in ("bin", "lib", "perfbench/tool"):
        for d, _, fs in sorted(os.walk(os.path.join(root, top))):
            for f in sorted(fs):
                if f.endswith((".ml", ".mli", ".mll", "dune")):
                    p = os.path.join(d, f)
                    with open(p, "rb") as fh:
                        parts.append(os.path.relpath(p, root) + "\0" + bl.digest(fh.read()))
    return bl.digest("\n".join(parts))[:16]


def build(root, build_dir):
    for need in ("dune-project", "bin/cqualc.ml", "bin/typequald.ml", "lib",
                 "perfbench/tool/pbtool.ml"):
        if not os.path.exists(os.path.join(root, need)):
            raise Failure("not a source tree: %s is missing in %s" % (need, root))
    if not shutil.which("dune"):
        raise Failure("dune is not installed")
    targets = ["./bin/cqualc.exe", "./bin/typequald.exe", "./perfbench/tool/pbtool.exe"]
    # the shared dune cache lives outside the tree, so it stays off
    r = subprocess.run(["dune", "build", "--cache=disabled", "--root", ".", "--build-dir",
                        build_dir] + targets, cwd=root, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise Failure("dune build failed:\n" + r.stderr[-2000:])
    out = os.path.join(root, build_dir, "default")
    return {t[2:].split("/")[-1][:-4]: os.path.join(out, t[2:]) for t in targets}


def corpus(bins, cache_root, seed, lines):
    """The generated corpus for (seed, lines), generated on first use.
    Returns (dir, [(name, source)], meta)."""
    d = os.path.join(cache_root, "corpus", "%d-%d" % (seed, lines))
    meta_path = os.path.join(d, "meta.json")
    if not os.path.exists(meta_path):
        tmp = "%s.tmp%d" % (d, os.getpid())
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        r = subprocess.run([bins["pbtool"], "gen", str(seed), str(lines), tmp],
                           capture_output=True, text=True, timeout=600)
        if r.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise Failure("corpus generation failed: " + r.stderr)
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            f.write(r.stdout)
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    with open(meta_path) as f:
        meta = json.load(f)
    with open(os.path.join(d, "MANIFEST")) as f:
        names = f.read().split()
    units = []
    for n in names:
        with open(os.path.join(d, n)) as f:
            units.append((n, f.read()))
    return d, units, meta


def write_units(d, units):
    for name, src in units:
        with open(os.path.join(d, name), "w") as f:
            f.write(src)


# ---------------------------------------------------------------------------
# Processes


def spawn_wait(argv, cwd, stdout_path):
    """Run to exit; (wall s, cpu s, peak rss MB, exit code, stdout)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as f:
        text = f.read()
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, p.returncode, text


class Daemon:
    """One newline-delimited JSON-RPC server on stdio (typequald, or
    pbtool serve), one request in flight at a time."""

    def __init__(self, argv, cwd):
        self.t_spawn = time.perf_counter()
        self.p = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL)
        self.next_id = 1
        self.rtts = []  # (round-trip seconds, response bytes)
        self.rusage = None

    def call(self, method, params=None):
        """(request id, parsed response or None, round-trip seconds)."""
        rid = self.next_id
        self.next_id += 1
        req = {"id": rid, "method": method}
        if params is not None:
            req["params"] = params
        line = (json.dumps(req) + "\n").encode()
        timer = threading.Timer(TIMEOUT_S, self.p.kill)
        timer.start()
        t0 = time.perf_counter()
        try:
            self.p.stdin.write(line)
            self.p.stdin.flush()
            raw = self.p.stdout.readline()
        except (BrokenPipeError, OSError):
            raw = b""
        finally:
            timer.cancel()
        dt = time.perf_counter() - t0
        self.rtts.append((dt, len(raw)))
        try:
            resp = json.loads(raw) if raw else None
        except ValueError:
            resp = None
        return rid, resp, dt

    def close(self):
        """Shut down and reap; returns the exit code."""
        if self.p.poll() is None:
            try:
                self.call("shutdown")
                self.p.stdin.close()
            except (BrokenPipeError, OSError):
                pass
        timer = threading.Timer(TIMEOUT_S, self.p.kill)
        timer.start()
        try:
            _, status, self.rusage = os.wait4(self.p.pid, 0)
        except ChildProcessError:
            status = 0
        finally:
            timer.cancel()
        self.p.stdout.close()
        return os.waitstatus_to_exitcode(status)

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
            self.p.wait()


def counts_of(resp):
    r = resp["result"]
    return {k: r[k] for k in ("total", "declared", "possible", "must", "type_errors")}


# ---------------------------------------------------------------------------
# The edit session, shared by the untraced and the traced runs


class SessionDriver:
    """Drives one loaded server through the seeded script: each step edits
    one unit (drop or restore a const), sends run then classify, then a
    seeded mix of reads. Every response is checked."""

    def __init__(self, daemon, ops, seed, units, expected_counts):
        self.d = daemon
        self.ops = ops
        self.script = bl.EditScript(seed, units)
        self.rng = random.Random(seed ^ 0x5EED)
        self.keys = bl.read_keys(units)
        self.units = dict(units)
        self.edit_s = []
        self.whatif_s = []
        self.base = None
        self.expected_counts = expected_counts

    def rpc(self, method, params=None):
        rid, resp, dt = self.d.call(method, params)
        ok = self.ops.check(bl.response_ok(resp, rid), "%s #%d: %s" % (method, rid, resp))
        return (resp if ok else None), dt

    def load(self):
        """First run after spawn; returns spawn -> answer seconds."""
        resp, _ = self.rpc("run")
        t = time.perf_counter() - self.d.t_spawn
        if resp is not None:
            c = counts_of(resp)
            self.base = c
            self.ops.check(bl.sane_counts(c), "baseline counts %s" % c)
            if self.expected_counts is not None:
                self.ops.check(all(c[k] == v for k, v in self.expected_counts.items()
                                   if k in c), "baseline %s != expected" % c)
        return t

    def step(self, i):
        unit, fn, src, dropped = self.script.step(i)
        self.units[unit] = src
        key = self.script.key(unit, fn)
        t0 = time.perf_counter()
        up, _ = self.rpc("update", {"name": unit, "source": src})
        run, _ = self.rpc("run")
        cl, _ = self.rpc("classify", {"key": key})
        self.edit_s.append(time.perf_counter() - t0)
        if up is not None:
            self.ops.check(up["result"].get("status") == "updated", "update status %s" % up)
        if run is not None and self.base is not None:
            self.ops.check(bl.edit_counts_ok(self.base, counts_of(run), dropped),
                           "step %d counts %s vs %s" % (i, counts_of(run), self.base))
        if cl is not None:
            r = cl["result"]
            want = (False, "could-be-const") if dropped else (True, "must-const")
            self.ops.check((r.get("declared"), r.get("verdict")) == want,
                           "classify %s after %s: %s" % (key, "drop" if dropped else "restore", r))
        self.reads()

    def reads(self):
        a, b = self.rng.choice(self.keys), self.rng.choice(self.keys)
        cl, _ = self.rpc("classify", {"key": a})
        wi, dt = self.rpc("whatif", {"key": a, "qual": "const"})
        self.whatif_s.append(dt)
        if cl is not None and wi is not None:
            r = wi["result"]
            self.ops.check(bl.whatif_ok(cl["result"].get("verdict"), r["errors_before"],
                                        r["errors_after"]), "whatif %s: %s" % (a, r))
        self.rpc("classify", {"key": b})
        self.rpc("explain", {"key": b})

    def render(self, name):
        resp, _ = self.rpc("render", {"name": name})
        return resp["result"]["text"] if resp is not None else None


def cold_check(ops, bins, work, units, jobs, render_text, runs):
    """Write the session's final sources and run cold cqualc on them; its
    stdout must equal the session's render. Returns [(wall, cpu, rss)]."""
    write_units(work, units)
    names = [n for n, _ in units]
    out = []
    for _ in range(runs):
        wall, cpu, rss, code, text = spawn_wait(
            [bins["cqualc"], "--mode", "poly", "--jobs", str(jobs)] + names, work,
            os.path.join(work, "cold.out"))
        ops.check(code == 0 and render_text is not None and text == render_text,
                  "cold cqualc on final sources (exit %d) differs from the session render" % code)
        out.append((wall, cpu, rss))
    return out


# ---------------------------------------------------------------------------
# Batch workloads (cqualc)


def check_batch_report(ops, text, code, pristine, base, expected_sha, dropped, what):
    c = bl.report_counts(text)
    ok = code == 0 and bl.sane_counts(c)
    if ok and pristine is not None:
        if dropped:
            ok = bl.edit_counts_ok(base, c, True)
        else:
            ok = text == pristine
    if ok and expected_sha is not None and not dropped:
        ok = bl.digest(text) == expected_sha
    ops.check(ok, "%s: exit %d, counts %s" % (what, code, c))
    return c


def setup_batch(ops, bins, work, jobs, header):
    """cqualc on the project's shared header alone: process and runtime
    start, the domain pool, and the prototype environment every unit
    shares, with no function body to analyze."""
    xs = []
    for _ in range(SETUP_SPAWNS_BATCH):
        wall, _, _, code, text = spawn_wait(
            [bins["cqualc"], "--mode", "poly", "--jobs", str(jobs), header], work,
            os.path.join(work, "setup.out"))
        ops.check(code == 0 and bl.sane_counts(bl.report_counts(text)), "cqualc on " + header)
        xs.append(wall)
    return xs


def batch_untraced(w, args, bins, work, units, expected, ops, rec):
    jobs = w["jobs"]
    names = [n for n, _ in units]
    argv = [bins["cqualc"], "--mode", "poly", "--jobs", str(jobs)] + names
    out_path = os.path.join(work, "cqualc.out")
    setups = setup_batch(ops, bins, work, jobs, names[0])
    script = bl.EditScript(args.seed, units)
    walls, cpus, rsss, edits = [], [], [], []
    pristine = base = None
    sha = expected.get("sha256")
    t_start = time.perf_counter()
    i = 0
    while True:
        dropped = False
        t_edit = None
        if i > 0:
            unit, _, src, dropped = script.step(i - 1)
            t_edit = time.perf_counter()
            write_units(work, [(unit, src)])
        wall, cpu, rss, code, text = spawn_wait(argv, work, out_path)
        if t_edit is not None:
            edits.append(time.perf_counter() - t_edit)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        c = check_batch_report(ops, text, code, pristine, base, sha, dropped,
                               "cqualc run %d" % i)
        if i == 0:
            pristine, base = text, c
        i += 1
        if time.perf_counter() - t_start >= args.seconds and i >= 3:
            break
    write_units(work, units)
    if jobs > 1:
        # the serial report of the same corpus, outside timing
        _, _, _, code, text = spawn_wait(argv[:4] + ["1"] + names, work, out_path)
        ops.check(code == 0 and text == pristine, "jobs-1 report differs from jobs-%d" % jobs)
    rec.update(wall_s=bl.median(walls), cpu_s=bl.median(cpus), peak_rss_mb=bl.median(rsss),
               edit_p50_s=bl.median(edits), setup_s=bl.median(setups),
               samples={"setup_s": setups, "wall_s": walls, "cpu_s": cpus, "edit_s": edits})


# ---------------------------------------------------------------------------
# The session workload (typequald)


def session_untraced(w, args, bins, work, units, expected, ops, rec):
    """Fixed-work loads first: spawn, first run, one edit step, shutdown;
    these give setup_s and peak_rss_mb (the resident set after a fixed
    script, so it does not grow with the number of steps a run fits).
    Then one more load enters the timed loop of edit steps; every few
    steps a cold cqualc runs on the session's current sources, whose
    report must equal the session's render and whose times give wall_s
    and cpu_s spread over the whole run."""
    names = [n for n, _ in units]
    name = "+".join(names)
    argv = [bins["typequald"], "--mode", "poly", "--jobs", str(w["jobs"])] + names
    setups, rsss, cold = [], [], []
    d = None
    try:
        for k in range(SETUP_SPAWNS_SESSION + 1):
            d = Daemon(argv, work)
            drv = SessionDriver(d, ops, args.seed, units, expected.get("counts"))
            setups.append(drv.load())
            if k == SETUP_SPAWNS_SESSION:
                break
            drv.step(0)
            ops.check(d.close() == 0, "typequald exit status")
            rsss.append(d.rusage.ru_maxrss / 1024.0)
            d = None
        drv.edit_s, drv.whatif_s = [], []
        t_start = time.perf_counter()
        i = 0
        while time.perf_counter() - t_start < args.seconds or len(cold) < COLD_RUNS_SESSION:
            drv.step(i)
            i += 1
            if i % COLD_EVERY == 0:
                cold += cold_check(ops, bins, work, list(drv.units.items()), 1,
                                   drv.render(name), 1)
        if i % 2 == 0 and expected.get("sha256"):
            text = drv.render(name)
            ops.check(text is not None and bl.digest(text) == expected["sha256"],
                      "restored session render differs from the expected report")
        ops.check(d.close() == 0, "typequald exit status")
        d = None
    finally:
        if d is not None:
            d.kill()
    write_units(work, units)
    tail = bl.tail_percentile(drv.edit_s)
    rec.update(setup_s=bl.median(setups), edit_p50_s=bl.median(drv.edit_s),
               wall_s=bl.median([c[0] for c in cold]), cpu_s=bl.median([c[1] for c in cold]),
               peak_rss_mb=bl.median(rsss), whatif_p50_ms=1000 * bl.median(drv.whatif_s),
               edit_steps=len(drv.edit_s), whatif_samples=len(drv.whatif_s),
               samples={"setup_s": setups, "edit_s": drv.edit_s, "whatif_s": drv.whatif_s,
                        "cold_wall_s": [c[0] for c in cold], "rss_mb": rsss})
    if tail is not None:
        rec.update(edit_tail_s=tail[0], edit_tail_pct=tail[1], edit_tail_beyond=tail[2])
    else:
        rec.update(edit_tail_s=None, edit_tail_pct=None, edit_tail_beyond=None)


# ---------------------------------------------------------------------------
# Traced runs (per-layer metrics)


def read_spans(path):
    with open(path) as f:
        lines = [json.loads(x) for x in f if x.strip()]
    return lines[:-1], lines[-1]


def span_secs(spans, name):
    return [s["t1"] - s["t0"] for s in spans if s["name"] == name]


def span_med(spans, name, scale=1.0):
    xs = span_secs(spans, name)
    return scale * bl.median(xs) if xs else 0.0


def alloc_mw(spans, name):
    xs = [s["minor_w"] / 1e6 for s in spans if s["name"] == name]
    return bl.median(xs) if xs else 0.0


def traced_batch(ops, bins, work, names, jobs, m, rec):
    """The cqualc pipeline once untraced and once traced, on the files in
    `work`; the two reports must be byte-identical."""
    argv = [bins["cqualc"], "--mode", "poly", "--jobs", str(jobs)] + names
    wall_u, cpu_u, _, code, text_u = spawn_wait(argv, work, os.path.join(work, "cqualc.out"))
    ops.check(code == 0 and bl.sane_counts(bl.report_counts(text_u)), "untraced cqualc")
    render, spans_path = os.path.join(work, "traced.out"), os.path.join(work, "spans.jsonl")
    wall_t, _, _, code, _ = spawn_wait(
        [bins["pbtool"], "batch", "--jobs", str(jobs), "--render", render, "--spans",
         spans_path] + names, work, os.path.join(work, "pbtool.out"))
    with open(render) as f:
        text_t = f.read()
    ops.check(code == 0 and text_t == text_u, "traced render differs from cqualc stdout")
    spans, x = read_spans(spans_path)
    ops.check(bl.check_nesting(spans), "batch span nesting")
    compile_s = span_med(spans, "cfront.compile")
    m.update({
        "cfront.compile_s": compile_s,
        "cfront.lex_s": x.get("lex_s", 0.0), "cfront.parse_s": x.get("parse_s", 0.0),
        "cfront.build_s": x.get("build_s", 0.0), "cfront.link_s": x.get("link_s", 0.0),
        "cfront.units_reparsed": x.get("units_reparsed", 0),
        "cfront.kloc_per_s": x["lines"] / 1000.0 / compile_s,
        "analysis.run_s": span_med(spans, "analysis.run"),
        "analysis.congen_s": x["congen_s"], "analysis.generalize_s": x["generalize_s"],
        "analysis.compact_s": x["compact_s"], "analysis.instantiate_s": x["instantiate_s"],
        "analysis.solve_s": x["solve_s"],
        "solver.vars_created": x["vars_created"], "solver.edges_added": x["edges_added"],
        "solver.edges_deduped": x["edges_deduped"], "solver.worklist_pops": x["worklist_pops"],
        "compact.vars_kept_ratio": x["scheme_vars_after"] / max(1, x["scheme_vars_before"]),
        "memo.hit_ratio": x["memo_hits"] / max(1, x["memo_candidates"]),
        "fdg.build_s": span_med(spans, "fdg.build"), "fdg.sccs": x["fdg_sccs"],
        "fdg.largest_scc": x["fdg_largest_scc"],
        "fdg.wavefront_width": x["fdg_wavefront_width"],
        "report.measure_s": span_med(spans, "report.measure"),
        "report.positions": x["report_positions"],
        "render.run_s": span_med(spans, "render.run"), "render.bytes": x["render_bytes"],
        "proc.cpu_util": cpu_u / (wall_u * jobs),
        "gc.major_collections": x["gc_major_collections"],
        "gc.top_heap_mw": x["gc_top_heap_words"] / 1e6,
        "cfront.compile.alloc_mw": alloc_mw(spans, "cfront.compile"),
        "analysis.run.alloc_mw": alloc_mw(spans, "analysis.run"),
        "report.measure.alloc_mw": alloc_mw(spans, "report.measure"),
        "fdg.build.alloc_mw": alloc_mw(spans, "fdg.build"),
        "trace.residual_frac": bl.residual_frac(spans, wall_t),
        "trace.overhead_frac": wall_t / wall_u - 1.0,
    })
    rec["spans"]["batch"] = spans
    return x


def traced_session(ops, bins, work, units, jobs, seed, steps, seconds, expected, m, rec):
    """The typequald request path through pbtool serve: load, then the
    seeded edit steps. Returns the session's final units and render."""
    names = [n for n, _ in units]
    spans_path = os.path.join(work, "serve.jsonl")
    d = Daemon([bins["pbtool"], "serve", "--jobs", str(jobs), "--spans", spans_path] + names,
               work)
    try:
        drv = SessionDriver(d, ops, seed, units, expected.get("counts"))
        drv.load()
        t_start = time.perf_counter()
        i = 0
        while i < steps or (seconds and time.perf_counter() - t_start < seconds):
            drv.step(i)
            i += 1
        text = drv.render("+".join(names))
        ops.check(d.close() == 0, "pbtool serve exit status")
        d = None
    finally:
        if d is not None:
            d.kill()
    spans, x = read_spans(spans_path)
    ops.check(bl.check_nesting(spans), "session span nesting")
    # the first request's round trip starts at spawn, so start-up counts
    wall = sum(r[0] for r in drv.d.rtts)
    first = span_secs(spans, "session.create_run")
    hits, misses = x.get("session_memo_hits", 0), x.get("session_memo_misses", 0)
    m.update({
        "session.create_run_s": first[0] if first else 0.0,
        "session.update_us": span_med(spans, "session.update", 1e6),
        "session.rerun_s": span_med(spans, "session.rerun"),
        "session.memo_hit_ratio": hits / max(1, hits + misses),
        "session.whatif_prepare_ms": span_med(spans, "session.whatif_prepare", 1e3),
        "session.whatif_eval_ms": span_med(spans, "session.whatif_eval", 1e3),
        "session.classify_us": span_med(spans, "session.classify", 1e6),
        "session.explain_us": span_med(spans, "session.explain", 1e6),
        "wire.decode_us": span_med(spans, "wire.decode", 1e6),
        "wire.encode_us": span_med(spans, "wire.encode", 1e6),
        "wire.response_bytes": bl.median([r[1] for r in drv.d.rtts]),
        "session.create_run.alloc_mw": alloc_mw(spans, "session.create_run"),
        "session.rerun.alloc_mw": alloc_mw(spans, "session.rerun"),
        "trace.session_residual_frac": bl.residual_frac(spans, wall),
    })
    rec["spans"]["session"] = spans
    return list(drv.units.items()), text, x


def self_time_by_name(spans):
    """Total self time per span name: duration minus child spans."""
    st = bl.self_times(spans)
    out = {}
    for sp in spans:
        out[sp["name"]] = out.get(sp["name"], 0.0) + st[sp["id"]]
    return out


def pool_metrics(x):
    return {"pool.tasks": x["pool_tasks"], "pool.gen_s": x["pool_gen_s"],
            "pool.merge_s": x["pool_merge_s"], "analysis.absorb_s": x["absorb_s"]}


def regenerate(ops, bins, c):
    """Generate corpus `c` afresh, outside all other timing: it must equal
    the cached copy byte for byte. Returns the generation seconds."""
    tmp = c["work"] + ".gen"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        r = subprocess.run([bins["pbtool"], "gen", str(c["seed"]), str(c["lines"]), tmp],
                           capture_output=True, text=True, timeout=TIMEOUT_S)
        ok = r.returncode == 0
        for name, src in c["units"] if ok else []:
            with open(os.path.join(tmp, name)) as f:
                ok = ok and f.read() == src
        ops.check(ok, "regenerated corpus differs from the cached one")
        return json.loads(r.stdout)["gen_s"] if r.returncode == 0 else c["meta"]["gen_s"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def self_time_by_name(spans):
    """Total self time per span name: duration minus child spans."""
    st = bl.self_times(spans)
    out = {}
    for sp in spans:
        out[sp["name"]] = out.get(sp["name"], 0.0) + st[sp["id"]]
    return out


def pool_metrics(x):
    return {"pool.tasks": x["pool_tasks"], "pool.gen_s": x["pool_gen_s"],
            "pool.merge_s": x["pool_merge_s"], "analysis.absorb_s": x["absorb_s"]}


def run_traced(w, args, bins, main, probe, ops, rec):
    """`main` is the workload's corpus and `probe` the corpus the session
    layers are probed on (see prepare). The pool metrics come from the
    batch pipeline when it runs the pool (jobs > 1), else from the
    session, whose scheme memo runs poly through the pool inline."""
    work, units = main["work"], main["units"]
    names = [n for n, _ in units]
    m = {"bench.gen_s": regenerate(ops, bins, main)}
    if w["program"] == "cqualc":
        xb = traced_batch(ops, bins, work, names, w["jobs"], m, rec)
        # the session layers: load, one edit, reads
        _, _, xs = traced_session(ops, bins, probe["work"], probe["units"], w["jobs"],
                                  args.seed, 1, 0, probe["expected"], m, rec)
    else:
        final, text, xs = traced_session(ops, bins, work, units, w["jobs"], args.seed, 2,
                                         args.seconds / 2, main["expected"], m, rec)
        cold_check(ops, bins, work, final, 1, text, 1)
        xb = traced_batch(ops, bins, work, names, w["jobs"], m, rec)
    m.update(pool_metrics(xb if w["jobs"] > 1 else xs))
    return m


# ---------------------------------------------------------------------------
# Main


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def prepare(bins, cache_root, seed, lines, default_seed, tag):
    """A corpus and a private working copy of it: work dir, units, meta,
    expected report (empty off the default seed), seed and target lines."""
    cdir, units, meta = corpus(bins, cache_root, seed, lines)
    expected = {}
    if seed == default_seed:
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)["%d-%d" % (seed, lines)]
    work = os.path.join(cache_root, "work", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(cdir, work)
    return {"work": work, "units": units, "meta": meta, "expected": expected, "seed": seed,
            "lines": lines}


def run_workload(name, args, root, build_dir, bins, spec):
    w = WORKLOADS[name]
    if w["jobs"] > cores():
        raise Failure("refusing %s: it needs %d domains but this host has %d cores; "
                      "contention numbers are not reported" % (name, w["jobs"], cores()))
    cache_root = os.path.join(root, build_dir, "perfbench")
    cseed = w["corpus_seed"] if args.corpus_seed is None else args.corpus_seed
    main = prepare(bins, cache_root, cseed, w["lines"], w["corpus_seed"], name)
    work, units, meta, expected = main["work"], main["units"], main["meta"], main["expected"]
    probe = main
    if args.trace and w["program"] == "cqualc" and w["lines"] > SESSION_PROBE["lines"]:
        probe = prepare(bins, cache_root, SESSION_PROBE["corpus_seed"], SESSION_PROBE["lines"],
                        SESSION_PROBE["corpus_seed"], name + "-probe")
    ops = Ops()
    rec = {"workload": name, "seed": args.seed, "corpus_seed": cseed, "trace": args.trace,
           "corpus_lines": meta["lines"], "corpus_files": meta["files"],
           "host": host_block(root, os.path.join(root, build_dir))}
    try:
        if args.trace:
            rec["spans"] = {}
            metrics = run_traced(w, args, bins, main, probe, ops, rec)
            rec["self_s"] = {k: self_time_by_name(v) for k, v in rec["spans"].items()}
            wanted = spec["per_layer"]
        else:
            (batch_untraced if w["program"] == "cqualc" else session_untraced)(
                w, args, bins, work, units, expected, ops, rec)
            metrics = {e["name"]: rec[e["name"]] for e in spec["end_to_end"]}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(probe["work"], ignore_errors=True)
    out = {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted}
    rec.update(attempted=ops.attempted, failed=ops.failed, failures=ops.reasons,
               failed_frac=ops.failed / max(1, ops.attempted), metrics=out)
    os.makedirs(os.path.join(cache_root, "results"), exist_ok=True)
    with open(os.path.join(cache_root, "results", "%s-seed%d-trace%d.json"
                           % (name, args.seed, args.trace)), "w") as f:
        json.dump(rec, f, indent=1)
    report(rec)
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": out}


def report(rec):
    h = rec["host"]
    print("# %s seed=%d corpus=%d (%d lines, %d files) trace=%d | nproc=%d ocaml=%s commit=%s "
          "source=%s" % (rec["workload"], rec["seed"], rec["corpus_seed"], rec["corpus_lines"],
                         rec["corpus_files"], rec["trace"], h["nproc"], h["ocaml"], h["commit"],
                         h["source_digest"]))
    for k, v in rec["metrics"].items():
        print("  %-32s %14.6g %s" % (k, v["value"], v["unit"]))
    if "whatif_p50_ms" in rec:
        print("  %-32s %14.6g ms (%d samples)" % ("whatif_p50_ms", rec["whatif_p50_ms"],
                                                   rec["whatif_samples"]))
        if rec["edit_tail_s"] is not None:
            print("  %-32s %14.6g s (p%.1f, %d samples beyond, of %d)"
                  % ("edit_tail_s", rec["edit_tail_s"], rec["edit_tail_pct"],
                     rec["edit_tail_beyond"], rec["edit_steps"]))
        else:
            print("  %-32s %14s (fewer than 11 edit samples: %d)"
                  % ("edit_tail_s", "n/a", rec["edit_steps"]))
    print("  %-32s %14.6g ratio (%d of %d operations)"
          % ("failed_frac", rec["failed_frac"], rec["failed"], rec["attempted"]))
    for k, xs in rec.get("samples", {}).items():
        t = bl.tail_percentile(xs)
        print("  samples %-24s n=%d median %.6g, tail %s" % (
            k, len(xs), bl.median(xs),
            "p%.1f %.6g (%d beyond)" % (t[1], t[0], t[2]) if t else "n/a (needs 11)"))
    for r in rec["failures"]:
        print("  FAILED: %s" % r)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=lambda s: int(s, 0), default=None,
                    help="generate the corpus from this seed instead of the workload's")
    args = ap.parse_args()
    root = os.getcwd()
    try:
        spec = load_benchmark(root)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        if os.path.isabs(build_dir):
            build_dir = os.path.relpath(build_dir, root)
        bins = build(root, build_dir)
        if args.workload == "all":
            runs = [(n, t) for n in sorted(WORKLOADS) for t in (0, 1)]
        else:
            runs = [(args.workload, args.trace)]
        for n, args.trace in runs:
            result = run_workload(n, args, root, build_dir, bins, spec)
            print(json.dumps(result), flush=True)
    except (Failure, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
