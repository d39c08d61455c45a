"""Tests of the benchmark's own logic. Run from the repo root:

    python3 perfbench/test_benchlib.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402
import run  # noqa: E402

UNIT = """int count_1(const char *s) {
  return *s;
}

int count_2(const char *s, const char *t) {
  return *s - *t;
}

void fill_3(char *dst, int n) {
  dst[n] = 0;
}
"""
HEADER = "int count_1(const char *s);\nint count_2(const char *s, const char *t);\n"
UNITS = [("project_h.c", HEADER), ("mod_00.c", UNIT)]


class Tail(unittest.TestCase):
    def test_keeps_ten_beyond(self):
        for n in range(11, 200):
            xs = list(range(n))
            value, pct, beyond = bl.tail_percentile(xs)
            self.assertEqual(beyond, 10)
            self.assertEqual(sum(1 for x in xs if x > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_too_few(self):
        self.assertIsNone(bl.tail_percentile(list(range(10))))

    def test_unsorted_input(self):
        xs = [5.0, 1.0] * 50
        value, _, beyond = bl.tail_percentile(xs)
        self.assertEqual((value, beyond), (5.0, 10))


class Spans(unittest.TestCase):
    SPANS = [
        {"id": 0, "parent": -1, "t0": 0.0, "t1": 10.0},
        {"id": 1, "parent": 0, "t0": 1.0, "t1": 4.0},
        {"id": 2, "parent": 0, "t0": 5.0, "t1": 6.0},
        {"id": 3, "parent": 1, "t0": 2.0, "t1": 3.5},
        {"id": 4, "parent": -1, "t0": 11.0, "t1": 12.0},
    ]

    def test_self_time(self):
        st = bl.self_times(self.SPANS)
        self.assertEqual(st, {0: 6.0, 1: 1.5, 2: 1.0, 3: 1.5, 4: 1.0})
        # self times partition the time covered by top-level spans
        self.assertAlmostEqual(sum(st.values()), 11.0)

    def test_nesting(self):
        self.assertTrue(bl.check_nesting(self.SPANS))
        bad = self.SPANS + [{"id": 5, "parent": 1, "t0": 3.0, "t1": 4.5}]
        self.assertFalse(bl.check_nesting(bad))
        orphan = self.SPANS + [{"id": 6, "parent": 42, "t0": 0.0, "t1": 1.0}]
        self.assertFalse(bl.check_nesting(orphan))

    def test_residual(self):
        self.assertAlmostEqual(bl.residual_frac(self.SPANS, 20.0), 1 - 11.0 / 20.0)


class Edits(unittest.TestCase):
    def test_candidates_are_definitions(self):
        c = bl.edit_candidates(UNITS)
        self.assertEqual([(u, f) for u, f, _ in c], [("mod_00.c", "count_1"),
                                                      ("mod_00.c", "count_2")])

    def test_drop_changes_digest_and_restore_is_exact(self):
        script = bl.EditScript(7, UNITS)
        orig = dict(UNITS)
        for i in range(20):
            unit, fn, src, dropped = script.step(i)
            self.assertEqual(dropped, i % 2 == 0)
            if dropped:
                self.assertNotEqual(bl.digest(src), bl.digest(orig[unit]))
                self.assertEqual(len(src), len(orig[unit]) - 6)
                self.assertIn("int %s(char *s" % fn, src)
            else:
                self.assertEqual(src, orig[unit])

    def test_seeded(self):
        a = [bl.EditScript(3, UNITS).step(0)[1] for _ in range(3)]
        self.assertEqual(len(set(a)), 1)

    def test_read_keys(self):
        self.assertEqual(bl.read_keys(UNITS), ["mod_00.c:count_1:p0@1", "mod_00.c:count_2:p0@1",
                                               "mod_00.c:fill_3:p0@1"])


class Checks(unittest.TestCase):
    BASE = {"total": 10, "declared": 4, "possible": 7, "must": 4, "type_errors": 0}

    def test_edit_counts(self):
        drop = dict(self.BASE, declared=3, must=3)
        self.assertTrue(bl.edit_counts_ok(self.BASE, drop, True))
        self.assertFalse(bl.edit_counts_ok(self.BASE, self.BASE, True))
        self.assertFalse(bl.edit_counts_ok(self.BASE, dict(drop, possible=6), True))
        self.assertTrue(bl.edit_counts_ok(self.BASE, dict(self.BASE), False))
        self.assertFalse(bl.edit_counts_ok(self.BASE, drop, False))

    def test_whatif(self):
        self.assertTrue(bl.whatif_ok("must-const", 0, 0))
        self.assertTrue(bl.whatif_ok("could-be-const", 2, 2))
        self.assertFalse(bl.whatif_ok("could-be-const", 0, 1))
        self.assertTrue(bl.whatif_ok("non-const", 0, 1))
        self.assertFalse(bl.whatif_ok("non-const", 0, 0))

    def test_report_counts(self):
        text = ("=== a.c (polymorphic) ===\n"
                "lines: 5, functions: 2 (2 analyzed, 0 degraded), qualifier variables: 9\n"
                "interesting const positions: 10 total; 4 declared, 7 possible (4 must-const, "
                "3 could-be-either), 3 must-not\n")
        c = bl.report_counts(text)
        self.assertEqual(c, dict(self.BASE, degraded=0))
        self.assertTrue(bl.sane_counts(c))
        self.assertFalse(bl.sane_counts(bl.report_counts(text + "TYPE ERRORS: 2 (x)\n")))
        self.assertIsNone(bl.report_counts("garbage"))


# A stand-in server: answers "run" normally, refuses "classify" with a
# JSON-RPC error, answers "explain" under the wrong id, and hangs up on
# "whatif".
FAKE = r"""
import json, sys
for line in sys.stdin:
    rq = json.loads(line)
    m = rq["method"]
    if m == "whatif":
        sys.exit(0)
    if m == "classify":
        out = {"id": rq["id"], "error": {"code": -32000, "message": "refused"}}
    elif m == "explain":
        out = {"id": rq["id"] + 100, "result": {}}
    else:
        out = {"id": rq["id"], "result": {"total": 1, "declared": 0, "possible": 1,
                                          "must": 0, "type_errors": 0, "ok": True}}
    print(json.dumps(out), flush=True)
"""


class Failures(unittest.TestCase):
    def test_error_and_refusal_count_as_failed(self):
        self.assertFalse(bl.response_ok({"id": 1, "error": {"message": "x"}}, 1))
        self.assertFalse(bl.response_ok({"id": None, "error": {"message": "bad request"}}, 1))
        self.assertFalse(bl.response_ok(None, 1))
        self.assertTrue(bl.response_ok({"id": 1, "result": {}}, 1))

    def test_through_the_client(self):
        ops = run.Ops()
        d = run.Daemon([sys.executable, "-c", FAKE], os.getcwd())
        try:
            drv = run.SessionDriver(d, ops, 1, UNITS, None)
            drv.load()
            self.assertEqual((ops.attempted, ops.failed), (2, 0))  # response + sane counts
            for method in ("classify", "explain", "whatif"):
                self.assertIsNone(drv.rpc(method, {"key": "k"})[0])
            self.assertEqual((ops.attempted, ops.failed), (5, 3))
        finally:
            d.kill()
            d.p.stdout.close()
            d.p.stdin.close()

    def test_refuses_oversubscription(self):
        saved = run.cores
        run.cores = lambda: 1
        try:
            with self.assertRaises(run.Failure):
                run.run_workload("midi-poly-j2", None, ".", ".bench_build", {}, {})
        finally:
            run.cores = saved


class Documents(unittest.TestCase):
    def test_metrics_documented(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = run.load_benchmark(root)
        with open(os.path.join(run.HERE, "metrics.json")) as f:
            doc = json.load(f)
        self.assertEqual(set(doc["per_layer"]), {m["name"] for m in spec["per_layer"]})
        self.assertEqual(set(doc["end_to_end"]), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
