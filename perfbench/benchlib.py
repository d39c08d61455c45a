"""Pure helpers of the benchmark: statistics, span arithmetic, the seeded
edit script, report parsing and the correctness checks. Nothing here
starts a process or reads the clock, so all of it is unit-tested in
test_benchlib.py."""

import hashlib
import random
import re
import statistics

# ---------------------------------------------------------------------------
# Statistics


def median(xs):
    return statistics.median(xs)


def tail_percentile(samples, beyond=10):
    """The highest percentile of `samples` that still has at least `beyond`
    samples strictly above its rank, as (value, percentile, n_beyond), or
    None when there are too few samples for any. With n sorted samples the
    value at 0-based rank r has n-1-r samples beyond it."""
    n = len(samples)
    if n < beyond + 1:
        return None
    xs = sorted(samples)
    r = n - 1 - beyond
    return xs[r], 100.0 * (r + 1) / n, n - 1 - r


# ---------------------------------------------------------------------------
# Spans
#
# A span is a dict with "id", "parent" (-1 at top level), "t0" and "t1".


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s["t1"] - s["t0"])
    return {s["id"]: (s["t1"] - s["t0"]) - child.get(s["id"], 0.0) for s in spans}


def check_nesting(spans):
    """Every child lies inside its parent and parents are recorded."""
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["t1"] < s["t0"]:
            return False
        p = by_id.get(s["parent"]) if s["parent"] >= 0 else None
        if s["parent"] >= 0 and (p is None or s["t0"] < p["t0"] or s["t1"] > p["t1"]):
            return False
    return True


def residual_frac(spans, wall):
    """1 - (time covered by top-level spans) / wall."""
    top = sum(s["t1"] - s["t0"] for s in spans if s["parent"] < 0)
    return 1.0 - top / wall


# ---------------------------------------------------------------------------
# The seeded edit script
#
# An edit drops the `const` of the first parameter of a reader function
# definition `int count_N(const char *s...) {` in one unit (its prototype
# in the shared header keeps the const); the next edit restores it.
# Candidates are found in the source text alone.

_CONST_PARAM = re.compile(r"^int (count_\d+)\((const )char \*s[^;\n]*\) \{$", re.M)
_POINTER_PARAM = re.compile(
    r"^(?:int|void|char \*)\s*(\w+)\((?:const )?(?:char|struct \w+) \*\w+[^;\n]*\) \{$",
    re.M)


def edit_candidates(units):
    """[(unit, function, offset of 'const ')] over (name, source) pairs."""
    out = []
    for name, src in units:
        for m in _CONST_PARAM.finditer(src):
            out.append((name, m.group(1), m.start(2)))
    return out


def read_keys(units):
    """Structural position keys of every function's first pointer
    parameter: unit:function:p0@1."""
    return ["%s:%s:p0@1" % (name, m.group(1))
            for name, src in units for m in _POINTER_PARAM.finditer(src)]


def drop_const(src, offset):
    assert src[offset:offset + 6] == "const "
    return src[:offset] + src[offset + 6:]


def digest(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


class EditScript:
    """Step i drops a const (i even) or restores it (i odd); each
    drop/restore pair picks a fresh seeded target."""

    def __init__(self, seed, units):
        self.rng = random.Random(seed)
        self.units = dict(units)
        self.candidates = edit_candidates(units)
        if not self.candidates:
            raise ValueError("corpus has no const parameter to edit")
        self.target = None

    def step(self, i):
        """(unit, function, new source, dropped?) for step i."""
        if i % 2 == 0:
            self.target = self.rng.choice(self.candidates)
            unit, fn, off = self.target
            return unit, fn, drop_const(self.units[unit], off), True
        unit, fn, _ = self.target
        return unit, fn, self.units[unit], False

    @staticmethod
    def key(unit, fn):
        return "%s:%s:p0@1" % (unit, fn)


# ---------------------------------------------------------------------------
# Reports

_COUNTS = re.compile(
    r"^interesting const positions: (\d+) total; (\d+) declared, (\d+) possible "
    r"\((\d+) must-const, (\d+) could-be-either\), (\d+) must-not$", re.M)
_FUNCS = re.compile(r"^lines: (\d+), functions: (\d+) \((\d+) analyzed, (\d+) degraded\)", re.M)
_ERRORS = re.compile(r"^TYPE ERRORS: (\d+)", re.M)


def report_counts(text):
    """The counts of one rendered cqualc report, or None if unparsable."""
    m = _COUNTS.search(text)
    f = _FUNCS.search(text)
    if not m or not f:
        return None
    e = _ERRORS.search(text)
    return {
        "total": int(m.group(1)), "declared": int(m.group(2)),
        "possible": int(m.group(3)), "must": int(m.group(4)),
        "type_errors": int(e.group(1)) if e else 0,
        "degraded": int(f.group(4)),
    }


def sane_counts(c):
    """type_errors = 0, no degraded functions, declared <= possible <= total."""
    return (c is not None and c["type_errors"] == 0 and c.get("degraded", 0) == 0
            and c["declared"] <= c["possible"] <= c["total"])


def edit_counts_ok(base, now, dropped):
    """After a const drop: declared and must go down by one, possible and
    total stay, no type errors. After a restore: every count is back."""
    keys = ("total", "declared", "possible", "must", "type_errors")
    if not dropped:
        return all(now[k] == base[k] for k in keys)
    return (now["declared"] == base["declared"] - 1 and now["must"] == base["must"] - 1
            and now["possible"] == base["possible"] and now["total"] == base["total"]
            and now["type_errors"] == 0)


def whatif_ok(verdict, before, after):
    """Section 4.4: the greatest solution already makes every possible
    position const, so adding const to a must-const or could-be-const
    position adds no error; on a non-const position it must add one."""
    if verdict in ("must-const", "could-be-const"):
        return after == before
    if verdict == "non-const":
        return after > before
    return False


def response_ok(resp, rid):
    """A JSON-RPC response answers request `rid` and carries no error."""
    return isinstance(resp, dict) and resp.get("id") == rid and "error" not in resp \
        and "result" in resp
