"""The `cli-ops` workload: a seeded mix of one-operation CLI calls.

One client calls `cli.main` in process, in a closed loop, over JSON files
written at set-up.  Every call has a reference outcome built at set-up
by small oracles of the benchmark's own: pair sets for relations and
partial injections, numpy for matrices, `Fraction` arithmetic for joint
measures, and a closed-form tightness test for sup maps.  Each pass runs
the same operations in the same order.

The mix per pass is fixed; only the values inside each file vary
with the seed, so the load does not drift from seed to seed.  Hostile
input (malformed JSON, category conflicts, shape mismatches, invariant
violations, transpose or trace outside the class) must end with the
documented exit code.  Oversize `--bound` values are left out: the
factorization search has no cap yet and would hang.

No record of real CLI traffic exists, so the shares of the mix are
assumptions.  They follow three rules instead of being set one by one:

* every (category, command) pair in `CELLS` gets `PER_CELL` calls.  These
  are the commands of the README's CLI examples (compose, trace,
  transpose, `transpose --inverse`, check-nuclear, disintegrate) on each
  category that accepts them, plus pinj traces of endomorphisms outside
  the trace class, which run the nuclear factorization search;
* each hostile kind in `Ops.hostile` gets `HOSTILE_ROUNDS` calls, so that
  every error path weighs the same;
* `cjsl.nuclear-hard`, a witness search run to exhaustion, gets `HARD`
  calls.  `op_tail_ms` is read over windows of `TAIL_PASSES` passes with
  10 calls beyond it.  `TAIL_PASSES * HARD` = 100 such searches in a
  window put it near their 90th percentile, well inside them, while they
  stay about 1% of the calls.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

SCHEMA = "nucleal/1"
CELLS = (
    "finrel.compose", "finrel.trace", "finrel.transpose", "finrel.inverse",
    "finrel.nuclear",
    "pinj.compose", "pinj.trace", "pinj.trace-outside", "pinj.transpose",
    "pinj.inverse", "pinj.nuclear",
    "finhilb.compose", "finhilb.trace", "finhilb.transpose", "finhilb.inverse",
    "finhilb.nuclear",
    "finstoch.compose", "finstoch.trace", "finstoch.transpose",
    "finstoch.inverse", "finstoch.nuclear", "finstoch.disintegrate",
    "cjsl.compose", "cjsl.nuclear",
)
PER_CELL = 15
HOSTILE_ROUNDS = 2
HARD = 5
TAIL_PASSES = 20
LABELS = "abcdefgh"
FLOAT_TOL = 1e-9
ERROR_PREFIX = {
    2: "parse error:", 3: "shape mismatch:", 4: "invariant violation:",
    5: "outside the supported class:",
}


def _manifest(category, value):
    return {"schema": SCHEMA, "category": category, "value": value}


def _expect_doc(doc):
    return lambda code, out, err: code == 0 and json.loads(out) == doc


def _expect_lines(*lines):
    want = "\n".join(lines) + "\n"
    return lambda code, out, err: code == 0 and out == want


def _expect_error(code, needle=""):
    prefix = ERROR_PREFIX[code]
    return lambda got, out, err: (
        got == code and err.startswith(prefix) and needle in err
    )


# -- relations and partial injections: pair sets ----------------------------


def _finset(rng, lo=1, hi=4):
    return list(LABELS[: rng.randint(lo, hi)])


def _relation_doc(x, y, pairs):
    return {
        "source": x, "target": y,
        "pairs": [[(a, b) in pairs for b in y] for a in x],
    }


def _rel_compose(r, s):
    return {(a, c) for a, b in r for b2, c in s if b == b2}


def _product_labels(x, y):
    return [[a, b] for a in x for b in y]


def _rel_state(x, y, pairs):
    return {
        "source": ["*"], "target": _product_labels(x, y),
        "pairs": [[(a, b) in pairs for a in x for b in y]],
    }


def _random_pinj(rng, x, y, k=None):
    k = rng.randint(0, min(len(x), len(y))) if k is None else k
    return dict(zip(rng.sample(x, k), rng.sample(y, k)))


def _pinj_doc(x, y, graph):
    return {"source": x, "target": y, "graph": dict(graph)}


def _pinj_state(x, y, graph):
    return _pinj_doc(
        ["*"], _product_labels(x, y),
        {"*": json.dumps([a, b], separators=(",", ":")) for a, b in graph.items()},
    )


# -- matrices: numpy ---------------------------------------------------------


def _random_matrix(rng, rows, cols):
    return np.array([
        [complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
         for _ in range(cols)]
        for _ in range(rows)
    ])


def _matrix_doc(m):
    return {
        "rows": m.shape[0], "cols": m.shape[1],
        "re": m.real.tolist(), "im": m.imag.tolist(),
    }


def _expect_matrix(want):
    def check(code, out, err):
        if code != 0:
            return False
        doc = json.loads(out)["value"]
        got = np.array(doc["re"]) + 1j * np.array(doc["im"])
        return got.shape == want.shape and np.allclose(got, want, rtol=0, atol=FLOAT_TOL)

    return check


# the sign between the parts is the last one not inside an exponent
_COMPLEX = re.compile(r"(.*[^e])([+-])(.*)i")


def _expect_complex(want):
    def check(code, out, err):
        m = _COMPLEX.fullmatch(out.strip())
        if code != 0 or m is None:
            return False
        sign = 1 if m.group(2) == "+" else -1
        got = complex(float(m.group(1)), sign * float(m.group(3)))
        return abs(got - want) <= FLOAT_TOL * (1 + abs(want))

    return check


# -- joint measures: Fraction arithmetic -------------------------------------


def _random_space(rng, lo=1, hi=3):
    pts = _finset(rng, lo, hi)
    raw = [rng.randint(0, 3) for _ in pts]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return pts, [Fraction(w, total) for w in raw]


def _random_weights(rng, p, q):
    return [
        [Fraction(rng.randint(1, 3), rng.randint(1, 3))
         if mp and mq and rng.randrange(3) else Fraction(0) for mq in q[1]]
        for mp in p[1]
    ]


def _key(label):
    return label if isinstance(label, str) else json.dumps(label, separators=(",", ":"))


def _space_doc(space):
    pts, mass = space
    return {"points": pts, "mass": {_key(p): str(m) for p, m in zip(pts, mass)}}


def _joint_doc(p, q, w):
    return {
        "source": _space_doc(p), "target": _space_doc(q),
        "weight": [[str(v) for v in row] for row in w],
    }


def _stoch_compose(f, g, mid_mass):
    return [
        [sum((f[i][j] * g[j][k] / m for j, m in enumerate(mid_mass) if m), Fraction(0))
         for k in range(len(g[0]))]
        for i in range(len(f))
    ]


def _render_fraction(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _conditional(rows):
    """Rows divided by their totals; a null row becomes a point mass at 0."""
    out = []
    for row in rows:
        total = sum(row, Fraction(0))
        if total:
            out.append([str(w / total) for w in row])
        else:
            out.append([str(Fraction(int(j == 0))) for j in range(len(row))])
    return out


# -- sup maps between lattices of at most five elements ----------------------

# name -> (size, covering pairs); elements are labelled 0..n-1
LATTICES = {
    "c1": (1, []), "c2": (2, [(0, 1)]), "c3": (3, [(0, 1), (1, 2)]),
    "c4": (4, [(0, 1), (1, 2), (2, 3)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "b2": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "m3": (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "n5": (5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)]),
    "b2-top": (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
    "bot-b2": (5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
}


class Lattice:
    def __init__(self, name):
        n, covers = LATTICES[name]
        le = [[i == j for j in range(n)] for i in range(n)]
        for i, j in covers:
            le[i][j] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    le[i][j] = le[i][j] or (le[i][k] and le[k][j])
        self.n, self.le = n, le
        self.bot = next(i for i in range(n) if all(le[i]))
        self.join = [[self._lub(i, j) for j in range(n)] for i in range(n)]
        self.irreducibles = [
            a for a in range(n)
            if a != self.bot and not any(
                self.join[b][c] == a for b in range(n) for c in range(n)
                if b != a and c != a
            )
        ]
        self.doc = {"elements": list(range(n)), "leq": [[int(v) for v in r] for r in le]}

    def _lub(self, i, j):
        ups = [k for k in range(self.n) if self.le[i][k] and self.le[j][k]]
        return next(u for u in ups if all(self.le[u][v] for v in ups))

    def sup(self, xs):
        out = self.bot
        for x in xs:
            out = self.join[out][x]
        return out


def _is_sup_map(a, b, f):
    return f[a.bot] == b.bot and all(
        f[a.join[x][y]] == b.join[f[x]][f[y]] for x in range(a.n) for y in range(a.n)
    )


def _random_sup_map(rng, a, b):
    while True:
        pick = {j: rng.randrange(b.n) for j in a.irreducibles}
        f = tuple(b.sup(v for j, v in pick.items() if a.le[j][x]) for x in range(a.n))
        if _is_sup_map(a, b, f):
            return f


def _hr(a, b, g):
    """Criterion image of g: B -> A, the map x |-> sup{y : x not below g(y)}."""
    return tuple(b.sup(y for y in range(b.n) if not a.le[x][g[y]]) for x in range(a.n))


def _representable(a, b, f):
    """Closed form: f is tight iff the least candidate witness represents it."""
    g0 = tuple(a.sup(x for x in range(a.n) if not b.le[y][f[x]]) for y in range(b.n))
    return _hr(a, b, g0) == f


_WITNESS = re.compile(r"nuclear: yes \(witness \[([0-9, ]*)\], (sup-map|plain function)\)")


def _expect_tightness(a, b, f):
    if not _representable(a, b, f):
        return _expect_lines("nuclear: no (exhaustive witness search)")

    def check(code, out, err):
        m = _WITNESS.fullmatch(out.strip())
        if code != 0 or m is None:
            return False
        g = tuple(int(v) for v in m.group(1).split(",") if v.strip())
        return (
            len(g) == b.n and all(0 <= v < a.n for v in g) and _hr(a, b, g) == f
            and (m.group(2) == "sup-map") == _is_sup_map(b, a, g)
        )

    return check


def _supmap_doc(a, b, f):
    return {"source": a.doc, "target": b.doc, "values": list(f)}


# -- building the operations --------------------------------------------------


class Ops:
    """Writes input files and records (kind, argv, check) per operation."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.dir = workdir
        self.ops: list[tuple[str, list[str], object]] = []
        self._paths: dict[str, str] = {}  # file content -> path
        self.lattices = {name: Lattice(name) for name in LATTICES}

    def file(self, doc=None, text=None) -> str:
        """Path of a file holding `doc` as JSON, or `text`; equal contents
        share one file, since the CLI only reads them."""
        text = json.dumps(doc) if text is None else text
        if text not in self._paths:
            path = self.dir / f"in{len(self._paths) + 1}.json"
            path.write_text(text)
            self._paths[text] = str(path)
        return self._paths[text]

    def add(self, kind, argv, check):
        self.ops.append((kind, argv, check))

    # finrel ---------------------------------------------------------------

    def _rel(self, x, y):
        return {(a, b) for a in x for b in y if self.rng.randrange(2)}

    def finrel_compose(self):
        x, y, z = (_finset(self.rng) for _ in range(3))
        r, s = self._rel(x, y), self._rel(y, z)
        self.add("finrel.compose",
                 ["compose", self.file(_manifest("finrel", _relation_doc(x, y, r))),
                  self.file(_manifest("finrel", _relation_doc(y, z, s)))],
                 _expect_doc(_manifest("finrel", _relation_doc(x, z, _rel_compose(r, s)))))

    def finrel_trace(self):
        x = _finset(self.rng)
        r = self._rel(x, x)
        loop = any((a, a) in r for a in x)
        self.add("finrel.trace",
                 ["trace", self.file(_manifest("finrel", _relation_doc(x, x, r)))],
                 _expect_lines("id" if loop else "0"))

    def finrel_transpose(self, inverse=False):
        x, y = _finset(self.rng), _finset(self.rng)
        r = self._rel(x, y)
        state = _manifest("finrel", _rel_state(x, y, r))
        rel = _manifest("finrel", _relation_doc(x, y, r))
        if inverse:
            self.add("finrel.inverse",
                     ["transpose", self.file(state), "--inverse",
                      "--left", self.file(x), "--right", self.file(y)],
                     _expect_doc(rel))
        else:
            self.add("finrel.transpose", ["transpose", self.file(rel)], _expect_doc(state))

    def finrel_inverse(self):
        self.finrel_transpose(inverse=True)

    def finrel_nuclear(self):
        x, y = _finset(self.rng), _finset(self.rng)
        doc = _relation_doc(x, y, self._rel(x, y))
        self.add("finrel.nuclear", ["check-nuclear", self.file(_manifest("finrel", doc))],
                 _expect_lines("nuclear: yes"))

    # pinj -----------------------------------------------------------------

    def pinj_compose(self):
        x, y, z = (_finset(self.rng) for _ in range(3))
        f, g = _random_pinj(self.rng, x, y), _random_pinj(self.rng, y, z)
        gf = {a: g[b] for a, b in f.items() if b in g}
        self.add("pinj.compose",
                 ["compose", self.file(_manifest("pinj", _pinj_doc(x, y, f))),
                  self.file(_manifest("pinj", _pinj_doc(y, z, g)))],
                 _expect_doc(_manifest("pinj", _pinj_doc(x, z, gf))))

    def pinj_trace(self):
        x = _finset(self.rng)
        h = _random_pinj(self.rng, x, x, k=self.rng.randint(0, 1))
        fixed = any(a == b for a, b in h.items())
        self.add("pinj.trace", ["trace", self.file(_manifest("pinj", _pinj_doc(x, x, h)))],
                 _expect_lines("id" if fixed else "0"))

    def pinj_trace_outside(self):
        # two or more assignments: outside the trace class, and no
        # factorization through the ideal exists either
        x = _finset(self.rng, 2, 4)
        h = _random_pinj(self.rng, x, x, k=self.rng.randint(2, len(x)))
        self.add("pinj.trace-outside",
                 ["trace", self.file(_manifest("pinj", _pinj_doc(x, x, h)))],
                 _expect_error(5, "no nuclear factorization exists"))

    def pinj_transpose(self, inverse=False):
        x, y = _finset(self.rng), _finset(self.rng)
        f = _random_pinj(self.rng, x, y, k=self.rng.randint(0, 1))
        state = _manifest("pinj", _pinj_state(x, y, f))
        doc = _manifest("pinj", _pinj_doc(x, y, f))
        if inverse:
            self.add("pinj.inverse",
                     ["transpose", self.file(state), "--inverse",
                      "--left", self.file(x), "--right", self.file(y)],
                     _expect_doc(doc))
        else:
            self.add("pinj.transpose", ["transpose", self.file(doc)], _expect_doc(state))

    def pinj_inverse(self):
        self.pinj_transpose(inverse=True)

    def pinj_nuclear(self):
        x = _finset(self.rng)
        y = x if self.rng.randrange(2) else _finset(self.rng)
        f = _random_pinj(self.rng, x, y)
        if len(f) <= 1:
            want = _expect_lines("nuclear: yes")
        elif x == y:
            want = _expect_lines("nuclear: no", "and it admits no nuclear factorization")
        else:
            want = _expect_lines("nuclear: no")
        self.add("pinj.nuclear",
                 ["check-nuclear", self.file(_manifest("pinj", _pinj_doc(x, y, f)))], want)

    # finhilb --------------------------------------------------------------

    def _dim(self):
        return self.rng.randint(1, 4)

    def finhilb_compose(self):
        a, b, c = self._dim(), self._dim(), self._dim()
        f, g = _random_matrix(self.rng, b, a), _random_matrix(self.rng, c, b)
        self.add("finhilb.compose",
                 ["compose", self.file(_manifest("finhilb", _matrix_doc(f))),
                  self.file(_manifest("finhilb", _matrix_doc(g)))],
                 _expect_matrix(g @ f))

    def finhilb_trace(self):
        n = self._dim()
        h = _random_matrix(self.rng, n, n)
        self.add("finhilb.trace", ["trace", self.file(_manifest("finhilb", _matrix_doc(h)))],
                 _expect_complex(complex(np.trace(h))))

    def finhilb_transpose(self, inverse=False):
        a, b = self._dim(), self._dim()
        f = _random_matrix(self.rng, b, a)
        # slot (i, j) of the state holds the entry sending e_i to e_j
        state = f.T.reshape(-1, 1)
        if inverse:
            self.add("finhilb.inverse",
                     ["transpose", self.file(_manifest("finhilb", _matrix_doc(state))),
                      "--inverse", "--left", self.file(a), "--right", self.file(b)],
                     _expect_matrix(f))
        else:
            self.add("finhilb.transpose",
                     ["transpose", self.file(_manifest("finhilb", _matrix_doc(f)))],
                     _expect_matrix(state))

    def finhilb_inverse(self):
        self.finhilb_transpose(inverse=True)

    def finhilb_nuclear(self):
        f = _random_matrix(self.rng, self._dim(), self._dim())
        self.add("finhilb.nuclear",
                 ["check-nuclear", self.file(_manifest("finhilb", _matrix_doc(f)))],
                 _expect_lines("nuclear: yes"))

    # finstoch -------------------------------------------------------------

    def finstoch_compose(self):
        p, q, r = (_random_space(self.rng) for _ in range(3))
        f, g = _random_weights(self.rng, p, q), _random_weights(self.rng, q, r)
        self.add("finstoch.compose",
                 ["compose", self.file(_manifest("finstoch", _joint_doc(p, q, f))),
                  self.file(_manifest("finstoch", _joint_doc(q, r, g)))],
                 _expect_doc(_manifest("finstoch", _joint_doc(p, r, _stoch_compose(f, g, q[1])))))

    def finstoch_trace(self):
        p = _random_space(self.rng)
        h = _random_weights(self.rng, p, p)
        tr = sum((h[i][i] / m for i, m in enumerate(p[1]) if m), Fraction(0))
        self.add("finstoch.trace",
                 ["trace", self.file(_manifest("finstoch", _joint_doc(p, p, h)))],
                 _expect_lines(_render_fraction(tr)))

    def finstoch_transpose(self, inverse=False):
        p, q = _random_space(self.rng), _random_space(self.rng)
        f = _random_weights(self.rng, p, q)
        pq = (_product_labels(p[0], q[0]), [mp * mq for mp in p[1] for mq in q[1]])
        unit = (["*"], [Fraction(1)])
        state = _manifest("finstoch", _joint_doc(unit, pq, [[w for row in f for w in row]]))
        doc = _manifest("finstoch", _joint_doc(p, q, f))
        if inverse:
            self.add("finstoch.inverse",
                     ["transpose", self.file(state), "--inverse",
                      "--left", self.file(_space_doc(p)), "--right", self.file(_space_doc(q))],
                     _expect_doc(doc))
        else:
            self.add("finstoch.transpose", ["transpose", self.file(doc)], _expect_doc(state))

    def finstoch_inverse(self):
        self.finstoch_transpose(inverse=True)

    def finstoch_nuclear(self):
        p, q = _random_space(self.rng), _random_space(self.rng)
        doc = _joint_doc(p, q, _random_weights(self.rng, p, q))
        self.add("finstoch.nuclear", ["check-nuclear", self.file(_manifest("finstoch", doc))],
                 _expect_lines("nuclear: yes"))

    def finstoch_disintegrate(self):
        p, q = _random_space(self.rng), _random_space(self.rng)
        w = _random_weights(self.rng, p, q)
        want = {
            "schema": SCHEMA, "category": "finstoch",
            "forward": {"source": p[0], "target": q[0], "rows": _conditional(w)},
            "backward": {"source": q[0], "target": p[0],
                         "rows": _conditional([list(col) for col in zip(*w)])},
        }
        self.add("finstoch.disintegrate",
                 ["disintegrate", self.file(_manifest("finstoch", _joint_doc(p, q, w)))],
                 _expect_doc(want))

    # cjsl -----------------------------------------------------------------

    def _lattice(self, max_size=5):
        return self.lattices[self.rng.choice(
            [n for n, (size, _) in LATTICES.items() if size <= max_size]
        )]

    def cjsl_compose(self):
        a, b, c = self._lattice(), self._lattice(), self._lattice()
        f, g = _random_sup_map(self.rng, a, b), _random_sup_map(self.rng, b, c)
        gf = tuple(g[v] for v in f)
        self.add("cjsl.compose",
                 ["compose", self.file(_manifest("cjsl", _supmap_doc(a, b, f))),
                  self.file(_manifest("cjsl", _supmap_doc(b, c, g)))],
                 _expect_doc(_manifest("cjsl", _supmap_doc(a, c, gf))))

    def cjsl_nuclear(self):
        # at most four elements a side: at most 4^4 candidate witnesses
        a, b = self._lattice(4), self._lattice(4)
        f = _random_sup_map(self.rng, a, b)
        self.add("cjsl.nuclear",
                 ["check-nuclear", self.file(_manifest("cjsl", _supmap_doc(a, b, f)))],
                 _expect_tightness(a, b, f))

    def cjsl_nuclear_hard(self):
        # The automorphisms of M3 and N5 are not representable: the tight
        # maps form an ideal, so a tight automorphism would make the
        # identity tight, and these lattices are not distributive.  The
        # witness search then tries all 5^5 candidates.
        if self.rng.randrange(2):
            a, f = self.lattices["n5"], tuple(range(5))
        else:  # permute the three atoms of M3
            a = self.lattices["m3"]
            f = (0, *self.rng.sample((1, 2, 3), 3), 4)
        self.add("cjsl.nuclear-hard",
                 ["check-nuclear", self.file(_manifest("cjsl", _supmap_doc(a, a, f)))],
                 _expect_tightness(a, a, f))

    # hostile input --------------------------------------------------------

    def hostile(self):
        """One call of each hostile kind; each must end with its exit code."""
        rng = self.rng
        x, y = _finset(rng, 2, 4), _finset(rng, 1, 4)
        rel = _manifest("finrel", _relation_doc(x, y, self._rel(x, y)))
        pts = _finset(rng, 1, 3)
        lat, c2, c3 = self._lattice(), self.lattices["c2"], self.lattices["c3"]
        zero, one, two = Fraction(0), Fraction(1), Fraction(2)

        def m(category, value):
            return self.file(_manifest(category, value))

        def matrix():
            return m("finhilb", _matrix_doc(_random_matrix(rng, 2, 3)))

        cases = [
            (2, "not valid JSON", [
                "trace", self.file(text='{"schema": "nucleal/1", "value": {')]),
            (2, "unknown category", [
                "trace", self.file({**rel, "category": "finvect"})]),
            (2, "--category", [
                "trace", m("pinj", _pinj_doc(x, x, {})), "--category", "finrel"]),
            (2, "no category", ["trace", self.file(rel["value"])]),
            (3, "cannot compose", [
                "compose", self.file(rel), m("finrel", _relation_doc(x + ["z"], y, set()))]),
            (3, "cannot compose", [
                "compose", m("pinj", _pinj_doc(x, y, {})),
                m("pinj", _pinj_doc(x + ["z"], y, {}))]),
            (3, "cannot compose", ["compose", matrix(), matrix()]),
            (3, "middle lattices differ", [
                "compose", m("cjsl", _supmap_doc(c2, c2, (0, 0))),
                m("cjsl", _supmap_doc(c3, lat, (lat.bot,) * 3))]),
            (3, "endomorphism", [
                "trace", m("finrel", _relation_doc(x, x + ["z"], set()))]),
            (3, "endomorphism", ["trace", matrix()]),
            (3, "endomorphism", [
                "trace", m("finstoch", _joint_doc(
                    (pts, [one] + [zero] * (len(pts) - 1)), (["z"], [one]),
                    [[zero] for _ in pts]))]),
            (4, "duplicate labels", [
                "trace", m("finrel", _relation_doc(x + x[:1], x + x[:1], set()))]),
            (2, "pairs matrix", [
                "compose", m("finrel", {**rel["value"], "pairs": [[True]]}), self.file(rel)]),
            (2, "not injective", [
                "trace", m("pinj", _pinj_doc(x, x, {x[0]: x[0], x[1]: x[0]}))]),
            (2, "total mass", [
                "trace", m("finstoch", _joint_doc(
                    (pts, [two] * len(pts)), (pts, [two] * len(pts)),
                    [[zero] * len(pts) for _ in pts]))]),
            (2, "absolutely continuous", [
                "trace", m("finstoch", _joint_doc(
                    (["u", "v"], [one, zero]), (["u", "v"], [one, zero]),
                    [[zero, one], [zero, zero]]))]),
            (2, "non-finite", [
                "trace", m("finhilb", {"rows": 1, "cols": 1, "re": [[float("inf")]],
                                       "im": [[0.0]]})]),
            (2, "invalid sup map", [
                "check-nuclear", m("cjsl", _supmap_doc(c2, c2, (1, 0)))]),
            (2, "invalid lattice", [
                "check-nuclear", m("cjsl", {
                    "source": {"elements": [0, 1], "leq": [[1, 1], [1, 1]]},
                    "target": lat.doc, "values": [0, 0]})]),
            (5, "not in the distinguished ideal", [
                "transpose", m("pinj", _pinj_doc(x, x, _random_pinj(rng, x, x, k=2)))]),
            (5, "no transpose", [
                "transpose", m("cjsl", _supmap_doc(lat, lat, tuple(range(lat.n))))]),
            (5, "no trace operator", [
                "trace", m("cjsl", _supmap_doc(lat, lat, tuple(range(lat.n))))]),
            (2, "'pinj'", ["disintegrate", m("pinj", _pinj_doc(x, x, {}))]),
        ]
        for code, needle, argv in cases:
            self.add("hostile", argv, _expect_error(code, needle))


def build(seed: int, workdir: Path) -> list[tuple[str, list[str], object]]:
    """Write the input files and return the shuffled operations of one pass."""
    ops = Ops(seed, workdir)
    for kind, count in [(k, PER_CELL) for k in CELLS] + [
        ("cjsl.nuclear-hard", HARD), ("hostile", HOSTILE_ROUNDS)
    ]:
        make = getattr(ops, kind.replace(".", "_").replace("-", "_"))
        for _ in range(count):
            make()
    ops.rng.shuffle(ops.ops)
    return ops.ops


def run_pass(ops, main, clock=perf_counter) -> tuple[list[float], list[str]]:
    """Call `main` on every operation; return latencies, read on `clock`,
    and failure notes."""
    latencies, failures = [], []
    for kind, argv, check in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            latencies.append(clock() - t0)
            failures.append(f"{kind} {argv}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - t0)
        try:
            ok = check(code, out.getvalue(), err.getvalue())
        except (ValueError, KeyError, TypeError):  # unparsable output
            ok = False
        if not ok:
            failures.append(
                f"{kind} {argv}: exit {code}, out {out.getvalue()[:200]!r}, "
                f"err {err.getvalue()[:200]!r}"
            )
    return latencies, failures
