"""Acceptance gate: one test per numbered criterion.

Each test prints a pass/fail line through the shared log so the pytest
summary ends with a per-criterion verdict block.
"""

import functools
import time
from fractions import Fraction

import _acceptance_log
import test_finrel
from nucleal import cjsl, cli, drelnum, finhilb, finrel, finstoch, pinj, xrel
from nucleal.core import harness
from nucleal.core.rng import Lcg


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn() or ""
            except BaseException:
                _acceptance_log.record(num, False, "raised")
                raise
            _acceptance_log.record(num, True, detail)

        return run

    return deco


def _tight_hilb():
    """finhilb structures of their own, checked to 1e-10, not the 1e-9
    of the instance the CLI shares."""
    inst, nuc, tr = finhilb.structures()
    inst.tol = 1e-10
    return inst, nuc, tr


@criterion(1)
def test_criterion_01_star_category_laws():
    t0 = time.perf_counter()
    reports = []

    rep = harness.check_star_laws(pinj.instance(), 400_000, 1, max_size=3)
    assert {"exhaustive:unary", "exhaustive:antihomomorphism",
            "exhaustive:associativity"} <= set(rep.flags)
    reports.append(rep)

    rep = harness.check_star_laws(finrel.instance(), 400_000, 1, max_size=3)
    assert {"exhaustive:unary", "exhaustive:antihomomorphism"} <= set(rep.flags)
    reports.append(rep)

    # unlisted objects: one sampled stream of min(budget, 500) cases
    for nmod in (2, 3, 4):
        reports.append(
            harness.check_star_laws(xrel.instance(xrel.cyclic_monoid(nmod)), 500, 1)
        )
    reports.append(harness.check_star_laws(finstoch.instance(), 500, 1))
    hilb, drel = _tight_hilb()[0], drelnum.instance()
    assert (hilb.tol, drel.tol, finhilb.instance().tol) == (1e-10, 1e-6, 1e-9)
    reports.append(harness.check_star_laws(hilb, 500, 1))
    reports.append(harness.check_star_laws(drel, 500, 1))
    elapsed = time.perf_counter() - t0
    assert all(r.ok for r in reports), [r.summary() for r in reports if not r.ok]
    assert elapsed <= 60.0
    return f"{sum(r.cases for r in reports)} cases in {elapsed:.1f}s"


@criterion(2)
def test_criterion_02_nuclear_axioms_and_sliding():
    setups = [
        pinj.structures(),
        xrel.structures(xrel.cyclic_monoid(2)),
        _tight_hilb(),
        finstoch.structures(),
        drelnum.structures(),
    ]
    assert setups[2][0].tol == 1e-10 and setups[4][0].tol == 1e-6
    reports = []
    for inst, nuc, _ in setups:
        if inst.name == "pinj":
            rep = harness.check_nuclear_axioms(inst, nuc, 400_000, 1, max_size=3)
            slide = harness.check_sliding(inst, nuc, 20_000, 1)
        else:
            # unlisted objects: one sampled stream of min(budget, 500) cases
            rep = harness.check_nuclear_axioms(inst, nuc, 500, 1)
            slide = harness.check_sliding(inst, nuc, 300, 1)
        reports.append(rep)
        # an exhausted pair stream below 300 covers every pair there is
        assert slide.cases >= 300 or "exhaustive:sliding" in slide.flags
        reports.append(slide)
    assert all(r.ok for r in reports), [r.summary() for r in reports if not r.ok]
    return f"{len(reports)} reports over {len(setups)} instances"


@criterion(3)
def test_criterion_03_compact_closure_triangles():
    for n in range(6):
        x = finrel.fin_set(n)
        assert test_finrel.left_triangle(x) == finrel.identity(x)
        assert test_finrel.right_triangle(x) == finrel.identity(x)
    return "both triangles, |X| <= 5, exact"


@criterion(4)
def test_criterion_04_hilbert_schmidt_identities():
    rng = Lcg(41)
    for _ in range(200):
        n = 1 + rng.below(4)
        m = 1 + rng.below(4)
        f = finhilb.random_matrix(rng, n, m)
        lhs = finhilb.hs_norm(f) ** 2
        rhs = finhilb.trace(finhilb.matmul(finhilb.adjoint(f), f))
        assert abs(lhs - rhs) <= 1e-10

        v = [x for row in finhilb.random_matrix(rng, n * m, 1).row_lists() for x in row]
        w = [x for row in finhilb.random_matrix(rng, n * m, 1).row_lists() for x in row]
        col = lambda xs: finhilb.from_rows([[x] for x in xs])
        plain = finhilb.hs_inner(col(v), col(w))
        lifted = finhilb.hs_inner(
            finhilb.u_map(v, n, m), finhilb.u_map(w, n, m)
        )
        assert abs(plain - lifted) <= 1e-10
    for _ in range(100):
        n = 1 + rng.below(6)
        f = finhilb.random_matrix(rng, n, n)
        a = finhilb.matmul(finhilb.adjoint(f), f)
        s = finhilb.positive_sqrt(a)
        assert finhilb.max_abs_diff(finhilb.matmul(s, s), a) <= 1e-9
    return "200 norm/unitarity cases, 100 square roots"


@criterion(5)
def test_criterion_05_tracedness():
    inst, nuc, tr = pinj.structures()
    by_endo = {}
    for na in range(4):
        a = pinj.fin_set(na)
        for nm in range(4):
            mid = pinj.fin_set(nm)
            for f in pinj.enum_pinj(a, mid):
                if not nuc.is_nuclear(f):
                    continue
                for g in pinj.enum_pinj(mid, a):
                    if not nuc.is_nuclear(g):
                        continue
                    h = pinj.compose(f, g)
                    key = (na, h.pairs)
                    by_endo.setdefault(key, []).append(
                        (h, nuc.derived_trace(f, g))
                    )
    assert by_endo
    for (na, _), entries in by_endo.items():
        h = entries[0][0]
        values = {v for _, v in entries}
        assert len(values) == 1, f"factorization-dependent trace on {h!r}"
        assert tr.in_trace_class(h)
        assert values == {tr.trace(h)}

    si, sn, st = finstoch.structures()
    rep = harness.check_tracedness(si, sn, st, 300, 51)
    assert rep.ok and rep.cases == 300

    hi, hn, ht = _tight_hilb()
    assert hi.tol == 1e-10
    rep = harness.check_tracedness(hi, hn, ht, 200, 52)
    assert rep.ok and rep.cases == 200

    sliding_setups = [
        finrel.structures(),
        pinj.structures(),
        xrel.structures(xrel.cyclic_monoid(2)),
        finhilb.structures(),
        finstoch.structures(),
    ]
    for inst2, nuc2, _ in sliding_setups:
        # listed objects keep the budget, and draw at least as many cases
        listed = inst2.objects() is not None
        rep = harness.check_sliding(inst2, nuc2, 10_000 if listed else 200, 53)
        assert rep.ok and rep.cases > 0
    assert drelnum.check_trace_symmetry(201).ok
    return "pinj exhaustive, finstoch 300 exact, finhilb 200 @1e-10"


@criterion(6)
def test_criterion_06_trace_and_param_trace_axioms():
    for mod in (pinj, finrel):
        inst, nuc, tr = mod.structures()
        rep = harness.check_trace_axioms(inst, nuc, tr, 200_000, 1, max_size=2)
        assert rep.ok, rep.summary()
        assert any(f.startswith("exhaustive") for f in rep.flags)
        rep = harness.check_param_trace_axioms(inst, tr, 200_000, 1, max_size=2)
        assert rep.ok, rep.summary()
        assert any(f.startswith("exhaustive") for f in rep.flags)
    return "both instances, sets <= 2, exhaustive streams"


@criterion(7)
def test_criterion_07_pinj_trace_formulas():
    inst, nuc, tr = pinj.structures()
    checked = 0
    for n in range(4):
        a = pinj.fin_set(n)
        for h in pinj.enum_pinj(a, a):
            res = harness.find_nuclear_factorization(inst, nuc, h)
            assert res.found == tr.in_trace_class(h)
            if not res.found:
                continue
            derived = harness.derive_trace(inst, nuc, res.left, res.right)
            fixed_point = any(i == j for i, j in h.pairs)
            assert derived == fixed_point == tr.trace(h)
            checked += 1
    assert checked > 0
    return f"{checked} factorizable endomorphisms, sets <= 3"


@criterion(8)
def test_criterion_08_stochastic_relations():
    inst, _, _ = finstoch.structures()
    rng = Lcg(81)
    for _ in range(300):
        a, b = inst.sample_object(rng), inst.sample_object(rng)
        f = inst.sample_hom(rng, a, b)
        assert inst.mor_eq(inst.compose(f, inst.identity(a)), f)
        assert inst.mor_eq(inst.compose(inst.identity(b), f), f)
    for _ in range(300):
        a, b, c, d = (inst.sample_object(rng) for _ in range(4))
        f = inst.sample_hom(rng, a, b)
        g = inst.sample_hom(rng, b, c)
        h = inst.sample_hom(rng, c, d)
        lhs = inst.compose(h, inst.compose(g, f))
        rhs = inst.compose(inst.compose(h, g), f)
        assert inst.mor_eq(lhs, rhs)
    for _ in range(300):
        a, b = inst.sample_object(rng), inst.sample_object(rng)
        m = inst.sample_hom(rng, a, b)
        q1, _ = finstoch.disintegrate(m)
        for i in range(m.source.size):
            row_mass = sum(m.weight[i], Fraction(0))
            for j in range(m.target.size):
                assert m.weight[i][j] == q1.rows[i][j] * row_mass

    # worked fixtures: independence and the point-mass diagonal
    half = Fraction(1, 2)
    zero = Fraction(0)
    quarter = Fraction(1, 4)
    u2 = finstoch.uniform_space(("a", "b"))
    product = finstoch.joint(u2, u2, ((quarter, quarter), (quarter, quarter)))
    q1, _ = finstoch.disintegrate(product)
    assert q1.rows[0] == q1.rows[1]
    diag = finstoch.joint(u2, u2, ((half, zero), (zero, half)))
    q1, _ = finstoch.disintegrate(diag)
    assert q1.rows == ((Fraction(1), zero), (zero, Fraction(1)))

    p = finstoch.uniform_space(("a", "b"))
    q = finstoch.prob_space(("a", "b"), (Fraction(1, 3), Fraction(2, 3)))
    assert finstoch.iso_equivalent(p, q)
    h, k = finstoch.iso_witnesses(p, q)
    assert finstoch.compose(h, k) == finstoch.delta(p)
    assert finstoch.compose(k, h) == finstoch.delta(q)
    return "300 exact cases per law, fixtures and iso witnesses"


@criterion(9)
def test_criterion_09_giry_laws():
    rep = finstoch.check_giry_laws(5000, 1)
    assert rep.ok, rep.summary()
    assert any(f.startswith("exhaustive:unit-laws") for f in rep.flags)
    return f"{rep.cases} cases"


@criterion(10)
def test_criterion_10_lattice_characterization():
    t0 = time.perf_counter()
    lats = cjsl.enumerate_lattices(5)
    assert len(lats) == 10
    bad = []
    for lat in lats:
        res = cjsl.hr_nuclear(cjsl.identity_sup(lat))
        assert res.nuclear == cjsl.is_distributive(lat)
        if not res.nuclear:
            bad.append(lat)
    assert {cjsl.iso_key(lat) for lat in bad} == {
        cjsl.iso_key(cjsl.m3()),
        cjsl.iso_key(cjsl.n5()),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    return f"10 lattices <= 5 elements in {elapsed:.1f}s"


@criterion(11)
def test_criterion_11_documented_findings():
    left = xrel.trivial_object(xrel.cyclic_monoid(4), ("x",), (1,))
    right = xrel.trivial_object(xrel.cyclic_monoid(4), ("y",), (3,))
    rep = xrel.theta_bijectivity_report(left, right)
    assert rep.is_finding
    assert any("(1, 3)" in w for w in rep.failures)

    one = finstoch.prob_space(("*",), (Fraction(1),))
    mid = finstoch.uniform_space(("p", "q"))
    first = finstoch.JointMeasure(one, mid, ((Fraction(1), Fraction(0)),))
    second = finstoch.JointMeasure(mid, one, ((Fraction(0),), (Fraction(1),)))
    loss = finstoch.mass_loss_report(first, second)
    assert loss.ok and loss.is_finding
    assert any(f.startswith("composite-total:0") for f in loss.flags)

    assert cli.main(["verify", "xrel-audit", "--budget", "100"]) == 0
    assert cli.main(["verify", "stoch-monad", "--budget", "100"]) == 0
    return "both findings reported, runs exit 0"


@criterion(12)
def test_criterion_12_refinement_stability():
    rep = drelnum.check_refinement(201)
    assert rep.ok and rep.cases > 0
    return f"{rep.cases} refinement comparisons"
