"""Finite measure morphisms: disintegration, composition, the monad.

All arithmetic is exact; the oracle is an independent Fraction
recomputation of each formula.
"""

from fractions import Fraction
from math import gcd

import pytest

from nucleal import cli, finrel, finstoch
from nucleal.core.errors import InvariantViolation, ParseError
from nucleal.core.rng import Lcg

F = Fraction
HALF = F(1, 2)


def uniform2():
    return finstoch.uniform_space(("a", "b"))


def test_marginals_of_product():
    p = finstoch.prob_space(("x", "y"), (F(1, 3), F(2, 3)))
    q = uniform2()
    mx, my = finstoch.marginals(finstoch.product_joint(p, q))
    assert mx == p.mass
    assert my == q.mass


def test_marginals_of_diagonal():
    p = finstoch.prob_space(("x", "y"), (F(1, 4), F(3, 4)))
    mx, my = finstoch.marginals(finstoch.delta(p))
    assert mx == p.mass and my == p.mass


def test_zero_mass_points_have_zero_rows():
    p = finstoch.prob_space(("x", "y"), (F(1), F(0)))
    d = finstoch.delta(p)
    assert all(w == 0 for w in d.weight[1])


def test_disintegrate_product_rows_are_target_measure():
    p = uniform2()
    q = finstoch.prob_space(("u", "v"), (F(1, 3), F(2, 3)))
    q1, _ = finstoch.disintegrate(finstoch.product_joint(p, q))
    assert all(row == q.mass for row in q1.rows)


def test_disintegrate_diagonal_gives_dirac_rows():
    q1, q2 = finstoch.disintegrate(finstoch.delta(uniform2()))
    assert q1.rows == ((F(1), F(0)), (F(0), F(1)))
    assert q2.rows == q1.rows


def test_disintegrate_reconstruction_exact():
    rng = Lcg(21)
    for _ in range(300):
        p = finstoch.sample_space(rng)
        q = finstoch.sample_space(rng)
        a = finstoch.sample_joint(rng, p, q)
        mx, my = finstoch.marginals(a)
        q1, q2 = finstoch.disintegrate(a)
        for i in range(p.points.size):
            for j in range(q.points.size):
                assert q1.rows[i][j] * mx[i] == a.weight[i][j]
                assert q2.rows[j][i] * my[j] == a.weight[i][j]


def test_rn_derivative_and_associated_kernel():
    p = uniform2()
    d = finstoch.delta(p)
    assert finstoch.rn_derivative(d) == (F(1), F(1))
    assert finstoch.associated_kernel(d) == ((F(1), F(0)), (F(0), F(1)))

    q = finstoch.prob_space(("u", "v"), (F(1, 3), F(2, 3)))
    prod = finstoch.product_joint(p, q)
    assert finstoch.associated_kernel(prod) == (q.mass, q.mass)


def test_compose_uniform_products():
    p = uniform2()
    a = finstoch.product_joint(p, p)
    c = finstoch.compose(a, a)
    assert all(w == F(1, 4) for row in c.weight for w in row)


def test_compose_identity_laws():
    rng = Lcg(22)
    for _ in range(100):
        p = finstoch.sample_space(rng)
        q = finstoch.sample_space(rng)
        a = finstoch.sample_joint(rng, p, q)
        assert finstoch.compose(finstoch.delta(p), a).weight == a.weight
        assert finstoch.compose(a, finstoch.delta(q)).weight == a.weight


def test_compose_associative_exact():
    rng = Lcg(23)
    for _ in range(100):
        ps = [finstoch.sample_space(rng) for _ in range(4)]
        a = finstoch.sample_joint(rng, ps[0], ps[1])
        b = finstoch.sample_joint(rng, ps[1], ps[2])
        c = finstoch.sample_joint(rng, ps[2], ps[3])
        lhs = finstoch.compose(finstoch.compose(a, b), c)
        rhs = finstoch.compose(a, finstoch.compose(b, c))
        assert lhs.weight == rhs.weight


def compose_oracle(a, b):
    """Direct Fraction evaluation of the middle-conditioning sum."""
    _, ny = finstoch.marginals(b)
    mid = b.source.mass
    out = []
    for i in range(a.source.points.size):
        row = []
        for k in range(b.target.points.size):
            total = F(0)
            for j in range(b.source.points.size):
                if mid[j] > 0:
                    total += a.weight[i][j] * b.weight[j][k] / mid[j]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def is_canonical(num, den):
    """Positive denominator, nonnegative ints, and gcd 1 over all of them."""
    flat = [n for row in num for n in row]
    return den > 0 and all(n >= 0 for n in flat) and gcd(den, *flat) == 1


def test_compose_matches_oracle():
    rng = Lcg(24)
    null_middles = 0
    for _ in range(200):
        p, q, r = (finstoch.sample_space(rng) for _ in range(3))
        a = finstoch.sample_joint(rng, p, q)
        b = finstoch.sample_joint(rng, q, r)
        # b with a zero row wherever a puts weight: the composite loses all mass
        _, carried = finstoch.marginals(a)
        lossy = finstoch.joint(
            q, r, [[F(0)] * r.size if m else row for row, m in zip(b.weight, carried)]
        )
        for right in (b, lossy):
            c = finstoch.compose(a, right)
            assert c.weight == compose_oracle(a, right)
            assert is_canonical(c.num, c.den)
        assert c.total() == 0
        null_middles += 0 in q.num
    assert null_middles >= 50


def tensor_oracle(a, b):
    """Direct Fraction evaluation of the product measure, row-major."""
    return tuple(
        tuple(x * y for x in arow for y in brow)
        for arow in a.weight
        for brow in b.weight
    )


def test_tensor_joint_matches_oracle():
    rng = Lcg(27)
    for _ in range(200):
        p, q, r, s = (finstoch.sample_space(rng) for _ in range(4))
        a = finstoch.sample_joint(rng, p, q)
        b = finstoch.sample_joint(rng, r, s)
        t = finstoch.tensor_joint(a, b)
        assert t.weight == tensor_oracle(a, b)
        assert is_canonical(t.num, t.den)
        for prod, x, y in ((t.source, p, r), (t.target, q, s)):
            assert prod.mass == tuple(mx * my for mx in x.mass for my in y.mass)
            assert is_canonical((prod.num,), prod.den)


def mass_loss_pair():
    one = finstoch.prob_space(("*",), (F(1),))
    mid = uniform2()
    a = finstoch.JointMeasure(one, mid, ((F(1), F(0)),))
    b = finstoch.JointMeasure(mid, one, ((F(0),), (F(1),)))
    return a, b


def test_mass_loss_composite():
    a, b = mass_loss_pair()
    c = finstoch.compose(a, b)
    assert c.total() == 0
    assert not finstoch.is_probability(c)


def test_is_probability():
    p = uniform2()
    assert finstoch.is_probability(finstoch.delta(p))
    assert finstoch.is_probability(finstoch.product_joint(p, p))


def test_iso_equivalent_same_null_sets():
    p = uniform2()
    q = finstoch.prob_space(("a", "b"), (F(1, 3), F(2, 3)))
    assert finstoch.iso_equivalent(p, q)
    h, k = finstoch.iso_witnesses(p, q)
    assert finstoch.compose(h, k).weight == finstoch.delta(p).weight
    assert finstoch.compose(k, h).weight == finstoch.delta(q).weight


def test_iso_inequivalent_on_null_set_mismatch():
    p = finstoch.prob_space(("a", "b"), (F(1), F(0)))
    q = uniform2()
    assert not finstoch.iso_equivalent(p, q)


def test_iso_self_witness_is_diagonal():
    p = uniform2()
    h, k = finstoch.iso_witnesses(p, p)
    assert h.weight == finstoch.delta(p).weight
    assert k.weight == finstoch.delta(p).weight


def test_density_of_product_is_one():
    p = uniform2()
    q = finstoch.prob_space(("u", "v"), (F(1, 4), F(3, 4)))
    a = finstoch.product_joint(p, q)
    assert finstoch.is_nuclear(a)
    assert finstoch.density(a) == ((F(1), F(1)), (F(1), F(1)))


def test_density_of_diagonal():
    d = finstoch.delta(uniform2())
    assert finstoch.density(d) == ((F(2), F(0)), (F(0), F(2)))


def test_raw_weight_on_null_cell_is_not_nuclear():
    p = finstoch.prob_space(("a", "b"), (F(1), F(0)))
    # raw constructor: weight sits on a cell whose measure product is 0
    a = finstoch.JointMeasure(p, p, ((HALF, HALF), (F(0), F(0))))
    assert not finstoch.is_nuclear(a)


def test_nuclear_compose_density_constant_one():
    p, q, r = uniform2(), uniform2(), uniform2()
    ones = ((F(1), F(1)), (F(1), F(1)))
    out = finstoch.nuclear_compose_density(ones, ones, q.mass)
    assert out == ones
    del p, r


def test_nuclear_compose_density_against_compose():
    rng = Lcg(25)
    for _ in range(300):
        p, q, r = (finstoch.sample_space(rng) for _ in range(3))
        a = finstoch.sample_joint(rng, p, q)
        b = finstoch.sample_joint(rng, q, r)
        d = finstoch.nuclear_compose_density(
            finstoch.density(a), finstoch.density(b), q.mass
        )
        assert d == finstoch.density(finstoch.compose(a, b))


def test_trace_of_product_is_one():
    p = finstoch.prob_space(("x", "y"), (F(2, 5), F(3, 5)))
    assert finstoch.trace_nuclear(finstoch.product_joint(p, p)) == 1


def test_trace_of_uniform_diagonal_is_two():
    assert finstoch.trace_nuclear(finstoch.delta(uniform2())) == 2


def test_trace_swap_symmetry():
    rng = Lcg(26)
    for _ in range(300):
        p, q = (finstoch.sample_space(rng) for _ in range(2))
        a = finstoch.sample_joint(rng, p, q)
        b = finstoch.sample_joint(rng, q, p)
        fg = finstoch.trace_nuclear(finstoch.compose(a, b))
        gf = finstoch.trace_nuclear(finstoch.compose(b, a))
        assert fg == gf


def test_giry_unit_is_point_mass():
    d = finstoch.giry_unit("x")
    assert d.mass_of("x") == 1 and d.support() == ("x",)


def test_giry_mult_of_point_mass_at_distribution():
    inner = finstoch.fin_dist({"a": HALF, "b": HALF})
    assert finstoch.giry_mult(finstoch.giry_unit(inner)) == inner


def test_giry_laws_report_passes_exhaustively():
    rep = finstoch.check_giry_laws(budget=100, seed=4)
    assert rep.ok
    assert any(f.startswith("exhaustive:unit-laws") for f in rep.flags)


def test_giry_laws_catch_a_mult_that_moves_mass(monkeypatch):
    real = finstoch.giry_mult

    def giry_mult(pp):  # seeded fault: the first two points swap their masses
        out = real(pp)
        if len(out.pairs) < 2:
            return out
        (x, m), (y, n), *rest = out.pairs
        return finstoch.FinDist(((x, n), (y, m), *rest))

    monkeypatch.setattr(finstoch, "giry_mult", giry_mult)
    rep = finstoch.check_giry_laws(budget=20, seed=1)
    assert not rep.ok
    assert rep.failures[0].startswith("left-unit: flatten(unit(")


def test_mass_loss_report_is_documented_finding():
    doc = cli._fixture("massloss.json")
    fixture = (finstoch.from_json(doc["first"]), finstoch.from_json(doc["second"]))
    for a, b in (mass_loss_pair(), fixture):
        rep = finstoch.mass_loss_report(a, b)
        assert rep.ok and rep.is_finding
        assert "composite-total:0/1" in rep.flags


def leaky_measure():
    """Weight resting on a zero-mass source point; raw-constructed."""
    p = finstoch.prob_space(("a", "b"), (F(1), F(0)))
    one = finstoch.prob_space(("*",), (F(1),))
    return finstoch.JointMeasure(p, one, ((F(0),), (F(1),)))


def test_joint_factory_rejects_leaky_measure():
    bad = leaky_measure()
    with pytest.raises(InvariantViolation):
        finstoch.joint(bad.source, bad.target, bad.weight)


def test_json_round_trip_and_validation_switch():
    p = uniform2()
    doc = finstoch.to_json(finstoch.delta(p))
    assert finstoch.from_json(doc).weight == finstoch.delta(p).weight

    leaky = finstoch.to_json(leaky_measure())
    with pytest.raises(ParseError):
        finstoch.from_json(leaky)
    assert finstoch.from_json(leaky, validate=False).weight == ((F(0),), (F(1),))


def test_kernel_json_round_trip():
    q1, _ = finstoch.disintegrate(finstoch.delta(uniform2()))
    doc = finstoch.kernel_to_json(q1)
    assert finstoch.kernel_from_json(doc).rows == q1.rows


# -- integer samplers -------------------------------------------------------


def _fraction_space(rng, max_points=3):
    """The samplers' former path: Fractions through `prob_space`."""
    n = 1 + rng.below(max_points)
    weights = [rng.below(4) for _ in range(n)]
    if all(w == 0 for w in weights):
        weights[rng.below(n)] = 1
    total = sum(weights)
    return finstoch.prob_space(list(range(n)), [F(w, total) for w in weights])


def _fraction_joint(rng, p, q):
    """The samplers' former path: Fractions through `joint`."""
    rows = []
    for i in range(p.size):
        row = []
        for j in range(q.size):
            if p.num[i] == 0 or q.num[j] == 0 or rng.below(3) == 0:
                row.append(F(0))
            else:
                row.append(rng.fraction(3, 3))
        rows.append(row)
    return finstoch.joint(p, q, rows)


def _space_fields(p):
    return (p.points, p.num, p.den)


def test_integer_samplers_match_the_fraction_path():
    new, old = Lcg(11), Lcg(11)
    for k in range(500):
        size = 2 + k % 3
        p, p_old = finstoch.sample_space(new, size), _fraction_space(old, size)
        q, q_old = finstoch.sample_space(new), _fraction_space(old)
        assert _space_fields(p) == _space_fields(p_old)
        assert _space_fields(q) == _space_fields(q_old)
        # a state on a product space, as `sample_state` draws it
        pq = finstoch.product_space(p, q)
        for a, b in ((p, q), (finstoch.UNIT_SPACE, pq)):
            got, want = finstoch.sample_joint(new, a, b), _fraction_joint(old, a, b)
            assert (got.source, got.target) == (want.source, want.target)
            assert (got.num, got.den) == (want.num, want.den)
            assert all(type(n) is int for row in got.num for n in row)
        assert new.state == old.state


def test_sampled_spaces_are_on_interned_sets():
    rng = Lcg(12)
    p, q = finstoch.sample_space(rng), finstoch.sample_space(rng)
    assert p.points is finrel.fin_set(p.size)
    pq = finstoch.product_space(p, q)
    assert pq.points is finstoch.product_space(p, q).points


class _NegativeRng(Lcg):
    """Draws -1 wherever a sampler draws a weight numerator."""

    def below(self, n):
        return -1 if n == 4 else super().below(n)


def test_samplers_reject_a_negative_draw():
    with pytest.raises(InvariantViolation, match="negative"):
        finstoch.sample_space(_NegativeRng(1))
    p = finstoch.sample_space(Lcg(13))
    with pytest.raises(InvariantViolation, match="nonnegative"):
        finstoch.sample_joint(_NegativeRng(1), p, p)
