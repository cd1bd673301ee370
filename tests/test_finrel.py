"""Relations between finite sets: composition, duals, trace."""

import pytest
from hypothesis import given, settings, strategies as st

import _intern_counts
from nucleal import finrel, pinj
from nucleal.core import harness
from nucleal.core.errors import InvariantViolation, ShapeMismatch
from nucleal.core.instance import CategoryInstance
from nucleal.core.rng import Lcg


def bool_matmul(r, s):
    """Independent composition oracle: plain exists-loop over labels."""
    pairs = [
        (x, z)
        for x in r.source.labels
        for z in s.target.labels
        if any(r.has(x, y) and s.has(y, z) for y in r.target.labels)
    ]
    return finrel.from_pairs(r.source, s.target, pairs)


def random_relation(rng, src, tgt):
    mask = (1 << tgt.size) - 1
    return finrel.Relation(src, tgt, tuple(rng.bits(tgt.size) & mask for _ in range(src.size)))


def test_compose_chains():
    a = finrel.FinSet((1,))
    b = finrel.FinSet(("a",))
    c = finrel.FinSet((2,))
    r = finrel.from_pairs(a, b, [(1, "a")])
    s = finrel.from_pairs(b, c, [("a", 2)])
    assert list(finrel.compose(r, s).pairs()) == [(1, 2)]


def test_compose_identity_law():
    x = finrel.fin_set(3)
    rng = Lcg(5)
    for _ in range(20):
        r = random_relation(rng, x, x)
        assert finrel.compose(r, finrel.identity(x)) == r
        assert finrel.compose(finrel.identity(x), r) == r


def test_compose_matches_oracle_on_random_pairs():
    rng = Lcg(11)
    sets = [finrel.fin_set(n) for n in range(4)]
    for _ in range(200):
        a, b, c = (rng.choice(sets) for _ in range(3))
        r = random_relation(rng, a, b)
        s = random_relation(rng, b, c)
        assert finrel.compose(r, s) == bool_matmul(r, s)


def test_relation_rejects_wrong_row_count():
    with pytest.raises(InvariantViolation):
        finrel.Relation(finrel.fin_set(2), finrel.fin_set(2), (1,))


@pytest.mark.parametrize("row", [0b100, -1])
def test_relation_rejects_bits_outside_target(row):
    with pytest.raises(InvariantViolation):
        finrel.Relation(finrel.fin_set(1), finrel.fin_set(2), (row,))


def test_finset_rejects_duplicate_labels():
    with pytest.raises(InvariantViolation):
        finrel.FinSet(("a", "b", "a"))


def test_compose_shape_mismatch():
    r = finrel.identity(finrel.fin_set(2))
    s = finrel.identity(finrel.fin_set(3))
    with pytest.raises(ShapeMismatch):
        finrel.compose(r, s)


def test_nu_singleton():
    x = finrel.FinSet(("a",))
    assert list(finrel.nu(x).pairs()) == [("*", ("a", "a"))]


def test_nu_empty_set():
    x = finrel.FinSet(())
    assert finrel.nu(x).count() == 0


def left_triangle(x):
    """(id (x) psi) o (nu (x) id), with the unit elided via reindex."""
    n = x.size
    ix = finrel.product(finrel.UNIT, x)
    xi = finrel.product(x, finrel.UNIT)
    xx = finrel.product(x, x)
    lift = finrel.reindex(x, ix, list(range(n)))
    out = finrel.compose(lift, finrel.tensor(finrel.nu(x), finrel.identity(x)))
    reassoc = finrel.reindex(
        finrel.product(xx, x), finrel.product(x, xx), list(range(n ** 3))
    )
    out = finrel.compose(out, reassoc)
    out = finrel.compose(out, finrel.tensor(finrel.identity(x), finrel.psi(x)))
    return finrel.compose(out, finrel.reindex(xi, x, list(range(n))))


def right_triangle(x):
    """(psi (x) id) o (id (x) nu), the other zigzag."""
    n = x.size
    xi = finrel.product(x, finrel.UNIT)
    ix = finrel.product(finrel.UNIT, x)
    xx = finrel.product(x, x)
    lift = finrel.reindex(x, xi, list(range(n)))
    out = finrel.compose(lift, finrel.tensor(finrel.identity(x), finrel.nu(x)))
    reassoc = finrel.reindex(
        finrel.product(x, xx), finrel.product(xx, x), list(range(n ** 3))
    )
    out = finrel.compose(out, reassoc)
    out = finrel.compose(out, finrel.tensor(finrel.psi(x), finrel.identity(x)))
    return finrel.compose(out, finrel.reindex(ix, x, list(range(n))))


@pytest.mark.parametrize("n", range(6))
def test_adjunction_triangles(n):
    x = finrel.fin_set(n)
    assert left_triangle(x) == finrel.identity(x)
    assert right_triangle(x) == finrel.identity(x)


def trace_oracle(r):
    """Categorical composite nu ; (r (x) id) ; swap ; psi."""
    x = r.source
    n = x.size
    xx = finrel.product(x, x)
    swap = finrel.from_pairs(
        xx, xx, [((a, b), (b, a)) for a in x.labels for b in x.labels]
    )
    out = finrel.compose(finrel.nu(x), finrel.tensor(r, finrel.identity(x)))
    out = finrel.compose(out, swap)
    out = finrel.compose(out, finrel.psi(x))
    return bool(out.rows[0] & 1)


def test_trace_diagonal():
    x = finrel.fin_set(2)
    assert finrel.trace_endo(finrel.from_pairs(x, x, [(1, 1)])) is True


def test_trace_two_cycle_is_false():
    x = finrel.fin_set(2)
    r = finrel.from_pairs(x, x, [(0, 1), (1, 0)])
    assert finrel.trace_endo(r) is False
    assert trace_oracle(r) is False


def test_trace_identity_nonempty():
    assert finrel.trace_endo(finrel.identity(finrel.fin_set(3))) is True


def test_trace_matches_categorical_composite_exhaustively():
    for n in range(4):
        x = finrel.fin_set(n)
        for r in finrel.enum_relations(x, x):
            assert finrel.trace_endo(r) == trace_oracle(r)


def test_param_trace_fixed_parameter():
    a = finrel.FinSet(("a",))
    b = finrel.FinSet(("b",))
    u = finrel.FinSet(("u", "v"))
    f = finrel.from_pairs(
        finrel.product(a, u), finrel.product(b, u), [(("a", "u"), ("b", "u"))]
    )
    assert list(finrel.param_trace(f, a, u, b).pairs()) == [("a", "b")]


def test_param_trace_moved_parameter_is_empty():
    a = finrel.FinSet(("a",))
    b = finrel.FinSet(("b",))
    u = finrel.FinSet(("u", "v"))
    f = finrel.from_pairs(
        finrel.product(a, u), finrel.product(b, u), [(("a", "u"), ("b", "v"))]
    )
    assert finrel.param_trace(f, a, u, b).count() == 0


def test_param_trace_unit_parameter_is_identity_on_data():
    a = finrel.fin_set(2)
    b = finrel.fin_set(2)
    rng = Lcg(3)
    for _ in range(20):
        au = finrel.product(a, finrel.UNIT)
        bu = finrel.product(b, finrel.UNIT)
        f = random_relation(rng, au, bu)
        traced = finrel.param_trace(f, a, finrel.UNIT, b)
        assert traced.rows == f.rows


@settings(max_examples=60)
@given(st.data())
def test_json_round_trip(data):
    ns = data.draw(st.integers(0, 3))
    nt = data.draw(st.integers(0, 3))
    src, tgt = finrel.fin_set(ns), finrel.fin_set(nt)
    rows = tuple(
        data.draw(st.integers(0, (1 << nt) - 1 if nt else 0)) for _ in range(ns)
    )
    r = finrel.Relation(src, tgt, rows)
    assert finrel.from_json(finrel.to_json(r)) == r


def test_converse_involution_and_star_of_composite():
    rng = Lcg(19)
    sets = [finrel.fin_set(n) for n in range(4)]
    for _ in range(100):
        a, b, c = (rng.choice(sets) for _ in range(3))
        r = random_relation(rng, a, b)
        s = random_relation(rng, b, c)
        assert finrel.converse(finrel.converse(r)) == r
        lhs = finrel.converse(finrel.compose(r, s))
        rhs = finrel.compose(finrel.converse(s), finrel.converse(r))
        assert lhs == rhs


# -- interned sets ----------------------------------------------------------


def test_fin_set_and_product_are_interned():
    assert finrel.fin_set(3) is finrel.fin_set(3)
    x, y = finrel.fin_set(2), finrel.fin_set(3)
    assert finrel.product(x, y) is finrel.product(x, y)
    assert finrel.product(finrel.product(x, y), x) is finrel.product(
        finrel.product(x, y), x
    )
    assert finrel.product(finrel.UNIT, x) is finrel.product(finrel.UNIT, x)
    assert finrel.tensor(finrel.identity(x), finrel.identity(y)).source is (
        finrel.product(x, y)
    )


def test_validated_set_equals_and_hashes_like_the_interned_one():
    x = finrel.FinSet((0, 1, 2))
    assert x is not finrel.fin_set(3)
    assert x == finrel.fin_set(3) and finrel.fin_set(3) == x
    assert hash(x) == hash(finrel.fin_set(3))
    assert len({x, finrel.fin_set(3)}) == 1


def test_validated_set_is_a_compose_endpoint_on_the_interned_set():
    x, n2 = finrel.FinSet((0, 1, 2)), finrel.fin_set(2)
    r = finrel.Relation(n2, x, (0b011, 0b110))
    s = finrel.Relation(finrel.fin_set(3), n2, (0b01, 0b10, 0b10))
    assert finrel.compose(r, s) == bool_matmul(r, s)
    back = finrel.compose(finrel.converse(s), finrel.converse(r))
    assert back == finrel.converse(finrel.compose(r, s))


def test_product_of_sets_from_outside_is_built_anew():
    x, y = finrel.FinSet((0, 1)), finrel.finset_from_json([0, 1, 2])
    assert y == finrel.fin_set(3) and y is not finrel.fin_set(3)
    p = finrel.product(x, y)
    assert p == finrel.product(finrel.fin_set(2), finrel.fin_set(3))
    assert p is not finrel.product(x, y)
    assert finrel.product(x, finrel.fin_set(3)) is not finrel.product(
        x, finrel.fin_set(3)
    )


def test_set_is_unequal_to_other_types():
    assert finrel.fin_set(2) != (0, 1)
    assert finrel.fin_set(0) != ()
    assert finrel.UNIT != (finrel.UNIT_LABEL,)
    assert not finrel.fin_set(1) == [0]


def test_intern_tables_stay_bounded_across_seeds():
    counts = _intern_counts.counts()
    # a second report interns no new set
    assert all(after_one[0] == after_two[0] for after_one, after_two in counts)
    (seed1, _), (seed7, _) = counts
    # finrel interns the same sets at every seed
    assert seed1[0] == seed7[0] > 0


# -- closed-form braiding ---------------------------------------------------


@pytest.mark.parametrize("mod", [finrel, pinj])
def test_symmetry_matches_the_generic_braiding(mod):
    inst = mod.instance()
    for na in range(4):
        for nb in range(4):
            a, b = finrel.fin_set(na), finrel.fin_set(nb)
            got = inst.symmetry(a, b)
            want = CategoryInstance.symmetry(inst, a, b)
            assert type(got) is type(want)
            assert (got.source, got.target) == (want.source, want.target)
            assert got.rows == want.rows


@pytest.mark.parametrize("mod", [finrel, pinj])
def test_star_laws_catch_a_braid_with_two_rows_swapped(monkeypatch, mod):
    real = finrel.symmetry

    def symmetry(a, b, cls=finrel.Relation):  # seeded fault
        s = real(a, b, cls)
        rows = list(s.rows)
        if len(rows) >= 2:
            rows[0], rows[1] = rows[1], rows[0]
        return finrel._mk(s.source, s.target, tuple(rows), cls)

    monkeypatch.setattr(finrel, "symmetry", symmetry)
    rep = harness.check_star_laws(mod.instance(), 200, 1, max_size=2)
    witnesses = [f for f in rep.failures if f.startswith("symmetry: ")]
    assert any("not natural for f=" in f for f in witnesses)
