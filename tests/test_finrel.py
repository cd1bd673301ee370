"""Relations between finite sets: composition, duals, trace."""

import pytest
from hypothesis import given, settings, strategies as st

import _forks
import _intern_counts
from nucleal import finhilb, finrel, pinj
from nucleal.core import harness, instance
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
    """(id (x) psi) o (nu (x) id), with the unit elided via regroup."""
    rg = finrel.instance().regroup
    out = finrel.compose(rg("x", ("I", "x"), x=x), finrel.tensor(finrel.nu(x), finrel.identity(x)))
    out = finrel.compose(out, rg((("x", "y"), "z"), ("x", ("y", "z")), x=x, y=x, z=x))
    out = finrel.compose(out, finrel.tensor(finrel.identity(x), finrel.psi(x)))
    return finrel.compose(out, rg(("x", "I"), "x", x=x))


def right_triangle(x):
    """(psi (x) id) o (id (x) nu), the other zigzag."""
    rg = finrel.instance().regroup
    out = finrel.compose(rg("x", ("x", "I"), x=x), finrel.tensor(finrel.identity(x), finrel.nu(x)))
    out = finrel.compose(out, rg(("x", ("y", "z")), (("x", "y"), "z"), x=x, y=x, z=x))
    out = finrel.compose(out, finrel.tensor(finrel.psi(x), finrel.identity(x)))
    return finrel.compose(out, rg(("I", "x"), "x", x=x))


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
        for r in finrel.Relations(x, x):
            assert finrel.trace_endo(r) == trace_oracle(r)


# -- hom-sets as families ranked by bitmask ---------------------------------


FAMILY_SHAPES = [(m, n) for m in range(3) for n in range(3)] + [(3, 3)]


class _Bits:
    """A stand-in generator whose `bits` hands over one fixed mask."""

    def __init__(self, mask):
        self.mask = mask

    def bits(self, n):
        assert self.mask < 1 << n
        return self.mask


@pytest.mark.parametrize("m,n", FAMILY_SHAPES)
def test_relations_family_is_the_hom_set_in_mask_order(m, n):
    inst = finrel.instance()
    a, b = finrel.fin_set(m), finrel.fin_set(n)
    fam = finrel.Relations(a, b)
    assert len(fam) == inst.count_hom(a, b)
    listed = list(fam)
    assert len(listed) == len(fam)
    for mask, r in enumerate(listed):
        # mask order: bit i * n + j of the mask relates i to j
        assert r.rows == tuple(mask >> (i * n) & ((1 << n) - 1) for i in range(m))
        got = fam[mask]
        assert (got.source, got.target, got.rows) == (r.source, r.target, r.rows)
        drawn = inst.sample_hom(_Bits(mask), a, b)
        assert inst.mor_eq(got, drawn) and got.source is a and got.target is b


@pytest.mark.parametrize("m,n", FAMILY_SHAPES)
def test_relations_family_rejects_ranks_outside_its_range(m, n):
    fam = finrel.Relations(finrel.fin_set(m), finrel.fin_set(n))
    for bad in (-1, len(fam)):
        with pytest.raises(IndexError):
            fam[bad]


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
    # the member and op tables are filled, and a second report adds no entry
    assert all(after_one[5:] == after_two[5:] for after_one, after_two in counts)
    assert all(n > 0 for n in seed1[5:] + seed7[5:])


#: the op tables: compose and tensor keep a row per first argument
OP_TABLES = ("_COMPOSE", "_TENSOR", "_CONVERSE", "_THETA")


def _empty_tables(monkeypatch, table=dict):
    monkeypatch.setattr(finrel, "_MEMBERS", {})
    for name in OP_TABLES:
        monkeypatch.setattr(finrel, name, table())
    monkeypatch.setattr(finrel, "_OP_ENTRIES", 0)


def _op_entries() -> int:
    """The results kept in all op tables together."""
    rows = [row for name in ("_COMPOSE", "_TENSOR")
            for row in getattr(finrel, name).values()]
    return sum(map(len, rows)) + len(finrel._CONVERSE) + len(finrel._THETA)


def _snapshot() -> dict:
    """Every op table, its rows copied."""
    return {name: {k: dict(v) if isinstance(v, dict) else v
                   for k, v in getattr(finrel, name).items()}
            for name in OP_TABLES}


class _CheckedOps(dict):
    """An op table, or a row of one, that refuses a key with an id of no
    member: only the member table keeps such an id from being reused.
    `stored` counts the keys it took."""

    stored = 0

    def __setitem__(self, key, value):
        if key not in finrel._MEMBERS:
            raise AssertionError(f"op key {key!r} outlives its argument")
        if type(value) is dict:  # a new row of compose or tensor
            row = _CheckedOps()
            for k, v in value.items():
                row[k] = v
            value = row
        self.stored += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("table_max", [64, finrel._TABLE_MAX])
def test_member_and_op_tables_stay_bounded(monkeypatch, table_max):
    # one CPU, so that this process makes every composite: 2^9 relations
    # 3 -> 3 have 2^18 composable pairs, more than the tables may hold;
    # at 64 entries the member table fills, and is cleared, within an op
    _forks.cpus(monkeypatch, 1)
    monkeypatch.setattr(finrel, "_TABLE_MAX", table_max)
    _empty_tables(monkeypatch, _CheckedOps)
    inst = finrel.instance()
    rep = harness.check_star_laws(inst, 400_000, 1, max_size=3)
    assert rep.ok, rep.failures[:3]
    rep = harness.check_nuclear_axioms(
        inst, finrel.FinRelNuclear(inst), 400_000, 1, max_size=2
    )
    assert rep.ok, rep.failures[:3]
    assert 0 < len(finrel._MEMBERS) <= table_max
    assert 0 < _op_entries() == finrel._OP_ENTRIES <= table_max
    # every op kept results, tensor's too, though a full table was cleared
    assert all(getattr(finrel, name).stored for name in OP_TABLES)


def _failing_sublaws(monkeypatch, checks) -> set:
    """The sub-laws in which the reports of `checks()` fail some case: a
    report keeps the first 20 witnesses, the per-case hook sees all."""
    failing = set()
    run = harness._Runner._run

    def recorded(self, name, fn, case):
        lines = run(self, name, fn, case)
        if lines:
            failing.add(name)
        return lines

    monkeypatch.setattr(harness._Runner, "_run", recorded)
    assert not all(rep.ok for rep in checks())
    return failing


def test_a_warm_table_hides_no_fault_in_compose(monkeypatch):
    _forks.cpus(monkeypatch, 1)
    inst = pinj.instance()
    # the first run fills the tables with every composite the second needs
    assert harness.check_star_laws(inst, 400_000, 1, max_size=3).ok
    real = finrel.compose

    def compose(r, s):  # seeded fault: the last row cleared
        t = real(r, s)
        if not any(t.rows):
            return t
        return finrel._mk(t.source, t.target, t.rows[:-1] + (0,), type(t))

    monkeypatch.setattr(finrel, "compose", compose)
    failing = _failing_sublaws(
        monkeypatch, lambda: [harness.check_star_laws(inst, 400_000, 1, max_size=3)]
    )
    assert {"associativity", "unit-laws"} <= failing


#: seeded faults in tensor, by the rows of r (x) s they clear, and the
#: sub-laws each must fail: the braiding sends the last row of r (x) s to
#: the last row of s (x) r, so clearing it alone is natural in the braiding
#: and only a fault that treats the factors differently fails `symmetry`
TENSOR_FAULTS = {
    "last row": (lambda t, s: t.rows[:-1] + (0,),
                 {"tensor-star", "transpose-naturality"}),
    "last row of r": (lambda t, s: t.rows[:-s.source.size] + (0,) * s.source.size,
                      {"tensor-star", "symmetry", "transpose-naturality"}),
}


@pytest.mark.parametrize("fault", TENSOR_FAULTS)
def test_a_warm_table_hides_no_fault_in_tensor(monkeypatch, fault):
    _forks.cpus(monkeypatch, 1)
    inst, nuc, _ = pinj.structures()

    def checks():
        return [harness.check_star_laws(inst, 400_000, 1, max_size=3),
                harness.check_nuclear_axioms(inst, nuc, 400_000, 1, max_size=3)]

    # the first run fills the tables with every tensor the second needs
    assert all(rep.ok for rep in checks()) and finrel._TENSOR
    real, (cleared, must_fail) = finrel.tensor, TENSOR_FAULTS[fault]

    def tensor(r, s):  # seeded fault
        t = real(r, s)
        if not any(t.rows):
            return t
        return finrel._mk(t.source, t.target, cleared(t, s), type(t))

    monkeypatch.setattr(finrel, "tensor", tensor)
    assert must_fail <= _failing_sublaws(monkeypatch, checks)


def _rename(expr, names):
    if isinstance(expr, str):
        return names.get(expr, expr)
    return (_rename(expr[0], names), _rename(expr[1], names))


def test_a_regroup_that_swaps_two_target_leaves_is_caught(monkeypatch):
    _forks.cpus(monkeypatch, 1)
    real = instance._slot_map

    def swapped(src, dst, sizes):  # seeded fault: the first two target leaves trade places
        outs = instance._leaves(dst)
        if len(outs) >= 2:
            x, y = outs[:2]
            dst = _rename(dst, {x: y, y: x})
        return real(src, dst, sizes)

    monkeypatch.setattr(instance, "_slot_map", swapped)
    rel, rel_nuc, rel_tr = finrel.structures()
    failing = _failing_sublaws(monkeypatch, lambda: [
        harness.check_nuclear_axioms(rel, rel_nuc, 200, 1),
        harness.check_param_trace_axioms(rel, rel_tr, 200, 1, max_size=2),
    ])
    # compactness's witnesses fall past the failure cap of its report,
    # behind transpose-tensor's, so only the per-case hook sees them
    assert {"transpose-tensor", "superposing", "compactness"} <= failing
    hilb, hilb_nuc, _ = finhilb.structures()
    failing = _failing_sublaws(monkeypatch, lambda: [
        harness.check_nuclear_axioms(hilb, hilb_nuc, 200, 1),
        harness.check_star_laws(hilb, 200, 1),
    ])
    assert {"transpose-conj", "symmetry", "compactness"} <= failing


@pytest.mark.parametrize("mod", [finrel, pinj])
def test_mor_eq_compares_values_not_objects(mod):
    inst = mod.instance()
    x, y = finrel.fin_set(2), finrel.fin_set(3)
    homs = list(inst.enum_hom(x, y))
    for r in homs:
        v = _validated(r)
        assert v is not r and inst.mor_eq(r, r) and inst.mor_eq(v, r)
        assert inst.mor_eq(r, v) and inst.mor_eq(v, _validated(r))
        assert not any(inst.mor_eq(v, s) or inst.mor_eq(s, v)
                       for s in homs if s is not r)
    # equal rows between other sets are other values
    assert not inst.mor_eq(homs[0], next(iter(inst.enum_hom(y, x))))


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


# -- kernel fast paths against a set oracle ---------------------------------


#: per family: the largest set size, its hom-set enumerator, its type
SMALL_HOMS = {
    "relations": (2, finrel.Relations, finrel.Relation),
    "pinj": (3, pinj.enum_pinj, pinj.PartialInjection),
}


def _graph(r) -> set:
    """The (source label, target label) pairs, read by finrel for every type."""
    return set(finrel.Relation.pairs(r))


def _is(r, source, target, graph, cls) -> bool:
    return (type(r) is cls and r.source == source and r.target == target
            and _graph(r) == graph)


def _validated(r):
    """A value equal to r, from the validating constructor of its type."""
    if type(r) is finrel.Relation:
        return finrel.Relation(r.source, r.target, r.rows)
    return type(r)(r.source, r.target, r.pairs)


def _check_unary(r, cls):
    a, b = r.source, r.target
    assert _is(finrel.converse(r), b, a, {(y, x) for x, y in _graph(r)}, cls)
    want = {(finrel.UNIT_LABEL, p) for p in _graph(r)}
    assert _is(finrel.theta(r), finrel.UNIT, finrel.product(a, b), want, cls)


def _check_compose(r, s, cls):
    want = {(x, z) for x, y in _graph(r) for y2, z in _graph(s) if y == y2}
    assert _is(finrel.compose(r, s), r.source, s.target, want, cls)


@pytest.mark.parametrize("family", SMALL_HOMS)
def test_kernel_matches_a_set_oracle_on_every_small_hom(monkeypatch, family):
    # empty tables: the first round builds every composite, converse and
    # transpose, and the second reads each one from the op table
    _empty_tables(monkeypatch)
    size, enum, cls = SMALL_HOMS[family]
    sets = [finrel.fin_set(n) for n in range(size + 1)]
    homs = [r for a in sets for b in sets for r in enum(a, b)]
    # one object per member: a second enumeration gives the same objects
    again = [r for a in sets for b in sets for r in enum(a, b)]
    assert len(again) == len(homs) and all(r is r2 for r, r2 in zip(homs, again))
    # the general loop runs too: some rows hold two or more bits
    assert (family == "relations") == any(row & (row - 1) for r in homs for row in r.rows)
    by_source, by_target = {}, {}
    for s in homs:
        by_source.setdefault(s.source.size, []).append(s)
        by_target.setdefault(s.target.size, []).append(s)
    for cold in (True, False):
        for r in homs:
            _check_unary(r, cls)
            for s in by_source[r.target.size]:
                _check_compose(r, s, cls)
            for s in homs:
                want = {((x1, x2), (y1, y2))
                        for x1, y1 in _graph(r) for x2, y2 in _graph(s)}
                got = finrel.tensor(r, s)
                assert _is(got, finrel.product(r.source, s.source),
                           finrel.product(r.target, s.target), want, cls)
        if cold:
            ops = _snapshot()
    # the warm round found every result in the tables and added none
    assert _snapshot() == ops
    assert all(len(ops[name]) == len(homs) for name in OP_TABLES)
    # a validated value equals the canonical one but is not it; the
    # kernel serves it from no table, and its composites are still right
    for r in homs:
        v = _validated(r)
        assert v == r and v is not r and id(v) not in finrel._MEMBERS
        _check_unary(v, cls)
        for s in by_source[r.target.size]:
            _check_compose(v, s, cls)
            _check_compose(v, _validated(s), cls)
        for s in by_target[r.source.size]:
            _check_compose(s, v, cls)


def test_sampled_relations_skip_the_tables():
    x, rng = finrel.fin_set(2), Lcg(5)
    drawn = [finrel.instance().sample_hom(rng, x, x), pinj.sample_pinj(rng, x, x)]
    members = [finrel.Relations(x, x)[finrel.theta_row(drawn[0])],
               next(m for m in pinj.enum_pinj(x, x) if m == drawn[1])]
    for r, m in zip(drawn, members):
        assert r == m and r is not m
        assert id(r) not in finrel._MEMBERS and id(m) in finrel._MEMBERS
        assert finrel.compose(r, r) is not finrel.compose(r, r)
        assert finrel.converse(r) is not finrel.converse(r)
        assert finrel.compose(m, m) is finrel.compose(m, m)
        assert finrel.converse(m) is finrel.converse(m)
        assert finrel.compose(r, r) == finrel.compose(m, m)


# -- structural isomorphisms built once per interned shape ------------------


@pytest.mark.parametrize("cls", [finrel.Relation, pinj.PartialInjection],
                         ids=["finrel", "pinj"])
def test_structural_isos_on_interned_sets_are_built_once(cls):
    for na in range(4):
        for nb in range(4):
            a, b = finrel.fin_set(na), finrel.fin_set(nb)
            ab = finrel.product(a, b)
            perm = tuple(range(ab.size - 1, -1, -1))
            first = (finrel.identity(a, cls), finrel.symmetry(a, b, cls),
                     finrel.reindex(ab, ab, list(perm), cls))
            again = (finrel.identity(a, cls), finrel.symmetry(a, b, cls),
                     finrel.reindex(ab, ab, perm, cls))
            assert all(x is y for x, y in zip(first, again))
            # each equals a freshly built value of its type
            ident, braid, rev = first
            assert type(ident) is type(braid) is type(rev) is cls
            assert _graph(ident) == {(x, x) for x in a.labels}
            assert (ident.source, ident.target) == (a, a)
            assert _graph(braid) == {(p, p[::-1]) for p in ab.labels}
            assert braid.source is ab and braid.target is finrel.product(b, a)
            assert rev.rows == tuple(1 << j for j in perm)
            assert rev.source is ab and rev.target is ab
    # the kind of value is part of the key
    x = finrel.fin_set(2)
    assert type(finrel.identity(x)) is finrel.Relation
    assert finrel.identity(x) is not finrel.identity(x, pinj.PartialInjection)


def test_structural_isos_on_sets_from_outside_are_built_anew():
    a, b = finrel.FinSet((0, 1)), finrel.finset_from_json(["p", "q", "r"])
    ab, n3 = finrel.product(a, b), finrel.fin_set(3)
    size = len(finrel._SHAPES)
    ident = finrel.identity(a)
    assert ident.source is a and ident.target is a
    assert ident is not finrel.identity(a)
    braid = finrel.symmetry(a, b)
    assert braid.source == ab and braid.target == finrel.product(b, a)
    assert braid is not finrel.symmetry(a, b)
    rev = finrel.reindex(ab, ab, range(5, -1, -1))
    assert rev.source is ab and rev.target is ab
    assert rev is not finrel.reindex(ab, ab, range(5, -1, -1))
    # one interned end is not enough
    assert finrel.symmetry(a, n3) is not finrel.symmetry(a, n3)
    assert finrel.reindex(b, n3, (0, 1, 2)).source is b
    assert len(finrel._SHAPES) == size


def test_reindex_refuses_a_non_bijection_after_a_memoized_one():
    x, y = finrel.fin_set(3), finrel.fin_set(2)
    assert finrel.reindex(x, x, (2, 0, 1)) is finrel.reindex(x, x, [2, 0, 1])
    for bad in ((0, 0, 1), (0, 1), (0, 1, 3), (2, 0, 1, 0)):
        with pytest.raises(ShapeMismatch, match="bijection"):
            finrel.reindex(x, x, bad)
    with pytest.raises(ShapeMismatch, match="bijection"):
        finrel.reindex(x, y, (0, 1))
