"""Crossed monoid-sets and the squared-degree ideal."""

import itertools
import json

import pytest

import _intern_counts
from nucleal import cli, finrel, xrel
from nucleal.core import harness
from nucleal.core.errors import InvariantViolation, ShapeMismatch
from nucleal.core.instance import CategoryInstance
from nucleal.core.rng import Lcg

Z2 = xrel.cyclic_monoid(2)
Z3 = xrel.cyclic_monoid(3)
Z4 = xrel.cyclic_monoid(4)


def test_cyclic_monoid_table():
    assert Z4.mul(1, 3) == 0
    assert Z4.mul(2, 3) == 1
    assert Z4.e == 0


def test_monoid_rejects_broken_table():
    # left projection: 1.0 = 0 but 0.1 = 1, not commutative
    with pytest.raises(InvariantViolation):
        xrel.CommMonoid(xrel.FinSet((0, 1)), ((0, 1), (0, 1)), 0)


def test_object_rejects_incompatible_action():
    # swap under the generator but fixed under generator^2 would need 2-periodicity
    with pytest.raises(InvariantViolation):
        xrel.CrossedMSet(
            Z4,
            xrel.FinSet(("p", "q")),
            ((0, 1), (1, 0), (1, 0), (0, 1)),
            (0, 0),
        )


def test_object_rejects_degree_not_action_invariant():
    with pytest.raises(InvariantViolation):
        xrel.CrossedMSet(
            Z2,
            xrel.FinSet(("p", "q")),
            ((0, 1), (1, 0)),
            (0, 1),
        )


def test_morphism_rejects_unequal_degrees():
    a = xrel.trivial_object(Z4, ("p",), (1,))
    b = xrel.trivial_object(Z4, ("q",), (2,))
    with pytest.raises(InvariantViolation):
        xrel.from_pairs(a, b, [(0, 0)])


def test_morphism_rejects_action_leak():
    swap = xrel.CrossedMSet(Z2, xrel.FinSet(("p", "q")), ((0, 1), (1, 0)), (0, 0))
    fixed = xrel.trivial_object(Z2, ("r",))
    # (p, r) forces (q, r) under the generator
    with pytest.raises(InvariantViolation):
        xrel.XRelMorphism(swap, fixed, frozenset({(0, 0)}))
    assert xrel.from_pairs(swap, fixed, [(0, 0), (1, 0)]).pairs == {(0, 0), (1, 0)}


def test_tensor_degrees_multiply():
    x = xrel.trivial_object(Z4, ("p", "q"), (1, 2))
    y = xrel.trivial_object(Z4, ("r",), (3,))
    t = xrel.tensor_object(x, y)
    assert t.degree == (Z4.mul(1, 3), Z4.mul(2, 3)) == (0, 1)


def test_compose_preserves_invariants_on_random_cases():
    # constructor revalidation is the oracle: a bad composite would raise
    for mon in (Z2, Z3, Z4):
        inst, _, _ = xrel.structures(mon)
        rng = Lcg(31)
        done = 0
        while done < 100:
            a, b, c = (inst.sample_object(rng) for _ in range(3))
            r = inst.sample_hom(rng, a, b)
            s = inst.sample_hom(rng, b, c)
            out = xrel.compose(r, s)
            assert out.source is a and out.target is c
            done += 1


def test_identity_is_valid_everywhere():
    inst, _, _ = xrel.structures(Z4)
    rng = Lcg(32)
    for _ in range(50):
        a = inst.sample_object(rng)
        ident = xrel.identity(a)
        assert all(x == y for x, y in ident.pairs)


def test_nuclear_empty_relation():
    a = xrel.trivial_object(Z4, ("p",), (1,))
    assert xrel.is_nuclear(xrel.empty(a, a))


def test_nuclear_depends_on_squared_degree():
    two = xrel.trivial_object(Z4, ("p",), (2,))
    one = xrel.trivial_object(Z4, ("q",), (1,))
    assert xrel.is_nuclear(xrel.identity(two))  # 2+2 = 0 mod 4
    assert not xrel.is_nuclear(xrel.identity(one))  # 1+1 = 2 mod 4


def test_nuclear_object_criteria():
    rng = Lcg(33)
    inst, _, _ = xrel.structures(Z2)
    for _ in range(30):
        assert xrel.is_nuclear_object(inst.sample_object(rng))
    assert not xrel.is_nuclear_object(xrel.trivial_object(Z4, ("p",), (1,)))
    assert xrel.is_nuclear_object(xrel.trivial_object(Z4, ("p", "q")))


def test_theta_round_trip_exhaustive_z2():
    a = xrel.trivial_object(Z2, ("p", "q"), (0, 1))
    b = xrel.trivial_object(Z2, ("r", "s"), (1, 0))
    seen = 0
    for r in xrel.enum_morphisms(a, b):
        assert xrel.is_nuclear(r)
        assert xrel.theta_inv(xrel.theta(r), a, b) == r
        seen += 1
    assert seen > 1


def test_theta_audit_bijective_over_z2():
    a = xrel.trivial_object(Z2, ("p", "q"), (0, 1))
    rep = xrel.theta_bijectivity_report(a, a)
    assert rep.ok and not rep.is_finding


def test_theta_audit_z4_degree_pair_witness():
    left = xrel.trivial_object(Z4, ("x",), (1,))
    right = xrel.trivial_object(Z4, ("y",), (3,))
    rep = xrel.theta_bijectivity_report(left, right)
    assert rep.is_finding
    assert any("theta-not-surjective" in f for f in rep.flags)
    assert any("(1, 3)" in w for w in rep.failures)


def test_a_raising_transpose_is_not_hidden_by_the_finding(monkeypatch, capsys):
    # the Z4 audit's documented finding must not turn a crash into exit 0
    def theta_inv(m, a, b):
        raise RuntimeError("seeded theta_inv fault")

    monkeypatch.setattr(xrel, "theta_inv", theta_inv)
    assert cli.main(["verify", "xrel-audit", "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    z4 = reports[0]
    assert z4["law"].startswith("theta-audit[CommMonoid([0, 1, 2, 3])")
    assert z4["failures"][0] == (
        "roundtrip: exception RuntimeError: seeded theta_inv fault"
    )
    assert not any(f.startswith("documented-finding") for f in z4["flags"])


def test_empty_state_is_in_theta_image():
    left = xrel.trivial_object(Z4, ("x",), (1,))
    right = xrel.trivial_object(Z4, ("y",), (3,))
    unit = xrel.unit_object(Z4)
    prod = xrel.tensor_object(left, right)
    state = xrel.empty(unit, prod)
    assert xrel.theta(xrel.empty(left, right)) == state


def test_json_round_trips():
    assert xrel.monoid_from_json(xrel.monoid_to_json(Z4)) == Z4
    obj = xrel.trivial_object(Z4, ("p", "q"), (1, 2))
    assert xrel.object_from_json(xrel.object_to_json(obj), Z4) == obj
    r = xrel.identity(obj)
    assert xrel.from_json(xrel.to_json(r)) == r


def test_sampled_morphisms_are_valid_over_nontrivial_actions():
    inst, nuc, _ = xrel.structures(Z3)
    rng = Lcg(34)
    nuclear_seen = 0
    for _ in range(200):
        a, b = inst.sample_object(rng), inst.sample_object(rng)
        f = nuc.sample_nuclear(rng, a, b)
        if f is not None and f.pairs:
            nuclear_seen += 1
            assert nuc.is_nuclear(f)
    assert nuclear_seen > 10


# -- interning --------------------------------------------------------------


def _sampled(mon, count, seed):
    inst, _, _ = xrel.structures(mon)
    rng = Lcg(seed)
    return inst, [inst.sample_object(rng) for _ in range(count)]


def _fields(x):
    return (x.monoid, x.carrier, x.action, x.degree)


def test_cyclic_monoids_are_interned():
    assert xrel.cyclic_monoid(3) is Z3
    assert xrel.instance().monoid is Z2


@pytest.mark.parametrize("mon", [Z2, Z3, Z4])
def test_sampled_objects_of_one_shape_are_one_object(mon):
    _, objs = _sampled(mon, 300, 41)
    by_shape = {}
    for x in objs:
        by_shape.setdefault(_fields(x), set()).add(id(x))
    assert all(len(ids) == 1 for ids in by_shape.values())
    assert xrel.unit_object(mon) is xrel.unit_object(mon)


def test_tensor_object_is_memoized_on_interned_pairs():
    _, objs = _sampled(Z3, 40, 42)
    for a, b in zip(objs, objs[1:]):
        t = xrel.tensor_object(a, b)
        assert xrel.tensor_object(a, b) is t
        assert xrel.tensor_object(t, a) is xrel.tensor_object(t, a)
    # objects from the constructor are not interned: equal, not identical
    x = xrel.trivial_object(Z3, ("p", "q"), (1, 2))
    assert xrel.tensor_object(x, x) is not xrel.tensor_object(x, x)
    assert xrel.tensor_object(x, x) == xrel.tensor_object(x, x)


def test_tensor_object_rejects_objects_over_different_monoids():
    x, y = xrel.unit_object(Z2), xrel.unit_object(Z3)
    with pytest.raises(ShapeMismatch):
        xrel.tensor_object(x, y)


def test_json_objects_equal_interned_ones_and_hash_alike():
    _, objs = _sampled(Z4, 60, 43)
    z4_copy = xrel.monoid_from_json(xrel.monoid_to_json(Z4))  # equal, not interned
    for x in objs:
        for mon in (Z4, z4_copy):
            y = xrel.object_from_json(xrel.object_to_json(x), mon)
            assert y is not x
            assert y == x and x == y and hash(y) == hash(x)
            assert xrel.tensor_object(y, x) == xrel.tensor_object(x, x)
    assert xrel.unit_object(z4_copy) == xrel.unit_object(Z4)
    assert xrel.unit_object(z4_copy) is not xrel.unit_object(z4_copy)


def test_intern_tables_stay_bounded_across_runs_and_seeds():
    """xrel's crossed sets; finrel's sets are checked in test_finrel."""
    counts = _intern_counts.counts()
    # a second report interns nothing new
    assert all(after_one[1:5] == after_two[1:5] for after_one, after_two in counts)
    (seed1, _), (seed7, _) = counts
    # the monoids and sampled shapes are the same at every seed; which
    # pairs get tensored, and so memoized, depends on the draws
    assert seed1[1:3] == seed7[1:3] and seed1[1] == 3 and seed1[3] > 0


# -- closed-form braiding ---------------------------------------------------


def _swap_object(mon):
    # the generator swaps p with q; both have degree 1
    rows = [(0, 1) if m % 2 == 0 else (1, 0) for m in range(mon.size)]
    return xrel.CrossedMSet(mon, xrel.FinSet(("p", "q")), tuple(rows), (1, 1))


@pytest.mark.parametrize("mon", [Z2, Z4])
def test_symmetry_matches_the_generic_braiding(mon):
    inst, objs = _sampled(mon, 24, 44)
    objs += [_swap_object(mon), xrel.trivial_object(mon, ("r",), (mon.size - 1,))]
    for a in objs:
        for b in objs[-6:]:
            got = inst.symmetry(a, b)
            want = CategoryInstance.symmetry(inst, a, b)
            assert type(got) is type(want) is xrel.XRelMorphism
            assert got == want
            got._check()  # equivariant and degree-respecting


def test_star_laws_catch_a_braid_with_two_rows_swapped(monkeypatch):
    real = xrel.symmetry

    def symmetry(a, b):  # seeded fault
        s = real(a, b)
        rows = list(s.rows)
        if len(rows) >= 2:
            rows[0], rows[1] = rows[1], rows[0]
        return xrel._mk(s.source, s.target, tuple(rows), xrel.XRelMorphism)

    monkeypatch.setattr(xrel, "symmetry", symmetry)
    inst, _, _ = xrel.structures(Z3)
    rep = harness.check_star_laws(inst, 200, 1)
    witnesses = [f for f in rep.failures if f.startswith("symmetry: ")]
    assert any("not natural for f=" in f for f in witnesses)


# -- structural isomorphisms built once per interned shape ------------------


def _orbit_object(mon, degree):
    """Interned 3-point crossed set: the generator swaps points 0 and 1
    (on odd powers) and fixes point 2."""
    action = tuple((1, 0, 2) if m % 2 else (0, 1, 2) for m in range(mon.size))
    return xrel._shaped_obj(mon, xrel.fin_set(3), action, degree)


@pytest.mark.parametrize("mon", [Z2, Z4])
def test_structural_isos_on_interned_crossed_sets_are_built_once(mon):
    inst, objs = _sampled(mon, 12, 46)
    objs += [_orbit_object(mon, (1, 1, 1)), _orbit_object(mon, (1, 1, 0))]
    assert all(id(x) in xrel._INTERNED for x in objs)
    for a in objs:
        for b in objs[-4:]:
            ab, ba = xrel.tensor_object(a, b), xrel.tensor_object(b, a)
            n = ab.size
            swap = [j * a.size + i for i in range(a.size) for j in range(b.size)]
            shapes = len(xrel._SHAPES)
            first = (xrel.identity(a), xrel.symmetry(a, b),
                     inst.reindex(ab, ab, list(range(n))), inst.reindex(ab, ba, swap))
            again = (inst.identity(a), inst.symmetry(a, b),
                     inst.reindex(ab, ab, range(n)), inst.reindex(ab, ba, tuple(swap)))
            assert all(x is y for x, y in zip(first, again))
            assert len(xrel._SHAPES) == shapes  # kept in finrel's table
            ident, braid, unit, rev = first
            assert all(type(r) is xrel.XRelMorphism for r in first)
            assert ident.source is a and ident.target is a
            assert ident.rows == tuple(1 << i for i in range(a.size))
            assert braid.source is ab and braid.target is ba
            assert braid == rev  # the braiding is the reindex of the swap
            assert unit.rows == tuple(1 << i for i in range(n))
            for r in first:
                r._check()


def test_structural_isos_on_crossed_sets_from_outside_are_built_anew():
    inst, _, _ = xrel.structures(Z2)
    x = _swap_object(Z2)
    y = _orbit_object(Z2, (1, 1, 1))
    size = len(finrel._SHAPES)
    assert xrel.identity(x) is not xrel.identity(x)
    assert xrel.identity(x) == xrel.identity(x)
    # one interned end is not enough
    assert xrel.symmetry(x, y) is not xrel.symmetry(x, y)
    assert xrel.symmetry(x, y) == xrel.symmetry(x, y)
    assert inst.reindex(x, x, (1, 0)) is not inst.reindex(x, x, (1, 0))
    assert len(finrel._SHAPES) == size


@pytest.mark.parametrize("degree", [(1, 1, 1), (1, 1, 0), (0, 0, 1)])
def test_reindex_refuses_a_map_that_is_not_equivariant_after_a_memoized_one(degree):
    inst, _, _ = xrel.structures(Z2)
    x = _orbit_object(Z2, degree)
    for _ in range(2):  # the second round reads the memo
        refused = 0
        for perm in itertools.permutations(range(3)):
            pairs = list(enumerate(perm))
            try:
                want = xrel.XRelMorphism(x, x, pairs)  # validating oracle
            except InvariantViolation:
                refused += 1
                with pytest.raises(InvariantViolation):
                    inst.reindex(x, x, perm)
                continue
            got = inst.reindex(x, x, perm)
            assert got == want and got is inst.reindex(x, x, list(perm))
        assert refused == 4  # only the identity and the swap of 0 and 1 commute
