"""Complete join-semilattices, sup maps, and the tightness criterion."""

import itertools

import pytest

from nucleal import cjsl, cli
from nucleal.core.errors import InvariantViolation, ShapeMismatch


def test_lattice_rejects_broken_orders():
    two = cjsl.fin_set(2)
    with pytest.raises(InvariantViolation):
        cjsl.FinLattice(two, ((True, False), (False, True)))  # no top
    with pytest.raises(InvariantViolation):
        cjsl.FinLattice(two, ((True, True), (True, True)))  # not antisymmetric
    with pytest.raises(ShapeMismatch):
        cjsl.FinLattice(two, ((True, True),))


def test_standard_lattices():
    assert cjsl.chain(3).top == 2 and cjsl.chain(3).bot == 0
    d = cjsl.diamond()
    assert d.join(1, 2) == 3 and d.meet(1, 2) == 0
    m = cjsl.m3()
    assert all(m.join(i, j) == m.top for i, j in ((1, 2), (1, 3), (2, 3)))
    n = cjsl.n5()
    assert n.size == 5


def test_distributivity():
    assert cjsl.is_distributive(cjsl.chain(4))
    assert cjsl.is_distributive(cjsl.diamond())
    assert not cjsl.is_distributive(cjsl.m3())
    assert not cjsl.is_distributive(cjsl.n5())


def test_join_irreducibles():
    assert cjsl.join_irreducibles(cjsl.chain(3)) == [1, 2]
    assert cjsl.join_irreducibles(cjsl.diamond()) == [1, 2]
    assert cjsl.join_irreducibles(cjsl.m3()) == [1, 2, 3]


def test_sup_map_validation():
    c3 = cjsl.chain(3)
    with pytest.raises(InvariantViolation):
        cjsl.SupMap(c3, c3, (1, 1, 2))  # bottom moves up
    with pytest.raises(InvariantViolation):
        cjsl.SupMap(cjsl.diamond(), cjsl.diamond(), (0, 1, 2, 2))
    assert cjsl.identity_sup(c3).values == (0, 1, 2)
    assert cjsl.const_bottom(c3, c3).values == (0, 0, 0)


def test_compose_sup():
    c3 = cjsl.chain(3)
    collapse = cjsl.SupMap(c3, c3, (0, 0, 2))
    assert cjsl.compose_sup(collapse, collapse).values == (0, 0, 2)
    assert (
        cjsl.compose_sup(cjsl.identity_sup(c3), collapse).values
        == collapse.values
    )


def brute_force_sup_maps(a, b):
    out = []
    for values in itertools.product(range(b.size), repeat=a.size):
        try:
            out.append(cjsl.SupMap(a, b, values))
        except InvariantViolation:
            continue
    return out


@pytest.mark.parametrize(
    "a,b",
    [
        (cjsl.chain(2), cjsl.chain(2)),
        (cjsl.chain(2), cjsl.chain(3)),
        (cjsl.chain(3), cjsl.diamond()),
        (cjsl.diamond(), cjsl.chain(3)),
        (cjsl.m3(), cjsl.chain(2)),
    ],
)
def test_enum_sup_maps_matches_brute_force(a, b):
    enum = {f.values for f in cjsl.enum_sup_maps(a, b)}
    brute = {f.values for f in brute_force_sup_maps(a, b)}
    assert enum == brute


def test_enum_count_on_two_chain():
    assert len(list(cjsl.enum_sup_maps(cjsl.chain(2), cjsl.chain(2)))) == 2


def test_criterion_values_on_two_chain():
    c2 = cjsl.chain(2)
    assert cjsl.hr_values(c2, c2, (0, 0)) == (0, 1)
    assert cjsl.hr_values(c2, c2, (0, 1)) == (0, 0)
    assert cjsl.hr_values(c2, c2, (1, 1)) == (0, 0)


def test_identity_tight_iff_distributive_on_named_lattices():
    for lat in (cjsl.chain(2), cjsl.chain(5), cjsl.diamond()):
        res = cjsl.hr_nuclear(cjsl.identity_sup(lat))
        assert res.nuclear
        assert cjsl.hr_values(lat, lat, res.witness_values) == tuple(
            range(lat.size)
        )
    for lat in (cjsl.m3(), cjsl.n5()):
        res = cjsl.hr_nuclear(cjsl.identity_sup(lat))
        assert not res.nuclear


def test_const_bottom_is_tight():
    m = cjsl.m3()
    res = cjsl.hr_nuclear(cjsl.const_bottom(m, m))
    assert res.nuclear
    assert cjsl.hr_values(m, m, res.witness_values) == (m.bot,) * m.size
    # the all-top table is always a representing function for const-bottom
    assert cjsl.hr_values(m, m, (m.top,) * m.size) == (m.bot,) * m.size


def test_identity_on_seven_chain_is_tight():
    # the closed form is exact at every size, not only on small lattices
    big = cjsl.chain(7)
    res = cjsl.hr_nuclear(cjsl.identity_sup(big))
    assert res.nuclear is True
    assert res.witness_values == (0, 0, 1, 2, 3, 4, 5)
    assert cjsl.hr_values(big, big, res.witness_values) == tuple(range(7))


def brute_force_tight(f):
    """Oracle: try every function g: B -> A as a representing witness."""
    a, b = f.source, f.target
    return any(
        cjsl.hr_values(a, b, g) == f.values
        for g in itertools.product(range(a.size), repeat=b.size)
    )


def assert_matches_oracle(maps):
    for f in maps:
        res = cjsl.hr_nuclear(f)
        assert res.nuclear == brute_force_tight(f), f
        if res.nuclear:
            w = res.witness_values
            assert cjsl.hr_values(f.source, f.target, w) == f.values
            cjsl.SupMap(f.target, f.source, w)  # the least witness is a sup map
        else:
            assert res.witness_values is None


def test_closed_form_matches_brute_force_up_to_four_elements():
    lats = cjsl.enumerate_lattices(4)
    maps = [f for a in lats for b in lats for f in cjsl.enum_sup_maps(a, b)]
    assert len(maps) == 145
    assert_matches_oracle(maps)


def test_closed_form_matches_brute_force_on_m3_and_n5_endomorphisms():
    maps = [
        f for lat in (cjsl.m3(), cjsl.n5()) for f in cjsl.enum_sup_maps(lat, lat)
    ]
    assert len(maps) == 93
    assert_matches_oracle(maps)


def test_right_adjoint_examples():
    c3 = cjsl.chain(3)
    assert cjsl.right_adjoint(cjsl.identity_sup(c3)).values == (0, 1, 2)
    assert cjsl.right_adjoint(cjsl.const_bottom(c3, c3)).values == (2, 2, 2)


def test_galois_law_on_all_small_maps():
    for a, b in ((cjsl.chain(3), cjsl.diamond()), (cjsl.m3(), cjsl.chain(3))):
        for f in cjsl.enum_sup_maps(a, b):
            assert cjsl.galois_law_holds(f)


def test_enumerate_lattices_census():
    lats = cjsl.enumerate_lattices(5)
    assert len(lats) == 10
    sizes = {}
    for lat in lats:
        sizes[lat.size] = sizes.get(lat.size, 0) + 1
    assert sizes == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5}
    assert len({cjsl.iso_key(lat) for lat in lats}) == 10
    bad = [lat for lat in lats if not cjsl.is_distributive(lat)]
    assert len(bad) == 2
    assert {cjsl.iso_key(lat) for lat in bad} == {
        cjsl.iso_key(cjsl.m3()),
        cjsl.iso_key(cjsl.n5()),
    }


def test_characterization_report():
    rep = cjsl.check_characterization(5)
    assert rep.ok
    assert "lattices:10" in rep.flags
    assert "non-distributive:2" in rep.flags


def test_closure_and_wellformed_reports():
    assert cjsl.check_closure_lemma(4).ok
    wf = cjsl.check_hr_wellformed(4)
    assert wf.ok and not wf.is_finding


def test_galois_report():
    assert cjsl.check_galois(4).ok


def test_cjsl_suite_outcomes_pinned():
    got = [
        (r.law, r.cases, r.failures, r.flags) for r in cli.run_suite("cjsl-hr")
    ]
    assert got == [
        ("cjsl-higgs-rowe[<=5]", 10, [], ["lattices:10", "non-distributive:2"]),
        ("cjsl-closure[<=4]", 11703, [], []),
        ("cjsl-hr-wellformed[<=4]", 145, [], []),
        ("cjsl-galois[<=5]", 2022, [], []),
    ]


def test_json_round_trips():
    m = cjsl.m3()
    back = cjsl.lattice_from_json(cjsl.lattice_to_json(m))
    assert back == m
    f = cjsl.SupMap(m, cjsl.chain(2), (0, 1, 1, 1, 1))
    got = cjsl.supmap_from_json(cjsl.supmap_to_json(f))
    assert got == f
