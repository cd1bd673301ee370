"""Safety net for the trusted builders of finrel, pinj, xrel, finstoch,
finhilb and cjsl.

Model operations build their results through private builders that
skip constructor validation: finrel's `_mk` for every relation
(`Relation`, `PartialInjection` and `XRelMorphism` alike, the sampled
crossed-set relations included), `_mk_set` for sets, xrel's `_mk_obj`
for crossed sets, finstoch's `_mk` and `_mk_space` for joint measures
and probability spaces, and finhilb's `_mk` for matrices, which keeps
only the finiteness check.  These tests swap each builder for one that
goes through the validating constructor of the value's type and also
demands that it reproduce the same fields, then rerun the law checks:
the verdicts must not change, and one invalid value fails the run.  The
finstoch builders also demand absolute continuity and canonical
integers, and the finhilb builder a `complex` for every entry; cjsl's
`_mk_sup` builds composites of sup maps.  finrel's
interned sets, the structural isomorphisms it memoizes on them, and
xrel's interned monoids and crossed sets are built once, so the relation
tests start from empty intern tables: every set, crossed set and
memoized isomorphism the rerun uses goes through the validating builder.
"""

import dataclasses
from fractions import Fraction
from math import gcd

import pytest

from nucleal import cjsl, cli, finhilb, finrel, finstoch, pinj, xrel
from nucleal.core import harness
from nucleal.core.errors import InvariantViolation, ShapeMismatch

# every module that holds finrel's relation builder under its own name
RELATION_BUILDERS = (finrel, pinj, xrel)
OBJECT_BUILDERS = (
    (finrel, "_mk_set", finrel.FinSet),
    (xrel, "_mk_obj", xrel.CrossedMSet),
)

# emptied for a validated rerun, so that it builds every interned value
INTERN_TABLES = (
    (finrel, "_INTERNED"),
    (finrel, "_SHAPES"),
    (xrel, "_MONOIDS"),
    (xrel, "_INTERNED"),
    (xrel, "_SHAPES"),
)

# large enough that every enumerable sub-law on sets of size <= 2 is swept
EXHAUSTIVE_BUDGET = 400_000
SMALL_BUDGET = 40


def _same_or_raise(value, values, fields):
    got = tuple(getattr(value, n) for n in fields)
    if got != values or any(type(g) is not type(v) for g, v in zip(got, values)):
        raise InvariantViolation(
            f"{type(value).__name__} built outside its normal form: {values!r}"
        )
    return value


def _validating_object(cls):
    names = [f.name for f in dataclasses.fields(cls)]

    def build(*values):
        return _same_or_raise(cls(*values), values, names)

    return build


def _validating_relation(source, target, rows, cls=finrel.Relation):
    """A relation of type `cls` through its public, validating constructor."""
    if cls is finrel.Relation:
        value = cls(source, target, rows)
    else:  # the subclasses take (source index, target index) pairs
        pairs = [
            (i, j)
            for i, row in enumerate(rows)
            for j in range(row.bit_length())
            if row >> j & 1
        ]
        value = cls(source, target, pairs)
    return _same_or_raise(value, (source, target, rows), ("source", "target", "rows"))


def _validate_builders(monkeypatch) -> tuple[list, list]:
    """Swap in the validating builders on empty intern tables; returns
    the labels of every set the validating `_mk_set` builds, and every
    relation the validating `_mk` returns."""
    for module, name in INTERN_TABLES:
        monkeypatch.setattr(module, name, {})
    relations = []

    def mk(*args):
        relations.append(_validating_relation(*args))
        return relations[-1]

    for module in RELATION_BUILDERS:
        monkeypatch.setattr(module, "_mk", mk)
    for module, name, cls in OBJECT_BUILDERS:
        monkeypatch.setattr(module, name, _validating_object(cls))
    built = []
    validating_set = finrel._mk_set

    def mk_set(labels):
        built.append(labels)
        return validating_set(labels)

    monkeypatch.setattr(finrel, "_mk_set", mk_set)
    return built, relations


def _all_checks(structures, budget, max_size=None, seed=1):
    inst, nuc, tr = structures
    reps = [
        harness.check_star_laws(inst, budget, seed, max_size=max_size),
        harness.check_nuclear_axioms(inst, nuc, budget, seed, max_size=max_size),
        harness.check_sliding(inst, nuc, SMALL_BUDGET, seed),
        harness.check_tracedness(inst, nuc, tr, SMALL_BUDGET, seed),
        harness.check_trace_axioms(inst, nuc, tr, SMALL_BUDGET, seed),
    ]
    if tr.has_param:
        reps.append(
            harness.check_param_trace_axioms(inst, tr, SMALL_BUDGET, seed, max_size=2)
        )
    return reps


def _reports():
    reps = []
    for mod in (pinj, finrel):
        reps += _all_checks(mod.structures(), EXHAUSTIVE_BUDGET, max_size=2)
    for nmod in (2, 3, 4):
        reps += _all_checks(xrel.structures(xrel.cyclic_monoid(nmod)), SMALL_BUDGET)
    reps += cli._xrel_audit_reports()
    return reps


def _signature(reps):
    return [(r.law, r.cases, r.failures, r.flags) for r in reps]


def test_validated_builders_change_no_verdict(monkeypatch):
    trusted = _reports()
    built, relations = _validate_builders(monkeypatch)
    checked = _reports()
    # products of interned sets too, which the first run had cached
    assert ((0, 0), (0, 1), (1, 0), (1, 1)) in built
    # and the structural isomorphisms memoized on them and on interned
    # crossed sets, of all three types
    memo = {key: r for key, r in finrel._SHAPES.items()
            if isinstance(key, tuple) and isinstance(key[0], str)}
    assert {(tag, cls) for tag in ("identity", "symmetry", "reindex")
            for cls in (finrel.Relation, pinj.PartialInjection, xrel.XRelMorphism)} <= {
        (key[0], type(r)) for key, r in memo.items()}
    made = {id(r) for r in relations}  # the list keeps every id in use
    assert all(id(r) in made for r in memo.values())
    # the validated rerun interned its own crossed sets and their tensors
    assert any(len(key) == 2 for key in xrel._SHAPES)
    assert not [
        f for r in checked for f in r.failures if "InvariantViolation" in f
    ]
    assert all(r.ok or r.is_finding for r in checked)
    assert _signature(checked) == _signature(trusted)
    assert any(r.is_finding for r in checked)  # the Z4 audit still finds its gap


def test_validated_builders_catch_non_injective_pinj(monkeypatch):
    def star(self, f):  # seeded fault: two or more points all land on point 0
        out = finrel.converse(f)
        if pinj.is_nuclear(out):
            return out
        rows = tuple(1 if row else 0 for row in out.rows)
        return pinj._mk(out.source, out.target, rows, pinj.PartialInjection)

    # pinj's adapter inherits `star` from finrel's, so the fault is
    # seeded on the adapter rather than on a module function
    monkeypatch.setattr(pinj.PInjInstance, "star", star)
    _validate_builders(monkeypatch)
    inst, _, _ = pinj.structures()
    rep = harness.check_star_laws(inst, EXHAUSTIVE_BUDGET, 1, max_size=2)
    assert any("graph is not injective" in f for f in rep.failures)


def test_validated_builders_catch_unclosed_xrel(monkeypatch):
    # the harness's xrel samplers draw trivial actions only, so the
    # faulty value is built directly on a swap
    def identity(x):  # seeded fault: only the first point is kept
        rows = tuple(1 if p == 0 else 0 for p in range(x.size))
        return xrel._mk(x, x, rows, xrel.XRelMorphism)

    monkeypatch.setattr(xrel, "identity", identity)
    inst, _, _ = xrel.structures(xrel.cyclic_monoid(2))
    swap = xrel.CrossedMSet(
        inst.monoid, xrel.FinSet(("p", "q")), ((0, 1), (1, 0)), (0, 0)
    )
    inst.identity(swap)  # trusted: the fault goes unseen
    _validate_builders(monkeypatch)
    with pytest.raises(InvariantViolation, match="not closed under the action"):
        inst.identity(swap)


# -- finstoch ---------------------------------------------------------------


def _check_canonical(rows, den):
    flat = [n for row in rows for n in row]
    if (
        type(den) is not int
        or den <= 0
        or any(type(n) is not int or n < 0 for n in flat)
        or gcd(den, *flat) != 1
    ):
        raise InvariantViolation(f"not in canonical form: {rows!r} over {den!r}")


def _validating_space(points, num, den):
    _check_canonical((num,), den)
    value = finstoch.ProbSpace(points, tuple(Fraction(n, den) for n in num))
    return _same_or_raise(value, (points, num, den), ("points", "num", "den"))


def _validating_joint(source, target, num, den):
    _check_canonical(num, den)
    weight = tuple(tuple(Fraction(n, den) for n in row) for row in num)
    value = finstoch.JointMeasure(source, target, weight)
    finstoch.check_abs_continuity(value)
    fields = ("source", "target", "num", "den")
    return _same_or_raise(value, (source, target, num, den), fields)


def _validate_finstoch_builders(monkeypatch):
    monkeypatch.setattr(finstoch, "_mk", _validating_joint)
    monkeypatch.setattr(finstoch, "_mk_space", _validating_space)


def _finstoch_reports(seeds=(1, 7), budget=200):
    inst, nuc, tr = finstoch.structures()
    reps = []
    for seed in seeds:
        reps += [
            harness.check_star_laws(inst, budget, seed),
            harness.check_nuclear_axioms(inst, nuc, budget, seed),
            harness.check_sliding(inst, nuc, budget, seed),
            harness.check_tracedness(inst, nuc, tr, budget, seed),
            harness.check_trace_axioms(inst, nuc, tr, budget, seed),
        ]
        reps += cli._stoch_monad_reports(budget, seed)
    return reps


def test_validated_finstoch_builders_change_no_verdict(monkeypatch):
    trusted = _finstoch_reports()
    _validate_finstoch_builders(monkeypatch)
    checked = _finstoch_reports()
    assert not [
        f for r in checked for f in r.failures if "InvariantViolation" in f
    ]
    assert all(r.ok or r.is_finding for r in checked)
    assert _signature(checked) == _signature(trusted)
    assert any(r.is_finding for r in checked)  # mass loss still reproduces


def test_validated_builders_catch_weight_on_null_cell(monkeypatch):
    real = finstoch.tensor_joint

    def tensor_joint(a, b):  # seeded fault: weight on a null source point
        out = real(a, b)
        null = [i for i, m in enumerate(out.source.num) if not m]
        if not null:
            return out
        rows = [list(row) for row in out.num]
        rows[null[0]][0] += out.den  # keeps the gcd, so the form stays canonical
        return finstoch._mk(out.source, out.target, tuple(map(tuple, rows)), out.den)

    monkeypatch.setattr(finstoch, "tensor_joint", tensor_joint)
    _validate_finstoch_builders(monkeypatch)
    inst, _, _ = finstoch.structures()
    rep = harness.check_star_laws(inst, 200, 1)
    assert any("marginal not absolutely continuous" in f for f in rep.failures)


def test_validated_builders_catch_unreduced_compose(monkeypatch):
    real = finstoch.compose
    no_gcd = lambda rows, den: (tuple(rows), den)

    def compose(a, b):  # seeded fault: the final gcd is skipped
        with monkeypatch.context() as m:
            m.setattr(finstoch, "_reduce", no_gcd)
            return real(a, b)

    monkeypatch.setattr(finstoch, "compose", compose)
    _validate_finstoch_builders(monkeypatch)
    inst, _, _ = finstoch.structures()
    rep = harness.check_star_laws(inst, 200, 1)
    assert any("not in canonical form" in f for f in rep.failures)


# -- finhilb ----------------------------------------------------------------


def _validate_finhilb_builder(monkeypatch) -> list:
    """Swap in a validating `_mk`; returns the shape of every matrix it builds."""
    built = []

    def mk(rows, cols, entries):
        if type(entries) is not tuple or any(type(z) is not complex for z in entries):
            raise InvariantViolation(f"entries are not complex: {entries!r}")
        built.append((rows, cols))
        value = finhilb.CMatrix(rows, cols, entries)
        fields = ("rows", "cols", "entries")
        return _same_or_raise(value, (rows, cols, entries), fields)

    monkeypatch.setattr(finhilb, "_mk", mk)
    return built


def _finhilb_reports(seeds=(1, 7), budget=200):
    return [
        rep for seed in seeds
        for rep in _all_checks(finhilb.structures(), budget, seed=seed)
    ]


def test_validated_finhilb_builder_changes_no_verdict(monkeypatch):
    trusted = _finhilb_reports()
    built = _validate_finhilb_builder(monkeypatch)
    checked = _finhilb_reports()
    # scalars and transposed states (a column) went through it too
    assert {(1, 1), (4, 1)} <= set(built)
    assert not [
        f for r in checked for f in r.failures if "InvariantViolation" in f
    ]
    assert all(r.ok for r in checked)
    assert _signature(checked) == _signature(trusted)


def test_reindex_builds_its_permutation_through_the_builder(monkeypatch):
    inst, _, _ = finhilb.structures()
    built = _validate_finhilb_builder(monkeypatch)
    got = inst.reindex(3, 3, (2, 0, 1))  # point i goes to index_map[i]
    assert built == [(3, 3)]
    assert got == finhilb.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert inst.reindex(2, 2, (0, 1)) == finhilb.identity_matrix(2)
    with pytest.raises(ShapeMismatch, match="not a bijection"):
        inst.reindex(3, 3, (0, 0, 1))


def test_validated_finhilb_builder_catches_a_short_tensor(monkeypatch):
    real = finhilb.tensor

    def tensor(f, g):  # seeded fault: the last entry is dropped
        out = real(f, g)
        return finhilb._mk(out.rows, out.cols, out.entries[:-1])

    monkeypatch.setattr(finhilb, "tensor", tensor)
    _validate_finhilb_builder(monkeypatch)
    inst, _, _ = finhilb.structures()
    rep = harness.check_star_laws(inst, SMALL_BUDGET, 1)
    assert any("needs" in f and "entries" in f for f in rep.failures)


# -- cjsl -------------------------------------------------------------------


def _validate_cjsl_builder(monkeypatch) -> list:
    """Swap in a validating `_mk_sup`; returns the values of every map it builds."""
    built = []
    validating = _validating_object(cjsl.SupMap)

    def mk_sup(source, target, values):
        built.append(values)
        return validating(source, target, values)

    monkeypatch.setattr(cjsl, "_mk_sup", mk_sup)
    return built


def test_validated_cjsl_builder_changes_no_verdict(monkeypatch):
    trusted = cli._cjsl_reports()
    built = _validate_cjsl_builder(monkeypatch)
    checked = cli._cjsl_reports()
    assert len(built) > 1000  # the closure lemma's composites
    assert all(r.ok for r in checked)
    assert _signature(checked) == _signature(trusted)


def test_validated_cjsl_builder_catches_a_composite_off_by_one(monkeypatch):
    real = cjsl.compose_sup

    def compose_sup(f, g):  # seeded fault: top goes to the target's bottom
        out = real(f, g)
        values = out.values[:-1] + (out.target.bot,)
        return cjsl._mk_sup(out.source, out.target, values)

    monkeypatch.setattr(cjsl, "compose_sup", compose_sup)
    _validate_cjsl_builder(monkeypatch)
    rep = cjsl.check_closure_lemma(3)
    assert not rep.ok
    assert any("joins are not preserved" in f for f in rep.failures)


# -- sizes stored outside the fields ----------------------------------------

_Z3_TABLE = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
_SWAP = ((0, 1), (1, 0))
_CHAIN3 = tuple(tuple(i <= j for j in range(3)) for i in range(3))
_THIRDS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

# per class: the element count, and makers of one value (fresh on each
# call) through the public constructor and through the trusted builder
SIZED = {
    "FinSet": (3, (lambda: finrel.FinSet(("a", "b", "c")),
                   lambda: finrel._mk_set(("a", "b", "c")))),
    "CommMonoid": (3, (lambda: xrel.CommMonoid(finrel.FinSet((0, 1, 2)), _Z3_TABLE, 0),
                       lambda: xrel.CommMonoid(finrel.fin_set(3), _Z3_TABLE, 0))),
    "CrossedMSet": (2, (
        lambda: xrel.CrossedMSet(xrel.cyclic_monoid(2), finrel.FinSet(("p", "q")),
                                 _SWAP, (1, 1)),
        lambda: xrel._mk_obj(xrel.cyclic_monoid(2), finrel._mk_set(("p", "q")),
                             _SWAP, (1, 1)))),
    "FinLattice": (3, (lambda: cjsl.FinLattice(finrel.FinSet((0, 1, 2)), _CHAIN3),
                       lambda: cjsl.chain(3))),
    "ProbSpace": (3, (lambda: finstoch.ProbSpace(finrel.FinSet("xyz"), _THIRDS),
                      lambda: finstoch._mk_space(finrel._mk_set(tuple("xyz")),
                                                 (2, 1, 1), 4))),
}


@pytest.mark.parametrize("name", sorted(SIZED))
def test_size_is_the_element_count_and_leaves_equality_alone(name):
    n, makers = SIZED[name]
    for make in makers:
        x = make()
        names = [f.name for f in dataclasses.fields(x)]
        assert x.size == n and x.size == n
        assert [f.name for f in dataclasses.fields(x)] == names
        assert "size" not in names
        for other in makers:  # a value whose size was never read
            y = other()
            assert type(y).__name__ == name
            assert x == y and y == x and hash(x) == hash(y)
