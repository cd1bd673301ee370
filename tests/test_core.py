"""Seeded generator, scalar-kind dispatch and the instance contracts."""

import itertools
import json
from fractions import Fraction

import pytest

from nucleal import cli, finrel
from nucleal.core import scalars
from nucleal.core.rng import Lcg

# First three states from seed 1 under the pinned multiplier/increment,
# computed by hand with plain integer arithmetic.
PINNED_STREAM = (
    7806831264735756412,
    9396908728118811419,
    11960119808228829710,
)


def test_pinned_stream():
    rng = Lcg(1)
    assert tuple(rng.next_u64() for _ in range(3)) == PINNED_STREAM
    rng = Lcg(42)
    rng.next_u64()
    assert rng.next_u64() == 4159066171780167020


def test_seed_masks_to_word_size():
    assert Lcg(1 << 64).next_u64() == Lcg(0).next_u64()


def test_below_range_and_determinism():
    a, b = Lcg(9), Lcg(9)
    xs = [a.below(7) for _ in range(200)]
    assert xs == [b.below(7) for _ in range(200)]
    assert all(0 <= x < 7 for x in xs)
    with pytest.raises(ValueError):
        Lcg(1).below(0)


def test_bits_width():
    rng = Lcg(3)
    for width in (0, 1, 63, 64, 65, 130):
        assert 0 <= rng.bits(width) < (1 << width) if width else rng.bits(0) == 0


def test_fraction_bounds():
    rng = Lcg(4)
    for _ in range(100):
        f = rng.fraction(4, 4)
        assert 0 <= f.numerator <= 4 * 4 and 1 <= f.denominator <= 4


def test_unit_interval():
    rng = Lcg(5)
    assert all(0.0 <= rng.unit() < 1.0 for _ in range(100))


def test_scalar_mul():
    assert scalars.mul(scalars.BOOL, True, False) is False
    assert scalars.mul(scalars.RATIONAL, Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
    assert scalars.mul(scalars.COMPLEX, 1j, 1j) == -1


def test_scalar_star():
    assert scalars.star(scalars.COMPLEX, 1 + 2j) == 1 - 2j
    assert scalars.star(scalars.BOOL, True) is True
    assert scalars.star(scalars.REAL, -1.5) == -1.5


def test_scalar_eq():
    assert scalars.eq(scalars.RATIONAL, Fraction(2, 4), Fraction(1, 2))
    assert scalars.eq(scalars.REAL, 1.0, 1.0 + 5e-11, tol=1e-10)
    assert not scalars.eq(scalars.REAL, 1.0, 1.1, tol=1e-10)
    assert scalars.eq(scalars.BOOL, 1, True)


def test_scalar_render():
    assert scalars.render(scalars.BOOL, True) == "true"
    assert scalars.render(scalars.RATIONAL, Fraction(3, 4)) == "3/4"
    assert scalars.render(scalars.RATIONAL, Fraction(5)) == "5"
    assert scalars.render(scalars.COMPLEX, 5 + 0j) == "5+0i"
    assert scalars.render(scalars.COMPLEX, 1 - 2j) == "1-2i"
    assert scalars.render(scalars.REAL, 0.25) == "0.25"


def test_json_float_round_trip():
    # the JSON layer serializes floats at full repr precision
    for v in (0.1, 1 / 3, 2.0 ** -52, 1e300):
        assert json.loads(json.dumps(v)) == v


# -- the instance contracts, on every model of the suites -------------------

SUITE_INSTANCES = cli._suite_instances()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize(
    "structures", SUITE_INSTANCES, ids=[inst.name for inst, _, _ in SUITE_INSTANCES]
)
def test_instance_contracts_hold_on_sampled_objects(structures, seed):
    inst, nuc, tr = structures
    rng = Lcg(seed)

    def runs(f, a, b):
        return inst.obj_eq(inst.source(f), a) and inst.obj_eq(inst.target(f), b)

    for _ in range(20):
        a, b = inst.sample_object(rng), inst.sample_object(rng)
        homs = [inst.sample_hom(rng, a, a), inst.sample_hom(rng, a, b)]
        homs += [nuc.sample_nuclear(rng, a, a), nuc.sample_nuclear(rng, a, b)]
        for h in homs:
            endo = inst.obj_eq(inst.source(h), inst.target(h))
            assert tr.in_trace_class(h) == (endo and nuc.is_nuclear(h))
        m = tr.sample_member(rng, a)
        assert runs(m, a, a) and tr.in_trace_class(m)
        f, g = tr.sample_dinat_pair(rng, a, b)
        assert runs(f, a, b) and runs(g, b, a)
        if inst.has_unit:
            state = nuc.sample_state(rng, a, b)
            assert runs(state, inst.unit(), inst.tensor_obj(inst.conj_obj(a), b))


# -- regroup against a label oracle -------------------------------------------
#
# finrel's products of interned sets carry nested-tuple labels, so the
# image of a source label is the target label made by moving its leaves;
# the oracle shares no slot arithmetic with `regroup`.

FINREL = finrel.instance()
NAMES = "abcd"


def _shapes(leaves):
    """Every bracketing of the leaves, in their order."""
    if len(leaves) == 1:
        yield leaves[0]
    for k in range(1, len(leaves)):
        for left in _shapes(leaves[:k]):
            for right in _shapes(leaves[k:]):
                yield (left, right)


def _parts(expr, label, into):
    """Bind each leaf of `expr` to its part of `label`."""
    if isinstance(expr, str):
        into[expr] = label
    else:
        _parts(expr[0], label[0], into)
        _parts(expr[1], label[1], into)


def _label(expr, parts):
    if expr == "I":
        return finrel.UNIT_LABEL
    if isinstance(expr, str):
        return parts[expr]
    return (_label(expr[0], parts), _label(expr[1], parts))


def _assert_moves_leaves(src, dst, **objs):
    r = FINREL.regroup(src, dst, **objs)
    want = set()
    for x in r.source.labels:
        parts = {}
        _parts(src, x, parts)
        want.add((x, _label(dst, parts)))
    assert set(r.pairs()) == want
    assert r.count() == r.source.size == r.target.size
    assert {y for _, y in want} == set(r.target.labels)
    return r


@pytest.mark.parametrize("n", range(1, 5))
def test_regroup_moves_each_leaf_to_its_place(n):
    leaves = NAMES[:n]
    pairs = [(src, dst) for src in _shapes(leaves)
             for order in itertools.permutations(leaves) for dst in _shapes(order)]
    sizes = list(itertools.product(range(1, 4), repeat=n))
    # every bracketing of the source against every bracketing of every
    # order of the target, at every factor size up to 3; at 4 factors
    # the 600 pairs take the 81 size tuples in turn
    cases = itertools.product(pairs, sizes) if n < 4 else zip(pairs, itertools.cycle(sizes))
    for (src, dst), ks in cases:
        _assert_moves_leaves(src, dst, **{x: finrel.fin_set(k) for x, k in zip(leaves, ks)})


def test_regroup_adds_and_drops_units_on_one_side():
    objs = {x: finrel.fin_set(k) for x, k in zip(NAMES, (2, 3, 2))}
    for n in range(1, 4):
        leaves = NAMES[:n]
        for order in itertools.permutations(leaves):
            for at in range(n + 1):
                padded = (*order[:at], "I", *order[at:])
                for src in _shapes(leaves):
                    for dst in _shapes(padded):
                        _assert_moves_leaves(src, dst, **objs)
                        _assert_moves_leaves(dst, src, **objs)
    lam = _assert_moves_leaves("I", ("I", "I"))
    assert lam.source is finrel.UNIT
    assert _assert_moves_leaves(("I", "I"), "I") == FINREL.star(lam)


@pytest.mark.parametrize("n", range(4))
def test_regroup_tells_the_swap_of_a_repeated_object_from_its_identity(n):
    a = finrel.fin_set(n)
    swap = _assert_moves_leaves(("x", "y"), ("y", "x"), x=a, y=a)
    same = _assert_moves_leaves(("x", "y"), ("x", "y"), x=a, y=a)
    assert swap == finrel.symmetry(a, a)
    assert same == finrel.identity(finrel.product(a, a))
    assert (swap == same) == (n < 2)


@pytest.mark.parametrize("src, dst", [
    (("a", "b"), ("a", "c")),  # a leaf of one side missing on the other
    (("a", "a"), ("a", "a")),  # a leaf named twice
    ("a", ("a", "b")),
])
def test_regroup_refuses_unmatched_leaves(src, dst):
    x = finrel.fin_set(2)
    with pytest.raises(ValueError):
        FINREL.regroup(src, dst, a=x, b=x, c=x)
