"""Finite probability spaces coupled by exact rational joint measures.

A morphism from (X, mu) to (Y, nu) is a nonnegative rational measure on
X x Y whose marginals are absolutely continuous with respect to mu and
nu.  Composition integrates matched kernels over the middle object, the
identity is the diagonal measure, and the converse transposes the
weight matrix.  Disintegration recovers row-stochastic conditional
kernels, densities divide cell weights by product masses, and the
diagonal density integral gives the trace.  A finitely-supported Giry
triple (unit, pushforward, flattening) rounds out the picture.

Morphisms are deliberately measures rather than probability measures:
composition can lose mass (see the mass-loss fixture in the test data),
and `is_probability` keeps the distinction observable.  Every law here
is an identity, not an approximation.

Arithmetic is exact and runs on integers.  A space stores its masses,
and a joint measure its weights, as integer numerators `num` over one
common denominator `den`, in canonical form: `den` is positive and the
gcd of `den` and every numerator is 1.  Canonical form is unique, so two
values are equal exactly when their integers are.  `compose` and
`tensor_joint` reduce their result with one gcd; the other operations
keep canonical integers as they are.  `mass` and `weight` are read-only
`Fraction` views of those integers.  Otherwise `Fraction` appears only
at the JSON boundary, in scalar outputs (`trace_nuclear`, `density`,
`disintegrate`, ...) and in the Giry triple's distributions.

Boundary contract: values that enter from outside are validated, values
that operations make are trusted.  The `ProbSpace` and `JointMeasure`
constructors, `prob_space`, `joint`, `from_json` and the samplers check
shape, nonnegativity and a space's total mass; all of them but the
`JointMeasure` constructor also check that a measure's marginals are
absolutely continuous.  Operations whose results keep those invariants
(`compose`, `converse`, `delta`, `product_joint`, `tensor_joint`,
`product_space`, `reindex`, `theta`, `theta_inv`) build through the
trusted `_mk`/`_mk_space`, which check nothing; each call says why the
invariants hold.

The samplers draw integers and check them as integers: `sample_space`
rejects a negative weight (so the total is positive), and
`sample_joint` a negative numerator or a denominator outside 1..3 and
then checks absolute continuity.  Both reduce with one gcd to canonical
form and build through `_mk_space`/`_mk`; a sampled space lies on the
interned `fin_set(n)`, so products of sampled spaces are memoized.
They draw the RNG values that the `Fraction` path through `prob_space`
and `joint` drew, in the same order, and give the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from nucleal.core import scalars
from nucleal.core.errors import InvariantViolation, ParseError, ShapeMismatch
from nucleal.core.harness import _Runner
from nucleal.core.instance import (
    CategoryInstance,
    FactorizationResult,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.report import AxiomReport
from nucleal.core.rng import Lcg
from nucleal.finrel import (
    UNIT,
    FinSet,
    fin_set,
    finset_from_json,
    finset_to_json,
    label_key,
    product,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _over_lcd(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of `Fraction`s as integer rows over their least common
    denominator; no prime divides that and every numerator, so the
    result is already canonical."""
    den = lcm(*[w.denominator for row in rows for w in row])
    num = tuple(
        [tuple([w.numerator * (den // w.denominator) for w in row]) for row in rows]
    )
    return num, den


def _reduce(rows: list, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Canonical form of integer rows (tuples) over `den` > 0."""
    g = gcd(den, *chain.from_iterable(rows))
    if g == 1:
        return tuple(rows), den
    return tuple([tuple([n // g for n in row]) for row in rows]), den // g


def _view(num: tuple[int, ...], den: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(n, den) for n in num])


def _reciprocals(num: tuple[int, ...]) -> tuple[int, list[int]]:
    """s, the lcm of the positive entries m of `num`, and s / m for each
    of them (0 where m is 0): a sum of x_j / m_j over the positive m_j is
    the integer sum of x_j (s / m_j), over s."""
    s = lcm(*[m for m in num if m])
    return s, [s // m if m else 0 for m in num]


@dataclass(frozen=True, init=False)
class ProbSpace:
    """Finite probability space: the point with label index i has mass
    num[i] / den."""

    points: FinSet
    num: tuple[int, ...]
    den: int

    def __init__(self, points: FinSet, mass: Sequence[Fraction]):
        if len(mass) != points.size:
            raise ShapeMismatch("one mass per point required")
        for m in mass:
            if not isinstance(m, Fraction) or m < 0:
                raise InvariantViolation(f"mass {m!r} is not a nonnegative rational")
        (num,), den = _over_lcd((mass,))
        if sum(num) != den:
            raise InvariantViolation(f"total mass {Fraction(sum(num), den)} != 1")
        self.__dict__.update(points=points, num=num, den=den)

    @property
    def mass(self) -> tuple[Fraction, ...]:
        """Read-only view of the masses, aligned with the label order."""
        return _view(self.num, self.den)

    @property
    def size(self) -> int:
        return self.points.size

    def __repr__(self):
        body = ", ".join(
            f"{lbl!r}:{m}" for lbl, m in zip(self.points.labels, self.mass)
        )
        return f"ProbSpace({body})"


def _mk_space(points: FinSet, num: tuple[int, ...], den: int) -> ProbSpace:
    """Trusted builder: `num` must be one nonnegative int per point, over
    `den`, in canonical form, with total mass 1."""
    p = object.__new__(ProbSpace)
    p.__dict__.update(points=points, num=num, den=den)
    return p


def prob_space(labels: Sequence, masses: Sequence[Fraction]) -> ProbSpace:
    return ProbSpace(FinSet(tuple(labels)), tuple(Fraction(m) for m in masses))


def uniform_space(labels: Sequence) -> ProbSpace:
    n = len(labels)
    return prob_space(labels, [Fraction(1, n)] * n)


UNIT_SPACE = ProbSpace(UNIT, (ONE,))


def product_space(p: ProbSpace, q: ProbSpace) -> ProbSpace:
    # masses sum to 1 and stay nonnegative; each factor's numerators sum
    # to its denominator and so have gcd 1, and so do their products
    return _mk_space(
        product(p.points, q.points),
        tuple([x * y for x in p.num for y in q.num]),
        p.den * q.den,
    )


@dataclass(frozen=True, init=False)
class JointMeasure:
    """Nonnegative rational measure on the product of two spaces: cell
    (i, j) weighs num[i][j] / den.

    The constructor checks shape and nonnegativity only; the `joint`
    factory additionally enforces marginal absolute continuity.  Module
    operations build their results through the trusted `_mk` instead.
    """

    source: ProbSpace
    target: ProbSpace
    num: tuple[tuple[int, ...], ...]
    den: int

    def __init__(
        self, source: ProbSpace, target: ProbSpace, weight: Sequence[Sequence[Fraction]]
    ):
        if len(weight) != source.size:
            raise ShapeMismatch("one weight row per source point required")
        for row in weight:
            if len(row) != target.size:
                raise ShapeMismatch("one weight column per target point required")
            for w in row:
                if not isinstance(w, Fraction) or w < 0:
                    raise InvariantViolation(
                        f"weight {w!r} is not a nonnegative rational"
                    )
        num, den = _over_lcd(weight)
        self.__dict__.update(source=source, target=target, num=num, den=den)

    @property
    def weight(self) -> tuple[tuple[Fraction, ...], ...]:
        """Read-only view of the weights, one row per source point."""
        return tuple([_view(row, self.den) for row in self.num])

    def total(self) -> Fraction:
        return Fraction(sum(map(sum, self.num)), self.den)

    def __repr__(self):
        cells = {
            (self.source.points.labels[i], self.target.points.labels[j]): Fraction(
                n, self.den
            )
            for i, row in enumerate(self.num)
            for j, n in enumerate(row)
            if n
        }
        return f"JointMeasure({cells})"


def _mk(
    source: ProbSpace, target: ProbSpace, num: tuple[tuple[int, ...], ...], den: int
) -> JointMeasure:
    """Trusted builder: `num` must hold one row of nonnegative ints per
    source point and one column per target point, over `den`, in
    canonical form, with absolutely continuous marginals."""
    a = object.__new__(JointMeasure)
    a.__dict__.update(source=source, target=target, num=num, den=den)
    return a


def check_abs_continuity(a: JointMeasure) -> None:
    # weights are nonnegative, so a marginal vanishes where its row or
    # column is all zero
    for i, row in enumerate(a.num):
        if a.source.num[i] == 0 and any(row):
            raise InvariantViolation(
                "source marginal not absolutely continuous",
                witness=a.source.points.labels[i],
            )
    for j, m in enumerate(a.target.num):
        if m == 0 and any(row[j] for row in a.num):
            raise InvariantViolation(
                "target marginal not absolutely continuous",
                witness=a.target.points.labels[j],
            )


def joint(
    source: ProbSpace, target: ProbSpace, weight: Sequence[Sequence[Fraction]]
) -> JointMeasure:
    a = JointMeasure(
        source, target, tuple(tuple(Fraction(w) for w in row) for row in weight)
    )
    check_abs_continuity(a)
    return a


def delta(p: ProbSpace) -> JointMeasure:
    """Diagonal measure; the identity morphism on (X, mu)."""
    n = p.size
    rows = [tuple([m if i == j else 0 for j in range(n)]) for i, m in enumerate(p.num)]
    # both marginals are p, and p's integers are canonical
    return _mk(p, p, tuple(rows), p.den)


def product_joint(p: ProbSpace, q: ProbSpace) -> JointMeasure:
    rows = tuple([tuple([x * y for y in q.num]) for x in p.num])
    # the marginals are p and q; canonical for the reason product_space is
    return _mk(p, q, rows, p.den * q.den)


def marginals(a: JointMeasure):
    mx = tuple([Fraction(sum(row), a.den) for row in a.num])
    my = tuple([Fraction(sum(col), a.den) for col in zip(*a.num)])
    return mx, my


def is_probability(a: JointMeasure) -> bool:
    return sum(map(sum, a.num)) == a.den


def compose(a: JointMeasure, b: JointMeasure) -> JointMeasure:
    """Diagrammatic composite: integrate the matched kernels over the middle.

    Cell (i, k) is the sum over middle points j of positive mass
    nu_j = N_j / d of a_ij b_jk / nu_j.  With s the lcm of those N_j,
    that is 1 / (a.den b.den s) times the integer sum of
    A_ij B_jk (s / N_j) d.
    """
    if a.target != b.source:
        raise ShapeMismatch("middle spaces differ")
    s, inv = _reciprocals(a.target.num)
    d = a.target.den
    cols = list(zip(*[[w * r * d for w in row] for row, r in zip(b.num, inv)]))
    rows = [tuple([sum(map(mul, row, col)) for col in cols]) for row in a.num]
    # a null source point has a zero row in a, a null target point a zero
    # column in b, so the composite's row and column there are zero too
    return _mk(a.source, b.target, *_reduce(rows, a.den * b.den * s))


def converse(a: JointMeasure) -> JointMeasure:
    # transposing swaps the two marginals and keeps the integers
    return _mk(a.target, a.source, tuple(zip(*a.num)), a.den)


def tensor_joint(a: JointMeasure, b: JointMeasure) -> JointMeasure:
    rows = [
        tuple([x * y for x in arow for y in brow]) for arow in a.num for brow in b.num
    ]
    # a product mass is 0 only where a factor mass is, and the factor's
    # row or column there is zero, so the product's is too
    return _mk(
        product_space(a.source, b.source),
        product_space(a.target, b.target),
        *_reduce(rows, a.den * b.den),
    )


def reindex(p: ProbSpace, q: ProbSpace, index_map: Sequence[int]) -> JointMeasure:
    """Mass-preserving relabeling as a diagonal-transport measure."""
    if len(index_map) != p.size or sorted(index_map) != list(range(q.size)):
        raise ShapeMismatch("index map is not a bijection")
    for i, j in enumerate(index_map):
        if p.num[i] * q.den != q.num[j] * p.den:
            raise InvariantViolation(
                "relabeling does not preserve mass",
                witness=(p.points.labels[i], q.points.labels[j]),
            )
    rows = [[0] * q.size for _ in range(p.size)]
    for i, j in enumerate(index_map):
        rows[i][j] = p.num[i]
    # mass is preserved (checked above), so the marginals are p and q
    return _mk(p, q, tuple(map(tuple, rows)), p.den)


@dataclass(frozen=True)
class StochKernel:
    """Row-stochastic rational matrix between two finite point sets."""

    source: FinSet
    target: FinSet
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.source.size:
            raise ShapeMismatch("one row per source point required")
        for row in self.rows:
            if len(row) != self.target.size:
                raise ShapeMismatch("row width mismatch")
            if any(w < 0 for w in row):
                raise InvariantViolation("negative kernel entry")
            if sum(row, start=ZERO) != ONE:
                raise InvariantViolation("kernel row does not sum to 1")


def _dirac_row(n: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == 0 else ZERO for j in range(n))


def _conditional(lines, width: int) -> tuple[tuple[Fraction, ...], ...]:
    """Each integer line divided by its sum, or a point mass where that is 0."""
    out = []
    for line in lines:
        m = sum(line)
        out.append(tuple(Fraction(n, m) for n in line) if m else _dirac_row(width))
    return tuple(out)


def disintegrate(a: JointMeasure):
    """Conditional kernels (Q1: X -> Y, Q2: Y -> X) of the joint measure.

    Zero-marginal rows default to a point mass at the first opposite
    point; that choice is the almost-everywhere freedom of conditioning.
    """
    return (
        StochKernel(
            a.source.points, a.target.points, _conditional(a.num, a.target.size)
        ),
        StochKernel(
            a.target.points, a.source.points, _conditional(zip(*a.num), a.source.size)
        ),
    )


def rn_derivative(a: JointMeasure) -> tuple[Fraction, ...]:
    """Density of the source marginal against the object measure."""
    d = a.source.den
    return tuple(
        Fraction(sum(row) * d, a.den * mu) if mu else ZERO
        for row, mu in zip(a.num, a.source.num)
    )


def associated_kernel(a: JointMeasure) -> tuple[tuple[Fraction, ...], ...]:
    """Sub-stochastic kernel F with F(x, y) mu(x) summing back to the weights."""
    d = a.source.den
    return tuple(
        tuple(Fraction(n * d, a.den * mu) if mu else ZERO for n in row)
        for row, mu in zip(a.num, a.source.num)
    )


def is_nuclear(a: JointMeasure) -> bool:
    """No weight on cells where the product measure vanishes.

    Marginal absolute continuity already forces this, so every morphism
    the factory admits is nuclear; the check stays independent so that
    raw, unvalidated data can be audited.
    """
    null_cols = [j for j, m in enumerate(a.target.num) if not m]
    for row, m in zip(a.num, a.source.num):
        if any(row if not m else [row[j] for j in null_cols]):
            return False
    return True


def density(a: JointMeasure) -> tuple[tuple[Fraction, ...], ...]:
    if not is_nuclear(a):
        raise InvariantViolation("density requested for a non-nuclear morphism")
    scale = a.source.den * a.target.den
    return tuple(
        tuple(
            Fraction(w * scale, a.den * mu * nu) if w else ZERO
            for w, nu in zip(row, a.target.num)
        )
        for row, mu in zip(a.num, a.source.num)
    )


def theta(a: JointMeasure) -> JointMeasure:
    """Re-type the weight matrix as a state on the product space."""
    if not is_nuclear(a):
        raise InvariantViolation("transpose requested for a non-nuclear morphism")
    # a nuclear measure weighs only cells of positive product mass
    return _mk(
        UNIT_SPACE,
        product_space(a.source, a.target),
        (tuple(chain.from_iterable(a.num)),),
        a.den,
    )


def theta_inv(m: JointMeasure, p: ProbSpace, q: ProbSpace) -> JointMeasure:
    if m.source != UNIT_SPACE or m.target != product_space(p, q):
        raise ShapeMismatch("state must run from the unit into the product space")
    flat = m.num[0]
    n = q.size
    # a valid state weighs only cells of positive product mass, whose two
    # points both have positive mass
    return _mk(p, q, tuple([flat[i * n : (i + 1) * n] for i in range(p.size)]), m.den)


def nuclear_compose_density(
    f: Sequence[Sequence[Fraction]],
    g: Sequence[Sequence[Fraction]],
    nu: Sequence[Fraction],
) -> tuple[tuple[Fraction, ...], ...]:
    """Integrate densities over the middle measure: d(x,z) = sum_y f g nu(y)."""
    if any(len(row) != len(nu) for row in f):
        raise ShapeMismatch("left density width differs from middle measure")
    if len(g) != len(nu):
        raise ShapeMismatch("right density height differs from middle measure")
    width = len(g[0]) if g else 0
    return tuple(
        tuple(
            sum((frow[y] * g[y][z] * nu[y] for y in range(len(nu))), start=ZERO)
            for z in range(width)
        )
        for frow in f
    )


def trace_nuclear(h: JointMeasure) -> Fraction:
    """Diagonal density integral of a nuclear endomorphism.

    That is the sum of w_ii / mu_i over the points of positive mass
    mu_i = N_i / d (a nuclear h has w_ii = 0 at the others): with s the
    lcm of those N_i, d / (h.den s) times the integer sum of W_ii s / N_i.
    """
    if h.source != h.target:
        raise ShapeMismatch("trace needs an endomorphism")
    if not is_nuclear(h):
        raise InvariantViolation("density requested for a non-nuclear morphism")
    s, inv = _reciprocals(h.source.num)
    acc = sum(h.num[i][i] * r for i, r in enumerate(inv))
    return Fraction(acc * h.source.den, h.den * s)


def iso_witnesses(p: ProbSpace, q: ProbSpace):
    """Mutual-absolute-continuity witnesses (H: p -> q, K: q -> p)."""
    if p.points != q.points:
        raise ShapeMismatch("witnesses need identical point sets")
    n = p.size
    h = joint(
        p, q, [[m if i == j else ZERO for j in range(n)] for i, m in enumerate(p.mass)]
    )
    k = joint(
        q, p, [[m if i == j else ZERO for j in range(n)] for i, m in enumerate(q.mass)]
    )
    return h, k


def iso_equivalent(p: ProbSpace, q: ProbSpace) -> bool:
    """Same null sets; verified by composing the explicit witnesses."""
    if p.points != q.points:
        raise ShapeMismatch("spaces live on different point sets")
    if any((a == 0) != (b == 0) for a, b in zip(p.num, q.num)):
        return False
    h, k = iso_witnesses(p, q)
    if compose(h, k) != delta(p) or compose(k, h) != delta(q):
        raise InvariantViolation("iso witnesses failed to compose to the diagonal")
    return True


# -- finitely supported Giry triple -----------------------------------------


@dataclass(frozen=True)
class FinDist:
    """Finitely-supported distribution; zero masses are dropped.

    Points may themselves be FinDists, which is how the twice-iterated
    space is represented.
    """

    pairs: tuple[tuple[object, Fraction], ...]

    def __post_init__(self):
        total = ZERO
        for _, m in self.pairs:
            if m <= 0:
                raise InvariantViolation("stored masses must be positive")
            total += m
        if total != ONE:
            raise InvariantViolation(f"total mass {total} != 1")
        object.__setattr__(
            self, "pairs", tuple(sorted(self.pairs, key=lambda kv: repr(kv[0])))
        )

    def mass_of(self, x) -> Fraction:
        for y, m in self.pairs:
            if y == x:
                return m
        return ZERO

    def support(self) -> tuple:
        return tuple(x for x, _ in self.pairs)

    def __repr__(self):
        body = ", ".join(f"{x!r}:{m}" for x, m in self.pairs)
        return f"FinDist({body})"


def fin_dist(mapping: dict) -> FinDist:
    return FinDist(tuple((x, Fraction(m)) for x, m in mapping.items() if m))


def giry_unit(x) -> FinDist:
    return FinDist(((x, ONE),))


def giry_map(f: Callable, p: FinDist) -> FinDist:
    out: dict = {}
    for x, m in p.pairs:
        y = f(x)
        out[y] = out.get(y, ZERO) + m
    return fin_dist(out)


def giry_mult(pp: FinDist) -> FinDist:
    """Flatten a distribution over distributions by mixing."""
    out: dict = {}
    for p, m in pp.pairs:
        if not isinstance(p, FinDist):
            raise ShapeMismatch("flattening needs a distribution over distributions")
        for x, mx in p.pairs:
            out[x] = out.get(x, ZERO) + m * mx
    return fin_dist(out)


# -- serialization ----------------------------------------------------------


def _frac_to_json(m: Fraction) -> str:
    return str(m)


def _frac_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise ParseError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {v!r}") from exc
    raise ParseError(f"not a rational: {v!r}")


def space_to_json(p: ProbSpace) -> dict:
    return {
        "points": finset_to_json(p.points),
        "mass": {
            label_key(lbl): _frac_to_json(m)
            for lbl, m in zip(p.points.labels, p.mass)
        },
    }


def space_from_json(data) -> ProbSpace:
    if not isinstance(data, dict) or "points" not in data or "mass" not in data:
        raise ParseError("space document needs points and mass")
    points = finset_from_json(data["points"])
    mass_map = data["mass"]
    if not isinstance(mass_map, dict):
        raise ParseError("mass must be an object")
    masses = []
    for lbl in points.labels:
        key = label_key(lbl)
        if key not in mass_map:
            raise ParseError(f"missing mass for point {key!r}")
        masses.append(_frac_from_json(mass_map[key]))
    try:
        return ProbSpace(points, tuple(masses))
    except (InvariantViolation, ShapeMismatch) as exc:
        raise ParseError(f"invalid space: {exc}") from exc


def to_json(a: JointMeasure) -> dict:
    return {
        "source": space_to_json(a.source),
        "target": space_to_json(a.target),
        "weight": [[_frac_to_json(w) for w in row] for row in a.weight],
    }


def from_json(data) -> JointMeasure:
    """Parse a joint measure, checking absolute continuity."""
    if not isinstance(data, dict):
        raise ParseError("morphism document must be an object")
    for key in ("source", "target", "weight"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
    src = space_from_json(data["source"])
    tgt = space_from_json(data["target"])
    rows = data["weight"]
    if not isinstance(rows, list):
        raise ParseError("weight must be a list of rows")
    try:
        weight = tuple(
            tuple(_frac_from_json(w) for w in row) for row in rows
        )
        a = JointMeasure(src, tgt, weight)
        check_abs_continuity(a)
        return a
    except (InvariantViolation, ShapeMismatch) as exc:
        raise ParseError(f"invalid joint measure: {exc}") from exc


# -- sampling ---------------------------------------------------------------

#: the most points of a sampled space
MAX_POINTS = 3


def sample_space(rng: Lcg, max_points: int = MAX_POINTS) -> ProbSpace:
    """Up to `max_points` points with integer weights 0..3, normalized."""
    n = 1 + rng.below(max_points)
    weights = [rng.below(4) for _ in range(n)]
    if not any(weights):
        weights[rng.below(n)] = 1
    if min(weights) < 0:
        raise InvariantViolation(f"negative weight in {weights!r}")
    # the weights sum to the total, so their gcd is the gcd with it too
    g = gcd(*weights)
    return _mk_space(fin_set(n), tuple([w // g for w in weights]), sum(weights) // g)


def sample_joint(rng: Lcg, p: ProbSpace, q: ProbSpace) -> JointMeasure:
    """Weight a / d, with a in 0..3 and d in 1..3, on each cell of positive
    product mass that a draw of 1 or 2 in 0..2 selects, and 0 elsewhere."""
    rows = []
    for mp in p.num:
        row = []
        for mq in q.num:
            if mp == 0 or mq == 0 or rng.below(3) == 0:
                row.append(0)
                continue
            a, d = rng.below(4), 1 + rng.below(3)
            if a < 0 or not 1 <= d <= 3:
                raise InvariantViolation(
                    f"weight {a}/{d} is not a nonnegative rational over 1..3"
                )
            row.append(a * (6 // d))  # over 6, which every d divides
        rows.append(tuple(row))
    out = _mk(p, q, *_reduce(rows, 6))
    check_abs_continuity(out)
    return out


# -- instance adapters ------------------------------------------------------


class StochInstance(CategoryInstance):
    """Finite rational joint-measure category with exact scalars."""

    name = "finstoch"
    scalar_kind = scalars.RATIONAL
    max_points = MAX_POINTS

    def compose(self, g, f):
        return compose(f, g)

    def identity(self, a):
        return delta(a)

    def star(self, f):
        return converse(f)

    def tensor(self, f, g):
        return tensor_joint(f, g)

    def tensor_obj(self, a, b):
        return product_space(a, b)

    def unit(self):
        return UNIT_SPACE

    def reindex(self, a, b, index_map):
        return reindex(a, b, index_map)

    def scalar_of(self, s):
        if s.source != UNIT_SPACE or s.target != UNIT_SPACE:
            raise ShapeMismatch("scalars live on the unit space")
        return Fraction(s.num[0][0], s.den)

    def mor_eq(self, f, g):
        # canonical form: equal measures have equal integers
        return f == g

    def obj_size(self, a):
        return a.size

    def sample_object(self, rng):
        return sample_space(rng, self.max_points)

    def sample_hom(self, rng, a, b):
        return sample_joint(rng, a, b)


class StochNuclear(NuclearStructure):
    def is_nuclear(self, f):
        return is_nuclear(f)

    def theta(self, f):
        return theta(f)

    def theta_inv(self, m, a, b):
        return theta_inv(m, a, b)

    def factorize(self, h):
        return FactorizationResult(
            True, left=delta(h.source), right=h, middle=h.source
        )


class StochTrace(TraceStructure):
    def trace(self, h):
        return trace_nuclear(h)

    def sample_equal_factorizations(self, rng):
        inst = self.inst
        a = inst.sample_object(rng)
        mid = inst.sample_object(rng)
        f = sample_joint(rng, a, mid)
        g = sample_joint(rng, mid, a)
        # pad the middle with a null point and rescale; the composite is unchanged
        padded = ProbSpace(
            FinSet(mid.points.labels + ("pad",)), mid.mass + (ZERO,)
        )
        c = Fraction(1 + rng.below(3), 1 + rng.below(2))
        f2 = joint(a, padded, [[c * w for w in row] + [ZERO] for row in f.weight])
        g2 = joint(
            padded,
            a,
            [[w / c for w in row] for row in g.weight] + [[ZERO] * a.size],
        )
        return (f, g), (f2, g2)


def instance() -> StochInstance:
    return StochInstance()


def structures():
    inst = instance()
    nuc = StochNuclear(inst)
    return inst, nuc, StochTrace(inst, nuc)


# -- probability monad laws -------------------------------------------------


def _all_dists(points: Sequence, denom: int = 12) -> list[FinDist]:
    """Every distribution on the given points with masses in units of 1/denom."""
    out = []

    def split(i, left, acc):
        if i == len(points) - 1:
            masses = acc + [left]
            out.append(
                FinDist(
                    tuple(
                        (x, Fraction(k, denom))
                        for x, k in zip(points, masses)
                        if k
                    )
                )
            )
            return
        for k in range(left + 1):
            split(i + 1, left - k, acc + [k])

    if points:
        split(0, denom, [])
    return out


def check_giry_laws(budget: int = 200, seed: int = 1) -> AxiomReport:
    """Unit, flattening, functoriality, and naturality of the
    finite-distribution monad, exhaustive on three points."""
    run = _Runner("giry-laws[finstoch]", budget, seed)
    points = ("a", "b", "c")
    dists = _all_dists(points, 12)
    run.report.flags.append(f"exhaustive:unit-laws ({len(dists)} distributions)")

    def left_unit(p):
        if giry_mult(giry_unit(p)) != p:
            return f"flatten(unit({p!r})) differs"

    def right_unit(p):
        if giry_mult(giry_map(giry_unit, p)) != p:
            return f"flatten(map unit)({p!r}) differs"

    run.each("left-unit", zip(dists), left_unit)
    run.each("right-unit", zip(dists), right_unit)

    funcs = [
        dict(zip(points, (a, b, c))) for a in points for b in points for c in points
    ]

    def pushforward(p, fd):
        direct = fin_dist(
            {y: sum((m for x, m in p.pairs if fd[x] == y), start=ZERO) for y in points}
        )
        if giry_map(fd.__getitem__, p) != direct:
            return f"pushforward along {fd} differs on {p!r}"

    def identity_map(p):
        if giry_map(lambda x: x, p) != p:
            return f"identity pushforward moved {p!r}"

    spread = dists[:: max(1, len(dists) // 40)]
    run.each("pushforward", ((p, fd) for p in spread for fd in funcs), pushforward)
    run.each("identity-map", zip(spread), identity_map)

    rng = run.rng
    drawn = []  # all drawn first, in the order the three laws used to draw them
    for _ in range(budget):
        pp = FinDist(tuple((rng.choice(dists), Fraction(1, 4)) for _ in range(4)))
        inner = [
            FinDist(tuple((rng.choice(dists), Fraction(1, 2)) for _ in range(2)))
            for _ in range(2)
        ]
        ppp = FinDist(((inner[0], Fraction(1, 3)), (inner[1], Fraction(2, 3))))
        fd = {p: rng.choice(points) for p in points}
        drawn.append((pp, ppp, fd.__getitem__, rng.choice(points)))

    def associativity(ppp):
        if giry_mult(giry_mult(ppp)) != giry_mult(giry_map(giry_mult, ppp)):
            return "flattening is not associative"

    def mult_natural(pp, f):
        lhs = giry_map(f, giry_mult(pp))
        rhs = giry_mult(giry_map(lambda q: giry_map(f, q), pp))
        if lhs != rhs:
            return "flattening is not natural"

    def unit_natural(f, x):
        if giry_map(f, giry_unit(x)) != giry_unit(f(x)):
            return "unit is not natural"

    run.each("associativity", ((ppp,) for _, ppp, _, _ in drawn), associativity)
    run.each("mult-natural", ((pp, f) for pp, _, f, _ in drawn), mult_natural)
    run.each("unit-natural", ((f, x) for _, _, f, x in drawn), unit_natural)
    return run.finish()


def mass_loss_report(f: JointMeasure, g: JointMeasure) -> AxiomReport:
    """Record a composition that loses total mass.

    Composition conditions on the middle marginal, so weight of one
    factor resting where the other carries none is simply dropped; both
    factors can be perfectly valid probability measures.  The loss is
    the expected behavior of measure-valued morphisms and is reported as
    a documented finding, not a failure.
    """
    run = _Runner("stoch-mass-loss")
    totals = []

    def loses_mass(f, g):
        total, in_total = compose(f, g).total(), min(f.total(), g.total())
        if total >= in_total:
            return (
                f"fixture composite kept its mass (total {total}); "
                "expected a loss through the unshared middle support"
            )
        totals.append(f"{total}/{in_total}")

    run.each("composite", [(f, g)], lambda f, g: check_abs_continuity(compose(f, g)))
    run.each("mass-loss", [(f, g)], loses_mass)
    if run.report.ok:  # the loss, and nothing else
        run.report.flags.append("documented-finding:mass-loss-through-null-set")
        run.report.flags.append(f"composite-total:{totals[0]}")
    return run.finish()


def kernel_to_json(k: StochKernel) -> dict:
    return {
        "source": finset_to_json(k.source),
        "target": finset_to_json(k.target),
        "rows": [[_frac_to_json(w) for w in row] for row in k.rows],
    }


def kernel_from_json(data) -> StochKernel:
    if not isinstance(data, dict) or not {"source", "target", "rows"} <= set(data):
        raise ParseError("kernel document needs source, target, rows")
    try:
        return StochKernel(
            finset_from_json(data["source"]),
            finset_from_json(data["target"]),
            tuple(
                tuple(_frac_from_json(w) for w in row) for row in data["rows"]
            ),
        )
    except (InvariantViolation, ShapeMismatch) as exc:
        raise ParseError(f"invalid kernel: {exc}") from exc
