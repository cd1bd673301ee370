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
and `is_probability` keeps the distinction observable.  All arithmetic
is exact `fractions.Fraction`; every law here is an identity, not an
approximation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from nucleal.core import scalars
from nucleal.core.errors import InvariantViolation, ParseError, ShapeMismatch
from nucleal.core.instance import (
    CategoryInstance,
    FactorizationResult,
    NuclearStructure,
    TraceStructure,
)
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


@dataclass(frozen=True)
class ProbSpace:
    """Finite probability space; mass aligned with the label order."""

    points: FinSet
    mass: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.mass) != self.points.size:
            raise ShapeMismatch("one mass per point required")
        total = ZERO
        for m in self.mass:
            if not isinstance(m, Fraction) or m < 0:
                raise InvariantViolation(f"mass {m!r} is not a nonnegative rational")
            total += m
        if total != ONE:
            raise InvariantViolation(f"total mass {total} != 1")

    @property
    def size(self) -> int:
        return self.points.size

    def __repr__(self):
        body = ", ".join(
            f"{lbl!r}:{m}" for lbl, m in zip(self.points.labels, self.mass)
        )
        return f"ProbSpace({body})"


def prob_space(labels: Sequence, masses: Sequence[Fraction]) -> ProbSpace:
    return ProbSpace(FinSet(tuple(labels)), tuple(Fraction(m) for m in masses))


def uniform_space(labels: Sequence) -> ProbSpace:
    n = len(labels)
    return prob_space(labels, [Fraction(1, n)] * n)


UNIT_SPACE = ProbSpace(UNIT, (ONE,))


def product_space(p: ProbSpace, q: ProbSpace) -> ProbSpace:
    return ProbSpace(
        product(p.points, q.points),
        tuple(mp * mq for mp in p.mass for mq in q.mass),
    )


@dataclass(frozen=True)
class JointMeasure:
    """Nonnegative rational measure on the product of two spaces.

    The dataclass checks shape and nonnegativity only; the `joint`
    factory additionally enforces marginal absolute continuity, and all
    module operations construct through it.
    """

    source: ProbSpace
    target: ProbSpace
    weight: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.weight) != self.source.size:
            raise ShapeMismatch("one weight row per source point required")
        for row in self.weight:
            if len(row) != self.target.size:
                raise ShapeMismatch("one weight column per target point required")
            for w in row:
                if not isinstance(w, Fraction) or w < 0:
                    raise InvariantViolation(
                        f"weight {w!r} is not a nonnegative rational"
                    )

    def total(self) -> Fraction:
        return sum((w for row in self.weight for w in row), start=ZERO)

    def __repr__(self):
        cells = {
            (self.source.points.labels[i], self.target.points.labels[j]): w
            for i, row in enumerate(self.weight)
            for j, w in enumerate(row)
            if w
        }
        return f"JointMeasure({cells})"


def check_abs_continuity(a: JointMeasure) -> None:
    mx, my = marginals(a)
    for i, m in enumerate(mx):
        if a.source.mass[i] == 0 and m != 0:
            raise InvariantViolation(
                "source marginal not absolutely continuous",
                witness=a.source.points.labels[i],
            )
    for j, m in enumerate(my):
        if a.target.mass[j] == 0 and m != 0:
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
    return joint(
        p,
        p,
        [[p.mass[i] if i == j else ZERO for j in range(n)] for i in range(n)],
    )


def product_joint(p: ProbSpace, q: ProbSpace) -> JointMeasure:
    return joint(p, q, [[mp * mq for mq in q.mass] for mp in p.mass])


def marginals(a: JointMeasure):
    mx = tuple(sum(row, start=ZERO) for row in a.weight)
    my = tuple(
        sum((row[j] for row in a.weight), start=ZERO) for j in range(a.target.size)
    )
    return mx, my


def is_probability(a: JointMeasure) -> bool:
    return a.total() == ONE


def is_coupling(a: JointMeasure) -> bool:
    """Marginals agree exactly with the object measures."""
    mx, my = marginals(a)
    return mx == a.source.mass and my == a.target.mass


def compose(a: JointMeasure, b: JointMeasure) -> JointMeasure:
    """Diagrammatic composite: integrate the matched kernels over the middle."""
    if a.target != b.source:
        raise ShapeMismatch("middle spaces differ")
    nu = a.target.mass
    rows = []
    for i in range(a.source.size):
        row = []
        for k in range(b.target.size):
            acc = ZERO
            for j, m in enumerate(nu):
                if m:
                    acc += a.weight[i][j] * b.weight[j][k] / m
            row.append(acc)
        rows.append(row)
    return joint(a.source, b.target, rows)


def converse(a: JointMeasure) -> JointMeasure:
    return joint(
        a.target,
        a.source,
        [[a.weight[i][j] for i in range(a.source.size)] for j in range(a.target.size)],
    )


def tensor_joint(a: JointMeasure, b: JointMeasure) -> JointMeasure:
    src = product_space(a.source, b.source)
    tgt = product_space(a.target, b.target)
    rows = []
    for i1 in range(a.source.size):
        for i2 in range(b.source.size):
            row = []
            for j1 in range(a.target.size):
                for j2 in range(b.target.size):
                    row.append(a.weight[i1][j1] * b.weight[i2][j2])
            rows.append(row)
    return joint(src, tgt, rows)


def reindex(p: ProbSpace, q: ProbSpace, index_map: Sequence[int]) -> JointMeasure:
    """Mass-preserving relabeling as a diagonal-transport measure."""
    if len(index_map) != p.size or sorted(index_map) != list(range(q.size)):
        raise ShapeMismatch("index map is not a bijection")
    for i, j in enumerate(index_map):
        if p.mass[i] != q.mass[j]:
            raise InvariantViolation(
                "relabeling does not preserve mass",
                witness=(p.points.labels[i], q.points.labels[j]),
            )
    rows = [[ZERO] * q.size for _ in range(p.size)]
    for i, j in enumerate(index_map):
        rows[i][j] = p.mass[i]
    return joint(p, q, rows)


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


def _dirac_row(n: int, at: int = 0) -> tuple[Fraction, ...]:
    return tuple(ONE if j == at else ZERO for j in range(n))


def disintegrate(a: JointMeasure):
    """Conditional kernels (Q1: X -> Y, Q2: Y -> X) of the joint measure.

    Zero-marginal rows default to a point mass at the first opposite
    point; that choice is the almost-everywhere freedom of conditioning.
    """
    mx, my = marginals(a)
    q1_rows = []
    for i, m in enumerate(mx):
        if m:
            q1_rows.append(tuple(w / m for w in a.weight[i]))
        else:
            q1_rows.append(_dirac_row(a.target.size))
    q2_rows = []
    for j, m in enumerate(my):
        if m:
            q2_rows.append(tuple(a.weight[i][j] / m for i in range(a.source.size)))
        else:
            q2_rows.append(_dirac_row(a.source.size))
    return (
        StochKernel(a.source.points, a.target.points, tuple(q1_rows)),
        StochKernel(a.target.points, a.source.points, tuple(q2_rows)),
    )


def rn_derivative(a: JointMeasure) -> tuple[Fraction, ...]:
    """Density of the source marginal against the object measure."""
    mx, _ = marginals(a)
    return tuple(
        m / mu if mu else ZERO for m, mu in zip(mx, a.source.mass)
    )


def associated_kernel(a: JointMeasure) -> tuple[tuple[Fraction, ...], ...]:
    """Sub-stochastic kernel F with F(x, y) mu(x) summing back to the weights."""
    return tuple(
        tuple(w / mu for w in row) if mu else tuple(ZERO for _ in row)
        for row, mu in zip(a.weight, a.source.mass)
    )


def is_nuclear(a: JointMeasure) -> bool:
    """No weight on cells where the product measure vanishes.

    Marginal absolute continuity already forces this, so every morphism
    the factory admits is nuclear; the check stays independent so that
    raw, unvalidated data can be audited.
    """
    for i, row in enumerate(a.weight):
        for j, w in enumerate(row):
            if w and (a.source.mass[i] == 0 or a.target.mass[j] == 0):
                return False
    return True


def density(a: JointMeasure) -> tuple[tuple[Fraction, ...], ...]:
    if not is_nuclear(a):
        raise InvariantViolation("density requested for a non-nuclear morphism")
    return tuple(
        tuple(
            w / (mu * nu) if w else ZERO
            for w, nu in zip(row, a.target.mass)
        )
        for row, mu in zip(a.weight, a.source.mass)
    )


def theta(a: JointMeasure) -> JointMeasure:
    """Re-type the weight matrix as a state on the product space."""
    if not is_nuclear(a):
        raise InvariantViolation("transpose requested for a non-nuclear morphism")
    flat = [w for row in a.weight for w in row]
    return joint(UNIT_SPACE, product_space(a.source, a.target), [flat])


def theta_inv(m: JointMeasure, p: ProbSpace, q: ProbSpace) -> JointMeasure:
    if m.source != UNIT_SPACE or m.target != product_space(p, q):
        raise ShapeMismatch("state must run from the unit into the product space")
    flat = m.weight[0]
    n = q.size
    return joint(
        p, q, [flat[i * n : (i + 1) * n] for i in range(p.size)]
    )


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
    """Diagonal density integral of a nuclear endomorphism."""
    if h.source != h.target:
        raise ShapeMismatch("trace needs an endomorphism")
    d = density(h)
    return sum(
        (d[i][i] * h.source.mass[i] for i in range(h.source.size)), start=ZERO
    )


def iso_witnesses(p: ProbSpace, q: ProbSpace):
    """Mutual-absolute-continuity witnesses (H: p -> q, K: q -> p)."""
    if p.points != q.points:
        raise ShapeMismatch("witnesses need identical point sets")
    n = p.size
    h = joint(
        p, q, [[p.mass[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    )
    k = joint(
        q, p, [[q.mass[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    )
    return h, k


def iso_equivalent(p: ProbSpace, q: ProbSpace) -> bool:
    """Same null sets; verified by composing the explicit witnesses."""
    if p.points != q.points:
        raise ShapeMismatch("spaces live on different point sets")
    if any((a == 0) != (b == 0) for a, b in zip(p.mass, q.mass)):
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


FinDist2 = FinDist


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


def from_json(data, validate: bool = True) -> JointMeasure:
    """Parse a joint measure; `validate=False` skips the absolute
    continuity check so deliberately leaky fixtures can load."""
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
        if validate:
            check_abs_continuity(a)
        return a
    except (InvariantViolation, ShapeMismatch) as exc:
        raise ParseError(f"invalid joint measure: {exc}") from exc


# -- sampling ---------------------------------------------------------------


def sample_space(rng: Lcg, max_points: int = 3) -> ProbSpace:
    n = 1 + rng.below(max_points)
    weights = [Fraction(rng.below(4)) for _ in range(n)]
    if all(w == 0 for w in weights):
        weights[rng.below(n)] = ONE
    total = sum(weights, start=ZERO)
    return prob_space(list(range(n)), [w / total for w in weights])


def sample_joint(rng: Lcg, p: ProbSpace, q: ProbSpace) -> JointMeasure:
    rows = []
    for i in range(p.size):
        row = []
        for j in range(q.size):
            if p.mass[i] == 0 or q.mass[j] == 0 or rng.below(3) == 0:
                row.append(ZERO)
            else:
                row.append(rng.fraction(3, 3))
        rows.append(row)
    return joint(p, q, rows)


# -- instance adapters ------------------------------------------------------


class StochInstance(CategoryInstance):
    """Finite rational joint-measure category with exact scalars."""

    name = "finstoch"
    scalar_kind = scalars.RATIONAL

    def __init__(self, max_points: int = 3):
        self.max_points = max_points

    def source(self, f):
        return f.source

    def target(self, f):
        return f.target

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
        return s.weight[0][0]

    def mor_eq(self, f, g, tol=None):
        return f.source == g.source and f.target == g.target and f.weight == g.weight

    def obj_size(self, a):
        return a.size

    def describe(self, f):
        return repr(f)

    def describe_obj(self, a):
        return repr(a)

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

    def sample_nuclear(self, rng, a, b):
        return sample_joint(rng, a, b)

    def sample_state(self, rng, a, b):
        return sample_joint(rng, UNIT_SPACE, product_space(a, b))

    def factorize(self, h, bound):
        return FactorizationResult(
            True, left=delta(h.source), right=h, middle=h.source
        )


class StochTrace(TraceStructure):
    def in_trace_class(self, h):
        return h.source == h.target and is_nuclear(h)

    def trace(self, h):
        return trace_nuclear(h)

    def sample_member(self, rng, a):
        return sample_joint(rng, a, a)

    def sample_dinat_pair(self, rng, a, b):
        return sample_joint(rng, a, b), sample_joint(rng, b, a)

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


def instance(max_points: int = 3) -> StochInstance:
    return StochInstance(max_points)


def structures(max_points: int = 3):
    inst = instance(max_points)
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


def check_giry_laws(budget: int = 200, seed: int = 1) -> "AxiomReport":
    """Unit, flattening, functoriality, and naturality of the
    finite-distribution monad, exhaustive on three points."""
    from nucleal.core.report import AxiomReport

    t0 = time.perf_counter()
    rep = AxiomReport("giry-laws[finstoch]", 0)
    points = ("a", "b", "c")
    dists = _all_dists(points, 12)
    rep.flags.append(f"exhaustive:unit-laws ({len(dists)} distributions)")

    for p in dists:
        rep.cases += 1
        if giry_mult(giry_unit(p)) != p:
            rep.add_failure(f"flatten(unit({p!r})) differs")
        rep.cases += 1
        if giry_mult(giry_map(giry_unit, p)) != p:
            rep.add_failure(f"flatten(map unit)({p!r}) differs")

    funcs = [
        dict(zip(points, img))
        for img in (
            (a, b, c) for a in points for b in points for c in points
        )
    ]
    for p in dists[:: max(1, len(dists) // 40)]:
        for fd in funcs:
            f = fd.__getitem__
            rep.cases += 1
            if giry_map(f, p) != fin_dist(
                {  # direct pushforward
                    y: sum(
                        (m for x, m in p.pairs if fd[x] == y), start=ZERO
                    )
                    for y in points
                }
            ):
                rep.add_failure(f"pushforward along {fd} differs on {p!r}")
        rep.cases += 1
        if giry_map(lambda x: x, p) != p:
            rep.add_failure(f"identity pushforward moved {p!r}")

    rng = Lcg(seed)
    for _ in range(budget):
        pp = FinDist(
            tuple(
                (rng.choice(dists), Fraction(1, 4))
                for _ in range(4)
            )
        )
        ppp_support = [
            FinDist(tuple((rng.choice(dists), Fraction(1, 2)) for _ in range(2)))
            for _ in range(2)
        ]
        ppp = FinDist(
            ((ppp_support[0], Fraction(1, 3)), (ppp_support[1], Fraction(2, 3)))
        )
        rep.cases += 1
        if giry_mult(giry_mult(ppp)) != giry_mult(giry_map(giry_mult, ppp)):
            rep.add_failure("flattening is not associative")
        fd = {p: rng.choice(points) for p in points}
        f = fd.__getitem__
        rep.cases += 1
        lhs = giry_map(f, giry_mult(pp))
        rhs = giry_mult(giry_map(lambda q: giry_map(f, q), pp))
        if lhs != rhs:
            rep.add_failure("flattening is not natural")
        x = rng.choice(points)
        rep.cases += 1
        if giry_map(f, giry_unit(x)) != giry_unit(f(x)):
            rep.add_failure("unit is not natural")
    rep.elapsed = time.perf_counter() - t0
    return rep


def mass_loss_report(f: JointMeasure, g: JointMeasure) -> "AxiomReport":
    """Record a composition that loses total mass.

    Composition conditions on the middle marginal, so weight of one
    factor resting where the other carries none is simply dropped; both
    factors can be perfectly valid probability measures.  The loss is
    the expected behavior of measure-valued morphisms and is reported as
    a documented finding, not a failure.
    """
    from nucleal.core.report import AxiomReport

    t0 = time.perf_counter()
    rep = AxiomReport("stoch-mass-loss", 0)
    rep.cases += 1
    comp = compose(f, g)
    check_abs_continuity(comp)
    total = comp.total()
    in_total = min(f.total(), g.total())
    rep.cases += 1
    if total >= in_total:
        rep.add_failure(
            f"fixture composite kept its mass (total {total}); "
            "expected a loss through the unshared middle support"
        )
    else:
        rep.flags.append("documented-finding:mass-loss-through-null-set")
        rep.flags.append(f"composite-total:{total}/{in_total}")
    rep.elapsed = time.perf_counter() - t0
    return rep


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
