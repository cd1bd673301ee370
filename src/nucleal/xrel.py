"""Equivariant relations between degree-graded sets over a commutative monoid.

An object carries a monoid action and an action-invariant degree map
into the monoid; a morphism is a relation closed under the diagonal
action that only relates points of equal degree.  The distinguished
ideal keeps the relations whose degrees square to the monoid identity.

The transpose into states on the product is always injective, but its
surjectivity depends on the monoid: a state may pair degrees whose
product is trivial while neither square is.  `theta_bijectivity_report`
audits exactly that, and over the four-element cyclic monoid it
reproduces the expected degree-(1,3) counterexample as a documented
finding rather than an error.

A morphism is a `nucleal.finrel.Relation` between crossed sets whose
rows relate only points of equal degree and are closed under the
action.  The relation kernel of `finrel` does all the algebra:
`compose`, `converse`, the rows of `tensor` and `theta`, `theta_inv`
and the trace are finrel's, guarded here by the membership predicate
`is_nuclear`.  This module builds only the crossed-set endpoints
(`unit_object`, `tensor_object`).

Boundary contract: the `CrossedMSet` and `XRelMorphism` constructors,
`trivial_object`, `from_pairs` and the JSON readers check every
invariant.  Operations whose results are valid by theorem build
through the trusted `_mk_obj` and finrel's `_mk`, which check nothing:
the unit and tensor objects, `compose`, `converse`, `tensor`,
`identity`, `domain_identity` (the points a closed relation relates
are action-closed), `theta` (the degrees of a nuclear relation square
to the identity), `enum_morphisms`, the instance's sampled objects and
the sampled morphisms (the orbits of degree-matching pairs: closed
because the action is a monoid action, degree-matching because degrees
are action-invariant, and both hold of every `CrossedMSet`).
`theta_inv` and the instance's `reindex` are not valid by theorem (a
state may pair degrees whose squares are not trivial, and an arbitrary
bijection need not be equivariant), and `empty` may be handed objects
over different monoids, so these keep validating.  The braiding
`symmetry` is valid by theorem: the monoid is commutative and acts
componentwise, so swapping the factors is equivariant and keeps degrees.
`.pairs` is a read-only view of the rows as a frozenset of index pairs.

Interning, as in `finrel`: `cyclic_monoid(n)` returns one interned
monoid per n.  Over an interned monoid, `unit_object` and the
instance's sampled objects are interned: one object per (monoid,
carrier, action, degree).  `tensor_object` of two interned objects
returns one interned object, memoized on the identity of the pair.
Interned objects live for the whole process, so their ids stay unique,
and the tables stay bounded because the monoids are.  Objects from the
`CrossedMSet` constructor, `trivial_object` or JSON, and objects over
any other monoid, are not interned, and `tensor_object` of such an
object builds a new object.  Crossed sets compare by identity first
and by their fields after, so an interned object and a validated one
with the same fields are equal and hash alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from nucleal.core import scalars
from nucleal.core.errors import (
    InvariantViolation,
    ParseError,
    ShapeMismatch,
    TraceClassError,
)
from nucleal.core.harness import _Runner
from nucleal.core.instance import (
    CategoryInstance,
    FactorizationResult,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.report import AxiomReport
from nucleal import finrel
from nucleal.finrel import (
    UNIT,
    FinSet,
    Relation,
    _mk,
    compose,
    converse,
    fin_set,
    finset_from_json,
    finset_to_json,
    index_pairs,
    label_key,
    product,
)


@dataclass(frozen=True)
class CommMonoid:
    """Commutative monoid given by an explicit multiplication table."""

    elements: FinSet
    table: tuple[tuple[int, ...], ...]
    e: int

    def __post_init__(self):
        n = self.elements.size
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ShapeMismatch("multiplication table must be square")
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise InvariantViolation(f"table entry {v} out of range")
        if not 0 <= self.e < n:
            raise InvariantViolation("identity element out of range")
        for i in range(n):
            if self.table[self.e][i] != i or self.table[i][self.e] != i:
                raise InvariantViolation("identity element is not neutral")
            for j in range(n):
                if self.table[i][j] != self.table[j][i]:
                    raise InvariantViolation("table is not commutative")
                for k in range(n):
                    if (
                        self.table[self.table[i][j]][k]
                        != self.table[i][self.table[j][k]]
                    ):
                        raise InvariantViolation("table is not associative")

    @property
    def size(self) -> int:
        return self.elements.size

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def square_trivial(self, i: int) -> bool:
        return self.mul(i, i) == self.e

    def __repr__(self):
        return f"CommMonoid({list(self.elements.labels)})"


# The intern tables: the interned monoid of each order n; every interned
# crossed set by id, which keeps it alive; and the interned crossed sets
# by shape, keyed by (id(monoid), id(carrier), action, degree) for the
# unit and sampled objects and by the ids (id(x), id(y)) for the tensor
# of interned x and y.
_MONOIDS: dict[int, CommMonoid] = {}
_INTERNED: dict[int, "CrossedMSet"] = {}
_SHAPES: dict = {}


def cyclic_monoid(n: int) -> CommMonoid:
    """Additive integers mod n; the generator is the element 1.  Interned."""
    mon = _MONOIDS.get(n)
    if mon is None:
        mon = _MONOIDS[n] = CommMonoid(
            fin_set(n),
            tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
            0,
        )
    return mon


@dataclass(frozen=True, eq=False)
class CrossedMSet:
    """Carrier with a degree-preserving monoid action.

    action[m][x] is the image of point x under element m; degree[x] is
    a monoid element index.  Equal when identical or when all four
    fields are equal.
    """

    monoid: CommMonoid
    carrier: FinSet
    action: tuple[tuple[int, ...], ...]
    degree: tuple[int, ...]

    def __post_init__(self):
        nm, nx = self.monoid.size, self.carrier.size
        if len(self.action) != nm or any(len(row) != nx for row in self.action):
            raise ShapeMismatch("action table shape mismatch")
        if len(self.degree) != nx:
            raise ShapeMismatch("one degree per carrier point required")
        for x in range(nx):
            if self.action[self.monoid.e][x] != x:
                raise InvariantViolation("monoid identity must act trivially")
            if not 0 <= self.degree[x] < nm:
                raise InvariantViolation("degree out of range")
        for m in range(nm):
            for m2 in range(nm):
                mm = self.monoid.mul(m, m2)
                for x in range(nx):
                    if self.action[m][self.action[m2][x]] != self.action[mm][x]:
                        raise InvariantViolation("action is not compatible")
        for m in range(nm):
            for x in range(nx):
                if self.degree[self.action[m][x]] != self.degree[x]:
                    raise InvariantViolation("degree is not action-invariant")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, CrossedMSet):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.action == other.action
            and self.degree == other.degree
            and self.monoid == other.monoid
        )

    def __hash__(self):
        return hash((self.carrier, self.action, self.degree))

    @property
    def size(self) -> int:
        return self.carrier.size

    def act(self, m: int, x: int) -> int:
        return self.action[m][x]

    def __repr__(self):
        degs = [self.monoid.elements.labels[d] for d in self.degree]
        return f"CrossedMSet({list(self.carrier.labels)}, deg={degs})"


def trivial_object(monoid: CommMonoid, labels: Sequence, degrees=None) -> CrossedMSet:
    """Carrier with the trivial action; any degree assignment is legal."""
    x = FinSet(tuple(labels))
    if degrees is None:
        degrees = tuple(monoid.e for _ in labels)
    return CrossedMSet(
        monoid,
        x,
        tuple(tuple(range(x.size)) for _ in range(monoid.size)),
        tuple(degrees),
    )


def _mk_obj(
    monoid: CommMonoid, carrier: FinSet, action: tuple, degree: tuple
) -> CrossedMSet:
    """Trusted builder: the arguments must satisfy `CrossedMSet`'s checks."""
    x = object.__new__(CrossedMSet)
    x.__dict__.update(monoid=monoid, carrier=carrier, action=action, degree=degree)
    return x


def _intern(key, x: CrossedMSet) -> CrossedMSet:
    _SHAPES[key] = x
    _INTERNED[id(x)] = x
    return x


def _shaped_obj(
    monoid: CommMonoid, carrier: FinSet, action: tuple, degree: tuple
) -> CrossedMSet:
    """Trusted builder of the crossed set with these fields, which must
    satisfy `CrossedMSet`'s checks, on an interned `carrier`; interned
    when `monoid` is a `cyclic_monoid`."""
    key = (id(monoid), id(carrier), action, degree)
    x = _SHAPES.get(key)
    if x is None:
        x = _mk_obj(monoid, carrier, action, degree)
        if _MONOIDS.get(monoid.size) is monoid:
            _intern(key, x)
    return x


def unit_object(monoid: CommMonoid) -> CrossedMSet:
    return _shaped_obj(monoid, UNIT, ((0,),) * monoid.size, (monoid.e,))


def tensor_object(x: CrossedMSet, y: CrossedMSet) -> CrossedMSet:
    """Componentwise action and multiplied degrees on the product carrier;
    interned, and memoized on the pair, when x and y are interned."""
    key = (id(x), id(y))
    t = _SHAPES.get(key)
    if t is not None:
        return t
    mon = x.monoid
    if mon is not y.monoid and mon != y.monoid:
        raise ShapeMismatch("objects live over different monoids")
    ny, xs = y.size, range(x.size)
    action = tuple(
        [
            tuple([xa[i] * ny + yb for i in xs for yb in ya])
            for xa, ya in zip(x.action, y.action)
        ]
    )
    table = mon.table
    degree = tuple([table[dx][dy] for dx in x.degree for dy in y.degree])
    t = _mk_obj(mon, product(x.carrier, y.carrier), action, degree)
    if key[0] in _INTERNED and key[1] in _INTERNED:
        _intern(key, t)
    return t


def symmetry(a: CrossedMSet, b: CrossedMSet) -> "XRelMorphism":
    """Braiding a (x) b -> b (x) a on the carriers' swap.

    The monoid is commutative and acts componentwise, so the swap is
    equivariant and keeps the degrees.
    """
    rows = finrel.symmetry(a.carrier, b.carrier).rows
    return _mk(tensor_object(a, b), tensor_object(b, a), rows, XRelMorphism)


class XRelMorphism(Relation):
    """Action-closed, degree-respecting relation between crossed sets."""

    def __init__(self, source: CrossedMSet, target: CrossedMSet, pairs):
        if source.monoid != target.monoid:
            raise ShapeMismatch("morphism endpoints over different monoids")
        rows = [0] * source.size
        for x, y in pairs:
            if not (0 <= x < source.size and 0 <= y < target.size):
                raise InvariantViolation(f"pair ({x},{y}) out of range")
            rows[x] |= 1 << y
        self.__dict__.update(source=source, target=target, rows=tuple(rows))
        self._check()

    def _check(self) -> None:
        """Raise unless the rows respect degrees and the action."""
        src, tgt, rows = self.source, self.target, self.rows
        for x, y in self.pairs:
            if src.degree[x] != tgt.degree[y]:
                raise InvariantViolation(
                    "related points have unequal degrees", witness=(x, y)
                )
            for m in range(src.monoid.size):
                if not rows[src.act(m, x)] >> tgt.act(m, y) & 1:
                    raise InvariantViolation(
                        "relation is not closed under the action", witness=(m, x, y)
                    )

    @property
    def pairs(self) -> frozenset:
        """The related (source index, target index) pairs."""
        return frozenset(index_pairs(self.rows))

    def __repr__(self):
        body = sorted(
            (self.source.carrier.labels[x], self.target.carrier.labels[y])
            for x, y in index_pairs(self.rows)
        )
        return f"XRel({body})"


def from_pairs(source: CrossedMSet, target: CrossedMSet, pairs) -> XRelMorphism:
    return XRelMorphism(source, target, pairs)


def empty(source: CrossedMSet, target: CrossedMSet) -> XRelMorphism:
    return XRelMorphism(source, target, ())


def identity(x: CrossedMSet) -> XRelMorphism:
    return finrel.identity(x, XRelMorphism)


def tensor(r: XRelMorphism, s: XRelMorphism) -> XRelMorphism:
    src = tensor_object(r.source, s.source)
    tgt = tensor_object(r.target, s.target)
    return _mk(src, tgt, finrel.tensor_rows(r, s), XRelMorphism)


def domain_identity(h: XRelMorphism) -> XRelMorphism:
    """Partial identity on the source points h relates, so h = h o it.

    Those points are action-closed because h is, and their degrees are
    h's, so the result is nuclear whenever h is.
    """
    rows = tuple(1 << x if row else 0 for x, row in enumerate(h.rows))
    return _mk(h.source, h.source, rows, XRelMorphism)


def orbit_closure(source: CrossedMSet, target: CrossedMSet, seed_pairs):
    mon = source.monoid
    out = set()
    for x, y in seed_pairs:
        for m in range(mon.size):
            out.add((source.act(m, x), target.act(m, y)))
    return out


def _sample_closed(rng, a: CrossedMSet, b: CrossedMSet, nuclear: bool) -> XRelMorphism:
    """Orbit closure of up to two random degree-matching pairs, drawn among
    the pairs whose degree squares to the identity when `nuclear`."""
    mon = a.monoid
    candidates = [
        (x, y)
        for x in range(a.size)
        for y in range(b.size)
        if a.degree[x] == b.degree[y]
        and (not nuclear or mon.square_trivial(a.degree[x]))
    ]
    chosen = []
    if candidates:
        for _ in range(rng.below(3)):
            chosen.append(rng.choice(candidates))
    if mon is not b.monoid and mon != b.monoid:
        raise ShapeMismatch("morphism endpoints over different monoids")
    # the orbit of a pair is action-closed because the action is a monoid
    # action, and degree-matching because degrees are action-invariant
    rows = [0] * a.size
    for x, y in chosen:
        for ax, by in zip(a.action, b.action):
            rows[ax[x]] |= 1 << by[y]
    return _mk(a, b, tuple(rows), XRelMorphism)


def is_nuclear(r: XRelMorphism) -> bool:
    """Every related point has degree squaring to the identity.

    Related points have equal degrees, so the source side decides.
    """
    mon, degree = r.source.monoid, r.source.degree
    return all(
        mon.square_trivial(degree[x]) for x, row in enumerate(r.rows) if row
    )


def is_nuclear_object(x: CrossedMSet) -> bool:
    return all(x.monoid.square_trivial(d) for d in x.degree)


def theta(r: XRelMorphism) -> XRelMorphism:
    if not is_nuclear(r):
        raise InvariantViolation("transpose needs degrees squaring to the identity")
    tgt = tensor_object(r.source, r.target)
    return _mk(unit_object(r.source.monoid), tgt, (finrel.theta_row(r),), XRelMorphism)


def theta_inv(m: XRelMorphism, a: CrossedMSet, b: CrossedMSet) -> XRelMorphism:
    if m.source != unit_object(a.monoid) or m.target != tensor_object(a, b):
        raise ShapeMismatch("state must run from the unit into the product")
    r = finrel.theta_inv(m, a, b)
    r._check()
    return r


def enum_morphisms(a: CrossedMSet, b: CrossedMSet) -> Iterator[XRelMorphism]:
    """All action-closed degree-respecting relations, small carriers only."""
    candidates = [
        (x, y)
        for x in range(a.size)
        for y in range(b.size)
        if a.degree[x] == b.degree[y]
    ]
    n = len(candidates)
    for mask in range(1 << n):
        chosen = {candidates[k] for k in range(n) if (mask >> k) & 1}
        if orbit_closure(a, b, chosen) == chosen:
            rows = [0] * a.size
            for x, y in chosen:
                rows[x] |= 1 << y
            yield _mk(a, b, tuple(rows), XRelMorphism)


def theta_bijectivity_report(a: CrossedMSet, b: CrossedMSet) -> AxiomReport:
    """Audit injectivity and surjectivity of the transpose on one object pair.

    Surjectivity failures are recorded as witnesses and flagged as a
    documented finding; they are expected over monoids with elements
    whose square is nontrivial.
    """
    mon = a.monoid
    run = _Runner(f"theta-audit[{mon!r} {a!r} {b!r}]")
    seen = {}

    def roundtrip(r):
        out = []
        s = theta(r)
        if s.rows in seen:
            out.append(f"theta collision between {seen[s.rows]!r} and {r!r}")
        seen[s.rows] = r
        if theta_inv(s, a, b) != r:
            out.append(f"theta round trip broken for {r!r}")
        return out

    def onto(s):
        if s.rows in seen:
            return None
        degs = sorted(
            (
                mon.elements.labels[a.degree[k // b.size]],
                mon.elements.labels[b.degree[k % b.size]],
            )
            for _, k in s.pairs
        )
        return f"state {s!r} with degree pairs {degs} is outside the transpose image"

    run.each("roundtrip", ((r,) for r in enum_morphisms(a, b) if is_nuclear(r)),
             roundtrip)
    run.each("onto", zip(enum_morphisms(unit_object(mon), tensor_object(a, b))), onto)
    run.finding("onto", "theta-not-surjective")
    return run.finish()


# -- serialization ----------------------------------------------------------


def monoid_to_json(m: CommMonoid) -> dict:
    return {
        "elements": finset_to_json(m.elements),
        "table": [list(row) for row in m.table],
        "e": m.elements.labels[m.e],
    }


def monoid_from_json(data) -> CommMonoid:
    if not isinstance(data, dict) or not {"elements", "table", "e"} <= set(data):
        raise ParseError("monoid document needs elements, table, e")
    elements = finset_from_json(data["elements"])
    try:
        table = tuple(tuple(int(v) for v in row) for row in data["table"])
        mon = CommMonoid(elements, table, elements.index(data["e"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid monoid: {exc}") from exc
    return mon


def object_to_json(x: CrossedMSet) -> dict:
    return {
        "carrier": finset_to_json(x.carrier),
        "action": {
            label_key(x.monoid.elements.labels[m]): [
                label_key(x.carrier.labels[x.action[m][i]]) for i in range(x.size)
            ]
            for m in range(x.monoid.size)
        },
        "degree": {
            label_key(x.carrier.labels[i]): label_key(
                x.monoid.elements.labels[x.degree[i]]
            )
            for i in range(x.size)
        },
    }


def object_from_json(data, monoid: CommMonoid) -> CrossedMSet:
    if not isinstance(data, dict) or not {"carrier", "action", "degree"} <= set(data):
        raise ParseError("object document needs carrier, action, degree")
    if not isinstance(data["action"], dict) or not isinstance(data["degree"], dict):
        raise ParseError("action and degree must be objects")
    carrier = finset_from_json(data["carrier"])
    mkeys = {label_key(monoid.elements.labels[m]): m for m in range(monoid.size)}
    ckeys = {label_key(carrier.labels[i]): i for i in range(carrier.size)}
    try:
        action = []
        for m in range(monoid.size):
            key = label_key(monoid.elements.labels[m])
            row = data["action"].get(key)
            if not isinstance(row, list) or len(row) != carrier.size:
                raise ParseError(f"action row missing or misshapen for {key!r}")
            action.append(tuple(ckeys[label_key(v)] for v in row))
        degree = []
        for i in range(carrier.size):
            key = label_key(carrier.labels[i])
            if key not in data["degree"]:
                raise ParseError(f"degree missing for {key!r}")
            degree.append(mkeys[str(data["degree"][key])])
        return CrossedMSet(monoid, carrier, tuple(action), tuple(degree))
    except (KeyError, InvariantViolation, ShapeMismatch) as exc:
        raise ParseError(f"invalid crossed set: {exc}") from exc


def to_json(r: XRelMorphism) -> dict:
    return {
        "monoid": monoid_to_json(r.source.monoid),
        "source": object_to_json(r.source),
        "target": object_to_json(r.target),
        "pairs": [
            [row >> y & 1 for y in range(r.target.size)] for row in r.rows
        ],
    }


def from_json(data) -> XRelMorphism:
    if not isinstance(data, dict) or not {"monoid", "source", "target", "pairs"} <= set(
        data
    ):
        raise ParseError("morphism document needs monoid, source, target, pairs")
    mon = monoid_from_json(data["monoid"])
    src = object_from_json(data["source"], mon)
    tgt = object_from_json(data["target"], mon)
    rows = data["pairs"]
    if (
        not isinstance(rows, list)
        or len(rows) != src.size
        or any(not isinstance(row, list) or len(row) != tgt.size for row in rows)
    ):
        raise ParseError("pair matrix shape mismatch")
    try:
        return XRelMorphism(
            src,
            tgt,
            [(x, y) for x, row in enumerate(rows) for y, v in enumerate(row) if v],
        )
    except (InvariantViolation, ShapeMismatch) as exc:
        raise ParseError(f"invalid relation: {exc}") from exc


# -- instance adapters ------------------------------------------------------


class XRelInstance(CategoryInstance):
    """Crossed-set relations over one fixed monoid; boolean scalars."""

    scalar_kind = scalars.BOOL
    max_carrier = 3

    def __init__(self, monoid: CommMonoid):
        self.monoid = monoid
        # cyclic monoids are named Z<n>, any other by its size
        cyclic = monoid.table == cyclic_monoid(monoid.size).table
        self.name = f"xrel[{'Z' if cyclic else ''}{monoid.size}]"
        self._unit = unit_object(monoid)
        # permutations whose monoid-order power is the identity, per carrier size
        self._perm_cache: dict[int, list[tuple[int, ...]]] = {}

    def compose(self, g, f):
        return compose(f, g)

    def identity(self, a):
        return identity(a)

    def star(self, f):
        return converse(f)

    def tensor(self, f, g):
        return tensor(f, g)

    def tensor_obj(self, a, b):
        return tensor_object(a, b)

    def unit(self):
        return self._unit

    def symmetry(self, a, b):
        return symmetry(a, b)

    def reindex(self, a, b, index_map):
        r = finrel.reindex(a, b, index_map, XRelMorphism)
        r._check()
        return r

    def scalar_of(self, s):
        if s.source != self._unit or s.target != self._unit:
            raise ShapeMismatch("scalars live on the unit object")
        return bool(s.rows[0])

    def mor_eq(self, f, g):
        return f.rows == g.rows and f.source == g.source and f.target == g.target

    def obj_size(self, a):
        return a.size

    def _order_perms(self, n: int) -> list[tuple[int, ...]]:
        """Permutations p with p^(monoid generator order) = id."""
        if n in self._perm_cache:
            return self._perm_cache[n]
        good = []
        for p in itertools.permutations(range(n)):
            q = list(range(n))
            for _ in range(self.monoid.size):
                q = [p[v] for v in q]
            if q == list(range(n)):
                good.append(p)
        self._perm_cache[n] = good
        return good

    def sample_object(self, rng):
        # valid by construction, so built trusted (and interned)
        n = rng.below(self.max_carrier + 1)
        mon = self.monoid
        fixed = tuple(range(n))
        if n == 0 or rng.below(2) == 0:
            degrees = tuple(rng.below(mon.size) for _ in range(n))
            return _shaped_obj(mon, fin_set(n), (fixed,) * mon.size, degrees)
        # generator-power action of a permutation of compatible order
        perm = rng.choice(self._order_perms(n))
        action = [fixed]
        row = list(range(n))
        for _ in range(mon.size - 1):
            row = [perm[v] for v in row]
            action.append(tuple(row))
        # degrees constant on orbits of the generator
        degree = [-1] * n
        for x in range(n):
            if degree[x] >= 0:
                continue
            d = rng.below(mon.size)
            y = x
            while degree[y] < 0:
                degree[y] = d
                y = perm[y]
        return _shaped_obj(mon, fin_set(n), tuple(action), tuple(degree))

    def sample_hom(self, rng, a, b):
        return _sample_closed(rng, a, b, nuclear=False)


class XRelNuclear(NuclearStructure):
    def __init__(self, inst: XRelInstance):
        super().__init__(inst)
        mon = inst.monoid
        self.theta_onto = all(mon.square_trivial(m) for m in range(mon.size))

    def is_nuclear(self, f):
        return is_nuclear(f)

    def theta(self, f):
        return theta(f)

    def theta_inv(self, m, a, b):
        return theta_inv(m, a, b)

    def sample_nuclear(self, rng, a, b):
        return _sample_closed(rng, a, b, nuclear=True)

    def factorize(self, h):
        return FactorizationResult(
            True, left=domain_identity(h), right=h, middle=h.source
        )


class XRelTrace(TraceStructure):
    def trace(self, h):
        if not self.in_trace_class(h):
            raise TraceClassError("endomorphism is outside the trace class")
        return finrel.trace_endo(h)

    def sample_dinat_pair(self, rng, a, b):
        if rng.below(2) == 0:
            return (
                self.nuclear.sample_nuclear(rng, a, b),
                self.inst.sample_hom(rng, b, a),
            )
        return (
            self.inst.sample_hom(rng, a, b),
            self.nuclear.sample_nuclear(rng, b, a),
        )

    def sample_equal_factorizations(self, rng):
        a = self.inst.sample_object(rng)
        h = self.nuclear.sample_nuclear(rng, a, a)
        return (
            (domain_identity(h), h),
            (h, domain_identity(converse(h))),
        )


def instance(monoid: Optional[CommMonoid] = None) -> XRelInstance:
    return XRelInstance(cyclic_monoid(2) if monoid is None else monoid)


def structures(monoid: Optional[CommMonoid] = None):
    inst = instance(monoid)
    nuc = XRelNuclear(inst)
    return inst, nuc, XRelTrace(inst, nuc)
