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

Boundary contract: the `CrossedMSet` and `XRelMorphism` constructors,
`trivial_object`, `from_pairs`, the JSON readers and the samplers check
every invariant.  Operations whose results are valid by theorem build
through the trusted `_mk_obj`/`_mk`, which check nothing: the unit and
tensor objects, `compose`, `converse`, `tensor`, `identity`, `theta`
(the degrees of a nuclear relation square to the identity) and
`enum_morphisms`.  `theta_inv` and the instance's `reindex` are not
valid by theorem (a state may pair degrees whose squares are not
trivial, and an arbitrary bijection need not be equivariant), and
`empty` may be handed objects over different monoids, so these keep
validating.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from nucleal.core import scalars
from nucleal.core.errors import (
    InvariantViolation,
    ParseError,
    ShapeMismatch,
    TraceClassError,
)
from nucleal.core.instance import (
    CategoryInstance,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.report import AxiomReport
from nucleal.finrel import (
    UNIT,
    FinSet,
    fin_set,
    finset_from_json,
    finset_to_json,
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


def cyclic_monoid(n: int) -> CommMonoid:
    """Additive integers mod n; the generator is the element 1."""
    return CommMonoid(
        fin_set(n),
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
        0,
    )


@dataclass(frozen=True)
class CrossedMSet:
    """Carrier with a degree-preserving monoid action.

    action[m][x] is the image of point x under element m; degree[x] is
    a monoid element index.
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


def unit_object(monoid: CommMonoid) -> CrossedMSet:
    return _mk_obj(monoid, UNIT, ((0,),) * monoid.size, (monoid.e,))


def tensor_object(x: CrossedMSet, y: CrossedMSet) -> CrossedMSet:
    if x.monoid != y.monoid:
        raise ShapeMismatch("objects live over different monoids")
    ny = y.size
    action = tuple(
        tuple(
            x.action[m][i] * ny + y.action[m][j]
            for i in range(x.size)
            for j in range(ny)
        )
        for m in range(x.monoid.size)
    )
    degree = tuple(
        x.monoid.mul(x.degree[i], y.degree[j])
        for i in range(x.size)
        for j in range(ny)
    )
    return _mk_obj(x.monoid, product(x.carrier, y.carrier), action, degree)


@dataclass(frozen=True)
class XRelMorphism:
    """Action-closed, degree-respecting relation between crossed sets."""

    source: CrossedMSet
    target: CrossedMSet
    pairs: frozenset

    def __post_init__(self):
        if self.source.monoid != self.target.monoid:
            raise ShapeMismatch("morphism endpoints over different monoids")
        mon = self.source.monoid
        for x, y in self.pairs:
            if not (0 <= x < self.source.size and 0 <= y < self.target.size):
                raise InvariantViolation(f"pair ({x},{y}) out of range")
            if self.source.degree[x] != self.target.degree[y]:
                raise InvariantViolation(
                    "related points have unequal degrees", witness=(x, y)
                )
            for m in range(mon.size):
                moved = (self.source.act(m, x), self.target.act(m, y))
                if moved not in self.pairs:
                    raise InvariantViolation(
                        "relation is not closed under the action", witness=(m, x, y)
                    )

    def __repr__(self):
        body = sorted(
            (self.source.carrier.labels[x], self.target.carrier.labels[y])
            for x, y in self.pairs
        )
        return f"XRel({body})"


def _mk(source: CrossedMSet, target: CrossedMSet, pairs: frozenset) -> XRelMorphism:
    """Trusted builder: `pairs` must be in range, degree-respecting and
    closed under the action."""
    r = object.__new__(XRelMorphism)
    r.__dict__.update(source=source, target=target, pairs=pairs)
    return r


def from_pairs(source: CrossedMSet, target: CrossedMSet, pairs) -> XRelMorphism:
    return XRelMorphism(source, target, frozenset(pairs))


def empty(source: CrossedMSet, target: CrossedMSet) -> XRelMorphism:
    return XRelMorphism(source, target, frozenset())


def identity(x: CrossedMSet) -> XRelMorphism:
    return _mk(x, x, frozenset([(i, i) for i in range(x.size)]))


def compose(r: XRelMorphism, s: XRelMorphism) -> XRelMorphism:
    """Diagrammatic composite: first r, then s."""
    if r.target != s.source:
        raise ShapeMismatch("middle objects differ")
    mids: dict[int, list[int]] = {}
    for y, z in s.pairs:
        mids.setdefault(y, []).append(z)
    out = {
        (x, z) for x, y in r.pairs for z in mids.get(y, ())
    }
    return _mk(r.source, s.target, frozenset(out))


def converse(r: XRelMorphism) -> XRelMorphism:
    return _mk(r.target, r.source, frozenset([(y, x) for x, y in r.pairs]))


def tensor(r: XRelMorphism, s: XRelMorphism) -> XRelMorphism:
    src = tensor_object(r.source, s.source)
    tgt = tensor_object(r.target, s.target)
    ns2, nt2 = s.source.size, s.target.size
    pairs = frozenset([
        (x1 * ns2 + x2, y1 * nt2 + y2)
        for x1, y1 in r.pairs
        for x2, y2 in s.pairs
    ])
    return _mk(src, tgt, pairs)


def orbit_closure(source: CrossedMSet, target: CrossedMSet, seed_pairs):
    mon = source.monoid
    out = set()
    for x, y in seed_pairs:
        for m in range(mon.size):
            out.add((source.act(m, x), target.act(m, y)))
    return out


def is_nuclear(r: XRelMorphism) -> bool:
    """Every related point has degree squaring to the identity."""
    mon = r.source.monoid
    for x, y in r.pairs:
        if not mon.square_trivial(r.source.degree[x]):
            return False
        if not mon.square_trivial(r.target.degree[y]):
            return False
    return True


def is_nuclear_object(x: CrossedMSet) -> bool:
    return all(x.monoid.square_trivial(d) for d in x.degree)


def theta(r: XRelMorphism) -> XRelMorphism:
    if not is_nuclear(r):
        raise InvariantViolation("transpose needs degrees squaring to the identity")
    tgt = tensor_object(r.source, r.target)
    nt = r.target.size
    return _mk(
        unit_object(r.source.monoid),
        tgt,
        frozenset([(0, x * nt + y) for x, y in r.pairs]),
    )


def theta_inv(m: XRelMorphism, a: CrossedMSet, b: CrossedMSet) -> XRelMorphism:
    if m.source != unit_object(a.monoid) or m.target != tensor_object(a, b):
        raise ShapeMismatch("state must run from the unit into the product")
    nb = b.size
    return XRelMorphism(
        a, b, frozenset((k // nb, k % nb) for _, k in m.pairs)
    )


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
            yield _mk(a, b, frozenset(chosen))


def theta_bijectivity_report(a: CrossedMSet, b: CrossedMSet) -> AxiomReport:
    """Audit injectivity and surjectivity of the transpose on one object pair.

    Surjectivity failures are recorded as witnesses and flagged as a
    documented finding; they are expected over monoids with elements
    whose square is nontrivial.
    """
    mon = a.monoid
    t0 = time.perf_counter()
    rep = AxiomReport(f"theta-audit[{mon!r} {a!r} {b!r}]", 0)
    unit = unit_object(mon)
    seen = {}
    for r in enum_morphisms(a, b):
        if not is_nuclear(r):
            continue
        rep.cases += 1
        s = theta(r)
        if s.pairs in seen:
            rep.add_failure(f"theta collision between {seen[s.pairs]!r} and {r!r}")
        seen[s.pairs] = r
        back = theta_inv(s, a, b)
        if back != r:
            rep.add_failure(f"theta round trip broken for {r!r}")
    missing = []
    for s in enum_morphisms(unit, tensor_object(a, b)):
        rep.cases += 1
        if s.pairs in seen:
            continue
        degs = sorted(
            (
                mon.elements.labels[a.degree[k // b.size]],
                mon.elements.labels[b.degree[k % b.size]],
            )
            for _, k in s.pairs
        )
        missing.append(degs)
        rep.add_failure(
            f"state {s!r} with degree pairs {degs} is outside the transpose image"
        )
    if missing:
        rep.flags.append("documented-finding:theta-not-surjective")
    rep.elapsed = time.perf_counter() - t0
    return rep


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
    except (InvariantViolation, ShapeMismatch) as exc:
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
    carrier = finset_from_json(data["carrier"])
    mkeys = {label_key(monoid.elements.labels[m]): m for m in range(monoid.size)}
    ckeys = {label_key(carrier.labels[i]): i for i in range(carrier.size)}
    try:
        action = []
        for m in range(monoid.size):
            key = label_key(monoid.elements.labels[m])
            row = data["action"].get(key)
            if row is None or len(row) != carrier.size:
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
            [1 if (x, y) in r.pairs else 0 for y in range(r.target.size)]
            for x in range(r.source.size)
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
    if len(rows) != src.size or any(len(row) != tgt.size for row in rows):
        raise ParseError("pair matrix shape mismatch")
    try:
        return XRelMorphism(
            src,
            tgt,
            frozenset(
                (x, y)
                for x, row in enumerate(rows)
                for y, v in enumerate(row)
                if v
            ),
        )
    except (InvariantViolation, ShapeMismatch) as exc:
        raise ParseError(f"invalid relation: {exc}") from exc


# -- instance adapters ------------------------------------------------------


class XRelInstance(CategoryInstance):
    """Crossed-set relations over one fixed monoid; boolean scalars."""

    scalar_kind = scalars.BOOL

    def __init__(self, monoid: CommMonoid, max_carrier: int = 3, tag: str = ""):
        self.monoid = monoid
        self.max_carrier = max_carrier
        self.name = f"xrel[{tag or monoid.size}]"
        self._unit = unit_object(monoid)
        # permutations whose monoid-order power is the identity, per carrier size
        self._perm_cache: dict[int, list[tuple[int, ...]]] = {}

    def source(self, f):
        return f.source

    def target(self, f):
        return f.target

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

    def reindex(self, a, b, index_map):
        if len(index_map) != a.size or sorted(index_map) != list(range(b.size)):
            raise ShapeMismatch("index map is not a bijection")
        return XRelMorphism(
            a, b, frozenset((i, j) for i, j in enumerate(index_map))
        )

    def scalar_of(self, s):
        if s.source != self._unit or s.target != self._unit:
            raise ShapeMismatch("scalars live on the unit object")
        return bool(s.pairs)

    def mor_eq(self, f, g, tol=None):
        return f.source == g.source and f.target == g.target and f.pairs == g.pairs

    def obj_size(self, a):
        return a.size

    def describe(self, f):
        return repr(f)

    def describe_obj(self, a):
        return repr(a)

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
        n = rng.below(self.max_carrier + 1)
        mon = self.monoid
        if n == 0:
            return trivial_object(mon, ())
        if rng.below(2) == 0:
            degrees = tuple(rng.below(mon.size) for _ in range(n))
            return trivial_object(mon, tuple(range(n)), degrees)
        # generator-power action of a permutation of compatible order
        perm = rng.choice(self._order_perms(n))
        action = [tuple(range(n))]
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
        return CrossedMSet(mon, fin_set(n), tuple(action), tuple(degree))

    def sample_hom(self, rng, a, b):
        candidates = [
            (x, y)
            for x in range(a.size)
            for y in range(b.size)
            if a.degree[x] == b.degree[y]
        ]
        chosen: set = set()
        if candidates:
            for _ in range(rng.below(3)):
                chosen.add(rng.choice(candidates))
        return XRelMorphism(a, b, frozenset(orbit_closure(a, b, chosen)))

    def enum_hom(self, a, b):
        return enum_morphisms(a, b)


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
        mon = a.monoid
        candidates = [
            (x, y)
            for x in range(a.size)
            for y in range(b.size)
            if a.degree[x] == b.degree[y] and mon.square_trivial(a.degree[x])
        ]
        chosen: set = set()
        if candidates:
            for _ in range(rng.below(3)):
                chosen.add(rng.choice(candidates))
        return XRelMorphism(a, b, frozenset(orbit_closure(a, b, chosen)))

    def enum_nuclear(self, a, b):
        return (r for r in enum_morphisms(a, b) if is_nuclear(r))

    def enum_states(self, a, b):
        return enum_morphisms(
            unit_object(a.monoid), tensor_object(a, b)
        )

    def sample_state(self, rng, a, b):
        return self.inst.sample_hom(
            rng, unit_object(a.monoid), tensor_object(a, b)
        )


class XRelTrace(TraceStructure):
    def in_trace_class(self, h):
        return h.source == h.target and is_nuclear(h)

    def trace(self, h):
        if not self.in_trace_class(h):
            raise TraceClassError("endomorphism is outside the trace class")
        return any(x == y for x, y in h.pairs)

    def sample_member(self, rng, a):
        return self.nuclear.sample_nuclear(rng, a, a)

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
        dom = frozenset((x, x) for x, _ in h.pairs)
        ran = frozenset((y, y) for _, y in h.pairs)
        return (
            (XRelMorphism(a, a, dom), h),
            (h, XRelMorphism(a, a, ran)),
        )


def instance(monoid: Optional[CommMonoid] = None, max_carrier: int = 3) -> XRelInstance:
    mon = cyclic_monoid(2) if monoid is None else monoid
    tag = f"Z{mon.size}" if mon.table == cyclic_monoid(mon.size).table else ""
    return XRelInstance(mon, max_carrier, tag)


def structures(monoid: Optional[CommMonoid] = None, max_carrier: int = 3):
    inst = instance(monoid, max_carrier)
    nuc = XRelNuclear(inst)
    return inst, nuc, XRelTrace(inst, nuc)
