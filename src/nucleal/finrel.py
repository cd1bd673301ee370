"""Finite sets and boolean relations.

Relations are stored as bitset rows (one integer per source element,
bit j set when the pair (i, j) is in the relation).  Membership is
O(1) and the exhaustive law sweeps the test-suite runs over every
relation between small sets stay cheap.

Every relation is distinguished (nuclear): the transpose just re-reads
the graph of r: X -> Y as a state I -> X (x) Y.  The induced trace of an
endomorphism asks for a fixed point.

Boundary contract: values that enter from outside are validated, values
that model operations make are trusted.  The `FinSet` and `Relation`
constructors, `from_pairs`, `from_json`/`finset_from_json` and the
samplers check every invariant (distinct labels; one row per source
element, no bit outside the target).  The operations and enumerators
(`compose`, `converse`, `tensor`, `product`, `identity`, `theta`, ...)
preserve those invariants by construction, so they build through the
trusted `_mk`/`_mk_set`, which skip the checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from nucleal.core import scalars
from nucleal.core.errors import InvariantViolation, ParseError, ShapeMismatch
from nucleal.core.instance import (
    CategoryInstance,
    FactorizationResult,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.rng import Lcg

UNIT_LABEL = "*"


def _check_labels(labels: tuple) -> None:
    if len(set(labels)) != len(labels):
        raise InvariantViolation(f"duplicate labels in {labels!r}")


@dataclass(frozen=True)
class FinSet:
    """Ordered finite set of distinct hashable labels."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        _check_labels(self.labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ShapeMismatch(f"label {label!r} not in {self.labels!r}") from None

    def __repr__(self):
        return f"FinSet({list(self.labels)!r})"


def _mk_set(labels: tuple) -> FinSet:
    """Trusted builder: `labels` must be a tuple of distinct labels."""
    x = object.__new__(FinSet)
    x.__dict__["labels"] = labels
    return x


def fin_set(n: int) -> FinSet:
    """Canonical n-element set 0..n-1."""
    return _mk_set(tuple(range(n)))


UNIT = FinSet((UNIT_LABEL,))


def product(x: FinSet, y: FinSet) -> FinSet:
    return _mk_set(tuple([(a, b) for a in x.labels for b in y.labels]))


@dataclass(frozen=True)
class Relation:
    """Boolean relation between two finite sets."""

    source: FinSet
    target: FinSet
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))
        if len(self.rows) != self.source.size:
            raise InvariantViolation(
                f"expected {self.source.size} rows, got {len(self.rows)}"
            )
        mask = (1 << self.target.size) - 1
        for i, row in enumerate(self.rows):
            if row < 0 or row & ~mask:
                raise InvariantViolation(f"row {i} has bits outside the target")

    def has(self, x, y) -> bool:
        return bool(self.rows[self.source.index(x)] >> self.target.index(y) & 1)

    def pairs(self) -> Iterator[tuple]:
        for i, row in enumerate(self.rows):
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                yield (self.source.labels[i], self.target.labels[j])
                r &= r - 1

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def __repr__(self):
        return f"Relation({list(self.pairs())!r})"


def _mk(source: FinSet, target: FinSet, rows: tuple) -> Relation:
    """Trusted builder: `rows` must be a tuple of one int per source
    element, with no bit outside the target."""
    r = object.__new__(Relation)
    r.__dict__.update(source=source, target=target, rows=rows)
    return r


def from_pairs(source: FinSet, target: FinSet, pairs: Iterable[tuple]) -> Relation:
    rows = [0] * source.size
    for x, y in pairs:
        rows[source.index(x)] |= 1 << target.index(y)
    return Relation(source, target, tuple(rows))


def empty(source: FinSet, target: FinSet) -> Relation:
    return _mk(source, target, (0,) * source.size)


def full(source: FinSet, target: FinSet) -> Relation:
    mask = (1 << target.size) - 1
    return _mk(source, target, (mask,) * source.size)


def identity(x: FinSet) -> Relation:
    return _mk(x, x, tuple([1 << i for i in range(x.size)]))


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composite of r: X -> Y then s: Y -> Z."""
    if r.target != s.source:
        raise ShapeMismatch(
            f"cannot compose through {r.target!r} vs {s.source!r}"
        )
    out = []
    for row in r.rows:
        acc = 0
        rr = row
        while rr:
            j = (rr & -rr).bit_length() - 1
            acc |= s.rows[j]
            rr &= rr - 1
        out.append(acc)
    return _mk(r.source, s.target, tuple(out))


def converse(r: Relation) -> Relation:
    rows = [0] * r.target.size
    for i, row in enumerate(r.rows):
        rr = row
        while rr:
            j = (rr & -rr).bit_length() - 1
            rows[j] |= 1 << i
            rr &= rr - 1
    return _mk(r.target, r.source, tuple(rows))


def tensor(r: Relation, s: Relation) -> Relation:
    """Componentwise pairing on cartesian products."""
    src = product(r.source, s.source)
    tgt = product(r.target, s.target)
    nt = s.target.size
    rows = []
    for ri in r.rows:
        for si in s.rows:
            # bit (j1, j2) of the product row: j1 * nt + j2
            acc = 0
            rr = ri
            while rr:
                j1 = (rr & -rr).bit_length() - 1
                acc |= si << (j1 * nt)
                rr &= rr - 1
            rows.append(acc)
    return _mk(src, tgt, tuple(rows))


def reindex(a: FinSet, b: FinSet, index_map: Sequence[int]) -> Relation:
    if a.size != b.size or sorted(index_map) != list(range(a.size)):
        raise ShapeMismatch("reindex needs a bijection of equal-sized sets")
    return _mk(a, b, tuple([1 << j for j in index_map]))


def nu(x: FinSet) -> Relation:
    """Pairing state I -> X (x) X relating the unit point to each (x, x)."""
    n = x.size
    row = 0
    for i in range(n):
        row |= 1 << (i * n + i)
    return _mk(UNIT, product(x, x), (row,))


def psi(x: FinSet) -> Relation:
    """Copairing X (x) X -> I, the converse of nu."""
    n = x.size
    rows = []
    for i in range(n):
        for j in range(n):
            rows.append(1 if i == j else 0)
    return _mk(product(x, x), UNIT, tuple(rows))


def trace_endo(r: Relation) -> bool:
    """True when some element is related to itself."""
    if r.source.size != r.target.size or r.source != r.target:
        raise ShapeMismatch("trace needs an endomorphism")
    return any(row >> i & 1 for i, row in enumerate(r.rows))


def param_trace(r: Relation, a: FinSet, u: FinSet, b: FinSet) -> Relation:
    """Partial trace over u of r: a (x) u -> b (x) u.

    a is related to b in the result exactly when (a, u0) is related to
    (b, u0) for some shared u0.
    """
    if r.source != product(a, u) or r.target != product(b, u):
        raise ShapeMismatch("relation boundary does not match (a, u, b)")
    nu_, nb = u.size, b.size
    rows = []
    for i in range(a.size):
        acc = 0
        for k in range(nu_):
            row = r.rows[i * nu_ + k]
            for j in range(nb):
                if row >> (j * nu_ + k) & 1:
                    acc |= 1 << j
        rows.append(acc)
    return _mk(a, b, tuple(rows))


def enum_relations(source: FinSet, target: FinSet) -> Iterator[Relation]:
    ns, nt = source.size, target.size
    for mask in range(1 << (ns * nt)):
        rows = tuple((mask >> (i * nt)) & ((1 << nt) - 1) for i in range(ns))
        yield _mk(source, target, rows)


# -- serialization ----------------------------------------------------------


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(p) for p in label]
    return label


def label_key(label) -> str:
    """A label as a JSON object key: strings as they are, others as compact JSON."""
    return label if isinstance(label, str) else json.dumps(label, separators=(",", ":"))


def _label_from_json(value):
    if isinstance(value, list):
        return tuple(_label_from_json(p) for p in value)
    return value


def finset_to_json(x: FinSet) -> list:
    return [_label_to_json(l) for l in x.labels]


def finset_from_json(data) -> FinSet:
    if not isinstance(data, list):
        raise ParseError("finite set must be a JSON array of labels")
    return FinSet(tuple(_label_from_json(l) for l in data))


def to_json(r: Relation) -> dict:
    nt = r.target.size
    return {
        "source": finset_to_json(r.source),
        "target": finset_to_json(r.target),
        "pairs": [[bool(row >> j & 1) for j in range(nt)] for row in r.rows],
    }


def from_json(data: dict) -> Relation:
    try:
        src = finset_from_json(data["source"])
        tgt = finset_from_json(data["target"])
        matrix = data["pairs"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad relation payload: {exc}") from exc
    if not isinstance(matrix, list) or len(matrix) != src.size:
        raise ParseError("pairs matrix must have one row per source label")
    rows = []
    for row in matrix:
        if not isinstance(row, list) or len(row) != tgt.size:
            raise ParseError("pairs matrix row has the wrong width")
        rows.append(sum(1 << j for j, v in enumerate(row) if v))
    return Relation(src, tgt, tuple(rows))


# -- instance adapter -------------------------------------------------------


class FinRelInstance(CategoryInstance):
    name = "finrel"
    scalar_kind = scalars.BOOL
    tol = 0.0

    def __init__(self, max_object_size: int = 3):
        self.max_object_size = max_object_size

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
        return product(a, b)

    def unit(self):
        return UNIT

    def reindex(self, a, b, index_map):
        return reindex(a, b, index_map)

    def obj_size(self, a):
        return a.size

    def describe_obj(self, a):
        return repr(list(a.labels))

    def mor_eq(self, f, g, tol=None):
        return (
            f.source.size == g.source.size
            and f.target.size == g.target.size
            and f.rows == g.rows
        )

    def describe(self, f):
        return f"{list(f.pairs())!r}: {f.source.size}->{f.target.size}"

    def scalar_of(self, f):
        if f.source.size != 1 or f.target.size != 1:
            raise ShapeMismatch("scalar extraction needs unit-sized ends")
        return bool(f.rows[0] & 1)

    def sample_object(self, rng: Lcg):
        return fin_set(rng.below(self.max_object_size + 1))

    def sample_hom(self, rng: Lcg, a, b):
        bits = a.size * b.size
        mask = rng.bits(bits) if bits else 0
        rows = tuple(
            (mask >> (i * b.size)) & ((1 << b.size) - 1) for i in range(a.size)
        )
        return Relation(a, b, rows)

    def objects(self, max_size=None):
        cap = self.max_object_size if max_size is None else max_size
        return [fin_set(n) for n in range(cap + 1)]

    def enum_hom(self, a, b):
        return enum_relations(a, b)

    def count_hom(self, a, b):
        return 1 << (a.size * b.size)


class FinRelNuclear(NuclearStructure):
    """Every relation is distinguished; the transpose re-reads its graph."""

    def is_nuclear(self, f) -> bool:
        return True

    def theta(self, f: Relation) -> Relation:
        nt = f.target.size
        acc = 0
        for i, row in enumerate(f.rows):
            acc |= row << (i * nt)
        return _mk(UNIT, product(f.source, f.target), (acc,))

    def theta_inv(self, m: Relation, a: FinSet, b: FinSet) -> Relation:
        if m.source.size != 1 or m.target.size != a.size * b.size:
            raise ShapeMismatch("state boundary does not match (a, b)")
        nt = b.size
        row = m.rows[0]
        rows = tuple((row >> (i * nt)) & ((1 << nt) - 1) for i in range(a.size))
        return _mk(a, b, rows)

    def sample_nuclear(self, rng, a, b):
        return self.inst.sample_hom(rng, a, b)

    def enum_nuclear(self, a, b):
        return enum_relations(a, b)

    def count_nuclear(self, a, b):
        return 1 << (a.size * b.size)

    def enum_states(self, a, b):
        return enum_relations(UNIT, product(a, b))

    def sample_state(self, rng, a, b):
        return self.inst.sample_hom(rng, UNIT, product(a, b))

    def factorize(self, h, bound: int) -> FactorizationResult:
        # Identities are themselves distinguished here, so h = h o id.
        return FactorizationResult(
            True, left=identity(h.source), right=h, middle=h.source
        )


class FinRelTrace(TraceStructure):
    has_param = True

    def in_trace_class(self, h) -> bool:
        return h.source == h.target

    def trace(self, h):
        return trace_endo(h)

    def sample_member(self, rng, a):
        return self.inst.sample_hom(rng, a, a)

    def sample_dinat_pair(self, rng, a, b):
        return self.inst.sample_hom(rng, a, b), self.inst.sample_hom(rng, b, a)

    def sample_equal_factorizations(self, rng):
        inst = self.inst
        a = inst.sample_object(rng)
        b = inst.sample_object(rng)
        f = inst.sample_hom(rng, a, b)
        g = inst.sample_hom(rng, b, a)
        perm = list(range(b.size))
        rng.shuffle(perm)
        sigma = reindex(b, b, perm)
        f2 = compose(f, sigma)
        g2 = compose(converse(sigma), g)
        return (f, g), (f2, g2)

    def in_param_class(self, f, a, u, b) -> bool:
        return True

    def param_trace(self, f, a, u, b):
        return param_trace(f, a, u, b)

    def sample_param_member(self, rng, a, u, b):
        return self.inst.sample_hom(rng, product(a, u), product(b, u))

    def enum_param_members(self, a, u, b):
        return enum_relations(product(a, u), product(b, u))


def instance(max_object_size: int = 3) -> FinRelInstance:
    return FinRelInstance(max_object_size)


def structures(max_object_size: int = 3):
    inst = FinRelInstance(max_object_size)
    nuc = FinRelNuclear(inst)
    return inst, nuc, FinRelTrace(inst, nuc)
