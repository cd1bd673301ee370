"""Finite sets and boolean relations.

Relations are stored as bitset rows (one integer per source element,
bit j set when the pair (i, j) is in the relation).  Membership is
O(1) and the exhaustive law sweeps the test-suite runs over every
relation between small sets stay cheap.

Every relation is distinguished (nuclear): the transpose just re-reads
the graph of r: X -> Y as a state I -> X (x) Y.  The induced trace of an
endomorphism asks for a fixed point.

The row kernel here is shared.  Partial injections (`nucleal.pinj`) and
crossed-set relations (`nucleal.xrel`) are subclasses of `Relation`:
the same rows plus an invariant of their own.  `compose`, `converse`,
`tensor`, `theta`, `theta_inv`, `trace_endo` and `param_trace` build
their result with the type of their relation argument; `identity`,
`empty`, `reindex` and `symmetry` take the type as `cls`.  Only the
endpoints are the caller's business where they are not plain sets:
`tensor_rows` and `theta_row` give the rows alone.

Boundary contract: values that enter from outside are validated, values
that model operations make are trusted.  The `FinSet` and `Relation`
constructors, `from_pairs` and `from_json`/`finset_from_json` check
every invariant (distinct labels; one row per source element, no bit
outside the target).  The operations, the hom-set family and the
samplers (`compose`, `converse`, `tensor`, `product`, `identity`,
`theta`, `Relations`, `sample_hom`, ...) preserve those invariants, and
each subclass's invariant, by construction, so they build through the
trusted `_mk`/`_mk_set`, which skip the checks.

A hom-set is a `Relations(source, target)` family, which ranks each
relation by its bitmask, as `sample_hom` reads its drawn bits, and makes
a member only when it is indexed or iterated.

Interning: each set shape the models build has exactly one object.
`fin_set(n)` returns one interned set per n, `UNIT` is interned, and
`product` of two interned sets returns one interned product, memoized
on the identity of the pair.  The structural isomorphisms on interned
sets are built once too: `identity(x, cls)`, `symmetry(a, b, cls)` and
`reindex(a, b, index_map, cls)` return one value per key of the
endpoints' ids, `cls` and `tuple(index_map)`, kept in the same table
under a tagged key.  Nothing else is memoized.  Interned sets live for
the whole process, so their ids stay unique.  Sets from the `FinSet`
constructor or from JSON are not interned: `product` of such a set
builds a new set, and a structural isomorphism on one a new value.
Sets compare by identity first and by labels after, so an interned set
and a validated set with the same labels are equal and hash alike.  A
set's `size` is computed on its first read and stored in the instance,
outside the fields, so equality and hash are unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class FinSet:
    """Ordered finite set of distinct hashable labels."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        _check_labels(self.labels)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinSet):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    @cached_property
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


# The intern tables: every interned set by id, which keeps it alive, and
# the interned sets by shape, keyed by n for fin_set(n) and by the ids
# (id(x), id(y)) for the product of interned x and y; the structural
# isomorphisms on interned sets share it under keys tagged by their name.
_INTERNED: dict[int, FinSet] = {}
_SHAPES: dict = {}


def _intern(key, x: FinSet) -> FinSet:
    _SHAPES[key] = x
    _INTERNED[id(x)] = x
    return x


def fin_set(n: int) -> FinSet:
    """Canonical n-element set 0..n-1, interned."""
    x = _SHAPES.get(n)
    return x if x is not None else _intern(n, _mk_set(tuple(range(n))))


UNIT = _intern(UNIT_LABEL, FinSet((UNIT_LABEL,)))


def product(x: FinSet, y: FinSet) -> FinSet:
    """Cartesian product; interned when x and y are."""
    key = (id(x), id(y))
    p = _SHAPES.get(key)
    if p is None:
        p = _mk_set(tuple([(a, b) for a in x.labels for b in y.labels]))
        if key[0] in _INTERNED and key[1] in _INTERNED:
            _intern(key, p)
    return p


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
        src, tgt = self.source.labels, self.target.labels
        for i, j in index_pairs(self.rows):
            yield (src[i], tgt[j])

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def __repr__(self):
        return f"Relation({list(self.pairs())!r})"


def index_pairs(rows) -> Iterator[tuple[int, int]]:
    """(source index, target index) of every set bit, in row-major order."""
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            yield i, low.bit_length() - 1
            row ^= low


def _mk(source, target, rows: tuple, cls=Relation) -> Relation:
    """Trusted builder of a `cls` value: `rows` must be a tuple of one int
    per source element, with no bit outside the target, that meets the
    invariant of `cls`."""
    r = object.__new__(cls)
    d = r.__dict__  # item stores; cheaper than update() with keywords
    d["source"] = source
    d["target"] = target
    d["rows"] = rows
    return r


def from_pairs(source: FinSet, target: FinSet, pairs: Iterable[tuple]) -> Relation:
    rows = [0] * source.size
    for x, y in pairs:
        rows[source.index(x)] |= 1 << target.index(y)
    return Relation(source, target, tuple(rows))


def empty(source: FinSet, target: FinSet, cls=Relation) -> Relation:
    return _mk(source, target, (0,) * source.size, cls)


def _remember(key, ends, interned: dict, r: Relation) -> Relation:
    """Keep structural value r in `_SHAPES` under `key` when every end in
    `ends` is in `interned`: `_INTERNED`, or xrel's table of crossed sets."""
    if all(id(x) in interned for x in ends):
        _SHAPES[key] = r
    return r


def identity(x: FinSet, cls=Relation) -> Relation:
    key = ("identity", id(x), cls)
    r = _SHAPES.get(key)
    if r is None:
        rows = tuple([1 << i for i in range(x.size)])
        r = _remember(key, (x,), _INTERNED, _mk(x, x, rows, cls))
    return r


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composite of r: X -> Y then s: Y -> Z."""
    if r.target is not s.source and r.target != s.source:
        raise ShapeMismatch(
            f"cannot compose through {r.target!r} vs {s.source!r}"
        )
    srows = s.rows
    out = []
    for row in r.rows:
        if row & (row - 1):  # two bits or more: the union of their rows of s
            acc = 0
            while row:
                low = row & -row
                acc |= srows[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        else:  # no bit, or one: a partial injection's every row
            out.append(srows[row.bit_length() - 1] if row else 0)
    return _mk(r.source, s.target, tuple(out), type(r))


def converse(r: Relation) -> Relation:
    rows = [0] * r.target.size
    bit = 1  # of the source element whose row this is
    for row in r.rows:
        while row:
            low = row & -row
            rows[low.bit_length() - 1] |= bit
            row ^= low
        bit <<= 1
    return _mk(r.target, r.source, tuple(rows), type(r))


def tensor_rows(r: Relation, s: Relation) -> tuple:
    """Rows of r (x) s; bit (j1, j2) of a product row is bit j1 * nt + j2."""
    nt, srows = s.target.size, s.rows
    # the copies of a row of s shifted to each bit of a row of r do not
    # overlap, so their union is one product with that row's spread
    spreads = []
    for row in r.rows:
        spread = 0
        while row:
            low = row & -row
            spread |= 1 << ((low.bit_length() - 1) * nt)
            row ^= low
        spreads.append(spread)
    return tuple([si * spread for spread in spreads for si in srows])


def tensor(r: Relation, s: Relation) -> Relation:
    """Componentwise pairing on cartesian products."""
    src = product(r.source, s.source)
    tgt = product(r.target, s.target)
    return _mk(src, tgt, tensor_rows(r, s), type(r))


def reindex(a: FinSet, b: FinSet, index_map: Sequence[int], cls=Relation) -> Relation:
    index_map = tuple(index_map)
    key = ("reindex", id(a), id(b), cls, index_map)
    r = _SHAPES.get(key)
    if r is None:
        if a.size != b.size or sorted(index_map) != list(range(a.size)):
            raise ShapeMismatch("reindex needs a bijection of equal-sized sets")
        rows = tuple([1 << j for j in index_map])
        r = _remember(key, (a, b), _INTERNED, _mk(a, b, rows, cls))
    return r


def symmetry(a: FinSet, b: FinSet, cls=Relation) -> Relation:
    """Braiding a (x) b -> b (x) a: row i * nb + j is the bit j * na + i."""
    key = ("symmetry", id(a), id(b), cls)
    r = _SHAPES.get(key)
    if r is None:
        na, nb = a.size, b.size
        rows = tuple([1 << (j * na + i) for i in range(na) for j in range(nb)])
        r = _remember(key, (a, b), _INTERNED,
                      _mk(product(a, b), product(b, a), rows, cls))
    return r


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


def theta_row(f: Relation) -> int:
    """The one row of the state I -> X (x) Y that transposes f: X -> Y.

    Row i of f fills bits i * nt .. i * nt + nt - 1.
    """
    nt = f.target.size
    acc = shift = 0
    for row in f.rows:
        acc |= row << shift
        shift += nt
    return acc


def theta(f: Relation) -> Relation:
    return _mk(UNIT, product(f.source, f.target), (theta_row(f),), type(f))


def theta_inv(m: Relation, a: FinSet, b: FinSet) -> Relation:
    if m.source.size != 1 or m.target.size != a.size * b.size:
        raise ShapeMismatch("state boundary does not match (a, b)")
    nt = b.size
    row, mask = m.rows[0], (1 << nt) - 1
    return _mk(a, b, tuple([row >> (i * nt) & mask for i in range(a.size)]), type(m))


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
    return _mk(a, b, tuple(rows), type(r))


def _from_mask(source: FinSet, target: FinSet, mask: int) -> Relation:
    """The relation whose bit i * |target| + j of `mask` relates i to j."""
    nt = target.size
    return _mk(source, target,
               tuple((mask >> (i * nt)) & ((1 << nt) - 1) for i in range(source.size)))


class Relations:
    """Every relation source -> target, ranked by its bitmask: member m is
    `_from_mask(source, target, m)`, made when it is indexed or iterated
    (in mask order).  An index outside range(len) raises `IndexError`."""

    def __init__(self, source: FinSet, target: FinSet):
        self.source, self.target = source, target
        self.n = 1 << (source.size * target.size)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, m: int) -> Relation:
        if not 0 <= m < self.n:
            raise IndexError(f"relation rank {m} outside range({self.n})")
        return _from_mask(self.source, self.target, m)

    def __iter__(self) -> Iterator[Relation]:
        source, target = self.source, self.target
        return (_from_mask(source, target, m) for m in range(self.n))


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
    #: the `Relation` subclass that `identity`, `symmetry` and `reindex` build
    morphism = Relation
    max_object_size = 3

    def compose(self, g, f):
        return compose(f, g)

    def identity(self, a):
        return identity(a, self.morphism)

    def star(self, f):
        return converse(f)

    def tensor(self, f, g):
        return tensor(f, g)

    def tensor_obj(self, a, b):
        return product(a, b)

    def unit(self):
        return UNIT

    def symmetry(self, a, b):
        return symmetry(a, b, self.morphism)

    def reindex(self, a, b, index_map):
        return reindex(a, b, index_map, self.morphism)

    def obj_size(self, a):
        return a.size

    def describe_obj(self, a):
        return repr(list(a.labels))

    def mor_eq(self, f, g):
        # equal sizes and rows; identical endpoints need no size read
        fs, gs, ft, gt = f.source, g.source, f.target, g.target
        return (
            (fs is gs or fs.size == gs.size)
            and (ft is gt or ft.size == gt.size)
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
        return _from_mask(a, b, rng.bits(a.size * b.size))

    def objects(self, max_size=None):
        cap = self.max_object_size if max_size is None else max_size
        return [fin_set(n) for n in range(cap + 1)]

    def enum_hom(self, a, b):
        return Relations(a, b)

    def count_hom(self, a, b):
        return 1 << (a.size * b.size)


class FinRelNuclear(NuclearStructure):
    """Every relation is distinguished; the transpose re-reads its graph."""

    def is_nuclear(self, f) -> bool:
        return True

    def theta(self, f: Relation) -> Relation:
        return theta(f)

    def theta_inv(self, m: Relation, a: FinSet, b: FinSet) -> Relation:
        return theta_inv(m, a, b)

    def factorize(self, h) -> FactorizationResult:
        # Identities are themselves distinguished here, so h = h o id.
        return FactorizationResult(
            True, left=identity(h.source), right=h, middle=h.source
        )


class FinRelTrace(TraceStructure):
    has_param = True

    def trace(self, h):
        return trace_endo(h)

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

    def enum_param_members(self, a, u, b):
        return Relations(product(a, u), product(b, u))


def instance() -> FinRelInstance:
    return FinRelInstance()


def structures():
    inst = FinRelInstance()
    nuc = FinRelNuclear(inst)
    return inst, nuc, FinRelTrace(inst, nuc)
