"""Partial injections between finite sets.

A morphism is a partial function, injective where defined.  The
distinguished ideal consists of the maps defined on at most one point,
and transposing such a map just moves its single assignment into a
state on the product.  Traces follow the fixed-point formulas: an
endomorphism in the ideal traces to the identity scalar exactly when
its one assignment is a fixed point, and the parameter-erasing trace
keeps an assignment (x,u) -> (y,u') only when u = u'.

Objects and serialization conventions are shared with `nucleal.finrel`.

Boundary contract: the `PartialInjection` constructor, `from_map`,
`from_json` and the samplers validate (indices in range, single-valued,
injective) and sort the pairs into normal form.  Operations and
enumerators (`compose`, `converse`, `tensor`, `theta`, `param_trace`,
`enum_pinj`, ...) keep both the invariants and the sorted normal form
by construction, so they build through the trusted `_mk`, which checks
nothing.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from nucleal.core.errors import (
    InvariantViolation,
    ParseError,
    ShapeMismatch,
    TraceClassError,
)
from nucleal.core.instance import (
    CategoryInstance,
    FactorizationResult,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.rng import Lcg
from nucleal.core import scalars
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
class PartialInjection:
    """Partial injective map, stored as sorted (source index, target index) pairs."""

    source: FinSet
    target: FinSet
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ns, nt = self.source.size, self.target.size
        doms = [i for i, _ in self.pairs]
        cods = [j for _, j in self.pairs]
        for i, j in self.pairs:
            if not (0 <= i < ns and 0 <= j < nt):
                raise InvariantViolation(
                    f"assignment ({i},{j}) outside {ns}x{nt}", witness=(i, j)
                )
        if len(set(doms)) != len(doms):
            raise InvariantViolation("graph is not single-valued", witness=doms)
        if len(set(cods)) != len(cods):
            raise InvariantViolation("graph is not injective", witness=cods)
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    def dom_size(self) -> int:
        return len(self.pairs)

    def graph_labels(self) -> dict:
        return {
            self.source.labels[i]: self.target.labels[j] for i, j in self.pairs
        }

    def __repr__(self):
        body = ", ".join(
            f"{self.source.labels[i]!r}->{self.target.labels[j]!r}"
            for i, j in self.pairs
        )
        return f"PartialInjection({{{body}}})"


def _mk(source: FinSet, target: FinSet, pairs: tuple) -> PartialInjection:
    """Trusted builder: `pairs` must be a sorted tuple of in-range pairs,
    single-valued and injective."""
    f = object.__new__(PartialInjection)
    f.__dict__.update(source=source, target=target, pairs=pairs)
    return f


def from_map(source: FinSet, target: FinSet, mapping: dict) -> PartialInjection:
    pairs = tuple(
        (source.index(x), target.index(y)) for x, y in mapping.items()
    )
    return PartialInjection(source, target, pairs)


def empty(source: FinSet, target: FinSet) -> PartialInjection:
    return _mk(source, target, ())


def identity(x: FinSet) -> PartialInjection:
    return _mk(x, x, tuple([(i, i) for i in range(x.size)]))


def compose(f: PartialInjection, g: PartialInjection) -> PartialInjection:
    """Diagrammatic composite: first f, then g."""
    if f.target != g.source:
        raise ShapeMismatch(f"cannot chain {f.target} into {g.source}")
    gmap = dict(g.pairs)
    # f's pairs are sorted by source index, and filtering keeps that order
    pairs = tuple([(i, gmap[j]) for i, j in f.pairs if j in gmap])
    return _mk(f.source, g.target, pairs)


def converse(f: PartialInjection) -> PartialInjection:
    return _mk(f.target, f.source, tuple(sorted([(j, i) for i, j in f.pairs])))


def tensor(f: PartialInjection, g: PartialInjection) -> PartialInjection:
    src = product(f.source, g.source)
    tgt = product(f.target, g.target)
    nt2 = g.target.size
    ns2 = g.source.size
    # lexicographic in (i1, i2) and i2 < ns2, so already sorted
    pairs = tuple([
        (i1 * ns2 + i2, j1 * nt2 + j2)
        for i1, j1 in f.pairs
        for i2, j2 in g.pairs
    ])
    return _mk(src, tgt, pairs)


def reindex(a: FinSet, b: FinSet, index_map: Sequence[int]) -> PartialInjection:
    """Total bijection realizing a structural relabeling of slots."""
    if len(index_map) != a.size or sorted(index_map) != list(range(b.size)):
        raise ShapeMismatch(
            f"index map of length {len(index_map)} is not a bijection "
            f"{a.size} -> {b.size}"
        )
    return _mk(a, b, tuple(enumerate(index_map)))


def is_nuclear(f: PartialInjection) -> bool:
    """Membership in the distinguished ideal: defined on at most one point."""
    return len(f.pairs) <= 1


def theta(f: PartialInjection) -> PartialInjection:
    if not is_nuclear(f):
        raise TraceClassError("transpose needs a map defined on at most one point")
    tgt = product(f.source, f.target)
    if not f.pairs:
        return empty(UNIT, tgt)
    (i, j), = f.pairs
    return _mk(UNIT, tgt, ((0, i * f.target.size + j),))


def theta_inv(m: PartialInjection, a: FinSet, b: FinSet) -> PartialInjection:
    if m.source != UNIT or m.target != product(a, b):
        raise ShapeMismatch("state must run from the unit into the product")
    if not m.pairs:
        return empty(a, b)
    (_, k), = m.pairs
    return _mk(a, b, ((k // b.size, k % b.size),))


def trace_endo(f: PartialInjection) -> bool:
    """Scalar trace on the ideal: true iff the single assignment is fixed."""
    if f.source != f.target:
        raise ShapeMismatch("trace needs an endomorphism")
    if len(f.pairs) > 1:
        raise TraceClassError("endomorphism is outside the trace class")
    return bool(f.pairs) and f.pairs[0][0] == f.pairs[0][1]


def is_u_nuclear(f: PartialInjection, left: FinSet, par: FinSet) -> bool:
    """Domain-side parameter condition: each left point uses one parameter."""
    if f.source.size != left.size * par.size:
        raise ShapeMismatch("source does not split over the given factors")
    nu = par.size
    seen: dict[int, int] = {}
    for i, _ in f.pairs:
        x, u = divmod(i, nu)
        if seen.setdefault(x, u) != u:
            return False
    return True


def in_param_class(
    f: PartialInjection, left: FinSet, par: FinSet, right: FinSet
) -> bool:
    """Both-sided parameter condition for the parameter-erasing trace."""
    if f.target.size != right.size * par.size:
        raise ShapeMismatch("target does not split over the given factors")
    return is_u_nuclear(f, left, par) and is_u_nuclear(converse(f), right, par)


def param_trace(
    f: PartialInjection, left: FinSet, par: FinSet, right: FinSet
) -> PartialInjection:
    if not in_param_class(f, left, par, right):
        raise TraceClassError("morphism violates the parameter condition")
    nu = par.size
    pairs = []
    for i, j in f.pairs:
        x, u = divmod(i, nu)
        y, u2 = divmod(j, nu)
        if u == u2:
            pairs.append((x, y))
    # The parameter condition makes the result a partial injection: each
    # x (each y) meets one parameter value, so it keeps at most one pair.
    # Kept pairs follow f's source order, so they stay sorted.
    return _mk(left, right, tuple(pairs))


def enum_pinj(source: FinSet, target: FinSet) -> Iterator[PartialInjection]:
    ns, nt = source.size, target.size
    for k in range(min(ns, nt) + 1):
        for dom in itertools.combinations(range(ns), k):
            for cod in itertools.permutations(range(nt), k):
                yield _mk(source, target, tuple(zip(dom, cod)))


def count_pinj(ns: int, nt: int) -> int:
    return sum(
        math.comb(ns, k) * math.comb(nt, k) * math.factorial(k)
        for k in range(min(ns, nt) + 1)
    )


def sample_pinj(rng: Lcg, source: FinSet, target: FinSet) -> PartialInjection:
    k = rng.below(min(source.size, target.size) + 1)
    dom = rng.subset(list(range(source.size)), k)
    cod = rng.subset(list(range(target.size)), k)
    rng.shuffle(cod)
    return PartialInjection(source, target, tuple(zip(dom, cod)))


# -- serialization ----------------------------------------------------------


def _key_to_label(key: str, x: FinSet):
    if key in x.labels:
        return key
    try:
        decoded = json.loads(key)
    except json.JSONDecodeError as exc:
        raise ParseError(f"unknown graph key {key!r}") from exc

    def fix(v):
        return tuple(fix(u) for u in v) if isinstance(v, list) else v

    return fix(decoded)


def to_json(f: PartialInjection) -> dict:
    return {
        "source": finset_to_json(f.source),
        "target": finset_to_json(f.target),
        "graph": {
            label_key(f.source.labels[i]): label_key(f.target.labels[j])
            for i, j in f.pairs
        },
    }


def from_json(data: dict) -> PartialInjection:
    if not isinstance(data, dict):
        raise ParseError("partial injection document must be an object")
    for key in ("source", "target", "graph"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
    src = finset_from_json(data["source"])
    tgt = finset_from_json(data["target"])
    graph = data["graph"]
    if not isinstance(graph, dict):
        raise ParseError("graph must be an object")
    try:
        mapping = {
            _key_to_label(k, src): _key_to_label(str(v), tgt)
            for k, v in graph.items()
        }
        return from_map(src, tgt, mapping)
    except (ShapeMismatch, InvariantViolation) as exc:
        raise ParseError(f"invalid graph: {exc}") from exc


# -- instance adapters ------------------------------------------------------


class PInjInstance(CategoryInstance):
    """Finite sets with partial injections, boolean scalars."""

    name = "pinj"
    scalar_kind = scalars.BOOL

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

    def scalar_of(self, s):
        if s.source != UNIT or s.target != UNIT:
            raise ShapeMismatch("scalars live on the unit object")
        return bool(s.pairs)

    def mor_eq(self, f, g, tol=None):
        return (
            f.source == g.source and f.target == g.target and f.pairs == g.pairs
        )

    def obj_size(self, a):
        return a.size

    def describe(self, f):
        return repr(f)

    def describe_obj(self, a):
        return repr(a)

    def sample_object(self, rng):
        return fin_set(rng.below(self.max_object_size + 1))

    def sample_hom(self, rng, a, b):
        return sample_pinj(rng, a, b)

    def objects(self, max_size=None):
        cap = self.max_object_size if max_size is None else max_size
        return [fin_set(n) for n in range(cap + 1)]

    def enum_hom(self, a, b):
        return enum_pinj(a, b)

    def count_hom(self, a, b):
        return count_pinj(a.size, b.size)


class PInjNuclear(NuclearStructure):
    def is_nuclear(self, f):
        return is_nuclear(f)

    def theta(self, f):
        return theta(f)

    def theta_inv(self, m, a, b):
        return theta_inv(m, a, b)

    def sample_nuclear(self, rng, a, b):
        if a.size == 0 or b.size == 0 or rng.below(4) == 0:
            return empty(a, b)
        return PartialInjection(
            a, b, ((rng.below(a.size), rng.below(b.size)),)
        )

    def enum_nuclear(self, a, b):
        def gen():
            yield empty(a, b)
            for i in range(a.size):
                for j in range(b.size):
                    yield _mk(a, b, ((i, j),))

        return gen()

    def count_nuclear(self, a, b):
        return 1 + a.size * b.size

    def enum_states(self, a, b):
        return enum_pinj(UNIT, product(a, b))

    def sample_state(self, rng, a, b):
        return sample_pinj(rng, UNIT, product(a, b))

    def factorize(self, h, bound):
        # any composite with a factor in the ideal stays in the ideal,
        # so two or more assignments rule a factorization out entirely
        if len(h.pairs) > 1:
            return FactorizationResult(False, conclusive=True)
        if not h.pairs:
            mid = UNIT
            return FactorizationResult(
                True, left=empty(h.source, mid), right=empty(mid, h.target), middle=mid
            )
        (i, j), = h.pairs
        mid = h.source
        return FactorizationResult(
            True,
            left=_mk(h.source, mid, ((i, i),)),
            right=_mk(mid, h.target, ((i, j),)),
            middle=mid,
        )


class PInjTrace(TraceStructure):
    has_param = True

    def in_trace_class(self, h):
        return h.source == h.target and is_nuclear(h)

    def trace(self, h):
        if not self.in_trace_class(h):
            raise TraceClassError("endomorphism is outside the trace class")
        return trace_endo(h)

    def sample_member(self, rng, a):
        return self.nuclear.sample_nuclear(rng, a, a)

    def enum_members(self, a):
        return self.nuclear.enum_nuclear(a, a)

    def sample_dinat_pair(self, rng, a, b):
        if rng.below(2) == 0:
            return self.nuclear.sample_nuclear(rng, a, b), sample_pinj(rng, b, a)
        return sample_pinj(rng, a, b), self.nuclear.sample_nuclear(rng, b, a)

    def sample_equal_factorizations(self, rng):
        inst = self.inst
        a = inst.sample_object(rng)
        h = self.nuclear.sample_nuclear(rng, a, a)
        outs = []
        for _ in range(2):
            mid = fin_set(1 + rng.below(inst.max_object_size))
            if not h.pairs:
                outs.append((empty(a, mid), empty(mid, a)))
                continue
            (i, j), = h.pairs
            z = rng.below(mid.size)
            outs.append(
                (
                    PartialInjection(a, mid, ((i, z),)),
                    PartialInjection(mid, a, ((z, j),)),
                )
            )
        return tuple(outs)

    def in_param_class(self, f, a, u, b):
        return in_param_class(f, a, u, b)

    def param_trace(self, f, a, u, b):
        return param_trace(f, a, u, b)

    def sample_param_member(self, rng, a, u, b):
        if u.size == 0:
            return empty(product(a, u), product(b, u))
        k = rng.below(min(a.size, b.size) + 1)
        xs = rng.subset(list(range(a.size)), k)
        ys = rng.subset(list(range(b.size)), k)
        rng.shuffle(ys)
        pairs = tuple(
            (x * u.size + rng.below(u.size), y * u.size + rng.below(u.size))
            for x, y in zip(xs, ys)
        )
        return PartialInjection(product(a, u), product(b, u), pairs)

    def enum_param_members(self, a, u, b):
        return [
            f
            for f in enum_pinj(product(a, u), product(b, u))
            if in_param_class(f, a, u, b)
        ]


def instance(max_object_size: int = 3) -> PInjInstance:
    return PInjInstance(max_object_size)


def structures(max_object_size: int = 3):
    inst = instance(max_object_size)
    nuc = PInjNuclear(inst)
    return inst, nuc, PInjTrace(inst, nuc)
