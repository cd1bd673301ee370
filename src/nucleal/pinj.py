"""Partial injections between finite sets.

A morphism is a partial function, injective where defined.  The
distinguished ideal consists of the maps defined on at most one point,
and transposing such a map just moves its single assignment into a
state on the product.  Traces follow the fixed-point formulas: an
endomorphism in the ideal traces to the identity scalar exactly when
its one assignment is a fixed point, and the parameter-erasing trace
keeps an assignment (x,u) -> (y,u') only when u = u'.

A partial injection is a `nucleal.finrel.Relation` whose rows hold at
most one bit each, and no bit in two rows.  The relation kernel of
`finrel` does all the algebra: `compose`, `converse`, `tensor`,
`theta`, `theta_inv`, the trace and `param_trace` are finrel's, guarded
here by the membership predicates `is_nuclear` and `in_param_class`.
Objects and serialization conventions are shared with `finrel` too, and
`PInjInstance` is finrel's adapter with pinj's hom-sets, scalars and
stricter equality.

Boundary contract: the `PartialInjection` constructor, `from_map`,
`from_json` and the samplers validate their (source index, target
index) pairs: in range, single-valued, injective.  Operations and
enumerators keep the invariant by construction, so they build through
finrel's trusted `_mk`, which checks nothing.  The enumerators
(`enum_pinj`, `_single`, `empty`, `identity`) build through finrel's
`_canon`, so between sets that `fin_set` made each map is one canonical
object, and finrel's `compose`, `tensor`, `converse` and `theta` read
their results on such maps from its op tables.  Two reads of one result
give the same object, so `mor_eq` answers at once on identical
arguments.  `.pairs` is a read-only view of the rows, sorted by source
index.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterator

from nucleal.core.errors import (
    InvariantViolation,
    ParseError,
    ShapeMismatch,
    TraceClassError,
)
from nucleal.core.instance import (
    FactorizationResult,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.rng import Lcg
from nucleal import finrel
from nucleal.finrel import (
    UNIT,
    FinRelInstance,
    FinSet,
    Relation,
    _canon,
    compose,
    converse,
    fin_set,
    finset_from_json,
    finset_to_json,
    index_pairs,
    label_key,
    product,
    tensor,
)


class PartialInjection(Relation):
    """Partial injective map: a relation with at most one bit per row and
    no bit in two rows."""

    def __init__(self, source: FinSet, target: FinSet, pairs):
        ns, nt = source.size, target.size
        rows = [0] * ns
        for i, j in pairs:
            if not (0 <= i < ns and 0 <= j < nt):
                raise InvariantViolation(
                    f"assignment ({i},{j}) outside {ns}x{nt}", witness=(i, j)
                )
            if rows[i]:
                raise InvariantViolation("graph is not single-valued", witness=i)
            rows[i] = 1 << j
        used = [row for row in rows if row]
        if len(set(used)) != len(used):
            raise InvariantViolation("graph is not injective", witness=used)
        self.__dict__.update(source=source, target=target, rows=tuple(rows))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (source index, target index) assignments, sorted."""
        return tuple(index_pairs(self.rows))

    def __repr__(self):
        body = ", ".join(
            f"{self.source.labels[i]!r}->{self.target.labels[j]!r}"
            for i, j in self.pairs
        )
        return f"PartialInjection({{{body}}})"


def _single(source: FinSet, target: FinSet, i: int, j: int) -> PartialInjection:
    """The map defined only at i, sending it to j (trusted)."""
    rows = [0] * source.size
    rows[i] = 1 << j
    return _canon(source, target, tuple(rows), PartialInjection)


def from_map(source: FinSet, target: FinSet, mapping: dict) -> PartialInjection:
    pairs = tuple(
        (source.index(x), target.index(y)) for x, y in mapping.items()
    )
    return PartialInjection(source, target, pairs)


def empty(source: FinSet, target: FinSet) -> PartialInjection:
    return finrel.empty(source, target, PartialInjection)


def identity(x: FinSet) -> PartialInjection:
    return finrel.identity(x, PartialInjection)


def is_nuclear(f: PartialInjection) -> bool:
    """Membership in the distinguished ideal: defined on at most one point."""
    return len(f.rows) - f.rows.count(0) <= 1


def theta(f: PartialInjection) -> PartialInjection:
    if not is_nuclear(f):
        raise TraceClassError("transpose needs a map defined on at most one point")
    return finrel.theta(f)


def theta_inv(m: PartialInjection, a: FinSet, b: FinSet) -> PartialInjection:
    if m.source != UNIT or m.target != product(a, b):
        raise ShapeMismatch("state must run from the unit into the product")
    return finrel.theta_inv(m, a, b)


def trace_endo(f: PartialInjection) -> bool:
    """Scalar trace on the ideal: true iff the single assignment is fixed."""
    if f.source == f.target and not is_nuclear(f):
        raise TraceClassError("endomorphism is outside the trace class")
    return finrel.trace_endo(f)


def is_u_nuclear(f: PartialInjection, left: FinSet, par: FinSet) -> bool:
    """Domain-side parameter condition: each left point uses one parameter."""
    if f.source.size != left.size * par.size:
        raise ShapeMismatch("source does not split over the given factors")
    nu = par.size
    seen: dict[int, int] = {}
    for i, row in enumerate(f.rows):
        if row:
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
    """finrel's partial trace, which keeps (x,u) -> (y,u) as x -> y.

    The parameter condition makes the result a partial injection: each
    x (each y) meets one parameter value, so it keeps at most one
    assignment.
    """
    if not in_param_class(f, left, par, right):
        raise TraceClassError("morphism violates the parameter condition")
    return finrel.param_trace(f, left, par, right)


def enum_pinj(source: FinSet, target: FinSet) -> Iterator[PartialInjection]:
    ns, nt = source.size, target.size
    for k in range(min(ns, nt) + 1):
        for dom in itertools.combinations(range(ns), k):
            for cod in itertools.permutations(range(nt), k):
                rows = [0] * ns
                for i, j in zip(dom, cod):
                    rows[i] = 1 << j
                yield _canon(source, target, tuple(rows), PartialInjection)


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


class PInjInstance(FinRelInstance):
    """Finite sets with partial injections, boolean scalars: finrel's
    adapter on partial injections, with pinj's own hom-sets."""

    name = "pinj"
    morphism = PartialInjection

    def scalar_of(self, s):
        if s.source != UNIT or s.target != UNIT:
            raise ShapeMismatch("scalars live on the unit object")
        return bool(s.rows[0])

    def mor_eq(self, f, g):
        if f is g:  # two table hits on equal arguments
            return True
        # rows first, the cheapest to tell apart; identical ends need no labels
        fs, gs, ft, gt = f.source, g.source, f.target, g.target
        return (
            f.rows == g.rows
            and (fs is gs or fs == gs)
            and (ft is gt or ft == gt)
        )

    def describe(self, f):
        return repr(f)

    def describe_obj(self, a):
        return repr(a)

    def sample_hom(self, rng, a, b):
        return sample_pinj(rng, a, b)

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
                    yield _single(a, b, i, j)

        return gen()

    def count_nuclear(self, a, b):
        return 1 + a.size * b.size

    def factorize(self, h):
        if not any(h.rows):
            mid = UNIT
            return FactorizationResult(
                True, left=empty(h.source, mid), right=empty(mid, h.target), middle=mid
            )
        (i, j), = h.pairs
        mid = h.source
        return FactorizationResult(
            True,
            left=_single(h.source, mid, i, i),
            right=_single(mid, h.target, i, j),
            middle=mid,
        )


class PInjTrace(TraceStructure):
    has_param = True

    def trace(self, h):
        if not self.in_trace_class(h):
            raise TraceClassError("endomorphism is outside the trace class")
        return trace_endo(h)

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

    def enum_param_members(self, a, u, b):
        return [
            f
            for f in enum_pinj(product(a, u), product(b, u))
            if in_param_class(f, a, u, b)
        ]


def instance() -> PInjInstance:
    return PInjInstance()


def structures():
    inst = instance()
    nuc = PInjNuclear(inst)
    return inst, nuc, PInjTrace(inst, nuc)
