"""Finite complete join semilattices and the tightness criterion.

A finite lattice is complete, so sup-preserving maps are exactly the
maps preserving binary joins and bottom.  A morphism f: A -> B is
distinguished (tight) when some function g: B -> A represents it as
f(a) = sup{b | a is not below g(b)}.  The formula is antitone in g, so
f is tight exactly when its least candidate witness
g0(b) = sup{a | b is not below f(a)} represents it; `hr_nuclear`
decides this in O(|A|*|B|) joins.  On every lattice with at most five
elements the identity is tight exactly when the lattice is
distributive, with the diamond M3 and the pentagon N5 as the only
failures.

The definition lets g range over arbitrary functions (the constant top
function represents the zero map but never preserves bottom), yet the
least witness is always a sup map B -> A: g0(bottom) = bottom, and
y v y' <= f(x) exactly when both y and y' are, so g0 preserves joins.
Whether the criterion formula applied to a sup-preserving g always
yields a sup-preserving map is audited by `check_hr_wellformed` rather
than assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from nucleal.core.errors import InvariantViolation, ParseError, ShapeMismatch
from nucleal.core.harness import _Runner
from nucleal.core.report import AxiomReport
from nucleal.finrel import FinSet, fin_set, finset_from_json, finset_to_json


@dataclass(frozen=True)
class FinLattice:
    """Partial order with all binary joins and meets, top, and bottom."""

    elements: FinSet
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = self.elements.size
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise ShapeMismatch("order matrix must be square over the elements")
        if n == 0:
            raise InvariantViolation("a complete lattice needs top and bottom")
        for i in range(n):
            if not self.leq[i][i]:
                raise InvariantViolation("order must be reflexive")
            for j in range(n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise InvariantViolation("order must be antisymmetric")
                for k in range(n):
                    if self.leq[i][j] and self.leq[j][k] and not self.leq[i][k]:
                        raise InvariantViolation("order must be transitive")
        join = [[-1] * n for _ in range(n)]
        meet = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                ubs = [k for k in range(n) if self.leq[i][k] and self.leq[j][k]]
                least = [u for u in ubs if all(self.leq[u][v] for v in ubs)]
                if len(least) != 1:
                    raise InvariantViolation(
                        f"join of {i} and {j} does not exist"
                    )
                join[i][j] = least[0]
                lbs = [k for k in range(n) if self.leq[k][i] and self.leq[k][j]]
                greatest = [l for l in lbs if all(self.leq[v][l] for v in lbs)]
                if len(greatest) != 1:
                    raise InvariantViolation(
                        f"meet of {i} and {j} does not exist"
                    )
                meet[i][j] = greatest[0]
        object.__setattr__(self, "_join", tuple(map(tuple, join)))
        object.__setattr__(self, "_meet", tuple(map(tuple, meet)))
        bot = [i for i in range(n) if all(self.leq[i][j] for j in range(n))]
        top = [i for i in range(n) if all(self.leq[j][i] for j in range(n))]
        if not bot or not top:
            raise InvariantViolation("lattice needs top and bottom")
        object.__setattr__(self, "bot", bot[0])
        object.__setattr__(self, "top", top[0])

    # stored in the instance dict on first read; not a field, so equality
    # and hash are unchanged
    @cached_property
    def size(self) -> int:
        return self.elements.size

    def le(self, i: int, j: int) -> bool:
        return self.leq[i][j]

    def join(self, i: int, j: int) -> int:
        return self._join[i][j]

    def meet(self, i: int, j: int) -> int:
        return self._meet[i][j]

    def sup(self, idxs) -> int:
        out = self.bot
        for i in idxs:
            out = self._join[out][i]
        return out

    def __repr__(self):
        return f"FinLattice({list(self.elements.labels)})"


def opposite(lat: FinLattice) -> FinLattice:
    return FinLattice(
        lat.elements,
        tuple(tuple(lat.leq[j][i] for j in range(lat.size)) for i in range(lat.size)),
    )


def chain(n: int) -> FinLattice:
    return FinLattice(
        fin_set(n), tuple(tuple(i <= j for j in range(n)) for i in range(n))
    )


def _from_covers(labels, strict_pairs) -> FinLattice:
    n = len(labels)
    le = [[i == j for j in range(n)] for i in range(n)]
    for i, j in strict_pairs:
        le[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if le[i][k] and le[k][j]:
                    le[i][j] = True
    return FinLattice(FinSet(tuple(labels)), tuple(map(tuple, le)))


def diamond() -> FinLattice:
    """Boolean lattice on two atoms."""
    return _from_covers(("0", "x", "y", "1"), [(0, 1), (0, 2), (1, 3), (2, 3)])


def m3() -> FinLattice:
    """Three incomparable atoms under a common top: not distributive."""
    return _from_covers(
        ("0", "x", "y", "z", "1"),
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    )


def n5() -> FinLattice:
    """Pentagon: a two-step chain against a lone atom; not distributive."""
    return _from_covers(
        ("0", "a", "c", "b", "1"),
        [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
    )


def is_distributive(lat: FinLattice) -> bool:
    n = lat.size
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = lat.meet(a, lat.join(b, c))
                rhs = lat.join(lat.meet(a, b), lat.meet(a, c))
                if lhs != rhs:
                    return False
    return True


def join_irreducibles(lat: FinLattice) -> list[int]:
    """Elements that are not the join of the elements strictly below them."""
    out = []
    for j in range(lat.size):
        if j == lat.bot:
            continue
        below = [i for i in range(lat.size) if lat.le(i, j) and i != j]
        if lat.sup(below) != j:
            out.append(j)
    return out


@dataclass(frozen=True)
class SupMap:
    """Map preserving bottom and binary joins, hence all sups."""

    source: FinLattice
    target: FinLattice
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source.size:
            raise ShapeMismatch("one value per source element required")
        for v in self.values:
            if not 0 <= v < self.target.size:
                raise InvariantViolation("value out of range")
        if self.values[self.source.bot] != self.target.bot:
            raise InvariantViolation("bottom must map to bottom")
        for a in range(self.source.size):
            for b in range(self.source.size):
                lhs = self.values[self.source.join(a, b)]
                rhs = self.target.join(self.values[a], self.values[b])
                if lhs != rhs:
                    raise InvariantViolation(
                        "joins are not preserved", witness=(a, b)
                    )

    def __call__(self, i: int) -> int:
        return self.values[i]

    def __repr__(self):
        return f"SupMap({list(self.values)})"


def _mk_sup(source: FinLattice, target: FinLattice, values: tuple) -> SupMap:
    """Trusted builder: `values` must be those of a sup map source -> target."""
    f = object.__new__(SupMap)
    f.__dict__.update(source=source, target=target, values=values)
    return f


def identity_sup(lat: FinLattice) -> SupMap:
    return SupMap(lat, lat, tuple(range(lat.size)))


def const_bottom(source: FinLattice, target: FinLattice) -> SupMap:
    return SupMap(source, target, tuple(target.bot for _ in range(source.size)))


def compose_sup(f: SupMap, g: SupMap) -> SupMap:
    """Diagrammatic composite: first f, then g."""
    if f.target != g.source:
        raise ShapeMismatch("middle lattices differ")
    # a composite of sup maps preserves sups
    return _mk_sup(f.source, g.target, tuple(g.values[v] for v in f.values))


def enum_sup_maps(source: FinLattice, target: FinLattice) -> Iterator[SupMap]:
    """All sup maps, generated from free values on join-irreducibles.

    Every sup map is determined by its join-irreducible values, but not
    every assignment extends to one, so extensions are filtered through
    validation.
    """
    ji = join_irreducibles(source)
    seen = set()
    for choice in itertools.product(range(target.size), repeat=len(ji)):
        values = []
        for a in range(source.size):
            values.append(
                target.sup(v for j, v in zip(ji, choice) if source.le(j, a))
            )
        tv = tuple(values)
        if tv in seen:
            continue
        seen.add(tv)
        try:
            yield SupMap(source, target, tv)
        except InvariantViolation:
            continue


def hr_values(
    a: FinLattice, b: FinLattice, g_values: tuple[int, ...]
) -> tuple[int, ...]:
    """The criterion formula: a |-> sup of the b's whose g-image misses a."""
    return tuple(
        b.sup(y for y in range(b.size) if not a.le(x, g_values[y]))
        for x in range(a.size)
    )


@dataclass(frozen=True)
class HRResult:
    """Outcome of the tightness test, with the least witness when tight."""

    nuclear: bool
    witness_values: Optional[tuple[int, ...]] = None


def hr_nuclear(f: SupMap) -> HRResult:
    """Tightness by the least candidate witness.

    hr(g) <= f holds exactly when g >= g0, with g0(y) = sup{x | y is not
    below f(x)}, and the formula is antitone in g; so some g gives
    hr(g) = f iff g0 does.
    """
    a, b = f.source, f.target
    g0 = tuple(
        a.sup(x for x in range(a.size) if not b.le(y, f.values[x]))
        for y in range(b.size)
    )
    if hr_values(a, b, g0) != f.values:
        return HRResult(False)
    return HRResult(True, g0)


def adjoint_values(f: SupMap) -> tuple[int, ...]:
    """Values of the upper adjoint b |-> sup{a | f(a) <= b}."""
    a, b = f.source, f.target
    return tuple(
        a.sup(x for x in range(a.size) if b.le(f.values[x], y))
        for y in range(b.size)
    )


def right_adjoint(f: SupMap) -> SupMap:
    """Upper adjoint, as a sup map between the opposite lattices."""
    return SupMap(opposite(f.target), opposite(f.source), adjoint_values(f))


def galois_law_holds(f: SupMap) -> bool:
    adj = adjoint_values(f)
    a, b = f.source, f.target
    return all(
        b.le(f.values[x], y) == a.le(x, adj[y])
        for x in range(a.size)
        for y in range(b.size)
    )


# -- lattice enumeration ----------------------------------------------------


def _canonical_key(n: int, le) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(
            le[perm[i]][perm[j]] for i in range(n) for j in range(n)
        )
        if best is None or key < best:
            best = key
    return best


def enumerate_lattices(max_elems: int = 5) -> list[FinLattice]:
    """All lattices with at most `max_elems` elements, one per iso class.

    Candidate orders are generated along a fixed linear extension, so
    only the strictly upper triangle varies.  Only lattices are keyed:
    isomorphic duplicates are collapsed by a canonical form over all
    permutations, and since isomorphism preserves lattice-ness, the
    first lattice of each class in mask order is kept.
    """
    out = []
    for n in range(1, max_elems + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for mask in range(1 << len(pairs)):
            le = [[i == j for j in range(n)] for i in range(n)]
            for bit, (i, j) in enumerate(pairs):
                if (mask >> bit) & 1:
                    le[i][j] = True
            ok = True
            for k in range(n):
                for i in range(n):
                    if not le[i][k]:
                        continue
                    for j in range(n):
                        if le[k][j] and not le[i][j]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                continue
            try:
                lat = FinLattice(fin_set(n), tuple(map(tuple, le)))
            except InvariantViolation:
                continue
            key = _canonical_key(n, le)
            if key in seen:
                continue
            seen.add(key)
            out.append(lat)
    return out


def iso_key(lat: FinLattice) -> tuple:
    return _canonical_key(lat.size, lat.leq)


def _lattices_upto(bound: int, lats: Optional[list[FinLattice]]) -> list[FinLattice]:
    """`enumerate_lattices(bound)`, filtered from a larger enumeration when
    one is given (enumeration runs by size, so the order is the same)."""
    if lats is None:
        return enumerate_lattices(bound)
    return [lat for lat in lats if lat.size <= bound]


# -- reports ----------------------------------------------------------------


def check_characterization(
    max_elems: int = 5, lats: Optional[list[FinLattice]] = None
) -> AxiomReport:
    """Identity tight exactly on distributive lattices, at this scale."""
    run = _Runner(f"cjsl-higgs-rowe[<={max_elems}]")
    lats = _lattices_upto(max_elems, lats)
    run.report.flags.append(f"lattices:{len(lats)}")
    bad = []

    def tight_iff_distributive(lat):
        tight = hr_nuclear(identity_sup(lat)).nuclear
        dist = is_distributive(lat)
        if not dist:
            bad.append(lat)
        if tight != dist:
            return f"{lat!r}: tight={tight} but distributive={dist}"

    run.each("tight-iff-distributive", zip(lats), tight_iff_distributive)
    run.report.flags.append(f"non-distributive:{len(bad)}")
    return run.finish()


def check_closure_lemma(
    bound: int = 4, lats: Optional[list[FinLattice]] = None
) -> AxiomReport:
    """Tight maps absorb composition on both sides and pass to adjoints."""
    run = _Runner(f"cjsl-closure[<={bound}]")
    lats = _lattices_upto(bound, lats)
    ops = [opposite(lat) for lat in lats]
    maps = {
        (i, j): list(enum_sup_maps(a, b))
        for i, a in enumerate(lats)
        for j, b in enumerate(lats)
    }
    # composites are sup maps, so membership here is exact tightness
    tight = {
        pair: {f.values for f in ms if hr_nuclear(f).nuclear}
        for pair, ms in maps.items()
    }
    tight_maps = [
        (f, i, j) for (i, j), ms in maps.items() for f in ms
        if f.values in tight[(i, j)]
    ]
    ks = range(len(lats))

    def adjoint(f, i, j):
        if not hr_nuclear(SupMap(ops[j], ops[i], adjoint_values(f))).nuclear:
            return f"adjoint of tight {f!r} is not tight"

    def post(f, g, i, k):
        if compose_sup(f, g).values not in tight[(i, k)]:
            return f"post-composite {f!r};{g!r} is not tight"

    def pre(h, f, k, j):
        if compose_sup(h, f).values not in tight[(k, j)]:
            return f"pre-composite {h!r};{f!r} is not tight"

    run.each("adjoint", tight_maps, adjoint)
    run.each("post-composite", ((f, g, i, k) for f, i, j in tight_maps
                                for k in ks for g in maps[(j, k)]), post)
    run.each("pre-composite", ((h, f, k, j) for f, i, j in tight_maps
                               for k in ks for h in maps[(k, i)]), pre)
    return run.finish()


def check_hr_wellformed(
    bound: int = 4, lats: Optional[list[FinLattice]] = None
) -> AxiomReport:
    """Does the criterion formula send sup maps to sup maps?

    Recorded, not assumed: failures become a documented finding.
    """
    run = _Runner(f"cjsl-hr-wellformed[<={bound}]")
    lats = _lattices_upto(bound, lats)

    def sup_map(g, a, b):
        try:
            SupMap(a, b, hr_values(a, b, g.values))
        except InvariantViolation as exc:
            return (
                f"criterion image of {g!r} between {a!r},{b!r} "
                f"is not a sup map: {exc}"
            )

    run.each("sup-map", ((g, a, b) for a in lats for b in lats
                         for g in enum_sup_maps(b, a)), sup_map)
    run.finding("sup-map", "criterion-image-not-sup-map")
    return run.finish()


def check_galois(
    bound: int = 5, lats: Optional[list[FinLattice]] = None
) -> AxiomReport:
    """Adjunction law for every sup map between enumerated lattices."""
    run = _Runner(f"cjsl-galois[<={bound}]")
    lats = _lattices_upto(bound, lats)

    def galois(f):
        if not galois_law_holds(f):
            return f"Galois law fails for {f!r}"

    run.each("galois", ((f,) for a in lats for b in lats
                        for f in enum_sup_maps(a, b)), galois)
    return run.finish()


# -- serialization ----------------------------------------------------------


def lattice_to_json(lat: FinLattice) -> dict:
    return {
        "elements": finset_to_json(lat.elements),
        "leq": [[1 if v else 0 for v in row] for row in lat.leq],
    }


def lattice_from_json(data) -> FinLattice:
    if not isinstance(data, dict) or not {"elements", "leq"} <= set(data):
        raise ParseError("lattice document needs elements and leq")
    elements = finset_from_json(data["elements"])
    try:
        return FinLattice(
            elements, tuple(tuple(bool(v) for v in row) for row in data["leq"])
        )
    except (InvariantViolation, ShapeMismatch) as exc:
        raise ParseError(f"invalid lattice: {exc}") from exc


def supmap_to_json(f: SupMap) -> dict:
    return {
        "source": lattice_to_json(f.source),
        "target": lattice_to_json(f.target),
        "values": [f.target.elements.labels[v] for v in f.values],
    }


def supmap_from_json(data) -> SupMap:
    if not isinstance(data, dict) or not {"source", "target", "values"} <= set(data):
        raise ParseError("map document needs source, target, values")
    src = lattice_from_json(data["source"])
    tgt = lattice_from_json(data["target"])
    try:
        return SupMap(
            src, tgt, tuple(tgt.elements.index(v) for v in data["values"])
        )
    except (InvariantViolation, ShapeMismatch, ParseError) as exc:
        raise ParseError(f"invalid sup map: {exc}") from exc
