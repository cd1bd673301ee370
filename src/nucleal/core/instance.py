"""Contracts every model family implements for the law harness.

A `CategoryInstance` packages one model family's objects and morphisms
as opaque values plus the operations the harness composes: composition,
identities, tensor, symmetry, star, conjugation, and a `reindex`
primitive that builds the structural isomorphism induced by a bijection
of element slots.  Element slots of a tensor product are always ordered
row-major (index of the pair (i, j) in A (x) B is i * size(B) + j).
`regroup` builds every regrouping and permutation of tensor factors on
top of it from two tensor expressions over named leaves: by coherence
(Mac Lane, 1963) such an isomorphism is fixed by where each leaf goes.

Capability flags (`has_tensor`, `has_unit`, `has_identity`) let partial
models participate: the quadrature-kernel family has none of the three,
and every check skips the laws it cannot state there, flagging the skip
in its report.

`NuclearStructure` adds the distinguished class of morphisms that admit
a transpose to a state (a morphism out of the unit), and
`TraceStructure` adds the induced trace operator, optionally in a
parametrized form.  The distinguished class is an ideal: a composite
with a distinguished factor is distinguished, so a morphism factors
through the ideal exactly when it lies in it.  `factorize` is therefore
asked only for distinguished morphisms and returns one witness.

What a model supplies: `compose`, `star`, `mor_eq`, `obj_size`,
`sample_object` and `sample_hom` on its instance, `is_nuclear` on its
nuclear structure, and `trace` and `sample_equal_factorizations` on its
trace structure.  These have no default and raise `NotImplementedError`
until a model gives them: a membership predicate, a trace or a sampler
that defaulted to some answer (or to no case at all) would let every
law about it pass while checking nothing, so a model that forgets one
must fail loudly instead.

The tolerance of every comparison is the instance's `tol`: `mor_eq`
and `scalar_eq` read it, and no check takes one of its own.  A caller
that wants another tolerance sets `tol` on an instance of its own.

What a model inherits, and overrides only where it differs:
- `source`/`target` read `f.source`/`f.target`;
- `sample_nuclear`, `enum_nuclear` and `count_nuclear` are `sample_hom`,
  `enum_hom` and `count_hom`, as in the models where every map is
  distinguished (finrel, finhilb, finstoch and drelnum's kernels);
- `enum_states`/`sample_state` are `enum_hom`/`sample_hom` from the
  unit into conj(A) (x) B;
- `in_trace_class` holds for an endomorphism (`obj_eq` of its source and
  target) that `is_nuclear`.  The trace class is the ideal the nuclear
  maps generate; they already form an ideal, so its endomorphisms are
  exactly the nuclear endomorphisms;
- `sample_member` draws a nuclear endomorphism with `sample_nuclear`;
- `sample_dinat_pair` draws both maps with `sample_hom`, which is enough
  where every map is distinguished; a smaller ideal (pinj, xrel) draws
  one side with `sample_nuclear`.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional, Sequence

from nucleal.core import scalars
from nucleal.core.errors import UnsupportedCheck
from nucleal.core.rng import Lcg


class CategoryInstance:
    """Operation bundle for one model family.

    Subclasses override the raising methods they support and set the
    capability flags to match.  `compose(g, f)` means "f then g".
    """

    name: str = "abstract"
    scalar_kind: str = scalars.BOOL
    tol: float = 0.0
    has_tensor: bool = True
    has_unit: bool = True
    has_identity: bool = True

    # -- morphism structure -------------------------------------------------

    def source(self, f):
        return f.source

    def target(self, f):
        return f.target

    def compose(self, g, f):
        raise NotImplementedError

    def identity(self, a):
        raise UnsupportedCheck(f"{self.name}: no identities")

    def star(self, f):
        raise NotImplementedError

    def conj(self, f):
        # Identity conjugation is the common case; matrix models override.
        return f

    def conj_obj(self, a):
        return a

    def tensor(self, f, g):
        raise UnsupportedCheck(f"{self.name}: no tensor")

    def tensor_obj(self, a, b):
        raise UnsupportedCheck(f"{self.name}: no tensor")

    def unit(self):
        raise UnsupportedCheck(f"{self.name}: no unit object")

    def iota(self):
        """Unit isomorphism I -> conj(I); default: identity on the unit."""
        return self.identity(self.unit())

    def symmetry(self, a, b):
        """Braiding A (x) B -> B (x) A, built by `regroup`."""
        return self.regroup(("a", "b"), ("b", "a"), a=a, b=b)

    def reindex(self, a, b, index_map: Sequence[int]):
        """Structural iso a -> b sending element slot i to index_map[i]."""
        raise UnsupportedCheck(f"{self.name}: no reindex")

    def regroup(self, src, dst, /, **objs):
        """Structural iso between tensor expressions `src` and `dst`, each a
        leaf name bound in `objs`, "I" for the unit, or a pair (x, y) for
        x (x) y.  Both name the same leaves once and may differ in units;
        leaves are names because in A (x) A the swap is not the identity."""
        sizes = tuple([(name, self.obj_size(x)) for name, x in objs.items()])
        return self.reindex(self._expr_obj(src, objs), self._expr_obj(dst, objs),
                            _slot_map(src, dst, sizes))

    def _expr_obj(self, expr, objs):
        if type(expr) is tuple:
            return self.tensor_obj(self._expr_obj(expr[0], objs), self._expr_obj(expr[1], objs))
        return self.unit() if expr == "I" else objs[expr]

    # -- objects ------------------------------------------------------------

    def obj_size(self, a) -> int:
        raise NotImplementedError

    def obj_eq(self, a, b) -> bool:
        return a == b

    def describe_obj(self, a) -> str:
        return repr(a)

    # -- comparison and rendering ------------------------------------------

    def mor_eq(self, f, g) -> bool:
        """Slot-level equality of morphism data, up to `tol`."""
        raise NotImplementedError

    def describe(self, f) -> str:
        return repr(f)

    def scalar_of(self, f):
        """Scalar value of a morphism between unit-sized objects."""
        raise UnsupportedCheck(f"{self.name}: no scalar extraction")

    def scalar_eq(self, x, y) -> bool:
        return scalars.eq(self.scalar_kind, x, y, self.tol)

    # -- sampling and enumeration ------------------------------------------

    def sample_object(self, rng: Lcg):
        raise NotImplementedError

    def sample_hom(self, rng: Lcg, a, b):
        raise NotImplementedError

    def objects(self, max_size: Optional[int] = None) -> Optional[list]:
        """Canonical object universe for exhaustive runs, or None."""
        return None

    def enum_hom(self, a, b) -> Optional[Iterable]:
        return None

    def count_hom(self, a, b) -> Optional[int]:
        return None


def _leaves(expr) -> list:
    """The leaf names of a tensor expression, left to right, units left out."""
    if type(expr) is tuple:
        return _leaves(expr[0]) + _leaves(expr[1])
    return [] if expr == "I" else [expr]


@functools.cache
def _slot_map(src, dst, sizes: tuple) -> tuple[int, ...]:
    """Row-major slot map of `regroup`, given (name, size) per leaf: a
    source slot's digits, one per leaf (a unit has one slot, no digit),
    go to the target slot with the same digit at each leaf."""
    size = dict(sizes)
    ins, outs = _leaves(src), _leaves(dst)
    if sorted(ins) != sorted(outs) or len(set(ins)) != len(ins):
        raise ValueError(f"regroup needs the same leaves once on each side: {src} -> {dst}")
    at = [ins.index(name) for name in outs]
    out = []
    for digits in itertools.product(*(range(size[name]) for name in ins)):
        j = 0
        for name, k in zip(outs, at):
            j = j * size[name] + digits[k]
        out.append(j)
    return tuple(out)


class FactorizationResult:
    """Outcome of a nuclear factorization.

    `found` with (`left`, `right`, `middle`) exhibits h = right o left
    through `middle`; otherwise h lies outside the ideal and no such
    factorization exists.
    """

    __slots__ = ("found", "left", "right", "middle")

    def __init__(self, found, left=None, right=None, middle=None):
        self.found = found
        self.left = left
        self.right = right
        self.middle = middle

    def __repr__(self):
        if self.found:
            return f"FactorizationResult(found=True, middle={self.middle!r})"
        return "FactorizationResult(found=False)"


class NuclearStructure:
    """The distinguished morphism class with its transpose bijection."""

    #: whether `theta` lands bijectively in Hom(I, conj(A) (x) B); model
    #: families where this is only an audit question set it False.
    theta_onto: bool = True

    def __init__(self, inst: CategoryInstance):
        self.inst = inst

    def is_nuclear(self, f) -> bool:
        raise NotImplementedError

    def theta(self, f):
        """Transpose of a distinguished morphism: a state I -> conj(A) (x) B."""
        raise UnsupportedCheck(f"{self.inst.name}: no transpose map")

    def theta_inv(self, m, a, b):
        raise UnsupportedCheck(f"{self.inst.name}: no transpose map")

    def derived_trace(self, f, g):
        """Scalar of theta(g*)* o theta(f) for f: A -> B, g: B -> A.

        This is the trace the transpose structure induces on the
        composite g o f; families without a representable unit override
        it with a direct formula.
        """
        inst = self.inst
        left = inst.star(self.theta(inst.star(g)))
        return inst.scalar_of(inst.compose(left, self.theta(f)))

    def sample_nuclear(self, rng: Lcg, a, b):
        """Random distinguished a -> b; any map, where every map is."""
        return self.inst.sample_hom(rng, a, b)

    def enum_nuclear(self, a, b) -> Optional[Iterable]:
        """All distinguished a -> b; all of them, where every map is."""
        return self.inst.enum_hom(a, b)

    def count_nuclear(self, a, b) -> Optional[int]:
        return self.inst.count_hom(a, b)

    def enum_states(self, a, b) -> Optional[Iterable]:
        """All of Hom(I, conj(A) (x) B) when enumerable; used for
        round-trip and surjectivity checks."""
        inst = self.inst
        return inst.enum_hom(inst.unit(), inst.tensor_obj(inst.conj_obj(a), b))

    def sample_state(self, rng: Lcg, a, b):
        """Random element of Hom(I, conj(A) (x) B)."""
        inst = self.inst
        return inst.sample_hom(
            rng, inst.unit(), inst.tensor_obj(inst.conj_obj(a), b)
        )

    def factorize(self, h) -> FactorizationResult:
        """h = g o f with both factors distinguished, for a distinguished h."""
        raise UnsupportedCheck(f"{self.inst.name}: no nuclear factorization")


class TraceStructure:
    """Trace operator on the two-sided ideal generated by nuclear maps.

    The parametrized form (`has_param`) is checked only over listed
    objects, and must give its members through `enum_param_members`.
    """

    has_param: bool = False

    def __init__(self, inst: CategoryInstance, nuclear: NuclearStructure):
        self.inst = inst
        self.nuclear = nuclear

    def in_trace_class(self, h) -> bool:
        """A nuclear endomorphism (see the module docstring)."""
        inst = self.inst
        return (
            inst.obj_eq(inst.source(h), inst.target(h))
            and self.nuclear.is_nuclear(h)
        )

    def trace(self, h):
        """Scalar trace of an endomorphism in the trace class."""
        raise NotImplementedError

    def sample_member(self, rng: Lcg, a):
        """Random endomorphism of `a` inside the trace class."""
        return self.nuclear.sample_nuclear(rng, a, a)

    def enum_members(self, a) -> Optional[Iterable]:
        """All trace-class endomorphisms of `a`, or None when infeasible."""
        return None

    def sample_dinat_pair(self, rng: Lcg, a, b):
        """Random (f: a -> b, g: b -> a) with g o f in the trace class."""
        return self.inst.sample_hom(rng, a, b), self.inst.sample_hom(rng, b, a)

    def sample_equal_factorizations(self, rng: Lcg):
        """Two nuclear factorizations of one morphism.

        Returns ((f, g), (f2, g2)) with g o f = g2 o f2, both factors
        nuclear on each side, for factorization-independence checks.
        """
        raise NotImplementedError

    # -- parametrized form --------------------------------------------------

    def in_param_class(self, f, a, u, b) -> bool:
        raise UnsupportedCheck(f"{self.inst.name}: no parametrized trace")

    def param_trace(self, f, a, u, b):
        """Partial trace over u of f: a (x) u -> b (x) u."""
        raise UnsupportedCheck(f"{self.inst.name}: no parametrized trace")

    def enum_param_members(self, a, u, b) -> Sequence:
        """Every member of the class over (a, u, b); a structure with
        `has_param` must give them, over objects the instance lists.

        The result is held as it is, never listed: it has a length,
        takes an index and iterates in index order.  A list qualifies,
        and so does a family that makes a member when it is indexed
        (finrel's `Relations`)."""
        raise UnsupportedCheck(f"{self.inst.name}: no parametrized trace")
