"""Grid-sampled smooth kernels on real intervals with quadrature composition.

Morphisms are two-variable kernels sampled on uniform grids; composition
integrates out the middle variable with composite Simpson weights, and
the trace integrates the diagonal.  The category has no unit object, no
identities, and no tensor here: every representable morphism is already
in the distinguished ideal, and the Dirac identity is demonstrably not
representable on a grid.  The instance adapters declare those gaps so
the generic harness runs only the laws that make sense.

Pairing, associativity, and trace symmetry are exact reassociations of
one discrete triple sum, so they hold to rounding error at any
resolution; the genuinely approximate statements (refinement
convergence, the Dirac obstruction) get their own checks on a pinned
Gaussian fixture family: the kernels of `FIXTURE_KERNEL_PARAMS` and the
test functions of `FIXTURE_TESTFN_PARAMS`, on [-1, 1] at `FIXTURE_N`
nodes, checked to `DEFAULT_TOL`.  The pairing, associativity and trace
symmetry checks compose each ordered pair of fixture kernels once, on
the first case that needs it, into a table local to the call, and read
it from there (associativity composes each triple's two outer
composites afresh); refinement keeps one pair of composites at a time.

Boundary contract: `grid_kernel`, `test_fn`, `quad`, the `Interval`
constructor and the JSON readers validate (shape, finiteness, and a
`SupportWarning` when samples are not negligible at the boundary), and
so do `gaussian_kernel` and `gaussian_test_fn`, which build through
them.  The instance's `sample_hom` builds its sum of windowed Gaussians
trusted: each term is a bounded amplitude times a Gaussian times a
window that is exactly 0 at both ends, so it is finite and vanishes on
the boundary by construction.  Model operations (`compose`, `star`,
`scale`) build their results directly.  Each `Interval`
computes its `nodes()`, `weights()` and bump window once, on first use,
and hands out the same read-only arrays after that.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from nucleal.core import scalars
from nucleal.core.errors import (
    InvariantViolation,
    ParseError,
    ShapeMismatch,
    TraceClassError,
    UnsupportedCheck,
)
from nucleal.core.harness import _Runner
from nucleal.core.instance import (
    CategoryInstance,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.report import AxiomReport

DEFAULT_TOL = 1e-6
FIXTURE_N = 201
BOUNDARY_WARN = 1e-6


class SupportWarning(UserWarning):
    """Samples are not negligible at the interval boundary."""


@dataclass(frozen=True)
class Interval:
    """Uniform grid on a real interval; node count odd for Simpson weights."""

    lower: float
    upper: float
    n: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise InvariantViolation("interval endpoints out of order")
        if self.n < 3 or self.n % 2 == 0:
            raise InvariantViolation("node count must be odd and at least 3")

    @property
    def step(self) -> float:
        return (self.upper - self.lower) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return self._nodes

    def weights(self) -> np.ndarray:
        return self._weights

    # cached_property stores into the instance dict, which the frozen
    # dataclass allows; the fields, and so equality and hash, are unchanged
    @cached_property
    def _nodes(self) -> np.ndarray:
        return _read_only(np.linspace(self.lower, self.upper, self.n))

    @cached_property
    def _weights(self) -> np.ndarray:
        w = np.ones(self.n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return _read_only(w * (self.step / 3.0))

    @cached_property
    def _window(self) -> np.ndarray:
        t = (2.0 * self._nodes - (self.lower + self.upper)) / (
            self.upper - self.lower
        )
        w = np.zeros(self.n)
        inside = np.abs(t) < 1.0
        w[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
        return _read_only(w)

    def refined(self) -> "Interval":
        """Same interval with halved spacing; shares every original node."""
        return Interval(self.lower, self.upper, 2 * self.n - 1)

    def __repr__(self):
        return f"[{self.lower:g},{self.upper:g}]@{self.n}"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def quad(values, interval: Interval) -> float:
    """Composite Simpson approximation of the integral over the interval."""
    v = np.asarray(values, dtype=float)
    if v.shape != (interval.n,):
        raise ShapeMismatch(f"expected {interval.n} samples, got {v.shape}")
    return float(interval.weights() @ v)


def _boundary_defect(samples: np.ndarray) -> float:
    peak = float(np.max(np.abs(samples)))
    if peak == 0.0:
        return 0.0
    if samples.ndim == 1:
        edge = max(abs(float(samples[0])), abs(float(samples[-1])))
    else:
        edge = max(
            float(np.max(np.abs(samples[0]))),
            float(np.max(np.abs(samples[-1]))),
            float(np.max(np.abs(samples[:, 0]))),
            float(np.max(np.abs(samples[:, -1]))),
        )
    return edge / peak


@dataclass(frozen=True, eq=False)
class GridKernel:
    """Two-variable kernel sampled at source x target grid nodes."""

    source: Interval
    target: Interval
    samples: np.ndarray

    def __repr__(self):
        peak = float(np.max(np.abs(self.samples))) if self.samples.size else 0.0
        return f"GridKernel({self.source!r}->{self.target!r}, peak={peak:.3g})"


@dataclass(frozen=True, eq=False)
class TestFn:
    """Smooth compactly supported function sampled on one grid."""

    domain: Interval
    samples: np.ndarray

    def __repr__(self):
        peak = float(np.max(np.abs(self.samples))) if self.samples.size else 0.0
        return f"TestFn({self.domain!r}, peak={peak:.3g})"


def grid_kernel(source: Interval, target: Interval, samples) -> GridKernel:
    s = np.asarray(samples, dtype=float)
    if s.shape != (source.n, target.n):
        raise ShapeMismatch(
            f"kernel shape {s.shape} does not match grids "
            f"({source.n}, {target.n})"
        )
    if not np.all(np.isfinite(s)):
        raise InvariantViolation("kernel samples must be finite")
    if _boundary_defect(s) > BOUNDARY_WARN:
        warnings.warn(
            "kernel is not negligible at the boundary; compact support "
            "is assumed by every integral identity",
            SupportWarning,
            stacklevel=2,
        )
    s.setflags(write=False)
    return GridKernel(source, target, s)


def test_fn(domain: Interval, samples) -> TestFn:
    s = np.asarray(samples, dtype=float)
    if s.shape != (domain.n,):
        raise ShapeMismatch(f"expected {domain.n} samples, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvariantViolation("samples must be finite")
    if _boundary_defect(s) > BOUNDARY_WARN:
        warnings.warn(
            "test function is not negligible at the boundary",
            SupportWarning,
            stacklevel=2,
        )
    s.setflags(write=False)
    return TestFn(domain, s)


def zero_kernel(source: Interval, target: Interval) -> GridKernel:
    return grid_kernel(source, target, np.zeros((source.n, target.n)))


def apply_left(k: GridKernel, phi: TestFn) -> TestFn:
    """Integrate the kernel against a function of its source variable."""
    if phi.domain != k.source:
        raise ShapeMismatch("function lives on the wrong grid")
    out = (k.source.weights() * phi.samples) @ k.samples
    return TestFn(k.target, out)


def apply_right(k: GridKernel, psi: TestFn) -> TestFn:
    """Integrate the kernel against a function of its target variable."""
    if psi.domain != k.target:
        raise ShapeMismatch("function lives on the wrong grid")
    out = k.samples @ (k.target.weights() * psi.samples)
    return TestFn(k.source, out)


def pair_with(k: GridKernel, phi: TestFn, psi: TestFn) -> float:
    """Evaluate the kernel on a product of test functions."""
    return quad(apply_left(k, phi).samples * psi.samples, k.target)


def compose(f: GridKernel, g: GridKernel) -> GridKernel:
    """Integrate out the middle variable: first f, then g."""
    if f.target != g.source:
        raise ShapeMismatch(
            f"middle grids differ: {f.target!r} vs {g.source!r}"
        )
    mid_w = f.target.weights()
    alpha = f.samples @ (mid_w[:, None] * g.samples)
    return GridKernel(f.source, g.target, alpha)


def star(k: GridKernel) -> GridKernel:
    """Swap the two variables; kernels are real, so no conjugation."""
    return GridKernel(k.target, k.source, k.samples.T)


def scale(k: GridKernel, c: float) -> GridKernel:
    return GridKernel(k.source, k.target, c * k.samples)


def kernel_distance(k1: GridKernel, k2: GridKernel) -> float:
    if k1.source != k2.source or k1.target != k2.target:
        raise ShapeMismatch("kernels live on different grids")
    return float(np.max(np.abs(k1.samples - k2.samples)))


def trace(h: GridKernel) -> float:
    """Integral of the diagonal; needs equal source and target grids."""
    if h.source != h.target:
        raise ShapeMismatch("trace needs an endomorphism on one grid")
    return quad(np.diagonal(h.samples).copy(), h.source)


# -- smooth fixtures --------------------------------------------------------


def bump_window(interval: Interval) -> np.ndarray:
    """Smooth window equal to 1 at the midpoint and exactly 0 at the ends;
    the interval's cached, read-only array."""
    return interval._window


def _gaussian(
    source: Interval,
    target: Interval,
    x0: float,
    y0: float,
    width: float,
    amp: float,
) -> np.ndarray:
    """Samples of the windowed Gaussian bump centered at (x0, y0)."""
    xs = source.nodes()[:, None]
    ys = target.nodes()[None, :]
    g = amp * np.exp(-(((xs - x0) ** 2) + ((ys - y0) ** 2)) / width**2)
    return g * source._window[:, None] * target._window[None, :]


def gaussian_kernel(
    source: Interval,
    target: Interval,
    x0: float,
    y0: float,
    width: float,
    amp: float = 1.0,
) -> GridKernel:
    """Windowed Gaussian bump centered at (x0, y0)."""
    return grid_kernel(source, target, _gaussian(source, target, x0, y0, width, amp))


def gaussian_test_fn(
    domain: Interval, x0: float, width: float, amp: float = 1.0
) -> TestFn:
    xs = domain.nodes()
    g = amp * np.exp(-((xs - x0) ** 2) / width**2) * bump_window(domain)
    return test_fn(domain, g)


# Pinned fixture family on [-1, 1]: centers, widths, amplitudes.
FIXTURE_KERNEL_PARAMS = (
    (-0.3, 0.2, 0.35, 1.0),
    (0.25, -0.1, 0.3, 0.8),
    (0.0, 0.0, 0.45, -0.6),
    (0.4, 0.35, 0.25, 1.2),
)
FIXTURE_TESTFN_PARAMS = (
    (-0.2, 0.3, 1.0),
    (0.3, 0.25, -0.7),
    (0.0, 0.4, 0.9),
)


def fixture_interval(n: int = FIXTURE_N) -> Interval:
    return Interval(-1.0, 1.0, n)


def fixture_kernels(n: int = FIXTURE_N) -> list[GridKernel]:
    box = fixture_interval(n)
    return [
        gaussian_kernel(box, box, x0, y0, w, a)
        for x0, y0, w, a in FIXTURE_KERNEL_PARAMS
    ]


def fixture_test_fns(n: int = FIXTURE_N) -> list[TestFn]:
    box = fixture_interval(n)
    return [
        gaussian_test_fn(box, x0, w, a)
        for x0, w, a in FIXTURE_TESTFN_PARAMS
    ]


# -- fixture-family checks --------------------------------------------------


def _composites():
    """A fresh `composed(f, g)`: `compose(f, g)` made on first use and
    read from a table after, keyed by the operands' ids, which must stay
    alive while it is used.

    Each check makes its own inside the call, so nothing is kept across
    calls.  The law that needs an entry makes it, so a `compose` that
    raises fails each case that needs that entry, as a direct call would.
    `compose` is looked up when an entry is made, so a patched one is the
    one called.
    """
    table = {}

    def composed(f, g):
        key = (id(f), id(g))
        fg = table.get(key)
        if fg is None:
            fg = table[key] = compose(f, g)
        return fg

    return composed


def check_pairing(n: int = FIXTURE_N) -> AxiomReport:
    """Composite kernels pair with products the way iterated integrals do."""
    run = _Runner("drel-pairing")
    box = fixture_interval(n)
    kers = fixture_kernels(n)
    fns = fixture_test_fns(n)
    composed = _composites()

    def composite(f, g, phi, psi):
        iterated = quad(apply_left(f, phi).samples * apply_right(g, psi).samples, box)
        gap = abs(iterated - pair_with(composed(f, g), phi, psi))
        if gap > DEFAULT_TOL:
            return f"pairing gap {gap:.3g} for {f!r};{g!r}"

    def sides(f, phi, psi):
        lhs = quad(apply_left(f, phi).samples * psi.samples, box)
        rhs = quad(phi.samples * apply_right(f, psi).samples, box)
        if abs(lhs - rhs) > DEFAULT_TOL:
            return f"left/right application disagree by {abs(lhs - rhs):.3g}"

    run.each("composite", itertools.product(kers, kers, fns, fns), composite)
    run.each("sides", itertools.product(kers, fns, fns), sides)
    return run.finish()


def check_associativity(n: int = FIXTURE_N) -> AxiomReport:
    run = _Runner("drel-associativity")
    composed = _composites()  # pairs of fixtures; each outer composite is used once

    def associativity(f, g, h):
        d = kernel_distance(compose(composed(f, g), h), compose(f, composed(g, h)))
        if d > DEFAULT_TOL:
            return f"associativity gap {d:.3g}"

    run.each("associativity", itertools.product(fixture_kernels(n), repeat=3),
             associativity)
    return run.finish()


def check_trace_symmetry(n: int = FIXTURE_N) -> AxiomReport:
    run = _Runner("drel-trace-symmetry")
    composed = _composites()

    def symmetry(f, g):
        d = abs(trace(composed(f, g)) - trace(composed(g, f)))
        if d > DEFAULT_TOL:
            return f"trace asymmetry {d:.3g} for {f!r},{g!r}"

    run.each("symmetry", itertools.product(fixture_kernels(n), repeat=2), symmetry)
    return run.finish()


def check_refinement(n: int = FIXTURE_N) -> AxiomReport:
    """Halving the grid spacing moves composites and traces below tolerance."""
    run = _Runner("drel-refinement")
    coarse = fixture_kernels(n)
    fine = fixture_kernels(2 * n - 1)

    def integral(fc, ff):
        d = abs(quad(fc.samples, fc.domain) - quad(ff.samples, ff.domain))
        if d > DEFAULT_TOL:
            return f"test-function integral moved by {d:.3g}"

    @lru_cache(maxsize=1)
    def composites(i, j):
        return compose(coarse[i], coarse[j]), compose(fine[i], fine[j])

    def composite(i, j):
        kc, kf = composites(i, j)
        d = float(np.max(np.abs(kc.samples - kf.samples[::2, ::2])))
        if d > DEFAULT_TOL:
            return f"composite moved by {d:.3g} under refinement"

    def trace_moved(i, j):
        kc, kf = composites(i, j)
        dt = abs(trace(kc) - trace(kf))
        if dt > DEFAULT_TOL:
            return f"trace moved by {dt:.3g} under refinement"

    run.each("integral", zip(fixture_test_fns(n), fixture_test_fns(2 * n - 1)),
             integral)
    # the two sub-laws alternate, so one pair of composites is alive at a time
    for ij in itertools.product(range(len(coarse)), repeat=2):
        run.each("composite", [ij], composite)
        run.each("trace", [ij], trace_moved)
    return run.finish()


DIRAC_FLOOR = 1e-2


def check_dirac_obstruction(n: int = FIXTURE_N) -> AxiomReport:
    """No windowed Gaussian ridge acts as the identity on the fixtures.

    Sweeps diagonal-ridge candidates over widths from two grid steps up
    to a quarter interval, each with its least-squares optimal
    amplitude, and requires every relative error to stay above a fixed
    floor.  The identity would need a delta ridge, which no grid
    function supplies.
    """
    run = _Runner("drel-dirac-obstruction")
    box = fixture_interval(n)
    kers = fixture_kernels(n)
    xs = box.nodes()
    window = bump_window(box)
    defects = []

    def candidate(s):
        ridge = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / s**2)
        ridge = ridge * window[:, None] * window[None, :]
        cand = GridKernel(box, box, ridge)
        num = 0.0
        den = 0.0
        images = []
        for f in kers:
            u = compose(cand, f).samples
            images.append(u)
            num += float(np.sum(u * f.samples))
            den += float(np.sum(u * u))
        amp = num / den if den > 0 else 0.0
        defect = max(
            float(np.max(np.abs(amp * u - f.samples)))
            / float(np.max(np.abs(f.samples)))
            for u, f in zip(images, kers)
        )
        defects.append(defect)
        if defect < DIRAC_FLOOR:
            return (
                f"a ridge of width {s:.3g} imitates the identity to {defect:.3g}; "
                f"expected at least {DIRAC_FLOOR:g}"
            )

    widths = np.geomspace(2 * box.step, (box.upper - box.lower) / 4, 12)
    run.each("ridge", zip(widths), candidate)
    if run.report.ok:
        run.report.flags.append(f"best-candidate-defect:{min(defects):.3g}")
    return run.finish()


def fixture_reports(n: int = FIXTURE_N) -> list[AxiomReport]:
    return [
        check_pairing(n),
        check_associativity(n),
        check_trace_symmetry(n),
        check_refinement(n),
        check_dirac_obstruction(n),
    ]


# -- serialization ----------------------------------------------------------


def interval_to_json(i: Interval) -> dict:
    return {"lo": i.lower, "hi": i.upper, "n": i.n}


def interval_from_json(data) -> Interval:
    if not isinstance(data, dict) or not {"lo", "hi", "n"} <= set(data):
        raise ParseError("interval document needs lo, hi, n")
    try:
        return Interval(float(data["lo"]), float(data["hi"]), int(data["n"]))
    except (InvariantViolation, TypeError, ValueError) as exc:
        raise ParseError(f"invalid interval: {exc}") from exc


def to_json(k: GridKernel) -> dict:
    return {
        "source": interval_to_json(k.source),
        "target": interval_to_json(k.target),
        "samples": [[float(v) for v in row] for row in k.samples],
    }


def from_json(data) -> GridKernel:
    if not isinstance(data, dict) or "samples" not in data:
        raise ParseError("kernel document needs samples and grid data")
    if "interval" in data:
        src = tgt = interval_from_json(data["interval"])
    elif "source" in data and "target" in data:
        src = interval_from_json(data["source"])
        tgt = interval_from_json(data["target"])
    else:
        raise ParseError("kernel document needs interval, or source and target")
    try:
        return grid_kernel(src, tgt, data["samples"])
    except (InvariantViolation, ShapeMismatch, TypeError, ValueError) as exc:
        raise ParseError(f"invalid kernel: {exc}") from exc


# -- instance adapters ------------------------------------------------------


class DRelInstance(CategoryInstance):
    """Kernel category without unit, identities, or tensor; real scalars."""

    name = "drelnum"
    scalar_kind = scalars.REAL
    has_tensor = False
    has_unit = False
    has_identity = False
    tol = DEFAULT_TOL
    sample_n = 61

    def __init__(self):
        self._pool = [
            Interval(-1.0, 1.0, self.sample_n),
            Interval(0.0, 2.0, self.sample_n),
            Interval(-2.0, 1.0, self.sample_n),
        ]

    def compose(self, g, f):
        return compose(f, g)

    def star(self, f):
        return star(f)

    def mor_eq(self, f, g) -> bool:
        if f.source != g.source or f.target != g.target:
            return False
        return kernel_distance(f, g) <= self.tol

    def sample_object(self, rng):
        return rng.choice(self._pool)

    def sample_hom(self, rng, a, b):
        # a sum of bounded, windowed Gaussians: finite and exactly 0 on
        # the boundary, so built without `grid_kernel`'s checks
        total = np.zeros((a.n, b.n))
        for _ in range(1 + rng.below(2)):
            x0 = a.lower + (0.1 + 0.8 * rng.unit()) * (a.upper - a.lower)
            y0 = b.lower + (0.1 + 0.8 * rng.unit()) * (b.upper - b.lower)
            w = (0.15 + 0.25 * rng.unit()) * min(
                a.upper - a.lower, b.upper - b.lower
            )
            amp = rng.uniform(-1.5, 1.5)
            total = total + _gaussian(a, b, x0, y0, w, amp)
        return GridKernel(a, b, total)


class DRelNuclear(NuclearStructure):
    """Every grid kernel is distinguished; the pairing is computed directly."""

    def is_nuclear(self, f) -> bool:
        return True

    def theta(self, f):
        raise UnsupportedCheck("no unit object to transpose into")

    def theta_inv(self, m, a, b):
        raise UnsupportedCheck("no unit object to transpose into")

    def derived_trace(self, f, g):
        return trace(compose(f, g))


class DRelTrace(TraceStructure):
    def trace(self, h):
        if h.source != h.target:
            raise TraceClassError("only endomorphisms carry a trace")
        return trace(h)

    def sample_equal_factorizations(self, rng):
        a = self.inst.sample_object(rng)
        b = self.inst.sample_object(rng)
        f = self.inst.sample_hom(rng, a, b)
        g = self.inst.sample_hom(rng, b, a)
        c = 0.5 + rng.unit()
        return (f, g), (scale(f, c), scale(g, 1.0 / c))


def instance() -> DRelInstance:
    return DRelInstance()


def structures():
    inst = instance()
    nuc = DRelNuclear(inst)
    return inst, nuc, DRelTrace(inst, nuc)
