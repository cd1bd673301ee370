"""Finite-dimensional complex Hilbert spaces as dense matrices.

Objects are dimensions, morphisms are row-major complex matrices acting
on column vectors.  The module supplies the adjoint/conjugation pair,
the Hilbert-Schmidt inner product, the reshape unitary between states
on a product and matrices, positive square roots via a cyclic Jacobi
eigensolver, and polar-decomposition factorizations.  Everything is
hand-rolled on plain complex floats; the numerics stay comfortable
because dimensions are desk-scale.

Inner products are linear in the first variable throughout.

Boundary contract: the `CMatrix` constructor, `from_rows` and
`from_json` check the shape and the finiteness of every entry and store
each entry as a `complex`.  The operations (`matmul`, `add`, `scale`,
`adjoint`, `conjugate`, `tensor`, `u_map`, the transpose, `reindex`)
and `random_matrix` build through the private `_mk`, which trusts the
shape and the entry type, both right by construction, but still checks
finiteness: products and sums of finite entries can overflow to
infinity, and such a matrix must not pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from nucleal.core import scalars
from nucleal.core.errors import InvariantViolation, ParseError, ShapeMismatch
from nucleal.core.instance import (
    CategoryInstance,
    FactorizationResult,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.rng import Lcg

#: convergence threshold on the off-diagonal Frobenius mass, relative to
#: the Frobenius norm of the input
OFF_DIAG_TOL = 1e-12
#: hard cap on Jacobi sweeps; reached only for ill-scaled input
MAX_SWEEPS = 100
#: singular values at or below this fraction of the largest are kernel
#: directions: sqrt(eig(h*h)) leaves rounding noise near 1e-8 of the
#: largest singular value where h has a kernel
SV_RTOL = 1e-7
#: allowed Hermitian asymmetry of eigensolver input
HERMITIAN_TOL = 1e-8
#: eigenvalues below -NEG_EIG_TOL refuse a positive square root
NEG_EIG_TOL = 1e-8


@dataclass(frozen=True)
class CMatrix:
    """Dense complex matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple[complex, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InvariantViolation("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for z in self.entries:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvariantViolation(f"non-finite entry {z!r}")
        object.__setattr__(
            self, "entries", tuple(complex(z) for z in self.entries)
        )

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[complex]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def __repr__(self):
        if self.rows * self.cols > 6:
            return f"CMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            ", ".join(f"{self.at(i, j):.3g}" for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"CMatrix[{body}]"


def _mk(rows: int, cols: int, entries: tuple) -> CMatrix:
    """Builder for `entries`, a tuple of `rows * cols` complex numbers;
    checks finiteness only."""
    if not all(map(cmath.isfinite, entries)):
        z = next(z for z in entries if not cmath.isfinite(z))
        raise InvariantViolation(f"non-finite entry {z!r}")
    m = object.__new__(CMatrix)
    d = m.__dict__
    d["rows"] = rows
    d["cols"] = cols
    d["entries"] = entries
    return m


def from_rows(rows: Sequence[Sequence[complex]]) -> CMatrix:
    n = len(rows)
    m = len(rows[0]) if n else 0
    flat = []
    for r in rows:
        if len(r) != m:
            raise ShapeMismatch("ragged rows")
        flat.extend(complex(z) for z in r)
    return CMatrix(n, m, tuple(flat))


def zeros(rows: int, cols: int) -> CMatrix:
    return CMatrix(rows, cols, (0j,) * (rows * cols))


def identity_matrix(n: int) -> CMatrix:
    return CMatrix(
        n, n, tuple(1 + 0j if i == j else 0j for i in range(n) for j in range(n))
    )


def matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [0j] * (a.rows * b.cols)
    for i in range(a.rows):
        arow = a.entries[i * a.cols : (i + 1) * a.cols]
        base = i * b.cols
        for k, aik in enumerate(arow):
            if aik == 0:
                continue
            brow = b.entries[k * b.cols : (k + 1) * b.cols]
            for j, bkj in enumerate(brow):
                out[base + j] += aik * bkj
    return _mk(a.rows, b.cols, tuple(out))


def add(a: CMatrix, b: CMatrix) -> CMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatch("shape mismatch in addition")
    return _mk(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def scale(a: CMatrix, coeff: complex) -> CMatrix:
    return _mk(a.rows, a.cols, tuple(coeff * z for z in a.entries))


def adjoint(f: CMatrix) -> CMatrix:
    return _mk(
        f.cols,
        f.rows,
        tuple(
            f.at(i, j).conjugate() for j in range(f.cols) for i in range(f.rows)
        ),
    )


def conjugate(f: CMatrix) -> CMatrix:
    """Entrywise conjugation; the conjugate space shares the same basis."""
    return _mk(f.rows, f.cols, tuple(z.conjugate() for z in f.entries))


def tensor(f: CMatrix, g: CMatrix) -> CMatrix:
    rows, cols = f.rows * g.rows, f.cols * g.cols
    out = [0j] * (rows * cols)
    for i1 in range(f.rows):
        for j1 in range(f.cols):
            a = f.at(i1, j1)
            if a == 0:
                continue
            for i2 in range(g.rows):
                base = (i1 * g.rows + i2) * cols + j1 * g.cols
                for j2 in range(g.cols):
                    out[base + j2] = a * g.at(i2, j2)
    return _mk(rows, cols, tuple(out))


def max_abs_diff(a: CMatrix, b: CMatrix) -> float:
    if (a.rows, a.cols) != (b.rows, b.cols):
        return math.inf
    return max(
        (abs(x - y) for x, y in zip(a.entries, b.entries)), default=0.0
    )


def hs_inner(f: CMatrix, g: CMatrix) -> complex:
    """Sum over both standard bases of <f(e_i), e_j><e_j, g(e_i)>."""
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatch("inner product needs equal shapes")
    return sum(
        (x * y.conjugate() for x, y in zip(f.entries, g.entries)), start=0j
    )


def hs_norm(f: CMatrix) -> float:
    return math.sqrt(max(hs_inner(f, f).real, 0.0))


def trace(a: CMatrix) -> complex:
    if a.rows != a.cols:
        raise ShapeMismatch("trace needs a square matrix")
    return sum((a.at(i, i) for i in range(a.rows)), start=0j)


def u_map(v: Sequence[complex], dim_h: int, dim_k: int) -> CMatrix:
    """Turn a state vector on the conjugate-product space into a map H -> K.

    Basis slot (i, j) of the product carries the rank-one map sending
    e_i to e_j, so the matrix entry (j, i) is the slot coefficient.
    """
    v = list(v)
    if len(v) != dim_h * dim_k:
        raise ShapeMismatch(f"state length {len(v)} != {dim_h}*{dim_k}")
    out = [0j] * (dim_k * dim_h)
    for i in range(dim_h):
        for j in range(dim_k):
            out[j * dim_h + i] = complex(v[i * dim_k + j])
    return _mk(dim_k, dim_h, tuple(out))


def u_inv(m: CMatrix) -> list[complex]:
    dim_h, dim_k = m.cols, m.rows
    return [m.at(j, i) for i in range(dim_h) for j in range(dim_k)]


def hermitian_eig(a: CMatrix):
    """Eigensystem of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, V) with a = V diag(lam) V* and V
    unitary.  Each rotation phase-aligns one off-diagonal entry and
    annihilates it with a real Givens rotation.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("eigensolver needs a square matrix")
    if max_abs_diff(a, adjoint(a)) > HERMITIAN_TOL:
        raise InvariantViolation("matrix is not Hermitian within tolerance")
    n = a.rows
    work = a.row_lists()
    # fold tiny asymmetry away so the iteration sees an exactly Hermitian matrix
    for i in range(n):
        work[i][i] = complex(work[i][i].real)
        for j in range(i + 1, n):
            avg = (work[i][j] + work[j][i].conjugate()) / 2
            work[i][j] = avg
            work[j][i] = avg.conjugate()
    vmat = [[1 + 0j if i == j else 0j for j in range(n)] for i in range(n)]

    def off_mass():
        return math.sqrt(
            sum(
                abs(work[i][j]) ** 2
                for i in range(n)
                for j in range(n)
                if i != j
            )
        )

    # relative, so that small-scale input is diagonalized as fully
    stop = OFF_DIAG_TOL * math.sqrt(sum(abs(z) ** 2 for row in work for z in row))
    for _ in range(MAX_SWEEPS):
        if off_mass() <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p][q]
                r = abs(apq)
                if r == 0.0:
                    continue
                phase = apq / r
                app, aqq = work[p][p].real, work[q][q].real
                tau = (aqq - app) / (2 * r)
                t = (-1 if tau >= 0 else 1) / (abs(tau) + math.sqrt(1 + tau * tau))
                c = 1 / math.sqrt(1 + t * t)
                s = t * c
                # unitary differing from the identity in the (p,q) block
                upp, upq = c + 0j, -s + 0j
                uqp, uqq = s * phase.conjugate(), c * phase.conjugate()
                for k in range(n):
                    xkp, xkq = work[k][p], work[k][q]
                    work[k][p] = xkp * upp + xkq * uqp
                    work[k][q] = xkp * upq + xkq * uqq
                for k in range(n):
                    xpk, xqk = work[p][k], work[q][k]
                    work[p][k] = upp.conjugate() * xpk + uqp.conjugate() * xqk
                    work[q][k] = upq.conjugate() * xpk + uqq.conjugate() * xqk
                work[p][q] = 0j
                work[q][p] = 0j
                work[p][p] = complex(work[p][p].real)
                work[q][q] = complex(work[q][q].real)
                for k in range(n):
                    vkp, vkq = vmat[k][p], vmat[k][q]
                    vmat[k][p] = vkp * upp + vkq * uqp
                    vmat[k][q] = vkp * upq + vkq * uqq
    lam = [work[i][i].real for i in range(n)]
    order = sorted(range(n), key=lambda i: lam[i])
    lam_sorted = [lam[i] for i in order]
    v_sorted = from_rows(
        [[vmat[i][order[j]] for j in range(n)] for i in range(n)]
    )
    return lam_sorted, v_sorted


def _assemble(v: CMatrix, diag: Sequence[complex]) -> CMatrix:
    n = v.rows
    scaled = from_rows(
        [[v.at(i, j) * diag[j] for j in range(n)] for i in range(n)]
    )
    return matmul(scaled, adjoint(v))


def positive_sqrt(a: CMatrix) -> CMatrix:
    lam, v = hermitian_eig(a)
    floor = min(lam, default=0.0)
    if floor < -NEG_EIG_TOL:
        raise InvariantViolation(
            f"matrix has a materially negative eigenvalue {floor:.3g}"
        )
    roots = [math.sqrt(max(x, 0.0)) for x in lam]
    return _assemble(v, roots)


def abs_op(a: CMatrix) -> CMatrix:
    return positive_sqrt(matmul(adjoint(a), a))


def trace_norm(a: CMatrix) -> float:
    return trace(abs_op(a)).real


def _columns(m: CMatrix) -> list[list[complex]]:
    return [[m.at(i, j) for i in range(m.rows)] for j in range(m.cols)]


def _orthonormal_completion(basis, candidates, count: int) -> list:
    """`count` unit vectors orthogonal to the orthonormal `basis` and to
    each other, by Gram-Schmidt over `candidates` in order.

    A candidate is kept when its residual norm is at least 1 / (2 sqrt n).
    Unit candidates that include the standard basis always suffice: while
    the span is incomplete, some standard vector has residual at least
    1 / sqrt n.
    """
    basis = list(basis)
    found = []
    for c in candidates:
        if len(found) == count:
            break
        r = list(c)
        for _ in range(2):  # orthogonalize twice for a clean residual
            for b in basis:
                dot = sum(x.conjugate() * y for x, y in zip(b, r))
                r = [y - dot * x for x, y in zip(b, r)]
        norm = math.sqrt(sum(abs(y) ** 2 for y in r))
        if norm >= 0.5 / math.sqrt(len(r)):
            q = [y / norm for y in r]
            basis.append(q)
            found.append(q)
    return found


def _polar_parts(h: CMatrix):
    """Eigenbasis v of h*h, the singular values, and the W of h = W |h|:
    an isometry on the support of h, and unitary when h is square, where
    the kernel goes onto the complement of the range (by the identity
    where the two coincide)."""
    lam, v = hermitian_eig(matmul(adjoint(h), h))
    # h*h has rank at most h.rows, so its smallest cols - rows eigenvalues
    # are zero; rounding leaves them near 1e-16, whose square roots would
    # pass for singular values and blow up in the pseudo-inverse
    nullity = h.cols - h.rows
    svals = [
        0.0 if i < nullity else math.sqrt(max(x, 0.0)) for i, x in enumerate(lam)
    ]
    # the same noise is left where h is square but rank-deficient, so
    # values under a cutoff relative to the largest are zeroed as well
    cutoff = SV_RTOL * max(svals, default=0.0)
    svals = [s if s > cutoff else 0.0 for s in svals]
    pinv = _assemble(v, [1 / s if s else 0.0 for s in svals])
    w = matmul(h, pinv)
    n = h.rows
    if n == h.cols and not all(svals):
        kernel = [c for c, s in zip(_columns(v), svals) if not s]
        images = [c for c, s in zip(_columns(matmul(w, v)), svals) if s]
        units = _columns(identity_matrix(n))
        qs = _orthonormal_completion(images, kernel + units, len(kernel))
        # W sends each kernel direction v_j to q_j: add the sum of q_j v_j*
        completion = tuple(
            sum(q[i] * c[k].conjugate() for q, c in zip(qs, kernel))
            for i in range(n)
            for k in range(n)
        )
        w = add(w, CMatrix(n, n, completion))
    return v, svals, w


def polar(h: CMatrix):
    """h = W |h| with W an isometry on the support of h.

    Works for rectangular h.  When h is square, W is unitary: it sends
    the kernel of h onto the orthogonal complement of its range.
    """
    v, svals, w = _polar_parts(h)
    return w, _assemble(v, svals)


def hs_factorize(h: CMatrix):
    """Split h through its source as h = g . f with f = |h|^(1/2), g = W |h|^(1/2)."""
    v, svals, w = _polar_parts(h)
    root = _assemble(v, [math.sqrt(s) for s in svals])
    return root, matmul(w, root)


def random_matrix(rng: Lcg, rows: int, cols: int) -> CMatrix:
    """Entries with real and imaginary parts uniform in [-1, 1)."""
    return _mk(
        rows,
        cols,
        tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(rows * cols)
        ),
    )


def random_unitary(rng: Lcg, n: int) -> CMatrix:
    w, _ = polar(random_matrix(rng, n, n))
    return w


# -- serialization ----------------------------------------------------------


def to_json(f: CMatrix) -> dict:
    return {
        "rows": f.rows,
        "cols": f.cols,
        "re": [[f.at(i, j).real for j in range(f.cols)] for i in range(f.rows)],
        "im": [[f.at(i, j).imag for j in range(f.cols)] for i in range(f.rows)],
    }


def from_json(data: dict) -> CMatrix:
    if not isinstance(data, dict):
        raise ParseError("matrix document must be an object")
    for key in ("rows", "cols", "re", "im"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
    rows, cols = data["rows"], data["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 0 or cols < 0:
        raise ParseError("rows/cols must be nonnegative integers")
    re, im = data["re"], data["im"]
    if len(re) != rows or len(im) != rows:
        raise ParseError("re/im row count mismatch")
    flat = []
    for rrow, irow in zip(re, im):
        if len(rrow) != cols or len(irow) != cols:
            raise ParseError("re/im column count mismatch")
        for x, y in zip(rrow, irow):
            z = complex(x, y)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ParseError("non-finite entry")
            flat.append(z)
    return CMatrix(rows, cols, tuple(flat))


# -- instance adapters ------------------------------------------------------


class HilbInstance(CategoryInstance):
    """Complex matrices; objects are plain dimensions."""

    name = "finhilb"
    scalar_kind = scalars.COMPLEX
    tol = 1e-9
    max_dim = 4

    def source(self, f):
        return f.cols

    def target(self, f):
        return f.rows

    def compose(self, g, f):
        return matmul(g, f)

    def identity(self, a):
        return identity_matrix(a)

    def star(self, f):
        return adjoint(f)

    def conj(self, f):
        return conjugate(f)

    def tensor(self, f, g):
        return tensor(f, g)

    def tensor_obj(self, a, b):
        return a * b

    def unit(self):
        return 1

    def reindex(self, a, b, index_map):
        if len(index_map) != a or sorted(index_map) != list(range(b)):
            raise ShapeMismatch("index map is not a bijection")
        # the 0/1 matrix of a bijection is right by construction
        entries = [0j] * (b * a)
        for i, j in enumerate(index_map):
            entries[j * a + i] = 1 + 0j
        return _mk(b, a, tuple(entries))

    def scalar_of(self, s):
        if (s.rows, s.cols) != (1, 1):
            raise ShapeMismatch("scalars are 1x1 matrices")
        return s.entries[0]

    def mor_eq(self, f, g):
        return max_abs_diff(f, g) <= self.tol

    def obj_size(self, a):
        return a

    def describe_obj(self, a):
        return f"C^{a}"

    def sample_object(self, rng):
        return 1 + rng.below(self.max_dim)

    def sample_hom(self, rng, a, b):
        return random_matrix(rng, b, a)


class HilbNuclear(NuclearStructure):
    """Every finite-dimensional map is Hilbert-Schmidt, hence in the ideal."""

    def is_nuclear(self, f):
        return True

    def theta(self, f):
        return _mk(f.rows * f.cols, 1, tuple(u_inv(f)))

    def theta_inv(self, m, a, b):
        if m.cols != 1 or m.rows != a * b:
            raise ShapeMismatch("state shape mismatch")
        return u_map(list(m.entries), a, b)

    def factorize(self, h):
        f, g = hs_factorize(h)
        return FactorizationResult(True, left=f, right=g, middle=h.cols)


class HilbTrace(TraceStructure):
    def trace(self, h):
        if h.rows != h.cols:
            raise ShapeMismatch("trace needs an endomorphism")
        return trace(h)

    def sample_equal_factorizations(self, rng):
        a = self.inst.sample_object(rng)
        mid = self.inst.sample_object(rng)
        f = random_matrix(rng, mid, a)
        g = random_matrix(rng, a, mid)
        u = random_unitary(rng, mid)
        return (f, g), (matmul(u, f), matmul(g, adjoint(u)))


def instance() -> HilbInstance:
    return HilbInstance()


def structures():
    inst = instance()
    nuc = HilbNuclear(inst)
    return inst, nuc, HilbTrace(inst, nuc)
