"""Complex matrices: adjoints, Hilbert-Schmidt structure, square roots.

numpy is the independent oracle throughout; the implementation under
test is pure Python.
"""

import numpy as np
import pytest

from nucleal import finhilb
from nucleal.core.errors import InvariantViolation, ShapeMismatch
from nucleal.core.rng import Lcg


def to_np(m):
    return np.array(m.row_lists(), dtype=complex).reshape(m.rows, m.cols)


def from_np(a):
    return finhilb.from_rows([[complex(z) for z in row] for row in a])


def rand_np(rng, n, m):
    return to_np(finhilb.random_matrix(rng, n, m))


def test_adjoint_of_i():
    assert finhilb.adjoint(finhilb.from_rows([[1j]])).entries == (-1j,)


def test_adjoint_antihomomorphism():
    rng = Lcg(2)
    for _ in range(50):
        f = finhilb.random_matrix(rng, 3, 3)
        g = finhilb.random_matrix(rng, 3, 3)
        lhs = finhilb.adjoint(finhilb.matmul(f, g))
        rhs = finhilb.matmul(finhilb.adjoint(g), finhilb.adjoint(f))
        assert finhilb.max_abs_diff(lhs, rhs) <= 1e-12


def test_adjoint_involution_exact():
    rng = Lcg(3)
    f = finhilb.random_matrix(rng, 3, 2)
    assert finhilb.adjoint(finhilb.adjoint(f)) == f


def test_rejects_non_finite_entries():
    with pytest.raises(InvariantViolation):
        finhilb.from_rows([[float("nan")]])


def test_products_that_overflow_are_rejected():
    big = finhilb.from_rows([[1e200]])
    with pytest.raises(InvariantViolation, match="non-finite entry"):
        finhilb.matmul(big, big)
    with pytest.raises(InvariantViolation, match="non-finite entry"):
        finhilb.tensor(big, big)
    with pytest.raises(InvariantViolation, match="non-finite entry"):
        finhilb.scale(big, 1e200)


def test_hs_norm_of_identity():
    assert finhilb.hs_norm(finhilb.identity_matrix(2)) == pytest.approx(
        np.sqrt(2), abs=1e-12
    )


def test_hs_inner_matrix_units():
    e11 = finhilb.from_rows([[1, 0], [0, 0]])
    e22 = finhilb.from_rows([[0, 0], [0, 1]])
    assert finhilb.hs_inner(e11, e11) == pytest.approx(1)
    assert finhilb.hs_inner(e11, e22) == pytest.approx(0)


def test_hs_norm_squared_is_trace_of_star_composite():
    rng = Lcg(7)
    for _ in range(50):
        f = finhilb.random_matrix(rng, 4, 4)
        a = to_np(f)
        assert finhilb.hs_norm(f) ** 2 == pytest.approx(
            np.trace(a.conj().T @ a).real, abs=1e-10
        )


def test_hs_inner_equals_trace_oracle():
    rng = Lcg(8)
    for _ in range(50):
        f = finhilb.random_matrix(rng, 3, 4)
        g = finhilb.random_matrix(rng, 3, 4)
        want = np.trace(to_np(g).conj().T @ to_np(f))
        assert abs(finhilb.hs_inner(f, g) - want) <= 1e-10


def test_u_map_on_basis_tensor():
    # e1 (x) e2 in conj(H) (x) K is slot index 1 at dims 2x2
    v = [0, 1, 0, 0]
    m = finhilb.u_map(v, 2, 2)
    assert to_np(m) == pytest.approx(np.array([[0, 0], [1, 0]], dtype=complex))


def test_u_map_zero_vector():
    assert finhilb.u_map([0, 0, 0, 0], 2, 2) == finhilb.zeros(2, 2)


def test_u_round_trip():
    rng = Lcg(9)
    for _ in range(30):
        v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
        back = finhilb.u_inv(finhilb.u_map(v, 2, 3))
        assert max(abs(a - b) for a, b in zip(back, v)) <= 1e-12


def test_u_map_preserves_inner_products():
    rng = Lcg(10)
    for _ in range(50):
        v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
        w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
        plain = sum(a * b.conjugate() for a, b in zip(v, w))
        lifted = finhilb.hs_inner(finhilb.u_map(v, 2, 4), finhilb.u_map(w, 2, 4))
        assert abs(lifted - plain) <= 1e-10


def test_hermitian_eig_diagonal():
    vals, vecs = finhilb.hermitian_eig(finhilb.from_rows([[1, 0], [0, 2]]))
    assert vals == pytest.approx([1, 2])
    assert abs(abs(to_np(vecs)).sum() - 2) <= 1e-12


def test_hermitian_eig_two_by_two():
    vals, _ = finhilb.hermitian_eig(finhilb.from_rows([[2, 1], [1, 2]]))
    assert vals == pytest.approx([1, 3], abs=1e-10)


def test_hermitian_eig_reconstructs_random():
    rng = Lcg(12)
    for _ in range(10):
        a = rand_np(rng, 6, 6)
        h = from_np(a + a.conj().T)
        vals, vecs = finhilb.hermitian_eig(h)
        v = to_np(vecs)
        assert v @ np.diag(vals) @ v.conj().T == pytest.approx(to_np(h), abs=1e-10)
        assert vals == pytest.approx(np.linalg.eigvalsh(to_np(h)), abs=1e-10)


def test_hermitian_eig_of_the_empty_matrix():
    vals, vecs = finhilb.hermitian_eig(finhilb.zeros(0, 0))
    assert (vals, vecs.rows, vecs.cols) == ([], 0, 0)


def test_hermitian_eig_rejects_skew():
    with pytest.raises(InvariantViolation):
        finhilb.hermitian_eig(finhilb.from_rows([[0, 1], [0, 0]]))


def test_positive_sqrt_diagonal():
    root = finhilb.positive_sqrt(finhilb.from_rows([[4, 0], [0, 9]]))
    assert to_np(root) == pytest.approx(np.diag([2.0, 3.0]), abs=1e-10)


def test_positive_sqrt_squares_back():
    a = finhilb.from_rows([[2, 1], [1, 2]])
    root = finhilb.positive_sqrt(a)
    assert finhilb.max_abs_diff(finhilb.matmul(root, root), a) <= 1e-9


def test_abs_of_unitary_is_identity():
    rng = Lcg(14)
    u = finhilb.random_unitary(rng, 4)
    assert finhilb.max_abs_diff(finhilb.abs_op(u), finhilb.identity_matrix(4)) <= 1e-9


def test_trace_diagonal_sum():
    assert finhilb.trace(finhilb.from_rows([[1, 2], [3, 4]])) == 5


def test_trace_cyclic():
    rng = Lcg(15)
    for _ in range(50):
        a = finhilb.random_matrix(rng, 5, 5)
        b = finhilb.random_matrix(rng, 5, 5)
        ab = finhilb.trace(finhilb.matmul(a, b))
        ba = finhilb.trace(finhilb.matmul(b, a))
        assert abs(ab - ba) <= 1e-10


def test_trace_norm_of_signed_diagonal():
    m = finhilb.from_rows([[-3, 0], [0, 4]])
    assert finhilb.trace_norm(m) == pytest.approx(7, abs=1e-9)


def test_hs_factorize_identity():
    f, g = finhilb.hs_factorize(finhilb.identity_matrix(2))
    assert finhilb.max_abs_diff(f, finhilb.identity_matrix(2)) <= 1e-9
    assert finhilb.max_abs_diff(g, finhilb.identity_matrix(2)) <= 1e-9


def test_hs_factorize_zero():
    f, g = finhilb.hs_factorize(finhilb.zeros(3, 3))
    assert finhilb.max_abs_diff(f, finhilb.zeros(3, 3)) <= 1e-12
    assert finhilb.max_abs_diff(g, finhilb.zeros(3, 3)) <= 1e-12


def test_hs_factorize_reconstructs_random():
    rng = Lcg(16)
    for _ in range(20):
        h = finhilb.random_matrix(rng, 4, 4)
        f, g = finhilb.hs_factorize(h)
        assert finhilb.max_abs_diff(finhilb.matmul(g, f), h) <= 1e-9


def test_polar_and_hs_factorize_on_rank_one_squares():
    # sqrt(eig(h*h)) leaves kernel noise near 1e-8 of the largest
    # singular value; an absolute cutoff took it for singular values
    rng = Lcg(1)
    eye = finhilb.identity_matrix(3)
    worst_w = worst_h = 0.0
    for _ in range(50):
        h = finhilb.matmul(
            finhilb.random_matrix(rng, 3, 1), finhilb.random_matrix(rng, 1, 3)
        )
        w, _ = finhilb.polar(h)
        wtw = finhilb.matmul(finhilb.adjoint(w), w)
        worst_w = max(worst_w, finhilb.max_abs_diff(wtw, eye))
        f, g = finhilb.hs_factorize(h)
        worst_h = max(worst_h, finhilb.max_abs_diff(finhilb.matmul(g, f), h))
    assert worst_w <= 1e-9
    assert worst_h <= 1e-9


def test_polar_is_unitary_on_small_scale_rank_deficient_squares():
    # an absolute stop on the off-diagonal mass left small-scale input
    # undiagonalized; the stop is relative to the input's norm
    eye = {n: finhilb.identity_matrix(n) for n in range(2, 5)}
    for scale in (1e-3, 1e-6):
        rng = Lcg(3)
        worst = 0.0
        for _ in range(40):
            n = 2 + rng.below(3)
            k = 1 + rng.below(n - 1)
            h = finhilb.matmul(
                finhilb.random_matrix(rng, n, k), finhilb.random_matrix(rng, k, n)
            )
            h = finhilb.CMatrix(n, n, tuple(z * scale for z in h.entries))
            w, _ = finhilb.polar(h)
            wtw = finhilb.matmul(finhilb.adjoint(w), w)
            worst = max(worst, finhilb.max_abs_diff(wtw, eye[n]))
        assert worst <= 1e-9, scale


def test_polar_is_the_identity_on_a_kernel_orthogonal_to_the_range():
    h = finhilb.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, 0]])
    w, p = finhilb.polar(h)
    assert finhilb.max_abs_diff(w, finhilb.identity_matrix(3)) <= 1e-12
    assert finhilb.max_abs_diff(p, h) <= 1e-12


def test_tensor_is_kronecker():
    rng = Lcg(17)
    f = finhilb.random_matrix(rng, 2, 3)
    g = finhilb.random_matrix(rng, 3, 2)
    assert to_np(finhilb.tensor(f, g)) == pytest.approx(
        np.kron(to_np(f), to_np(g)), abs=1e-12
    )
    star_tensor = finhilb.adjoint(finhilb.tensor(f, g))
    tensor_star = finhilb.tensor(finhilb.adjoint(f), finhilb.adjoint(g))
    assert finhilb.max_abs_diff(star_tensor, tensor_star) <= 1e-12


def test_tensor_trace_multiplicative():
    rng = Lcg(18)
    for _ in range(20):
        a = finhilb.random_matrix(rng, 3, 3)
        b = finhilb.random_matrix(rng, 2, 2)
        lhs = finhilb.trace(finhilb.tensor(a, b))
        rhs = finhilb.trace(a) * finhilb.trace(b)
        assert abs(lhs - rhs) <= 1e-10


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        finhilb.matmul(finhilb.zeros(2, 3), finhilb.zeros(2, 3))


def test_maps_of_two_shapes_are_unequal():
    assert not finhilb.instance().mor_eq(finhilb.zeros(1, 1), finhilb.zeros(1, 2))


def test_json_round_trip():
    rng = Lcg(19)
    m = finhilb.random_matrix(rng, 3, 2)
    assert finhilb.from_json(finhilb.to_json(m)) == m
