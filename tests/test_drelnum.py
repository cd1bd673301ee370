"""Numerical kernel calculus on uniform grids."""

import math
import warnings

import numpy as np
import pytest

from nucleal import drelnum
from nucleal.core.errors import InvariantViolation, ParseError, ShapeMismatch
from nucleal.core.rng import Lcg


def box(n=101):
    return drelnum.Interval(-1.0, 1.0, n)


def test_interval_validation():
    with pytest.raises(InvariantViolation):
        drelnum.Interval(0.0, 1.0, 100)
    with pytest.raises(InvariantViolation):
        drelnum.Interval(1.0, 0.0, 101)
    fine = box(101).refined()
    assert fine.n == 201
    assert np.allclose(fine.nodes()[::2], box(101).nodes())


def test_quad_constant():
    iv = drelnum.Interval(0.0, 1.0, 101)
    assert drelnum.quad(np.ones(101), iv) == pytest.approx(1.0, abs=1e-12)


def test_quad_cubic_is_exact():
    # composite Simpson integrates cubics without error
    iv = drelnum.Interval(0.0, 1.0, 101)
    xs = iv.nodes()
    assert drelnum.quad(xs**3, iv) == pytest.approx(0.25, abs=1e-12)


def test_quad_sine():
    iv = drelnum.Interval(0.0, math.pi, 201)
    assert drelnum.quad(np.sin(iv.nodes()), iv) == pytest.approx(2.0, abs=1e-8)


def test_quad_rejects_wrong_length():
    with pytest.raises(ShapeMismatch):
        drelnum.quad(np.ones(10), box())


def test_apply_left_zero_kernel():
    z = drelnum.zero_kernel(box(), box())
    phi = drelnum.gaussian_test_fn(box(), 0.1, 0.3)
    assert not np.any(drelnum.apply_left(z, phi).samples)


def test_apply_left_separable_oracle():
    # k(x, y) = a(x) b(y) application collapses to (integral of a phi) * b
    iv = box(201)
    a = drelnum.gaussian_test_fn(iv, -0.2, 0.3).samples
    b = drelnum.gaussian_test_fn(iv, 0.3, 0.25).samples
    k = drelnum.grid_kernel(iv, iv, np.outer(a, b))
    phi = drelnum.gaussian_test_fn(iv, 0.0, 0.4)
    expected = drelnum.quad(a * phi.samples, iv) * b
    assert np.max(np.abs(drelnum.apply_left(k, phi).samples - expected)) < 1e-10


def test_pair_with_double_sum_oracle():
    iv = box(61)
    k = drelnum.gaussian_kernel(iv, iv, -0.3, 0.2, 0.35)
    phi = drelnum.gaussian_test_fn(iv, -0.2, 0.3)
    psi = drelnum.gaussian_test_fn(iv, 0.3, 0.25)
    w = iv.weights()
    expected = sum(
        w[i] * phi.samples[i] * k.samples[i, j] * w[j] * psi.samples[j]
        for i in range(iv.n)
        for j in range(iv.n)
    )
    assert drelnum.pair_with(k, phi, psi) == pytest.approx(expected, abs=1e-12)


def test_left_right_application_pair_equally():
    iv = box(101)
    k = drelnum.gaussian_kernel(iv, iv, 0.25, -0.1, 0.3, 0.8)
    phi = drelnum.gaussian_test_fn(iv, -0.2, 0.3)
    psi = drelnum.gaussian_test_fn(iv, 0.0, 0.4, 0.9)
    lhs = drelnum.quad(drelnum.apply_left(k, phi).samples * psi.samples, iv)
    rhs = drelnum.quad(phi.samples * drelnum.apply_right(k, psi).samples, iv)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_compose_triple_sum_oracle():
    iv = box(31)
    f = drelnum.gaussian_kernel(iv, iv, -0.3, 0.2, 0.35)
    g = drelnum.gaussian_kernel(iv, iv, 0.25, -0.1, 0.3, 0.8)
    out = drelnum.compose(f, g)
    w = iv.weights()
    for i in range(0, iv.n, 7):
        for k in range(0, iv.n, 7):
            expected = sum(
                f.samples[i, j] * w[j] * g.samples[j, k] for j in range(iv.n)
            )
            assert out.samples[i, k] == pytest.approx(expected, abs=1e-12)


def test_compose_with_zero():
    z = drelnum.zero_kernel(box(), box())
    f = drelnum.gaussian_kernel(box(), box(), 0.0, 0.0, 0.45, -0.6)
    assert not np.any(drelnum.compose(z, f).samples)
    assert not np.any(drelnum.compose(f, z).samples)


def test_compose_rejects_grid_mismatch():
    f = drelnum.gaussian_kernel(box(101), box(101), 0.0, 0.0, 0.4)
    g = drelnum.gaussian_kernel(box(61), box(61), 0.0, 0.0, 0.4)
    with pytest.raises(ShapeMismatch):
        drelnum.compose(f, g)


def test_star_involution_and_positivity():
    f = drelnum.gaussian_kernel(box(), box(), 0.4, 0.35, 0.25, 1.2)
    assert np.array_equal(drelnum.star(drelnum.star(f)).samples, f.samples)
    # trace(f ; f*) is a weighted sum of squares
    assert drelnum.trace(drelnum.compose(f, drelnum.star(f))) > 0.0


def test_trace_of_separable_kernel():
    iv = box(201)
    a = drelnum.gaussian_test_fn(iv, -0.2, 0.3).samples
    k = drelnum.grid_kernel(iv, iv, np.outer(a, a))
    assert drelnum.trace(k) == pytest.approx(drelnum.quad(a * a, iv), abs=1e-12)


def test_trace_symmetry_direct():
    f = drelnum.gaussian_kernel(box(), box(), -0.3, 0.2, 0.35)
    g = drelnum.gaussian_kernel(box(), box(), 0.25, -0.1, 0.3, 0.8)
    fg = drelnum.trace(drelnum.compose(f, g))
    gf = drelnum.trace(drelnum.compose(g, f))
    assert fg == pytest.approx(gf, abs=1e-8)


def test_fixture_checks_pass():
    assert drelnum.check_pairing(101).ok
    assert drelnum.check_associativity(101).ok
    assert drelnum.check_trace_symmetry(101).ok


def test_pairing_catches_a_scaled_compose(monkeypatch):
    real = drelnum.compose

    def compose(f, g):  # seeded fault: every composite 1% too large
        out = real(f, g)
        return drelnum.GridKernel(out.source, out.target, 1.01 * out.samples)

    monkeypatch.setattr(drelnum, "compose", compose)
    rep = drelnum.check_pairing(101)
    assert not rep.ok
    assert rep.failures[0].startswith("composite: pairing gap ")


def test_refinement_under_tolerance():
    rep = drelnum.check_refinement(201)
    assert rep.ok and rep.cases > 0


def test_dirac_obstruction():
    rep = drelnum.check_dirac_obstruction(101)
    assert rep.ok and not rep.is_finding
    assert any(f.startswith("best-candidate-defect:") for f in rep.flags)


def test_boundary_support_warning():
    iv = drelnum.Interval(0.0, 1.0, 101)
    with pytest.warns(drelnum.SupportWarning):
        drelnum.test_fn(iv, np.ones(101))
    with pytest.warns(drelnum.SupportWarning):
        drelnum.grid_kernel(iv, iv, np.ones((101, 101)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drelnum.gaussian_kernel(iv, iv, 0.5, 0.5, 0.12)


def _fresh_window(iv):
    t = (2.0 * np.linspace(iv.lower, iv.upper, iv.n) - (iv.lower + iv.upper)) / (
        iv.upper - iv.lower
    )
    w = np.zeros(iv.n)
    inside = np.abs(t) < 1.0
    w[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return w


def _validated_gaussian(a, b, x0, y0, width, amp):
    """The windowed Gaussian from fresh grids, through `grid_kernel`."""
    xs = np.linspace(a.lower, a.upper, a.n)[:, None]
    ys = np.linspace(b.lower, b.upper, b.n)[None, :]
    g = amp * np.exp(-(((xs - x0) ** 2) + ((ys - y0) ** 2)) / width**2)
    g = g * _fresh_window(a)[:, None] * _fresh_window(b)[None, :]
    return drelnum.grid_kernel(a, b, g)


def _validated_sample_hom(rng, a, b):
    """`DRelInstance.sample_hom` with every term validated."""
    total = np.zeros((a.n, b.n))
    for _ in range(1 + rng.below(2)):
        x0 = a.lower + (0.1 + 0.8 * rng.unit()) * (a.upper - a.lower)
        y0 = b.lower + (0.1 + 0.8 * rng.unit()) * (b.upper - b.lower)
        w = (0.15 + 0.25 * rng.unit()) * min(a.upper - a.lower, b.upper - b.lower)
        amp = rng.uniform(-1.5, 1.5)
        total = total + _validated_gaussian(a, b, x0, y0, w, amp).samples
    return total


def test_trusted_sample_hom_matches_validated_gaussians():
    inst = drelnum.instance()
    trusted, checked = Lcg(11), Lcg(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no term is ever near the boundary
        for _ in range(500):
            a, b = inst.sample_object(trusted), inst.sample_object(trusted)
            assert (a, b) == (inst.sample_object(checked), inst.sample_object(checked))
            k = inst.sample_hom(trusted, a, b)
            assert (k.source, k.target) == (a, b)
            assert np.array_equal(k.samples, _validated_sample_hom(checked, a, b))
            assert trusted.state == checked.state


def test_interval_arrays_are_cached_and_read_only():
    for iv in (box(61), drelnum.Interval(-2.0, 1.0, 61), box(201).refined()):
        w = np.ones(iv.n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        fresh = (
            np.linspace(iv.lower, iv.upper, iv.n),
            w * (iv.step / 3.0),
            _fresh_window(iv),
        )
        cached = (iv.nodes(), iv.weights(), drelnum.bump_window(iv))
        again = (iv.nodes(), iv.weights(), drelnum.bump_window(iv))
        assert all(x is y for x, y in zip(cached, again))
        for got, want in zip(cached, fresh):
            assert np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[0] = 1.0
        assert cached[2][0] == cached[2][-1] == 0.0


def test_json_round_trips():
    iv = box(61)
    assert drelnum.interval_from_json(drelnum.interval_to_json(iv)) == iv
    k = drelnum.gaussian_kernel(iv, iv, -0.3, 0.2, 0.35)
    back = drelnum.from_json(drelnum.to_json(k))
    assert back.source == k.source and back.target == k.target
    assert np.array_equal(back.samples, k.samples)
    square = drelnum.from_json(
        {"interval": drelnum.interval_to_json(iv),
         "samples": drelnum.to_json(k)["samples"]}
    )
    assert square.source == iv and square.target == iv
    with pytest.raises(ParseError):
        drelnum.from_json({"samples": [[0.0]]})
