"""The polar term-table engine against its own calculus and its term rules."""

from __future__ import annotations

import numpy as np
import pytest

from steinshapes import _polar
from steinshapes._polar import COS, SIN, PolarBasis

STEP = 1e-5
METHODS = (
    "values",
    "radial_derivative",
    "angular_over_r",
    "gradients",
    "hessian_rtheta",
    "hessian_frame",
    "hessians",
    "laplacians",
)


@pytest.fixture(scope="module")
def basis():
    # polynomial, loose and log terms in one table, constant included
    return _polar.concat(_polar.cascade_basis(12), _polar.full_basis(6, True))


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(11)
    r = rng.uniform(0.05, 1.0, 200)
    theta = rng.uniform(-np.pi, np.pi, 200)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def cartesian(basis, method, pts):
    return getattr(basis, method)(*_polar.to_polar(pts))


def central_difference(basis, method, pts):
    """Partial derivatives in x and y, stacked on a new axis after the terms."""
    parts = []
    for axis in (0, 1):
        shift = np.zeros(2)
        shift[axis] = STEP
        plus = cartesian(basis, method, pts + shift)
        minus = cartesian(basis, method, pts - shift)
        parts.append((plus - minus) / (2.0 * STEP))
    return np.stack(parts, axis=2)


def test_table_holds_every_term_family(basis):
    assert basis.logs.any()
    loose = (basis.freqs > basis.powers) | ((basis.powers - basis.freqs) % 2 != 0)
    assert loose.any()
    assert basis.n == _polar.cascade_basis(12).n + _polar.full_basis(6, True).n


def test_gradients_match_central_differences(basis, points):
    exact = cartesian(basis, "gradients", points)
    approx = central_difference(basis, "values", points)
    assert np.abs(exact - approx).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def test_hessians_match_central_differences(basis, points):
    exact = cartesian(basis, "hessians", points)
    approx = central_difference(basis, "gradients", points)
    assert np.abs(exact - approx).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def test_hessian_trace_is_the_laplacian(basis, points):
    hess = cartesian(basis, "hessians", points)
    lap = cartesian(basis, "laplacians", points)
    trace = hess[..., 0, 0] + hess[..., 1, 1]
    assert np.abs(trace - lap).max() <= 1e-12 * max(1.0, np.abs(lap).max())


def test_radial_and_angular_parts_rebuild_the_gradient(basis, points):
    r, theta = _polar.to_polar(points)
    fr = basis.radial_derivative(r, theta)
    ftr = basis.angular_over_r(r, theta)
    grad = basis.gradients(r, theta)
    ct, st = np.cos(theta)[:, None], np.sin(theta)[:, None]
    np.testing.assert_array_equal(fr * ct - ftr * st, grad[..., 0])
    np.testing.assert_array_equal(fr * st + ftr * ct, grad[..., 1])


@pytest.mark.parametrize("kind", [COS, SIN], ids=["cos", "sin"])
def test_resonant_log_terms_have_polynomial_laplacians(points, kind):
    r, theta = _polar.to_polar(points)
    ks = np.arange(2, 13)
    resonant = PolarBasis(ks, ks, np.full(ks.size, kind), np.ones(ks.size))
    trig = np.cos(np.outer(theta, ks)) if kind == COS else np.sin(np.outer(theta, ks))
    expected = r[:, None] ** (ks - 2.0) * 2.0 * ks * trig
    np.testing.assert_allclose(
        resonant.laplacians(r, theta), expected, rtol=1e-13, atol=1e-14
    )


def test_every_method_is_finite_at_the_origin(basis):
    theta = np.linspace(-np.pi, np.pi, 9)
    r = np.zeros_like(theta)
    for method in METHODS:
        out = getattr(basis, method)(r, theta)
        for block in out if isinstance(out, tuple) else (out,):
            assert np.isfinite(block).all(), method


def test_concat_keeps_each_part_columnwise(basis, points):
    parts = (_polar.cascade_basis(12), _polar.full_basis(6, True))
    r, theta = _polar.to_polar(points)
    for method in ("values", "laplacians", "gradients"):
        joined = np.concatenate([getattr(p, method)(r, theta) for p in parts], axis=1)
        np.testing.assert_array_equal(getattr(basis, method)(r, theta), joined)


def test_concat_with_itself_duplicates_every_column(basis, points):
    # the doubled table repeats every frequency and exponent, so this checks
    # that the gather indices send each column its own transcendentals
    r, theta = _polar.to_polar(points)
    doubled = _polar.concat(basis, basis)
    for method in METHODS:
        once = getattr(basis, method)(r, theta)
        twice = getattr(doubled, method)(r, theta)
        for a, b in zip(once, twice) if isinstance(once, tuple) else ((once, twice),):
            assert np.array_equal(np.concatenate([a, a], axis=1), b), method


def test_hessian_rtheta_is_the_frame_component(basis, points):
    r, theta = _polar.to_polar(points)
    assert np.array_equal(basis.hessian_rtheta(r, theta), basis.hessian_frame(r, theta)[1])


def test_gradients_of_matches_each_field(basis, points):
    rng = np.random.default_rng(3)
    fields = [_polar.PolarField(basis, rng.standard_normal(basis.n)) for _ in range(3)]
    for field, grad in zip(fields, _polar.gradients_of(fields, points)):
        assert np.array_equal(grad, field.gradient(points))
    other = _polar.PolarField(_polar.harmonic_basis(2), np.ones(4))
    with pytest.raises(ValueError, match="share one basis"):
        _polar.gradients_of([fields[0], other], points)


@pytest.mark.parametrize(
    "terms, message",
    [
        pytest.param(([2], [0], [SIN]), "sin terms", id="sin-k0"),
        pytest.param(([1], [1], [COS], [1]), "log terms", id="log-m1"),
        pytest.param(([0], [0], [COS], [1]), "log terms", id="log-m0"),
        pytest.param(([2], [2], [COS], [0.5]), "log weights", id="log-weight-half"),
        pytest.param(([1], [3], [COS]), "m < 2", id="loose-m1"),
        pytest.param(([0], [2], [SIN]), "m < 2", id="loose-m0"),
        pytest.param(([1], [0], [COS]), "m < 2", id="odd-parity-m1"),
        pytest.param(([0], [1], [COS]), "m < 2", id="odd-parity-m0"),
        pytest.param(([2, 3], [0], [COS]), "shape", id="ragged"),
    ],
)
def test_invalid_terms_are_rejected(terms, message):
    with pytest.raises(ValueError, match=message):
        PolarBasis(*terms)


def test_loose_terms_need_no_parity_from_m_two_on():
    loose = PolarBasis([2, 2, 3], [5, 1, 0], [COS, SIN, COS])
    assert loose.n == 3
    assert not loose.logs.any()
