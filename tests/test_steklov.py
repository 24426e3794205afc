"""Steklov solver: exact disk spectra, frozen perturbed values, gates."""

from __future__ import annotations

import numpy as np
import pytest

from steinshapes import PerturbationFamily, StarDomain, normalize, steklov_spectrum
from steinshapes import _polar
from steinshapes.steklov import CONVERGENCE_TOL, _assemble, _solve_pencil
from steinshapes.errors import GridTooCoarse, InputError, NoConvergence

from reference import rayleigh_quotient, trace_inequality_check, two_call_assemble

# frozen oracle values, printed once at %.17g and pinned
VN_SIGMA1 = 0.85527050448831599
VN_CBW = 1.1692207257846119
SIGMA1_BALL_08 = 1.2499999999999958


def ball(rho: float = 1.0) -> StarDomain:
    return StarDomain(rho, ())


def bump_vn() -> StarDomain:
    return normalize(StarDomain(1.0, (0.0, 0.1)), "volume")


def x1_field() -> _polar.PolarField:
    return _polar.PolarField(_polar.harmonic_basis(1), np.array([1.0, 0.0]))


def x2_field() -> _polar.PolarField:
    return _polar.PolarField(_polar.harmonic_basis(1), np.array([0.0, 1.0]))


def test_disk_spectrum_is_exact():
    res = steklov_spectrum(ball())
    np.testing.assert_allclose(
        res.eigenvalues[:5], [0.0, 1.0, 1.0, 2.0, 2.0], atol=1e-6
    )
    assert res.sigma1 == pytest.approx(1.0, abs=1e-8)
    assert res.c_bw == pytest.approx(1.0, abs=1e-8)
    assert res.bw_deficit == pytest.approx(0.0, abs=1e-8)
    assert res.multiplicities == (1, 2, 2, 2)
    assert res.dropped == 0
    assert res.converged


def test_disk_scaling_law():
    # sigma scales like 1/rho, so the 0.8-disk pair sits at 1.25
    res = steklov_spectrum(ball(0.8))
    assert res.sigma1 == pytest.approx(1.25, abs=1e-10)
    np.testing.assert_allclose(res.sigma1, SIGMA1_BALL_08, rtol=1e-12)


def test_bump_spectrum_frozen():
    res = steklov_spectrum(bump_vn())
    np.testing.assert_allclose(res.sigma1, VN_SIGMA1, rtol=1e-12)
    np.testing.assert_allclose(res.c_bw, VN_CBW, rtol=1e-12)
    assert res.multiplicities == (1,) * 7
    assert np.all(np.diff(res.eigenvalues) >= 0.0)
    assert res.bw_deficit == pytest.approx(1.0 - VN_SIGMA1, rel=1e-12)


def test_eigenfunction_attains_its_eigenvalue():
    dom = bump_vn()
    res = steklov_spectrum(dom)
    quotient = rayleigh_quotient(dom, res.eigenfunction(1))
    np.testing.assert_allclose(quotient, res.sigma1, rtol=1e-9)


def test_rayleigh_quotient_upper_bounds_sigma1():
    dom = bump_vn()
    res = steklov_spectrum(dom)
    assert rayleigh_quotient(dom, x1_field()) >= res.sigma1 - 1e-12
    assert rayleigh_quotient(ball(), x1_field()) == pytest.approx(1.0, abs=1e-12)


def test_trace_inequality_margin():
    components = (x1_field(), x2_field())
    assert trace_inequality_check(ball(), components, 1.0) == pytest.approx(
        0.0, abs=1e-10
    )
    dom = bump_vn()
    res = steklov_spectrum(dom)
    assert trace_inequality_check(dom, components, res.c_bw) > 0.0


def test_strict_truncation_gate():
    dom = bump_vn()
    with pytest.raises(NoConvergence):
        steklov_spectrum(dom, k=4)
    res = steklov_spectrum(dom, k=4, strict=False)
    assert not res.converged
    assert np.isfinite(res.sigma1)


def test_boundary_grid_floor():
    with pytest.raises(GridTooCoarse):
        steklov_spectrum(ball(), k=16, m=32)


@pytest.mark.parametrize("k", [0, -4])
def test_truncation_order_must_be_positive(k):
    with pytest.raises(InputError, match="truncation order"):
        steklov_spectrum(ball(), k=k)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_harmonic_basis_at_k_leads_the_basis_at_k_plus_4(k):
    small = _polar.harmonic_basis(k, include_constant=True)
    big = _polar.harmonic_basis(k + 4, include_constant=True)
    for name in ("powers", "freqs", "kinds", "logs"):
        np.testing.assert_array_equal(getattr(small, name), getattr(big, name)[: 2 * k + 1])


@pytest.mark.parametrize("k", [4, 24, 60])
def test_spectrum_is_the_leading_block_of_the_k_plus_4_pencil(k):
    dom = bump_vn()
    res = steklov_spectrum(dom, k, strict=False)
    sigma, _, _ = _solve_pencil(*_assemble(dom, k, res.grid)[:2])
    np.testing.assert_allclose(res.eigenvalues, sigma[: res.eigenvalues.size], rtol=0, atol=1e-13)
    refined, _, _ = _solve_pencil(*_assemble(dom, k + 4, res.grid)[:2])
    assert res.converged == (abs(res.sigma1 - refined[1]) <= CONVERGENCE_TOL)


def test_boundary_frame_holds_the_k_plus_4_system():
    assert steklov_spectrum(bump_vn(), k=8, m=32, strict=False).grid == 64
    assert steklov_spectrum(ball(), k=60).grid == 272


@pytest.mark.parametrize("member", [None] + [(k, i) for k in (2, 3, 4) for i in range(3)],
                         ids=lambda v: "ball" if v is None else f"k{v[0]}-{v[1]}")
def test_assemble_equals_the_two_call_route(member):
    domain = ball() if member is None else PerturbationFamily(k=member[0]).members()[member[1]]
    for k, m in ((20, 256), (28, 256)):
        got, want = _assemble(domain, k, m), two_call_assemble(domain, k, m)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
