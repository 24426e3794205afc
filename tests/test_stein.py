"""Deficit integrals and kernel construction: exact ball cases, frozen
perturbed values, and the defining-identity audit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from steinshapes import (
    PerturbationFamily,
    StarDomain,
    boundary_deficits,
    geometric_functionals,
    normalize,
    stein_discrepancy,
    stein_kernel_solve,
)
from steinshapes import _polar, stein
from steinshapes._polar import PolarField, full_basis, harmonic_basis
from steinshapes.errors import IdentityViolated, InputError, NormalizationMissing
from steinshapes.shapes import boundary_frame, build_domain, bulk_grid, doubling_quadrature, frame_at

# frozen oracle values, printed once at %.17g and pinned
BUMP_D1 = 0.97221000850566797
BUMP_D2 = 0.15630505374465839
BUMP_OSC_L1 = 0.80263520469526162
BUMP_OSC_L2 = 0.12504311632416518
VN_D2 = 0.15533349356018034
VN_DISC_L1 = 0.68296378621540943
VN_DISC_L2 = 0.14948486390408666
VN_ENERGY = 6.6499040878019509


def ball() -> StarDomain:
    return StarDomain(1.0, ())


def bump() -> StarDomain:
    return StarDomain(1.0, (0.0, 0.1))


def bump_vn() -> StarDomain:
    return normalize(bump(), "volume")


def test_ball_deficits_vanish():
    rep = boundary_deficits(ball())
    assert rep.d1 == pytest.approx(0.0, abs=1e-12)
    assert rep.d2 == pytest.approx(0.0, abs=1e-12)
    assert rep.osc_l1 == pytest.approx(0.0, abs=1e-10)
    assert rep.osc_l2 == pytest.approx(0.0, abs=1e-12)
    assert rep.identity_residual < 1e-12


def test_bump_deficits_frozen():
    rep = boundary_deficits(bump())
    np.testing.assert_allclose(rep.d1, BUMP_D1, rtol=1e-12)
    np.testing.assert_allclose(rep.d2, BUMP_D2, rtol=1e-12)
    np.testing.assert_allclose(rep.osc_l1, BUMP_OSC_L1, rtol=1e-12)
    np.testing.assert_allclose(rep.osc_l2, BUMP_OSC_L2, rtol=1e-12)
    assert rep.identity_residual < 1e-10


def test_normalized_bump_d2_frozen():
    rep = boundary_deficits(bump_vn())
    np.testing.assert_allclose(rep.d2, VN_D2, rtol=1e-12)


def test_ball_kernel_is_the_identity():
    res = stein_kernel_solve(ball())
    assert np.abs(res.tau - np.eye(2)).max() < 1e-12
    assert res.discrepancy_l1 < 1e-12
    assert res.discrepancy_l2 < 1e-24
    assert res.energy == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert res.neumann_residual < 1e-12


def test_bump_kernel_frozen():
    res = stein_kernel_solve(bump_vn())
    np.testing.assert_allclose(res.discrepancy_l1, VN_DISC_L1, rtol=1e-10)
    np.testing.assert_allclose(res.discrepancy_l2, VN_DISC_L2, rtol=1e-10)
    np.testing.assert_allclose(res.energy, VN_ENERGY, rtol=1e-10)
    assert res.condition < 1e12
    assert res.neumann_residual < 1e-6


def test_kernel_is_the_gradient_of_its_potentials():
    # g_1 and g_2 are the two columns of one field; tau is its gradient,
    # row i bit for bit the gradient of g_i alone
    res = stein_kernel_solve(bump_vn())
    pot = res.potentials
    assert np.array_equal(res.tau, pot.gradient(res.grid))
    for i in range(2):
        g = PolarField(pot.basis, pot.coeffs[:, i].copy())
        assert np.array_equal(res.tau[:, i], g.gradient(res.grid))


def test_trace_integral_matches_momentum():
    # pairing the kernel with the identity field integrates tr tau, which
    # the defining identity sends to the boundary momentum integral
    res = stein_kernel_solve(bump_vn())
    fun = geometric_functionals(bump_vn())
    row = {label: (lhs, rhs) for label, lhs, rhs in res.panel}["identity"]
    assert row[1] == pytest.approx(fun.momentum, rel=1e-10)
    assert row[0] == pytest.approx(row[1], rel=1e-10)


def test_disc2_decomposes_into_functionals():
    res = stein_kernel_solve(bump_vn())
    fun = geometric_functionals(bump_vn())
    algebraic = 2.0 * fun.volume - 2.0 * fun.momentum + res.energy
    np.testing.assert_allclose(res.discrepancy_l2, algebraic, rtol=1e-10)


def test_requadrature_is_stable():
    res = stein_kernel_solve(bump_vn())
    assert stein_discrepancy(res, 1) == res.discrepancy_l1
    assert stein_discrepancy(res, 2) == res.discrepancy_l2
    assert stein_discrepancy(res, 1, requadrature=True) == pytest.approx(
        res.discrepancy_l1, rel=1e-8
    )
    assert stein_discrepancy(res, 2, requadrature=True) == pytest.approx(
        res.discrepancy_l2, rel=1e-8
    )


def test_off_center_domain_is_rejected():
    with pytest.raises(NormalizationMissing, match="off center"):
        stein_kernel_solve(StarDomain(1.0, (0.1,)))


@pytest.mark.parametrize("k", [0, -3])
def test_truncation_below_one_is_an_input_error(k):
    with pytest.raises(InputError, match="truncation"):
        stein_kernel_solve(ball(), k=k)


def test_discrepancy_order_validation():
    res = stein_kernel_solve(ball())
    with pytest.raises(ValueError):
        stein_discrepancy(res, order=3)


def per_field_panel(domain, tau, grid):
    """The panel field by field: the twenty test components as one field,
    contracted with tau point by point, and their ten boundary integrands."""
    coeffs = np.array([row[1:] for row in stein._PANEL], dtype=float).reshape(-1, 6)
    tests = PolarField(full_basis(2, include_constant=True), coeffs.T)
    grads = tests.gradient(grid).reshape(grid.size, len(stein._PANEL), 2, 2)
    lhs = grid.weights @ np.einsum("njd,nijd->ni", tau, grads)

    def boundary_integrand(theta):
        frame = frame_at(domain, theta)
        u = tests.value(frame).reshape(len(theta), len(stein._PANEL), 2)
        return np.einsum("nd,nid->ni", frame.points, u) * frame.jacobian[:, None]

    rhs, _ = doubling_quadrature(boundary_integrand)
    return lhs, rhs


PANEL_DOMAINS = {
    "ball": ball,
    "k2-vn": lambda: PerturbationFamily(k=2).members()[2],
    "k4-vn": lambda: PerturbationFamily(k=4).members()[2],
    "order3-recentered": lambda: normalize(
        StarDomain(1.0, (0.03, -0.02, 0.04), (0.01, 0.02, -0.03)), "recenter"
    ),
}


@pytest.mark.parametrize("name", PANEL_DOMAINS)
def test_panel_matches_the_per_field_route(name):
    # the moment form reassociates the sums, so the rows agree at round-off
    domain = PANEL_DOMAINS[name]()
    res = stein_kernel_solve(domain)
    lhs, rhs = per_field_panel(domain, res.tau, res.grid)
    assert [label for label, _, _ in res.panel] == [row[0] for row in stein._PANEL]
    for (_, l_moment, r_moment), l_field, r_field in zip(res.panel, lhs, rhs):
        bound = 1e-13 * max(1.0, abs(r_field))
        assert abs(l_moment - l_field) <= bound
        assert abs(r_moment - r_field) <= bound


def test_panel_makes_no_polar_field_evaluation(monkeypatch):
    # the six test terms are Cartesian quadratics, read in closed form: the
    # audit does not go through the evaluator that built tau
    res = stein_kernel_solve(bump_vn())

    def refuse(*args, **kwargs):
        raise AssertionError("the panel evaluated a polar field or term table")

    monkeypatch.setattr(PolarField, "_contract", refuse)
    monkeypatch.setattr(_polar.PolarBasis, "_tables", refuse)
    assert stein._panel(res.domain, res.tau, res.grid) == res.panel


def lstsq_solve(domain, k=stein.KERNEL_ORDER, m=stein.KERNEL_GRID):
    """stein_kernel_solve by SVD: ``_polar.fit`` on the equilibrated
    collocation, and the Neumann residual contracted over the whole basis
    on a second frame of 2m angles.  Returns its fields as a tuple."""
    frame = boundary_frame(domain, m)
    sqrt_w = np.sqrt(frame.weights)
    basis = harmonic_basis(k)
    rows = basis.normal_derivative(frame, *frame.polar_normal)
    coeffs, cond = _polar.fit(rows * sqrt_w[:, None], frame.points * sqrt_w[:, None])
    frame_f = boundary_frame(domain, 2 * m)
    flux = PolarField(basis, coeffs).normal_derivative(frame_f, *frame_f.polar_normal)
    neumann = float(np.abs(flux - frame_f.points).max())
    potentials = PolarField(basis, coeffs)
    grid = bulk_grid(domain)
    tau, disc1, disc2 = stein._discrepancies(potentials, grid)
    energy = float(grid.weights @ np.einsum("nab,nab->n", tau, tau))
    panel = stein._panel(domain, tau, grid)
    worst = max(abs(l - r) / max(1.0, abs(r)) for _, l, r in panel)
    if worst > stein.PANEL_TOL:
        raise IdentityViolated(
            f"test-panel identity off by {worst:.3g} relative (> {stein.PANEL_TOL:g})"
        )
    return coeffs, tau, neumann, disc1, disc2, energy, panel, cond


ROUTE_EPS = (0.02, 0.05, 0.085)


def family_member(k, eps):
    return PerturbationFamily(k=k, amplitudes=ROUTE_EPS).members()[ROUTE_EPS.index(eps)]


# the ball and the family members that pass the panel; k = 4 at eps = 0.085
# fails it on either route
ROUTE_CASES = [(0, 0.0)] + [
    (k, eps) for k in (2, 3, 4) for eps in ROUTE_EPS if (k, eps) != (4, 0.085)
]


def count_fit_calls(monkeypatch):
    calls = []
    original = _polar.fit

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_polar, "fit", spy)
    return calls


@pytest.mark.parametrize("k, eps", ROUTE_CASES, ids=lambda v: f"{v:g}")
def test_normal_equations_match_the_lstsq_route(k, eps, monkeypatch):
    domain = family_member(k, eps) if k else ball()
    _, _, neumann, disc1, disc2, energy, panel, cond = lstsq_solve(domain)
    calls = count_fit_calls(monkeypatch)
    res = stein_kernel_solve(domain)
    assert calls == []
    # the disk's discrepancies vanish in exact arithmetic: both routes
    # read round-off there, so they are held at an absolute 1e-14
    floor = 0.0 if k else 1e-14
    assert res.discrepancy_l1 == pytest.approx(disc1, rel=1e-12, abs=floor)
    assert res.discrepancy_l2 == pytest.approx(disc2, rel=1e-12, abs=floor)
    assert res.energy == pytest.approx(energy, rel=1e-12)
    assert res.condition == pytest.approx(cond, rel=1e-10)
    assert abs(res.neumann_residual - neumann) <= 1e-14
    for (label, l_new, r_new), (label_old, l_old, r_old) in zip(res.panel, panel):
        assert label == label_old
        assert abs(l_new - l_old) <= 1e-12 * max(1.0, abs(l_old))
        assert abs(r_new - r_old) <= 1e-12 * max(1.0, abs(r_old))


def test_panel_failure_keeps_its_message():
    domain = family_member(4, 0.085)
    with pytest.raises(IdentityViolated) as lstsq:
        lstsq_solve(domain)
    with pytest.raises(IdentityViolated) as normal:
        stein_kernel_solve(domain)
    assert str(normal.value) == str(lstsq.value)


def test_ill_conditioned_gram_falls_back_to_lstsq(monkeypatch):
    # Gram condition 2.4e3 > NORMAL_COND at k = 32: fit_normal hands the rows to fit
    domain = build_domain({"fourier_cos": [0.0, 0.2], "normalize_volume": True, "recenter": True})
    coeffs, tau, neumann, disc1, disc2, energy, panel, cond = lstsq_solve(domain, k=32)
    calls = count_fit_calls(monkeypatch)
    res = stein_kernel_solve(domain, k=32, m=1024)
    assert len(calls) == 1
    assert cond > _polar.NORMAL_COND and res.condition == cond
    # the same rows reach the same fit: every bit of the solve is the lstsq
    # route's, and only the residual is read another way
    assert np.array_equal(res.potentials.coeffs, coeffs)
    assert np.array_equal(res.tau, tau)
    assert (res.discrepancy_l1, res.discrepancy_l2, res.energy) == (disc1, disc2, energy)
    assert res.panel == tuple(panel)
    assert abs(res.neumann_residual - neumann) <= 1e-14
