from __future__ import annotations

import math

import numpy as np
import pytest

from steinshapes import (
    PerturbationFamily,
    StarDomain,
    build_domain,
    normalize,
    oblique,
    solve_oblique,
    solve_oblique_kernel_variant,
)
from steinshapes import _polar
from steinshapes._polar import PolarField, PolarGrid, cascade_basis
from steinshapes.errors import InputError, NotElliptic
from steinshapes.oblique import (
    ellipticity_margin,
    parse_rhs,
    rhs_constant,
    rhs_harmonic,
    rhs_sq_radius,
    rhs_x1,
    schauder_probe,
)
from steinshapes.shapes import bulk_grid, circle_grid, disk_grid, geometric_functionals

from reference import divergence_functional, holder_norm, matrix_holder_seminorm

MARGIN_06 = 0.15147186257614292


def ball() -> StarDomain:
    return StarDomain(1.0)


def default_family():
    out = []
    for k in (2, 3):
        for eps in (0.02, 0.04, 0.06, 0.08, 0.10):
            coeffs = (0.0,) * (k - 1) + (eps,)
            out.append(normalize(StarDomain(1.0, coeffs), "volume"))
    return out


def test_rhs_expansion_algebra():
    h = rhs_x1() + rhs_constant(0.5)
    grid = disk_grid(32, 8)
    np.testing.assert_allclose(
        h.value(grid), grid.points[:, 0] + 0.5, rtol=0.0, atol=1e-15
    )


def test_parse_rhs_tokens():
    # right-hand sides are fields, so they compare by values
    grid = disk_grid(32, 8)
    for token, build in (("x1", rhs_x1), ("r2", rhs_sq_radius), ("one", rhs_constant)):
        got, want = parse_rhs(token), build()
        assert np.array_equal(got.value(grid), want.value(grid))
    with pytest.raises(ValueError):
        parse_rhs("potato")


def test_ball_x1_matches_separation_of_variables():
    # Radial-derivative condition on the ball: f = (r^3 - 3r)/8 cos(theta)
    sol = solve_oblique(ball(), rhs_x1())
    assert abs(sol.c_star) < 1e-12
    grid = disk_grid(128, 32)
    pts = grid.points
    r = np.hypot(pts[:, 0], pts[:, 1])
    th = np.arctan2(pts[:, 1], pts[:, 0])
    want = (r**3 - 3 * r) / 8.0 * np.cos(th)
    got = sol.field.value(grid)
    gap = got - want
    gap -= gap.mean()
    assert np.abs(gap).max() < 1e-8


def test_ball_sq_radius_matches_separation_of_variables():
    # f = r^4/16 - r^2/8 up to a constant, c_star = 1/2
    sol = solve_oblique(ball(), rhs_sq_radius())
    assert abs(sol.c_star - 0.5) < 1e-12
    grid = disk_grid(128, 32)
    pts = grid.points
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    want = r2**2 / 16.0 - r2 / 8.0
    got = sol.field.value(grid)
    gap = got - want
    gap -= gap.mean()
    assert np.abs(gap).max() < 1e-8


def test_boundary_residual_on_default_family():
    for dom in default_family():
        sol = solve_oblique(dom, rhs_sq_radius())
        assert sol.boundary_residual <= 1e-8
        assert sol.reliable


def test_interior_residual_is_structural_zero():
    # the ansatz solves the PDE exactly; only the boundary is approximated
    sol = solve_oblique(normalize(StarDomain(1.0, (0.0, 0.1)), "volume"), rhs_x1())
    assert sol.interior_residual < 1e-12


def test_c_star_gap_shrinks_with_eps():
    # oblique direction converges to radial, so c_star -> domain mean of h
    gaps = []
    eps_list = (0.02, 0.05, 0.1)
    for eps in eps_list:
        dom = normalize(StarDomain(1.0, (0.0, eps)), "volume")
        sol = solve_oblique(dom, rhs_sq_radius())
        gaps.append(abs(sol.c_star - sol.mean_domain_h))
    fit = np.polyfit(np.log(eps_list), np.log(gaps), 1)
    assert fit[0] >= 0.9


def test_divergence_functional_vanishes():
    sol = solve_oblique(normalize(StarDomain(1.0, (0.0, 0.08)), "volume"), rhs_x1())
    assert abs(divergence_functional(sol)) < 1e-10


@pytest.mark.parametrize(
    "domain",
    [
        StarDomain(1.0, (0.03, 0.05), (-0.02, 0.01)),
        normalize(StarDomain(1.0, (0.0, -0.03, 0.04), (0.02, 0.0, -0.03)), "volume"),
        normalize(StarDomain(1.0, (0.03, -0.02, 0.04), (0.01, 0.02, -0.03)), "recenter"),
    ],
    ids=["order2", "order3-volume", "order3-recentered"],
)
def test_divergence_functional_is_the_disk_integral_of_the_laplacian(domain):
    # divergence theorem: the flux of grad f is int_{B_1} (h - c_star)
    disk = disk_grid(64, 16)
    for token in ("x1", "r2", "quadrupole"):
        h = parse_rhs(token)
        sol = solve_oblique(domain, h)
        want = float(disk.weights @ h.value(disk)) - math.pi * sol.c_star
        assert abs(divergence_functional(sol) - want) <= 1e-10, token


@pytest.mark.parametrize("solve", [solve_oblique, solve_oblique_kernel_variant])
def test_solutions_have_zero_mean_on_the_disk(solve):
    # the constant from the area primitive against a disk quadrature of f
    domain = normalize(StarDomain(1.0, (0.03, -0.02, 0.04), (0.01, 0.02, -0.03)), "volume")
    disk = disk_grid(128, 48)
    for token in ("x1", "r2", "quadrupole"):
        values = solve(domain, parse_rhs(token)).field.value(disk)
        assert abs(disk.weights @ values) <= 1e-13 * np.abs(values).max(), token


def bulk_grid_mean(domain, h):
    """The domain mean of h on the default bulk grid: a quadrature of the
    values of h, independent of the area primitive."""
    grid = bulk_grid(domain)
    return float(grid.weights @ h.value(grid)) / geometric_functionals(domain).volume


def test_mean_domain_h_matches_the_bulk_grid_quadrature():
    rng = np.random.default_rng(26)
    for _ in range(6):
        order = int(rng.integers(1, 5))
        raw = rng.uniform(-0.06, 0.06, 2 * order)
        domain = StarDomain(1.0, tuple(raw[:order]), tuple(raw[order:]))
        for token in ("x1", "r2", "quadrupole"):
            h = parse_rhs(token)
            got, want = oblique._mean_domain(domain, h), bulk_grid_mean(domain, h)
            assert abs(got - want) <= 1e-13 * abs(want), token
        assert oblique._mean_domain(domain, rhs_constant()) == pytest.approx(1.0, rel=1e-15)


def test_solution_laplacian_matches_data():
    h = rhs_harmonic(2) + rhs_constant(0.25)
    sol = solve_oblique(ball(), h)
    grid = disk_grid(64, 16)
    pts = grid.points
    r = np.hypot(pts[:, 0], pts[:, 1])
    th = np.arctan2(pts[:, 1], pts[:, 0])
    data = r**2 * np.cos(2 * th) + 0.25
    np.testing.assert_allclose(
        sol.field.laplacian(grid), data - sol.c_star, atol=1e-10
    )


def test_ellipticity_margin_frozen():
    np.testing.assert_allclose(
        ellipticity_margin(StarDomain(1.0, (0.0, 0.6))), MARGIN_06, rtol=1e-12
    )
    assert ellipticity_margin(ball()) == pytest.approx(1.0)


def test_kernel_variant_rejects_a_non_elliptic_pullback():
    # R = 1 + 0.5 cos 6 theta: the symmetric part of Dpsi has min eigenvalue
    # -0.581, so the pulled-back operator is not elliptic
    domain = build_domain({"fourier_cos": [0, 0, 0, 0, 0, 0.5]})
    assert ellipticity_margin(domain) < 0.0
    with pytest.raises(NotElliptic):
        solve_oblique_kernel_variant(domain, rhs_x1())


def test_kernel_variant_flags_large_deformation():
    sol = solve_oblique_kernel_variant(StarDomain(1.0, (0.0, 0.6)), rhs_sq_radius())
    assert not sol.reliable


def test_kernel_variant_matches_classic_on_ball():
    a = solve_oblique(ball(), rhs_sq_radius())
    b = solve_oblique_kernel_variant(ball(), rhs_sq_radius())
    assert abs(a.c_star - b.c_star) < 1e-8
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    circle = PolarGrid(theta, np.full((theta.size, 1), 0.7))
    np.testing.assert_allclose(b.field.value(circle), a.field.value(circle), atol=1e-8)


def test_kernel_variant_reliable_on_gentle_domain():
    sol = solve_oblique_kernel_variant(StarDomain(1.0, (0.0, 0.02)), rhs_x1())
    assert sol.reliable
    assert sol.interior_residual <= 1e-6

    # the two solvers pose different operators off the ball, so the
    # compatibility scalars only agree to second order in the deformation
    dom = normalize(StarDomain(1.0, (0.0, 0.05)), "volume")
    a = solve_oblique(dom, rhs_sq_radius())
    b = solve_oblique_kernel_variant(dom, rhs_sq_radius())
    assert b.reliable
    assert abs(a.c_star - b.c_star) < 1e-3


VARIANT_DOMAINS = {
    "ball": ball,
    "k2-vn": lambda: PerturbationFamily(k=2).members()[2],
    "k4-vn": lambda: PerturbationFamily(k=4).members()[2],
    "order3-recentered": lambda: normalize(
        StarDomain(1.0, (0.03, -0.02, 0.04), (0.01, 0.02, -0.03)), "recenter"
    ),
}


def unpreconditioned_variant(domain, h):
    """The kernel variant in basis coordinates: term tables built for the
    solve and ``_polar.fit`` on them, at condition ~2e10.  Returns c, the
    field, the reliable flag and the condition."""
    n_theta, n_r = oblique.VARIANT_BULK
    m = oblique.VARIANT_BOUNDARY_GRID
    grid = disk_grid(n_theta, n_r)
    basis = cascade_basis(oblique.CASCADE_ORDER)
    r_ang, rp_ang = np.repeat(domain.radius_derivatives(grid.theta), n_r, axis=1)
    sq_int = np.sqrt(grid.weights)
    rows_int = sq_int[:, None] * (
        r_ang[:, None] * basis.laplacians(grid)
        - rp_ang[:, None] * basis.hessian_rtheta(grid)
    )
    theta_b, dth = circle_grid(m)
    rows_bnd = math.sqrt(dth) * (
        domain.radius(theta_b)[:, None]
        * basis.radial_derivative(PolarGrid.circle(theta_b))
    )
    matrix = np.block([[rows_int, sq_int[:, None]], [rows_bnd, np.zeros((m, 1))]])
    rhs = np.concatenate([sq_int * h.value(grid), np.zeros(m)])
    sol, cond = _polar.fit(matrix, rhs)
    c_star = float(sol[-1])
    field = oblique._zero_mean(PolarField(basis, sol[:-1]))
    _, _, reliable = oblique._variant_residuals(domain, h, field, c_star)
    return c_star, field, reliable, cond


@pytest.mark.parametrize("name", VARIANT_DOMAINS)
def test_kernel_variant_matches_the_unpreconditioned_route(name):
    # the two routes span one space; only round-off in the basis
    # coordinates, at condition ~2e10, tells them apart
    domain = VARIANT_DOMAINS[name]()
    grid = disk_grid(64, 16)
    for token in ("x1", "r2", "quadrupole"):
        h = parse_rhs(token)
        sol = solve_oblique_kernel_variant(domain, h)
        c_star, field, reliable, _ = unpreconditioned_variant(domain, h)
        assert abs(sol.c_star - c_star) <= 1e-11 * max(1.0, abs(c_star))
        want = field.value(grid)
        assert np.abs(sol.field.value(grid) - want).max() <= 1e-9 * np.abs(want).max()
        assert sol.reliable == reliable
        assert sol.condition < 1e3


def test_kernel_variant_system_is_built_once_and_read_only():
    system = oblique._variant_system()
    assert oblique._variant_system() is system
    for table in system:
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_schauder_probe_is_continuous_in_eps():
    probes = (rhs_sq_radius(), rhs_x1(), rhs_harmonic(2))
    ratios = []
    for eps in (0.0, 0.05, 0.1):
        rep = schauder_probe(StarDomain(1.0, (0.0, eps)), probes, alpha=0.5)
        assert rep.max_ratio == max(rep.ratios)
        ratios.append(rep.max_ratio)
    assert max(ratios) / min(ratios) < 1.5


def test_schauder_probe_needs_a_probe():
    with pytest.raises(InputError, match="at least one probe"):
        schauder_probe(ball(), [])


@pytest.mark.parametrize(
    "domain",
    [StarDomain(1.0, (0.0, 0.05)), normalize(StarDomain(1.0, (0.0, 0.0, 0.08)), "volume")],
    ids=["k2", "k3-volume"],
)
def test_schauder_probe_matches_the_per_probe_route(domain):
    # one shared pass over the pairs gives the bits of one pass per seminorm
    probes = (rhs_sq_radius(), rhs_x1(), rhs_harmonic(2))
    grid = disk_grid(96, 24)
    pts = grid.points
    hessians = [solve_oblique(domain, h).field.hessian(grid) for h in probes]
    for alpha in (0.5, 1.0):
        rep = schauder_probe(domain, probes, alpha=alpha)
        dens = [holder_norm(pts, h.value(grid), alpha) for h in probes]
        nums = [
            float(np.sqrt(np.einsum("nab,nab->n", m, m)).max())
            + matrix_holder_seminorm(pts, m, alpha)
            for m in hessians
        ]
        assert rep.denominators == tuple(dens)
        assert rep.numerators == tuple(nums)
        assert rep.ratios == tuple(a / b for a, b in zip(nums, dens))
        assert rep.max_ratio == max(rep.ratios)
