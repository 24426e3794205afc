"""Boundary deficit functionals and Stein kernels for star-shaped domains.

The kernel is built by the explicit Neumann decomposition: pairing the
defining identity with gradients integrates by parts into d scalar
Neumann problems

    Laplacian g_i = 0 in Omega,   dg_i/dnu = x_i on dOmega,

solved by harmonic Ritz least squares on boundary collocation points.
tau = Dg is then sampled on the polar bulk quadrature grid over Omega,
and the defining identity is audited on a fixed panel of polynomial
test fields.  The kernel requires a boundary-centered domain: pairing
with constant fields forces the boundary barycenter to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _polar
from .errors import IdentityViolated, IllConditioned, InputError, NotCentered
from .shapes import (
    StarDomain,
    boundary_frame,
    bulk_grid,
    doubling_quadrature,
    frame_at,
    geometric_functionals,
    segmented_circle_quadrature,
    trig_zeros,
)

CENTER_GATE = 1e-8
PANEL_TOL = 1e-6
DEFICIT_TOL = 1e-10       # doubling tolerance of the deficit integrals
BULK_SHAPE = (256, 64)    # (angles, radial nodes) of the kernel's bulk grid


# ---------------------------------------------------------------------------
# deficits


@dataclass(frozen=True)
class DeficitReport:
    """Boundary deficit integrals against the unit ball.

    d1 and d2 integrate |theta_hat - R nu_transported| (and its square)
    against the surface Jacobian over the unit circle; osc_l1 and osc_l2
    measure the angle between x/|x| and the normal along the boundary.
    """

    d1: float
    d2: float
    osc_l1: float
    osc_l2: float
    identity_residual: float   # |d2 - (perimeter - 4 volume + momentum)|
    grid: int


def boundary_deficits(domain: StarDomain) -> DeficitReport:
    def smooth_parts(theta: np.ndarray) -> np.ndarray:
        frame = frame_at(domain, theta)
        r, jac = frame.radius, frame.jacobian
        nx, ny = frame.normals[:, 0], frame.normals[:, 1]
        ct = np.cos(theta)
        st = np.sin(theta)
        gap2 = (ct - r * nx) ** 2 + (st - r * ny) ** 2
        osc2 = (ct - nx) ** 2 + (st - ny) ** 2
        return np.stack([np.sqrt(gap2) * jac, gap2 * jac, osc2 * jac], axis=1)

    def osc_part(theta: np.ndarray) -> np.ndarray:
        frame = frame_at(domain, theta)
        r, speed = frame.radius, frame.jacobian
        # |theta_hat - nu|^2 = 2 (speed - R)/speed, vanishing like R'^2
        return np.sqrt(2.0 * np.maximum(speed - r, 0.0) * speed)

    vals, grid = doubling_quadrature(smooth_parts, tol=DEFICIT_TOL)
    d1, d2, osc2 = (float(v) for v in vals)
    # the L1 oscillation integrand carries |R'| cusps, so it is integrated
    # piecewise-analytically between the zeros of R'
    a, b, k = domain._packed
    osc1_val, _ = segmented_circle_quadrature(
        osc_part, trig_zeros(0.0, k * b, -k * a), tol=DEFICIT_TOL
    )
    osc1 = float(osc1_val)
    fun = geometric_functionals(domain)
    algebraic = fun.perimeter - 4.0 * fun.volume + fun.momentum
    return DeficitReport(
        d1=d1,
        d2=d2,
        osc_l1=osc1,
        osc_l2=osc2,
        identity_residual=abs(d2 - algebraic),
        grid=grid,
    )


# ---------------------------------------------------------------------------
# kernel construction


@dataclass(frozen=True)
class SteinKernelResult:
    domain: StarDomain
    potentials: tuple[_polar.PolarField, _polar.PolarField]
    tau: np.ndarray                # (N, 2, 2) on the bulk grid
    grid_points: np.ndarray        # (N, 2)
    grid_weights: np.ndarray       # (N,)
    neumann_residual: float
    discrepancy_l1: float          # integral of ||I - tau||_HS
    discrepancy_l2: float          # integral of ||I - tau||_HS^2
    energy: float                  # integral of ||Dg||_HS^2
    panel: tuple[tuple[str, float, float], ...]
    condition: float
    truncation: int
    grid_boundary: int
    bulk_shape: tuple[int, int]


def _quadratic_test_panel():
    """Ten fixed polynomial vector fields with spanning derivative content."""
    basis = _polar.full_basis(2, include_constant=True)
    # basis order: 1, r cos, r sin, r^2, r^2 cos 2t, r^2 sin 2t
    def v(*coeffs):
        return _polar.PolarField(basis, np.asarray(coeffs, dtype=float))

    zero = v(0, 0, 0, 0, 0, 0)
    x1 = v(0, 1, 0, 0, 0, 0)
    x2 = v(0, 0, 1, 0, 0, 0)
    x1sq = v(0, 0, 0, 0.5, 0.5, 0)     # x^2 = (r^2 + r^2 cos 2t)/2
    x2sq = v(0, 0, 0, 0.5, -0.5, 0)
    x1x2 = v(0, 0, 0, 0, 0, 0.5)
    rsq = v(0, 0, 0, 1, 0, 0)
    harm2 = v(0, 0, 0, 0, 1, 0)        # x^2 - y^2
    harm2s = v(0, 0, 0, 0, 0, 1)       # 2xy
    one = v(1, 0, 0, 0, 0, 0)
    return (
        ("e1", (one, zero)),
        ("e2", (zero, one)),
        ("identity", (x1, x2)),
        ("rotation", (v(0, 0, -1, 0, 0, 0), x1)),
        ("x1^2 e1", (x1sq, zero)),
        ("x2^2 e2", (zero, x2sq)),
        ("x1x2 e1", (x1x2, zero)),
        ("holomorphic", (harm2, harm2s)),
        ("radial^2 pair", (rsq, rsq)),
        ("shear", (x2, x1)),
    )


def stein_kernel_solve(
    domain: StarDomain, k: int = 24, m: int = 1024
) -> SteinKernelResult:
    """Construct the kernel tau = Dg from two harmonic Neumann solves.

    Raises
    ------
    NotCentered
        if the boundary barycenter integral exceeds 1e-8.
    IdentityViolated
        if the defining identity fails on the test panel at 1e-6 relative.
    """
    fun = geometric_functionals(domain)
    center_mag = float(np.hypot(*fun.barycenter)) * fun.perimeter
    if center_mag > CENTER_GATE:
        raise NotCentered(
            f"|boundary barycenter integral| = {center_mag:.3g} > 1e-8"
        )

    frame = boundary_frame(domain, m)
    w = frame.jacobian * frame.dtheta
    sqrt_w = np.sqrt(w)
    basis = _polar.harmonic_basis(k)
    r_b, th_b = frame.radius, frame.theta
    grads = basis.gradients(r_b, th_b)
    dnu = np.einsum("mjd,md->mj", grads, frame.normals)
    scale = 1.0 / np.abs(basis.values(r_b, th_b)).max(axis=0)
    matrix = (dnu * scale) * sqrt_w[:, None]
    rhs = frame.points * sqrt_w[:, None]

    norms = np.linalg.norm(matrix, axis=0)
    norms[norms == 0.0] = 1.0
    sol, _, _, svals = np.linalg.lstsq(matrix / norms, rhs, rcond=None)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if cond > 1e12:
        raise IllConditioned(f"Neumann collocation condition {cond:.3g} > 1e12")
    coeffs = (scale / norms)[:, None] * sol
    g1 = _polar.PolarField(basis, coeffs[:, 0].copy())
    g2 = _polar.PolarField(basis, coeffs[:, 1].copy())

    pts, wq = bulk_grid(domain, *BULK_SHAPE)
    tau = np.stack(_polar.gradients_of((g1, g2), pts), axis=1)
    gap = np.eye(2) - tau
    gap2 = np.einsum("nab,nab->n", gap, gap)
    disc1 = float(wq @ np.sqrt(gap2))
    disc2 = float(wq @ gap2)
    energy = float(wq @ np.einsum("nab,nab->n", tau, tau))

    frame_f = boundary_frame(domain, 2 * m)
    res1, res2 = (
        np.einsum("nd,nd->n", grad, frame_f.normals)
        for grad in _polar.gradients_of((g1, g2), frame_f.points)
    )
    neumann = float(
        max(
            np.abs(res1 - frame_f.points[:, 0]).max(),
            np.abs(res2 - frame_f.points[:, 1]).max(),
        )
    )

    panel = []
    test_panel = _quadratic_test_panel()
    # every test field lives on one basis, evaluated once on the bulk grid
    test_grads = iter(
        _polar.gradients_of([u for _, pair in test_panel for u in pair], pts)
    )
    for label, (u1, u2) in test_panel:
        du1, du2 = next(test_grads), next(test_grads)
        lhs = float(
            wq
            @ (
                np.einsum("nd,nd->n", tau[:, 0], du1)
                + np.einsum("nd,nd->n", tau[:, 1], du2)
            )
        )

        def boundary_integrand(theta: np.ndarray, u1=u1, u2=u2) -> np.ndarray:
            frame = frame_at(domain, theta)
            x = frame.points
            dot = x[:, 0] * u1.value(x) + x[:, 1] * u2.value(x)
            return dot * frame.jacobian

        rhs_val, _ = doubling_quadrature(boundary_integrand)
        panel.append((label, lhs, float(rhs_val)))
    worst = max(abs(l - r) / max(1.0, abs(r)) for _, l, r in panel)
    if worst > PANEL_TOL:
        raise IdentityViolated(
            f"test-panel identity off by {worst:.3g} relative (> 1e-6)"
        )

    return SteinKernelResult(
        domain=domain,
        potentials=(g1, g2),
        tau=tau,
        grid_points=pts,
        grid_weights=wq,
        neumann_residual=neumann,
        discrepancy_l1=disc1,
        discrepancy_l2=disc2,
        energy=energy,
        panel=tuple(panel),
        condition=cond,
        truncation=k,
        grid_boundary=m,
        bulk_shape=BULK_SHAPE,
    )


def stein_discrepancy(
    result: SteinKernelResult, order: int = 1, requadrature: bool = False
) -> float:
    """Stored discrepancy of the constructed kernel (an upper bound of the
    infimum over all kernels); optionally re-integrated on a doubled grid."""
    if order not in (1, 2):
        raise InputError(f"order must be 1 or 2, got {order}")
    if not requadrature:
        return result.discrepancy_l1 if order == 1 else result.discrepancy_l2
    nt, nr = result.bulk_shape
    pts, wq = bulk_grid(result.domain, 2 * nt, 2 * nr)
    tau = np.stack(_polar.gradients_of(result.potentials, pts), axis=1)
    gap = np.eye(2) - tau
    gap2 = np.einsum("nab,nab->n", gap, gap)
    return float(wq @ np.sqrt(gap2)) if order == 1 else float(wq @ gap2)
