"""Boundary deficit functionals and Stein kernels for star-shaped domains.

The kernel is built by the explicit Neumann decomposition: pairing the
defining identity with gradients integrates by parts into d scalar
Neumann problems

    Laplacian g_i = 0 in Omega,   dg_i/dnu = x_i on dOmega,

solved by harmonic Ritz least squares on boundary collocation points.
The equilibrated collocation is well conditioned on the shapes the
theorems reach (1.8 to 21 on the k = 2, 3, 4 family members up to
eps = 0.093), so it is solved by the normal equations of
``_polar.fit_normal`` up to ``_polar.NORMAL_COND``, and by ``lstsq``
above it.  The Neumann residual is the max over the 2m angles of
``circle_grid(2m)``: at the m collocation angles it is read off the
collocation rows, at the m odd angles between them from one table of the
basis there.  The two potentials are the columns of one PolarField, and
tau = Dg is its gradient on the polar bulk quadrature grid over Omega.
The defining identity is audited on a fixed panel of ten polynomial test
fields, kept as a coefficient table ``_PANEL`` over the six quadratic
basis terms 1, x1, x2, |x|^2, x1^2 - x2^2 and 2 x1 x2.  Both sides of the
identity are linear in the test field, so they are integrated against the
six terms, not the ten fields.  The terms' gradients are 0, e1, e2, 2x,
(2 x1, -2 x2) and (2 x2, 2 x1), so the (2, 6) left moments
int tau_jd d_d phi_t are a fixed linear map of int tau_jd (1, x1, x2), one
(4, N) @ (N, 3) product on the bulk grid.  The (2, 6) right moments
int x_j phi_t dS come from one 12-column boundary quadrature that reads
the terms off the frame's points, and each panel row is its coefficients
against the moments.  No polar field is evaluated, so the audit does not
share the evaluator that built tau.  The kernel requires a
boundary-centered domain: pairing with constant fields forces the
boundary barycenter to vanish, which ``require_centered`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _polar
from .errors import GridTooCoarse, IdentityViolated, InputError, NormalizationMissing
from .shapes import (
    StarDomain,
    boundary_frame,
    bulk_grid,
    check_integer,
    circle_grid,
    doubling_quadrature,
    frame_at,
    geometric_functionals,
    trig_zeros,
)

CENTER_GATE = 1e-8        # bound on |boundary barycenter| * perimeter
KERNEL_ORDER = 24         # harmonic truncation of the Neumann potentials
KERNEL_GRID = 1024        # boundary collocation angles
PANEL_TOL = 1e-6          # relative gap of the test-panel identity
DEFICIT_TOL = 1e-10       # doubling tolerance of the deficit integrals

# The test panel: ten vector fields (u1, u2) with spanning derivative
# content, each component given by its coefficients over
# full_basis(2, include_constant=True) = 1, x1, x2, r^2, r^2 cos 2t, r^2 sin 2t
# (x1^2 = (r^2 + r^2 cos 2t) / 2, x1 x2 = r^2 sin 2t / 2).
_PANEL = (
    ("e1", (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),
    ("e2", (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
    ("identity", (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
    ("rotation", (0, 0, -1, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
    ("x1^2 e1", (0, 0, 0, 0.5, 0.5, 0), (0, 0, 0, 0, 0, 0)),
    ("x2^2 e2", (0, 0, 0, 0, 0, 0), (0, 0, 0, 0.5, -0.5, 0)),
    ("x1x2 e1", (0, 0, 0, 0, 0, 0.5), (0, 0, 0, 0, 0, 0)),
    ("holomorphic", (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
    ("radial^2 pair", (0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 0, 0)),
    ("shear", (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
)


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
        # in the polar frame theta_hat = (1, 0) and nu = (R, -R') / J
        frame = frame_at(domain, theta)
        r, rp, jac = frame.radius, frame.radius_prime, frame.jacobian
        gap2 = (1.0 - r * r / jac) ** 2 + (r * rp / jac) ** 2
        osc2 = (1.0 - r / jac) ** 2 + (rp / jac) ** 2
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
    osc1_val, _ = doubling_quadrature(
        osc_part, tol=DEFICIT_TOL, breaks=trig_zeros(0.0, k * b, -k * a)
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
    potentials: _polar.PolarField  # g_1, g_2 as its two coefficient columns
    tau: np.ndarray                # (N, 2, 2) on the bulk grid
    grid: _polar.PolarGrid         # the bulk quadrature grid
    neumann_residual: float
    discrepancy_l1: float          # integral of ||I - tau||_HS
    discrepancy_l2: float          # integral of ||I - tau||_HS^2
    energy: float                  # integral of ||Dg||_HS^2
    panel: tuple[tuple[str, float, float], ...]
    condition: float
    truncation: int
    grid_boundary: int


def _discrepancies(potentials, grid):
    """tau = Dg on the bulk grid, and the integrals of ||I - tau||_HS and of
    its square against its weights."""
    tau = potentials.gradient(grid)
    gap = np.eye(2) - tau
    gap2 = np.einsum("nab,nab->n", gap, gap)
    return tau, float(grid.weights @ np.sqrt(gap2)), float(grid.weights @ gap2)


def _panel(domain, tau, grid):
    """(label, int tau : Du, int_dOmega (x . u) dS) for each test field u,
    read off the left and right moments of the six basis terms phi_t, which
    are the Cartesian quadratics 1, x1, x2, |x|^2, x1^2 - x2^2 and 2 x1 x2."""
    coeffs = np.array([row[1:] for row in _PANEL], dtype=float).reshape(len(_PANEL), 12)
    # the left moments from int tau_jd (1, x1, x2) (module docstring), read
    # as one_d = int tau_jd and xa_d = int tau_jd x_a, each (2,) over j
    weighted = (grid.weights[:, None] * tau.reshape(grid.size, 4)).T
    linear = weighted @ np.column_stack([np.ones(grid.size), grid.points])
    (one1, x11, x21), (one2, x12, x22) = linear.reshape(2, 2, 3).transpose(1, 2, 0)
    left = np.stack(
        [np.zeros(2), one1, one2, 2.0 * (x11 + x22), 2.0 * (x11 - x22), 2.0 * (x21 + x12)],
        axis=1,
    )
    lhs = coeffs @ left.ravel()

    def boundary_integrand(theta: np.ndarray) -> np.ndarray:
        frame = frame_at(domain, theta)
        x1, x2 = frame.points.T
        x1x1, x2x2 = x1 * x1, x2 * x2
        phi = np.stack([np.ones_like(x1), x1, x2, x1x1 + x2x2, x1x1 - x2x2, 2.0 * x1 * x2])
        phi *= frame.jacobian
        return (frame.points[:, :, None] * phi.T[:, None, :]).reshape(len(theta), 12)

    moments, _ = doubling_quadrature(boundary_integrand)
    rhs = coeffs @ moments
    return tuple(
        (row[0], float(l), float(r)) for row, l, r in zip(_PANEL, lhs, rhs)
    )


def require_centered(fun, what: str = "the domain") -> None:
    """NormalizationMissing naming ``what`` unless the geometric functionals
    ``fun`` have |int x dS| = |boundary barycenter| perimeter <= CENTER_GATE."""
    mag = float(np.hypot(*fun.barycenter)) * fun.perimeter
    if mag > CENTER_GATE:
        raise NormalizationMissing(f"{what} is off center: |int x dS| {mag:.3g} > {CENTER_GATE:g}")


def stein_kernel_solve(
    domain: StarDomain, k: int = KERNEL_ORDER, m: int = KERNEL_GRID
) -> SteinKernelResult:
    """Construct the kernel tau = Dg from two harmonic Neumann solves.

    Both potentials are fitted on m uniform boundary angles by
    ``_polar.fit_normal``: normal equations while the equilibrated
    collocation's condition is at most ``_polar.NORMAL_COND``, ``lstsq``
    above it.  ``condition`` is sqrt(lambda_max / lambda_min) of the
    equilibrated Gram matrix, the same number as the singular value ratio
    of the collocation.  ``neumann_residual`` is max |dg/dnu - x| over the
    2m angles of ``circle_grid(2m)``: the m collocation angles, and the m
    odd angles between them.

    Raises
    ------
    InputError
        if the truncation order k is not an integer >= 1.
    GridTooCoarse
        if m is not an integer >= 2k, the number of unknowns.
    NormalizationMissing
        if the domain is not centered (``require_centered``).
    IllConditioned
        if the equilibrated Neumann collocation exceeds ``_polar.COND_GATE``.
    IdentityViolated
        if the defining identity fails on the test panel at PANEL_TOL relative.
    """
    check_integer("truncation order", k, 1)
    check_integer("boundary grid", m, 2 * k, GridTooCoarse)
    require_centered(geometric_functionals(domain))

    frame = boundary_frame(domain, m)
    sqrt_w = np.sqrt(frame.weights)
    basis = _polar.harmonic_basis(k)
    rows = basis.normal_derivative(frame, *frame.polar_normal)
    coeffs, cond = _polar.fit_normal(rows * sqrt_w[:, None], frame.points * sqrt_w[:, None])
    potentials = _polar.PolarField(basis, coeffs)

    grid = bulk_grid(domain)
    tau, disc1, disc2 = _discrepancies(potentials, grid)
    energy = float(grid.weights @ np.einsum("nab,nab->n", tau, tau))

    # the residual on the 2m angles of circle_grid(2m): the m collocation
    # angles, where the rows give it, and the m odd angles between them
    odd = frame_at(domain, circle_grid(2 * m)[0][1::2])
    flux_odd = basis.normal_derivative(odd, *odd.polar_normal) @ coeffs
    neumann = float(
        max(np.abs(rows @ coeffs - frame.points).max(), np.abs(flux_odd - odd.points).max())
    )

    panel = _panel(domain, tau, grid)
    worst = max(abs(l - r) / max(1.0, abs(r)) for _, l, r in panel)
    if worst > PANEL_TOL:
        raise IdentityViolated(
            f"test-panel identity off by {worst:.3g} relative (> {PANEL_TOL:g})"
        )

    return SteinKernelResult(
        domain=domain,
        potentials=potentials,
        tau=tau,
        grid=grid,
        neumann_residual=neumann,
        discrepancy_l1=disc1,
        discrepancy_l2=disc2,
        energy=energy,
        panel=tuple(panel),
        condition=cond,
        truncation=k,
        grid_boundary=m,
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
    nt, nr = result.grid.theta.size, result.grid.t.size
    _, disc1, disc2 = _discrepancies(result.potentials, bulk_grid(result.domain, 2 * nt, 2 * nr))
    return disc1 if order == 1 else disc2
