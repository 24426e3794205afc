"""Oblique-boundary Poisson solvers on the unit disk.

Two problems are solved, both posed on the unit ball B_1 with data tied to
a star-shaped domain:

  * the constant-coefficient problem
        Laplacian f = h - c in B_1,   grad f . nu_transported = 0 on dB_1,
    by a spectral ansatz: closed-form particular solutions for the
    dictionary right-hand sides plus a harmonic correction, with the
    scalar c free and determined together with the correction by least
    squares on boundary collocation points;

  * the variable-coefficient variant driven by the bulk diffeomorphism
    psi(p) = R(theta_p) p, whose interior operator reduces in the polar
    frame to
        R(theta) Laplacian f - R'(theta) H_rtheta[f],
    with boundary condition grad f . psi = R(theta) f_r = 0, solved by
    least-squares collocation over the full polynomial-trigonometric
    basis (best effort, residual-gated), in coordinates orthonormal on
    the disk.

The data h are ``PolarField``s over the closed dictionary of terms with
known Poisson preimages: the constant, the harmonics r^k cos(k theta) and
r^k sin(k theta), and the radial powers r^{2j}.  ``poisson_preimage()``
maps each term to its preimage:
    Laplacian(r^{k+2} cos k theta / (4k+4)) = r^k cos k theta,
    Laplacian(r^{2j+2} / (2j+2)^2) = r^{2j},   Laplacian(r^2/4) = 1.
The ``rhs_*`` builders make one-term fields, and ``+`` joins the terms of
two fields.

The compatibility scalar c_star and the domain average of h are both
reported; the gap between them is a measured quantity, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from . import _kernels, _polar
from .errors import InputError, NotElliptic
from .shapes import (
    StarDomain,
    check_alpha,
    check_integer,
    circle_grid,
    disk_grid,
    doubling_quadrature,
    frame_at,
    geometric_functionals,
)

RELIABLE_FACTOR = 1e-6         # interior residual over sup|h| of a reliable variant solve
HARMONIC_ORDER = 24            # spectral ansatz: harmonic degree kf
COLLOCATION_GRID = 512         # spectral ansatz: boundary collocation angles
CASCADE_ORDER = 16             # kernel variant: cascade_basis order
VARIANT_BOUNDARY_GRID = 256    # kernel variant: boundary collocation angles
VARIANT_BULK = (128, 16)       # kernel variant: 2048 interior collocation points
PROBE_GRID = (96, 24)          # disk grid of the interior residual and the Schauder probe
SUP_GRID = (256, 65)           # circle angles and radii of the sup |h| estimate
MARGIN_GRID = 2048             # circle angles of the ellipticity margin


# ---------------------------------------------------------------------------
# right-hand sides


def _term(power: int, freq: int, kind: int, coeff: float = 1.0) -> _polar.PolarField:
    basis = _polar.PolarBasis([power], [freq], [kind])
    return _polar.PolarField(basis, np.array([coeff], dtype=float))


def rhs_x1() -> _polar.PolarField:
    return _term(1, 1, _polar.COS)


def rhs_x2() -> _polar.PolarField:
    return _term(1, 1, _polar.SIN)


def rhs_sq_radius() -> _polar.PolarField:
    return _term(2, 0, _polar.COS)


def rhs_constant(value: float = 1.0) -> _polar.PolarField:
    return _term(0, 0, _polar.COS, value)


def rhs_harmonic(k: int) -> _polar.PolarField:
    """The harmonic r^k cos(k theta)."""
    check_integer("harmonic degree", k, 0)
    return _term(k, k, _polar.COS)


_RHS_TOKENS = {
    "x1": rhs_x1,
    "x2": rhs_x2,
    "r2": rhs_sq_radius,
    "one": rhs_constant,
    "quadrupole": lambda: rhs_harmonic(2),
}


def parse_rhs(token: str) -> _polar.PolarField:
    try:
        return _RHS_TOKENS[token]()
    except KeyError:
        raise InputError(
            f"unknown rhs token {token!r}; choose from {sorted(_RHS_TOKENS)}"
        ) from None


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class ObliqueSolution:
    h: _polar.PolarField
    method: str
    kf: int
    c_star: float
    field: _polar.PolarField
    interior_residual: float
    boundary_residual: float
    mean_domain_h: float
    condition: float
    reliable: bool
    grid_boundary: int
    grid_interior: int


def _circle_integral(field: _polar.PolarField, component: str) -> float:
    """Integral over the unit circle of a field component, a trig polynomial
    of the field's top frequency K: the trapezoid rule on K + 1 angles."""
    theta, dtheta = circle_grid(int(field.basis.freqs.max()) + 1)
    return dtheta * float(getattr(field, component)(_polar.PolarGrid.circle(theta)).sum())


def _zero_mean(field: _polar.PolarField) -> _polar.PolarField:
    """field plus the constant that zeroes its integral over B_1, from P(1, theta)."""
    return _term(0, 0, _polar.COS, -_circle_integral(field, "area_primitive") / math.pi) + field


def _mean_domain(domain: StarDomain, h: _polar.PolarField) -> float:
    """Mean of h over the domain, from P on the boundary rays (theta, R(theta))."""
    total, _ = doubling_quadrature(
        lambda theta: h.area_primitive(_polar.PolarGrid(theta, domain.radius(theta)))
    )
    return float(total) / geometric_functionals(domain).volume


def _sup_disk(h: _polar.PolarField) -> float:
    """Grid estimate of sup |h| over the closed unit disk."""
    n_theta, n_r = SUP_GRID
    theta, _ = circle_grid(n_theta)
    grid = _polar.PolarGrid(theta, np.ones(n_theta), np.linspace(0.0, 1.0, n_r))
    return float(np.abs(h.value(grid)).max())


def _oblique_fit(
    domain: StarDomain, h: _polar.PolarField
) -> tuple[_polar.PolarField, float, float]:
    """The field, c_star and condition of ``solve_oblique``: collocation,
    fit and zero mean, without the residuals."""
    kf, m = HARMONIC_ORDER, COLLOCATION_GRID
    theta, _ = circle_grid(m)
    circle = _polar.PolarGrid.circle(theta)
    # nu_r = R / J > 0 needs no gate: _validate certifies min R > 0 and a
    # finite 2 (A^2 + L^2), so J is finite.  This holds while the
    # certificate's rounding allowance, >= 1.3e-12 A, exceeds the error of
    # evaluating R directly, i.e. for orders below a few thousand.
    nu_r, nu_t = frame_at(domain, theta).polar_normal

    harm = _polar.harmonic_basis(kf)
    cols_harm = harm.normal_derivative(circle, nu_r, nu_t)
    col_c = (-0.5) * nu_r  # normal derivative of -r^2/4 at r = 1
    part = h.poisson_preimage()
    rhs = -part.normal_derivative(circle, nu_r, nu_t)
    sol, cond = _polar.fit(np.column_stack([cols_harm, col_c]), rhs)
    harm_coeffs = sol[:-1]
    c_star = float(sol[-1])

    # assemble f without the constant, then pin the disk average to zero
    field = _zero_mean(
        _polar.PolarField(harm, harm_coeffs) + part + _term(2, 0, _polar.COS, -c_star / 4.0)
    )
    return field, c_star, cond


def solve_oblique(domain: StarDomain, h: _polar.PolarField) -> ObliqueSolution:
    """Spectral solve of the oblique problem with free centering scalar.

    The ansatz is f = F_h - c r^2/4 + a_0 + sum_k r^k (a_k cos + b_k sin)
    with F_h = h.poisson_preimage(); the harmonic coefficients
    and c minimize the boundary residual |grad f . nu_transported| in the
    discrete L2 sense over M collocation angles, and a_0 pins the average
    of f over B_1 to zero (kf = HARMONIC_ORDER, M = COLLOCATION_GRID).

    Raises
    ------
    IllConditioned
        if the equilibrated collocation system exceeds ``_polar.COND_GATE``.
    """
    field, c_star, cond = _oblique_fit(domain, h)

    # residuals: interior on a polar probe grid, boundary on a refined circle
    probe = disk_grid(*PROBE_GRID)
    interior = float(
        np.abs(field.laplacian(probe) - (h.value(probe) - c_star)).max()
    )
    theta_f, _ = circle_grid(4 * COLLOCATION_GRID)
    normal_f = frame_at(domain, theta_f).polar_normal
    bres = float(
        np.abs(field.normal_derivative(_polar.PolarGrid.circle(theta_f), *normal_f)).max()
    )

    return ObliqueSolution(
        h=h,
        method="spectral-ansatz",
        kf=HARMONIC_ORDER,
        c_star=c_star,
        field=field,
        interior_residual=interior,
        boundary_residual=bres,
        mean_domain_h=_mean_domain(domain, h),
        condition=cond,
        reliable=True,
        grid_boundary=COLLOCATION_GRID,
        grid_interior=0,
    )


def ellipticity_margin(domain: StarDomain) -> float:
    """Min eigenvalue of the symmetric part of the bulk-map differential.

    In the polar frame sym(Dpsi) = [[R, R'/2], [R'/2, R]], so the margin is
    min over angles of R - |R'|/2; this is the operational reading of the
    smallness condition on the boundary perturbation.
    """
    r, rp = domain.radius_derivatives(circle_grid(MARGIN_GRID)[0])
    return float((r - 0.5 * np.abs(rp)).min())


class _VariantSystem(NamedTuple):
    """The kernel variant's collocation rows that depend on neither the
    domain nor h, in coordinates orthonormal on the disk: a coordinate
    vector y stands for the coefficients ``precond @ y`` over
    ``cascade_basis(CASCADE_ORDER)``.  ``laplacian`` and ``h_rtheta`` are
    sqrt(w)-weighted rows on the ``VARIANT_BULK`` disk grid, ``f_r``
    sqrt(dtheta)-weighted rows on the ``VARIANT_BOUNDARY_GRID`` circle,
    each times ``precond``."""

    precond: np.ndarray
    laplacian: np.ndarray
    h_rtheta: np.ndarray
    f_r: np.ndarray


@cache
def _variant_system() -> _VariantSystem:
    """Built once per process and read-only.  With W the sqrt(w)-weighted,
    column-normalized value table of the basis on the bulk grid and R the
    triangular factor of W = QR, precond = R^{-1} / norms maps the
    orthonormal columns Q back to basis coefficients.  On the polynomial
    terms this is the Zernike basis up to normalization; the QR covers the
    log terms too.  The basis values have condition ~1.5e12 on this grid;
    the rows in these coordinates have condition ~1e2."""
    n_theta, n_r = VARIANT_BULK
    grid = disk_grid(n_theta, n_r)
    basis = _polar.cascade_basis(CASCADE_ORDER)
    sq_w = np.sqrt(grid.weights)[:, None]
    values = sq_w * basis.values(grid)
    norms = np.linalg.norm(values, axis=0)
    precond = np.linalg.inv(np.linalg.qr(values / norms, mode="r")) / norms[:, None]
    theta_b, dth = circle_grid(VARIANT_BOUNDARY_GRID)
    f_r = basis.radial_derivative(_polar.PolarGrid.circle(theta_b))
    system = _VariantSystem(
        precond,
        (sq_w * basis.laplacians(grid)) @ precond,
        (sq_w * basis.hessian_rtheta(grid)) @ precond,
        (math.sqrt(dth) * f_r) @ precond,
    )
    for table in system:
        table.flags.writeable = False
    return system


def _variant_residuals(
    domain: StarDomain, h: _polar.PolarField, field: _polar.PolarField, c_star: float
) -> tuple[float, float, bool]:
    """RMS interior and boundary residuals of the kernel variant on grids
    refined past the collocation ones, and whether the interior one is
    <= RELIABLE_FACTOR sup|h|."""
    n_theta, n_r = VARIANT_BULK
    fine = disk_grid(2 * n_theta, 2 * n_r)
    lap_f = field.laplacian(fine)
    hrt_f = field.hessian_rtheta(fine)
    r_ang_f, rp_ang_f = np.repeat(domain.radius_derivatives(fine.theta), 2 * n_r, axis=1)
    resid_f = r_ang_f * lap_f - rp_ang_f * hrt_f - (h.value(fine) - c_star)
    interior = float(math.sqrt((fine.weights @ resid_f**2) / fine.weights.sum()))
    theta_fb, _ = circle_grid(4 * VARIANT_BOUNDARY_GRID)
    bres_vals = domain.radius(theta_fb) * field.radial_derivative(
        _polar.PolarGrid.circle(theta_fb)
    )
    bres = float(math.sqrt(np.mean(bres_vals**2)))
    return interior, bres, interior <= RELIABLE_FACTOR * max(_sup_disk(h), 1e-300)


def solve_oblique_kernel_variant(
    domain: StarDomain, h: _polar.PolarField
) -> ObliqueSolution:
    """Best-effort collocation solve of the variable-coefficient variant.

    Minimizes the L^2(B_1) norm of the interior residual
        R(theta) Laplacian f - R'(theta) H_rtheta[f] - (h - c)
    on the ``VARIANT_BULK`` weighted polar bulk grid plus the L^2 boundary
    residual of grad f . psi = R f_r over ``VARIANT_BOUNDARY_GRID`` circle
    points, with the scalar c free.  The coefficients R, R' depend on the
    angle only, so they couple a polynomial datum to frequencies outside
    the polynomial parity class and resonate on the m = k pairs, whose
    preimages carry a log weight; the ansatz space is therefore
    ``cascade_basis(kf)`` with kf = CASCADE_ORDER, the closure of the
    degree-kf polynomials under those corrections.  Both reported
    residuals are RMS in the natural measure, and ``reliable`` requires
    the interior one to be <= RELIABLE_FACTOR sup|h|.

    The system is right-preconditioned by the disk's own orthogonalization
    of the basis (``_variant_system``, cached per process): the domain
    enters only as the row scales R and R', and the fit runs in
    coordinates orthonormal on the disk, by ``_polar.fit_normal``.  So
    ``condition`` is that of the system actually solved, about 85 on
    gentle domains; the basis coordinates themselves sit near 2e10.

    Raises
    ------
    NotElliptic
        if the symmetric part of the bulk-map differential is not positive
        definite (``ellipticity_margin`` <= 0).
    IllConditioned
        if the equilibrated collocation system exceeds ``_polar.COND_GATE``.
    """
    margin = ellipticity_margin(domain)
    if margin <= 0.0:
        raise NotElliptic(
            f"symmetric part of Dpsi has min eigenvalue {margin:.6g} <= 0"
        )

    m = VARIANT_BOUNDARY_GRID
    n_theta, n_r = VARIANT_BULK
    grid = disk_grid(n_theta, n_r)
    basis = _polar.cascade_basis(CASCADE_ORDER)
    system = _variant_system()
    # the rows are the cached ones scaled by R and R', which depend on the
    # angle only: one value per ray, repeated; the last column is c's
    r_ang, rp_ang = np.repeat(domain.radius_derivatives(grid.theta), n_r, axis=1)
    n_int = grid.size
    matrix = np.zeros((n_int + m, basis.n + 1))
    rows_int, rows_bnd = matrix[:n_int, :-1], matrix[n_int:, :-1]
    np.multiply(r_ang[:, None], system.laplacian, out=rows_int)
    rows_int -= rp_ang[:, None] * system.h_rtheta
    np.multiply(domain.radius(circle_grid(m)[0])[:, None], system.f_r, out=rows_bnd)
    sq_int = np.sqrt(grid.weights)
    matrix[:n_int, -1] = sq_int
    rhs = np.concatenate([sq_int * h.value(grid), np.zeros(m)])
    sol, cond = _polar.fit_normal(matrix, rhs)
    c_star = float(sol[-1])
    field = _zero_mean(_polar.PolarField(basis, system.precond @ sol[:-1]))
    interior, bres, reliable = _variant_residuals(domain, h, field, c_star)

    return ObliqueSolution(
        h=h,
        method="collocation-lsq",
        kf=CASCADE_ORDER,
        c_star=c_star,
        field=field,
        interior_residual=interior,
        boundary_residual=bres,
        mean_domain_h=_mean_domain(domain, h),
        condition=cond,
        reliable=reliable,
        grid_boundary=m,
        grid_interior=grid.size,
    )


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class SchauderReport:
    alpha: float
    ratios: tuple[float, ...]
    numerators: tuple[float, ...]
    denominators: tuple[float, ...]
    max_ratio: float


def schauder_probe(domain: StarDomain, probes, alpha: float = 1.0) -> SchauderReport:
    """Empirical Hessian-to-data Hoelder ratio over a probe set.

    Both norms are grid estimates on the same polar bulk grid of B_1; the
    Hessian seminorm uses the Frobenius distance between matrix values.
    The data and Hessian fields of every probe are formed first, each
    Hessian from ``solve_oblique``'s field without its residuals, and all
    their seminorms come from ``_kernels.ring_pair_seminorms``, which reads
    the disk grid's rotation symmetry and returns the bits of a pass over
    the point pairs.
    """
    check_alpha(alpha)
    probes = tuple(probes)
    if not probes:
        raise InputError("need at least one probe")
    grid = disk_grid(*PROBE_GRID)
    data = [h.value(grid) for h in probes]
    sups = [float(np.abs(vals).max()) for vals in data]
    for i, sup in enumerate(sups):
        # the seminorm is >= 0, so the norm is zero exactly when sup|h| is;
        # a nan or inf sup leaves the probe without a ratio
        if not (math.isfinite(sup) and sup > 0.0):
            raise InputError(f"probe {i} has grid sup {sup!r}; it must be finite and > 0")
    hessians = [_oblique_fit(domain, h)[0].hessian(grid) for h in probes]
    semis = _kernels.ring_pair_seminorms(
        grid, data + [m.reshape(grid.size, -1) for m in hessians], alpha
    )
    dens = [sup + semi for sup, semi in zip(sups, semis)]
    nums = [
        float(np.sqrt(np.einsum("nab,nab->n", m, m)).max()) + semi
        for m, semi in zip(hessians, semis[len(data) :])
    ]
    ratios = [num / den for num, den in zip(nums, dens)]
    return SchauderReport(
        alpha=alpha,
        ratios=tuple(ratios),
        numerators=tuple(nums),
        denominators=tuple(dens),
        max_ratio=max(ratios),
    )
