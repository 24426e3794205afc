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
    basis (best effort, residual-gated).

The compatibility scalar c_star and the domain average of h are both
reported; the gap between them is a measured quantity, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _polar
from .errors import (
    IllConditioned,
    InputError,
    NotElliptic,
    NotOblique,
    ResidualTooLarge,
)
from .shapes import (
    StarDomain,
    bulk_grid,
    circle_grid,
    disk_grid,
    doubling_quadrature,
    frame_at,
    geometric_functionals,
    holder_norm,
    matrix_holder_seminorm,
)

COND_GATE = 1e12
RELIABLE_FACTOR = 1e-6
HARMONIC_ORDER = 24            # spectral ansatz: harmonic degree kf
COLLOCATION_GRID = 512         # spectral ansatz: boundary collocation angles
CASCADE_ORDER = 16             # kernel variant: cascade_basis order
VARIANT_BOUNDARY_GRID = 256    # kernel variant: boundary collocation angles
VARIANT_BULK = (128, 16)       # kernel variant: 2048 interior collocation points


# ---------------------------------------------------------------------------
# right-hand sides


@dataclass(frozen=True)
class RhsExpansion:
    """Data h over the closed dictionary with known Poisson preimages.

    h = constant + sum_k harmonic_cos[k-1] r^k cos(k theta)
                 + sum_k harmonic_sin[k-1] r^k sin(k theta)
                 + sum_j radial[j-1] r^{2j}

    Preimages: Laplacian(r^{k+2} cos k theta / (4k+4)) = r^k cos k theta,
    Laplacian(r^{2j+2} / (2j+2)^2) = r^{2j}, Laplacian(r^2/4) = 1.
    """

    harmonic_cos: tuple[float, ...] = ()
    harmonic_sin: tuple[float, ...] = ()
    radial: tuple[float, ...] = ()
    constant: float = 0.0
    label: str = ""

    def __add__(self, other: "RhsExpansion") -> "RhsExpansion":
        def pad(u, v):
            n = max(len(u), len(v))
            return tuple(
                (u[i] if i < len(u) else 0.0) + (v[i] if i < len(v) else 0.0)
                for i in range(n)
            )

        return RhsExpansion(
            harmonic_cos=pad(self.harmonic_cos, other.harmonic_cos),
            harmonic_sin=pad(self.harmonic_sin, other.harmonic_sin),
            radial=pad(self.radial, other.radial),
            constant=self.constant + other.constant,
            label=(self.label + "+" + other.label).strip("+"),
        )

    def scaled(self, factor: float) -> "RhsExpansion":
        return replace(
            self,
            harmonic_cos=tuple(factor * v for v in self.harmonic_cos),
            harmonic_sin=tuple(factor * v for v in self.harmonic_sin),
            radial=tuple(factor * v for v in self.radial),
            constant=factor * self.constant,
        )

    def _terms(self) -> tuple[list, list, list, list]:
        powers, freqs, kinds, coeffs = [], [], [], []
        if self.constant != 0.0:
            powers.append(0)
            freqs.append(0)
            kinds.append(_polar.COS)
            coeffs.append(self.constant)
        for k, v in enumerate(self.harmonic_cos, start=1):
            if v != 0.0:
                powers.append(k)
                freqs.append(k)
                kinds.append(_polar.COS)
                coeffs.append(v)
        for k, v in enumerate(self.harmonic_sin, start=1):
            if v != 0.0:
                powers.append(k)
                freqs.append(k)
                kinds.append(_polar.SIN)
                coeffs.append(v)
        for j, v in enumerate(self.radial, start=1):
            if v != 0.0:
                powers.append(2 * j)
                freqs.append(0)
                kinds.append(_polar.COS)
                coeffs.append(v)
        return powers, freqs, kinds, coeffs

    def field(self) -> _polar.PolarField:
        powers, freqs, kinds, coeffs = self._terms()
        return _polar.PolarField(
            _polar.PolarBasis(powers, freqs, kinds), np.asarray(coeffs, dtype=float)
        )

    def particular(self) -> _polar.PolarField:
        """A field F with Laplacian F = h, assembled from closed forms."""
        powers, freqs, kinds, coeffs = self._terms()
        p_powers, p_coeffs = [], []
        for m, k, v in zip(powers, freqs, coeffs):
            p_powers.append(m + 2)
            # (m+2)^2 - k^2 is the Laplacian factor of r^{m+2} trig(k theta)
            p_coeffs.append(v / float((m + 2) ** 2 - k * k))
        return _polar.PolarField(
            _polar.PolarBasis(p_powers, freqs, kinds), np.asarray(p_coeffs, dtype=float)
        )

    def evaluate(self, points) -> np.ndarray:
        return self.evaluate_polar(*_polar.to_polar(points))

    def evaluate_polar(self, r, theta) -> np.ndarray:
        return self.field().value_polar(
            np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
        )

    def sup_disk(self) -> float:
        """Grid estimate of sup |h| over the closed unit disk."""
        theta, _ = circle_grid(256)
        r = np.linspace(0.0, 1.0, 65)
        rr = np.repeat(r, theta.size)
        tt = np.tile(theta, r.size)
        return float(np.abs(self.evaluate_polar(rr, tt)).max())


def rhs_x1() -> RhsExpansion:
    return RhsExpansion(harmonic_cos=(1.0,), label="x1")


def rhs_x2() -> RhsExpansion:
    return RhsExpansion(harmonic_sin=(1.0,), label="x2")


def rhs_sq_radius() -> RhsExpansion:
    return RhsExpansion(radial=(1.0,), label="r2")


def rhs_constant(value: float = 1.0) -> RhsExpansion:
    return RhsExpansion(constant=value, label="one")


def rhs_harmonic(k: int) -> RhsExpansion:
    """The harmonic r^k cos(k theta)."""
    coeff = tuple(0.0 for _ in range(k - 1)) + (1.0,)
    return RhsExpansion(harmonic_cos=coeff, label=f"cos{k}")


_RHS_TOKENS = {
    "x1": rhs_x1,
    "x2": rhs_x2,
    "r2": rhs_sq_radius,
    "one": rhs_constant,
    "quadrupole": lambda: rhs_harmonic(2),
}


def parse_rhs(token: str) -> RhsExpansion:
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
    h: RhsExpansion
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


def _scaled_lstsq(matrix: np.ndarray, rhs: np.ndarray):
    """Column-equilibrated least squares; returns solution and condition."""
    norms = np.linalg.norm(matrix, axis=0)
    norms[norms == 0.0] = 1.0
    scaled = matrix / norms
    sol, _, _, svals = np.linalg.lstsq(scaled, rhs, rcond=None)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if cond > COND_GATE:
        raise IllConditioned(f"collocation condition estimate {cond:.3g} > 1e12")
    return sol / norms, cond


def _zero_mean_shift(field_wo_const: _polar.PolarField) -> float:
    """Constant a_0 imposing a zero integral over the unit ball."""
    pts, w = disk_grid(128, 48)
    total = float(w @ field_wo_const.value(pts))
    return -total / math.pi


def _with_constant(basis: _polar.PolarBasis, coeffs: np.ndarray, a0: float):
    const = _polar.PolarBasis([0.0], [0.0], [_polar.COS])
    return _polar.PolarField(
        _polar.concat(const, basis), np.concatenate([[a0], coeffs])
    )


def _mean_domain(domain: StarDomain, h: RhsExpansion) -> float:
    pts, w = bulk_grid(domain, 256, 64)
    volume = geometric_functionals(domain).volume
    return float(w @ h.evaluate(pts)) / volume


def _boundary_flux(field: _polar.PolarField) -> float:
    """Integral of grad f . rhat over the unit circle (the divergence value)."""

    def integrand(theta: np.ndarray) -> np.ndarray:
        return field.radial_derivative(np.ones_like(theta), theta)

    # the quadrature round-off floor is set by the cancellation volume of
    # the expansion, not by the size of the evaluated integrand
    probe, _ = circle_grid(256)
    rows = np.abs(field.basis.radial_derivative(np.ones_like(probe), probe))
    cancel = float((rows @ np.abs(field.coeffs)).max())
    tol = max(1e-13, 64.0 * np.finfo(float).eps * cancel)
    value, _ = doubling_quadrature(integrand, tol=tol)
    return float(value)


def solve_oblique(domain: StarDomain, h: RhsExpansion) -> ObliqueSolution:
    """Spectral solve of the oblique problem with free centering scalar.

    The ansatz is f = F_h - c r^2/4 + a_0 + sum_k r^k (a_k cos + b_k sin)
    with F_h the closed-form particular field; the harmonic coefficients
    and c minimize the boundary residual |grad f . nu_transported| in the
    discrete L2 sense over M collocation angles, and a_0 pins the average
    of f over B_1 to zero (kf = HARMONIC_ORDER, M = COLLOCATION_GRID).

    Raises
    ------
    NotOblique
        if the transported normal loses its positive radial component.
    IllConditioned
        if the equilibrated collocation system exceeds condition 1e12.
    """
    kf, m = HARMONIC_ORDER, COLLOCATION_GRID
    theta, _ = circle_grid(m)
    # (nu_r, nu_theta): the transported normal in the polar frame
    frame = frame_at(domain, theta)
    nu_r = frame.radius / frame.jacobian
    nu_t = -frame.radius_prime / frame.jacobian
    if nu_r.min() <= 0.0:
        raise NotOblique("transported normal has a non-positive radial part")

    ones = np.ones(m)
    harm = _polar.harmonic_basis(kf)
    fr = harm.radial_derivative(ones, theta)
    ftr = harm.angular_over_r(ones, theta)
    cols_harm = fr * nu_r[:, None] + ftr * nu_t[:, None]
    col_c = (-0.5) * nu_r  # normal derivative of -r^2/4 at r = 1

    part = h.particular()
    part_fr = part.radial_derivative(ones, theta)
    part_ftr = part.basis.angular_over_r(ones, theta) @ part.coeffs
    rhs = -(part_fr * nu_r + part_ftr * nu_t)

    matrix = np.column_stack([cols_harm, col_c])
    sol, cond = _scaled_lstsq(matrix, rhs)
    harm_coeffs = sol[:-1]
    c_star = float(sol[-1])

    # assemble f without the constant, then pin the disk average to zero
    sq_radius = _polar.PolarBasis([2.0], [0.0], [_polar.COS])
    basis = _polar.concat(harm, part.basis, sq_radius)
    coeffs = np.concatenate([harm_coeffs, part.coeffs, [-c_star / 4.0]])
    a0 = _zero_mean_shift(_polar.PolarField(basis, coeffs))
    field = _with_constant(basis, coeffs, a0)

    # residuals: interior on a polar probe grid, boundary on a refined circle
    probe_pts, _ = disk_grid(96, 24)
    interior = float(
        np.abs(
            field.laplacian(probe_pts) - (h.evaluate(probe_pts) - c_star)
        ).max()
    )
    theta_f, _ = circle_grid(4 * m)
    frame_f = frame_at(domain, theta_f)
    ones_f = np.ones(theta_f.size)
    nu_rf = frame_f.radius / frame_f.jacobian
    nu_tf = -frame_f.radius_prime / frame_f.jacobian
    bres = float(
        np.abs(
            field.radial_derivative(ones_f, theta_f) * nu_rf
            + (field.basis.angular_over_r(ones_f, theta_f) @ field.coeffs) * nu_tf
        ).max()
    )

    return ObliqueSolution(
        h=h,
        method="spectral-ansatz",
        kf=kf,
        c_star=c_star,
        field=field,
        interior_residual=interior,
        boundary_residual=bres,
        mean_domain_h=_mean_domain(domain, h),
        condition=cond,
        reliable=True,
        grid_boundary=m,
        grid_interior=0,
    )


def ellipticity_margin(domain: StarDomain) -> float:
    """Min eigenvalue of the symmetric part of the bulk-map differential.

    In the polar frame sym(Dpsi) = [[R, R'/2], [R'/2, R]], so the margin is
    min over angles of R - |R'|/2; this is the operational reading of the
    smallness condition on the boundary perturbation.
    """
    r, rp = domain.radius_derivatives(circle_grid(2048)[0])
    return float((r - 0.5 * np.abs(rp)).min())


def solve_oblique_kernel_variant(
    domain: StarDomain, h: RhsExpansion
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
    the interior one to be <= 1e-6 sup|h|.
    """
    margin = ellipticity_margin(domain)
    if margin <= 0.0:
        raise NotElliptic(
            f"symmetric part of Dpsi has min eigenvalue {margin:.6g} <= 0"
        )

    m = VARIANT_BOUNDARY_GRID
    n_theta, n_r = VARIANT_BULK
    pts, w_int = disk_grid(n_theta, n_r)
    r_int, th_int = _polar.to_polar(pts)
    basis = _polar.cascade_basis(CASCADE_ORDER)
    r_ang, rp_ang = domain.radius_derivatives(th_int)
    lap = basis.laplacians(r_int, th_int)
    hrt = basis.hessian_rtheta(r_int, th_int)
    sq_int = np.sqrt(w_int)
    rows_int = sq_int[:, None] * (
        r_ang[:, None] * lap - rp_ang[:, None] * hrt
    )
    col_c_int = sq_int
    rhs_int = sq_int * h.evaluate_polar(r_int, th_int)

    theta_b, dth = circle_grid(m)
    ones_b = np.ones(m)
    rows_bnd = math.sqrt(dth) * (
        domain.radius(theta_b)[:, None]
        * basis.radial_derivative(ones_b, theta_b)
    )
    matrix = np.block(
        [
            [rows_int, col_c_int[:, None]],
            [rows_bnd, np.zeros((m, 1))],
        ]
    )
    rhs = np.concatenate([rhs_int, np.zeros(m)])
    sol, cond = _scaled_lstsq(matrix, rhs)
    coeffs = sol[:-1]
    c_star = float(sol[-1])
    a0 = _zero_mean_shift(_polar.PolarField(basis, coeffs))
    field = _with_constant(basis, coeffs, a0)

    # refined residual probes
    pts_f, w_f = disk_grid(2 * n_theta, 2 * n_r)
    r_f, th_f = _polar.to_polar(pts_f)
    lap_f = field.laplacian_polar(r_f, th_f)
    hrt_f = np.einsum("nj,j->n", field.basis.hessian_rtheta(r_f, th_f), field.coeffs)
    r_ang_f, rp_ang_f = domain.radius_derivatives(th_f)
    resid_f = (
        r_ang_f * lap_f
        - rp_ang_f * hrt_f
        - (h.evaluate_polar(r_f, th_f) - c_star)
    )
    interior = float(math.sqrt((w_f @ resid_f**2) / w_f.sum()))
    theta_fb, _ = circle_grid(4 * m)
    bres_vals = domain.radius(theta_fb) * field.radial_derivative(
        np.ones(theta_fb.size), theta_fb
    )
    bres = float(math.sqrt(np.mean(bres_vals**2)))
    sup_h = h.sup_disk()
    reliable = interior <= RELIABLE_FACTOR * max(sup_h, 1e-300)

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
        reliable=bool(reliable),
        grid_boundary=m,
        grid_interior=r_int.size,
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
    """
    pts, _ = disk_grid(96, 24)
    ratios, nums, dens = [], [], []
    for h in probes:
        den = holder_norm(pts, h.evaluate(pts), alpha)
        if den <= 0.0:
            raise InputError(f"probe {h.label or h} has zero grid norm")
        sol = solve_oblique(domain, h)
        hess = sol.field.hessian(pts)
        sup = float(np.sqrt(np.einsum("nab,nab->n", hess, hess)).max())
        semi = matrix_holder_seminorm(pts, hess, alpha)
        num = sup + semi
        ratios.append(num / den)
        nums.append(num)
        dens.append(den)
    return SchauderReport(
        alpha=alpha,
        ratios=tuple(ratios),
        numerators=tuple(nums),
        denominators=tuple(dens),
        max_ratio=max(ratios),
    )


def divergence_functional(solution: ObliqueSolution) -> float:
    """Integral of Laplacian f over B_1, evaluated as a boundary flux."""
    if solution.boundary_residual > 1e-6:
        raise ResidualTooLarge(
            f"boundary residual {solution.boundary_residual:.3g} > 1e-6"
        )
    return _boundary_flux(solution.field)
