"""Star-shaped planar domains described by truncated Fourier radius functions.

Conventions (d = 2; no other dimension is computable):

    R(theta) = base_radius + sum_k (a_k cos k theta + b_k sin k theta)
    boundary point       x(theta) = R (cos theta, sin theta)
    outward unit normal  nu = (R rhat - R' thetahat) / sqrt(R^2 + R'^2)
    surface Jacobian     J = sqrt(R^2 + R'^2)
    signed curvature     (R^2 + 2 R'^2 - R R'') / (R^2 + R'^2)^{3/2}
    star-shape parameter kappa = min R / J

This module is the one place these formulas live.
``StarDomain.radius_derivatives`` evaluates R, R' and R'' from one cos/sin
table per angle set, and ``frame_at`` turns them into a ``BoundaryFrame``
at any angles (``boundary_frame`` on a uniform grid).  Other modules read
the geometry from a frame and do not re-derive it; only the scalar
reflection stepper in ``_kernels`` keeps its own copy.

The transported normal field on the unit circle assigns to the angle theta
the normal of the boundary point over that angle; in 2-D it coincides
pointwise with the frame's ``normals``, and its polar components are
(R / J, -R' / J).

All circle quadratures are uniform periodic trapezoid sums (spectrally
accurate for smooth periodic integrands) with Richardson-style doubling.
Bulk integrals over the domain use the polar pushforward grid: uniform
angles crossed with Gauss-Legendre radial nodes scaled by R(theta).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import _kernels
from .errors import (
    GridTooCoarse,
    InputError,
    IoFailure,
    NoConvergence,
    NonPositiveRadius,
    NotStarShaped,
    RecenterFailed,
)

TWO_PI = 2.0 * math.pi
BALL_VOLUME = math.pi        # |B_1| in d = 2
BALL_PERIMETER = TWO_PI      # |dB_1| in d = 2

VALIDATION_GRID = 4096
VALIDATION_CAP = 2 ** 20
QUAD_TOL = 1e-12
QUAD_START = 128
QUAD_CAP = 2 ** 16
SEGMENT_START = 64
SEGMENT_CAP = 4096
RECENTER_TOL = 1e-10


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class StarDomain:
    """Immutable star-shaped domain with Fourier radius R(theta).

    Coefficient tuples are indexed from frequency 1; they may have different
    lengths and are zero-padded to a common order internally.
    """

    base_radius: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    label: str = ""

    @cached_property
    def _packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        order = max(len(self.cos_coeffs), len(self.sin_coeffs), 0)
        a = np.zeros(order)
        b = np.zeros(order)
        a[: len(self.cos_coeffs)] = self.cos_coeffs
        b[: len(self.sin_coeffs)] = self.sin_coeffs
        return a, b, np.arange(1, order + 1, dtype=float)

    @property
    def order(self) -> int:
        return self._packed[0].size

    def radius_derivatives(self, theta, order: int = 1) -> tuple[np.ndarray, ...]:
        """R, R', R'' at ``theta`` up to ``order`` (at most 2), all from one
        cos/sin table."""
        a, b, k = self._packed
        th = np.asarray(theta, dtype=float)
        if k.size == 0:
            return (np.full_like(th, self.base_radius),) + tuple(
                np.zeros_like(th) for _ in range(order)
            )
        ang = np.multiply.outer(th, k)
        c = np.cos(ang)
        s = np.sin(ang)
        derivatives = [self.base_radius + c @ a + s @ b]
        if order >= 1:
            derivatives.append(c @ (k * b) - s @ (k * a))
        if order >= 2:
            derivatives.append(-(c @ (k * k * a)) - s @ (k * k * b))
        return tuple(derivatives)

    def radius(self, theta):
        return self.radius_derivatives(theta, 0)[0]

    def radius_prime(self, theta):
        return self.radius_derivatives(theta, 1)[1]

    def radius_second(self, theta):
        return self.radius_derivatives(theta, 2)[2]

    def scaled(self, factor: float) -> "StarDomain":
        return replace(
            self,
            base_radius=factor * self.base_radius,
            cos_coeffs=tuple(factor * a for a in self.cos_coeffs),
            sin_coeffs=tuple(factor * b for b in self.sin_coeffs),
        )

    def rotated(self, phase: float) -> "StarDomain":
        """Domain with radius R(theta + phase): same shape, rotated frame."""
        a, b, k = self._packed
        ck = np.cos(k * phase)
        sk = np.sin(k * phase)
        return replace(
            self,
            cos_coeffs=tuple(a * ck + b * sk),
            sin_coeffs=tuple(b * ck - a * sk),
        )


@dataclass(frozen=True)
class BoundaryFrame:
    """Boundary geometry at a set of angles, built by ``frame_at``.

    ``points``, ``normals`` and ``curvature`` are computed on first use, so
    a caller that reads only R, R' and the Jacobian pays for nothing more,
    and kappa never evaluates a curvature that R^2 + R'^2 may overflow.
    """

    theta: np.ndarray
    radius: np.ndarray
    radius_prime: np.ndarray
    radius_second: np.ndarray
    jacobian: np.ndarray          # sqrt(R^2 + R'^2)
    dtheta: float                 # trapezoid weight; nan off a uniform grid

    @cached_property
    def _directions(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cos(self.theta), np.sin(self.theta)

    @cached_property
    def points(self) -> np.ndarray:
        """(M, 2) boundary points R (cos theta, sin theta)."""
        ct, st = self._directions
        return np.stack([self.radius * ct, self.radius * st], axis=1)

    @cached_property
    def normals(self) -> np.ndarray:
        """(M, 2) unit outward normals."""
        ct, st = self._directions
        r, rp, speed = self.radius, self.radius_prime, self.jacobian
        # nu = (R rhat - R' thetahat)/speed with rhat=(ct,st), thetahat=(-st,ct)
        return np.stack(
            [(r * ct + rp * st) / speed, (r * st - rp * ct) / speed], axis=1
        )

    @cached_property
    def curvature(self) -> np.ndarray:
        """Signed curvature of the boundary curve."""
        r, rp = self.radius, self.radius_prime
        return (r * r + 2.0 * rp * rp - r * self.radius_second) / self.jacobian ** 3

    @property
    def kappa(self) -> float:
        """min R / sqrt(R^2 + R'^2): the uniform star-shape parameter."""
        return float((self.radius / self.jacobian).min())


@dataclass(frozen=True)
class RegularityParams:
    kappa: float
    alpha: float
    lambda_est: float
    convex: bool


@dataclass(frozen=True)
class GeometricFunctionals:
    volume: float
    perimeter: float
    momentum: float                 # integral of |x|^2 over the boundary
    barycenter: tuple[float, float]  # boundary barycenter
    deficit_perimeter: float        # |dOmega| - |dB_1|
    deficit_momentum: float         # momentum - |dB_1|
    grid: int


@dataclass(frozen=True)
class ShapeSpec:
    """Parsed shape config; mirrors the config file keys one-to-one, except
    ``dimension``, which is checked on parsing and must be 2."""

    base_radius: float = 1.0
    fourier_cos: tuple[float, ...] = ()
    fourier_sin: tuple[float, ...] = ()
    normalize_volume: bool = False
    recenter: bool = False
    label: str = ""


_SPEC_KEYS = {
    "dimension",
    "base_radius",
    "fourier_cos",
    "fourier_sin",
    "normalize_volume",
    "recenter",
    "label",
}


# ---------------------------------------------------------------------------
# quadrature helpers


def circle_grid(m: int) -> tuple[np.ndarray, float]:
    """M uniform angles on [0, 2 pi) and the trapezoid weight."""
    return np.arange(m) * (TWO_PI / m), TWO_PI / m


def doubling_quadrature(
    integrand: Callable[[np.ndarray], np.ndarray], tol: float = QUAD_TOL
) -> tuple[np.ndarray, int]:
    """Periodic trapezoid quadrature with grid doubling.

    ``integrand(theta)`` may return shape (M,) or (M, q); the integral of
    each component over [0, 2 pi) is returned once successive grids agree
    componentwise within ``tol`` relative (absolute for magnitudes < 1).
    The grid doubles from QUAD_START up to QUAD_CAP angles.

    Raises
    ------
    NoConvergence
        if the cap grid is reached without agreement.
    """
    prev = None
    m = QUAD_START
    while m <= QUAD_CAP:
        theta, _ = circle_grid(m)
        vals = np.asarray(integrand(theta), dtype=float)
        cur = vals.mean(axis=0) * TWO_PI
        if prev is not None:
            scale = np.maximum(np.abs(cur), 1.0)
            if np.all(np.abs(cur - prev) <= tol * scale):
                return cur, m
        prev = cur
        m *= 2
    raise NoConvergence(
        f"periodic quadrature did not reach {tol:g} by grid {QUAD_CAP}"
    )


def trig_zeros(base: float, cos_coeffs, sin_coeffs) -> np.ndarray:
    """Zeros on [0, 2 pi) of base + sum a_k cos k theta + b_k sin k theta.

    Via the companion roots of the associated z-polynomial on the unit
    circle, refined by Newton.  An identically-constant input returns an
    empty array (no isolated zeros).
    """
    series = StarDomain(base, tuple(cos_coeffs), tuple(sin_coeffs))
    a, b, _ = series._packed
    scale = abs(base) + np.abs(a).sum() + np.abs(b).sum()
    # a top coefficient below the rounding of the others sends np.roots off
    # the unit circle, so the seeds drop those terms; Newton keeps them all
    live = np.flatnonzero(np.abs(a) + np.abs(b) > np.finfo(float).eps * scale)
    if live.size == 0:
        return np.empty(0)
    order = int(live[-1]) + 1
    gamma = np.zeros(2 * order + 1, dtype=complex)
    gamma[order] = base
    for j in range(1, order + 1):
        gamma[order + j] = 0.5 * (a[j - 1] - 1j * b[j - 1])
        gamma[order - j] = 0.5 * (a[j - 1] + 1j * b[j - 1])
    roots = np.roots(np.trim_zeros(gamma[::-1], "f"))
    angles = np.sort(np.mod(np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-6]), TWO_PI))
    if angles.size == 0:
        return angles
    for _ in range(40):
        f, fp = series.radius_derivatives(angles)
        step = np.where(np.abs(fp) > 1e-30, f / np.where(fp == 0.0, 1.0, fp), 0.0)
        step = np.clip(step, -1e-2, 1e-2)
        angles = angles - step
        if np.abs(step).max() < 1e-15:
            break
    f = series.radius(angles)
    angles = np.sort(np.mod(angles[np.abs(f) <= 1e-9 * max(scale, 1.0)], TWO_PI))
    if angles.size > 1:
        keep = np.concatenate([[True], np.diff(angles) > 1e-10])
        angles = angles[keep]
    return angles


def segmented_circle_quadrature(
    integrand: Callable[[np.ndarray], np.ndarray],
    breaks,
    tol: float = QUAD_TOL,
) -> tuple[np.ndarray, int]:
    """Composite Gauss-Legendre quadrature over [0, 2 pi) split at the given
    break angles, for integrands that are analytic between breaks but only
    continuous across them (absolute-value cusps).  Falls back to periodic
    trapezoid doubling when no breaks are supplied."""
    breaks = np.sort(np.mod(np.asarray(breaks, dtype=float), TWO_PI))
    if breaks.size == 0:
        return doubling_quadrature(integrand, tol=tol)
    edges = np.concatenate([breaks, [breaks[0] + TWO_PI]])
    prev = None
    n = SEGMENT_START
    while n <= SEGMENT_CAP:
        x, w = np.polynomial.legendre.leggauss(n)
        total = None
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            theta = 0.5 * (lo + hi) + half * x
            vals = np.asarray(integrand(theta), dtype=float)
            part = half * (w @ vals)
            total = part if total is None else total + part
        if prev is not None:
            scale = np.maximum(np.abs(total), 1.0)
            if np.all(np.abs(total - prev) <= tol * scale):
                return total, n * breaks.size
        prev = total
        n *= 2
    raise NoConvergence(
        f"segmented quadrature did not reach {tol:g} by {SEGMENT_CAP} nodes per panel"
    )


def bulk_grid(
    domain: StarDomain, n_theta: int = 256, n_r: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Polar pushforward quadrature over the domain.

    Returns points (N, 2) and weights w with sum w_i f(x_i) ~ integral of f
    over the domain.  Radial nodes are Gauss-Legendre on [0, 1] scaled by
    R(theta); the polar Jacobian r dr dtheta is folded into the weights.
    """
    theta, dtheta = circle_grid(n_theta)
    r_node, r_weight = np.polynomial.legendre.leggauss(n_r)
    t = 0.5 * (r_node + 1.0)
    wt = 0.5 * r_weight
    radius = domain.radius(theta)
    rr = np.multiply.outer(radius, t)            # (n_theta, n_r)
    ww = np.multiply.outer(radius ** 2 * dtheta, t * wt)
    ct = np.cos(theta)[:, None]
    st = np.sin(theta)[:, None]
    pts = np.stack([(rr * ct).ravel(), (rr * st).ravel()], axis=1)
    return pts, ww.ravel()


def disk_grid(n_theta: int = 256, n_r: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Bulk quadrature grid for the unit ball."""
    return bulk_grid(StarDomain(1.0), n_theta, n_r)


# ---------------------------------------------------------------------------
# construction and validation


def _radius_samples(domain: StarDomain, m: int) -> np.ndarray:
    """R on ``circle_grid(m)`` by one FFT; frequencies above m/2 fold onto
    their aliases, so the samples hold for any order at O(m log m) cost."""
    a, b, k = domain._packed
    spectrum = np.zeros(m, dtype=complex)
    freq = k.astype(np.int64)
    np.add.at(spectrum, freq % m, 0.5 * (a - 1j * b))
    np.add.at(spectrum, -freq % m, 0.5 * (a + 1j * b))
    spectrum[0] += domain.base_radius
    return np.fft.ifft(spectrum, norm="forward").real


def _validate(domain: StarDomain) -> None:
    """Certify min R > 0, then check kappa on the VALIDATION_GRID circle.

    Every angle lies within pi/M of a node of the M-point grid and
    |R'| <= L = sum_k k (|a_k| + |b_k|), so

        min R >= min_j R(theta_j) - (pi/M) L - (FFT rounding allowance).

    M doubles from VALIDATION_GRID while that bound is inconclusive, up to
    VALIDATION_CAP; a non-positive sample rejects the domain at once.
    """
    a, b, k = domain._packed
    slope = float(k @ (np.abs(a) + np.abs(b)))
    amplitude = abs(domain.base_radius) + float(np.abs(a).sum() + np.abs(b).sum())
    m = VALIDATION_GRID
    while True:
        r = _radius_samples(domain, m)
        if not (np.all(np.isfinite(r)) and math.isfinite(slope)):
            raise NonPositiveRadius("radius function is not finite on the check grid")
        low = float(r.min())
        if low <= 0.0:
            raise NonPositiveRadius(f"min R = {low:.6g} <= 0 on the {m}-point check grid")
        # Higham, Accuracy and Stability of Numerical Algorithms, Thm 24.2
        rounding = 8.0 * np.finfo(float).eps * math.log2(m) * math.sqrt(m) * amplitude
        if low - math.pi / m * slope - rounding > 0.0:
            break
        if m >= VALIDATION_CAP:
            raise NonPositiveRadius(
                f"cannot certify R > 0: min R >= {low:.6g} - {math.pi / m * slope:.3g} "
                f"on the {m}-point grid"
            )
        m *= 2
    kappa = frame_at(domain, *circle_grid(VALIDATION_GRID)).kappa
    if kappa <= 0.0:
        raise NotStarShaped(f"kappa = {kappa:.6g} <= 0 on the check grid")


def parse_shape_spec(data: Mapping) -> ShapeSpec:
    """Strict mapping -> ShapeSpec conversion; unknown keys are rejected."""
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise IoFailure(f"unknown shape config keys: {sorted(unknown)}")
    try:
        dimension = int(data.get("dimension", 2))
        spec = ShapeSpec(
            base_radius=float(data.get("base_radius", 1.0)),
            fourier_cos=tuple(float(v) for v in data.get("fourier_cos", ())),
            fourier_sin=tuple(float(v) for v in data.get("fourier_sin", ())),
            normalize_volume=bool(data.get("normalize_volume", False)),
            recenter=bool(data.get("recenter", False)),
            label=str(data.get("label", "")),
        )
    except (TypeError, ValueError) as exc:
        raise IoFailure(f"malformed shape config value: {exc}") from exc
    if dimension != 2:
        raise IoFailure("only dimension = 2 is computable")
    return spec


def load_shape_spec(path) -> ShapeSpec:
    """Load a JSON shape config.  Decimal literals parse to nearest double."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read shape config {path}: {exc}") from exc
    if not isinstance(data, Mapping):
        raise IoFailure(f"shape config {path} is not a JSON object")
    return parse_shape_spec(data)


def build_domain(spec) -> StarDomain:
    """Construct and validate a StarDomain from a spec, mapping, or path.

    Validation certifies R > 0 (see ``_validate``) and checks kappa on a
    uniform check grid; the normalization flags of the spec are applied in
    the order recenter, then volume (rescaling about the origin preserves a
    zero barycenter).
    """
    if isinstance(spec, (str,)) or hasattr(spec, "__fspath__"):
        spec = load_shape_spec(spec)
    elif isinstance(spec, Mapping):
        spec = parse_shape_spec(spec)
    if not isinstance(spec, ShapeSpec):
        raise IoFailure(f"cannot build a domain from {type(spec).__name__}")
    if not math.isfinite(spec.base_radius) or spec.base_radius <= 0:
        raise NonPositiveRadius(f"base_radius = {spec.base_radius!r}")
    domain = StarDomain(
        base_radius=spec.base_radius,
        cos_coeffs=spec.fourier_cos,
        sin_coeffs=spec.fourier_sin,
        label=spec.label,
    )
    _validate(domain)
    if spec.recenter:
        domain = normalize(domain, "recenter")
    if spec.normalize_volume:
        domain = normalize(domain, "volume")
    return domain


# ---------------------------------------------------------------------------
# boundary geometry


def frame_at(domain: StarDomain, theta, dtheta: float = math.nan) -> BoundaryFrame:
    """Boundary geometry at any angles; derivatives are analytic."""
    r, rp, rpp = domain.radius_derivatives(theta, 2)
    return BoundaryFrame(
        theta=theta,
        radius=r,
        radius_prime=rp,
        radius_second=rpp,
        jacobian=np.sqrt(r * r + rp * rp),
        dtheta=dtheta,
    )


def boundary_frame(domain: StarDomain, m: int = 1024) -> BoundaryFrame:
    """Boundary geometry on M uniform angles."""
    if m < 8 or m % 2:
        raise GridTooCoarse(f"boundary grid must be even and >= 8, got {m}")
    return frame_at(domain, *circle_grid(m))


def bulk_map(domain: StarDomain, points) -> np.ndarray:
    """psi(p) = R(p/|p|) p, mapping the closed unit ball onto the domain."""
    p = np.asarray(points, dtype=float)
    theta = np.arctan2(p[..., 1], p[..., 0])
    return domain.radius(theta)[..., None] * p


def bulk_map_inverse(domain: StarDomain, points) -> np.ndarray:
    """psi^{-1}(x) = x / R(x/|x|)."""
    x = np.asarray(points, dtype=float)
    theta = np.arctan2(x[..., 1], x[..., 0])
    return x / domain.radius(theta)[..., None]


def regularity_params(domain: StarDomain, alpha: float = 1.0) -> RegularityParams:
    """Grid estimates of the uniform star-shape and C^{1,alpha} parameters.

    lambda_est = sup|R - 1| + sup|R'| + alpha-seminorm of R' over grid
    pairs at geodesic circle separations in [2 pi / M, pi], with
    M = VALIDATION_GRID.
    """
    if not 0.0 < alpha <= 1.0:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    frame = frame_at(domain, *circle_grid(VALIDATION_GRID))
    r, rp = frame.radius, frame.radius_prime
    seminorm = float(_kernels.circle_lag_seminorm(np.ascontiguousarray(rp), alpha))
    lam = float(np.abs(r - 1.0).max() + np.abs(rp).max() + seminorm)
    return RegularityParams(
        kappa=frame.kappa,
        alpha=alpha,
        lambda_est=lam,
        convex=bool(frame.curvature.min() >= -1e-10),
    )


def geometric_functionals(domain: StarDomain) -> GeometricFunctionals:
    """Volume, perimeter, boundary momentum, and boundary barycenter.

    d = 2 formulas: |Omega| = int R^2/2, |dOmega| = int sqrt(R^2 + R'^2),
    momentum = int R^2 sqrt(R^2 + R'^2); quadrature doubles until all
    components agree to QUAD_TOL.
    """

    def integrand(theta: np.ndarray) -> np.ndarray:
        frame = frame_at(domain, theta)
        r, speed, x = frame.radius, frame.jacobian, frame.points
        return np.stack(
            [0.5 * r * r, speed, r * r * speed, x[:, 0] * speed, x[:, 1] * speed],
            axis=1,
        )

    vals, grid = doubling_quadrature(integrand)
    volume, perimeter, momentum, bx, by = (float(v) for v in vals)
    return GeometricFunctionals(
        volume=volume,
        perimeter=perimeter,
        momentum=momentum,
        barycenter=(bx / perimeter, by / perimeter),
        deficit_perimeter=perimeter - BALL_PERIMETER,
        deficit_momentum=momentum - BALL_PERIMETER,
        grid=grid,
    )


# ---------------------------------------------------------------------------
# normalization


def _fourier_fit(samples: np.ndarray, order: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Least-squares Fourier fit on a uniform grid via rFFT (orthogonality)."""
    m = samples.size
    spec = np.fft.rfft(samples) / m
    base = float(spec[0].real)
    kmax = min(order, spec.size - 1)
    a = 2.0 * spec[1 : kmax + 1].real
    b = -2.0 * spec[1 : kmax + 1].imag
    return base, a, b


def _ray_radii(domain: StarDomain, center: np.ndarray, m: int) -> np.ndarray:
    """Distance from ``center`` to the boundary along M uniform rays.

    Bisection on g(t) = |center + t e| - R(angle(center + t e)); a unique
    sign change on the bracket is required, otherwise the domain is not
    star-shaped about the new center.
    """
    phi, _ = circle_grid(m)
    ex = np.cos(phi)
    ey = np.sin(phi)
    t_hi = float(domain.radius(phi).max() + np.hypot(*center) + 1.0)

    def gap(t: np.ndarray) -> np.ndarray:
        px = center[0] + t * ex
        py = center[1] + t * ey
        ang = np.arctan2(py, px)
        return np.hypot(px, py) - domain.radius(ang)

    # crossing-count audit on a coarse sample of each ray
    t_audit = np.linspace(0.0, t_hi, 65)[1:]
    signs = np.sign(gap(t_audit[:, None]) + 0.0)
    flips = np.abs(np.diff(signs, axis=0)).sum(axis=0) / 2
    if np.any(flips > 1):
        raise RecenterFailed(
            "ray-shooting found multiple boundary crossings from the new center"
        )
    lo = np.zeros(m)
    hi = np.full(m, t_hi)
    if np.any(gap(lo) >= 0.0):
        raise RecenterFailed("new center is outside the domain")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        positive = gap(mid) > 0.0
        hi = np.where(positive, mid, hi)
        lo = np.where(positive, lo, mid)
    return 0.5 * (lo + hi)


def normalize(domain: StarDomain, mode: str) -> StarDomain:
    """Rescale to unit-ball volume or translate the boundary barycenter to 0.

    volume:   R <- (|B_1|/|Omega|)^{1/2} R.
    recenter: ray-shooting from the current boundary barycenter with a
    Fourier refit of order >= 2K to tolerance 1e-10, iterated until the
    barycenter magnitude drops below 1e-9; the result is re-validated.
    """
    if mode == "volume":
        fun = geometric_functionals(domain)
        factor = (BALL_VOLUME / fun.volume) ** 0.5
        scaled = domain.scaled(factor)
        _validate(scaled)
        return scaled
    if mode != "recenter":
        raise InputError(f"unknown normalization mode {mode!r}")

    current = domain
    for _ in range(12):
        fun = geometric_functionals(current)
        center = np.array(fun.barycenter)
        shift = float(np.hypot(*center))
        if shift <= 1e-9:
            return current
        m_fit = max(4096, 8 * max(current.order, 1))
        radii = _ray_radii(current, center, m_fit)
        order = max(2 * current.order, 8)
        while True:
            base, a, b = _fourier_fit(radii, order)
            fitted = StarDomain(
                base_radius=base,
                cos_coeffs=tuple(a),
                sin_coeffs=tuple(b),
                label=current.label,
            )
            phi, _ = circle_grid(m_fit)
            err = float(np.abs(fitted.radius(phi) - radii).max())
            if err <= RECENTER_TOL:
                break
            if order * 4 > m_fit:
                raise RecenterFailed(
                    f"Fourier refit stalled at order {order}, sup error {err:.3g}"
                )
            order *= 2
        _validate(fitted)
        current = fitted
    raise RecenterFailed("barycenter iteration did not contract below 1e-9")


# ---------------------------------------------------------------------------
# Hoelder norms on sample sets


def holder_norm(points, values, alpha: float) -> float:
    """Grid estimate (a lower bound) of sup|h| + the C^alpha seminorm.

    ``points`` has shape (N, d) or (N,) for samples on a line; ``values``
    holds h at those points.
    """
    if not 0.0 < alpha <= 1.0:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    vals = np.asarray(values, dtype=float)
    if pts.shape[0] != vals.shape[0] or pts.shape[0] < 2:
        raise InputError("need >= 2 located samples")
    semi = _kernels.pair_seminorm(
        np.ascontiguousarray(pts), np.ascontiguousarray(vals), float(alpha)
    )
    return float(np.abs(vals).max() + semi)


def matrix_holder_seminorm(points, matrices, alpha: float) -> float:
    """C^alpha seminorm of a matrix field under the Frobenius distance."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    mats = np.asarray(matrices, dtype=float).reshape(pts.shape[0], -1)
    return float(
        _kernels.matrix_pair_seminorm(pts, np.ascontiguousarray(mats), float(alpha))
    )
