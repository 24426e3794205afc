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
pointwise with the frame's ``normals``, and its polar components
(R / J, -R' / J) are the frame's ``polar_normal``, the form in which the
harmonic solvers read it (``_polar.PolarBasis.normal_derivative``).

There is one circle quadrature, ``doubling_quadrature``: the uniform
periodic trapezoid sum (spectrally accurate for smooth periodic
integrands), or composite Gauss-Legendre between given break angles for
integrands with kinks there, refined by doubling until it converges.
Bulk integrals over the domain use the polar pushforward grid: uniform
angles crossed with Gauss-Legendre radial nodes scaled by R(theta).
``bulk_grid`` and ``disk_grid`` return it as a weighted ``_polar.PolarGrid``
of its factors (theta, R(theta), t), by default of ``BULK_SHAPE``.  A
``BoundaryFrame`` is a ``PolarGrid`` too: one-point rays at the boundary
points, weighted on a uniform grid by the boundary measure J dtheta.

Each kind of outside value has one reader here, which every module calls:
``check_alpha`` for a Hoelder exponent, ``check_integer`` for a size, order,
mode or seed, and ``read_config`` for a config mapping, read into the
dataclass that declares its schema (``ShapeSpec`` for a shape).  A
``StarDomain`` reads its own coefficients: it is certified as it is built.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Mapping, get_origin, get_type_hints

import numpy as np

from . import _kernels
from ._polar import PolarGrid
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
RECENTER_TOL = 1e-10      # sup error of the recentering Fourier refit
RECENTER_STOP = 1e-9      # |boundary barycenter| at which recentering stops
BULK_SHAPE = (256, 64)    # (angles, radial nodes) of the default bulk grid
CONVEX_TOL = 1e-10        # a domain reads convex where its curvature is >= -this


# ---------------------------------------------------------------------------
# core types


def _pack(cos_coeffs, sin_coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients zero-padded to one order, and the frequencies 1..order."""
    order = max(len(cos_coeffs), len(sin_coeffs))
    a, b = np.zeros(order), np.zeros(order)
    a[: len(cos_coeffs)] = cos_coeffs
    b[: len(sin_coeffs)] = sin_coeffs
    return a, b, np.arange(1, order + 1, dtype=float)


def _series_derivatives(base, a, b, k, theta, order: int = 1) -> tuple[np.ndarray, ...]:
    """f, f', f'' of f = base + sum a_k cos k theta + b_k sin k theta at
    ``theta`` up to ``order`` (at most 2), all from one cos/sin table."""
    th = np.asarray(theta, dtype=float)
    if k.size == 0:
        return (np.full_like(th, base),) + tuple(np.zeros_like(th) for _ in range(order))
    ang = np.multiply.outer(th, k)
    c = np.cos(ang)
    s = np.sin(ang)
    derivatives = [base + c @ a + s @ b]
    if order >= 1:
        derivatives.append(c @ (k * b) - s @ (k * a))
    if order >= 2:
        derivatives.append(-(c @ (k * k * a)) - s @ (k * k * b))
    return tuple(derivatives)


@dataclass(frozen=True)
class StarDomain:
    """Immutable star-shaped domain with Fourier radius R(theta).

    Coefficient tuples are indexed from frequency 1; they may have different
    lengths and are zero-padded to a common order internally.  A domain is
    certified as it is built: a base or coefficient that is not a finite
    real number raises NonPositiveRadius, then ``_validate`` runs.
    """

    base_radius: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    label: str = ""

    def __post_init__(self):
        for value in (self.base_radius, *self.cos_coeffs, *self.sin_coeffs):
            # false for inf, nan and an int beyond the float range alike
            if not (_is_number(value) and abs(value) <= sys.float_info.max):
                raise NonPositiveRadius(
                    f"radius coefficients must be finite real numbers, got {value!r}"
                )
        _validate(self)

    @cached_property
    def _packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _pack(self.cos_coeffs, self.sin_coeffs)

    @property
    def order(self) -> int:
        return self._packed[0].size

    def radius_derivatives(self, theta, order: int = 1) -> tuple[np.ndarray, ...]:
        """R, R', R'' at ``theta`` up to ``order`` (at most 2)."""
        return _series_derivatives(self.base_radius, *self._packed, theta, order)

    def radius(self, theta):
        return self.radius_derivatives(theta, 0)[0]

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


class BoundaryFrame(PolarGrid):
    """Boundary geometry at a set of angles, built by ``frame_at``: a grid of
    one-point rays at the boundary points, whose ``weights`` are the boundary
    measure J dtheta on uniform angles (given ``dtheta``) and None off them.

    ``points``, ``normals``, ``polar_normal`` and ``curvature`` are computed
    on first use, so a caller that reads only R, R' and the Jacobian pays for
    nothing more, and kappa never evaluates a curvature that R^2 + R'^2 may
    overflow.
    """

    def __init__(self, theta, radius, radius_prime, radius_second, dtheta=None):
        self.radius_prime = radius_prime
        self.radius_second = radius_second
        self.jacobian = np.sqrt(radius * radius + radius_prime * radius_prime)
        super().__init__(theta, radius, weights=None if dtheta is None else self.jacobian * dtheta)

    @cached_property
    def normals(self) -> np.ndarray:
        """(M, 2) unit outward normals."""
        ct, st = self.directions
        r, rp, speed = self.radius, self.radius_prime, self.jacobian
        # nu = (R rhat - R' thetahat)/speed with rhat=(ct,st), thetahat=(-st,ct)
        return np.stack(
            [(r * ct + rp * st) / speed, (r * st - rp * ct) / speed], axis=1
        )

    @cached_property
    def polar_normal(self) -> tuple[np.ndarray, np.ndarray]:
        """(nu_r, nu_theta) = (R / J, -R' / J): the normal in the polar frame."""
        return self.radius / self.jacobian, -self.radius_prime / self.jacobian

    @cached_property
    def curvature(self) -> np.ndarray:
        """Signed curvature of the boundary curve."""
        r, rp = self.radius, self.radius_prime
        return (r * r + 2.0 * rp * rp - r * self.radius_second) / self.jacobian ** 3

    @property
    def kappa(self) -> float:
        """min R / sqrt(R^2 + R'^2): the uniform star-shape parameter."""
        return float(self.polar_normal[0].min())


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
    """Shape config: the schema of the config file, one field per key.
    ``dimension`` must be 2."""

    base_radius: float = 1.0
    fourier_cos: tuple[float, ...] = ()
    fourier_sin: tuple[float, ...] = ()
    normalize_volume: bool = False
    recenter: bool = False
    label: str = ""
    dimension: int = 2

    def __post_init__(self):
        if self.dimension != 2:
            raise IoFailure(f"only dimension = 2 is computable, got {self.dimension!r}")


# ---------------------------------------------------------------------------
# quadrature helpers


def circle_grid(m: int) -> tuple[np.ndarray, float]:
    """M uniform angles on [0, 2 pi) and the trapezoid weight."""
    check_integer("circle grid", m, 1, GridTooCoarse)
    return np.arange(m) * (TWO_PI / m), TWO_PI / m


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n and
    read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def doubling_quadrature(
    integrand: Callable[[np.ndarray], np.ndarray],
    tol: float = QUAD_TOL,
    breaks=(),
) -> tuple[np.ndarray, int]:
    """Integral over [0, 2 pi) of ``integrand(theta)``, of shape (M,) or
    (M, q), refined by doubling until successive rules agree componentwise
    within ``tol`` relative (absolute for magnitudes < 1).  Returns the
    integral and the node count of the last rule.

    Without ``breaks`` the rule is the periodic trapezoid sum on QUAD_START
    up to QUAD_CAP angles.  The rules are nested: the even angles of
    ``circle_grid(2n)`` are those of ``circle_grid(n)`` bit for bit, so each
    doubling calls the integrand on the n new odd angles only.  This needs
    an integrand that is pointwise in theta: row i of its value depends on
    theta[i] alone.
    With ``breaks``, for integrands analytic between them but kinked there,
    it is composite Gauss-Legendre on the arcs between the sorted breaks,
    SEGMENT_START up to SEGMENT_CAP nodes per arc, with one integrand call
    per level on the nodes of all arcs.  Raises NoConvergence if the cap is
    reached without agreement.
    """
    breaks = np.sort(np.mod(np.asarray(breaks, dtype=float), TWO_PI))
    arcs = max(breaks.size, 1)
    edges = np.concatenate([breaks, breaks[:1] + TWO_PI])
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    n, cap = (SEGMENT_START, SEGMENT_CAP) if breaks.size else (QUAD_START, QUAD_CAP)
    prev = None
    while n <= cap:
        if breaks.size:
            x, w = _gauss_legendre(n)
            theta = (mid[:, None] + half[:, None] * x).ravel()
            vals = np.asarray(integrand(theta), dtype=float)
            parts = [h * (w @ v) for h, v in zip(half, vals.reshape(arcs, n, *vals.shape[1:]))]
            cur = sum(parts[1:], parts[0])
        else:
            theta, _ = circle_grid(n)
            if prev is None:
                vals = np.asarray(integrand(theta), dtype=float)
            else:
                fresh = np.asarray(integrand(theta[1::2]), dtype=float)
                both = np.empty((n,) + fresh.shape[1:])
                both[::2], both[1::2] = vals, fresh
                vals = both
            cur = vals.mean(axis=0) * TWO_PI
        if prev is not None:
            scale = np.maximum(np.abs(cur), 1.0)
            if np.all(np.abs(cur - prev) <= tol * scale):
                return cur, n * arcs
        prev = cur
        n *= 2
    raise NoConvergence(f"circle quadrature did not reach {tol:g} by {cap * arcs} nodes")


def trig_zeros(base: float, cos_coeffs, sin_coeffs) -> np.ndarray:
    """Zeros on [0, 2 pi) of base + sum a_k cos k theta + b_k sin k theta.

    Via the companion roots of the associated z-polynomial on the unit
    circle, refined by Newton.  An identically-constant input returns an
    empty array (no isolated zeros).
    """
    a, b, k = _pack(cos_coeffs, sin_coeffs)
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
        f, fp = _series_derivatives(base, a, b, k, angles)
        step = np.where(np.abs(fp) > 1e-30, f / np.where(fp == 0.0, 1.0, fp), 0.0)
        step = np.clip(step, -1e-2, 1e-2)
        angles = angles - step
        if np.abs(step).max() < 1e-15:
            break
    f = _series_derivatives(base, a, b, k, angles, 0)[0]
    angles = np.sort(np.mod(angles[np.abs(f) <= 1e-9 * max(scale, 1.0)], TWO_PI))
    if angles.size > 1:
        keep = np.concatenate([[True], np.diff(angles) > 1e-10])
        angles = angles[keep]
    return angles


def bulk_grid(
    domain: StarDomain, n_theta: int = BULK_SHAPE[0], n_r: int = BULK_SHAPE[1]
) -> PolarGrid:
    """Polar pushforward quadrature over the domain.

    Returns a PolarGrid of n_theta rays with n_r points each, whose weights
    w satisfy sum w_i f(x_i) ~ integral of f over the domain.  Radial nodes
    are Gauss-Legendre on [0, 1] scaled by R(theta); the polar Jacobian
    r dr dtheta is folded into the weights.
    """
    check_integer("radial grid", n_r, 1, GridTooCoarse)
    theta, dtheta = circle_grid(n_theta)
    r_node, r_weight = _gauss_legendre(n_r)
    t = 0.5 * (r_node + 1.0)
    radius = domain.radius(theta)
    ww = np.multiply.outer(radius ** 2 * dtheta, t * (0.5 * r_weight))
    return PolarGrid(theta, radius, t, ww.ravel())


def disk_grid(n_theta: int = BULK_SHAPE[0], n_r: int = BULK_SHAPE[1]) -> PolarGrid:
    """Bulk quadrature grid for the unit ball."""
    return bulk_grid(_UNIT_DISK, n_theta, n_r)


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
    """Certify min R > 0, then certify kappa > 0.

    |R'| <= L = sum_k k (|a_k| + |b_k|) and |R| <= A = |a_0| + sum_k
    (|a_k| + |b_k|); an overflowing L or A rejects the domain before any
    sample is taken.  Every angle lies within pi/M of a node of the M-point
    grid, so

        min R >= min_j R(theta_j) - (pi/M) L - (FFT rounding allowance).

    M doubles from VALIDATION_GRID while that bound is inconclusive, up to
    VALIDATION_CAP; a non-positive sample rejects the domain at once.
    Given min R > 0, kappa = R / sqrt(R^2 + R'^2) is positive at every
    angle unless R^2 + R'^2 overflows, so a finite 2 (A^2 + L^2) certifies
    kappa > 0.
    """
    # Python floats: inf on overflow, where numpy would warn
    a, b, _ = domain._packed
    modes = [abs(x) + abs(y) for x, y in zip(a.tolist(), b.tolist())]
    slope = sum(j * c for j, c in enumerate(modes, start=1))
    amplitude = abs(domain.base_radius) + sum(modes)
    if not (math.isfinite(slope) and math.isfinite(amplitude)):
        raise NonPositiveRadius("radius coefficients overflow the bound on |R| or |R'|")
    m = VALIDATION_GRID
    while True:
        r = _radius_samples(domain, m)
        if not np.all(np.isfinite(r)):
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
    if not math.isfinite(2.0 * (amplitude * amplitude + slope * slope)):
        raise NotStarShaped("R^2 + R'^2 overflows, so kappa is not positive")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_UNIT_DISK = StarDomain(1.0)  # certified once, not on every disk_grid


# kind -> (the JSON values it takes, description); a bool is never a number
_CONFIG_KINDS = {
    float: (numbers.Real, "a number"),
    int: (numbers.Real, "an integer"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
    tuple: ((list, tuple), "a list of numbers"),
}


def config_value(data: Mapping, key: str, kind: type):
    """``data[key]`` read as ``kind``.

    float takes any number and int an integral one, 2.0 included since JSON
    has one number type (numpy scalars too, never a bool), bool only a
    bool, str only a string, and tuple a list or tuple of numbers, returned
    as floats.  Anything else, an integer beyond the float range included,
    raises IoFailure naming the key.
    """
    value = data[key]
    accepted, description = _CONFIG_KINDS[kind]
    valid = isinstance(value, accepted) and (kind is bool or not isinstance(value, bool))
    if valid and kind is tuple:
        valid = all(map(_is_number, value))
    if valid and kind is int:
        valid = isinstance(value, numbers.Integral) or float(value).is_integer()
    if not valid:
        raise IoFailure(f"config key {key!r} must be {description}, got {value!r}")
    try:
        return tuple(map(float, value)) if kind is tuple else kind(value)
    except OverflowError:
        raise IoFailure(f"config key {key!r} holds a number beyond the float range") from None


def read_config(cls, data: Mapping, what: str, aliases: Mapping | None = None, **defaults):
    """The dataclass ``cls`` read from the config mapping ``data``: each key
    names a field, directly or through ``aliases`` (key -> field), and is
    read by ``config_value`` as the field's annotated kind.  Other fields
    take ``defaults``, then the class defaults.  Unknown keys and two keys
    for one field raise IoFailure; ``what`` names the config in errors."""
    kinds = {name: get_origin(hint) or hint for name, hint in get_type_hints(cls).items()}
    names = [(aliases or {}).get(key, key) for key in data]
    unknown = set(names) - kinds.keys()
    if unknown:
        raise IoFailure(f"unknown {what} keys: {sorted(unknown)}")
    twice = sorted(key for key, name in zip(data, names) if names.count(name) > 1)
    if twice:
        raise IoFailure(f"{what} keys {twice} give the same field; keep one")
    given = {name: config_value(data, key, kinds[name]) for key, name in zip(data, names)}
    return cls(**{**defaults, **given})


def check_alpha(alpha) -> None:
    """Raise InputError unless ``alpha`` is a Hoelder exponent in (0, 1]."""
    if not (_is_number(alpha) and 0.0 < alpha <= 1.0):
        raise InputError(f"alpha must lie in (0, 1], got {alpha!r}")


def check_integer(name: str, value, low: int, error: type[InputError] = InputError) -> None:
    """Raise ``error`` unless ``value`` is an integer (a ``numbers.Integral``,
    never a bool) >= ``low``; ``name`` leads the message."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def load_json_object(path, what: str) -> Mapping:
    """The JSON object in the file at ``path``; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, Mapping):
        raise IoFailure(f"{what} {path} is not a JSON object")
    return data


def parse_shape_spec(data: Mapping) -> ShapeSpec:
    """Strict mapping -> ShapeSpec conversion; unknown keys and values of
    the wrong JSON type are rejected."""
    return read_config(ShapeSpec, data, "shape config")


def load_shape_spec(path) -> ShapeSpec:
    """Load a JSON shape config.  Decimal literals parse to nearest double."""
    return parse_shape_spec(load_json_object(path, "shape config"))


def build_domain(spec) -> StarDomain:
    """Construct a StarDomain, certified as it is built, from a spec,
    mapping, or path.

    The normalization flags of the spec are applied in the order recenter,
    then volume (rescaling about the origin preserves a zero barycenter).
    """
    if isinstance(spec, (str,)) or hasattr(spec, "__fspath__"):
        spec = load_shape_spec(spec)
    elif isinstance(spec, Mapping):
        spec = parse_shape_spec(spec)
    if not isinstance(spec, ShapeSpec):
        raise IoFailure(f"cannot build a domain from {type(spec).__name__}")
    domain = StarDomain(spec.base_radius, spec.fourier_cos, spec.fourier_sin, spec.label)
    if spec.recenter:
        domain = normalize(domain, "recenter")
    if spec.normalize_volume:
        domain = normalize(domain, "volume")
    return domain


# ---------------------------------------------------------------------------
# boundary geometry


def frame_at(domain: StarDomain, theta, dtheta: float | None = None) -> BoundaryFrame:
    """Boundary geometry at any angles; derivatives are analytic.  Given the
    trapezoid weight ``dtheta`` of uniform angles, the frame is weighted."""
    return BoundaryFrame(theta, *domain.radius_derivatives(theta, 2), dtheta)


def boundary_frame(domain: StarDomain, m: int = 1024) -> BoundaryFrame:
    """Boundary geometry on M uniform angles."""
    check_integer("boundary grid", m, 8, GridTooCoarse)
    if m % 2:
        raise GridTooCoarse(f"boundary grid must be even, got {m}")
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
    M = VALIDATION_GRID; convex means curvature >= -CONVEX_TOL there.
    The seminorm stops at the first lag k where osc R' / d_k cannot beat
    the best ratio so far (``_kernels.circle_lag_seminorm``): no later lag
    can, so the value has every bit of the pass over all M / 2 lags.
    """
    check_alpha(alpha)
    frame = frame_at(domain, *circle_grid(VALIDATION_GRID))
    r, rp = frame.radius, frame.radius_prime
    seminorm = _kernels.circle_lag_seminorm(rp, alpha)
    lam = float(np.abs(r - 1.0).max() + np.abs(rp).max() + seminorm)
    return RegularityParams(
        kappa=frame.kappa,
        alpha=alpha,
        lambda_est=lam,
        convex=bool(frame.curvature.min() >= -CONVEX_TOL),
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
    Fourier refit of order >= 2K to tolerance RECENTER_TOL, iterated until
    the barycenter magnitude is at most RECENTER_STOP.
    """
    if mode == "volume":
        fun = geometric_functionals(domain)
        return domain.scaled((BALL_VOLUME / fun.volume) ** 0.5)
    if mode != "recenter":
        raise InputError(f"unknown normalization mode {mode!r}")

    current = domain
    for _ in range(12):
        fun = geometric_functionals(current)
        center = np.array(fun.barycenter)
        shift = float(np.hypot(*center))
        if shift <= RECENTER_STOP:
            return current
        m_fit = max(4096, 8 * max(current.order, 1))
        radii = _ray_radii(current, center, m_fit)
        order = max(2 * current.order, 8)
        while True:
            base, a, b = _fourier_fit(radii, order)
            phi, _ = circle_grid(m_fit)
            # only the converged fit becomes a (certified) domain
            err = float(np.abs(_series_derivatives(base, *_pack(a, b), phi, 0)[0] - radii).max())
            if err <= RECENTER_TOL:
                break
            if order * 4 > m_fit:
                raise RecenterFailed(
                    f"Fourier refit stalled at order {order}, sup error {err:.3g}"
                )
            order *= 2
        current = StarDomain(base, tuple(a), tuple(b), current.label)
    raise RecenterFailed(f"barycenter iteration did not contract below {RECENTER_STOP:g}")


# ---------------------------------------------------------------------------
# Hoelder norms on sample sets


def _located_samples(points, values, alpha) -> tuple[np.ndarray, np.ndarray]:
    """``points`` as (N, d), (N,) meaning d = 1, and ``values`` as given,
    both float; InputError unless alpha is a Hoelder exponent, N >= 2, each
    point has one value and every coordinate and value is finite."""
    check_alpha(alpha)
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or vals.ndim == 0 or pts.shape[0] != vals.shape[0] or pts.shape[0] < 2:
        raise InputError(
            f"need >= 2 located samples, one value each; got {pts.shape} points, "
            f"{vals.shape} values"
        )
    if not (np.isfinite(pts).all() and np.isfinite(vals).all()):
        raise InputError("sample points and values must be finite")
    return pts, vals


def holder_norm(points, values, alpha: float) -> float:
    """Grid estimate (a lower bound) of sup|h| + the C^alpha seminorm.

    ``points`` has shape (N, d) or (N,) for samples on a line; ``values``
    holds h at those points.
    """
    pts, vals = _located_samples(points, values, alpha)
    return float(np.abs(vals).max() + _kernels.pair_seminorm(pts, vals, alpha))


def matrix_holder_seminorm(points, matrices, alpha: float) -> float:
    """C^alpha seminorm of a matrix field under the Frobenius distance;
    ``matrices`` holds one matrix per point, as ``holder_norm``'s values."""
    pts, mats = _located_samples(points, matrices, alpha)
    return _kernels.matrix_pair_seminorm(pts, mats.reshape(pts.shape[0], -1), alpha)
