"""Set distances to the ball: Fraenkel asymmetry, total-variation form,
certified dictionary lower bounds and a grid LP oracle for the Hoelder
shape distance.

The Hoelder norm convention everywhere is sup + seminorm, shared with
shapes.holder_norm.  The shape distance is implemented in its raw
unnormalized form

    Z(alpha) = sup { int_{B_1} h - (|B_1|/|Omega|) int_Omega h :
                     ||h||_{C^alpha} <= 1 },

so the alpha -> 0 total-variation limit holds up to the |B_1| mass
factor.  Dictionary features carry analytically certified norms (never
grid estimates), so every reported dictionary value is a true lower
bound up to quadrature error of the two integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, InputError, NoConvergence, SolverStall
from .shapes import (
    TWO_PI,
    BALL_VOLUME,
    StarDomain,
    _fourier_fit,
    boundary_frame,
    bulk_grid,
    circle_grid,
    disk_grid,
    doubling_quadrature,
    geometric_functionals,
    segmented_circle_quadrature,
    trig_zeros,
)

LP_NODE_CAP = 400
DICTIONARY_SIZE = 8       # harmonic moments, affine directions and bumps


@dataclass(frozen=True)
class FraenkelResult:
    value: float                   # |Omega symdiff B_r(c)| / |B_r|, in [0, 2)
    center: tuple[float, float]
    radius: float                  # r with |B_r| = |Omega|
    grid: int


@dataclass(frozen=True)
class ZolotarevEstimate:
    alpha: float
    lower_bound: float
    witness: str                   # description of the maximizing h
    method: str                    # dictionary | lp-oracle | tv
    grid: int
    history: tuple[tuple[int, float], ...] = ()
    features: tuple[tuple[str, float, str], ...] = ()  # (name, value, parity)
    error_bound: float = 0.0       # lp-oracle: certified discretization slack
    node_values: tuple[float, ...] = ()


@dataclass(frozen=True)
class OscillationIndex:
    value: float
    center: tuple[float, float]
    evaluations: tuple[tuple[tuple[float, float], float], ...]


# ---------------------------------------------------------------------------
# rasterization


def _raster_axes(half_width: float, n: int):
    h = 2.0 * half_width / n
    centers = -half_width + h * (np.arange(n) + 0.5)
    x, y = np.meshgrid(centers, centers, indexing="ij")
    return x, y, h


def _domain_coverage(domain: StarDomain, x, y, h):
    """Antialiased cell coverage: radial gap to the boundary over cell size."""
    rho = np.hypot(x, y)
    theta = np.arctan2(y, x)
    return np.clip((domain.radius(theta) - rho) / h + 0.5, 0.0, 1.0)


def _ball_coverage(cx: float, cy: float, r: float, x, y, h):
    return np.clip((r - np.hypot(x - cx, y - cy)) / h + 0.5, 0.0, 1.0)


def _sup_radius(domain: StarDomain) -> float:
    theta, _ = circle_grid(4096)
    return float(domain.radius(theta).max())


def fraenkel_asymmetry(
    domain: StarDomain, n: int = 512, search: bool = True
) -> FraenkelResult:
    """|Omega symdiff B_r(c)| / |B_r| with the volume-matched radius r.

    The center is minimized by Nelder-Mead from the boundary barycenter
    when ``search`` is on, else fixed at the origin.  Rasterization uses
    antialiased cell coverage, which keeps the objective smooth in c.
    """
    if n < 128:
        raise GridTooCoarse(f"raster grid must be >= 128, got {n}")
    fun = geometric_functionals(domain)
    r = math.sqrt(fun.volume / math.pi)
    half_width = _sup_radius(domain) + r
    x, y, h = _raster_axes(half_width, n)
    cov_domain = _domain_coverage(domain, x, y, h)
    cell = h * h

    def sym_diff(c) -> float:
        cov_ball = _ball_coverage(c[0], c[1], r, x, y, h)
        return float(np.abs(cov_domain - cov_ball).sum() * cell)

    if search:
        from scipy.optimize import minimize  # deferred: keeps the package import light

        result = minimize(
            sym_diff,
            np.asarray(fun.barycenter),
            method="Nelder-Mead",
            options={"maxiter": 500, "xatol": 1e-4, "fatol": 1e-10},
        )
        if not result.success:
            raise NoConvergence(f"center search stalled: {result.message}")
        center = (float(result.x[0]), float(result.x[1]))
    else:
        center = (0.0, 0.0)
    value = sym_diff(center) / fun.volume
    return FraenkelResult(value=value, center=center, radius=r, grid=n)


def fraenkel_polar_oracle(domain: StarDomain) -> float:
    """Exact polar form (1/2) int |R^2 - r^2| dtheta / (pi r^2), valid for
    the centered radius-matched ball.  The integrand kinks where R
    crosses r, so it is integrated piecewise-analytically between the
    zeros of R^2 - r^2 (a trigonometric polynomial)."""
    fun = geometric_functionals(domain)
    r_sq = fun.volume / math.pi

    def integrand(theta: np.ndarray) -> np.ndarray:
        rr = domain.radius(theta) ** 2
        return 0.5 * np.abs(rr - r_sq)

    order = max(2 * domain.order, 1)
    m = max(256, 8 * order)
    theta, _ = circle_grid(m)
    base, a, b = _fourier_fit(domain.radius(theta) ** 2, order)
    breaks = trig_zeros(base - r_sq, a, b)
    val, _ = segmented_circle_quadrature(integrand, breaks)
    return float(val) / fun.volume


def zolotarev_tv(domain: StarDomain, n: int = 512) -> float:
    """int |1_{B_1} - (|B_1|/|Omega|) 1_Omega| by rasterization."""
    if n < 128:
        raise GridTooCoarse(f"raster grid must be >= 128, got {n}")
    fun = geometric_functionals(domain)
    ratio = BALL_VOLUME / fun.volume
    half_width = max(_sup_radius(domain), 1.0) + 0.05
    x, y, h = _raster_axes(half_width, n)
    cov_ball = _ball_coverage(0.0, 0.0, 1.0, x, y, h)
    cov_domain = _domain_coverage(domain, x, y, h)
    return float(np.abs(cov_ball - ratio * cov_domain).sum() * h * h)


# ---------------------------------------------------------------------------
# certified dictionary


def _interpolated_seminorm(lip: float, sup: float, radius: float, alpha: float) -> float:
    """C^alpha seminorm bound for a Lipschitz function on the disk of the
    given radius: |h(x)-h(y)| <= min(L|x-y|, 2 sup) with |x-y| <= 2 radius."""
    if alpha == 1.0:
        return lip
    return min(
        lip * (2.0 * radius) ** (1.0 - alpha),
        lip ** alpha * (2.0 * sup) ** (1.0 - alpha),
    )


def _harmonic_moment(domain: StarDomain, k: int) -> complex:
    """int_Omega (x1 + i x2)^k = int R^{k+2} e^{i k theta} / (k+2) dtheta."""

    def integrand(theta: np.ndarray) -> np.ndarray:
        rad = domain.radius(theta) ** (k + 2) / (k + 2)
        return np.stack([rad * np.cos(k * theta), rad * np.sin(k * theta)], axis=1)

    vals, _ = doubling_quadrature(integrand)
    return complex(vals[0], vals[1])


def _radial_moment(domain: StarDomain, power: int) -> float:
    def integrand(theta: np.ndarray) -> np.ndarray:
        return domain.radius(theta) ** (power + 2) / (power + 2)

    val, _ = doubling_quadrature(integrand)
    return float(val)


def zolotarev_lower(domain: StarDomain, alpha: float = 1.0) -> ZolotarevEstimate:
    """Best certified dictionary lower bound for Z(alpha).

    Features, each normalized so the certified C^alpha norm is exactly 1
    on the disk of radius rho = max(sup R, 1) containing Omega and B_1:

      * harmonic moment probes Re(e^{i phi} (x1+ix2)^k) at the optimal
        phase (their ball integral vanishes, so the value is the scaled
        moment magnitude);
      * radial powers |x|^{2j};
      * clipped affine functions clip(x . e, -1, 1);
      * cusp bumps min(1, |x - x0|^alpha) centered on the unit circle.
    """
    if not 0.0 < alpha <= 1.0:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    fun = geometric_functionals(domain)
    ratio = BALL_VOLUME / fun.volume
    rho = max(_sup_radius(domain), 1.0)

    features: list[tuple[str, float, str]] = []

    for k in range(1, DICTIONARY_SIZE + 1):
        moment = _harmonic_moment(domain, k)
        sup = rho ** k
        lip = k * rho ** (k - 1)
        cert = sup + _interpolated_seminorm(lip, sup, rho, alpha)
        value = ratio * abs(moment) / cert
        parity = "even" if k % 2 == 0 else "odd"
        features.append((f"harmonic-moment k={k}", value, parity))

    for j in range(1, DICTIONARY_SIZE // 2 + 1):
        power = 2 * j
        ball_part = TWO_PI / (power + 2)
        sup = rho ** power
        lip = power * rho ** (power - 1)
        cert = sup + _interpolated_seminorm(lip, sup, rho, alpha)
        value = abs(ball_part - ratio * _radial_moment(domain, power)) / cert
        features.append((f"radial-power 2j={power}", value, "even"))

    pts, wq = bulk_grid(domain, 256, 64)
    cert_affine = 1.0 + _interpolated_seminorm(1.0, 1.0, rho, alpha)
    for idx in range(DICTIONARY_SIZE):
        phi = math.pi * idx / DICTIONARY_SIZE
        e = (math.cos(phi), math.sin(phi))
        clipped = np.clip(pts @ np.asarray(e), -1.0, 1.0)
        # ball integral of the odd integrand vanishes exactly
        value = ratio * abs(float(wq @ clipped)) / cert_affine
        features.append((f"clipped-affine phi={phi:.3f}", value, "odd"))

    disk_pts, disk_w = disk_grid(256, 64)
    for idx in range(DICTIONARY_SIZE):
        ang = TWO_PI * idx / DICTIONARY_SIZE
        x0 = np.array([math.cos(ang), math.sin(ang)])
        bump_ball = np.minimum(1.0, np.hypot(*(disk_pts - x0).T) ** alpha)
        bump_dom = np.minimum(1.0, np.hypot(*(pts - x0).T) ** alpha)
        value = abs(float(disk_w @ bump_ball) - ratio * float(wq @ bump_dom)) / 2.0
        features.append((f"cusp-bump angle={ang:.3f}", value, "none"))

    best = max(features, key=lambda item: item[1])
    return ZolotarevEstimate(
        alpha=alpha,
        lower_bound=best[1],
        witness=best[0],
        method="dictionary",
        grid=pts.shape[0],
        history=((pts.shape[0], best[1]),),
        features=tuple(features),
    )


# ---------------------------------------------------------------------------
# LP oracle


def zolotarev_lp(
    points: np.ndarray, gap: np.ndarray, alpha: float
) -> tuple[float, np.ndarray, float, float]:
    """Maximize sum h_i gap_i over {|h_i| <= m, [h]_alpha <= s, m + s <= 1}
    at the given nodes.  Returns (optimum, h, m, s).

    Any feasible node vector extends to a function of the same norm
    (McShane extension clipped at the sup bound), so the optimum is the
    exact shape distance of the discretized pair of measures.
    """
    from scipy import sparse  # deferred: keeps the package import light
    from scipy.optimize import linprog

    pts = np.asarray(points, dtype=float)
    g = np.asarray(gap, dtype=float)
    n = pts.shape[0]
    if n < 2:
        raise InputError("LP needs >= 2 nodes")
    ii, jj = np.triu_indices(n, k=1)
    dist = np.hypot(*(pts[ii] - pts[jj]).T) ** alpha
    p = ii.size

    # rows: 2p pair constraints, 2n box couplings, 1 budget; cols: h, m, s
    rows = np.concatenate(
        [
            np.repeat(np.arange(p), 3),
            np.repeat(p + np.arange(p), 3),
            np.repeat(2 * p + np.arange(n), 2),
            np.repeat(2 * p + n + np.arange(n), 2),
            np.array([2 * p + 2 * n, 2 * p + 2 * n]),
        ]
    )
    cols = np.concatenate(
        [
            np.stack([ii, jj, np.full(p, n + 1)], axis=1).ravel(),
            np.stack([jj, ii, np.full(p, n + 1)], axis=1).ravel(),
            np.stack([np.arange(n), np.full(n, n)], axis=1).ravel(),
            np.stack([np.arange(n), np.full(n, n)], axis=1).ravel(),
            np.array([n, n + 1]),
        ]
    )
    vals = np.concatenate(
        [
            np.stack([np.ones(p), -np.ones(p), -dist], axis=1).ravel(),
            np.stack([np.ones(p), -np.ones(p), -dist], axis=1).ravel(),
            np.stack([np.ones(n), -np.ones(n)], axis=1).ravel(),
            np.stack([-np.ones(n), -np.ones(n)], axis=1).ravel(),
            np.array([1.0, 1.0]),
        ]
    )
    a_ub = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(2 * p + 2 * n + 1, n + 2)
    ).tocsr()
    b_ub = np.zeros(2 * p + 2 * n + 1)
    b_ub[-1] = 1.0
    c = np.concatenate([-g, [0.0, 0.0]])
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise SolverStall(f"LP solver failed: {result.message}")
    h = result.x[:n]
    return float(-result.fun), h, float(result.x[n]), float(result.x[n + 1])


def zolotarev_oracle(
    domain: StarDomain, alpha: float = 1.0, n_g: int = 200
) -> ZolotarevEstimate:
    """Grid LP estimate of Z(alpha) with a certified discretization slack.

    Nodes are cell centers of a square raster covering B_1 and Omega,
    carrying the two indicator cell-area weights.  The reported
    error_bound combines the exact raster mass defects with the Hoelder
    modulus over a half-diagonal cell shift; the continuum distance lies
    within error_bound of the LP optimum.
    """
    if not 0.0 < alpha <= 1.0:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    if n_g > LP_NODE_CAP:
        raise InputError(f"dense LP is capped at {LP_NODE_CAP} nodes, got {n_g}")
    if n_g < 16:
        raise GridTooCoarse(f"need >= 16 LP nodes, got {n_g}")
    fun = geometric_functionals(domain)
    ratio = BALL_VOLUME / fun.volume
    rho = max(_sup_radius(domain), 1.0)

    def solve(target_nodes: int) -> tuple[int, float, np.ndarray, float]:
        n_axis = max(6, int(math.floor(math.sqrt(4.0 * target_nodes / math.pi))))
        x, y, h = _raster_axes(rho, n_axis)
        cell = h * h
        in_ball = np.hypot(x, y) <= 1.0
        in_domain = np.hypot(x, y) <= domain.radius(np.arctan2(y, x))
        keep = in_ball | in_domain
        pts = np.stack([x[keep], y[keep]], axis=1)
        w_ball = in_ball[keep] * cell
        w_dom = in_domain[keep] * cell * ratio
        value, h_vals, _, _ = zolotarev_lp(pts, w_ball - w_dom, alpha)
        defect = abs(w_ball.sum() - BALL_VOLUME) + abs(w_dom.sum() - BALL_VOLUME)
        slack = defect + 2.0 * BALL_VOLUME * (h * math.sqrt(0.5)) ** alpha
        return pts.shape[0], value, h_vals, slack

    count_coarse, value_coarse, _, _ = solve(max(n_g // 2, 16))
    count, value, h_vals, slack = solve(n_g)
    return ZolotarevEstimate(
        alpha=alpha,
        lower_bound=value,
        witness=f"lp node values (n={count})",
        method="lp-oracle",
        grid=count,
        history=((count_coarse, value_coarse), (count, value)),
        error_bound=slack,
        node_values=tuple(float(v) for v in h_vals),
    )


# ---------------------------------------------------------------------------
# oscillation index


def oscillation_index(
    domain: StarDomain, include_fraenkel: bool = True
) -> OscillationIndex:
    """min over candidate centers y of the L^2 boundary gap between the
    normal and the radial direction seen from y.

    The min is taken over the origin and (optionally) the Fraenkel
    center only; the full minimization over y is out of scope.
    """
    frame = boundary_frame(domain, 2048)
    w = frame.jacobian * frame.dtheta
    candidates = [(0.0, 0.0)]
    if include_fraenkel:
        candidates.append(fraenkel_asymmetry(domain, n=256).center)
    evaluations = []
    for cand in candidates:
        offset = frame.points - np.asarray(cand)
        ray = offset / np.linalg.norm(offset, axis=1, keepdims=True)
        gap = frame.normals - ray
        val = math.sqrt(float(w @ np.einsum("nd,nd->n", gap, gap)))
        evaluations.append((cand, val))
    center, value = min(evaluations, key=lambda item: item[1])
    return OscillationIndex(
        value=value, center=center, evaluations=tuple(evaluations)
    )
