"""Set distances to the ball: Fraenkel asymmetry, total-variation form,
certified dictionary lower bounds and a grid LP oracle for the Hoelder
shape distance.

The Hoelder norm convention everywhere is sup + seminorm, shared with
shapes.holder_norm.  The shape distance is implemented in its raw
unnormalized form

    Z(alpha) = sup { int_{B_1} h - (|B_1|/|Omega|) int_Omega h :
                     ||h||_{C^alpha} <= 1 },

so the alpha -> 0 total-variation limit holds up to the |B_1| mass
factor.  Dictionary features carry closed-form norms on the disk of
radius rho = max(sup R, 1), which holds Omega and B_1, so every reported
dictionary value is a lower bound up to quadrature error of the two
integrals and up to the error of rho.  rho is not certified: it is the
largest R on ``VALIDATION_GRID`` (``_sup_radius``), which under-reads sup R
by up to 4.4e-7 relative on random shapes of order <= 5.  An under-read
rho makes the norm of a degree-k feature too small, and its value too
large, by up to a factor (1 + 4.4e-7)^k, with k <= DICTIONARY_SIZE.  A
certified rho (the largest of M samples plus (pi/M) times a bound on
|R'|, as star-shape validation bounds min R) would move the reported
bounds by more than 1e-8.  The ball side of the cusp bumps depends on
alpha alone and is built once per alpha (``_ball_bumps``).

On the domain side, a cusp bump min(1, |x - x0|^alpha) centred at x0 =
e_phi0 is exactly 1 wherever |x - x0| >= 1, so it is evaluated only on
its near rays of the bulk grid: those with computed cos(theta - phi0) =
cos theta cos phi0 + sin theta sin phi0 > 0, 127 to 129 of 256.  A node
at radius r of any other ray has |x - x0|^2 = 1 + r^2 - 2 r cos(theta -
phi0) >= 1 + r^2, less a few ulp of rounding in the points, the centre and
that cosine.  The grid's innermost radius is R(theta) t_1, t_1 = 3.5e-4,
so r^2 clears that rounding by orders of magnitude, every computed hypot
there is >= 1 and the bump reads 1.0 bit for bit.  A ray whose innermost
r^2 is below 16 eps, where that margin would no longer hold, counts as
near.

Raster coverage (``_domain_coverage``) evaluates R only on the annulus
where |rho - base| <= sum |a_k| + |b_k| + h; off it the clipped coverage
is exactly 1 or 0 and is set without evaluating R, so every raster result
keeps the bits of a full evaluation.

The grid LP oracle solves only on the nodes that carry mass.  A raster
cell inside both B_1 and Omega has gap cell * (1 - |B_1|/|Omega|), which
is zero up to rounding for volume-normalized shapes.  Such a node cannot
move the optimum: d^alpha is a metric for alpha <= 1, so by McShane's
extension theorem any feasible h on the other nodes extends to it with
the same sup and seminorm bounds.  The mass of the dropped nodes, at
most a few ulp per cell, enters the oracle's error_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import GridTooCoarse, InputError, SolverStall
from .shapes import (
    TWO_PI,
    BALL_VOLUME,
    VALIDATION_GRID,
    StarDomain,
    _fourier_fit,
    boundary_frame,
    bulk_grid,
    check_alpha,
    check_integer,
    circle_grid,
    disk_grid,
    doubling_quadrature,
    geometric_functionals,
    trig_zeros,
)

LP_NODE_CAP = 400
ZERO_MASS_TOL = 1e-12     # |gap| <= this * cell area: the node leaves the LP
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
    method: str                    # dictionary | lp-oracle
    grid: int
    features: tuple[tuple[str, float, str], ...] = ()  # (name, value, parity)
    # lp-oracle: certified discretization slack; dictionary: inf, as a
    # lower bound has no certified upper end
    error_bound: float = math.inf
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
    """Antialiased cell coverage: radial gap to the boundary over cell size.

    |R - base| is at most spread = sum |a_k| + |b_k|, so a cell center
    farther than spread + h from the circle of radius base lies more than
    one cell from the boundary, where the clipped gap is exactly 1 or 0.
    R is evaluated on the annulus between only.
    """
    a, b, _ = domain._packed
    base = domain.base_radius
    spread = float(np.abs(a).sum() + np.abs(b).sum())
    rho = np.hypot(x, y)
    coverage = (rho < base).astype(float)
    near = np.abs(rho - base) <= spread + h
    theta = np.arctan2(y[near], x[near])
    coverage[near] = np.clip((domain.radius(theta) - rho[near]) / h + 0.5, 0.0, 1.0)
    return coverage


def _ball_coverage(cx: float, cy: float, r: float, x, y, h):
    return np.clip((r - np.hypot(x - cx, y - cy)) / h + 0.5, 0.0, 1.0)


def _sup_radius(domain: StarDomain) -> float:
    theta, _ = circle_grid(VALIDATION_GRID)
    return float(domain.radius(theta).max())


def fraenkel_asymmetry(
    domain: StarDomain, n: int = 512, search: bool = True
) -> FraenkelResult:
    """|Omega symdiff B_r(c)| / |B_r| with the volume-matched radius r.

    The center is minimized by Nelder-Mead from the boundary barycenter
    when ``search`` is on, else fixed at the origin.  Rasterization uses
    antialiased cell coverage, which keeps the objective smooth in c.
    """
    check_integer("raster grid", n, 128, GridTooCoarse)
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
            raise SolverStall(f"center search stalled: {result.message}")
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
    val, _ = doubling_quadrature(integrand, breaks=breaks)
    return float(val) / fun.volume


def zolotarev_tv(domain: StarDomain, n: int = 512) -> float:
    """int |1_{B_1} - (|B_1|/|Omega|) 1_Omega| by rasterization."""
    check_integer("raster grid", n, 128, GridTooCoarse)
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


def _moments(domain: StarDomain) -> tuple[list[complex], list[float]]:
    """Harmonic moments int_Omega (x1 + i x2)^k = int R^{k+2} e^{i k theta} / (k+2)
    for k = 1..DICTIONARY_SIZE and radial moments int_Omega |x|^p =
    int R^{p+2} / (p+2) for p = 2, 4, .., DICTIONARY_SIZE, from one quadrature."""
    ks = np.arange(1, DICTIONARY_SIZE + 1)
    powers = np.arange(2, DICTIONARY_SIZE + 1, 2)

    def integrand(theta: np.ndarray) -> np.ndarray:
        rad = domain.radius(theta)[:, None]
        harm = rad ** (ks + 2) / (ks + 2)
        ang = np.multiply.outer(theta, ks)
        radial = rad ** (powers + 2) / (powers + 2)
        return np.concatenate([harm * np.cos(ang), harm * np.sin(ang), radial], axis=1)

    vals, _ = doubling_quadrature(integrand)
    n = DICTIONARY_SIZE
    return (vals[:n] + 1j * vals[n : 2 * n]).tolist(), vals[2 * n :].tolist()


def _bump_centers() -> np.ndarray:
    """The DICTIONARY_SIZE cusp-bump centers on the unit circle, (8, 2)."""
    angles = (TWO_PI * idx / DICTIONARY_SIZE for idx in range(DICTIONARY_SIZE))
    return np.array([(math.cos(ang), math.sin(ang)) for ang in angles])


@cache
def _ball_bumps(alpha: float) -> tuple[float, ...]:
    """Unit-disk integrals of the cusp bumps min(1, |x - x0|^alpha).  They
    depend on alpha alone, so they are built once per alpha, a constant of
    the method like the quadrature rules."""
    disk = disk_grid()
    return tuple(
        float(disk.weights @ np.minimum(1.0, np.hypot(*(disk.points - x0).T) ** alpha))
        for x0 in _bump_centers()
    )


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

    The result is a lower bound only: its ``error_bound`` is inf, since
    nothing certifies how far below Z(alpha) it lies.
    """
    check_alpha(alpha)
    fun = geometric_functionals(domain)
    ratio = BALL_VOLUME / fun.volume
    rho = max(_sup_radius(domain), 1.0)

    features: list[tuple[str, float, str]] = []
    harmonic, radial = _moments(domain)

    for k, moment in enumerate(harmonic, start=1):
        sup = rho ** k
        lip = k * rho ** (k - 1)
        cert = sup + _interpolated_seminorm(lip, sup, rho, alpha)
        value = ratio * abs(moment) / cert
        parity = "even" if k % 2 == 0 else "odd"
        features.append((f"harmonic-moment k={k}", value, parity))

    for power, moment in zip(range(2, DICTIONARY_SIZE + 1, 2), radial):
        ball_part = TWO_PI / (power + 2)
        sup = rho ** power
        lip = power * rho ** (power - 1)
        cert = sup + _interpolated_seminorm(lip, sup, rho, alpha)
        value = abs(ball_part - ratio * moment) / cert
        features.append((f"radial-power 2j={power}", value, "even"))

    grid = bulk_grid(domain)
    pts, wq = grid.points, grid.weights
    cert_affine = 1.0 + _interpolated_seminorm(1.0, 1.0, rho, alpha)
    for idx in range(DICTIONARY_SIZE):
        phi = math.pi * idx / DICTIONARY_SIZE
        e = (math.cos(phi), math.sin(phi))
        clipped = np.clip(pts @ np.asarray(e), -1.0, 1.0)
        # ball integral of the odd integrand vanishes exactly
        value = ratio * abs(float(wq @ clipped)) / cert_affine
        features.append((f"clipped-affine phi={phi:.3f}", value, "odd"))

    # each bump is evaluated on its near rays only (module docstring) and is
    # exactly 1 on the others; its (N,) row is contiguous, so the dot
    # product with the weights is the one over a full evaluation
    centers = _bump_centers()
    ct, st = grid.directions
    inner = grid.r[:, 0]
    near = np.multiply.outer(centers[:, 0], ct) + np.multiply.outer(centers[:, 1], st) > 0.0
    near |= inner * inner <= 16.0 * np.finfo(float).eps
    px, py = pts.reshape(*grid.r.shape, 2).transpose(2, 0, 1)
    for idx, (ball_part, rays, (cx, cy)) in enumerate(zip(_ball_bumps(alpha), near, centers)):
        bump = np.ones(grid.r.shape)
        bump[rays] = np.minimum(1.0, np.hypot(px[rays] - cx, py[rays] - cy) ** alpha)
        ang = TWO_PI * idx / DICTIONARY_SIZE
        value = abs(ball_part - ratio * float(wq @ bump.ravel())) / 2.0
        features.append((f"cusp-bump angle={ang:.3f}", value, "none"))

    best = max(features, key=lambda item: item[1])
    return ZolotarevEstimate(
        alpha=alpha,
        lower_bound=best[1],
        witness=best[0],
        method="dictionary",
        grid=pts.shape[0],
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

    Over the columns (h, m, s), A_ub is the block matrix
    [[D, ., -d], [-D, ., -d], [I, -1, .], [-I, -1, .], [., 1, 1]] of the
    pair, box and budget rows, where D is the pair-incidence block (one row
    per pair i < j, +1 at i and -1 at j) and d the column of d_ij^alpha.
    """
    from scipy import sparse  # deferred: keeps the package import light
    from scipy.optimize import linprog

    pts = np.asarray(points, dtype=float)
    g = np.asarray(gap, dtype=float)
    n = pts.shape[0]
    if n < 2:
        raise InputError("LP needs >= 2 nodes")
    ii, jj = np.triu_indices(n, k=1)
    p = ii.size
    dist = (np.hypot(*(pts[ii] - pts[jj]).T) ** alpha)[:, None]
    pair = np.tile(np.arange(p), 2)
    incidence = sparse.coo_matrix(
        (np.repeat([1.0, -1.0], p), (pair, np.concatenate([ii, jj]))), shape=(p, n)
    )
    eye, column, one = sparse.identity(n), np.ones((n, 1)), np.ones((1, 1))
    a_ub = sparse.bmat(
        [
            [incidence, None, -dist],
            [-incidence, None, -dist],
            [eye, -column, None],
            [-eye, -column, None],
            [None, one, one],
        ],
        format="csr",
    )
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[-1] = 1.0
    c = np.concatenate([-g, [0.0, 0.0]])
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise SolverStall(f"LP solver failed: {result.message}")
    h = result.x[:n]
    return float(-result.fun), h, float(result.x[n]), float(result.x[n + 1])


def _lp_nodes(domain: StarDomain, target_nodes: int):
    """Cell centres of a square raster covering B_1 and Omega, with their
    ball and (volume-scaled) domain cell weights.  Returns
    (points, w_ball, w_dom, cell width)."""
    fun = geometric_functionals(domain)
    ratio = BALL_VOLUME / fun.volume
    rho = max(_sup_radius(domain), 1.0)
    n_axis = max(6, int(math.floor(math.sqrt(4.0 * target_nodes / math.pi))))
    x, y, h = _raster_axes(rho, n_axis)
    cell = h * h
    in_ball = np.hypot(x, y) <= 1.0
    in_domain = np.hypot(x, y) <= domain.radius(np.arctan2(y, x))
    keep = in_ball | in_domain
    pts = np.stack([x[keep], y[keep]], axis=1)
    return pts, in_ball[keep] * cell, in_domain[keep] * cell * ratio, h


def _band_lp(
    points: np.ndarray, gap: np.ndarray, alpha: float, cell: float
) -> tuple[float, np.ndarray, float, int]:
    """zolotarev_lp on the nodes whose |gap| exceeds ZERO_MASS_TOL * cell,
    extended to every node.  Returns (optimum, h, dropped mass, LP nodes).

    Each dropped node k gets the clipped McShane extension
    clip(min_i (h_i + s d_ik^alpha), -m, m) of the LP solution, so h stays
    a feasible point of the LP over all nodes, and the two optima differ
    by at most the dropped mass.  With one live node the optimum is the
    constant h = sign(g) (m = 1, s = 0); with none it is h = 0.
    """
    live = np.abs(gap) > ZERO_MASS_TOL * cell
    dropped = float(np.abs(gap[~live]).sum())
    n_live = int(live.sum())
    if n_live == 0:
        return 0.0, np.zeros(gap.size), dropped, 0
    if n_live == 1:
        g = float(gap[live][0])
        value, h_live, m, s = abs(g), np.array([math.copysign(1.0, g)]), 1.0, 0.0
    else:
        value, h_live, m, s = zolotarev_lp(points[live], gap[live], alpha)
    h = np.empty(gap.size)
    h[live] = h_live
    if n_live < gap.size:
        offset = points[~live][:, None, :] - points[live][None, :, :]
        dist = np.hypot(offset[..., 0], offset[..., 1]) ** alpha
        h[~live] = np.clip((h_live + s * dist).min(axis=1), -m, m)
    return value, h, dropped, n_live


def zolotarev_oracle(
    domain: StarDomain, alpha: float = 1.0, n_g: int = 200
) -> ZolotarevEstimate:
    """Grid LP estimate of Z(alpha) with a certified discretization slack.

    One LP is solved, at about n_g nodes: cell centers of a square raster
    covering B_1 and Omega, carrying the two indicator cell-area weights.
    Nodes whose gap is below ZERO_MASS_TOL of a cell (the interior of a
    volume-normalized shape) leave the LP: by McShane's extension theorem
    they cannot move its optimum beyond their total |gap|, and node_values
    fills them with the clipped extension of the LP solution.  Shapes with
    |Omega| != |B_1| drop no node.  The reported error_bound combines the
    exact raster mass defects, the Hoelder modulus over a half-diagonal
    cell shift and the dropped mass; the continuum distance lies within
    error_bound of the LP optimum, and that certified bound is the result's
    only statement of its resolution.
    """
    check_alpha(alpha)
    check_integer("LP nodes", n_g, 16, GridTooCoarse)
    if n_g > LP_NODE_CAP:
        raise InputError(f"dense LP is capped at {LP_NODE_CAP} nodes, got {n_g}")

    pts, w_ball, w_dom, h = _lp_nodes(domain, n_g)
    value, h_vals, dropped, n_live = _band_lp(pts, w_ball - w_dom, alpha, h * h)
    defect = abs(w_ball.sum() - BALL_VOLUME) + abs(w_dom.sum() - BALL_VOLUME)
    slack = defect + 2.0 * BALL_VOLUME * (h * math.sqrt(0.5)) ** alpha + dropped
    return ZolotarevEstimate(
        alpha=alpha,
        lower_bound=value,
        witness=f"lp node values (n={pts.shape[0]}, {n_live} in the LP)",
        method="lp-oracle",
        grid=pts.shape[0],
        error_bound=slack,
        node_values=tuple(float(v) for v in h_vals),
    )


# ---------------------------------------------------------------------------
# oscillation index


def oscillation_index(domain: StarDomain) -> OscillationIndex:
    """min over candidate centers y of the L^2 boundary gap between the
    normal and the radial direction seen from y.

    The min is taken over the origin and the Fraenkel center only, and
    ``evaluations`` lists (center, value) for each, the origin first; the
    full minimization over y is out of scope.
    """
    frame = boundary_frame(domain, 2048)
    w = frame.weights
    candidates = [(0.0, 0.0), fraenkel_asymmetry(domain, n=256).center]
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
