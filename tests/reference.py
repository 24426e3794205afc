"""Reference routes and oracles that the tests and ``equivalence.py`` hold
the package to.

Each route here is the slower or independent form of something the
package computes another way, and it is kept once:

* ``full_doubling`` is the trapezoid doubling before its rules were
  nested, and ``checked_doubling`` holds every trapezoid
  ``doubling_quadrature`` call to it;
* ``two_call_assemble`` is the Steklov assembly with its two tables from
  two basis calls;
* ``circle_lag_seminorm_blocks`` is ``circle_lag_seminorm`` without its
  stop;
* ``rotated`` turns a domain's frame, for the invariance tests;
* the oracles ``rayleigh_quotient``, ``trace_inequality_check``,
  ``requadrature``, ``divergence_functional``, ``radial_uniformity_chi2``,
  ``holder_norm`` and ``matrix_holder_seminorm`` check the solvers'
  results by routes of their own.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from steinshapes import _kernels, _polar
from steinshapes.errors import NoConvergence, ResidualTooLarge
from steinshapes.oblique import ObliqueSolution, _circle_integral
from steinshapes.rbm import RESIDUAL_GATE, PathConfig, path
from steinshapes.shapes import (
    QUAD_CAP,
    QUAD_START,
    QUAD_TOL,
    TWO_PI,
    StarDomain,
    boundary_frame,
    bulk_grid,
    circle_grid,
    doubling_quadrature as nested_doubling,
)
from steinshapes.stein import SteinKernelResult, _discrepancies

CHECK_GRID = 2048         # boundary grid of the Rayleigh and trace checks
TRACE_FLOOR = 1e-14       # boundary variance at which the Rayleigh quotient is undefined
CHI2_BINS = 16
CHI2_SPACING = 0.5        # time units between retained path points


# ---------------------------------------------------------------------------
# domains


def rotated(domain: StarDomain, phase: float) -> StarDomain:
    """``domain`` with radius R(theta + phase): the same shape in a rotated
    frame, certified as every ``StarDomain`` is."""
    a, b, k = domain._packed
    ck = np.cos(k * phase)
    sk = np.sin(k * phase)
    return replace(
        domain,
        cos_coeffs=tuple(a * ck + b * sk),
        sin_coeffs=tuple(b * ck - a * sk),
    )


# ---------------------------------------------------------------------------
# trapezoid doubling


def full_doubling(integrand, tol=QUAD_TOL):
    """The trapezoid doubling as it was before its rules were nested: every
    level evaluates the integrand on all of its angles."""
    n, prev = QUAD_START, None
    while n <= QUAD_CAP:
        theta, _ = circle_grid(n)
        cur = np.asarray(integrand(theta), dtype=float).mean(axis=0) * TWO_PI
        if prev is not None and np.all(np.abs(cur - prev) <= tol * np.maximum(np.abs(cur), 1.0)):
            return cur, n
        prev = cur
        n *= 2
    raise NoConvergence("no agreement by QUAD_CAP")


def checked_doubling(integrand, tol=QUAD_TOL, breaks=()):
    """``doubling_quadrature``, with every trapezoid doubling held to
    ``full_doubling``: the same value bits and grid, or NoConvergence from
    both.  A mismatch raises AssertionError.  The Gauss-Legendre branch
    (``breaks``) is not nested and passes through."""
    if np.size(breaks):
        return nested_doubling(integrand, tol, breaks)
    try:
        want = full_doubling(integrand, tol)
    except NoConvergence:
        want = None
    try:
        got = nested_doubling(integrand, tol)
    except NoConvergence:
        if want is None:
            raise
        got = None
    if want is None or got is None or not (np.array_equal(got[0], want[0]) and got[1] == want[1]):
        raise AssertionError("nested doubling differs from full re-evaluation")
    return got


# ---------------------------------------------------------------------------
# Steklov spectra


def two_call_assemble(domain: StarDomain, k: int, m: int):
    """``steklov._assemble`` with its two tables from two basis calls, each
    building its own cos/sin table of the frame's angles."""
    frame = boundary_frame(domain, m)
    basis = _polar.harmonic_basis(k, include_constant=True)
    vals = basis.values(frame)
    dnu = basis.normal_derivative(frame, *frame.polar_normal)
    scale = 1.0 / np.abs(vals).max(axis=0)
    vals = vals * scale
    dnu = dnu * scale
    w = frame.weights
    a_raw = vals.T @ (w[:, None] * dnu)
    b_raw = vals.T @ (w[:, None] * vals)
    return 0.5 * (a_raw + a_raw.T), 0.5 * (b_raw + b_raw.T), scale


def _boundary_variance(frame, trace: np.ndarray) -> float:
    """Weighted boundary variance of ``trace`` about its weighted mean."""
    w = frame.weights
    centered = trace - float(w @ trace) / float(w.sum())
    return float(w @ (centered * centered))


def rayleigh_quotient(domain: StarDomain, u: _polar.PolarField) -> float:
    """Dirichlet energy over boundary variance for a harmonic expansion.

    The numerator uses the boundary form int u du/dnu, exact for harmonic
    u; the boundary mean of u is projected out of the denominator.
    """
    frame = boundary_frame(domain, CHECK_GRID)
    w = frame.weights
    trace = u.value(frame)
    dnu = u.normal_derivative(frame, *frame.polar_normal)
    numerator = float(w @ (trace * dnu))
    denominator = _boundary_variance(frame, trace)
    if denominator <= TRACE_FLOOR:
        raise ValueError(f"boundary variance {denominator:.3g} <= {TRACE_FLOOR:g}")
    return numerator / denominator


def trace_inequality_check(domain: StarDomain, components, c_bw: float) -> float:
    """Margin of the vector trace inequality for the supplied field.

    Returns c_bw * total Dirichlet energy - boundary variance of the
    vector trace; components are PolarField entries of u.  The energy is
    a bulk quadrature, so non-harmonic polynomial fields are admissible.
    """
    grid = bulk_grid(domain)
    energy = 0.0
    for comp in components:
        grad = comp.gradient(grid)
        energy += float(grid.weights @ np.einsum("nd,nd->n", grad, grad))
    frame = boundary_frame(domain, CHECK_GRID)
    variance = sum(_boundary_variance(frame, comp.value(frame)) for comp in components)
    return c_bw * energy - variance


# ---------------------------------------------------------------------------
# Hoelder seminorms


def circle_lag_seminorm_blocks(vals, alpha):
    """circle_lag_seminorm without its stop: every lag, LAG_BLOCK at a time,
    in the kernel's arithmetic; the reference where the loop is too slow."""
    m = vals.shape[0]
    lags = m // 2
    ring = np.lib.stride_tricks.sliding_window_view(np.concatenate([vals[1:], vals]), m)[:lags]
    dk = lag_distances(m, alpha)
    best = 0.0
    for k0 in range(0, lags, _kernels.LAG_BLOCK):
        block = slice(k0, k0 + _kernels.LAG_BLOCK)
        diff = np.abs(ring[block] - vals)
        best = max(best, float((diff.max(axis=1) / dk[block]).max()))
    return best


def lag_distances(m, alpha):
    """(m // 2,) the kernel's d_k, lag k = 1 .. m // 2 at index k - 1."""
    return np.array([(2.0 * math.pi * k / m) ** alpha for k in range(1, m // 2 + 1)])


def holder_norm(points, values, alpha: float) -> float:
    """Grid estimate (a lower bound) of sup|h| + the C^alpha seminorm of the
    values h at (N, d) points, one pair at a time through the Cartesian
    kernel."""
    vals = np.asarray(values, dtype=float)
    return float(np.abs(vals).max() + _kernels.pair_seminorm(points, vals, alpha))


def matrix_holder_seminorm(points, matrices, alpha: float) -> float:
    """C^alpha seminorm of a matrix field under the Frobenius distance;
    ``matrices`` holds one matrix per point."""
    mats = np.asarray(matrices, dtype=float)
    return _kernels.matrix_pair_seminorm(points, mats.reshape(mats.shape[0], -1), alpha)


# ---------------------------------------------------------------------------
# Stein and oblique solutions


def requadrature(result: SteinKernelResult) -> tuple[float, float]:
    """(L1, L2) discrepancies of the kernel re-integrated on the bulk grid
    of twice its angles and radii."""
    nt, nr = result.grid.theta.size, result.grid.t.size
    _, disc1, disc2 = _discrepancies(result.potentials, bulk_grid(result.domain, 2 * nt, 2 * nr))
    return disc1, disc2


def divergence_functional(solution: ObliqueSolution) -> float:
    """Integral of Laplacian f over B_1, evaluated as a boundary flux."""
    if solution.boundary_residual > RESIDUAL_GATE:
        raise ResidualTooLarge(
            f"boundary residual {solution.boundary_residual:.3g} > {RESIDUAL_GATE:g}"
        )
    return _circle_integral(solution.field, "radial_derivative")


# ---------------------------------------------------------------------------
# reflected Brownian motion


def radial_uniformity_chi2(
    domain: StarDomain, config: PathConfig
) -> tuple[float, float, int]:
    """Chi-square test of r^2 ~ Uniform[0, 1] over CHI2_BINS bins on
    subsampled path points.

    Subsampling every CHI2_SPACING time units keeps the retained points
    nearly independent (the disk relaxation time is order one).
    Returns (statistic, p_value, dof).  Meaningful for the ball, where
    the reflection is radial and the stationary law is uniform.
    """
    positions, _ = path(domain, config)
    stride = max(1, int(round(CHI2_SPACING / config.dt)))
    kept = positions[config.n_burn + 1 :: stride]
    r_sq = kept[:, 0] ** 2 + kept[:, 1] ** 2
    if r_sq.size < 5 * CHI2_BINS:
        raise ValueError(f"{r_sq.size} subsamples is too few for {CHI2_BINS} bins")
    counts, _ = np.histogram(r_sq, bins=CHI2_BINS, range=(0.0, 1.0))
    expected = r_sq.size / CHI2_BINS
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, chi2_tail(stat), CHI2_BINS - 1


def chi2_tail(x: float) -> float:
    """P(chi-square > x) at CHI2_BINS - 1 = 15 = 2n + 1 degrees of freedom:

        erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2) sum_{j=1..n} x^(j-1) / (2j-1)!!

    (Abramowitz & Stegun 26.4.4), so the p-value needs no scipy.
    """
    term = total = 1.0
    for j in range(1, (CHI2_BINS - 1) // 2):
        term *= x / (2 * j + 1)
        total += term
    density = math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)
    return math.erfc(math.sqrt(0.5 * x)) + density * total
