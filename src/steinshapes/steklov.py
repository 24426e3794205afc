"""Steklov spectra of star-shaped planar domains by a harmonic Ritz method.

Eigenfunctions of the Dirichlet-to-Neumann operator are harmonic, so the
Ritz space of harmonic polynomials {1, r^k cos k theta, r^k sin k theta}
is conforming and spectrally accurate on analytic boundaries.  The
stiffness form is assembled as the boundary integral of phi_m dphi_n/dnu
(equal to the Dirichlet energy by harmonicity) and symmetrized; the mass
form is the boundary L2 Gram matrix.  The generalized problem is reduced
by dropping mass-matrix directions below a pivot threshold, the
documented tie-breaker for the ill-conditioning of r^k bases.

``steklov_spectrum`` assembles one system, at k + 4 on max(m, 4(k + 8))
boundary angles.  The basis at k is its first 2k + 1 columns, with the
same per-column scales, so the reported spectrum solves the leading block
and the k -> k+4 gate reads sigma_1 of the whole pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _polar
from .errors import DegenerateBasis, GridTooCoarse, NoConvergence, ZeroTrace
from .shapes import StarDomain, boundary_frame, bulk_grid, check_integer

PIVOT_THRESHOLD = 1e-12
CONVERGENCE_TOL = 1e-8
CLUSTER_GAP = 1e-7
N_EIGENVALUES = 7
CHECK_GRID = 2048         # boundary grid of the Rayleigh and trace checks
TRACE_FLOOR = 1e-14       # boundary variance at which the Rayleigh quotient is undefined
STEKLOV_ORDER = 16        # default truncation; verify and sweep add 4 per radius order


@dataclass(frozen=True)
class SteklovResult:
    eigenvalues: np.ndarray          # ascending, the N_EIGENVALUES smallest
    # column j: eigenvector j over {1, r^k cos, r^k sin}; internal, so no report shows it
    coefficients: np.ndarray = field(repr=False)
    truncation: int
    grid: int
    converged: bool
    sigma1: float
    c_bw: float                      # 1 / sigma1
    bw_deficit: float                # 1 - sigma1
    multiplicities: tuple[int, ...]  # cluster sizes at gap 1e-7
    dropped: int

    def eigenfunction(self, index: int) -> _polar.PolarField:
        basis = _polar.harmonic_basis(self.truncation, include_constant=True)
        return _polar.PolarField(basis, self.coefficients[:, index].copy())


def _assemble(domain: StarDomain, k: int, m: int):
    frame = boundary_frame(domain, m)
    basis = _polar.harmonic_basis(k, include_constant=True)
    vals, dnu = basis.values_and_normal_derivative(frame, *frame.polar_normal)
    scale = 1.0 / np.abs(vals).max(axis=0)
    vals = vals * scale
    dnu = dnu * scale
    w = frame.weights
    a_raw = vals.T @ (w[:, None] * dnu)
    a = 0.5 * (a_raw + a_raw.T)
    b_raw = vals.T @ (w[:, None] * vals)
    b = 0.5 * (b_raw + b_raw.T)
    return a, b, scale


def _solve_pencil(a: np.ndarray, b: np.ndarray):
    evals, evecs = np.linalg.eigh(b)
    keep = evals >= PIVOT_THRESHOLD * evals.max()
    dropped = int((~keep).sum())
    if dropped > a.shape[0] // 2:
        raise DegenerateBasis(
            f"mass-matrix pivoting dropped {dropped} of {a.shape[0]} directions"
        )
    white = evecs[:, keep] / np.sqrt(evals[keep])
    aw = white.T @ a @ white
    aw = 0.5 * (aw + aw.T)
    sigma, y = np.linalg.eigh(aw)
    return sigma, white @ y, dropped


def steklov_spectrum(
    domain: StarDomain,
    k: int = STEKLOV_ORDER,
    m: int | None = None,
    strict: bool = True,
) -> SteklovResult:
    """The N_EIGENVALUES smallest Steklov eigenvalues with eigen-coefficients.

    The spectrum solves the leading 2k + 1 block of the one system
    assembled at k + 4 on max(m, 4(k + 8)) boundary angles (m = 256 by
    default; an explicit m must be >= 4k).  ``converged`` compares its
    sigma_1 with the whole pencil's at CONVERGENCE_TOL; with ``strict``
    the mismatch raises instead of being flagged.
    """
    check_integer("truncation order", k, 1)
    m = 256 if m is None else m
    check_integer("boundary grid", m, 4 * k, GridTooCoarse)
    m = max(m, 4 * (k + 8))
    a, b, scale = _assemble(domain, k + 4, m)
    lead = 2 * k + 1
    sigma, vecs, dropped = _solve_pencil(a[:lead, :lead], b[:lead, :lead])
    n = min(N_EIGENVALUES, sigma.size)
    eigenvalues = sigma[:n].copy()
    coefficients = scale[:lead, None] * vecs[:, :n]

    sigma1 = float(sigma[1])
    sigma1_refined = float(_solve_pencil(a, b)[0][1])
    converged = abs(sigma1 - sigma1_refined) <= CONVERGENCE_TOL
    if strict and not converged:
        raise NoConvergence(
            f"sigma_1 moved {abs(sigma1 - sigma1_refined):.3g} under k -> k+4"
        )

    breaks = np.flatnonzero(np.diff(eigenvalues) > CLUSTER_GAP) + 1
    mults = np.diff(np.concatenate(([0], breaks, [n])))

    return SteklovResult(
        eigenvalues=eigenvalues,
        coefficients=coefficients,
        truncation=k,
        grid=m,
        converged=converged,
        sigma1=sigma1,
        c_bw=1.0 / sigma1 if sigma1 > 0 else math.inf,
        bw_deficit=1.0 - sigma1,
        multiplicities=tuple(mults.tolist()),
        dropped=dropped,
    )


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
        raise ZeroTrace(f"boundary variance {denominator:.3g} <= {TRACE_FLOOR:g}")
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
