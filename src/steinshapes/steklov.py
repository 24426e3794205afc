"""Steklov spectra of star-shaped planar domains by a harmonic Ritz method.

Eigenfunctions of the Dirichlet-to-Neumann operator are harmonic, so the
Ritz space of harmonic polynomials {1, r^k cos k theta, r^k sin k theta}
is conforming and spectrally accurate on analytic boundaries.  The
stiffness form is assembled as the boundary integral of phi_m dphi_n/dnu
(equal to the Dirichlet energy by harmonicity) and symmetrized; the mass
form is the boundary L2 Gram matrix.  The generalized problem is reduced
by dropping mass-matrix directions below a pivot threshold, the
documented tie-breaker for the ill-conditioning of r^k bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _polar
from .errors import DegenerateBasis, GridTooCoarse, NotConverged, ZeroTrace
from .shapes import StarDomain, boundary_frame, bulk_grid

PIVOT_THRESHOLD = 1e-12
CONVERGENCE_TOL = 1e-8
CLUSTER_GAP = 1e-7
N_EIGENVALUES = 7
CHECK_GRID = 2048         # boundary grid of the Rayleigh and trace checks


@dataclass(frozen=True)
class SteklovResult:
    eigenvalues: np.ndarray          # ascending, the N_EIGENVALUES smallest
    coefficients: np.ndarray         # column j: eigenvector j over {1, r^k cos, r^k sin}
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
    vals = basis.values(frame.radius, frame.theta)
    grads = basis.gradients(frame.radius, frame.theta)
    dnu = np.einsum("mjd,md->mj", grads, frame.normals)
    scale = 1.0 / np.abs(vals).max(axis=0)
    vals = vals * scale
    dnu = dnu * scale
    w = frame.jacobian * frame.dtheta
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


def _sigma1(domain: StarDomain, k: int, m: int) -> float:
    a, b, _ = _assemble(domain, k, m)
    sigma, _, _ = _solve_pencil(a, b)
    return float(sigma[1])


def steklov_spectrum(
    domain: StarDomain,
    k: int = 16,
    m: int | None = None,
    strict: bool = True,
) -> SteklovResult:
    """The N_EIGENVALUES smallest Steklov eigenvalues with eigen-coefficients.

    The convergence flag compares sigma_1 at truncations k and k+4 (with
    the boundary grid enlarged accordingly) at tolerance 1e-8; with
    ``strict`` the mismatch raises instead of being flagged.
    """
    if m is None:
        m = max(4 * (k + 4), 256)
    if m < 4 * k:
        raise GridTooCoarse(f"boundary grid must be >= 4k = {4 * k}, got {m}")
    a, b, scale = _assemble(domain, k, m)
    sigma, vecs, dropped = _solve_pencil(a, b)
    n = min(N_EIGENVALUES, sigma.size)
    eigenvalues = sigma[:n].copy()
    coefficients = scale[:, None] * vecs[:, :n]

    sigma1 = float(sigma[1]) if sigma.size > 1 else math.nan
    sigma1_refined = _sigma1(domain, k + 4, max(m, 4 * (k + 8)))
    converged = abs(sigma1 - sigma1_refined) <= CONVERGENCE_TOL
    if strict and not converged:
        raise NotConverged(
            f"sigma_1 moved {abs(sigma1 - sigma1_refined):.3g} under k -> k+4"
        )

    mults = []
    run = 1
    for prev, cur in zip(eigenvalues, eigenvalues[1:]):
        if cur - prev <= CLUSTER_GAP:
            run += 1
        else:
            mults.append(run)
            run = 1
    mults.append(run)

    return SteklovResult(
        eigenvalues=eigenvalues,
        coefficients=coefficients,
        truncation=k,
        grid=m,
        converged=converged,
        sigma1=sigma1,
        c_bw=1.0 / sigma1 if sigma1 > 0 else math.inf,
        bw_deficit=1.0 - sigma1,
        multiplicities=tuple(mults),
        dropped=dropped,
    )


def rayleigh_quotient(domain: StarDomain, u: _polar.PolarField) -> float:
    """Dirichlet energy over boundary variance for a harmonic expansion.

    The numerator uses the boundary form int u du/dnu, exact for harmonic
    u; the boundary mean of u is projected out of the denominator.
    """
    frame = boundary_frame(domain, CHECK_GRID)
    w = frame.jacobian * frame.dtheta
    trace = u.value(frame.points)
    dnu = np.einsum("nd,nd->n", u.gradient(frame.points), frame.normals)
    numerator = float(w @ (trace * dnu))
    mean = float(w @ trace) / float(w.sum())
    centered = trace - mean
    denominator = float(w @ (centered * centered))
    if denominator <= 1e-14:
        raise ZeroTrace(f"boundary variance {denominator:.3g} <= 1e-14")
    return numerator / denominator


def trace_inequality_check(domain: StarDomain, components, c_bw: float) -> float:
    """Margin of the vector trace inequality for the supplied field.

    Returns c_bw * total Dirichlet energy - boundary variance of the
    vector trace; components are PolarField entries of u.  The energy is
    a bulk quadrature, so non-harmonic polynomial fields are admissible.
    """
    pts, wb = bulk_grid(domain)
    energy = 0.0
    for comp in components:
        grad = comp.gradient(pts)
        energy += float(wb @ np.einsum("nd,nd->n", grad, grad))
    frame = boundary_frame(domain, CHECK_GRID)
    w = frame.jacobian * frame.dtheta
    variance = 0.0
    for comp in components:
        trace = comp.value(frame.points)
        mean = float(w @ trace) / float(w.sum())
        variance += float(w @ (trace - mean) ** 2)
    return c_bw * energy - variance
