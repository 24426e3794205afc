"""Brownian motion in the unit disk with oblique reflection along the
transported boundary normal of a star-shaped domain.

The stepper is Euler-Maruyama with exact pull-back reflection: when a
step exits the disk, the particle marches back along the transported
normal at its angular position until it sits on the circle again (the
positive root of a quadratic, closed-form on the disk).  Containment
|X| <= 1 holds exactly after every step.

The invariant measure of this process is the adjoint-stationary measure
of the oblique boundary problem, so time averages of a forcing h
estimate the same compatibility constant the spectral solver computes;
``feynman_kac_check`` exposes that comparison.  For the ball the
reflection is radial and the invariant measure is uniform, which the
chi-square radial test exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from . import _kernels
from .errors import InputError, ReflectionFailed, ResidualTooLarge
from .oblique import ObliqueSolution, RhsExpansion
from .shapes import StarDomain, _validate

BATCHES = 20
CHI2_BINS = 16
CHI2_SPACING = 0.5        # time units between retained path points


@dataclass(frozen=True)
class PathConfig:
    dt: float = 5e-4
    horizon: float = 50.0
    burn_in: float = 1.0
    seed: int = 0
    start: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.dt <= 1e-3:
            raise InputError(f"dt must lie in (0, 1e-3], got {self.dt}")
        if self.burn_in < 1.0:
            raise InputError(f"burn-in must be >= 1, got {self.burn_in}")
        if self.horizon <= self.burn_in:
            raise InputError("horizon must exceed the burn-in")
        if math.hypot(*self.start) >= 1.0:
            raise InputError("start point must lie strictly inside the disk")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def n_burn(self) -> int:
        return int(round(self.burn_in / self.dt))


@dataclass(frozen=True)
class PathStats:
    endpoint: tuple[float, float]
    steps: int
    reflections: int
    reflected_fraction: float


@dataclass(frozen=True)
class OccupationEstimate:
    mean: float
    standard_error: float   # batch means; exactly 0 for constant forcing
    reflections: int
    reflected_fraction: float
    batches: int
    samples: int


@dataclass(frozen=True)
class FKReport:
    estimate: OccupationEstimate
    c_star: float
    gap: float
    gap_sigma: float        # |gap| in standard-error units
    mean_domain_h: float


def path(
    domain: StarDomain, config: PathConfig, increments: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Full trajectory (n_steps + 1, 2) and the reflection count.

    ``increments`` overrides the Gaussian steps for diagnostics (e.g. a
    zero-noise run); shape (n_steps, 2).
    """
    _validate(domain)
    n = config.n_steps
    if increments is None:
        rng = np.random.default_rng(config.seed)
        increments = math.sqrt(config.dt) * rng.standard_normal((n, 2))
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n, 2):
            raise InputError(f"increments must have shape ({n}, 2)")
    a, b, _ = domain._packed
    xs, ys, n_reflect, fail = _kernels.reflect_path(
        float(config.start[0]),
        float(config.start[1]),
        np.ascontiguousarray(increments[:, 0]),
        np.ascontiguousarray(increments[:, 1]),
        float(domain.base_radius),
        np.ascontiguousarray(a),
        np.ascontiguousarray(b),
    )
    if fail >= 0:
        raise ReflectionFailed(
            f"no admissible pull-back root at step {fail}; "
            "the domain is too close to losing star-shapedness"
        )
    return np.stack([xs, ys], axis=1), int(n_reflect)


def simulate(domain: StarDomain, config: PathConfig) -> PathStats:
    positions, n_reflect = path(domain, config)
    return PathStats(
        endpoint=(float(positions[-1, 0]), float(positions[-1, 1])),
        steps=config.n_steps,
        reflections=n_reflect,
        reflected_fraction=n_reflect / config.n_steps,
    )


def _evaluate_forcing(h, points: np.ndarray) -> np.ndarray:
    if isinstance(h, RhsExpansion):
        return h.evaluate(points)
    return np.asarray(h(points), dtype=float)


def stationary_mean(
    domain: StarDomain, h, config: PathConfig
) -> OccupationEstimate:
    """Time average of h along the path after burn-in, with batch-means
    standard error over 20 contiguous batches."""
    positions, n_reflect = path(domain, config)
    samples = _evaluate_forcing(h, positions[config.n_burn + 1 :])
    n = samples.size
    if n < BATCHES:
        raise InputError(f"horizon leaves {n} samples, need >= {BATCHES}")
    width = n // BATCHES
    trimmed = samples[: width * BATCHES].reshape(BATCHES, width)
    batch_means = trimmed.mean(axis=1)
    se = float(batch_means.std(ddof=1) / math.sqrt(BATCHES))
    return OccupationEstimate(
        mean=float(batch_means.mean()),
        standard_error=se,
        reflections=n_reflect,
        reflected_fraction=n_reflect / config.n_steps,
        batches=BATCHES,
        samples=n,
    )


def feynman_kac_check(
    domain: StarDomain,
    h: RhsExpansion,
    solution: ObliqueSolution,
    config: PathConfig,
) -> FKReport:
    """Monte Carlo occupation mean of h against the solver's c_star.

    Both numbers estimate the adjoint-stationary average of h for the
    obliquely reflected process, by independent routes.
    """
    if not solution.reliable or solution.boundary_residual > 1e-6:
        raise ResidualTooLarge(
            f"solution residual {solution.boundary_residual:.3g} outside gate"
        )
    estimate = stationary_mean(domain, h, config)
    gap = estimate.mean - solution.c_star
    if estimate.standard_error > 0.0:
        sigma = abs(gap) / estimate.standard_error
    else:
        sigma = 0.0 if abs(gap) <= 1e-13 else math.inf
    return FKReport(
        estimate=estimate,
        c_star=solution.c_star,
        gap=float(gap),
        gap_sigma=float(sigma),
        mean_domain_h=solution.mean_domain_h,
    )


def radial_uniformity_chi2(
    domain: StarDomain, config: PathConfig
) -> tuple[float, float, int]:
    """Chi-square test of r^2 ~ Uniform[0, 1] over CHI2_BINS bins on
    subsampled path points.

    Subsampling every CHI2_SPACING time units keeps the retained points
    nearly independent (the disk relaxation time is order one).
    Returns (statistic, p_value, dof).  Meaningful for the ball, where
    the stationary law is uniform.
    """
    positions, _ = path(domain, config)
    stride = max(1, int(round(CHI2_SPACING / config.dt)))
    kept = positions[config.n_burn + 1 :: stride]
    r_sq = kept[:, 0] ** 2 + kept[:, 1] ** 2
    if r_sq.size < 5 * CHI2_BINS:
        raise InputError(f"{r_sq.size} subsamples is too few for {CHI2_BINS} bins")
    counts, _ = np.histogram(r_sq, bins=CHI2_BINS, range=(0.0, 1.0))
    expected = r_sq.size / CHI2_BINS
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = CHI2_BINS - 1
    return stat, float(chdtrc(dof, stat)), dof
