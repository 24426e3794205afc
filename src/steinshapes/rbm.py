"""Brownian motion in the unit disk with oblique reflection along the
transported boundary normal of a star-shaped domain.

The stepper is Euler-Maruyama with exact pull-back reflection: when a
step exits the disk, the particle marches back along the transported
normal at its angular position until it sits on the circle again (the
positive root of a quadratic, closed-form on the disk).  Containment
|X| <= 1 holds exactly after every step.

The invariant measure of this process is the adjoint-stationary measure
of the oblique boundary problem, so time averages of a forcing h (a
``PolarField`` or a callable on points) estimate the same compatibility
constant the spectral solver computes; ``feynman_kac_check`` compares a
solution's c_star with the time average of its own data h.  For the ball
the reflection is radial and the invariant measure is uniform, which the
chi-square radial test exercises.  Its p-value is the closed-form tail of
a chi-square law with an odd number of degrees of freedom (erfc plus a
finite sum, Abramowitz & Stegun 26.4.4), so the module needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _polar
from .errors import InputError, ReflectionFailed, ResidualTooLarge
from .oblique import RESIDUAL_GATE, ObliqueSolution
from .shapes import StarDomain, check_integer

BATCHES = 20
CHI2_BINS = 16
CHI2_SPACING = 0.5        # time units between retained path points
EXACT_GAP = 1e-13         # |gap| up to which a zero-error estimate reads 0 sigma, not inf


@dataclass(frozen=True)
class PathConfig:
    dt: float = 5e-4
    horizon: float = 50.0
    burn_in: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.dt, self.horizon, self.burn_in)):
            raise InputError("dt, horizon and burn-in must be finite")
        check_integer("seed", self.seed, 0)
        if not 0.0 < self.dt <= 1e-3:
            raise InputError(f"dt must lie in (0, 1e-3], got {self.dt}")
        if self.burn_in < 1.0:
            raise InputError(f"burn-in must be >= 1, got {self.burn_in}")
        if self.horizon <= self.burn_in:
            raise InputError("horizon must exceed the burn-in")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def n_burn(self) -> int:
        return int(round(self.burn_in / self.dt))


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
    """Full trajectory (n_steps + 1, 2) from the origin and the reflection
    count.

    ``increments`` overrides the Gaussian steps for diagnostics (e.g. a
    zero-noise run); shape (n_steps, 2), finite.
    """
    n = config.n_steps
    if increments is None:
        rng = np.random.default_rng(config.seed)
        increments = math.sqrt(config.dt) * rng.standard_normal((n, 2))
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n, 2):
            raise InputError(f"increments must have shape ({n}, 2)")
        if not np.isfinite(increments).all():
            raise InputError("increments must be finite")
    a, b, _ = domain._packed
    xs, ys, n_reflect, fail = _kernels.reflect_path(
        0.0, 0.0, increments[:, 0], increments[:, 1], domain.base_radius, a, b
    )
    if fail >= 0:
        raise ReflectionFailed(
            f"no admissible pull-back root at step {fail}; "
            "the domain is too close to losing star-shapedness"
        )
    return np.stack([xs, ys], axis=1), int(n_reflect)


def _evaluate_forcing(h, points: np.ndarray) -> np.ndarray:
    if isinstance(h, _polar.PolarField):
        return h.value(_polar.PolarGrid.at(points))
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
    domain: StarDomain, solution: ObliqueSolution, config: PathConfig
) -> FKReport:
    """Monte Carlo occupation mean of the solution's data h against its c_star.

    Both numbers estimate the adjoint-stationary average of h for the
    obliquely reflected process, by independent routes.
    """
    if not solution.reliable or solution.boundary_residual > RESIDUAL_GATE:
        raise ResidualTooLarge(
            f"solution residual {solution.boundary_residual:.3g} outside gate"
        )
    estimate = stationary_mean(domain, solution.h, config)
    gap = estimate.mean - solution.c_star
    if estimate.standard_error > 0.0:
        sigma = abs(gap) / estimate.standard_error
    else:
        sigma = 0.0 if abs(gap) <= EXACT_GAP else math.inf
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
    return stat, _chi2_tail(stat), CHI2_BINS - 1


def _chi2_tail(x: float) -> float:
    """P(chi-square > x) at CHI2_BINS - 1 = 15 = 2n + 1 degrees of freedom:

        erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2) sum_{j=1..n} x^(j-1) / (2j-1)!!

    (Abramowitz & Stegun 26.4.4).
    """
    term = total = 1.0
    for j in range(1, (CHI2_BINS - 1) // 2):
        term *= x / (2 * j + 1)
        total += term
    density = math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)
    return math.erfc(math.sqrt(0.5 * x)) + density * total
