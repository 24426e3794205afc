"""Exception taxonomy.

Every failure the package reports goes through one of these classes, and
the class alone sorts it: an ``InputError`` means the caller's input or
config is at fault (CLI exit 3); any other ``SteinShapesError`` is a solver
or geometry gate (CLI exit 2).  ``InputError`` is also a ``ValueError``, so
argument checks keep the builtin contract.  The shared checks of outside
values are ``check_alpha``, ``check_integer`` and ``read_config`` in ``shapes``.
An off-center or wrong-volume domain where a computation needs a normalized
one is an input error on every route: ``NormalizationMissing``, never a gate.
Every refinement that does not settle is one class, ``NoConvergence``.
"""

from __future__ import annotations


class SteinShapesError(Exception):
    """Base class for all package errors."""


class InputError(SteinShapesError, ValueError):
    """The caller's argument or config is invalid or out of scope."""


# ---------------------------------------------------------------------------
# geometry / domain construction


class NonPositiveRadius(InputError):
    """Radius function takes a value <= 0 somewhere on the circle, or its
    positivity cannot be certified."""


class NotStarShaped(InputError):
    """kappa = min R / sqrt(R^2 + R'^2) cannot be certified positive.  Once
    R > 0 is certified this happens only when R^2 + R'^2 overflows."""


class GridTooCoarse(InputError):
    """Requested quadrature or raster grid cannot resolve the shape."""


class NoConvergence(SteinShapesError):
    """Quadrature doubling at its grid cap, or sigma_1 moving under k -> k + 4."""


class RecenterFailed(SteinShapesError):
    """Barycenter shift left the star-shaped class or did not contract."""


# ---------------------------------------------------------------------------
# PDE solvers


class IllConditioned(SteinShapesError):
    """Collocation or Ritz system condition number above the gate."""


class NotElliptic(SteinShapesError):
    """Interior operator loses uniform ellipticity on the probe grid."""


class ResidualTooLarge(SteinShapesError):
    """Post-solve residual exceeds the acceptance gate."""


# ---------------------------------------------------------------------------
# Stein kernel / spectra


class IdentityViolated(SteinShapesError):
    """Integration-by-parts check on the test panel failed."""


class DegenerateBasis(SteinShapesError):
    """Mass matrix lost more than half its basis to rank truncation."""


# ---------------------------------------------------------------------------
# stochastics / optimization


class SolverStall(SteinShapesError):
    """LP or optimizer hit an iteration cap without an optimum."""


class ReflectionFailed(SteinShapesError):
    """Pull-back root for a reflected path step has no real solution."""


# ---------------------------------------------------------------------------
# reporting / IO


class NormalizationMissing(InputError):
    """Operation requires a volume- or barycenter-normalized domain."""


class NotApplicable(InputError):
    """Requested check is outside its validity regime."""


class IoFailure(InputError):
    """Config or report file could not be read, parsed, or written."""
