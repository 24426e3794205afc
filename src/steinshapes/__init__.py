"""Numerical laboratory for shape comparison on star-shaped planar domains:
geometric functionals and deficits, an oblique-boundary spectral solver,
Stein kernels, Steklov spectra, Hoelder shape distances, and reflected
Brownian motion cross-checks."""

from ._kernels import backend
from .errors import (
    DegenerateBasis,
    GridTooCoarse,
    IdentityViolated,
    IllConditioned,
    InputError,
    IoFailure,
    NoConvergence,
    NonPositiveRadius,
    NormalizationMissing,
    NotApplicable,
    NotElliptic,
    NotStarShaped,
    RecenterFailed,
    ReflectionFailed,
    ResidualTooLarge,
    SolverStall,
    SteinShapesError,
    ZeroTrace,
)
from .experiments import (
    SWEEP_QUANTITIES,
    THEOREMS,
    ExpansionReport,
    InequalityReport,
    PerturbationFamily,
    SweepResult,
    analyze_domain,
    emit_report,
    expansion_validator,
    family_sweep,
    fit_loglog,
    verify_inequality,
)
from .metrics import (
    FraenkelResult,
    OscillationIndex,
    ZolotarevEstimate,
    fraenkel_asymmetry,
    fraenkel_polar_oracle,
    oscillation_index,
    zolotarev_lower,
    zolotarev_lp,
    zolotarev_oracle,
    zolotarev_tv,
)
from .oblique import (
    ObliqueSolution,
    SchauderReport,
    divergence_functional,
    ellipticity_margin,
    parse_rhs,
    rhs_constant,
    rhs_harmonic,
    rhs_sq_radius,
    rhs_x1,
    rhs_x2,
    schauder_probe,
    solve_oblique,
    solve_oblique_kernel_variant,
)
from .rbm import (
    FKReport,
    OccupationEstimate,
    PathConfig,
    feynman_kac_check,
    path,
    radial_uniformity_chi2,
    stationary_mean,
)
from .shapes import (
    BoundaryFrame,
    GeometricFunctionals,
    RegularityParams,
    ShapeSpec,
    StarDomain,
    boundary_frame,
    build_domain,
    bulk_grid,
    bulk_map,
    bulk_map_inverse,
    circle_grid,
    disk_grid,
    doubling_quadrature,
    geometric_functionals,
    holder_norm,
    load_shape_spec,
    matrix_holder_seminorm,
    normalize,
    parse_shape_spec,
    regularity_params,
)
from .stein import (
    DeficitReport,
    SteinKernelResult,
    boundary_deficits,
    stein_discrepancy,
    stein_kernel_solve,
)
from .steklov import (
    SteklovResult,
    rayleigh_quotient,
    steklov_spectrum,
    trace_inequality_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
