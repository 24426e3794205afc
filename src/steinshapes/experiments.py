"""Experiment orchestration: theorem-direction verification on perturbation
families, scaling sweeps, order-2 expansion validation, and report emission.

The verified statements have non-explicit constants, so every check is a
direction check plus extraction of the empirical constant C_emp: the
extreme of lhs/core over the family that certifies the inequality
family-wide.  For lower-bound statements (lhs >= C * core) that extreme
is the minimum ratio; for upper-bound statements (lhs <= C * core) it is
the maximum.  C_emp tables are summaries of this code's numbers, never
claims about the true constants.

``verify_inequality``, ``family_sweep`` and ``analyze_domain`` read every
solve through one record per domain, ``_Member``, which runs each solve
once, on first read, at these truncations (other solves take no size):

    Stein kernel   k = KERNEL_ORDER refine, m = KERNEL_GRID refine
    Steklov        k = STEKLOV_ORDER + 4 (order + refine - 1), or analyze's
                   pinned order; m = the solver's default at refine 1, else 512 refine
    Z(alpha)       zolotarev_lower, or zolotarev_oracle for "lp-oracle"

A solver gate failing in a member names the member, solver and sizes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

from . import metrics, stein, steklov
from .errors import InputError, IoFailure, NormalizationMissing, NotApplicable, SteinShapesError
from .shapes import (
    BALL_VOLUME,
    QUAD_TOL,
    ShapeSpec,
    StarDomain,
    build_domain,
    check_alpha,
    check_integer,
    geometric_functionals,
    regularity_params,
)

DEFAULT_AMPLITUDES = (0.02, 0.04, 0.06, 0.08, 0.10)
Z_METHODS = ("dictionary", "lp-oracle")

_TINY = 1e-14
IDENTITY_TOL = 1e-9          # |P - 4V + M - d2| gate of prop-combined
SIGMA1_MARGIN = 1e-9         # sigma1 against 1: thm-bw's direction, prop-steklov's members
CHAIN_ALLOWANCE = 1e-6       # thm-bw's proof chain: discrepancy_l2 <= (c_bw - 1) d |V| + this
ISOPERIMETRIC_MARGIN = 1e-9  # prop-steklov's direction fails where P - 2 sqrt(pi |V|) < -this
VOLUME_GATE = 1e-6           # ||Omega| - |B_1|| above which a domain is not unit volume


@dataclass(frozen=True)
class PerturbationFamily:
    """Cosine-mode family R = base_radius + eps cos(k theta), normalized.

    Amplitudes must be strictly increasing; every member must pass domain
    validation (checked on construction of the members).
    """

    k: int = 2
    amplitudes: tuple[float, ...] = DEFAULT_AMPLITUDES
    normalization: str = "volume"    # volume | recenter | both
    alpha: float = 1.0
    base_radius: float = 1.0

    def __post_init__(self):
        check_integer("mode k", self.k, 1)
        if len(self.amplitudes) == 0:
            raise InputError("need at least one amplitude")
        if any(b <= a for a, b in zip(self.amplitudes, self.amplitudes[1:])):
            raise InputError("amplitudes must be strictly increasing")
        if self.normalization not in ("volume", "recenter", "both"):
            raise InputError(f"unknown normalization {self.normalization!r}")
        check_alpha(self.alpha)

    def members(self) -> tuple[StarDomain, ...]:
        shapes = (
            ShapeSpec(
                base_radius=self.base_radius,
                fourier_cos=(0.0,) * (self.k - 1) + (float(eps),),
                normalize_volume=self.normalization in ("volume", "both"),
                recenter=self.normalization in ("recenter", "both"),
                label=f"k={self.k} eps={eps:g}",
            )
            for eps in self.amplitudes
        )
        return tuple(map(build_domain, shapes))


def default_families() -> tuple[PerturbationFamily, PerturbationFamily]:
    return PerturbationFamily(k=2), PerturbationFamily(k=3)


@dataclass(frozen=True)
class InequalityReport:
    theorem: str
    direction: str                      # lower: lhs >= C core; upper: lhs <= C core
    labels: tuple[str, ...]
    lhs: tuple[float, ...]
    core: tuple[float, ...]
    ratios: tuple[float, ...]
    c_emp: float                        # nan when every ratio is degenerate
    passed: bool
    z_method: str
    extras: tuple[tuple[str, tuple[float, ...]], ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExpansionReport:
    functional: str                     # volume | perimeter | momentum | difference
    amplitudes: tuple[float, ...]
    exact: tuple[float, ...]
    predicted: tuple[float, ...]
    residuals: tuple[float, ...]
    slope: float                        # inf when residuals sit at machine zero


@dataclass(frozen=True)
class SweepResult:
    k: int
    amplitudes: tuple[float, ...]
    quantities: tuple[str, ...]
    table: tuple[tuple[float, ...], ...]   # one row per quantity
    slopes: tuple[float, ...]
    fit_residuals: tuple[float, ...]


# ---------------------------------------------------------------------------
# slope fitting


def fit_loglog(eps, values) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(eps).

    Returns (slope, rms residual).  All-zero value lists (residuals of an
    exact formula) report slope = inf; fewer than two usable points give
    slope = nan.
    """
    e = np.asarray(eps, dtype=float)
    v = np.asarray(values, dtype=float)
    usable = (e > 0.0) & np.isfinite(v) & (v > _TINY)
    if not usable.any() or np.abs(v[np.isfinite(v)]).max(initial=0.0) <= 1e-12:
        return math.inf, 0.0
    if usable.sum() < 2:
        return math.nan, math.nan
    x = np.log(e[usable])
    y = np.log(v[usable])
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
    return float(slope), rms


def _ratio(lhs: float, core: float) -> float:
    if core > _TINY:
        return lhs / core
    return math.nan if abs(lhs) <= _TINY else math.inf


def _c_emp(ratios, direction: str) -> float:
    finite = [r for r in ratios if math.isfinite(r)]
    if not finite:
        return math.nan
    return min(finite) if direction == "lower" else max(finite)


# ---------------------------------------------------------------------------
# family members


def _steklov_order(domain: StarDomain) -> int:
    # higher boundary modes push eigenfunction content to higher frequency;
    # scale the truncation with the radius order so the strict gate holds
    return steklov.STEKLOV_ORDER + 4 * domain.order


@dataclass
class _Member:
    """One domain and each solve of it, run once on first read; the only
    caller of the L2 solvers in this module.  A solver's ``SteinShapesError``
    keeps its class and gains the prefix "<label> › <solver>(<sizes>): "."""

    domain: StarDomain
    label: str
    alpha: float = 1.0
    z_method: str = "dictionary"
    refine: int = 1
    steklov_k: int | None = None     # pinned Steklov order (analyze --grid)

    def _solve(self, solver, **params):
        try:
            return solver(self.domain, **params)
        except SteinShapesError as exc:
            shown = ", ".join(f"{k}={v}" for k, v in params.items() if v is not None)
            exc.args = (f"{self.label} › {solver.__name__}({shown}): {exc}",)
            raise

    @cached_property
    def functionals(self):
        return self._solve(geometric_functionals)

    @cached_property
    def deficits(self):
        return self._solve(stein.boundary_deficits)

    @cached_property
    def kernel(self):
        k, m = stein.KERNEL_ORDER * self.refine, stein.KERNEL_GRID * self.refine
        return self._solve(stein.stein_kernel_solve, k=k, m=m)

    @cached_property
    def spectrum(self):
        k = self.steklov_k
        if k is None:
            k = _steklov_order(self.domain) + 4 * (self.refine - 1)
        m = None if self.refine == 1 else 512 * self.refine
        return self._solve(steklov.steklov_spectrum, k=k, m=m)

    @cached_property
    def z(self):
        if self.z_method == "lp-oracle":
            return self._solve(metrics.zolotarev_oracle, alpha=self.alpha)
        return self._solve(metrics.zolotarev_lower, alpha=self.alpha)

    @cached_property
    def fraenkel(self):
        return self._solve(metrics.fraenkel_asymmetry, n=256, search=False)


# ---------------------------------------------------------------------------
# theorem verification: a row reads one member and returns (lhs, core,
# extras, notes); any note fails the check.  Its locals fix the order of the
# solves, and so which gate fails first: a returned tuple runs left to right.


def _thm_main(m: _Member):
    deficits = m.deficits
    return m.z.lower_bound, deficits.osc_l1, {"d1": deficits.d1}, []


def _thm_kernel(m: _Member):
    core = m.kernel.discrepancy_l1
    return m.z.lower_bound, core, {}, []


def _thm_bw(m: _Member):
    spec, d_vol = m.spectrum, 2.0 * m.functionals.volume
    z = m.z.lower_bound
    slack = (spec.c_bw - 1.0) * d_vol + CHAIN_ALLOWANCE - m.kernel.discrepancy_l2
    notes = []
    if spec.sigma1 > 1.0 + SIGMA1_MARGIN:
        notes.append(f"{m.label}: sigma1 = {spec.sigma1} violates the bound")
    if slack < 0.0:
        notes.append(f"{m.label}: proof-chain inequality fails by {-slack:.3g}")
    extras = {"sigma1": spec.sigma1, "chain_slack": slack}
    return spec.c_bw - 1.0, z * z / d_vol, extras, notes


def _prop_steklov(m: _Member):
    fun = m.functionals
    lhs = fun.perimeter - 2.0 * math.sqrt(math.pi * fun.volume)
    z = m.z.lower_bound
    notes = [f"{m.label}: isoperimetric direction fails"] if lhs < -ISOPERIMETRIC_MARGIN else []
    return lhs, z * z, {"sigma1": m.spectrum.sigma1}, notes


def _prop_combined(m: _Member):
    fun, d2 = m.functionals, m.deficits.d2
    lhs = (fun.perimeter - 2.0 * math.pi) + (fun.momentum - 2.0 * math.pi)
    z = m.z.lower_bound
    residual = abs(lhs - d2)
    notes = []
    if residual > IDENTITY_TOL:
        notes.append(f"{m.label}: combined identity off by {residual:.3g}")
    if lhs < -1e-12:
        notes.append(f"{m.label}: combined deficit negative")
    return lhs, z * z, {"identity_residual": residual}, notes


def _unit_volume(fun, what: str) -> None:
    if abs(fun.volume - BALL_VOLUME) > VOLUME_GATE:
        raise NormalizationMissing(f"{what} has volume {fun.volume:.8f} != |B_1|")


# theorem id -> (direction, row, normalizations every member must meet first)
_THEOREMS = {
    "thm-main": ("upper", _thm_main, ()),
    "thm-kernel": ("upper", _thm_kernel, (stein.require_centered,)),
    "thm-bw": ("lower", _thm_bw, (_unit_volume, stein.require_centered)),
    "prop-steklov": ("lower", _prop_steklov, (stein.require_centered,)),
    "prop-combined": ("lower", _prop_combined, (_unit_volume,)),
}
THEOREMS = tuple(_THEOREMS)


def _members_and_alpha(family, alpha: float | None):
    check_alpha(1.0 if alpha is None else alpha)
    if isinstance(family, PerturbationFamily):
        if alpha is not None and alpha != family.alpha:
            raise InputError(f"alpha {alpha} conflicts with the family's alpha {family.alpha}")
        return family.members(), family.alpha
    members = tuple(family)
    if not members or not all(isinstance(m, StarDomain) for m in members):
        raise TypeError("family must be a PerturbationFamily or StarDomain sequence")
    return members, (1.0 if alpha is None else alpha)


def _require_normalization(theorem: str, members) -> None:
    for require in _THEOREMS[theorem][2]:
        for member in members:
            require(member.functionals, f"{theorem}: {member.label}")


def verify_inequality(
    family,
    theorem: str,
    alpha: float | None = None,
    z_method: str = "dictionary",
    refine: int = 1,
) -> InequalityReport:
    """Direction check and empirical-constant extraction for one statement.

    theorem ids: thm-main (Z vs boundary oscillation), thm-kernel (Z vs
    kernel discrepancy), thm-bw (spectral deficit vs Z^2, with the proof
    chain on the kernel discrepancy), prop-steklov (perimeter deficit
    over the equal-volume ball for members with sigma1 >= 1),
    prop-combined (combined isoperimetric deficits vs Z^2, with the
    exact identity against D2).

    ``refine`` scales collocation and truncation sizes; it exists so the
    stability of C_emp under refinement is itself testable.  With
    z_method "lp-oracle" the extras also carry each member's
    discretization slack under "z_error_bound".  An ``alpha`` that
    differs from a PerturbationFamily's own is an input error.
    """
    if theorem not in _THEOREMS:
        raise InputError(f"unknown theorem id {theorem!r}")
    if z_method not in Z_METHODS:
        raise InputError(f"unknown Z method {z_method!r}")
    check_integer("refine", refine, 1)
    domains, alpha = _members_and_alpha(family, alpha)
    members = [
        _Member(dom, dom.label or f"domain-{i}", alpha, z_method, refine)
        for i, dom in enumerate(domains)
    ]
    _require_normalization(theorem, members)
    if theorem == "prop-steklov":
        members = [m for m in members if m.spectrum.sigma1 >= 1.0 - SIGMA1_MARGIN]
        if not members:
            raise NotApplicable(
                "no family member has sigma1 >= 1; the constrained perimeter "
                "bound does not apply"
            )

    direction, row, _ = _THEOREMS[theorem]
    lhs, core, more, member_notes = zip(*map(row, members))
    extras = {}
    if z_method == "lp-oracle":
        extras["z_error_bound"] = tuple(m.z.error_bound for m in members)
    extras.update((key, tuple(x[key] for x in more)) for key in more[0])
    notes = [note for group in member_notes for note in group]
    ratios = tuple(_ratio(l, c) for l, c in zip(lhs, core))
    if any(math.isinf(r) for r in ratios):
        notes.append("a member has positive lhs against vanishing core")
    if direction == "upper" and any(l < -_TINY or c < -_TINY for l, c in zip(lhs, core)):
        notes.append("negative quantity where a nonnegative one was proven")

    return InequalityReport(
        theorem=theorem,
        direction=direction,
        labels=tuple(m.label for m in members),
        lhs=lhs,
        core=core,
        ratios=ratios,
        c_emp=_c_emp(ratios, direction),
        passed=not notes,
        z_method=z_method,
        extras=tuple(extras.items()),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# sweeps


_QUANTITIES = {
    "one_minus_sigma1": lambda m: 1.0 - m.spectrum.sigma1,
    "d1": lambda m: m.deficits.d1,
    "d2": lambda m: m.deficits.d2,
    "osc_l1": lambda m: m.deficits.osc_l1,
    "z_lower": lambda m: m.z.lower_bound,
    "discrepancy_l1": lambda m: m.kernel.discrepancy_l1,
    "discrepancy_l2": lambda m: m.kernel.discrepancy_l2,
    "deficit_perimeter": lambda m: m.functionals.deficit_perimeter,
    "deficit_momentum": lambda m: m.functionals.deficit_momentum,
    "fraenkel": lambda m: m.fraenkel.value,
}
SWEEP_QUANTITIES = tuple(_QUANTITIES)


def family_sweep(family: PerturbationFamily, quantities=("one_minus_sigma1", "d2")) -> SweepResult:
    """Per-amplitude values of the selected quantities with log-log slopes."""
    if len(family.amplitudes) < 4:
        raise InputError("slope fits need >= 4 amplitudes")
    quantities = tuple(quantities)
    for name in quantities:
        if name not in _QUANTITIES:
            raise InputError(f"unknown sweep quantity {name!r}")
    members = [_Member(dom, dom.label, family.alpha) for dom in family.members()]
    table = tuple(tuple(_QUANTITIES[name](m) for m in members) for name in quantities)
    fits = [fit_loglog(family.amplitudes, row) for row in table]
    return SweepResult(
        k=family.k,
        amplitudes=tuple(family.amplitudes),
        quantities=quantities,
        table=table,
        slopes=tuple(slope for slope, _ in fits),
        fit_residuals=tuple(rms for _, rms in fits),
    )


# ---------------------------------------------------------------------------
# order-2 expansion validation


def expansion_validator(k: int, amplitudes) -> tuple[ExpansionReport, ...]:
    """Order-2 predictions against exact quadrature for the volume-preserving
    cosine family R = 1 + e cos(k theta) + c0, c0 = -e^2 / 4.

    The c0 shift makes int eps = -1/2 int eps^2 hold exactly, which is the
    order-2 volume-preservation constraint.  The d = 2 volume formula is
    itself exact, so its residuals sit at machine zero and the slope is
    reported as inf.
    """
    check_integer("mode k", k, 1)
    eps = tuple(float(e) for e in amplitudes)
    if not eps:
        raise InputError("need at least one amplitude")
    if not all(0.0 <= e <= 0.1 for e in eps):
        raise InputError("amplitudes must lie in [0, 0.1]")

    exact, predicted = [], []      # one (volume, perimeter, momentum, difference) per eps
    for e in eps:
        c0 = -e * e / 4.0
        fun = geometric_functionals(StarDomain(1.0 + c0, (0.0,) * (k - 1) + (e,)))
        exact.append((fun.volume, fun.perimeter, fun.momentum, fun.perimeter - fun.momentum))
        i1 = 2.0 * math.pi * c0
        i2 = math.pi * e * e + 2.0 * math.pi * c0 * c0
        ig = math.pi * e * e * k * k
        vol2 = math.pi + i1 + 0.5 * i2
        per2 = 2.0 * math.pi + i1 + 0.5 * ig
        mom2 = 2.0 * math.pi + 3.0 * i1 + 3.0 * i2 + 0.5 * ig
        predicted.append((vol2, per2, mom2, per2 - mom2))

    reports = []
    names = ("volume", "perimeter", "momentum", "difference")
    for name, x, p in zip(names, zip(*exact), zip(*predicted)):
        res = tuple(abs(a - b) for a, b in zip(x, p))
        slope, _ = fit_loglog(eps, res)
        reports.append(
            ExpansionReport(
                functional=name, amplitudes=eps, exact=x, predicted=p, residuals=res, slope=slope
            )
        )
    return tuple(reports)


# ---------------------------------------------------------------------------
# analysis assembly and report emission


def analyze_domain(spec, alpha: float = 1.0, steklov_order: int = steklov.STEKLOV_ORDER) -> dict:
    """Full single-domain analysis as a plain report dictionary."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    domain = spec if isinstance(spec, StarDomain) else build_domain(spec)
    timings["build"] = time.perf_counter() - t0
    member = _Member(domain, domain.label or "domain", alpha, steklov_k=steklov_order)

    t0 = time.perf_counter()
    fun = member.functionals
    reg = regularity_params(domain, alpha=alpha)
    deficits = member.deficits
    timings["functionals"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spectrum = member.spectrum
    timings["steklov"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    z = member.z
    timings["zolotarev"] = time.perf_counter() - t0

    return {
        "schema_version": 1,
        "domain_spec": {
            "dimension": 2,
            "base_radius": domain.base_radius,
            "fourier_cos": list(domain.cos_coeffs),
            "fourier_sin": list(domain.sin_coeffs),
            "label": domain.label,
        },
        "functionals": {
            "volume": fun.volume,
            "perimeter": fun.perimeter,
            "momentum": fun.momentum,
            "barycenter": list(fun.barycenter),
            "deficit_perimeter": fun.deficit_perimeter,
            "deficit_momentum": fun.deficit_momentum,
            "kappa": reg.kappa,
            "lambda_est": reg.lambda_est,
            "convex": reg.convex,
        },
        "deficits": {
            "d1": deficits.d1,
            "d2": deficits.d2,
            "osc_l1": deficits.osc_l1,
            "osc_l2": deficits.osc_l2,
            "identity_residual": deficits.identity_residual,
        },
        "steklov": {
            "eigenvalues": list(spectrum.eigenvalues),
            "sigma1": spectrum.sigma1,
            "c_bw": spectrum.c_bw,
            "bw_deficit": spectrum.bw_deficit,
            "converged": spectrum.converged,
        },
        "zolotarev": {
            "alpha": z.alpha,
            "lower_bound": z.lower_bound,
            "witness": z.witness,
            "method": z.method,
        },
        "inequality_reports": [],
        "seeds": {},
        "tolerances": {
            "quadrature": QUAD_TOL,
            "deficit_quadrature": stein.DEFICIT_TOL,
            "identity": IDENTITY_TOL,
            "steklov_convergence": steklov.CONVERGENCE_TOL,
        },
        "timings": timings,
    }


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no literal for these; a tagged string keeps the file valid
        return format_float(obj)
    return obj


def emit_report(results, format: str = "json", path=None) -> str:
    """Serialize results deterministically; writes to ``path`` if given.

    json: any report object, two-space indented (dataclasses serialize in
    field order, floats as their shortest round-trip repr, non-finite
    floats as the strings "inf", "-inf" and "nan").  csv: a SweepResult,
    one row per (amplitude, quantity), floats with 17 significant digits.
    """
    if results is None or (isinstance(results, (list, tuple, dict)) and not results):
        raise IoFailure("refusing to emit an empty report")
    if format == "json":
        text = json.dumps(_jsonable(results), indent=2, allow_nan=False) + "\n"
    elif format == "csv":
        if not isinstance(results, SweepResult):
            raise IoFailure("csv emission needs a SweepResult")
        lines = ["epsilon,quantity,value,slope"]
        for name, row, slope in zip(results.quantities, results.table, results.slopes):
            for eps, value in zip(results.amplitudes, row):
                lines.append(
                    f"{format_float(eps)},{name},{format_float(value)},"
                    f"{format_float(slope)}"
                )
        text = "\n".join(lines) + "\n"
    else:
        raise IoFailure(f"unknown report format {format!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoFailure(f"cannot write report to {path}: {exc}") from exc
    return text


def format_float(value: float) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return format(float(value), ".17g")
