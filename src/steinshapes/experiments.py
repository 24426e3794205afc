"""Experiment orchestration: theorem-direction verification on perturbation
families, scaling sweeps, order-2 expansion validation, and report emission.

The verified statements have non-explicit constants, so every check is a
direction check plus extraction of the empirical constant C_emp: the
extreme of lhs/core over the family that certifies the inequality
family-wide.  For lower-bound statements (lhs >= C * core) that extreme
is the minimum ratio; for upper-bound statements (lhs <= C * core) it is
the maximum.  C_emp tables are summaries of this code's numbers, never
claims about the true constants.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import metrics, stein, steklov
from .errors import InputError, IoFailure, NormalizationMissing, NotApplicable
from .shapes import (
    BALL_VOLUME,
    QUAD_TOL,
    StarDomain,
    build_domain,
    geometric_functionals,
    regularity_params,
)

DEFAULT_AMPLITUDES = (0.02, 0.04, 0.06, 0.08, 0.10)
THEOREMS = ("thm-main", "thm-kernel", "thm-bw", "prop-steklov", "prop-combined")
SWEEP_QUANTITIES = (
    "one_minus_sigma1",
    "d1",
    "d2",
    "osc_l1",
    "z_lower",
    "discrepancy_l1",
    "discrepancy_l2",
    "deficit_perimeter",
    "deficit_momentum",
    "fraenkel",
)

_TINY = 1e-14
IDENTITY_TOL = 1e-9       # |P - 4V + M - d2| gate of prop-combined


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
        if self.k < 1:
            raise InputError(f"mode k must be >= 1, got {self.k}")
        if len(self.amplitudes) == 0:
            raise InputError("need at least one amplitude")
        if any(b <= a for a, b in zip(self.amplitudes, self.amplitudes[1:])):
            raise InputError("amplitudes must be strictly increasing")
        if self.normalization not in ("volume", "recenter", "both"):
            raise InputError(f"unknown normalization {self.normalization!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise InputError(f"alpha must lie in (0, 1], got {self.alpha}")

    def members(self) -> tuple[StarDomain, ...]:
        out = []
        for eps in self.amplitudes:
            spec = {
                "base_radius": self.base_radius,
                "fourier_cos": (0.0,) * (self.k - 1) + (float(eps),),
                "normalize_volume": self.normalization in ("volume", "both"),
                "recenter": self.normalization in ("recenter", "both"),
                "label": f"k={self.k} eps={eps:g}",
            }
            out.append(build_domain(spec))
        return tuple(out)


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
# theorem verification


def _members_and_alpha(family, alpha: float | None):
    if isinstance(family, PerturbationFamily):
        return family.members(), family.alpha, family.normalization
    members = tuple(family)
    if not members or not all(isinstance(m, StarDomain) for m in members):
        raise TypeError("family must be a PerturbationFamily or StarDomain sequence")
    return members, (1.0 if alpha is None else alpha), None


def _require_normalization(theorem: str, members, declared: str | None) -> None:
    if theorem in ("thm-bw", "prop-combined"):
        if declared is not None and declared not in ("volume", "both"):
            raise NormalizationMissing(f"{theorem} needs volume normalization")
        for dom in members:
            fun = geometric_functionals(dom)
            if abs(fun.volume - BALL_VOLUME) > 1e-6:
                raise NormalizationMissing(
                    f"{theorem}: member volume {fun.volume:.8f} != |B_1|"
                )
    if theorem in ("thm-kernel", "prop-steklov"):
        if declared is not None and declared not in ("recenter", "both", "volume"):
            raise NormalizationMissing(f"{theorem} needs a centered family")
        for dom in members:
            fun = geometric_functionals(dom)
            if np.hypot(*fun.barycenter) * fun.perimeter > 1e-6:
                raise NormalizationMissing(
                    f"{theorem}: member boundary barycenter is off origin"
                )


def _steklov_order(domain: StarDomain) -> int:
    # higher boundary modes push eigenfunction content to higher frequency;
    # scale the truncation with the radius order so the strict gate holds
    return 16 + 4 * domain.order


def _z_lower(domain: StarDomain, alpha: float, method: str) -> float:
    if method == "dictionary":
        return metrics.zolotarev_lower(domain, alpha).lower_bound
    if method == "lp-oracle":
        return metrics.zolotarev_oracle(domain, alpha).lower_bound
    raise InputError(f"unknown Z method {method!r}")


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
    stability of C_emp under refinement is itself testable.
    """
    if theorem not in THEOREMS:
        raise InputError(f"unknown theorem id {theorem!r}")
    members, alpha, declared = _members_and_alpha(family, alpha)
    _require_normalization(theorem, members, declared)
    labels = tuple(dom.label or f"domain-{i}" for i, dom in enumerate(members))

    lhs: list[float] = []
    core: list[float] = []
    extras: dict[str, list[float]] = {}
    notes: list[str] = []
    ok = True

    if theorem == "thm-main":
        direction = "upper"
        for dom in members:
            deficits = stein.boundary_deficits(dom)
            lhs.append(_z_lower(dom, alpha, z_method))
            core.append(deficits.osc_l1)
            extras.setdefault("d1", []).append(deficits.d1)

    elif theorem == "thm-kernel":
        direction = "upper"
        for dom in members:
            result = stein.stein_kernel_solve(dom, k=24 * refine, m=1024 * refine)
            lhs.append(_z_lower(dom, alpha, z_method))
            core.append(result.discrepancy_l1)

    elif theorem == "thm-bw":
        direction = "lower"
        for dom in members:
            spec = steklov.steklov_spectrum(
                dom,
                k=_steklov_order(dom) + 4 * (refine - 1),
                m=None if refine == 1 else 512 * refine,
            )
            fun = geometric_functionals(dom)
            z = _z_lower(dom, alpha, z_method)
            d_vol = 2.0 * fun.volume
            lhs.append(spec.c_bw - 1.0)
            core.append(z * z / d_vol)
            extras.setdefault("sigma1", []).append(spec.sigma1)
            if spec.sigma1 > 1.0 + 1e-9:
                ok = False
                notes.append(f"{dom.label}: sigma1 = {spec.sigma1} violates the bound")
            kernel = stein.stein_kernel_solve(dom, k=24 * refine, m=1024 * refine)
            slack = (spec.c_bw - 1.0) * d_vol + 1e-6 - kernel.discrepancy_l2
            extras.setdefault("chain_slack", []).append(slack)
            if slack < 0.0:
                ok = False
                notes.append(f"{dom.label}: proof-chain inequality fails by {-slack:.3g}")

    elif theorem == "prop-steklov":
        direction = "lower"
        kept = []
        for dom in members:
            sigma1 = steklov.steklov_spectrum(
                dom,
                k=_steklov_order(dom) + 4 * (refine - 1),
                m=None if refine == 1 else 512 * refine,
            ).sigma1
            if sigma1 >= 1.0 - 1e-9:
                kept.append((dom, sigma1))
        if not kept:
            raise NotApplicable(
                "no family member has sigma1 >= 1; the constrained perimeter "
                "bound does not apply"
            )
        labels = tuple(dom.label or "member" for dom, _ in kept)
        for dom, sigma1 in kept:
            fun = geometric_functionals(dom)
            ball_perimeter = 2.0 * math.sqrt(math.pi * fun.volume)
            z = _z_lower(dom, alpha, z_method)
            lhs.append(fun.perimeter - ball_perimeter)
            core.append(z * z)
            extras.setdefault("sigma1", []).append(sigma1)
            if lhs[-1] < -1e-9:
                ok = False
                notes.append(f"{dom.label}: isoperimetric direction fails")

    else:  # prop-combined
        direction = "lower"
        for dom in members:
            fun = geometric_functionals(dom)
            deficits = stein.boundary_deficits(dom)
            delta = fun.perimeter - 2.0 * math.pi
            delta_w = fun.momentum - 2.0 * math.pi
            z = _z_lower(dom, alpha, z_method)
            lhs.append(delta + delta_w)
            core.append(z * z)
            residual = abs(delta + delta_w - deficits.d2)
            extras.setdefault("identity_residual", []).append(residual)
            if residual > IDENTITY_TOL:
                ok = False
                notes.append(f"{dom.label}: combined identity off by {residual:.3g}")
            if lhs[-1] < -1e-12:
                ok = False
                notes.append(f"{dom.label}: combined deficit negative")

    ratios = tuple(_ratio(l, c) for l, c in zip(lhs, core))
    if any(math.isinf(r) for r in ratios):
        ok = False
        notes.append("a member has positive lhs against vanishing core")
    if direction == "upper" and any(
        l < -_TINY or c < -_TINY for l, c in zip(lhs, core)
    ):
        ok = False
        notes.append("negative quantity where a nonnegative one was proven")

    return InequalityReport(
        theorem=theorem,
        direction=direction,
        labels=labels,
        lhs=tuple(lhs),
        core=tuple(core),
        ratios=ratios,
        c_emp=_c_emp(ratios, direction),
        passed=ok,
        z_method=z_method,
        extras=tuple((k, tuple(v)) for k, v in extras.items()),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# sweeps


def _quantity_value(name: str, dom: StarDomain, alpha: float, solved: dict) -> float:
    def once(solver):
        # one run per (solver, member), shared by every quantity it yields
        if (solver, dom) not in solved:
            solved[solver, dom] = solver(dom)
        return solved[solver, dom]

    if name == "one_minus_sigma1":
        return 1.0 - steklov.steklov_spectrum(dom, k=_steklov_order(dom)).sigma1
    if name in ("d1", "d2", "osc_l1"):
        return getattr(once(stein.boundary_deficits), name)
    if name == "z_lower":
        return metrics.zolotarev_lower(dom, alpha).lower_bound
    if name in ("discrepancy_l1", "discrepancy_l2"):
        return getattr(once(stein.stein_kernel_solve), name)
    if name in ("deficit_perimeter", "deficit_momentum"):
        return getattr(geometric_functionals(dom), name)
    if name == "fraenkel":
        return metrics.fraenkel_asymmetry(dom, n=256, search=False).value
    raise InputError(f"unknown sweep quantity {name!r}")


def family_sweep(family: PerturbationFamily, quantities=("one_minus_sigma1", "d2")) -> SweepResult:
    """Per-amplitude values of the selected quantities with log-log slopes."""
    if len(family.amplitudes) < 4:
        raise InputError("slope fits need >= 4 amplitudes")
    quantities = tuple(quantities)
    for name in quantities:
        if name not in SWEEP_QUANTITIES:
            raise InputError(f"unknown sweep quantity {name!r}")
    members = family.members()
    solved: dict = {}
    table = []
    slopes = []
    residuals = []
    for name in quantities:
        row = tuple(_quantity_value(name, dom, family.alpha, solved) for dom in members)
        slope, rms = fit_loglog(family.amplitudes, row)
        table.append(row)
        slopes.append(slope)
        residuals.append(rms)
    return SweepResult(
        k=family.k,
        amplitudes=tuple(family.amplitudes),
        quantities=quantities,
        table=tuple(table),
        slopes=tuple(slopes),
        fit_residuals=tuple(residuals),
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
    if k < 1:
        raise InputError(f"mode k must be >= 1, got {k}")
    eps = tuple(float(e) for e in amplitudes)
    if any(e < 0.0 or e > 0.1 for e in eps):
        raise InputError("amplitudes must lie in [0, 0.1]")

    exact = {"volume": [], "perimeter": [], "momentum": [], "difference": []}
    predicted = {"volume": [], "perimeter": [], "momentum": [], "difference": []}
    for e in eps:
        c0 = -e * e / 4.0
        dom = StarDomain(1.0 + c0, (0.0,) * (k - 1) + (e,))
        fun = geometric_functionals(dom)
        exact["volume"].append(fun.volume)
        exact["perimeter"].append(fun.perimeter)
        exact["momentum"].append(fun.momentum)
        exact["difference"].append(fun.perimeter - fun.momentum)
        i1 = 2.0 * math.pi * c0
        i2 = math.pi * e * e + 2.0 * math.pi * c0 * c0
        ig = math.pi * e * e * k * k
        vol2 = math.pi + i1 + 0.5 * i2
        per2 = 2.0 * math.pi + i1 + 0.5 * ig
        mom2 = 2.0 * math.pi + 3.0 * i1 + 3.0 * i2 + 0.5 * ig
        predicted["volume"].append(vol2)
        predicted["perimeter"].append(per2)
        predicted["momentum"].append(mom2)
        predicted["difference"].append(per2 - mom2)

    reports = []
    for name in ("volume", "perimeter", "momentum", "difference"):
        res = tuple(
            abs(x - p) for x, p in zip(exact[name], predicted[name])
        )
        slope, _ = fit_loglog(eps, res)
        reports.append(
            ExpansionReport(
                functional=name,
                amplitudes=eps,
                exact=tuple(exact[name]),
                predicted=tuple(predicted[name]),
                residuals=res,
                slope=slope,
            )
        )
    return tuple(reports)


# ---------------------------------------------------------------------------
# analysis assembly and report emission


def analyze_domain(spec, alpha: float = 1.0, steklov_order: int = 16) -> dict:
    """Full single-domain analysis as a plain report dictionary."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    domain = spec if isinstance(spec, StarDomain) else build_domain(spec)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fun = geometric_functionals(domain)
    reg = regularity_params(domain, alpha=alpha)
    deficits = stein.boundary_deficits(domain)
    timings["functionals"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spectrum = steklov.steklov_spectrum(domain, k=steklov_order)
    timings["steklov"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    z = metrics.zolotarev_lower(domain, alpha)
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
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
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
