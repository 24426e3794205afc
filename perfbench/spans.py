"""Stdlib span recorder that times calls into steinshapes from outside.

``install()`` replaces the traced functions with wrappers at every place
they are bound: a function such as ``shapes.geometric_functionals`` is
imported by name into ``stein``, ``oblique``, ``metrics`` and
``experiments``, so wrapping only the defining module would miss those
calls.  Polar-field evaluation is wrapped on the classes of ``_polar`` and
counted only at the outermost evaluation call, so that ``PolarField``
delegating to ``PolarBasis`` (or ``CompositeBasis`` to its parts) is one
span, not two.

Each span records its name, start, end and parent.  A layer's self time is
its duration minus the durations of its direct child spans.  Spans live in
memory; ``Recorder.summary()`` folds them into per-name counters.
"""

from __future__ import annotations

import contextvars
import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, function) pairs wrapped at every binding site, in layer order
TRACED = (
    ("_kernels", "pair_seminorm"),
    ("_kernels", "matrix_pair_seminorm"),
    ("_kernels", "circle_lag_seminorm"),
    ("_kernels", "reflect_path"),
    ("shapes", "geometric_functionals"),
    ("shapes", "doubling_quadrature"),
    ("shapes", "boundary_frame"),
    ("shapes", "bulk_grid"),
    ("shapes", "build_domain"),
    ("steklov", "steklov_spectrum"),
    ("stein", "stein_kernel_solve"),
    ("stein", "boundary_deficits"),
    ("oblique", "solve_oblique"),
    ("oblique", "solve_oblique_kernel_variant"),
    ("oblique", "schauder_probe"),
    ("metrics", "zolotarev_lower"),
    ("metrics", "zolotarev_oracle"),
    ("metrics", "zolotarev_lp"),
    ("metrics", "fraenkel_asymmetry"),
    ("rbm", "path"),
    ("rbm", "stationary_mean"),
    ("rbm", "feynman_kac_check"),
    ("experiments", "verify_inequality"),
    ("experiments", "family_sweep"),
    ("experiments", "analyze_domain"),
    ("experiments", "emit_report"),
    ("cli", "main"),
)

POLAR_SPAN = "polar.eval"
POLAR_BASIS_METHODS = (
    "values",
    "radial_derivative",
    "angular_over_r",
    "gradients",
    "hessian_frame",
    "hessians",
    "laplacians",
)
POLAR_FIELD_METHODS = (
    "value_polar",
    "value",
    "gradient_polar",
    "gradient",
    "hessian_polar",
    "hessian",
    "laplacian_polar",
    "laplacian",
    "radial_derivative",
)

# the package modules that contain a raise statement
RAISING_MODULES = (
    "_polar",
    "shapes",
    "steklov",
    "stein",
    "oblique",
    "metrics",
    "rbm",
    "experiments",
)

# extra per-name counters: name -> list of counter keys
EXTRA_COUNTERS = {
    POLAR_SPAN: ("points", "term_points"),
    "kernels.pair_seminorm": ("pairs",),
    "kernels.matrix_pair_seminorm": ("pairs",),
    "kernels.reflect_path": ("steps", "reflections"),
    "shapes.doubling_quadrature": ("grid_max",),
    "oblique.solve_oblique_kernel_variant": ("reliable_frac",),
    "metrics.zolotarev_lp": ("nodes",),
    "cli.main": ("exit_nonzero",),
}


def span_name(module: str, function: str) -> str:
    """Metric prefix of a traced function; metric names may not start with
    ``_``, so ``_kernels`` and ``_polar`` appear as ``kernels`` and ``polar``."""
    return f"{module.lstrip('_')}.{function}"


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    names = []
    for span in [POLAR_SPAN] + [span_name(mod, fn) for mod, fn in TRACED]:
        names += [f"{span}.{stat}" for stat in ("calls", "busy_s", "self_s")]
        names += [f"{span}.{extra}" for extra in EXTRA_COUNTERS.get(span, ())]
    names += [f"{mod.lstrip('_')}.errors" for mod in RAISING_MODULES]
    return names


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0


@dataclass
class Recorder:
    """Span store for one traced pass; ``active`` switches recording on."""

    active: bool = False
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    # exceptions already counted, held so their ids cannot be reused
    _seen_errors: dict[int, BaseException] = field(default_factory=dict)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.errors.clear()
        self._seen_errors.clear()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def raise_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def summary(self) -> dict[str, float]:
        """Per-name calls, inclusive busy time, self time and counters."""
        out = {name: 0.0 for name in layer_metric_names()}
        for span in self.spans:
            busy = span.end - span.start
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.busy_s"] += busy
            out[f"{span.name}.self_s"] += busy - span.child_time
        for key, value in self.counters.items():
            out[key] = value
        for module, count in self.errors.items():
            out[f"{module.lstrip('_')}.errors"] = count
        calls = out["oblique.solve_oblique_kernel_variant.calls"]
        reliable = self.counters.get("oblique.solve_oblique_kernel_variant.reliable", 0.0)
        out["oblique.solve_oblique_kernel_variant.reliable_frac"] = (
            reliable / calls if calls else 0.0
        )
        out.pop("oblique.solve_oblique_kernel_variant.reliable", None)
        return out


_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_in_polar: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "perfbench_in_polar", default=False
)


def _raising_module(exc: BaseException, package_dir: str) -> str | None:
    """Package module of the innermost package frame in the traceback."""
    module = None
    tb = exc.__traceback__
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if os.path.dirname(os.path.abspath(path)) == package_dir:
            module = os.path.splitext(os.path.basename(path))[0]
        tb = tb.tb_next
    return module


def _traced(recorder: Recorder, name: str, fn, package_dir: str, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        parent = _current.get()
        span = Span(name, parent, time.perf_counter())
        index = len(recorder.spans)
        recorder.spans.append(span)
        token = _current.set(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if id(exc) not in recorder._seen_errors:
                recorder._seen_errors[id(exc)] = exc
                module = _raising_module(exc, package_dir)
                if module in RAISING_MODULES:
                    recorder.errors[module] = recorder.errors.get(module, 0) + 1
            raise
        else:
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result
        finally:
            _current.reset(token)
            span.end = time.perf_counter()
            if parent is not None:
                recorder.spans[parent].child_time += span.end - span.start

    return wrapper


def _polar_wrapper(recorder: Recorder, fn, package_dir: str, is_field: bool):
    traced = _traced(recorder, POLAR_SPAN, fn, package_dir)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not recorder.active or _in_polar.get():
            return fn(self, *args, **kwargs)
        terms = (self.basis if is_field else self).n
        points = int(np.size(args[0])) if np.ndim(args[0]) < 2 else len(args[0])
        recorder.add(f"{POLAR_SPAN}.points", points)
        recorder.add(f"{POLAR_SPAN}.term_points", terms * points)
        token = _in_polar.set(True)
        try:
            return traced(self, *args, **kwargs)
        finally:
            _in_polar.reset(token)

    return wrapper


def _count_pairs(recorder, args, kwargs, result, name):
    n = len(args[0])
    recorder.add(f"{name}.pairs", n * (n - 1) // 2)


def _on_result(name: str):
    if name in ("kernels.pair_seminorm", "kernels.matrix_pair_seminorm"):
        return lambda rec, a, k, res: _count_pairs(rec, a, k, res, name)
    if name == "kernels.reflect_path":

        def count(rec, args, kwargs, result):
            _, _, n_reflect, fail = result
            rec.add(f"{name}.steps", len(args[2]) if fail < 0 else fail + 1)
            rec.add(f"{name}.reflections", n_reflect)

        return count
    if name == "shapes.doubling_quadrature":
        return lambda rec, a, k, res: rec.raise_max(f"{name}.grid_max", res[1])
    if name == "oblique.solve_oblique_kernel_variant":
        return lambda rec, a, k, res: rec.add(f"{name}.reliable", float(res.reliable))
    if name == "metrics.zolotarev_lp":
        return lambda rec, a, k, res: rec.add(f"{name}.nodes", len(a[0]))
    if name == "cli.main":
        return lambda rec, a, k, res: rec.add(f"{name}.exit_nonzero", float(res != 0))
    return None


def install(recorder: Recorder) -> None:
    """Wrap every traced function at each of its binding sites.

    Wrappers pass straight through while ``recorder.active`` is false.
    """
    import steinshapes
    from steinshapes import _polar

    package_dir = os.path.dirname(os.path.abspath(steinshapes.__file__))
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "steinshapes" or name.startswith("steinshapes.")
    ]
    for mod_name, fn_name in TRACED:
        original = getattr(sys.modules[f"steinshapes.{mod_name}"], fn_name)
        name = span_name(mod_name, fn_name)
        wrapper = _traced(recorder, name, original, package_dir, _on_result(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for cls in (
        _polar.PolarBasis,
        _polar.LoosePolarBasis,
        _polar.LogPolarBasis,
        _polar.CompositeBasis,
        _polar.PolarField,
    ):
        is_field = cls is _polar.PolarField
        for method in POLAR_FIELD_METHODS if is_field else POLAR_BASIS_METHODS:
            if method in vars(cls):
                setattr(
                    cls,
                    method,
                    _polar_wrapper(recorder, vars(cls)[method], package_dir, is_field),
                )
