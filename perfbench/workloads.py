"""Seeded inputs, operations and output fingerprints of the three workloads.

``generate(workload, seed)`` draws the inputs: shape coefficient tuples,
family amplitudes and sweep amplitudes.  ``prepare(workload, inputs,
workdir)`` writes the configs the CLI verbs read, builds the domains the
solver calls take, and returns the pass: a list of ``Operation``.  Running
an operation returns its ``Outcome``: whether the program reported a
failure (a package error or a nonzero CLI exit) and a fingerprint of its
key outputs, which ``compare`` checks against a reference.

Known gate failures of the program are kept in every draw, not filtered:

* kernel-verify: the top amplitude of each family lies in [0.085, 0.093].
  For k = 4 that member trips the Stein test-panel gate (exit 2) after its
  full solve.  Above 0.095 the Steklov gate would fail first, in
  milliseconds, and the pass time would then depend on the seed.
* cli-mix: three of the six ``analyze`` shapes have order 4 or 5 and a top
  coefficient of radius 0.05 to 0.08; at the default ``--grid 16`` they
  raise ``NotConverged`` (exit 2).  The other three have order 2 or 3 and
  coefficients within 0.04, where the truncation converges.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import steinshapes
from steinshapes import cli

WORKLOADS = ("kernel-verify", "oblique-probe", "cli-mix")

# rtol and atol of the fingerprint comparison
RTOL = 1e-8
ATOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


@dataclass(frozen=True)
class Outcome:
    gate_failed: bool
    fingerprint: dict


@dataclass(frozen=True)
class Operation:
    label: str
    run: Callable[[], Outcome]


# ---------------------------------------------------------------------------
# input generation


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _shape(rng, order: int, low: float, top: tuple[float, float] | None = None) -> dict:
    """Volume-normalized shape config; coefficients uniform in [-low, low],
    the top-order pair optionally replaced by a radius drawn from ``top``."""
    cos = rng.uniform(-low, low, order)
    sin = rng.uniform(-low, low, order)
    if top is not None:
        radius = rng.uniform(*top)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        cos[-1] = radius * math.cos(phase)
        sin[-1] = radius * math.sin(phase)
    return {
        "base_radius": 1.0,
        "fourier_cos": [float(c) for c in cos],
        "fourier_sin": [float(s) for s in sin],
        "normalize_volume": True,
        "label": f"order-{order}",
    }


def generate(workload: str, seed: int) -> dict:
    """JSON-able inputs of one workload; the same seed gives the same inputs."""
    rng = _rng(workload, seed)
    if workload == "kernel-verify":
        bands = ((0.02, 0.04), (0.05, 0.07), (0.085, 0.093))
        return {
            "families": [
                {
                    "k": k,
                    "amplitudes": [float(rng.uniform(*band)) for band in bands],
                    "normalization": "volume",
                }
                for k in (2, 3, 4)
            ]
        }
    if workload == "oblique-probe":
        return {"shape": _shape(rng, int(rng.integers(2, 4)), 0.05)}
    if workload == "cli-mix":
        low = [_shape(rng, order, 0.04) for order in (2, 3, int(rng.integers(2, 4)))]
        high = [
            _shape(rng, order, 0.03, top=(0.05, 0.08))
            for order in (4, 5, int(rng.integers(4, 6)))
        ]
        eps = [float(rng.uniform(lo, lo + 0.016)) for lo in np.arange(5) * 0.016 + 0.02]
        return {
            "analyze": low + high,
            "sweep_eps": eps,
            "mc_shape": _shape(rng, int(rng.integers(2, 4)), 0.04),
            "mc_seed": int(rng.integers(0, 2**31)),
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _numbers(text: str) -> list[float]:
    return [float(tok) for tok in _NUMBER.findall(text)]


def _cli(argv: list[str], digest: Callable[[str], dict]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    fingerprint = {"exit": code}
    if code in (0, 1):
        fingerprint.update(digest(out.getvalue()))
    return Outcome(code != 0, fingerprint)


def _verify_digest(text: str) -> dict:
    report = json.loads(text)
    extras = dict(report["extras"])
    digest = {
        "c_emp": report["c_emp"],
        "passed": report["passed"],
        "lhs": report["lhs"],
        "core": report["core"],
    }
    # chain_slack = (c_bw - 1) d |V| + 1e-6 - discrepancy_l2
    for key in ("sigma1", "chain_slack"):
        if key in extras:
            digest[key] = extras[key]
    return digest


def _analyze_digest(text: str) -> dict:
    report = json.loads(text)
    return {
        "sigma1": report["steklov"]["sigma1"],
        "eigenvalues": report["steklov"]["eigenvalues"],
        "d2": report["deficits"]["d2"],
        "z_lower": report["zolotarev"]["lower_bound"],
    }


def _text_digest(text: str) -> dict:
    return {"numbers": _numbers(text)}


def _solver(call: Callable[[], object], digest: Callable[[object], dict]) -> Outcome:
    try:
        result = call()
    except steinshapes.SteinShapesError as exc:
        return Outcome(True, {"error": type(exc).__name__})
    return Outcome(False, digest(result))


def prepare(workload: str, inputs: dict, workdir: str) -> list[Operation]:
    """Write configs, build domains, and return the operations of one pass."""
    if workload == "kernel-verify":
        ops = []
        for fam in inputs["families"]:
            path = _write(workdir, f"family_k{fam['k']}.json", fam)
            argv = ["verify", path, "--theorem", "thm-bw"]
            ops.append(
                Operation(f"verify k={fam['k']}", lambda a=argv: _cli(a, _verify_digest))
            )
        return ops

    if workload == "oblique-probe":
        domain = steinshapes.build_domain(inputs["shape"])
        probes = [steinshapes.parse_rhs(t) for t in ("x1", "r2", "quadrupole")]

        def schauder(report) -> dict:
            return {
                "max_ratio": report.max_ratio,
                "ratios": list(report.ratios),
                "numerators": list(report.numerators),
            }

        def variant(sol) -> dict:
            return {
                "c_star": sol.c_star,
                "reliable": sol.reliable,
                "mean_domain_h": sol.mean_domain_h,
            }

        ops = [
            Operation(
                "schauder_probe x1,r2,quadrupole",
                lambda: _solver(lambda: steinshapes.schauder_probe(domain, probes), schauder),
            )
        ]
        for token in ("x1", "r2"):
            h = steinshapes.parse_rhs(token)
            ops.append(
                Operation(
                    f"solve_oblique_kernel_variant {token}",
                    lambda h=h: _solver(
                        lambda: steinshapes.solve_oblique_kernel_variant(domain, h),
                        variant,
                    ),
                )
            )
        return ops

    if workload == "cli-mix":
        ops = []
        for i, spec in enumerate(inputs["analyze"]):
            argv = ["analyze", _write(workdir, f"shape{i}.json", spec)]
            ops.append(
                Operation(f"analyze shape{i}", lambda a=argv: _cli(a, _analyze_digest))
            )
        eps = ",".join(repr(e) for e in inputs["sweep_eps"])
        quantities = "one_minus_sigma1,d1,d2,osc_l1,z_lower,fraenkel"
        argv = ["sweep", "--k", "2,3", "--eps", eps, "--quantities", quantities]
        ops.append(Operation("sweep", lambda a=argv: _cli(a, _text_digest)))
        argv = ["verify", "default", "--theorem", "thm-main", "--z-method", "lp-oracle"]
        ops.append(Operation("verify default", lambda a=argv: _cli(a, _verify_digest)))
        argv = ["expansion", "--k", "3"]
        ops.append(Operation("expansion", lambda a=argv: _cli(a, _text_digest)))
        mc_path = _write(workdir, "mc_shape.json", inputs["mc_shape"])
        argv = ["mc", mc_path, "--T", "100", "--fk", "--seed", str(inputs["mc_seed"])]
        ops.append(Operation("mc", lambda a=argv: _cli(a, _text_digest)))
        return ops

    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# fingerprint comparison


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def compare(fingerprint: dict, reference: dict) -> bool:
    """True when every key matches the reference within RTOL/ATOL."""
    return _close(fingerprint, reference)
