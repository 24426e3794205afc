"""Command-line entry point.

Verbs: analyze, verify, sweep, expansion, mc.  Exit codes: 0 pass,
1 inequality-direction violation, 2 solver gate failure, 3 input error.
The exception class decides between 2 and 3: any ``InputError`` exits 3,
any other ``SteinShapesError`` exits 2, and everything else propagates
with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments, oblique, rbm, steklov
from .errors import InputError, IoFailure, SteinShapesError
from .shapes import build_domain, load_json_object, read_config

EXPANSION_SLOPE = 2.5  # expansion exits 1 where a log-log slope is below this: not o(eps^2)
FK_SIGMAS = 3.0        # mc --fk exits 1 where the gap exceeds this many standard errors


def _parse_eps(text: str) -> tuple[float, ...]:
    """start:stop:count linspace, or a comma-separated list."""
    try:
        if ":" not in text:
            return tuple(float(tok) for tok in text.split(","))
        start, stop, count = text.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise IoFailure(f"eps must be start:stop:count or a list, got {text!r}") from exc
    return tuple(float(e) for e in grid)


# keys only a family config takes: a config with any of them is a family
_FAMILY_KEYS = ("k", "amplitudes", "eps", "normalization", "alpha")


def _family_from_path(path: str, alpha: float | None) -> experiments.PerturbationFamily | list:
    given = {} if alpha is None else {"alpha": alpha}
    if path == "default":
        return experiments.PerturbationFamily(**given)
    data = load_json_object(path, "family config")
    if not any(key in data for key in _FAMILY_KEYS):
        return [build_domain(data)]
    return read_config(
        experiments.PerturbationFamily, data, "family config", {"eps": "amplitudes"}, **given
    )


def _cmd_analyze(args) -> int:
    report = experiments.analyze_domain(
        args.config, alpha=args.alpha, steklov_order=args.grid
    )
    text = experiments.emit_report(report, format="json", path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    family = _family_from_path(args.family, args.alpha)
    report = experiments.verify_inequality(
        family, args.theorem, alpha=args.alpha, z_method=args.z_method
    )
    sys.stdout.write(experiments.emit_report(report, format="json"))
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    quantities = tuple(args.quantities.split(","))
    eps = _parse_eps(args.eps)
    try:
        modes = [int(tok) for tok in args.k.split(",")]
    except ValueError as exc:
        raise IoFailure(f"--k must be a list of modes, got {args.k!r}") from exc
    if len(set(modes)) < len(modes):
        raise IoFailure(f"--k lists a mode twice: {args.k!r}")
    for k in modes:
        family = experiments.PerturbationFamily(
            k=k, amplitudes=eps, alpha=args.alpha
        )
        result = experiments.family_sweep(family, quantities)
        if args.out is not None:
            target = args.out
            if "," in args.k:
                stem, ext = os.path.splitext(args.out)
                target = f"{stem}.k{k}{ext}"
            fmt = "json" if target.endswith(".json") else "csv"
            experiments.emit_report(result, format=fmt, path=target)
            print(f"wrote {target}")
        else:
            sys.stdout.write(experiments.emit_report(result, format="csv"))
    return 0


def _cmd_expansion(args) -> int:
    eps = _parse_eps(args.eps)
    if len({e for e in eps if e > 0.0}) < 2:
        # the log-log slope needs two distinct points, and eps = 0 is none
        raise InputError("slope fits need >= 2 distinct positive amplitudes")
    reports = experiments.expansion_validator(args.k, eps)
    status = 0
    for rep in reports:
        print(f"{rep.functional}: slope {experiments.format_float(rep.slope)}")
        for e, exact, pred, res in zip(
            rep.amplitudes, rep.exact, rep.predicted, rep.residuals
        ):
            print(
                f"  eps={e:g}  exact={exact:.12g}  order2={pred:.12g}  "
                f"residual={res:.3e}"
            )
        if not rep.slope >= EXPANSION_SLOPE:
            status = 1
            print(f"  slope below the o(eps^2) threshold for {rep.functional}")
    return status


def _cmd_mc(args) -> int:
    domain = build_domain(args.config)
    config = rbm.PathConfig(
        dt=args.dt, horizon=args.T, burn_in=args.burn_in, seed=args.seed
    )
    h = oblique.parse_rhs(args.h)
    if args.fk:
        fk = rbm.feynman_kac_check(domain, oblique.solve_oblique(domain, h), config)
        estimate = fk.estimate
    else:
        estimate = rbm.stationary_mean(domain, h, config)
    print(
        f"steps={config.n_steps} reflections={estimate.reflections} "
        f"fraction={estimate.reflected_fraction:.4f}"
    )
    print(
        f"occupation mean of {args.h}: {estimate.mean:.8f} "
        f"+- {estimate.standard_error:.2e} ({estimate.batches} batches)"
    )
    if args.fk:
        print(
            f"c_star={fk.c_star:.8f} gap={fk.gap:+.3e} "
            f"({fk.gap_sigma:.2f} standard errors)"
        )
        if fk.estimate.standard_error > 0 and fk.gap_sigma > FK_SIGMAS:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinshapes",
        description="Numerical laboratory for shape distances, Steklov "
        "spectra, Stein kernels, and reflected diffusions on star-shaped "
        "planar domains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="full single-domain report")
    p.add_argument("config", help="path to a JSON shape config")
    p.add_argument(
        "--grid", type=int, default=steklov.STEKLOV_ORDER, help="Steklov truncation order"
    )
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="check one stability statement")
    p.add_argument("family", help="JSON family/shape config, or 'default'")
    p.add_argument("--theorem", required=True, choices=experiments.THEOREMS)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--z-method", default="dictionary", choices=experiments.Z_METHODS)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="scaling sweep over amplitude families")
    p.add_argument("--k", default="2", help="comma-separated mode list")
    p.add_argument("--eps", default="0.02:0.1:5", help="start:stop:count or list")
    p.add_argument("--quantities", default="one_minus_sigma1,d2")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("expansion", help="order-2 expansion validation")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", default="0.0125,0.025,0.05,0.1")
    p.set_defaults(func=_cmd_expansion)

    p = sub.add_parser("mc", help="reflected Brownian motion statistics")
    p.add_argument("config", help="path to a JSON shape config")
    p.add_argument("--dt", type=float, default=5e-4)
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--burn-in", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", default="r2", help="forcing: x1, x2, r2, one, quadrupole")
    p.add_argument("--fk", action="store_true", help="cross-check against the solver")
    p.set_defaults(func=_cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except SteinShapesError as exc:
        print(f"solver gate failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
