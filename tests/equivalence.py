"""Bit-for-bit checks of fast routes against their references on the
benchmark's inputs, seeds 0-15 of ``perfbench/workloads.py``.

    python3 tests/equivalence.py ring | lag-stop | doubling-assembly

* ``ring``: ``ring_pair_seminorms`` equals ``pair_seminorms`` on the
  Schauder probe's data and Hessian fields of each oblique-probe shape.
* ``lag-stop``: ``circle_lag_seminorm`` equals the unpruned blocks
  (``reference.circle_lag_seminorm_blocks``) on R' of each cli-mix
  ``analyze`` shape, at alpha 1 and 0.5 and at 0.05, where d_k grows so
  slowly that the stop is not exact unless it reads the block's first
  distance.
* ``doubling-assembly``: every trapezoid ``doubling_quadrature`` that
  building, deficits, ``zolotarev_lower`` and the Stein kernel run on the
  cli-mix ``analyze`` shapes and kernel-verify members keeps the bits and
  grid of ``reference.full_doubling``, and ``steklov._assemble`` equals
  ``reference.two_call_assemble`` there.

A check exits nonzero with a message naming the first input where the
routes differ.  The script is not collected by pytest: all 16 seeds take
4-7 s a check on a 2-core Xeon, ``lag-stop`` the 7, so the tier-1 suite
runs seed 0 of each (``test_equivalence.py``) and CI runs every seed.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "perfbench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np

import steinshapes
import workloads
from steinshapes import _kernels, metrics, oblique, shapes, stein, steklov
from steinshapes.shapes import VALIDATION_GRID, circle_grid, frame_at

from reference import checked_doubling, circle_lag_seminorm_blocks, two_call_assemble

SEEDS = range(16)


class Mismatch(AssertionError):
    """A fast route differs from its reference."""


def ring(seed: int) -> None:
    grid = steinshapes.disk_grid(*oblique.PROBE_GRID)
    probes = [steinshapes.parse_rhs(token) for token in ("x1", "r2", "quadrupole")]
    domain = steinshapes.build_domain(workloads.generate("oblique-probe", seed)["shape"])
    fields = [h.value(grid) for h in probes]
    fields += [
        oblique._oblique_fit(domain, h)[0].hessian(grid).reshape(grid.size, -1) for h in probes
    ]
    for alpha in (0.5, 1.0):
        got = _kernels.ring_pair_seminorms(grid, fields, alpha)
        if got != _kernels.pair_seminorms(grid.points, fields, alpha):
            raise Mismatch(
                f"ring and Cartesian seminorms differ on oblique-probe seed {seed} at alpha {alpha}"
            )


def lag_stop(seed: int) -> None:
    for i, spec in enumerate(workloads.generate("cli-mix", seed)["analyze"]):
        domain = steinshapes.build_domain(spec)
        rp = frame_at(domain, *circle_grid(VALIDATION_GRID)).radius_prime
        for alpha in (1.0, 0.5, 0.05):
            if _kernels.circle_lag_seminorm(rp, alpha) != circle_lag_seminorm_blocks(rp, alpha):
                raise Mismatch(
                    f"circle lag seminorm differs from the unpruned blocks on cli-mix seed {seed} "
                    f"shape {i} at alpha {alpha}"
                )


@contextmanager
def patched(modules, name, value):
    """Set ``name`` to ``value`` in each module, and restore it on exit."""
    saved = [(module, getattr(module, name)) for module in modules]
    try:
        for module, _ in saved:
            setattr(module, name, value)
        yield
    finally:
        for module, original in saved:
            setattr(module, name, original)


@contextmanager
def doubling_checked(where: str):
    """Name ``where`` in the failure of a ``checked_doubling`` run."""
    try:
        yield
    except AssertionError:
        raise Mismatch(f"nested doubling differs from full re-evaluation on {where}") from None


def doubling_assembly(seed: int) -> None:
    k, m = steklov.STEKLOV_ORDER + 4, 256  # the Ritz system of a default steklov_spectrum
    with patched((shapes, stein, metrics), "doubling_quadrature", checked_doubling):
        with doubling_checked(f"the inputs of seed {seed}"):
            domains = [
                (f"cli-mix seed {seed} shape {i}", steinshapes.build_domain(spec))
                for i, spec in enumerate(workloads.generate("cli-mix", seed)["analyze"])
            ]
            for fam in workloads.generate("kernel-verify", seed)["families"]:
                members = steinshapes.PerturbationFamily(**fam).members()
                label = f"kernel-verify seed {seed} k={fam['k']} member"
                domains += [(f"{label} {j}", d) for j, d in enumerate(members)]
        for where, domain in domains:
            with doubling_checked(where):
                try:
                    steinshapes.boundary_deficits(domain)
                except steinshapes.NoConvergence:
                    pass  # a d1 tangency cusp, on both loops
                metrics.zolotarev_lower(domain)
                if where.startswith("kernel-verify"):
                    try:
                        stein.stein_kernel_solve(domain)
                    except steinshapes.IdentityViolated:
                        pass  # the top k = 4 members, after their panel quadrature
            got, want = steklov._assemble(domain, k, m), two_call_assemble(domain, k, m)
            if not all(map(np.array_equal, got, want)):
                raise Mismatch(
                    f"Steklov _assemble differs from values + normal_derivative on {where}"
                )


CHECKS = {"ring": ring, "lag-stop": lag_stop, "doubling-assembly": doubling_assembly}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    check = CHECKS[parser.parse_args(argv).check]
    try:
        for seed in SEEDS:
            check(seed)
    except Mismatch as err:
        sys.exit(str(err))
    return 0


if __name__ == "__main__":
    sys.exit(main())
