"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The per-layer names the span recorder emits are exactly the
   ``per_layer`` names of ``BENCHMARK.json``, plus the traced pass time.
2. A short run of cli-mix, untraced and traced, emits every metric named in
   ``BENCHMARK.json`` with its unit, and its outputs match the reference.
3. A fingerprint perturbed by one part in 10^6 counts as a failure, both
   in ``workloads.compare`` and in a whole run against a perturbed
   reference.
4. In a directory that holds only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits nonzero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 0
WORKLOAD = "cli-mix"


def _perturb(fingerprints: list) -> list:
    """Copy with the first float of the first successful operation moved by 1e-6."""
    out = copy.deepcopy(fingerprints)
    for fp in out:
        for key, value in fp.items():
            if isinstance(value, float):
                fp[key] = value * (1.0 + 1e-6) + 1e-9
                return out
            if isinstance(value, list) and value and isinstance(value[0], float):
                value[0] = value[0] * (1.0 + 1e-6) + 1e-9
                return out
    raise AssertionError("no float in the fingerprints to perturb")


def _run(trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", WORKLOAD,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run
    import spans
    import workloads

    problems = []

    layer_names = spans.layer_metric_names() + ["trace.pass_s"]
    declared = [m["name"] for m in spec["per_layer"]]
    if layer_names != declared:
        problems.append(f"per_layer names differ: {sorted(set(layer_names) ^ set(declared))}")

    baseline_ok = None
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(trace)
        if trace == 0:
            baseline_ok = result["metrics"]["ok_frac"]["value"]
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: emitted {sorted(set(got) ^ set(want))} differ")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: outputs do not match the reference")

    reference = run._load_reference(WORKLOAD, SEED)
    if reference is None:
        problems.append(f"no stored reference for {WORKLOAD} seed {SEED}")
    else:
        perturbed = _perturb(reference)
        if not all(workloads.compare(fp, fp) for fp in reference):
            problems.append("a reference fingerprint does not match itself")
        if all(workloads.compare(a, b) for a, b in zip(reference, perturbed)):
            problems.append("compare() accepted a perturbed fingerprint")
        run._load_reference = lambda workload, seed: perturbed
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.run_workload(WORKLOAD, SEED, 1.0, False, False)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        if result["correct"] or result["failed"] < 1:
            problems.append("a run against a perturbed reference counted no failure")
        if result["metrics"]["ok_frac"]["value"] >= baseline_ok:
            problems.append("a perturbed fingerprint did not lower ok_frac")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a bare directory did not make the benchmark fail")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
