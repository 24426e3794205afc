"""Closed-loop benchmark of steinshapes: one process, one caller, one
operation at a time.

One workload:

    python3 perfbench/run.py --workload kernel-verify --seed 1 --seconds 30 --trace 0

runs passes of the workload for ``--seconds`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from the span recorder.  The line before it is a JSON detail record:
sample counts, per-operation outcomes and the environment.

Every workload:

    python3 perfbench/run.py --seed 1

runs each workload in its own process, untraced and traced, and writes
``perfbench/out/BENCH_seed<seed>.json``.

The program is imported from ``src/`` of the checkout that holds this file;
nothing is installed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 3

# BLAS threads are pinned before numpy is imported, here and in every child
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREADS = str(min(2, NPROC or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_CODE = """
import sys, tempfile
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import steinshapes
import workloads
with tempfile.TemporaryDirectory(dir=sys.argv[5]) as workdir:
    workloads.prepare(sys.argv[3], workloads.generate(sys.argv[3], int(sys.argv[4])), workdir)
"""


def _tail(values, fraction=0.9):
    """The p90 of ``values`` when at least ten samples lie beyond it."""
    ordered = sorted(values)
    if len(ordered) * (1.0 - fraction) < 10:
        return None
    return ordered[int(fraction * len(ordered))]


def _check_checkout() -> None:
    if not (SRC / "steinshapes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no steinshapes package under {SRC}")
    if not (BENCH_DIR.parent / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: no BENCHMARK.json in {ROOT}")


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of a fresh interpreter's import plus input building."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR),
                workload, str(seed), str(OUT)]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, env=os.environ.copy())
        times.append(time.perf_counter() - t0)
    return times


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _environment(load_start: float) -> dict:
    import numpy
    import scipy
    import steinshapes

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "steinshapes_backend": steinshapes.backend(),
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_revision": _git_revision(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def _load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed), {}).get(workload)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, record: bool) -> int:
    load_start = os.getloadavg()[0]
    setup = _setup_seconds(workload, seed)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import steinshapes
    import spans
    import workloads

    if not Path(steinshapes.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported steinshapes from {steinshapes.__file__}, not {SRC}")

    recorder = spans.Recorder()
    if trace:
        spans.install(recorder)
    reference = None if record else _load_reference(workload, seed)

    inputs = workloads.generate(workload, seed)
    pass_times, layer_passes = [], []
    attempted = failed = gate_failed = 0
    first = None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ops = workloads.prepare(workload, inputs, workdir)
        start = time.perf_counter()
        while True:
            recorder.reset()
            recorder.active = trace
            t0 = time.perf_counter()
            outcomes = [op.run() for op in ops]
            pass_times.append(time.perf_counter() - t0)
            recorder.active = False
            if trace:
                layer_passes.append(recorder.summary())

            prints = [o.fingerprint for o in outcomes]
            expected = reference if reference is not None else (first or prints)
            first = first or prints
            for outcome, want in zip(outcomes, expected):
                attempted += 1
                mismatch = not workloads.compare(outcome.fingerprint, want)
                failed += mismatch
                gate_failed += outcome.gate_failed or mismatch

            spent = time.perf_counter() - start
            # start a pass only if a typical one still ends within the budget
            if spent + statistics.median(pass_times) > seconds:
                break

    correct = failed == 0 and len(first) == len(expected)
    if trace:
        metrics = {
            name: {"value": statistics.median([p[name] for p in layer_passes]),
                   "unit": _layer_unit(name)}
            for name in layer_passes[0]
        }
        metrics["trace.pass_s"] = {"value": statistics.median(pass_times), "unit": "s"}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "ok_frac": {"value": 1.0 - gate_failed / attempted, "unit": "ratio"},
        }

    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(pass_times),
        "pass_s_samples": pass_times,
        "pass_s_p90": _tail(pass_times),
        "setup_s_samples": setup,
        "operations": [op.label for op in ops],
        "fail_frac": gate_failed / attempted,
        "reference": "stored" if reference is not None else "first pass",
        "fingerprints": first,
        "environment": _environment(load_start),
    }
    if record:
        _record(workload, seed, first)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_frac"):
        return "ratio"
    return "count"


def _record(workload: str, seed: int, fingerprints: list) -> None:
    data = {"rtol": None, "atol": None, "seeds": {}}
    if REFERENCE.is_file():
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    import workloads

    data["rtol"], data["atol"] = workloads.RTOL, workloads.ATOL
    data["seeds"].setdefault(str(seed), {})[workload] = fingerprints
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=False)
        fh.write("\n")


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            runs[trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
        (detail, plain), (_, traced) = runs[0], runs[1]
        overhead = traced["metrics"]["trace.pass_s"]["value"] - plain["metrics"]["pass_s"]["value"]
        results["workloads"][name] = {
            "why": entry["why"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "fail_frac": detail["fail_frac"],
            "passes": detail["passes"],
            "pass_s_p90": detail["pass_s_p90"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "trace_overhead_s": overhead,
            "environment": detail["environment"],
        }
        print(f"{name}: pass_s {plain['metrics']['pass_s']['value']:.3f} s "
              f"over {detail['passes']} passes, fail_frac {detail['fail_frac']:.3f}, "
              f"trace overhead {overhead:+.3f} s", flush=True)
    target = OUT / f"BENCH_seed{seed}.json"
    target.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target.relative_to(ROOT)}")
    ok = all(w["correct"] for w in results["workloads"].values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; every workload when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprints as the reference for its seed")
    args = parser.parse_args(argv)

    _check_checkout()
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(args.seed, seconds)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace), args.record)


if __name__ == "__main__":
    sys.exit(main())
