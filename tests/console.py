"""The console script's exit codes, one row per invocation.

    python3 tests/console.py

Each row of ``ROWS`` is an argv, the exit code it must give and, where it
matters, a check of its stderr.  The script writes ``CONFIGS`` to a
temporary directory and runs the rows in order through the ``steinshapes``
script on PATH, or, where none is installed, through ``python -m
steinshapes.cli`` with ``src`` on the path; it prints which one ran.  Two
rows carry a flow: the order-5 ``--out`` report is rebuilt from its
``domain_spec`` for the next row, and ``sweep --k 2,3`` must write one
file per mode.

The script exits nonzero with a message naming the first row that
differs.  pytest does not collect it: the rows take about 8 s as
subprocesses on a 2-core Xeon, so the tier-1 suite (``test_console.py``)
parses every row and runs those that expect exit 3 in process, and CI
runs them all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent

HUGE = "1" + "0" * 400  # a JSON integer beyond the float range

# raw JSON text: no Python float holds 1e400 or HUGE
CONFIGS = {
    "order-5.json": '{"fourier_cos": [0.01, -0.02, 0.015, 0.02, 0.05], '
    '"fourier_sin": [0.02, 0.01, -0.01, 0.01, 0.03], "normalize_volume": true}',
    "string-flag.json": '{"base_radius": 1.0, "normalize_volume": "false"}',
    "amplitudes-and-eps.json": '{"amplitudes": [0.04, 0.08], "eps": [0.04, 0.08]}',
    "negative-radius.json": '{"fourier_cos": [1.2]}',
    "infinite-coefficient.json": '{"fourier_cos": [1e400]}',
    "overflowing-coefficients.json": '{"fourier_cos": [1e308, 1e308]}',
    "huge-coefficient.json": '{"fourier_cos": [%s]}' % HUGE,
    "huge-base-radius.json": '{"base_radius": %s}' % HUGE,
    "huge-amplitude.json": '{"k": 3, "amplitudes": [%s]}' % HUGE,
    "recenter-fails.json": '{"fourier_cos": [0.45, 0, 0, 0, 0, 0, 0, 0.4], "recenter": true}',
    "off-center-family.json": '{"k": 1, "amplitudes": [0.02, 0.04]}',
    "big-ball.json": '{"base_radius": 1.1}',
    "k4-family.json": '{"k": 4, "amplitudes": [0.03, 0.06, 0.09]}',
    "mode-only-family.json": '{"k": 3}',
    "integral-mode.json": '{"k": 2.0, "amplitudes": [0.04, 0.08]}',
    "integral-dimension.json": '{"base_radius": 1.0, "dimension": 2.0}',
    "order-2.json": '{"fourier_cos": [0.0, 0.05], "normalize_volume": true}',
}

MEANING = {0: "pass", 1: "direction violation", 2: "solver gate", 3: "input error"}
NO_CONVERGENCE = "Steklov truncation gate, NoConvergence"


def without(word: str, said: str) -> Callable[[str, str], str | None]:
    """A stderr check that ``word`` does not appear."""
    return lambda what, err: f"{what} {said}:\n{err}" if word in err else None


def starting(prefix: str) -> Callable[[str, str], str | None]:
    """A stderr check that the message begins with ``prefix``."""
    return lambda what, err: None if err.startswith(prefix) else f"{what} failed elsewhere:\n{err}"


def rebuild_order_5(tmp: Path) -> None:
    """Write the order-5 report's ``domain_spec`` as a config of its own."""
    report = json.loads((tmp / "order-5-report.json").read_text(encoding="utf-8"))
    (tmp / "order-5-rebuilt.json").write_text(json.dumps(report["domain_spec"]), encoding="utf-8")


def sweep_files_written(tmp: Path) -> str | None:
    for k in (2, 3):
        if not (tmp / f"run.v1/sweep.k{k}").is_file():
            return f"sweep --k 2,3 did not write run.v1/sweep.k{k}"
    return None


NO_WARNING = without("Warning", "warned")
NO_TRACEBACK = without("Traceback", "raised")


class Row(NamedTuple):
    argv: str             # split on whitespace; {tmp} is the config directory
    code: int             # the exit code it must give
    what: str = ""        # its name in a failure message, by default its argv
    why: str = ""         # what the code means, by default MEANING[code]
    stderr: Callable[[str, str], str | None] | None = None
    after: Callable[[Path], str | None] | None = None

    def args(self, tmp) -> list[str]:
        return [token.format(tmp=tmp) for token in self.argv.split()]

    def name(self) -> str:
        return self.what or self.argv.replace("{tmp}/", "")

    def differs(self, tmp: Path, code: int, err: str) -> str | None:
        """The failure message of a run that exited ``code`` with ``err``, or
        None if it is the run the row expects."""
        if code != self.code:
            return f"{self.name()} exited {code}, expected {self.code} ({self.why or MEANING[self.code]})"
        if self.stderr is not None and (message := self.stderr(self.name(), err)):
            return message
        return self.after(tmp) if self.after is not None else None


ROWS = [
    Row("verify default --theorem thm-kernel", 0),
    Row("verify default --theorem prop-combined", 0),
    Row("verify default --theorem prop-steklov", 3, "prop-steklov", "not applicable"),
    Row("expansion --eps 0.0,0.05", 3),
    Row("expansion --eps 0.05,0.05", 3),
    Row("sweep --k 4", 2, why=NO_CONVERGENCE),
    Row("analyze {tmp}/order-5.json --grid 16", 2,
        "analyze of the order-5 shape at --grid 16", NO_CONVERGENCE),
    Row("analyze {tmp}/order-5.json --grid 40 --out {tmp}/order-5-report.json", 0,
        after=rebuild_order_5),
    Row("analyze {tmp}/order-5-rebuilt.json --grid 40", 0),
    Row("analyze {tmp}/string-flag.json", 3, "analyze with a string-valued flag"),
    Row("verify {tmp}/amplitudes-and-eps.json --theorem thm-main", 3,
        "verify with both amplitudes and eps"),
    Row("analyze {tmp}/negative-radius.json", 3, "analyze with R < 0 somewhere"),
    Row("analyze {tmp}/infinite-coefficient.json", 3,
        "analyze of infinite-coefficient.json", stderr=NO_WARNING),
    Row("analyze {tmp}/overflowing-coefficients.json", 3,
        "analyze of overflowing-coefficients.json", stderr=NO_WARNING),
    Row("analyze {tmp}/huge-coefficient.json", 3,
        "analyze of huge-coefficient.json", stderr=NO_TRACEBACK),
    Row("analyze {tmp}/huge-base-radius.json", 3,
        "analyze of huge-base-radius.json", stderr=NO_TRACEBACK),
    Row("verify {tmp}/huge-amplitude.json --theorem thm-main", 3,
        "verify of huge-amplitude.json", stderr=NO_TRACEBACK),
    Row("analyze {tmp}/recenter-fails.json", 2, "analyze of a shape whose recentering fails"),
    Row("verify {tmp}/off-center-family.json --theorem thm-bw", 3,
        "verify thm-bw of an off-center family"),
    Row("verify {tmp}/big-ball.json --theorem thm-main", 1, "verify thm-main of the radius-1.1 disk"),
    Row("verify {tmp}/k4-family.json --theorem thm-bw", 2, "verify thm-bw of the k=4 family",
        stderr=starting("solver gate failure: k=4 eps=0.09 › stein_kernel_solve(k=24, m=1024)")),
    Row("verify {tmp}/mode-only-family.json --theorem thm-main", 0),
    Row("verify {tmp}/integral-mode.json --theorem thm-main", 0),
    Row("analyze {tmp}/integral-dimension.json", 0),
    Row("mc {tmp}/order-2.json --T 5 --fk", 0),
    Row("mc {tmp}/order-2.json --T 5 --fk --dt 0.01", 3, "mc --dt 0.01"),
    Row("sweep --k 2,3 --eps 0.02,0.04,0.06,0.08 --quantities deficit_perimeter "
        "--out {tmp}/run.v1/sweep", 0, after=sweep_files_written),
]


def write_configs(tmp: Path) -> None:
    for name, text in CONFIGS.items():
        (tmp / name).write_text(text + "\n", encoding="utf-8")
    (tmp / "run.v1").mkdir(exist_ok=True)


def console() -> tuple[list[str], dict[str, str] | None, str]:
    """The command that runs a row, its environment (None: this process's)
    and its description."""
    script = shutil.which("steinshapes")
    if script is not None:
        return [script], None, f"the steinshapes script at {script}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "steinshapes.cli"], env, "python -m steinshapes.cli with src on the path"


def main() -> int:
    command, env, description = console()
    print(f"running {len(ROWS)} rows through {description}")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        write_configs(tmp)
        for row in ROWS:
            run = subprocess.run(
                command + row.args(tmp), env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, encoding="utf-8",
            )
            message = row.differs(tmp, run.returncode, run.stderr)
            if message is not None:
                sys.exit(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
