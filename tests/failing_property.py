"""A failing property test is reported as a test failure, not an internal
error.

    python3 tests/failing_property.py

runs pytest, under the project's configuration, on this file's one
``@given`` test, which always fails, and exits nonzero unless pytest exits
1 (tests failed).  pytest does not collect the file on its own: its name is
not ``test_*.py``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from hypothesis import given, strategies as st

ROOT = Path(__file__).resolve().parent.parent


@given(st.integers())
def test_fails(x):
    assert x < 0


def main() -> int:
    status = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", __file__]
    ).returncode
    if status != 1:
        sys.exit(f"a failing @given test made pytest exit {status}, expected 1 (tests failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
