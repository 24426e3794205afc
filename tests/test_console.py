"""The rows of ``console.py``: every argv parses, and each row that expects
an input error gives exit 3 in process; CI runs every row through the
console script."""

from __future__ import annotations

import pytest

import console
from steinshapes.cli import build_parser, main

INPUT_ERRORS = [row for row in console.ROWS if row.code == 3]


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    path = tmp_path_factory.mktemp("console")
    console.write_configs(path)
    return path


@pytest.mark.parametrize("row", console.ROWS, ids=console.Row.name)
def test_every_row_parses(row, tmp):
    args = build_parser().parse_args(row.args(tmp))
    assert args.verb == row.argv.split()[0]


@pytest.mark.parametrize("row", INPUT_ERRORS, ids=console.Row.name)
def test_input_error_rows_exit_three_in_process(row, tmp, capsys):
    code = main(row.args(tmp))
    assert row.differs(tmp, code, capsys.readouterr().err) is None


def test_every_exit_code_has_a_row():
    assert {row.code for row in console.ROWS} == set(console.MEANING)
