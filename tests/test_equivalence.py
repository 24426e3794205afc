"""Seed 0 of each benchmark-input equivalence check in ``equivalence.py``;
CI runs all 16 seeds."""

from __future__ import annotations

import pytest

import equivalence
from steinshapes import metrics, shapes, stein


@pytest.mark.parametrize("check", sorted(equivalence.CHECKS))
def test_benchmark_inputs_keep_the_reference_bits(check):
    quadratures = [module.doubling_quadrature for module in (shapes, stein, metrics)]
    equivalence.CHECKS[check](0)
    assert [module.doubling_quadrature for module in (shapes, stein, metrics)] == quadratures
