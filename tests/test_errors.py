"""Exception taxonomy: the class alone decides input error versus gate."""

from __future__ import annotations

import pytest

from steinshapes import errors

INPUT_CLASSES = (
    errors.IoFailure,
    errors.NonPositiveRadius,
    errors.NotStarShaped,
    errors.GridTooCoarse,
    errors.NormalizationMissing,
    errors.NotApplicable,
)
GATE_CLASSES = (
    errors.NoConvergence,
    errors.RecenterFailed,
    errors.IllConditioned,
    errors.NotOblique,
    errors.NotElliptic,
    errors.ResidualTooLarge,
    errors.NotCentered,
    errors.IdentityViolated,
    errors.NotConverged,
    errors.DegenerateBasis,
    errors.ZeroTrace,
    errors.SolverStall,
    errors.ReflectionFailed,
)


@pytest.mark.parametrize("cls", INPUT_CLASSES, ids=lambda c: c.__name__)
def test_input_classes_are_input_errors(cls):
    assert issubclass(cls, errors.InputError)
    assert issubclass(cls, ValueError)


@pytest.mark.parametrize("cls", GATE_CLASSES, ids=lambda c: c.__name__)
def test_gate_classes_are_not_input_errors(cls):
    assert issubclass(cls, errors.SteinShapesError)
    assert not issubclass(cls, errors.InputError)
    assert not issubclass(cls, ValueError)


def test_every_class_is_sorted():
    listed = set(INPUT_CLASSES) | set(GATE_CLASSES)
    defined = {
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type)
        and issubclass(obj, errors.SteinShapesError)
        and obj not in (errors.SteinShapesError, errors.InputError)
    }
    assert defined == listed
