"""Exception taxonomy: the class alone decides input error versus gate,
and every public entry point raises an input error, never a TypeError or a
wrong result, on a bad size, order, seed or exponent."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import steinshapes as ss
from steinshapes import _polar, cli, errors

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
    errors.NotElliptic,
    errors.ResidualTooLarge,
    errors.IdentityViolated,
    errors.DegenerateBasis,
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


BALL = ss.StarDomain(1.0)
AMPLITUDES = [0.04, 0.08]
OFF_CENTER = ss.PerturbationFamily(k=1, amplitudes=(0.02, 0.04))
NEARLY_CENTERED = ss.normalize(ss.StarDomain(1.0, (1e-8,)), "volume")


def _family_file(tmp_path, payload):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return cli._family_from_path(str(path), None)


RESONANT = _polar.PolarField(_polar.LoosePolarBasis([2], [4], [_polar.COS]), np.ones(1))
SHORT_PATH = ss.PathConfig(horizon=2.0)
NAN_STEPS = np.full((SHORT_PATH.n_steps, 2), math.nan)
HUGE = 10**400  # a JSON integer beyond the float range

# class raised -> (entry point and bad value, call on a scratch directory)
BAD_ARGUMENTS = {
    errors.InputError: [
        ("stein_kernel_solve k=1.5", lambda tmp: ss.stein_kernel_solve(BALL, k=1.5)),
        ("stein_kernel_solve k=True", lambda tmp: ss.stein_kernel_solve(BALL, k=True)),
        ("steklov_spectrum k=2.5", lambda tmp: ss.steklov_spectrum(BALL, k=2.5)),
        ("steklov_spectrum k=0", lambda tmp: ss.steklov_spectrum(BALL, k=0)),
        ("PerturbationFamily k=2.5", lambda tmp: ss.PerturbationFamily(k=2.5)),
        ("PerturbationFamily k=True", lambda tmp: ss.PerturbationFamily(k=True)),
        ("PerturbationFamily alpha=True", lambda tmp: ss.PerturbationFamily(alpha=True)),
        ("expansion_validator k=2.5", lambda tmp: ss.expansion_validator(2.5, (0.05, 0.1))),
        ("expansion_validator k=0", lambda tmp: ss.expansion_validator(0, (0.05, 0.1))),
        ("PathConfig seed=1.5", lambda tmp: ss.PathConfig(seed=1.5)),
        ("PathConfig seed=True", lambda tmp: ss.PathConfig(seed=True)),
        ("PathConfig seed=-1", lambda tmp: ss.PathConfig(seed=-1)),
        ("path increments=nan", lambda tmp: ss.path(BALL, SHORT_PATH, NAN_STEPS)),
        ("zolotarev_lower alpha=True", lambda tmp: ss.zolotarev_lower(BALL, alpha=True)),
        (
            "verify_inequality alpha=True",
            lambda tmp: ss.verify_inequality([BALL], "thm-main", alpha=True),
        ),
        (
            "verify_inequality refine=1.0",
            lambda tmp: ss.verify_inequality([BALL], "thm-main", refine=1.0),
        ),
        ("schauder_probe alpha=0", lambda tmp: ss.schauder_probe(BALL, [ss.rhs_x1()], 0.0)),
        ("regularity_params alpha=1.5", lambda tmp: ss.regularity_params(BALL, 1.5)),
        ("solve_oblique h=r^2 cos 4theta", lambda tmp: ss.solve_oblique(BALL, RESONANT)),
        ("rhs_harmonic k=-1", lambda tmp: ss.rhs_harmonic(-1)),
        ("rhs_harmonic k=2.5", lambda tmp: ss.rhs_harmonic(2.5)),
        ("schauder_probe h=0", lambda tmp: ss.schauder_probe(BALL, [ss.rhs_constant(0.0)])),
        (
            "schauder_probe h=nan first",
            lambda tmp: ss.schauder_probe(BALL, [ss.rhs_constant(math.nan), ss.rhs_x1()]),
        ),
        (
            "schauder_probe h=nan last",
            lambda tmp: ss.schauder_probe(BALL, [ss.rhs_x1(), ss.rhs_constant(math.nan)]),
        ),
        ("schauder_probe h=inf", lambda tmp: ss.schauder_probe(BALL, [ss.rhs_constant(math.inf)])),
        (
            "zolotarev_lp one node",
            lambda tmp: ss.zolotarev_lp(np.zeros((1, 2)), np.ones(1), 1.0),
        ),
    ],
    errors.NonPositiveRadius: [
        # R = 1 + 2 cos theta is negative near theta = pi
        ("StarDomain cos=(2.0,)", lambda tmp: ss.StarDomain(1.0, (2.0,))),
        ("StarDomain base=True", lambda tmp: ss.StarDomain(True)),
        ("StarDomain cos=('x',)", lambda tmp: ss.StarDomain(1.0, ("x",))),
        ("StarDomain base=inf", lambda tmp: ss.StarDomain(math.inf)),
        ("StarDomain base=nan", lambda tmp: ss.StarDomain(math.nan)),
        ("StarDomain cos=(inf,)", lambda tmp: ss.StarDomain(1.0, (math.inf,))),
        ("StarDomain sin=(-inf,)", lambda tmp: ss.StarDomain(1.0, (), (-math.inf,))),
        # |a_1| + 2 |a_2| overflows the float range
        ("StarDomain cos=(1e308, 1e308)", lambda tmp: ss.StarDomain(1.0, (1e308, 1e308))),
        (
            "geometric_functionals cos=(2.0,)",
            lambda tmp: ss.geometric_functionals(ss.StarDomain(1.0, (2.0,))),
        ),
        (
            "verify_inequality cos=(2.0,)",
            lambda tmp: ss.verify_inequality([ss.StarDomain(1.0, (2.0,))], "thm-main"),
        ),
    ],
    errors.GridTooCoarse: [
        ("stein_kernel_solve m=100.0", lambda tmp: ss.stein_kernel_solve(BALL, m=100.0)),
        # 16 collocation rows for 48 unknowns
        ("stein_kernel_solve k=24 m=16", lambda tmp: ss.stein_kernel_solve(BALL, k=24, m=16)),
        ("steklov_spectrum m=100.5", lambda tmp: ss.steklov_spectrum(BALL, m=100.5)),
        ("circle_grid m=0", lambda tmp: ss.circle_grid(0)),
        ("disk_grid n_theta=10.5", lambda tmp: ss.disk_grid(10.5, 8)),
        ("bulk_grid n_r=8.5", lambda tmp: ss.bulk_grid(BALL, 16, 8.5)),
        ("boundary_frame m=64.0", lambda tmp: ss.boundary_frame(BALL, 64.0)),
        ("boundary_frame m=9", lambda tmp: ss.boundary_frame(BALL, 9)),
        ("zolotarev_oracle n_g=200.5", lambda tmp: ss.zolotarev_oracle(BALL, n_g=200.5)),
        ("fraenkel_asymmetry n=True", lambda tmp: ss.fraenkel_asymmetry(BALL, n=True)),
    ],
    errors.NormalizationMissing: [
        # volume-normalized 1 + eps cos theta: |int x dS| = 0.126 at eps = 0.02
        (
            "verify_inequality thm-bw off center",
            lambda tmp: ss.verify_inequality(OFF_CENTER, "thm-bw"),
        ),
        (
            "verify_inequality thm-kernel off center",
            lambda tmp: ss.verify_inequality(OFF_CENTER, "thm-kernel"),
        ),
        (
            "verify_inequality prop-steklov off center",
            lambda tmp: ss.verify_inequality(OFF_CENTER, "prop-steklov"),
        ),
        # |int x dS| = 6.3e-8 > CENTER_GATE = 1e-8
        (
            "verify_inequality prop-steklov nearly centered",
            lambda tmp: ss.verify_inequality([NEARLY_CENTERED], "prop-steklov"),
        ),
    ],
    errors.IoFailure: [
        ("build_domain 42", lambda tmp: ss.build_domain(42)),
        ("shape config dimension=2.5", lambda tmp: ss.parse_shape_spec({"dimension": 2.5})),
        ("shape config dimension=true", lambda tmp: ss.parse_shape_spec({"dimension": True})),
        (
            "family config amplitudes and eps",
            lambda tmp: _family_file(tmp, {"amplitudes": AMPLITUDES, "eps": AMPLITUDES}),
        ),
        (
            "family config k=2.5",
            lambda tmp: _family_file(tmp, {"k": 2.5, "amplitudes": AMPLITUDES}),
        ),
        ("shape config fourier_cos=10**400", lambda tmp: ss.parse_shape_spec({"fourier_cos": [HUGE]})),
        ("shape config base_radius=10**400", lambda tmp: ss.parse_shape_spec({"base_radius": HUGE})),
        (
            "family config amplitudes=10**400",
            lambda tmp: _family_file(tmp, {"k": 3, "amplitudes": [HUGE]}),
        ),
    ],
}


@pytest.mark.parametrize(
    "cls, call",
    [
        pytest.param(cls, call, id=name)
        for cls, rows in BAD_ARGUMENTS.items()
        for name, call in rows
    ],
)
def test_bad_argument_raises_an_input_error(cls, call, tmp_path):
    assert issubclass(cls, errors.InputError)
    with pytest.raises(cls):
        call(tmp_path)


def test_integral_valued_config_integers_are_integers(tmp_path):
    # JSON has one number type: 2.0 is the integer 2 for every integer key
    assert ss.parse_shape_spec({"dimension": 2.0}) == ss.parse_shape_spec({})
    family = _family_file(tmp_path, {"k": 2.0, "amplitudes": AMPLITUDES})
    assert family == ss.PerturbationFamily(k=2, amplitudes=tuple(AMPLITUDES))
    assert type(family.k) is int
