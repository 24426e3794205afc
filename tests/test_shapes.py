from __future__ import annotations

import json

import numpy as np
import pytest

from steinshapes import (
    IoFailure,
    NoConvergence,
    NonPositiveRadius,
    NotStarShaped,
    RecenterFailed,
    StarDomain,
    build_domain,
    geometric_functionals,
    normalize,
)
from steinshapes import metrics, shapes, stein
from steinshapes.shapes import (
    QUAD_START,
    QUAD_TOL,
    boundary_frame,
    bulk_grid,
    circle_grid,
    doubling_quadrature,
    load_shape_spec,
    parse_shape_spec,
    regularity_params,
    trig_zeros,
    _radius_samples,
    _validate,
)

from reference import checked_doubling, full_doubling, holder_norm, rotated

# R = 1 + 0.1 cos 2theta, quadrature-exact references
BUMP_VOLUME = 3.1573006168577415
BUMP_PERIMETER = 6.3457068653416648
BUMP_MOMENTUM = 6.4398006558339551
BUMP_KAPPA = 0.98039027542355983
BUMP_LAMBDA = 0.69999937250785271


def bump() -> StarDomain:
    return StarDomain(1.0, (0.0, 0.1))


def test_radius_matches_closed_form():
    dom = StarDomain(1.0, (0.05, 0.1), (0.0, 0.02))
    th = np.linspace(0.0, 2.0 * np.pi, 13)
    want = (
        1.0
        + 0.05 * np.cos(th)
        + 0.1 * np.cos(2 * th)
        + 0.02 * np.sin(2 * th)
    )
    np.testing.assert_allclose(dom.radius(th), want, rtol=0, atol=1e-15)


def test_radius_derivatives_by_finite_differences():
    dom = bump()
    th = np.linspace(0.1, 6.0, 7)
    h = 1e-6
    fd1 = (dom.radius(th + h) - dom.radius(th - h)) / (2 * h)
    fd2 = (dom.radius(th + h) - 2 * dom.radius(th) + dom.radius(th - h)) / h**2
    _, rp, rpp = dom.radius_derivatives(th, 2)
    np.testing.assert_allclose(rp, fd1, atol=1e-8)
    np.testing.assert_allclose(rpp, fd2, atol=1e-3)


def test_build_domain_rejects_nonpositive_base():
    with pytest.raises(NonPositiveRadius):
        build_domain({"base_radius": -1.0})


def test_build_domain_rejects_vanishing_radius():
    with pytest.raises(NonPositiveRadius):
        build_domain({"base_radius": 1.0, "fourier_cos": [1.2]})


def test_build_domain_rejects_radius_hidden_between_samples():
    # sin(4096 theta) vanishes on the 4096- and 8192-point grids, yet
    # R = 1 + 1.5 sin(4096 theta) reaches -0.5 at theta = 3 pi / 8192
    spec = {"base_radius": 1.0, "fourier_sin": [0.0] * 4095 + [1.5]}
    with pytest.raises(NonPositiveRadius):
        build_domain(spec)
    with pytest.raises(NonPositiveRadius):
        _validate(StarDomain(1.0, (), (0.0,) * 4095 + (1.5,)))


def test_validation_rejects_a_radius_too_thin_to_certify():
    # min R = 1e-9 > 0 would need about 3e9 samples to certify
    with pytest.raises(NonPositiveRadius, match="cannot certify"):
        _validate(StarDomain(1.0, (-(1.0 - 1e-9),)))


def test_validation_rejects_an_overflowing_slope():
    # R^2 + R'^2 overflows, so kappa = R / inf = 0 on the check grid
    with pytest.raises(NotStarShaped):
        _validate(StarDomain(1e160, (1e159,)))


def test_trig_zeros_survive_a_negligible_top_coefficient():
    # R' of 1 + 0.03125 sin theta + 1e-233 sin 2 theta; np.roots on the
    # unpruned z-polynomial finds no unit-circle roots at all
    zeros = trig_zeros(0.0, (0.03125, 2e-233), ())
    np.testing.assert_allclose(zeros, [0.5 * np.pi, 1.5 * np.pi], atol=1e-14)


def test_radius_samples_fold_high_frequencies():
    dom = StarDomain(0.5, (0.0,) * 40 + (0.2,), (0.0,) * 50 + (0.1,))
    theta = np.arange(64) * (2.0 * np.pi / 64)
    np.testing.assert_allclose(_radius_samples(dom, 64), dom.radius(theta), atol=1e-14)


def test_parse_shape_spec_rejects_unknown_keys():
    with pytest.raises(IoFailure):
        parse_shape_spec({"base_radius": 1.0, "bogus": 2})


def test_parse_shape_spec_accepts_only_dimension_two():
    assert parse_shape_spec({"dimension": 2}) == parse_shape_spec({})
    with pytest.raises(IoFailure, match="dimension"):
        parse_shape_spec({"dimension": 3})


def test_parse_shape_spec_names_the_key_of_a_mistyped_value():
    # a string is iterable, so "05" once read as the coefficients (0.0, 5.0)
    with pytest.raises(IoFailure, match="fourier_cos"):
        parse_shape_spec({"fourier_cos": "05"})


def test_load_shape_spec_round_trip(tmp_path):
    cfg = {"base_radius": 1.0, "fourier_cos": [0.0, 0.1], "label": "b"}
    path = tmp_path / "dom.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    spec = load_shape_spec(path)
    assert spec.base_radius == 1.0
    assert spec.fourier_cos == (0.0, 0.1)
    assert spec.label == "b"


def test_ball_functionals_exact():
    g = geometric_functionals(StarDomain(1.0))
    assert abs(g.volume - np.pi) < 1e-14
    assert abs(g.perimeter - 2 * np.pi) < 1e-13
    assert abs(g.momentum - 2 * np.pi) < 1e-13
    assert np.hypot(*g.barycenter) < 1e-15
    assert abs(g.deficit_perimeter) < 1e-13
    assert abs(g.deficit_momentum) < 1e-13


def test_bump_functionals_frozen():
    g = geometric_functionals(bump())
    np.testing.assert_allclose(g.volume, BUMP_VOLUME, rtol=1e-13)
    np.testing.assert_allclose(g.perimeter, BUMP_PERIMETER, rtol=1e-13)
    np.testing.assert_allclose(g.momentum, BUMP_MOMENTUM, rtol=1e-13)
    assert g.deficit_perimeter == pytest.approx(g.perimeter - 2 * np.pi, abs=1e-14)
    assert g.deficit_momentum == pytest.approx(g.momentum - 2 * np.pi, abs=1e-14)


def test_volume_formula_cross_check():
    # |Omega| = half the integral of R^2
    dom = bump()
    th = np.linspace(0.0, 2 * np.pi, 1 << 14, endpoint=False)
    riemann = 0.5 * np.mean(dom.radius(th) ** 2) * 2 * np.pi
    assert abs(geometric_functionals(dom).volume - riemann) < 1e-12


def test_normalize_volume():
    dom = normalize(bump(), "volume")
    assert abs(geometric_functionals(dom).volume - np.pi) < 1e-12


def test_normalize_recenter():
    dom = normalize(StarDomain(1.0, (0.1, 0.05)), "recenter")
    g = geometric_functionals(dom)
    assert np.hypot(*g.barycenter) < 1e-9


def test_normalize_chain_keeps_both_properties():
    # volume rescaling is about the origin, so it preserves a zero barycenter
    dom = normalize(normalize(StarDomain(1.0, (0.1, 0.05)), "recenter"), "volume")
    g = geometric_functionals(dom)
    assert abs(g.volume - np.pi) < 1e-9
    assert np.hypot(*g.barycenter) < 1e-9


def test_recenter_rejects_multiple_boundary_crossings():
    # the boundary barycenter of 1 + 0.45 cos theta + 0.4 cos 8 theta sees
    # some rays cross the boundary more than once
    spec = {"fourier_cos": [0.45, 0, 0, 0, 0, 0, 0, 0.4], "recenter": True}
    with pytest.raises(RecenterFailed, match="multiple boundary crossings"):
        build_domain(spec)


def test_normalize_rejects_unknown_mode():
    with pytest.raises(ValueError):
        normalize(bump(), "both")


def test_scaling_covariance():
    g1 = geometric_functionals(bump())
    g2 = geometric_functionals(bump().scaled(0.5))
    np.testing.assert_allclose(g2.volume, 0.25 * g1.volume, rtol=1e-12)
    np.testing.assert_allclose(g2.perimeter, 0.5 * g1.perimeter, rtol=1e-12)
    np.testing.assert_allclose(g2.momentum, 0.125 * g1.momentum, rtol=1e-12)


def test_rotation_invariance():
    g1 = geometric_functionals(bump())
    g2 = geometric_functionals(rotated(bump(), 1.3))
    np.testing.assert_allclose(g2.volume, g1.volume, rtol=1e-12)
    np.testing.assert_allclose(g2.perimeter, g1.perimeter, rtol=1e-12)
    np.testing.assert_allclose(g2.momentum, g1.momentum, rtol=1e-12)


def test_doubling_quadrature_trig_exact():
    val, m = doubling_quadrature(lambda th: np.cos(th) ** 2)
    assert abs(val - np.pi) < 1e-12
    assert m <= 512


def test_doubling_quadrature_vector_integrand():
    val, _ = doubling_quadrature(
        lambda th: np.stack([np.ones_like(th), np.sin(th) ** 2], axis=-1)
    )
    np.testing.assert_allclose(val, [2 * np.pi, np.pi], atol=1e-12)


def test_doubling_quadrature_stalls_on_kink():
    # |cos| has kinks; the trapezoid rule cannot reach 1e-12 by doubling
    with pytest.raises(NoConvergence):
        doubling_quadrature(lambda th: np.abs(np.cos(th)))


def random_domains(seed, count=8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        order = int(rng.integers(1, 7))
        amp = float(rng.uniform(0.01, 0.08))
        out.append(StarDomain(1.0, tuple(rng.uniform(-amp, amp, order)), tuple(rng.uniform(-amp, amp, order))))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_nested_doubling_keeps_the_bits_of_full_reevaluation(seed, monkeypatch):
    # every trapezoid doubling that the functionals, deficits, moments and
    # test panel run, held to the full re-evaluation loop on the same grid
    checked = []

    def counted(integrand, tol=QUAD_TOL, breaks=()):
        got = checked_doubling(integrand, tol, breaks)
        if np.size(breaks) == 0:
            checked.append(got[1])
        return got

    for module in (shapes, stein, metrics):
        monkeypatch.setattr(module, "doubling_quadrature", counted)
    for domain in random_domains(seed):
        geometric_functionals(domain)
        stein.boundary_deficits(domain)
        metrics._moments(domain)
        grid = bulk_grid(domain)
        stein._panel(domain, np.zeros((grid.size, 2, 2)), grid)
    assert len(checked) == 8 * 5  # functionals twice (once in the deficits)


def test_nested_doubling_evaluates_each_angle_once():
    # 1 + cos 256 theta + cos 384 theta: the trapezoid rule on n angles reads
    # 2 pi plus 2 pi for each frequency that n divides, so 6 pi, 4 pi, 2 pi
    # and 2 pi on 128 to 1024 angles, and both loops stop at n = 1024
    seen = []

    def integrand(theta):
        seen.append(theta)
        return 1.0 + np.cos(256.0 * theta) + np.cos(384.0 * theta)

    val, n = doubling_quadrature(integrand)
    assert n == 1024 and val == pytest.approx(2.0 * np.pi, abs=1e-12)
    nodes = np.concatenate(seen)
    assert nodes.size == n
    assert np.array_equal(np.sort(nodes), circle_grid(n)[0])
    seen.clear()
    assert full_doubling(integrand) == (val, n)
    assert sum(theta.size for theta in seen) == 2 * n - QUAD_START


def test_trig_zeros_cos_2theta():
    zeros = trig_zeros(0.0, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    want = np.array([np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4])
    np.testing.assert_allclose(np.sort(zeros), want, atol=1e-10)


def test_trig_zeros_constant_has_none():
    assert trig_zeros(1.0, np.zeros(2), np.zeros(2)).size == 0


def test_segmented_quadrature_abs_cos():
    breaks = trig_zeros(0.0, np.array([1.0]), np.array([0.0]))
    val, _ = doubling_quadrature(lambda th: np.abs(np.cos(th)), breaks=breaks)
    assert abs(val - 4.0) < 1e-12


def test_segmented_quadrature_no_breaks_falls_back():
    val, _ = doubling_quadrature(lambda th: np.cos(th) ** 2, breaks=np.array([]))
    assert abs(val - np.pi) < 1e-12


def test_segmented_quadrature_vector_integrand():
    # |cos| and |sin| kink at the zeros of cos theta sin theta = sin(2 theta) / 2
    breaks = trig_zeros(0.0, (), (0.0, 0.5))
    assert breaks.size == 4
    val, nodes = doubling_quadrature(
        lambda th: np.stack([np.abs(np.cos(th)), np.abs(np.sin(th))], axis=-1),
        breaks=breaks,
    )
    np.testing.assert_allclose(val, [4.0, 4.0], rtol=0.0, atol=1e-12)
    assert nodes % breaks.size == 0


def test_boundary_frame_ball():
    fr = boundary_frame(StarDomain(1.0), m=256)
    np.testing.assert_allclose(np.hypot(fr.points[:, 0], fr.points[:, 1]), 1.0, atol=1e-15)
    np.testing.assert_allclose(fr.normals, fr.points, atol=1e-15)
    np.testing.assert_allclose(fr.jacobian, 1.0, atol=1e-15)
    np.testing.assert_allclose(fr.curvature, 1.0, atol=1e-12)
    np.testing.assert_allclose(fr.weights, 2 * np.pi / 256, rtol=1e-15)


def test_boundary_frame_normals_are_unit():
    fr = boundary_frame(bump(), m=512)
    np.testing.assert_allclose(
        np.hypot(fr.normals[:, 0], fr.normals[:, 1]), 1.0, atol=1e-14
    )


def test_regularity_ball():
    rp = regularity_params(StarDomain(1.0))
    assert rp.kappa == pytest.approx(1.0, abs=1e-14)
    assert rp.lambda_est == pytest.approx(0.0, abs=1e-12)
    assert rp.convex


def test_regularity_bump_frozen():
    rp = regularity_params(bump())
    np.testing.assert_allclose(rp.kappa, BUMP_KAPPA, rtol=1e-10)
    np.testing.assert_allclose(rp.lambda_est, BUMP_LAMBDA, rtol=1e-6)
    assert rp.convex


def test_bulk_grid_ball_moments():
    grid = bulk_grid(StarDomain(1.0))
    w = grid.weights
    assert abs(w.sum() - np.pi) < 1e-12
    assert abs(grid.points[:, 0] ** 2 @ w - np.pi / 4) < 1e-12


def test_bulk_grid_matches_boundary_route():
    # bulk integral of 1 must agree with the boundary volume formula
    dom = bump()
    assert abs(bulk_grid(dom).weights.sum() - BUMP_VOLUME) < 1e-10


def test_holder_norm_linear_profile():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    vals = np.array([0.0, 3.0, 6.0])
    # sup norm 6 plus Lipschitz constant 3
    assert holder_norm(pts, vals, 1.0) == pytest.approx(9.0)


def test_holder_norm_alpha_half():
    pts = np.array([[0.0, 0.0], [4.0, 0.0]])
    vals = np.array([0.0, 1.0])
    assert holder_norm(pts, vals, 0.5) == pytest.approx(1.0 + 0.5)
