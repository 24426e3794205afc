"""Set distances: raster Fraenkel vs the piecewise-analytic polar oracle,
certified dictionary bounds and the node LP."""

from __future__ import annotations

import math

import numpy as np
import pytest

from steinshapes import (
    PerturbationFamily,
    StarDomain,
    fraenkel_asymmetry,
    fraenkel_polar_oracle,
    normalize,
    zolotarev_lower,
    zolotarev_lp,
    zolotarev_oracle,
)
from steinshapes import metrics
from steinshapes.shapes import TWO_PI, BALL_VOLUME, bulk_grid, disk_grid, geometric_functionals
from steinshapes.errors import GridTooCoarse, SolverStall

from reference import rotated

# frozen oracle values, printed once at %.17g and pinned
VN_POLAR_FRAENKEL = 0.12673006187118815
VN_Z_ALPHA1 = 0.092209453499899244
VN_Z_ALPHA05 = 0.08946524072916491
VN_LP_ORACLE = 0.11967016589200467


def ball() -> StarDomain:
    return StarDomain(1.0, ())


def bump_vn() -> StarDomain:
    return normalize(StarDomain(1.0, (0.0, 0.1)), "volume")


def k2_eps002() -> StarDomain:
    return PerturbationFamily(k=2).members()[0]


def unnormalized() -> StarDomain:
    return StarDomain(1.0, (0.0, 0.1))


def holder_norm_over_pairs(points, h, alpha) -> float:
    ii, jj = np.triu_indices(len(h), k=1)
    dist = np.hypot(*(points[ii] - points[jj]).T) ** alpha
    return np.abs(h).max() + (np.abs(h[ii] - h[jj]) / dist).max()


def test_ball_fraenkel_vanishes():
    res = fraenkel_asymmetry(ball())
    assert res.value < 1e-10
    assert abs(res.center[0]) < 1e-8 and abs(res.center[1]) < 1e-8
    assert res.radius == pytest.approx(1.0, rel=1e-12)


def test_fraenkel_grid_matches_polar_oracle():
    oracle = fraenkel_polar_oracle(bump_vn())
    np.testing.assert_allclose(oracle, VN_POLAR_FRAENKEL, rtol=1e-12)
    grid = fraenkel_asymmetry(bump_vn())
    assert abs(grid.value - oracle) < 5e-5


def test_stalled_center_search_is_a_solver_stall(monkeypatch):
    import scipy.optimize

    def stalled(fun, x0, **kwargs):
        return scipy.optimize.OptimizeResult(x=x0, success=False, message="iteration cap")

    monkeypatch.setattr(scipy.optimize, "minimize", stalled)
    with pytest.raises(SolverStall, match="center search stalled"):
        fraenkel_asymmetry(bump_vn())


def test_raster_grid_floors():
    with pytest.raises(GridTooCoarse):
        fraenkel_asymmetry(ball(), n=64)


def test_dictionary_bound_frozen():
    est1 = zolotarev_lower(bump_vn(), alpha=1.0)
    np.testing.assert_allclose(est1.lower_bound, VN_Z_ALPHA1, rtol=1e-10)
    assert est1.witness == "harmonic-moment k=2"
    est_half = zolotarev_lower(bump_vn(), alpha=0.5)
    np.testing.assert_allclose(est_half.lower_bound, VN_Z_ALPHA05, rtol=1e-10)
    assert all(value >= 0.0 for _, value, _ in est1.features)
    assert est1.lower_bound == max(value for _, value, _ in est1.features)


def test_dictionary_bound_claims_no_upper_end():
    # a lower bound with no certified slack: error_bound is inf, not 0
    assert zolotarev_lower(bump_vn()).error_bound == math.inf
    assert zolotarev_lower(ball(), alpha=0.5).error_bound == math.inf


def test_dictionary_bound_is_rotation_invariant():
    base = zolotarev_lower(bump_vn(), alpha=1.0).lower_bound
    turned = zolotarev_lower(rotated(bump_vn(), 0.7), alpha=1.0).lower_bound
    assert abs(base - turned) < 1e-6


def test_lp_two_point_closed_form():
    # max h1 - h2 over m + s <= 1 with |h| <= m and |h1 - h2| <= s
    # at unit separation splits the budget as m = 1/3, s = 2/3
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    optimum, h, m, s = zolotarev_lp(points, np.array([1.0, -1.0]), alpha=1.0)
    assert optimum == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert m == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert s == pytest.approx(2.0 / 3.0, rel=1e-6)
    assert h[0] - h[1] == pytest.approx(2.0 / 3.0, rel=1e-6)


def test_lp_oracle_frozen():
    est = zolotarev_oracle(bump_vn())
    np.testing.assert_allclose(est.lower_bound, VN_LP_ORACLE, rtol=1e-10)
    assert est.method == "lp-oracle"
    assert est.error_bound > 0.0
    assert len(est.node_values) == est.grid


def test_lp_oracle_solves_one_lp(monkeypatch):
    calls = []

    def count(name):
        original = getattr(metrics, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics, name, counted)

    count("_lp_nodes")
    count("_band_lp")
    zolotarev_oracle(bump_vn())
    assert calls == ["_lp_nodes", "_band_lp"]


def test_lp_oracle_dominates_dictionary_here():
    oracle = zolotarev_oracle(bump_vn()).lower_bound
    dictionary = zolotarev_lower(bump_vn()).lower_bound
    assert oracle > dictionary


def test_lp_oracle_ball_within_slack():
    est = zolotarev_oracle(ball())
    assert abs(est.lower_bound) <= 1e-9
    assert abs(est.lower_bound) <= est.error_bound


def test_lp_node_bounds():
    with pytest.raises(ValueError):
        zolotarev_oracle(ball(), n_g=500)
    with pytest.raises(GridTooCoarse):
        zolotarev_oracle(ball(), n_g=8)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("make", [bump_vn, k2_eps002, unnormalized])
def test_lp_oracle_matches_dense_lp_over_every_node(make, alpha):
    # zero-mass nodes leave the LP; the optimum moves by at most their mass
    domain = make()
    points, w_ball, w_dom, width = metrics._lp_nodes(domain, 200)
    gap = w_ball - w_dom
    dense, h_dense, _, _ = zolotarev_lp(points, gap, alpha)
    zero_mass = np.abs(gap) <= metrics.ZERO_MASS_TOL * width * width
    dropped = np.abs(gap[zero_mass]).sum()
    est = zolotarev_oracle(domain, alpha)
    assert est.grid == len(points)
    assert abs(est.lower_bound - dense) <= dropped + 1e-15
    defect = abs(w_ball.sum() - BALL_VOLUME) + abs(w_dom.sum() - BALL_VOLUME)
    modulus = 2.0 * BALL_VOLUME * (width * np.sqrt(0.5)) ** alpha
    assert est.error_bound == defect + modulus + dropped
    h = np.array(est.node_values)
    assert holder_norm_over_pairs(points, h, alpha) <= 1.0 + 1e-12
    n_live = len(points) - int(zero_mass.sum())
    assert est.witness == f"lp node values (n={len(points)}, {n_live} in the LP)"
    if make is unnormalized:
        assert n_live == len(points)
        assert est.lower_bound == dense
        assert np.array_equal(h, h_dense)
    else:
        assert n_live < 20


def test_band_lp_of_the_ball_is_zero():
    points, w_ball, w_dom, width = metrics._lp_nodes(ball(), 200)
    value, h, dropped, n_live = metrics._band_lp(
        points, w_ball - w_dom, 1.0, width * width
    )
    assert (value, n_live) == (0.0, 0)
    assert h.shape == (len(points),) and not h.any()
    assert dropped <= 1e-12


def test_band_lp_with_one_live_node_is_a_constant():
    # max h g over m + s <= 1 with one charged node: h = sign g, m = 1, s = 0
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    gap = np.array([1e-16, -0.3, 0.0, -1e-16])
    value, h, dropped, n_live = metrics._band_lp(points, gap, 0.5, 1.0)
    assert (value, n_live) == (0.3, 1)
    assert dropped == 2e-16
    assert np.array_equal(h, np.full(4, -1.0))
    assert holder_norm_over_pairs(points, h, 0.5) == 1.0


def test_alpha_validation():
    with pytest.raises(ValueError):
        zolotarev_lower(ball(), alpha=0.0)
    with pytest.raises(ValueError):
        zolotarev_oracle(ball(), alpha=1.5)


def order3() -> StarDomain:
    return StarDomain(1.0, (0.03, -0.02, 0.04), (0.01, 0.02, -0.03))


def rotated_order3() -> StarDomain:
    return rotated(order3(), 0.3)


def wide() -> StarDomain:
    return StarDomain(1.2, (0.05, -0.03), (0.02, 0.04))


def speck() -> StarDomain:
    # innermost radii ~3.5e-13: every ray is evaluated, as r^2 cannot
    # clear the rounding of |x - x0|^2 there
    return StarDomain(1e-9, (0.0, 1e-10))


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("make", [bump_vn, unnormalized, order3, rotated_order3, wide, speck])
def test_cusp_bumps_match_the_per_bump_loop(make, alpha):
    # the cached ball side and the (8, N) domain side give every feature
    # the bits of one bump at a time
    domain = make()
    ratio = BALL_VOLUME / geometric_functionals(domain).volume
    grid, disk = bulk_grid(domain, 256, 64), disk_grid(256, 64)
    loop = []
    for idx in range(metrics.DICTIONARY_SIZE):
        ang = TWO_PI * idx / metrics.DICTIONARY_SIZE
        x0 = np.array([math.cos(ang), math.sin(ang)])
        bump_ball = np.minimum(1.0, np.hypot(*(disk.points - x0).T) ** alpha)
        bump_dom = np.minimum(1.0, np.hypot(*(grid.points - x0).T) ** alpha)
        value = abs(float(disk.weights @ bump_ball) - ratio * float(grid.weights @ bump_dom)) / 2.0
        loop.append((f"cusp-bump angle={ang:.3f}", value, "none"))
    features = zolotarev_lower(domain, alpha).features
    assert [f for f in features if f[0].startswith("cusp-bump")] == loop


@pytest.mark.parametrize("seed", range(4))
def test_far_rays_lie_outside_the_bump_cusp(seed):
    # the rays zolotarev_lower leaves at 1.0 for a bump: computed
    # cos(theta - phi0) <= 0 and an innermost r^2 above 16 eps
    rng = np.random.default_rng(seed)
    order = int(rng.integers(1, 9))
    amp = rng.uniform(0.01, 0.3) / order
    base = rng.uniform(0.5, 1.5)
    cos, sin = rng.uniform(-amp, amp, (2, order))
    domain = StarDomain(base, tuple(cos), tuple(sin))
    grid = bulk_grid(domain)
    ct, st = grid.directions
    inner = grid.r[:, 0]
    rays = grid.points.reshape(*grid.r.shape, 2)
    for x0 in metrics._bump_centers():
        far = (ct * x0[0] + st * x0[1] <= 0.0) & (inner * inner > 16.0 * np.finfo(float).eps)
        assert far.sum() >= 127
        assert (np.hypot(*(rays[far] - x0).transpose(2, 0, 1)) >= 1.0).all()


def test_ball_bumps_are_built_once_per_alpha():
    metrics._ball_bumps.cache_clear()
    for domain in (bump_vn(), order3()):
        for alpha in (1.0, 0.5):
            zolotarev_lower(domain, alpha)
    info = metrics._ball_bumps.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def full_raster_coverage(domain, x, y, h):
    rho = np.hypot(x, y)
    theta = np.arctan2(y, x)
    return np.clip((domain.radius(theta) - rho) / h + 0.5, 0.0, 1.0)


@pytest.mark.parametrize("n", [128, 255, 256])
@pytest.mark.parametrize("order", [0, 2, 4, 6])
def test_coverage_matches_the_full_raster(order, n):
    # cells more than one width off the annulus |rho - base| <= spread are
    # set to 1 or 0 without evaluating R; they are exactly what the clip gives
    rng = np.random.default_rng(order)
    base = rng.uniform(0.6, 1.6)
    amp = rng.uniform(0.05, 0.3) * base / max(order, 1)
    domain = StarDomain(
        base, tuple(rng.uniform(-amp, amp, order)), tuple(rng.uniform(-amp, amp, order))
    )
    x, y, h = metrics._raster_axes(rng.uniform(1.2, 2.5) * base, n)
    coverage = metrics._domain_coverage(domain, x, y, h)
    assert np.array_equal(coverage, full_raster_coverage(domain, x, y, h))
    assert 0.0 < coverage.mean() < 1.0
