"""Reflected Brownian motion: stepper invariants, occupation averages,
and the Monte Carlo cross-check of the spectral compatibility constant."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from steinshapes import rbm
from steinshapes.errors import ReflectionFailed, ResidualTooLarge
from steinshapes.oblique import parse_rhs, solve_oblique
from steinshapes.shapes import StarDomain

BALL = StarDomain(1.0, ())

# occupation average of r^2 on the ball, seed 7, dt 5e-4, horizon 50
BALL_MEAN_R2 = 0.51521801323747751
BALL_SE_R2 = 0.016849596155992005

# chi-square of r^2 ~ U[0,1] on the ball, seed 11
CHI2_STAT = 19.224489795918366
CHI2_P = 0.203740771809577

# Feynman-Kac gap on R = 1 + 0.05 cos 2theta, seed 3
FK_GAP = 0.0021629068337534196
FK_SIGMA = 0.11198734939868869


class TestPathConfig:
    def test_defaults(self):
        cfg = rbm.PathConfig()
        assert cfg.n_steps == 100000
        assert cfg.n_burn == 2000

    def test_dt_window(self):
        with pytest.raises(ValueError, match="dt"):
            rbm.PathConfig(dt=0.0)
        with pytest.raises(ValueError, match="dt"):
            rbm.PathConfig(dt=2e-3)

    def test_burn_in_floor(self):
        with pytest.raises(ValueError, match="burn-in"):
            rbm.PathConfig(burn_in=0.5)

    def test_horizon_exceeds_burn_in(self):
        with pytest.raises(ValueError, match="horizon"):
            rbm.PathConfig(horizon=1.0, burn_in=1.0)


class TestPath:
    def test_containment_is_exact(self):
        domain = StarDomain(1.0, (0.0, 0.15))
        trajectory, n_reflect = rbm.path(
            domain, rbm.PathConfig(seed=5, horizon=5.0)
        )
        radius = np.hypot(trajectory[:, 0], trajectory[:, 1])
        assert radius.max() <= 1.0
        assert n_reflect > 0

    def test_deterministic_in_the_seed(self):
        cfg = rbm.PathConfig(seed=9, horizon=2.0)
        first, n_first = rbm.path(BALL, cfg)
        second, n_second = rbm.path(BALL, cfg)
        assert np.array_equal(first, second)
        assert n_first == n_second

    def test_zero_increments_hold_still(self):
        cfg = rbm.PathConfig(seed=0, horizon=2.0)
        trajectory, n_reflect = rbm.path(
            BALL, cfg, increments=np.zeros((cfg.n_steps, 2))
        )
        assert trajectory.shape == (cfg.n_steps + 1, 2)
        assert np.all(trajectory == 0.0)
        assert n_reflect == 0

    def test_increment_shape_is_checked(self):
        cfg = rbm.PathConfig(horizon=2.0)
        with pytest.raises(ValueError, match="shape"):
            rbm.path(BALL, cfg, increments=np.zeros((7, 2)))

    def test_spiky_domain_fails_loudly(self):
        spiky = StarDomain(1.0, (0.0,) * 9 + (0.3,))
        with pytest.raises(ReflectionFailed, match="pull-back"):
            rbm.path(spiky, rbm.PathConfig(seed=1, horizon=2.0, dt=1e-3))

    def test_simulate_stats_are_consistent(self):
        cfg = rbm.PathConfig(seed=5, horizon=5.0)
        trajectory, n_reflect = rbm.path(StarDomain(1.0, (0.0, 0.15)), cfg)
        assert trajectory.shape == (cfg.n_steps + 1, 2)
        assert n_reflect > 0
        assert math.hypot(*trajectory[-1]) <= 1.0

    def test_occupation_estimate_counts_the_same_reflections(self):
        cfg = rbm.PathConfig(seed=5, horizon=5.0)
        domain = StarDomain(1.0, (0.0, 0.15))
        estimate = rbm.stationary_mean(domain, parse_rhs("r2"), cfg)
        _, n_reflect = rbm.path(domain, cfg)
        assert estimate.reflections == n_reflect
        assert estimate.reflected_fraction == n_reflect / cfg.n_steps


class TestStationaryMean:
    def test_ball_mean_of_r2(self):
        estimate = rbm.stationary_mean(
            BALL, parse_rhs("r2"), rbm.PathConfig(seed=7)
        )
        # uniform stationary law on the disk gives E r^2 = 1/2
        assert estimate.mean == pytest.approx(BALL_MEAN_R2, rel=1e-12)
        assert estimate.standard_error == pytest.approx(BALL_SE_R2, rel=1e-12)
        assert abs(estimate.mean - 0.5) < 3.0 * estimate.standard_error
        assert estimate.batches == 20
        assert estimate.samples == 98000

    def test_constant_forcing_has_zero_error(self):
        estimate = rbm.stationary_mean(
            BALL, parse_rhs("one"), rbm.PathConfig(seed=7)
        )
        assert estimate.mean == 1.0
        assert estimate.standard_error == 0.0

    def test_callable_forcing(self):
        cfg = rbm.PathConfig(seed=7, horizon=5.0)
        via_callable = rbm.stationary_mean(
            BALL, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, cfg
        )
        via_expansion = rbm.stationary_mean(BALL, parse_rhs("r2"), cfg)
        # the expansion route squares hypot(x, y), one ulp off x^2 + y^2
        assert via_callable.mean == pytest.approx(via_expansion.mean, rel=1e-14)

    def test_short_horizon_is_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            rbm.stationary_mean(
                BALL, parse_rhs("r2"), rbm.PathConfig(dt=1e-3, horizon=1.01)
            )


class TestFeynmanKac:
    def test_gap_matches_solver_on_gentle_domain(self):
        domain = StarDomain(1.0, (0.0, 0.05))
        h = parse_rhs("r2")
        solution = solve_oblique(domain, h)
        report = rbm.feynman_kac_check(domain, solution, rbm.PathConfig(seed=3))
        assert report.gap == pytest.approx(FK_GAP, rel=1e-12)
        assert report.gap_sigma == pytest.approx(FK_SIGMA, rel=1e-12)
        assert report.gap_sigma < 3.0
        assert report.c_star == solution.c_star
        assert report.estimate.mean == report.c_star + report.gap

    def test_constant_forcing_gap_is_exact(self):
        h = parse_rhs("one")
        solution = solve_oblique(BALL, h)
        report = rbm.feynman_kac_check(BALL, solution, rbm.PathConfig(seed=7))
        assert report.gap == 0.0
        assert report.gap_sigma == 0.0

    def test_unreliable_solution_is_rejected(self):
        h = parse_rhs("one")
        solution = solve_oblique(BALL, h)
        doctored = dataclasses.replace(solution, reliable=False)
        with pytest.raises(ResidualTooLarge):
            rbm.feynman_kac_check(BALL, doctored, rbm.PathConfig(seed=7))
        loose = dataclasses.replace(solution, boundary_residual=1e-3)
        with pytest.raises(ResidualTooLarge):
            rbm.feynman_kac_check(BALL, loose, rbm.PathConfig(seed=7))


class TestRadialChi2:
    def test_ball_is_uniform(self):
        stat, p_value, dof = rbm.radial_uniformity_chi2(
            BALL, rbm.PathConfig(seed=11)
        )
        assert dof == 15
        assert stat == pytest.approx(CHI2_STAT, rel=1e-12)
        assert p_value == pytest.approx(CHI2_P, rel=1e-12)
        assert p_value > 0.01

    def test_too_few_subsamples(self):
        with pytest.raises(ValueError, match="subsamples"):
            rbm.radial_uniformity_chi2(BALL, rbm.PathConfig(seed=11, horizon=10.0))


class TestChi2Tail:
    def test_closed_form_needs_odd_dof(self):
        assert (rbm.CHI2_BINS - 1) % 2 == 1

    @pytest.mark.parametrize("x", [0.5, 5.0, 15.0, 19.22, 30.0, 60.0])
    def test_matches_the_incomplete_gamma_function(self, x):
        # Q(a, x/2) with a = nu/2, from lgamma alone: 1 - P by the lower
        # series while the difference keeps its digits, else the Legendre
        # continued fraction for Gamma(a, h) (modified Lentz)
        a, h = 0.5 * (rbm.CHI2_BINS - 1), 0.5 * x

        def scale(p):  # h^p e^(-h) / Gamma(p + 1)
            return math.exp(p * math.log(h) - h - math.lgamma(p + 1.0))

        if h < a + 1.0:
            want = 1.0 - math.fsum(scale(a + k) for k in range(400))
        else:
            b = h + 1.0 - a
            c, d = 1e300, 1.0 / b
            frac = d
            for i in range(1, 300):
                b += 2.0
                d = 1.0 / (b - i * (i - a) * d)
                c = b - i * (i - a) / c
                frac *= d * c
            want = scale(a) * a * frac
        assert rbm._chi2_tail(x) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x, p", [(24.996, 0.05), (30.578, 0.01)])
    def test_textbook_critical_values(self, x, p):
        assert round(rbm._chi2_tail(x), 4) == p
