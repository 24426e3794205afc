"""Acceptance gate: one test per shipping criterion, each with an explicit
tolerance and runtime budget.  The terminal summary prints one line per
criterion; see conftest.py for the registry."""

from __future__ import annotations

import math

import numpy as np

from steinshapes import experiments, metrics, rbm, steklov, stein
from steinshapes._polar import PolarGrid
from steinshapes.experiments import PerturbationFamily, fit_loglog
from steinshapes.oblique import parse_rhs, solve_oblique
from steinshapes.shapes import StarDomain, geometric_functionals, normalize

BALL = StarDomain(1.0, ())
TWO_PI = 2.0 * math.pi


def test_01_disk_steklov_spectrum(criterion):
    with criterion(1, "disk Steklov spectrum is exact", 1.0) as c:
        spectrum = steklov.steklov_spectrum(BALL, k=16)
        c.check("sigma1 equals 1 within 1e-8", abs(spectrum.sigma1 - 1.0) <= 1e-8)
        lowest = np.asarray(spectrum.eigenvalues[:5])
        target = np.array([0.0, 1.0, 1.0, 2.0, 2.0])
        c.check(
            "lowest five eigenvalues are 0,1,1,2,2 within 1e-6",
            np.abs(lowest - target).max() <= 1e-6,
        )


def test_02_divergence_identity_on_random_domains(criterion):
    with criterion(2, "divergence identity on 20 random domains", 5.0) as c:
        rng = np.random.default_rng(2025)
        for i in range(20):
            order = int(rng.integers(1, 5))
            raw = rng.standard_normal(2 * order)
            raw *= rng.uniform(0.05, 0.2) / np.abs(raw).sum()
            domain = StarDomain(1.0, tuple(raw[:order]), tuple(raw[order:]))
            report = stein.boundary_deficits(domain)
            fun = geometric_functionals(domain)
            scale = fun.perimeter + 4.0 * fun.volume + fun.momentum
            c.check(
                f"domain {i}: d2 equals perimeter - 4 volume + momentum "
                "within 1e-9 relative",
                report.identity_residual <= 1e-9 * scale,
            )


def test_03_combined_deficit_identity(criterion):
    with criterion(3, "combined-deficit identity on normalized domains", 5.0) as c:
        members = PerturbationFamily(k=2).members() + PerturbationFamily(k=3).members()
        for domain in members:
            fun = geometric_functionals(domain)
            combined = (fun.perimeter - TWO_PI) + (fun.momentum - TWO_PI)
            d2 = stein.boundary_deficits(domain).d2
            c.check(
                f"{domain.label}: perimeter and momentum deficits sum to d2",
                abs(combined - d2) <= 1e-9,
            )


def test_04_spectral_bound_direction_and_strictness(criterion):
    with criterion(4, "first eigenvalue bounded by the ball value", 10.0) as c:
        sigma_last = None
        for domain in PerturbationFamily(k=2).members():
            order = experiments._steklov_order(domain)
            sigma1 = steklov.steklov_spectrum(domain, k=order).sigma1
            c.check(
                f"{domain.label}: sigma1 <= 1 + 1e-9", sigma1 <= 1.0 + 1e-9
            )
            sigma_last = sigma1
        c.check(
            "strict drop at the largest amplitude", sigma_last < 1.0 - 1e-6
        )


def test_05_quadratic_scaling_and_constant_stability(criterion):
    with criterion(5, "quadratic scaling laws and stable constant", 120.0) as c:
        family = PerturbationFamily(k=3)
        sweep = experiments.family_sweep(
            family,
            quantities=("one_minus_sigma1", "d2", "d1", "discrepancy_l1"),
        )
        slopes = dict(zip(sweep.quantities, sweep.slopes))
        c.check(
            "slope of 1 - sigma1 is 2.0 within 0.1",
            abs(slopes["one_minus_sigma1"] - 2.0) <= 0.1,
        )
        c.check("slope of d2 is 2.0 within 0.1", abs(slopes["d2"] - 2.0) <= 0.1)
        c.check("slope of d1 is 1.0 within 0.15", abs(slopes["d1"] - 1.0) <= 0.15)
        c.check(
            "slope of discrepancy_l1 is 1.0 within 0.15",
            abs(slopes["discrepancy_l1"] - 1.0) <= 0.15,
        )
        coarse = experiments.verify_inequality(family, "thm-bw", refine=1)
        fine = experiments.verify_inequality(family, "thm-bw", refine=2)
        c.check("direction holds at both refinements", coarse.passed and fine.passed)
        c.check("empirical constant is positive", coarse.c_emp > 0.0)
        c.check(
            "empirical constant moves under 10% when grids double",
            abs(fine.c_emp / coarse.c_emp - 1.0) <= 0.10,
        )


def test_06_oblique_solver_exactness_and_scaling(criterion):
    with criterion(6, "oblique solver matches closed forms and scales", 30.0) as c:
        rng = np.random.default_rng(0)
        r = np.sqrt(rng.uniform(0.0, 1.0, 400))
        theta = rng.uniform(0.0, TWO_PI, 400)
        grid = PolarGrid(theta, r)

        def sup_gap_up_to_constant(numeric, exact):
            gap = (numeric - numeric.mean()) - (exact - exact.mean())
            return float(np.abs(gap).max())

        first = solve_oblique(BALL, parse_rhs("x1"))
        c.check(
            "ball solution for x1 matches (r^3 - 3r)/8 cos within 1e-8",
            sup_gap_up_to_constant(
                first.field.value(grid),
                (r**3 - 3.0 * r) / 8.0 * np.cos(theta),
            )
            <= 1e-8,
        )
        second = solve_oblique(BALL, parse_rhs("r2"))
        c.check(
            "ball solution for r^2 matches r^4/16 - r^2/8 within 1e-8",
            sup_gap_up_to_constant(
                second.field.value(grid), r**4 / 16.0 - r**2 / 8.0
            )
            <= 1e-8,
        )
        c.check(
            "ball compatibility constants are 0 and 1/2",
            abs(first.c_star) <= 1e-12 and abs(second.c_star - 0.5) <= 1e-12,
        )

        family = PerturbationFamily(k=2)
        deviations = []
        for domain in family.members():
            for token in ("x1", "r2"):
                solution = solve_oblique(domain, parse_rhs(token))
                c.check(
                    f"{domain.label} {token}: boundary residual <= 1e-8",
                    solution.boundary_residual <= 1e-8,
                )
            probe = solve_oblique(domain, parse_rhs("quadrupole"))
            deviations.append(abs(probe.c_star - probe.mean_domain_h))
        slope, _ = fit_loglog(family.amplitudes, deviations)
        c.check(
            "compatibility gap |c_star - mean h| scales with slope >= 0.9",
            slope >= 0.9,
        )


def test_07_kernel_identity_and_chain_inequality(criterion):
    with criterion(7, "kernel vanishes on the ball, chain bound holds", 60.0) as c:
        ball_kernel = stein.stein_kernel_solve(BALL)
        c.check(
            "ball kernel discrepancy_l1 <= 1e-8",
            ball_kernel.discrepancy_l1 <= 1e-8,
        )
        for domain in PerturbationFamily(k=2).members():
            kernel = stein.stein_kernel_solve(domain)
            order = experiments._steklov_order(domain)
            spectrum = steklov.steklov_spectrum(domain, k=order)
            fun = geometric_functionals(domain)
            bound = (spectrum.c_bw - 1.0) * 2.0 * fun.volume + experiments.CHAIN_ALLOWANCE
            c.check(
                f"{domain.label}: discrepancy_l2 within the spectral bound",
                kernel.discrepancy_l2 <= bound,
            )


def test_08_distance_lower_bounds(criterion):
    with criterion(8, "distance LP closed form, ball null, lower bound", 120.0) as c:
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        optimum, _, m, s = metrics.zolotarev_lp(
            points, np.array([1.0, -1.0]), alpha=1.0
        )
        c.check(
            "two-point LP at unit distance returns 2/3",
            abs(optimum - 2.0 / 3.0) <= 1e-6,
        )
        c.check(
            "two-point optimizer splits the norm budget 1/3, 2/3",
            abs(m - 1.0 / 3.0) <= 1e-6 and abs(s - 2.0 / 3.0) <= 1e-6,
        )

        ball_oracle = metrics.zolotarev_oracle(BALL, 1.0)
        c.check(
            "ball oracle value sits below its discretization bound",
            abs(ball_oracle.lower_bound) <= ball_oracle.error_bound,
        )

        bump = normalize(StarDomain(1.0, (0.0, 0.1)), "volume")
        dictionary = metrics.zolotarev_lower(bump, 1.0)
        c.check(
            "dictionary lower bound at eps 0.1 is >= 0.08",
            dictionary.lower_bound >= 0.08,
        )
        c.check(
            "dictionary bound is feature-certified near 0.092",
            abs(dictionary.lower_bound - 0.092) <= 1e-3,
        )
        oracle = metrics.zolotarev_oracle(bump, 1.0, n_g=200)
        c.check(
            "node oracle tightens the dictionary bound",
            oracle.lower_bound >= dictionary.lower_bound,
        )


def test_09_expansion_validator(criterion):
    with criterion(9, "order-2 expansions match exact quadrature", 10.0) as c:
        reports = experiments.expansion_validator(2, (0.0, 0.02, 0.05, 0.08, 0.10))
        for name in ("volume", "perimeter", "momentum"):
            report = next(r for r in reports if r.functional == name)
            c.check(
                f"{name}: residual slope >= 2.5 (order-2 coverage)",
                report.slope >= 2.5,
            )
        small = experiments.expansion_validator(2, (0.01,))
        difference = next(r for r in small if r.functional == "difference")
        ratio = difference.exact[0] / 0.01**2
        c.check(
            "perimeter-momentum gap approaches -2 pi eps^2 within 5%",
            abs(ratio / (-TWO_PI) - 1.0) <= 0.05,
        )


def test_10_monte_carlo_cross_check(criterion):
    with criterion(10, "reflected diffusion agrees with the solver", 300.0) as c:
        config = rbm.PathConfig(seed=7)
        estimate = rbm.stationary_mean(BALL, parse_rhs("r2"), config)
        c.check(
            "ball occupation mean of r^2 is 1/2 within 3 standard errors",
            abs(estimate.mean - 0.5) <= 3.0 * estimate.standard_error,
        )
        domain = StarDomain(1.0, (0.0, 0.05))
        h = parse_rhs("r2")
        solution = solve_oblique(domain, h)
        report = rbm.feynman_kac_check(domain, solution, rbm.PathConfig(seed=3))
        c.check(
            "occupation mean within 3 standard errors of c_star at eps 0.05",
            report.gap_sigma <= 3.0,
        )


def test_11_asymmetry_oracle(criterion):
    with criterion(11, "Fraenkel asymmetry against the polar oracle", 30.0) as c:
        n = 256
        ball_result = metrics.fraenkel_asymmetry(BALL, n=n)
        c.check(
            "ball asymmetry vanishes within the raster bound 2/N",
            ball_result.value <= 2.0 / n,
        )
        bump = normalize(StarDomain(1.0, (0.0, 0.1)), "volume")
        oracle = metrics.fraenkel_polar_oracle(bump)
        raster = metrics.fraenkel_asymmetry(bump)
        c.check(
            "eps 0.1 asymmetry is 0.127 within 0.005",
            abs(oracle - 0.127) <= 0.005,
        )
        c.check(
            "raster estimate agrees with the polar oracle",
            abs(raster.value - oracle) <= 1e-3,
        )
