"""Experiment layer: family construction, inequality direction checks with
empirical constants, scaling sweeps, order-2 expansion validation, report
emission."""

from __future__ import annotations

import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from steinshapes import experiments as ex
from steinshapes import metrics, shapes, stein, steklov
from steinshapes.errors import (
    IdentityViolated,
    InputError,
    IoFailure,
    NormalizationMissing,
    NotApplicable,
)
from steinshapes.shapes import StarDomain

# empirical constants over the volume-normalized k=2 cosine family,
# dictionary Z bounds, default refinement
C_EMP_MAIN = 0.12748320740752622
C_EMP_KERNEL = 0.15026010358346395
C_EMP_BW = 125.0496629790465
C_EMP_COMBINED = 15.094184677657774

# constrained perimeter bound on the shrunken family, two members kept
C_EMP_STEKLOV = 0.32083210925150413
STEKLOV_RATIOS = (0.32083210925150413, 1.3340907338053227)

# oracle Z bound on the short k=2 family
C_EMP_MAIN_ORACLE = 0.36019746898725896

# spectral-deficit constant on the short k=3 family, both refinement levels
C_EMP_BW_SHORT = 88.291597749324268

# log-log slopes over the k=3 family
SLOPE_SIGMA = 1.9401856487873506
SLOPE_SIGMA_RMS = 0.014397845438012554
SLOPE_D1 = 1.0016591324501167
SLOPE_D2 = 1.9892735908720134
SLOPE_DISC_L1 = 1.026034977599898

# expansion validator, k=2, amplitudes (0, 0.02, 0.05, 0.08, 0.1)
SLOPE_RES_PERIMETER = 3.9931760990303351
SLOPE_RES_MOMENTUM = 3.9963442365120687
SLOPE_RES_DIFFERENCE = 3.9970459246064745
PERIMETER_EXACT_01 = 6.3301540557213878
MOMENTUM_EXACT_01 = 6.3924006493073708
MOMENTUM_ORDER2_01 = 6.3932588597797384

BALL = StarDomain(1.0, (), label="ball")


@pytest.fixture(scope="module")
def k2_family():
    return ex.PerturbationFamily(k=2)


@pytest.fixture(scope="module")
def bw_report(k2_family):
    return ex.verify_inequality(k2_family, "thm-bw")


@pytest.fixture(scope="module")
def expansion_reports():
    return ex.expansion_validator(2, (0.0, 0.02, 0.05, 0.08, 0.10))


class TestPerturbationFamily:
    def test_members_are_volume_normalized(self, k2_family):
        members = k2_family.members()
        assert len(members) == 5
        assert members[0].label == "k=2 eps=0.02"
        from steinshapes.shapes import geometric_functionals

        for dom in members:
            assert geometric_functionals(dom).volume == pytest.approx(
                math.pi, abs=1e-10
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="mode k"):
            ex.PerturbationFamily(k=0)
        with pytest.raises(ValueError, match="amplitude"):
            ex.PerturbationFamily(amplitudes=())
        with pytest.raises(ValueError, match="increasing"):
            ex.PerturbationFamily(amplitudes=(0.04, 0.04))
        with pytest.raises(ValueError, match="normalization"):
            ex.PerturbationFamily(normalization="none")
        with pytest.raises(ValueError, match="alpha"):
            ex.PerturbationFamily(alpha=1.5)


class TestFitLoglog:
    def test_recovers_power_law(self):
        eps = (0.02, 0.04, 0.08)
        slope, rms = ex.fit_loglog(eps, tuple(3.0 * e * e for e in eps))
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert rms < 1e-12

    def test_machine_zero_values_report_inf(self):
        slope, rms = ex.fit_loglog((0.02, 0.04), (0.0, 0.0))
        assert slope == math.inf
        assert rms == 0.0

    def test_single_usable_point_is_nan(self):
        slope, rms = ex.fit_loglog((0.02, 0.04), (1e-3, math.nan))
        assert math.isnan(slope)

    @pytest.mark.parametrize(
        "eps, values",
        [
            ((0.02, 0.04, 0.06, 0.08), (-1e-3, -2e-3, -3e-3, -4e-3)),
            ((0.02, 0.04, 0.06, 0.08), (math.nan,) * 4),
            ((0.0, 0.0, 0.0, 0.0), (1e-3, 2e-3, 3e-3, 4e-3)),
        ],
        ids=["negative", "nan", "zero-amplitudes"],
    )
    def test_no_usable_points_is_nan_not_an_exact_formula(self, eps, values):
        slope, rms = ex.fit_loglog(eps, values)
        assert math.isnan(slope) and math.isnan(rms)


class TestVerifyInequality:
    def test_unknown_ids(self, k2_family):
        with pytest.raises(ValueError, match="theorem"):
            ex.verify_inequality(k2_family, "thm-unknown")
        with pytest.raises(ValueError, match="Z method"):
            ex.verify_inequality(k2_family, "thm-main", z_method="magic")
        with pytest.raises(TypeError):
            ex.verify_inequality((1.0, 2.0), "thm-main")

    def test_main_direction(self, k2_family):
        rep = ex.verify_inequality(k2_family, "thm-main")
        assert rep.passed
        assert rep.direction == "upper"
        assert rep.c_emp == pytest.approx(C_EMP_MAIN, rel=1e-12)
        assert rep.c_emp == max(rep.ratios)
        assert len(rep.labels) == len(rep.lhs) == len(rep.core) == 5
        assert dict(rep.extras).keys() == {"d1"}
        assert rep.notes == ()
        for lhs, core, ratio in zip(rep.lhs, rep.core, rep.ratios):
            assert ratio == pytest.approx(lhs / core, rel=1e-12)

    def test_kernel_direction(self, k2_family):
        rep = ex.verify_inequality(k2_family, "thm-kernel")
        assert rep.passed
        assert rep.direction == "upper"
        assert rep.c_emp == pytest.approx(C_EMP_KERNEL, rel=1e-12)

    def test_bw_direction(self, bw_report):
        rep = bw_report
        assert rep.passed
        assert rep.direction == "lower"
        assert rep.c_emp == pytest.approx(C_EMP_BW, rel=1e-12)
        assert rep.c_emp == min(rep.ratios)
        extras = dict(rep.extras)
        sigma1 = extras["sigma1"]
        assert all(s < 1.0 for s in sigma1)
        assert all(a > b for a, b in zip(sigma1, sigma1[1:]))
        assert all(s >= 0.0 for s in extras["chain_slack"])

    def test_combined_direction(self, k2_family):
        rep = ex.verify_inequality(k2_family, "prop-combined")
        assert rep.passed
        assert rep.c_emp == pytest.approx(C_EMP_COMBINED, rel=1e-12)
        assert all(r <= 1e-9 for r in dict(rep.extras)["identity_residual"])

    def test_steklov_not_applicable_below_one(self, k2_family):
        # volume normalization pushes sigma1 below 1 on this family
        with pytest.raises(NotApplicable, match="sigma1"):
            ex.verify_inequality(k2_family, "prop-steklov")

    def test_steklov_keeps_qualifying_members(self):
        shrunk = tuple(
            StarDomain(0.92, (0.0, e), label=f"shrunk eps={e:g}")
            for e in (0.02, 0.04, 0.06, 0.08)
        )
        rep = ex.verify_inequality(shrunk, "prop-steklov")
        assert rep.passed
        assert rep.labels == ("shrunk eps=0.02", "shrunk eps=0.04")
        assert rep.ratios == pytest.approx(STEKLOV_RATIOS, rel=1e-12)
        assert rep.c_emp == pytest.approx(C_EMP_STEKLOV, rel=1e-12)

    def test_steklov_labels_unlabelled_members_by_their_family_index(self):
        # the first member (sigma1 < 1) is dropped; the kept ones keep their index
        family = (StarDomain(1.0, (0.0, 0.05)),) + tuple(
            StarDomain(0.92, (0.0, e)) for e in (0.02, 0.04, 0.06, 0.08)
        )
        rep = ex.verify_inequality(family, "prop-steklov")
        assert rep.labels == ("domain-1", "domain-2")
        assert rep.ratios == pytest.approx(STEKLOV_RATIOS, rel=1e-12)

    def test_degenerate_family_passes_with_nan_constant(self):
        rep = ex.verify_inequality((BALL,), "thm-main")
        assert rep.passed
        assert math.isnan(rep.c_emp)
        assert all(math.isnan(r) for r in rep.ratios)

    def test_normalization_gates(self):
        with pytest.raises(NormalizationMissing, match="volume"):
            ex.verify_inequality((StarDomain(1.0, (0.0, 0.05)),), "thm-bw")
        with pytest.raises(NormalizationMissing, match="volume"):
            ex.verify_inequality(
                ex.PerturbationFamily(k=2, normalization="recenter"), "thm-bw"
            )
        # checked up front, not by the kernel solve inside the row
        with pytest.raises(NormalizationMissing, match="^thm-bw: k=1 eps=0.02 is off center"):
            ex.verify_inequality(ex.PerturbationFamily(k=1, amplitudes=(0.02, 0.04)), "thm-bw")

    def test_oracle_method_tightens_the_bound(self):
        fam = ex.PerturbationFamily(k=2, amplitudes=(0.04, 0.08))
        oracle = ex.verify_inequality(fam, "thm-main", z_method="lp-oracle")
        dictionary = ex.verify_inequality(fam, "thm-main")
        assert oracle.z_method == "lp-oracle"
        assert oracle.c_emp == pytest.approx(C_EMP_MAIN_ORACLE, rel=1e-12)
        assert all(
            a >= b - 1e-12 for a, b in zip(oracle.lhs, dictionary.lhs)
        )

    def test_oracle_reports_each_error_bound(self):
        fam = ex.PerturbationFamily(k=2, amplitudes=(0.04, 0.08))
        rep = ex.verify_inequality(fam, "thm-main", z_method="lp-oracle")
        extras = dict(rep.extras)
        assert extras.keys() == {"d1", "z_error_bound"}
        assert extras["z_error_bound"] == tuple(
            metrics.zolotarev_oracle(dom, fam.alpha).error_bound
            for dom in fam.members()
        )

    def test_explicit_alpha_must_match_the_family(self):
        fam = ex.PerturbationFamily(k=2, amplitudes=(0.04, 0.08))
        with pytest.raises(InputError, match="alpha 0.5 conflicts"):
            ex.verify_inequality(fam, "thm-main", alpha=0.5)

    @pytest.mark.parametrize("refine", [0, -1, 1.5], ids=["zero", "negative", "fractional"])
    def test_refine_must_be_a_positive_integer(self, monkeypatch, refine):
        # rejected before any member is solved
        def refuse(*args, **kwargs):
            raise AssertionError("a member was solved")

        for module, name in ((ex.stein, "stein_kernel_solve"), (ex.steklov, "steklov_spectrum")):
            monkeypatch.setattr(module, name, refuse)
        fam = ex.PerturbationFamily(k=2, amplitudes=(0.04, 0.08))
        with pytest.raises(InputError, match=rf"refine must be an integer >= 1, got {refine}"):
            ex.verify_inequality(fam, "thm-bw", refine=refine)

    def test_gate_error_names_the_member_and_the_solve(self):
        fam = ex.PerturbationFamily(k=4, amplitudes=(0.03, 0.06, 0.09))
        with pytest.raises(IdentityViolated) as failure:
            ex.verify_inequality(fam, "thm-bw")
        message = str(failure.value)
        assert message.startswith("k=4 eps=0.09 › stein_kernel_solve(k=24, m=1024): ")
        assert "test-panel identity" in message

    def test_bw_runs_each_solve_once_per_member(self, monkeypatch):
        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(ex, "geometric_functionals")
        count(steklov, "steklov_spectrum")
        count(metrics, "zolotarev_lower")
        count(stein, "stein_kernel_solve")
        ex.verify_inequality(ex.PerturbationFamily(k=2, amplitudes=(0.04, 0.08)), "thm-bw")
        assert calls == {
            "geometric_functionals": 2,
            "steklov_spectrum": 2,
            "zolotarev_lower": 2,
            "stein_kernel_solve": 2,
        }

    def test_bw_constant_is_refinement_stable(self):
        fam = ex.PerturbationFamily(k=3, amplitudes=(0.04, 0.08))
        coarse = ex.verify_inequality(fam, "thm-bw", refine=1)
        fine = ex.verify_inequality(fam, "thm-bw", refine=2)
        assert coarse.c_emp == pytest.approx(C_EMP_BW_SHORT, rel=1e-12)
        assert fine.c_emp == pytest.approx(coarse.c_emp, rel=1e-10)


class TestFamilySweep:
    def test_k3_slopes(self):
        sweep = ex.family_sweep(
            ex.PerturbationFamily(k=3),
            quantities=("one_minus_sigma1", "d1", "d2", "discrepancy_l1"),
        )
        assert sweep.k == 3
        assert len(sweep.table) == len(sweep.slopes) == len(sweep.quantities)
        got = dict(zip(sweep.quantities, sweep.slopes))
        assert got["one_minus_sigma1"] == pytest.approx(SLOPE_SIGMA, rel=1e-12)
        assert got["d1"] == pytest.approx(SLOPE_D1, rel=1e-12)
        assert got["d2"] == pytest.approx(SLOPE_D2, rel=1e-12)
        assert got["discrepancy_l1"] == pytest.approx(SLOPE_DISC_L1, rel=1e-12)
        rms = dict(zip(sweep.quantities, sweep.fit_residuals))
        assert rms["one_minus_sigma1"] == pytest.approx(
            SLOPE_SIGMA_RMS, rel=1e-12
        )
        # the splitting quantities are quadratic in eps, the L1 ones linear
        assert abs(got["one_minus_sigma1"] - 2.0) < 0.08
        assert abs(got["d2"] - 2.0) < 0.08
        assert abs(got["d1"] - 1.0) < 0.02
        assert abs(got["discrepancy_l1"] - 1.0) < 0.05

    def test_each_solver_runs_once_per_member(self, monkeypatch):
        calls = []

        def counted(solver, names):
            def solve(domain, **sizes):
                calls.append(solver)
                return SimpleNamespace(**{n: domain.cos_coeffs[-1] for n in names})

            return solve

        monkeypatch.setattr(
            stein, "boundary_deficits", counted("deficits", ("d1", "d2", "osc_l1"))
        )
        monkeypatch.setattr(
            stein,
            "stein_kernel_solve",
            counted("kernel", ("discrepancy_l1", "discrepancy_l2")),
        )
        family = ex.PerturbationFamily(k=2)
        quantities = ("d1", "d2", "osc_l1", "discrepancy_l1", "discrepancy_l2")
        sweep = ex.family_sweep(family, quantities)
        members = len(family.amplitudes)
        assert calls.count("deficits") == calls.count("kernel") == members
        assert all(row == sweep.table[0] for row in sweep.table)

    def test_negative_quantity_has_no_slope(self):
        # the radius-0.9 family's perimeter deficit is about -0.6, nowhere 0
        family = ex.PerturbationFamily(
            k=2, amplitudes=(0.02, 0.04, 0.06, 0.08), normalization="recenter", base_radius=0.9
        )
        sweep = ex.family_sweep(family, ("deficit_perimeter",))
        assert all(-0.7 < v < -0.5 for v in sweep.table[0])
        assert math.isnan(sweep.slopes[0])

    def test_guards(self):
        with pytest.raises(ValueError, match="amplitudes"):
            ex.family_sweep(ex.PerturbationFamily(amplitudes=(0.02, 0.04)))
        with pytest.raises(ValueError, match="quantity"):
            ex.family_sweep(ex.PerturbationFamily(k=2), quantities=("volume",))


class TestExpansionValidator:
    def test_volume_is_exact(self, expansion_reports):
        volume = next(r for r in expansion_reports if r.functional == "volume")
        assert volume.slope == math.inf
        assert max(volume.residuals) <= 1e-14

    def test_zero_amplitude_is_exact(self, expansion_reports):
        for rep in expansion_reports:
            assert rep.residuals[0] == 0.0

    def test_residuals_scale_at_fourth_order(self, expansion_reports):
        slopes = {r.functional: r.slope for r in expansion_reports}
        assert slopes["perimeter"] == pytest.approx(SLOPE_RES_PERIMETER, rel=1e-12)
        assert slopes["momentum"] == pytest.approx(SLOPE_RES_MOMENTUM, rel=1e-12)
        assert slopes["difference"] == pytest.approx(
            SLOPE_RES_DIFFERENCE, rel=1e-12
        )
        assert all(abs(slopes[n] - 4.0) < 0.05 for n in slopes if n != "volume")

    def test_frozen_values_at_top_amplitude(self, expansion_reports):
        per = next(r for r in expansion_reports if r.functional == "perimeter")
        mom = next(r for r in expansion_reports if r.functional == "momentum")
        assert per.exact[-1] == pytest.approx(PERIMETER_EXACT_01, rel=1e-12)
        assert mom.exact[-1] == pytest.approx(MOMENTUM_EXACT_01, rel=1e-12)
        assert mom.predicted[-1] == pytest.approx(MOMENTUM_ORDER2_01, rel=1e-12)

    def test_difference_approaches_its_second_order_rate(self, expansion_reports):
        diff = next(r for r in expansion_reports if r.functional == "difference")
        # P - M = -2 pi eps^2 + O(eps^4) for k = 2
        ratio = diff.exact[1] / diff.amplitudes[1] ** 2
        assert ratio == pytest.approx(-2.0 * math.pi, abs=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError, match="mode k"):
            ex.expansion_validator(0, (0.02,))
        with pytest.raises(ValueError, match="amplitudes"):
            ex.expansion_validator(2, (0.2,))
        with pytest.raises(ValueError, match="amplitude"):
            ex.expansion_validator(2, ())


class TestEmitReport:
    def test_dictionary_zolotarev_block_reads_as_a_lower_bound(self):
        # the dictionary route certifies no upper end, so the JSON carries
        # "inf" where a 0.0 would read as an exact value
        block = json.loads(ex.emit_report(ex.analyze_domain(BALL)))["zolotarev"]
        assert block["method"] == "dictionary"
        assert block["error_bound"] == "inf"
        assert isinstance(block["lower_bound"], float)

    def test_json_is_deterministic_except_timings(self):
        first = json.loads(ex.emit_report(ex.analyze_domain(BALL)))
        second = json.loads(ex.emit_report(ex.analyze_domain(BALL)))
        first.pop("timings")
        second.pop("timings")
        assert first == second

    def test_analyze_domain_report_shape(self):
        report = ex.analyze_domain(BALL)
        assert sorted(report.keys()) == [
            "deficits",
            "domain_spec",
            "functionals",
            "regularity",
            "schema_version",
            "steklov",
            "timings",
            "tolerances",
            "zolotarev",
        ]
        assert report["schema_version"] == 4
        assert report["functionals"].volume == pytest.approx(math.pi)
        assert report["steklov"].sigma1 == pytest.approx(1.0, abs=1e-8)
        assert report["zolotarev"].lower_bound <= 1e-9

    def test_analyze_states_the_tolerances_it_used(self):
        tolerances = ex.analyze_domain(BALL)["tolerances"]
        assert tolerances == {
            "quadrature": shapes.QUAD_TOL,
            "deficit_quadrature": stein.DEFICIT_TOL,
            "identity": ex.IDENTITY_TOL,
            "steklov_convergence": steklov.CONVERGENCE_TOL,
        }
        # d1, d2 and osc are integrated at 1e-10, not at the 1e-12 default
        assert tolerances["deficit_quadrature"] == 1e-10

    def test_analyze_accepts_spec_dicts(self):
        report = ex.analyze_domain({"base_radius": 1.0, "label": "from-spec"})
        assert report["domain_spec"].label == "from-spec"

    def test_csv_rows(self, tmp_path):
        sweep = ex.family_sweep(
            ex.PerturbationFamily(k=1, amplitudes=(0.02, 0.04, 0.06, 0.08, 0.1)),
            quantities=("d1", "deficit_perimeter", "fraenkel"),
        )
        out = tmp_path / "sweep.csv"
        text = ex.emit_report(sweep, format="csv", path=out)
        assert out.read_text(encoding="utf-8") == text
        lines = text.strip().split("\n")
        assert lines[0] == "epsilon,quantity,value,slope"
        assert len(lines) == 1 + 5 * 3
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_nonfinite_floats_serialize_as_tagged_strings(self, expansion_reports):
        volume = next(r for r in expansion_reports if r.functional == "volume")
        decoded = json.loads(ex.emit_report(volume))
        assert decoded["slope"] == "inf"

    def test_failure_modes(self, tmp_path):
        report = ex.analyze_domain(BALL)
        with pytest.raises(IoFailure, match="empty"):
            ex.emit_report(())
        with pytest.raises(IoFailure, match="empty"):
            ex.emit_report(None)
        with pytest.raises(IoFailure, match="format"):
            ex.emit_report(report, format="yaml")
        with pytest.raises(IoFailure, match="SweepResult"):
            ex.emit_report(report, format="csv")
        with pytest.raises(IoFailure, match="cannot write"):
            ex.emit_report(report, path=tmp_path / "missing" / "out.json")

    def test_format_float(self):
        assert ex.format_float(math.inf) == "inf"
        assert ex.format_float(-math.inf) == "-inf"
        assert ex.format_float(math.nan) == "nan"
        assert ex.format_float(0.1) == "0.10000000000000001"


class TestAnalyzeReport:
    """analyze_domain's report holds the stage records as they are."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"base_radius": 1.0, "label": "ball"},
            {"fourier_cos": [0.0, 0.05], "normalize_volume": True},
            {"fourier_cos": [0.08, 0.03], "fourier_sin": [0.02], "recenter": True},
        ],
        ids=["ball", "volume-normalized", "recentered"],
    )
    def test_domain_spec_rebuilds_the_analysed_domain(self, spec):
        first = json.loads(ex.emit_report(ex.analyze_domain(spec)))
        rebuilt = shapes.build_domain(first["domain_spec"])
        assert rebuilt == shapes.build_domain(spec)
        again = json.loads(ex.emit_report(ex.analyze_domain(first["domain_spec"])))
        first.pop("timings")
        again.pop("timings")
        assert again == first

    def test_each_record_keeps_its_provenance(self):
        bump = StarDomain(1.0, (0.0, 0.05))
        report = json.loads(ex.emit_report(ex.analyze_domain(bump, steklov_order=20)))
        assert report["steklov"]["truncation"] == 20
        assert report["steklov"]["dropped"] >= 0
        assert report["steklov"]["multiplicities"]
        assert report["deficits"]["grid"] > 0
        assert report["functionals"]["grid"] > 0
        assert set(report["regularity"]) == {"kappa", "alpha", "lambda_est", "convex"}

    def test_eigenvectors_stay_out_of_the_json(self):
        report = ex.analyze_domain(BALL)
        assert "coefficients" not in json.loads(ex.emit_report(report))["steklov"]
        spectrum = report["steklov"]
        u = spectrum.eigenfunction(1)
        assert steklov.rayleigh_quotient(BALL, u) == pytest.approx(spectrum.sigma1, abs=1e-10)

    def test_timings_name_the_build_and_every_stage(self):
        timings = ex.analyze_domain(BALL)["timings"]
        assert list(timings) == [
            "build",
            "functionals",
            "regularity",
            "deficits",
            "steklov",
            "zolotarev",
        ]
        assert all(t >= 0.0 for t in timings.values())
