"""Command-line interface: verbs, report emission, and the exit-code
contract (0 pass, 1 direction violation, 2 solver gate, 3 input error)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import steinshapes
from steinshapes import experiments, rbm
from steinshapes.cli import build_parser, main

C_EMP_MAIN = 0.12748320740752622
C_EMP_MAIN_SHORT = 0.12420949227166241


@pytest.fixture()
def configs(tmp_path):
    paths = {}
    for name, payload in {
        "ball": {"base_radius": 1.0, "label": "ball"},
        "big_ball": {"base_radius": 1.1},
        "bump": {"base_radius": 1.0, "fourier_cos": [0.0, 0.1]},
        "spiky": {"base_radius": 1.0, "fourier_cos": [0.0] * 9 + [0.3]},
        "negative": {"base_radius": -1.0},
        "tangled": {"fourier_cos": [0.45, 0, 0, 0, 0, 0, 0, 0.4], "recenter": True},
        "family": {"k": 2, "amplitudes": [0.04, 0.08]},
        "mode_only_family": {"k": 3},
        "mode_and_shape_keys": {"k": 3, "fourier_cos": [0.1]},
        "off_center_family": {"k": 1, "amplitudes": [0.02, 0.04]},
        "half_alpha_family": {"k": 2, "amplitudes": [0.04, 0.08], "alpha": 0.5},
        "scalar_amplitudes": {"amplitudes": 0.04},
        "word_mode": {"k": "two", "amplitudes": [0.04, 0.08]},
        "fractional_mode": {"k": 2.7, "amplitudes": [0.04, 0.08]},
        "boolean_mode": {"k": True, "amplitudes": [0.04, 0.08]},
        "misspelt_keys": {
            "k": 2,
            "amplitudes": [0.04, 0.08],
            "normalisation": "recenter",
            "alpah": 0.5,
        },
        "string_flag": {"base_radius": 1.0, "normalize_volume": "false"},
        "word_flag": {"base_radius": 1.0, "recenter": "no"},
        "boolean_radius": {"base_radius": True},
        "fractional_dimension": {"base_radius": 1.0, "dimension": 2.5},
        "boolean_alpha": {"k": 2, "amplitudes": [0.04, 0.08], "alpha": True},
        "json_string": "eps",
        "json_number": 3,
        "json_path": str(tmp_path / "ball.json"),
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


class TestAnalyze:
    def test_stdout_report(self, configs, capsys):
        assert main(["analyze", configs["ball"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 4
        assert report["domain_spec"]["label"] == "ball"

    def test_out_file(self, configs, capsys):
        target = configs["dir"] / "report.json"
        assert main(["analyze", configs["ball"], "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(target.read_text(encoding="utf-8"))["schema_version"] == 4

    def test_missing_config_is_an_input_error(self, configs, capsys):
        assert main(["analyze", str(configs["dir"] / "missing.json")]) == 3
        assert "input error" in capsys.readouterr().err

    def test_unconverged_truncation_is_a_solver_gate(self, configs, capsys):
        assert main(["analyze", configs["bump"], "--grid", "4"]) == 2
        assert "solver gate failure" in capsys.readouterr().err

    def test_failed_recenter_is_a_solver_gate(self, configs, capsys):
        assert main(["analyze", configs["tangled"]]) == 2
        assert "multiple boundary crossings" in capsys.readouterr().err


class TestVerify:
    def test_default_family_passes(self, capsys):
        assert main(["verify", "default", "--theorem", "thm-main"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert float(report["c_emp"]) == pytest.approx(C_EMP_MAIN, rel=1e-12)

    def test_family_file(self, configs, capsys):
        assert main(["verify", configs["family"], "--theorem", "thm-main"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["labels"]) == 2
        assert float(report["c_emp"]) == pytest.approx(C_EMP_MAIN_SHORT, rel=1e-12)

    def test_family_config_takes_the_family_defaults(self, configs, capsys):
        # no amplitudes key, yet "k" only a family takes
        assert main(["verify", configs["mode_only_family"], "--theorem", "thm-main"]) == 0
        report = json.loads(capsys.readouterr().out)
        direct = experiments.verify_inequality(experiments.PerturbationFamily(k=3), "thm-main")
        assert report["labels"] == list(direct.labels)
        assert report["c_emp"] == direct.c_emp

    def test_unnormalized_shape_is_an_input_error(self, configs, capsys):
        assert main(["verify", configs["bump"], "--theorem", "thm-bw"]) == 3
        assert "input error" in capsys.readouterr().err

    def test_direction_violation_exits_one(self, configs, capsys):
        # the disk of radius 1.1 has Z > 0 but no boundary oscillation
        assert main(["verify", configs["big_ball"], "--theorem", "thm-main"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["notes"] == ["a member has positive lhs against vanishing core"]


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        code = main(
            ["sweep", "--k", "1", "--eps", "0.02,0.04,0.06,0.08",
             "--quantities", "d1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "epsilon,quantity,value,slope"
        assert len(lines) == 5

    def test_multi_k_out_files_get_mode_suffixes(self, configs, capsys):
        target = configs["dir"] / "sweep.csv"
        code = main(
            ["sweep", "--k", "1,2", "--eps", "0.02,0.04,0.06,0.08",
             "--quantities", "deficit_perimeter", "--out", str(target)]
        )
        assert code == 0
        assert not target.exists()
        for k in (1, 2):
            assert (configs["dir"] / f"sweep.k{k}.csv").exists()
        assert capsys.readouterr().out.count("wrote") == 2

    def test_multi_k_suffix_ignores_dots_in_directory_names(self, configs, capsys):
        run_dir = configs["dir"] / "run.v1"
        run_dir.mkdir()
        code = main(
            ["sweep", "--k", "1,2", "--eps", "0.02,0.04,0.06,0.08",
             "--quantities", "deficit_perimeter", "--out", str(run_dir / "sweep")]
        )
        assert code == 0
        assert sorted(p.name for p in run_dir.iterdir()) == ["sweep.k1", "sweep.k2"]

    def test_json_out(self, configs, capsys):
        target = configs["dir"] / "sweep.json"
        code = main(
            ["sweep", "--k", "1", "--eps", "0.02,0.04,0.06,0.08",
             "--quantities", "deficit_perimeter", "--out", str(target)]
        )
        assert code == 0
        decoded = json.loads(target.read_text(encoding="utf-8"))
        assert decoded["quantities"] == ["deficit_perimeter"]
        assert len(decoded["table"][0]) == 4

    def test_malformed_eps_range(self, capsys):
        assert main(["sweep", "--eps", "0.1:0.2"]) == 3
        assert "input error" in capsys.readouterr().err


class TestExpansion:
    def test_default_run_passes(self, capsys):
        assert main(["expansion"]) == 0
        out = capsys.readouterr().out
        for name in ("volume", "perimeter", "momentum", "difference"):
            assert f"{name}: slope" in out
        assert "volume: slope inf" in out


class TestMc:
    def test_occupation_statistics(self, configs, capsys):
        code = main(["mc", configs["ball"], "--T", "2.0", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "occupation mean of r2" in out
        assert "reflections=" in out

    def test_feynman_kac_cross_check(self, configs, capsys):
        code = main(
            ["mc", configs["ball"], "--T", "5.0", "--seed", "7", "--fk"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "c_star=0.50000000" in out
        assert "standard errors" in out

    @pytest.mark.parametrize("extra", [[], ["--fk"]], ids=["plain", "fk"])
    def test_path_is_simulated_once(self, configs, capsys, monkeypatch, extra):
        calls = []
        original = rbm.path

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rbm, "path", counted)
        assert main(["mc", configs["ball"], "--T", "2.0", "--seed", "7", *extra]) == 0
        assert len(calls) == 1
        assert "reflections=" in capsys.readouterr().out

    def test_reflection_failure_is_a_solver_gate(self, configs, capsys):
        code = main(
            ["mc", configs["spiky"], "--T", "2.0", "--dt", "0.001",
             "--seed", "1"]
        )
        assert code == 2
        assert "solver gate failure" in capsys.readouterr().err

    def test_negative_radius_is_an_input_error(self, configs, capsys):
        assert main(["mc", configs["negative"]]) == 3
        assert "input error" in capsys.readouterr().err


class TestArgparseContract:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "cfg.json", "--nope"])
        assert err.value.code == 2

    def test_missing_verb_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_verify_requires_a_theorem(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "default"])
        assert err.value.code == 2

    def test_theorem_ids_are_a_closed_choice(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "default", "--theorem", "thm-unknown"])
        assert err.value.code == 2

    def test_parser_builds_standalone(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--k", "3"])
        assert args.verb == "sweep"
        assert args.k == "3"


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--eps", "0.1,abc"],
            ["sweep", "--k", "x"],
            ["sweep", "--quantities", "bogus"],
            ["sweep", "--k", "2,2"],
            ["mc", "{bump}", "--dt", "0.01"],
            ["mc", "{bump}", "--h", "bogus"],
            ["mc", "{bump}", "--T", "1.001", "--dt", "0.001"],
            ["mc", "{bump}", "--T", "nan"],
            ["mc", "{bump}", "--T", "inf"],
            ["mc", "{bump}", "--burn-in", "nan"],
            ["mc", "{bump}", "--seed", "-1"],
            ["expansion", "--eps", "nan,0.05"],
            ["expansion", "--eps", "0.2,0.3"],
            ["expansion", "--eps", "0.05"],
            ["expansion", "--eps", "0.0,0.05"],
            ["expansion", "--eps", "0.05,0.05"],
            ["expansion", "--k", "0"],
            ["analyze", "{bump}", "--alpha", "2"],
            ["analyze", "{bump}", "--grid", "0"],
            ["analyze", "{bump}", "--grid", "-4"],
            ["analyze", "{string_flag}"],
            ["analyze", "{word_flag}"],
            ["analyze", "{boolean_radius}"],
            ["analyze", "{fractional_dimension}"],
            ["verify", "{boolean_alpha}", "--theorem", "thm-main"],
            ["verify", "{half_alpha_family}", "--theorem", "thm-main", "--alpha", "1.0"],
            ["verify", "{scalar_amplitudes}", "--theorem", "thm-main"],
            ["verify", "{word_mode}", "--theorem", "thm-main"],
            ["verify", "{fractional_mode}", "--theorem", "thm-main"],
            ["verify", "{boolean_mode}", "--theorem", "thm-main"],
            ["verify", "{json_string}", "--theorem", "thm-main"],
            ["verify", "{json_number}", "--theorem", "thm-main"],
            ["verify", "{misspelt_keys}", "--theorem", "thm-main"],
            ["verify", "{mode_and_shape_keys}", "--theorem", "thm-main"],
            ["verify", "{off_center_family}", "--theorem", "thm-bw"],
            ["verify", "{off_center_family}", "--theorem", "thm-kernel"],
            ["verify", "{off_center_family}", "--theorem", "prop-steklov"],
            ["mc", "{json_path}"],
        ],
        ids=" ".join,
    )
    def test_bad_input_exits_three(self, argv, configs, capsys):
        assert main([tok.format(**configs) for tok in argv]) == 3
        assert "input error" in capsys.readouterr().err

    def test_numerical_library_failure_propagates(self, configs, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(np.linalg.LinAlgError):
            main(["analyze", configs["ball"]])
        assert "input error" not in capsys.readouterr().err


def test_cold_import_loads_no_heavy_modules():
    # the CLI pays for importing the package on every run; scipy loads on
    # first use only, by the Fraenkel center search and the LP oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(steinshapes.__file__)))
    code = "import sys, steinshapes.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    heavy = sorted(m for m in out.split() if m.split(".")[0] in ("scipy", "numba"))
    assert heavy == []
