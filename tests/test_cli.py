"""Command-line interface: exit codes, JSON output, determinism."""
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from routhsim.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.yaml"))

ORBIT_DOC = """
model: slip
task: periodic_orbit
params: {kappa: 50.0, l0: 1.0}
seed: [0.8, 0.0, 0.0, 0.5]
numerics: {t_max: 5.0}
"""


@pytest.fixture
def orbit_scenario(tmp_path):
    path = tmp_path / "orbit.yaml"
    path.write_text(ORBIT_DOC)
    return path


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["periodic_orbit", "--scenario",
                     str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("model: slip\ntask: simulate\nwhatever: 1\n")
        code = main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR

    def test_task_subcommand_mismatch(self, orbit_scenario, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(orbit_scenario),
                     "--out", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR

    def test_bad_seed_override(self, orbit_scenario, tmp_path, capsys):
        code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                     "--out", str(tmp_path), "--seed-override", "a,b,c,d"])
        assert code == EXIT_INPUT_ERROR
        code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                     "--out", str(tmp_path), "--seed-override", "0.8,0,0,nan"])
        assert code == EXIT_INPUT_ERROR
        for bad in ("0.8,0.5", "0.8,0.0,0.5", "0.8,0,0,0.5,0"):
            code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                         "--out", str(tmp_path), "--seed-override", bad])
            assert code == EXIT_INPUT_ERROR, bad
            assert "seed must have 4 entries" in capsys.readouterr().err

    def test_non_finite_numerics(self, tmp_path, capsys):
        path = tmp_path / "nan.yaml"
        path.write_text(ORBIT_DOC.replace("{t_max: 5.0}", "{t_max: .nan}"))
        code = main(["periodic_orbit", "--scenario", str(path),
                     "--out", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert "numerics.t_max" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["{t_max: '5'}", "{t_max: true}",
                                     "{t_max: 5.0, max_impacts: 1.9}"])
    def test_non_number_numerics(self, tmp_path, capsys, bad):
        path = tmp_path / "cast.yaml"
        path.write_text(ORBIT_DOC.replace("{t_max: 5.0}", bad))
        code = main(["periodic_orbit", "--scenario", str(path),
                     "--out", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert "numerics." in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b"model: slip\ntask: simulate # \xff\n",
        b"model: slip\ntask: [simulate\n",
        b"model: slip\ntask: simulate\nparams: {kappa: !!float }\n",
        b"model: slip\ntask: simulate\nnumerics: {max_impacts: !!int x}\n"],
        ids=["not_utf8", "syntax_error", "empty_tagged_float", "bad_tagged_int"])
    def test_unreadable_document(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        code = main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_out_is_an_existing_file(self, orbit_scenario, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                     "--out", str(taken), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_report_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "nodir.yaml"
        path.write_text(ORBIT_DOC + "outputs: {report: nodir/r.yaml}\n")
        code = main(["periodic_orbit", "--scenario", str(path),
                     "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("outputs", ['{trajectory: "a\\0b"}',
                                         "{report: ABS}",
                                         "{trajectory: ../escaped.csv}"])
    def test_output_name_outside_out(self, tmp_path, capsys, outputs):
        out = tmp_path / "out"
        outputs = outputs.replace("ABS", str(tmp_path / "escaped.yaml"))
        path = tmp_path / "escape.yaml"
        path.write_text(ORBIT_DOC + f"outputs: {outputs}\n")
        code = main(["periodic_orbit", "--scenario", str(path),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: outputs.")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["escape.yaml"]


    @pytest.mark.parametrize("model, params", [
        ("slip", "{m: 0.0}"), ("slip", "{l0: -1.0}"), ("slip", "{inertia: 0.0}"),
        ("pendulum", "{k: -1.0}"), ("controlled_slip", "{m: 2.0}")],
        ids=["slip_m", "slip_l0", "slip_inertia", "pendulum_k", "controlled_m"])
    def test_param_out_of_range(self, tmp_path, capsys, model, params):
        path = tmp_path / "range.yaml"
        path.write_text(f"model: {model}\ntask: check_suite\nparams: {params}\n")
        code = main(["check_suite", "--scenario", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"error: params ({model}): ")
        assert not (tmp_path / "out").exists()


class TestNumericalErrors:
    def test_non_fixed_point_seed(self, orbit_scenario, tmp_path, capsys):
        code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                     "--out", str(tmp_path),
                     "--seed-override", "0.8,0.2,0.0,0.5"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    # The SLIP field divides by the spring length (zero at the first seed)
    # and squares the angular rate (1e320 at the second) on Python floats.
    @pytest.mark.parametrize("seed", ["0.0,0.0,0.0,0.5", "0.8,0.0,0.0,1.0e+160"],
                             ids=["zero_division", "overflow"])
    def test_arithmetic_error(self, seed, tmp_path, capsys):
        code = main(["simulate", "--scenario",
                     str(SCENARIO_DIR / "slip_simulate.yaml"),
                     "--out", str(tmp_path), "--seed-override", seed])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")


class TestSuccessPath:
    def test_orbit_exit_ok(self, orbit_scenario, tmp_path, capsys):
        code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "check closure: pass" in out
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "report.yaml").exists()

    def test_quiet_suppresses_summary(self, orbit_scenario, tmp_path, capsys):
        code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                     "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_json_output_parseable(self, orbit_scenario, tmp_path, capsys):
        code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                     "--out", str(tmp_path), "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["task"] == "periodic_orbit"
        assert len(payload["impact_times"]) >= 1

    @pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
    def test_committed_scenarios_run(self, path, tmp_path, capsys):
        task = yaml.safe_load(path.read_text())["task"]
        code = main([task, "--scenario", str(path),
                     "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK

    def test_seed_override_changes_orbit(self, orbit_scenario, tmp_path, capsys):
        code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                     "--out", str(tmp_path), "--json",
                     "--seed-override", "0.801,0.0,0.0,0.5"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["seed"] == [0.801, 0.0, 0.0, 0.5]


class TestDeterminism:
    def test_two_runs_agree(self, orbit_scenario, tmp_path, capsys):
        times = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["periodic_orbit", "--scenario", str(orbit_scenario),
                         "--out", str(out), "--quiet"])
            assert code == EXIT_OK
            with open(out / "report.yaml") as fh:
                times.append(yaml.safe_load(fh)["impact_times"])
        assert len(times[0]) == len(times[1])
        np.testing.assert_allclose(times[0], times[1], atol=1e-8)
