"""Scenario parsing, defaulting, round-tripping, and run artifacts."""
import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import yaml

import routhsim as rs
from routhsim import control, scenario, symmetry
from routhsim.scenario import (
    TASKS,
    Numerics,
    Outputs,
    Scenario,
    ScenarioError,
    parse_scenario,
    run,
    scenario_to_dict,
    write_trajectory_csv,
)

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios")
                   .glob("*.yaml"))

MINIMAL = """
model: slip
task: periodic_orbit
params: {kappa: 50.0, l0: 1.0}
seed: [0.8, 0.0, 0.0, 0.5]
numerics: {t_max: 5.0}
"""


class TestParsing:
    def test_minimal_document(self):
        sc = parse_scenario(MINIMAL)
        assert sc.model == "slip" and sc.task == "periodic_orbit"
        assert sc.params == {"kappa": 50.0, "l0": 1.0}
        assert sc.seed == (0.8, 0.0, 0.0, 0.5)

    def test_defaults_applied(self):
        sc = parse_scenario("model: slip\ntask: simulate\n")
        assert sc.numerics.tol == 1e-10
        assert sc.numerics.event_tol == 1e-10
        assert sc.numerics.t_max == 10.0
        assert sc.numerics.max_impacts == 10_000
        assert sc.outputs.trajectory == "trajectory.csv"
        assert sc.outputs.report == "report.yaml"
        assert sc.outputs.stride == 1

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: simulate\nbogus: 1\n")

    def test_unknown_params_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: simulate\nparams: {stiffness: 3}\n")

    def test_unknown_numerics_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: simulate\nnumerics: {dt: 0.1}\n")
        # The exact Jacobian has no finite-difference step to set.
        with pytest.raises(ScenarioError, match="unknown key 'fd_step'"):
            parse_scenario("model: slip\ntask: poincare\n"
                           "numerics: {fd_step: 1e-5}\n")

    def test_unknown_model_and_task_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("model: hovercraft\ntask: simulate\n")
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: meditate\n")

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("- just\n- a\n- list\n")

    def test_bad_seed_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: simulate\nseed: nope\n")
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: simulate\nseed: [1.0, aa]\n")
        for bad in (".nan", ".inf", "-.inf"):
            with pytest.raises(ScenarioError):
                parse_scenario("model: slip\ntask: simulate\n"
                               f"seed: [0.8, 0.0, 0.0, {bad}]\n")
        # One entry per state coordinate, or the run would fail mid-flow.
        for model, seed in (("slip", "[0.8, 0.5]"), ("slip", "[0.8, 0.0, 0.5]"),
                            ("pendulum", "[1.2, 0, 0, 0]")):
            with pytest.raises(ScenarioError, match="seed must have"):
                parse_scenario(f"model: {model}\ntask: simulate\nseed: {seed}\n")
        # Entries are cast only from numbers: no booleans, no strings.
        for bad in ("true", "'0.5'", "1e-1"):
            with pytest.raises(ScenarioError, match=r"seed\[3\] must be a number"):
                parse_scenario("model: slip\ntask: simulate\n"
                               f"seed: [0.8, 0.0, 0.0, {bad}]\n")

    def test_nonpositive_numerics_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: simulate\nnumerics: {tol: -1e-8}\n")
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: simulate\nnumerics: {t_max: 0}\n")
        with pytest.raises(ScenarioError):
            Numerics(max_impacts=0)
        # A bool or a string is not a number, even when float() would take
        # it; PyYAML reads 1e-10 (no dot) as a string.
        for key in ("tol", "event_tol", "t_max", "max_impacts"):
            for bad in (".nan", ".inf", "true", "'5'", "1e-10"):
                with pytest.raises(ScenarioError, match=f"numerics.{key}"):
                    parse_scenario("model: slip\ntask: simulate\n"
                                   f"numerics: {{{key}: {bad}}}\n")
        # An integer field takes integral values only, never truncated.
        with pytest.raises(ScenarioError, match="must be an integer"):
            parse_scenario("model: slip\ntask: simulate\n"
                           "numerics: {max_impacts: 1.9}\n")

    def test_integral_number_accepted_for_int_field(self):
        sc = parse_scenario("model: slip\ntask: simulate\n"
                            "numerics: {max_impacts: 3.0, t_max: 5}\n")
        assert sc.numerics.max_impacts == 3 and type(sc.numerics.max_impacts) is int
        assert sc.numerics.t_max == 5.0 and type(sc.numerics.t_max) is float

    def test_bad_stride_rejected(self):
        with pytest.raises(ScenarioError):
            Outputs(stride=0)
        for bad in ("2.7", "true", "'2'"):
            with pytest.raises(ScenarioError, match="outputs.stride must be"):
                parse_scenario("model: slip\ntask: simulate\n"
                               f"outputs: {{stride: {bad}}}\n")

    def test_empty_output_name_rejected(self):
        for key in ("trajectory", "report"):
            with pytest.raises(ScenarioError, match=f"outputs.{key}"):
                parse_scenario("model: slip\ntask: simulate\n"
                               f"outputs: {{{key}: ''}}\n")

    @pytest.mark.parametrize("key", ["trajectory", "report"])
    @pytest.mark.parametrize("name", ["a\0b", "../escaped.csv", "/abs/escaped.yaml",
                                      "sub/r.yaml", ".", "..", ""])
    def test_output_name_outside_out_rejected(self, key, name):
        with pytest.raises(ScenarioError, match=f"outputs.{key} must be a plain"):
            Outputs(**{key: name})

    @pytest.mark.parametrize("key", ["trajectory", "report"])
    def test_nul_output_name_rejected_when_parsed(self, key):
        with pytest.raises(ScenarioError, match=f"outputs.{key}"):
            parse_scenario("model: slip\ntask: simulate\n"
                           f'outputs: {{{key}: "a\\0b"}}\n')

    def test_alternative_separator_rejected(self, monkeypatch):
        monkeypatch.setattr(scenario.os, "altsep", "\\")
        with pytest.raises(ScenarioError, match="outputs.report"):
            Outputs(report="sub\\r.yaml")

    @pytest.mark.parametrize("name", ["run-1.csv", "..csv", "a.b.yaml", "r"])
    def test_plain_output_name_accepted(self, name):
        assert Outputs(trajectory=name, report=name).report == name

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("model: slip\ntask: simulate\nparams: {kappa: soft}\n")
        for bad in (".nan", ".inf", "-.inf"):
            with pytest.raises(ScenarioError):
                parse_scenario("model: slip\ntask: simulate\n"
                               f"params: {{kappa: {bad}}}\n")
        for bad in ("true", "'50.0'", "5e1"):
            with pytest.raises(ScenarioError, match="params.kappa must be a number"):
                parse_scenario("model: slip\ntask: simulate\n"
                               f"params: {{kappa: {bad}}}\n")

    @pytest.mark.parametrize("model, params, message", [
        ("slip", {"m": 0.0}, "m must be positive"),
        ("slip", {"l0": -1.0}, "l0 must be positive"),
        ("slip", {"inertia": 0.0}, "inertia must be positive"),
        ("slip", {"phi0": 2.0}, "phi0 must lie in"),
        ("pendulum", {"k": -1.0}, "k must be positive"),
        ("controlled_slip", {"c0": -1.0}, "c0 must be positive"),
        ("controlled_slip", {"m": 2.0}, "the controlled SLIP model requires unit mass"),
    ], ids=["slip_m", "slip_l0", "slip_inertia", "slip_phi0", "pendulum_k",
            "controlled_c0", "controlled_m"])
    def test_param_out_of_range_rejected(self, model, params, message):
        # The model's own range check, raised where the scenario is built.
        with pytest.raises(ScenarioError, match=rf"params \({model}\): {message}"):
            Scenario(model=model, task="simulate", params=params)

    def test_model_params_built_from_params(self):
        sc = parse_scenario("model: slip\ntask: simulate\nparams: {kappa: 60.0}\n")
        assert sc.model_params == dataclasses.replace(rs.CERTIFIED_SLIP.params,
                                                      kappa=60.0)
        pendulum = parse_scenario("model: pendulum\ntask: simulate\n"
                                  "params: {k: 2.0}\n")
        assert pendulum.model_params == rs.PendulumParams(k=2.0)

    def test_accepts_preloaded_mapping(self):
        sc = parse_scenario({"model": "slip", "task": "simulate"})
        assert sc.model == "slip"

    @pytest.mark.parametrize("kwargs, message", [
        ({"model": "pendulm", "task": "simulate"}, "model must be one of"),
        ({"model": "slip", "task": "periodic_orbit", "params": {"kapa": 60.0}},
         "unknown key 'kapa' in params"),
        ({"model": "slip", "task": "simulate", "params": None},
         r"params \(slip\) must be a mapping"),
        ({"model": "slip", "task": "simulate", "params": {"kappa": "50"}},
         "params.kappa must be a number, got '50'"),
        ({"model": "slip", "task": "simulate", "seed": ("a", 0, 0, 0)},
         r"seed\[0\] must be a number, got 'a'"),
    ], ids=["model", "params_key", "params_none", "params_type", "seed_type"])
    def test_direct_construction_validated_like_parsing(self, kwargs, message):
        # A misspelt model or parameter key must not fall back to a default.
        with pytest.raises(ScenarioError, match=message):
            Scenario(**kwargs)


class TestRoundTrip:
    def test_echo_reparses_to_same_scenario(self):
        sc = parse_scenario(MINIMAL)
        echoed = scenario_to_dict(sc)
        again = parse_scenario(echoed)
        assert scenario_to_dict(again) == echoed

    def test_echo_is_yaml_serialisable(self):
        sc = parse_scenario(MINIMAL)
        text = yaml.safe_dump(scenario_to_dict(sc))
        assert parse_scenario(text).numerics.t_max == 5.0

    @pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
    def test_report_echo_reparses_for_every_task(self, path, tmp_path):
        sc = parse_scenario(path.read_text())
        run(sc, out_dir=str(tmp_path))
        with open(tmp_path / sc.outputs.report) as fh:
            echoed = yaml.safe_load(fh)["scenario"]
        again = parse_scenario(echoed)
        assert again == sc
        assert scenario_to_dict(again) == echoed

    def test_check_tolerances_are_the_library_constants(self, tmp_path):
        expected = {"closure": symmetry.CLOSURE_TOL,
                    "on_manifold": control.ON_MANIFOLD_TOL,
                    "hybrid_invariance": control.INVARIANCE_TOL,
                    "u_star_evenness": control.U_STAR_EVENNESS_TOL,
                    "involution": symmetry.INVOLUTION_TOL,
                    "reversibility": symmetry.REVERSIBILITY_TOL,
                    "routhian_invariance": symmetry.ROUTHIAN_INVARIANCE_TOL}
        seen = {}
        for stem in ("slip_periodic_orbit", "controlled_zero_dynamics",
                     "slip_check_suite"):
            sc = parse_scenario(next(p for p in SCENARIOS if p.stem == stem)
                                .read_text())
            report = run(sc, out_dir=str(tmp_path / stem))
            for check in report.checks:
                if check["name"] in expected:
                    seen.setdefault(check["name"], set()).add(check["tolerance"])
        assert seen == {name: {tol} for name, tol in expected.items()}

    def test_committed_scenarios_cover_every_task(self):
        tasks = {yaml.safe_load(p.read_text())["task"] for p in SCENARIOS}
        assert tasks == set(TASKS)


@pytest.fixture(scope="module")
def orbit_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("orbit")
    sc = parse_scenario(MINIMAL)
    report = run(sc, out_dir=str(out))
    return sc, report, out


class TestRunArtifacts:
    def test_report_passes(self, orbit_run):
        _, report, _ = orbit_run
        assert report.passed
        assert report.results["closure_residual"] <= 1e-6

    def test_csv_header_and_monotone_time(self, orbit_run):
        _, _, out = orbit_run
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "xi", "phi", "xidot", "phidot", "segment"]
        ts = [float(r[0]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_csv_segment_column_increments_at_impacts(self, orbit_run):
        _, report, out = orbit_run
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        segs = [int(r[-1]) for r in rows]
        assert segs[0] == 0
        assert max(segs) == len(report.impact_times)
        for a, b in zip(rows, rows[1:]):
            if int(b[-1]) == int(a[-1]) + 1:
                # impact rows duplicate the time with pre/post states
                assert float(b[0]) == pytest.approx(float(a[0]), abs=1e-12)

    def test_csv_full_precision(self, orbit_run):
        _, _, out = orbit_run
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        # at least one entry needs >= 16 significant digits to round-trip
        assert any(len(cell.lstrip("-").replace(".", "").lstrip("0")) >= 16
                   for row in rows for cell in row[:-1])

    def test_report_yaml_parseable_and_plain(self, orbit_run):
        _, report, out = orbit_run
        with open(out / "report.yaml") as fh:
            payload = yaml.safe_load(fh)
        assert payload["task"] == "periodic_orbit"
        assert payload["passed"] is True
        assert payload["impact_times"] == pytest.approx(report.impact_times)
        for check in payload["checks"]:
            assert set(check) == {"name", "passed", "residual", "tolerance"}
            assert isinstance(check["passed"], bool)

    def test_rerun_from_echo_reproduces_impacts(self, orbit_run, tmp_path):
        _, report, out = orbit_run
        with open(out / "report.yaml") as fh:
            payload = yaml.safe_load(fh)
        sc2 = parse_scenario(payload["scenario"])
        report2 = run(sc2, out_dir=str(tmp_path))
        assert len(report2.impact_times) == len(report.impact_times)
        np.testing.assert_allclose(report2.impact_times, report.impact_times,
                                   atol=1e-8)

    def test_stride_thins_but_keeps_endpoints(self, tmp_path):
        doc = yaml.safe_load(MINIMAL)
        doc["task"] = "simulate"
        doc["outputs"] = {"stride": 10}
        sc = parse_scenario(doc)
        run(sc, out_dir=str(tmp_path))
        with open(tmp_path / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        dense = parse_scenario({**doc, "outputs": {"stride": 1}})
        run(dense, out_dir=str(tmp_path / "dense"))
        with open(tmp_path / "dense" / "trajectory.csv") as fh:
            dense_rows = list(csv.reader(fh))[1:]
        assert len(rows) < len(dense_rows)
        assert rows[-1][0] == dense_rows[-1][0]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_csv_matches_per_value_writer(self, stride, tmp_path):
        # Stride 3 drops knots inside each segment but keeps its last one.
        from oracles import write_trajectory_csv as oracle

        for model, impacts in (("slip", 4), ("pendulum", 0)):
            sc = parse_scenario({"model": model, "task": "simulate"})
            traj = rs.run_hybrid(scenario._spec(sc), scenario._default_seed(sc),
                                 0.0, 6.0)
            names = scenario._STATE_NAMES[model]
            assert len(traj.impacts) == impacts
            assert any((len(seg.t) - 1) % 3 for seg in traj.segments)
            write_trajectory_csv(tmp_path / "new.csv", names, traj.segments,
                                 stride=stride)
            oracle(tmp_path / "old.csv", names, traj.segments, stride=stride)
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "old.csv").read_bytes())

    @pytest.mark.parametrize("doc", [
        "model: slip\ntask: check_suite\nparams: {kappa: 50.0, l0: 1.0}\n",
        "model: pendulum\ntask: check_suite\n"], ids=["slip", "pendulum"])
    def test_check_suite_residuals_are_the_symmetry_functions(self, doc, tmp_path):
        # One image phi(s) per sample gives the residuals that
        # involution_residual and reversibility_residual give, as floats.
        sc = parse_scenario(doc)
        results = run(sc, out_dir=str(tmp_path)).results
        if sc.model == "slip":
            sys = rs.slip_routhian(rs.SlipParams(**sc.params))
            sym, lo, hi = rs.slip_symmetry(), [0.5, -1.3, -2.0, -3.0], [1.5, 1.3, 2.0, 3.0]
        else:
            sys = rs.pendulum_routhian(rs.PendulumParams(**sc.params))
            sym, lo, hi = rs.pendulum_symmetry(), [0.5, -2.0], [2.0, 2.0]
        f = rs.routh_vector_field(sys)
        draws = np.random.default_rng(0).uniform(lo, hi, size=(1000, len(lo)))
        assert results["involution_residual"] == max(
            symmetry.involution_residual(sym, s) for s in draws)
        assert results["reversibility_residual"] == max(
            symmetry.reversibility_residual(sym, f, s) for s in draws)

    @pytest.mark.parametrize("doc", [
        "model: slip\ntask: check_suite\nparams: {kappa: 50.0, l0: 1.0}\n",
        "model: pendulum\ntask: check_suite\n"], ids=["slip", "pendulum"])
    def test_check_suite_free_of_the_fd_step(self, doc, tmp_path, monkeypatch):
        # The bundled symmetries' dphi is exact: no central difference runs,
        # and scaling the step moves neither the results nor dphi.
        from routhsim import _fd

        sc = parse_scenario(doc)
        slip = sc.model == "slip"
        sym = rs.slip_symmetry() if slip else rs.pendulum_symmetry()
        states = np.random.default_rng(8).uniform(0.5, 1.5, (20, 4 if slip else 2))
        results, dphi = run(sc, out_dir=str(tmp_path)).results, sym.dphi(states)
        calls = []
        steps, step = _fd.steps, _fd.FD_STEP
        monkeypatch.setattr(_fd, "steps", lambda x: calls.append(1) or steps(x))
        for scale in (0.1, 10.0):
            monkeypatch.setattr(_fd, "FD_STEP", scale * step)
            assert run(sc, out_dir=str(tmp_path)).results == results
            assert np.array_equal(sym.dphi(states), dphi)
        assert calls == []
        # The counter sees a symmetry given by a callable alone.
        symmetry.ReversalSymmetry(F=lambda q: q).dphi(states[0])
        assert calls

    def test_check_suite_runs_clean(self, tmp_path):
        sc = parse_scenario("model: slip\ntask: check_suite\n"
                            "params: {kappa: 50.0, l0: 1.0}\n")
        report = run(sc, out_dir=str(tmp_path))
        assert report.passed
        assert report.results["samples"] == 1000

    def test_poincare_spectrum_exact(self, tmp_path):
        # The pinned reset's zero multiplier comes out at rounding level, not
        # at the size of a finite-difference error.
        doc = yaml.safe_load(MINIMAL)
        doc["task"] = "poincare"
        results = run(parse_scenario(doc), out_dir=str(tmp_path)).results
        moduli = [e["modulus"] for e in results["eigenvalues"]]
        assert min(moduli) <= 1e-8
        assert results["lambda0_bound_ok"] is True
        assert results["lambda1_count"] == 1

    def test_task_model_mismatch_raises(self, tmp_path):
        sc = parse_scenario("model: pendulum\ntask: poincare\n")
        with pytest.raises(ScenarioError):
            run(sc, out_dir=str(tmp_path))
