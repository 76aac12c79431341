"""The four benchmark workloads: generated cases, the timed op, and checks.

Each workload turns the run's seed into an endless, deterministic list of
cases. Cases come in cycles of kinds, and a run stops only at a cycle
boundary, so every run sees the same mix of kinds; the parameter that sets
an op's cost most is drawn stratified across a cycle for the same reason.
Kinds are weighted so that the median and the tail latency fall inside a
cluster of similar ops, not in the gap between two. Every workload sets a
minimum op count, a whole number of cycles; the tail latency is read on
exactly that many ops, so its percentile does not change with the speed of
the machine or of the program.

The library only ever receives the generated inputs. Checks hold for any
correct implementation (including an exact linearization of the return
map), so they read results through the public API and recompute what they
can independently.
"""
from __future__ import annotations

import dataclasses
import itertools
import os
import shutil

import numpy as np
import yaml

import routhsim as rs
from routhsim import cli

GAIT_T_MAX = 5.0       # gait horizon of the committed scenarios and searches
STRIDE_T = 8.0         # long multi-stance horizon
ORBIT_TOL = 1e-6       # closure, time symmetry, distance from the manifold
ENERGY_TOL = 1e-9      # relative jump of reduced energy across one impact
DRIFT_TOL = 1e-6       # relative drift of reduced energy over a whole run
REF_TOL = 1e-8         # frozen certified references, as in the test suite
# Finite-difference Jacobians put the unit eigenvalue up to ~7e-5 off unit
# modulus on these gaits; an exact linearization only gets closer.
SPECTRUM_TOL = 1e-3

# Frozen certified references, written out here so that the checks do not
# depend on constants supplied by the library under test.
CERT_KAPPA = 50.0
CERT_SEED = (0.8, 0.5)             # xi*, phidot*
CERT_HALF_PERIOD = 0.846719751
CERT_IMPACT_ANGLE = 1.129924965
CTRL_COEFFS = (0.8, 0.05)          # c0, c2
CTRL_L0 = 0.808
CTRL_PHIDOT = 0.5
CTRL_HALF_PERIOD = 0.503131381
LEADING_MODULUS = 1.888            # at the certified SLIP gait


def stratum(rng, lo, hi, j, k):
    """A uniform draw from the j-th of k equal slices of [lo, hi)."""
    return lo + (hi - lo) * (j + rng.random()) / k


def gait_seed(xi, phidot):
    return np.array([xi, 0.0, 0.0, phidot])


def controlled_case(rng):
    """A controlled-SLIP seed near the certified one; l0 puts touchdown at `angle`."""
    c0 = rng.uniform(0.79, 0.81)
    c2 = rng.uniform(0.045, 0.055)
    angle = rng.uniform(0.38, 0.42)
    return {"c0": c0, "c2": c2, "l0": c0 + c2 * angle ** 2,
            "phidot": rng.uniform(0.45, 0.55)}


def slip_energy(params, state):
    return rs.reduced_energy(rs.slip_routhian(params), state)


def impact_failures(params, traj):
    """Guard residual within event_tol and reduced energy kept at every impact."""
    fails = []
    spec = rs.slip_hybrid_spec(params)
    for k, ev in enumerate(traj.impacts):
        res = abs(spec.guard(ev.pre_state))
        if not res <= spec.event_tol:
            fails.append(f"impact {k}: guard residual {res:.3e}")
        e_pre = slip_energy(params, ev.pre_state)
        e_post = slip_energy(params, ev.post_state)
        if not abs(e_post - e_pre) <= ENERGY_TOL * max(1.0, abs(e_pre)):
            fails.append(f"impact {k}: energy jump {e_post - e_pre:.3e}")
    return fails


def orbit_failures(params, sym, seed, orbit):
    """Closure and time symmetry, recomputed from the trajectory, plus impacts."""
    fails = impact_failures(params, orbit.trajectory)
    traj = orbit.trajectory
    if len(traj.impacts) != 1:
        fails.append(f"{len(traj.impacts)} impacts on a symmetric orbit")
    closure = float(np.linalg.norm(traj.segments[-1].y[-1] - seed))
    if not closure <= ORBIT_TOL:
        fails.append(f"closure {closure:.3e}")
    if not orbit.time_symmetry_residual <= ORBIT_TOL:
        fails.append(f"time symmetry {orbit.time_symmetry_residual:.3e}")
    # phi(gamma(t)) = gamma(-t) = gamma(2T - t) on the periodic orbit.
    T = orbit.half_period
    for t in np.linspace(0.0, T, 7)[1:-1]:
        gap = float(np.max(np.abs(sym.phi(traj.state_at(t))
                                  - traj.state_at(2.0 * T - t))))
        if not gap <= ORBIT_TOL:
            fails.append(f"time symmetry at t={t:.3f}: {gap:.3e}")
    return fails


class Workload:
    name = ""
    cycle = ("op",)
    min_ops: int       # ops in every run, and the sample the tail is read on
    trace_pass = None  # cases repeated by the traced run; default one cycle

    def fixture(self, workdir):
        return {"sym": rs.slip_symmetry()}

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        return (self.case(rng, i) for i in itertools.count())

    def prepare(self, fx, case):
        return case

    def probe(self, fx, case, tr):
        """Public calls made only in the traced run, outside the op's span."""


class GaitSweep(Workload):
    """One op certifies one gait: a symmetric SLIP orbit or a controlled one."""

    name = "gait_sweep"
    cycle = ("cert_slip", "slip", "slip", "slip", "slip",
             "cert_controlled", "controlled", "controlled",
             "no_impact", "no_impact")
    min_ops = 100

    def case(self, rng, i):
        kind = self.cycle[i % len(self.cycle)]
        if kind == "cert_slip":
            return {"kind": kind, "kappa": CERT_KAPPA, "seed": gait_seed(*CERT_SEED)}
        if kind == "slip":
            # Stiffness and leg-swing rate set the cost: each gets one of
            # four strata per cycle, paired differently from cycle to cycle.
            slot = i % len(self.cycle) - self.cycle.index("slip")
            n = self.cycle.count("slip")
            kappa = stratum(rng, 50.0, 100.0, slot, n)
            phidot = stratum(rng, 0.5, 3.0, (slot + i // len(self.cycle)) % n, n)
            return {"kind": kind, "kappa": kappa,
                    "seed": gait_seed(rng.uniform(0.80, 0.90), phidot)}
        if kind == "no_impact":
            # As in search_slip_tuple: no leg swing, so the vertical bounce
            # never lifts the spring back to rest length.
            return {"kind": kind, "kappa": rng.uniform(45.0, 55.0),
                    "seed": gait_seed(rng.uniform(0.78, 0.85), 0.0)}
        if kind == "cert_controlled":
            c = {"c0": CTRL_COEFFS[0], "c2": CTRL_COEFFS[1], "l0": CTRL_L0,
                 "phidot": CTRL_PHIDOT}
        else:
            c = controlled_case(rng)
        return {"kind": kind, **c}

    def op(self, fx, case, tr):
        kind = case["kind"]
        if kind in ("cert_slip", "slip", "no_impact"):
            spec = tr.spec(rs.slip_hybrid_spec(rs.SlipParams(kappa=case["kappa"])))
            with tr.span("symmetry.orbit"):
                try:
                    return rs.construct_periodic_orbit(spec, fx["sym"], case["seed"],
                                                       t_max=GAIT_T_MAX)
                except rs.NoImpactError as exc:
                    if kind != "no_impact":
                        raise
                    return exc
        params = rs.SlipParams(kappa=CERT_KAPPA, l0=case["l0"])
        coeffs = rs.ConstraintCoefficients(case["c0"], case["c2"])
        manifold = rs.quadratic_constraint(coeffs)
        with tr.span("control.invariance_check"):
            invariance = rs.hybrid_invariance_check(
                manifold, tr.counted("models.guard", rs.slip_guard(params)),
                tr.counted("models.reset", rs.slip_reset(params)))
        spec = tr.spec(rs.closed_loop_slip_spec(params, coeffs))
        with tr.span("control.orbit_on_manifold"):
            orbit = rs.periodic_orbit_on_manifold(
                spec, fx["sym"], manifold, gait_seed(case["c0"], case["phidot"]),
                GAIT_T_MAX)
        return invariance, orbit

    def check(self, fx, case, result):
        kind = case["kind"]
        if kind == "no_impact":
            if isinstance(result, rs.NoImpactError):
                return []
            return ["a seed with no leg swing reached the guard"]
        if kind in ("cert_slip", "slip"):
            params = rs.SlipParams(kappa=case["kappa"])
            fails = orbit_failures(params, fx["sym"], case["seed"], result)
            if kind == "cert_slip":
                angle = float(result.trajectory.impacts[0].pre_state[1])
                if not abs(result.half_period - CERT_HALF_PERIOD) <= REF_TOL:
                    fails.append(f"certified half period {result.half_period!r}")
                if not abs(angle - CERT_IMPACT_ANGLE) <= REF_TOL:
                    fails.append(f"certified impact angle {angle!r}")
            return fails
        (invariant, witness), orbit = result
        params = rs.SlipParams(kappa=CERT_KAPPA, l0=case["l0"])
        manifold = rs.quadratic_constraint(
            rs.ConstraintCoefficients(case["c0"], case["c2"]))
        fails = orbit_failures(params, fx["sym"],
                               gait_seed(case["c0"], case["phidot"]), orbit)
        if not invariant or witness is not None:
            fails.append(f"manifold not hybrid invariant: {witness}")
        dist = max(max(abs(r) for r in manifold.residuals(y))
                   for seg in orbit.trajectory.segments for y in seg.y)
        if not dist <= ORBIT_TOL:
            fails.append(f"distance from the constraint manifold {dist:.3e}")
        if kind == "cert_controlled" and not (
                abs(orbit.half_period - CTRL_HALF_PERIOD) <= REF_TOL):
            fails.append(f"certified controlled half period {orbit.half_period!r}")
        return fails


class Stability(Workload):
    """One op is one verdict: orbit, pinned return-map Jacobian, reset rank, report."""

    name = "stability"
    min_ops = 16
    trace_pass = 2  # the certified gait and one seeded gait

    def case(self, rng, i):
        if i == 0:
            return {"kappa": CERT_KAPPA, "seed": gait_seed(*CERT_SEED),
                    "certified": True}
        # The second multiplier swings through 1 across wider boxes, and near 1
        # the finite-difference Jacobian cannot place the unit eigenvalue within
        # SPECTRUM_TOL. On a grid scan of this box it stays between 1.3 and 3.9.
        return {"kappa": rng.uniform(49.0, 51.0),
                "seed": gait_seed(rng.uniform(0.795, 0.802), rng.uniform(0.52, 0.58)),
                "certified": False}

    def op(self, fx, case, tr):
        params = rs.SlipParams(kappa=case["kappa"])
        spec = tr.spec(rs.slip_hybrid_spec(params))
        with tr.span("symmetry.orbit"):
            orbit = rs.construct_periodic_orbit(spec, fx["sym"], case["seed"],
                                                t_max=GAIT_T_MAX)
        impact = orbit.trajectory.impacts[0].pre_state
        # Touchdown angle pinned at the impact angle: the rank-2 reset.
        pinned = tr.spec(rs.slip_hybrid_spec(
            dataclasses.replace(params, phi0=abs(float(impact[1])))))
        section = tr.section(rs.slip_section(case["seed"]))
        with tr.span("poincare.jacobian"):
            jac = rs.jacobian(pinned, section, t_max=GAIT_T_MAX)
        with tr.span("poincare.spectrum"):
            rank = rs.numerical_rank(rs.reset_jacobian(pinned, impact))
            report = rs.stability_report(jac, r=2, beta=rank, n_minus_1=3)
        return orbit, rank, report

    def check(self, fx, case, result):
        orbit, rank, report = result
        params = rs.SlipParams(kappa=case["kappa"])
        fails = orbit_failures(params, fx["sym"], case["seed"], orbit)
        if rank != 2:
            fails.append(f"pinned reset rank {rank}")
        moduli = np.sort(np.abs(report.eigenvalues))
        if moduli.shape != (3,) or not np.all(np.isfinite(moduli)):
            return fails + [f"spectrum {moduli}"]
        if not moduli[0] <= SPECTRUM_TOL:
            fails.append(f"no eigenvalue near 0: {moduli}")
        if not np.any(np.abs(moduli - 1.0) <= SPECTRUM_TOL):
            fails.append(f"no eigenvalue near unit modulus: {moduli}")
        if case["certified"] and not abs(moduli[-1] - LEADING_MODULUS) <= SPECTRUM_TOL:
            fails.append(f"certified leading modulus {moduli[-1]!r}")
        return fails


class LongStride(Workload):
    """One op is a long multi-stance run plus the cyclic-attitude reconstruction."""

    name = "long_stride"
    cycle = ("a", "b", "c", "d")
    min_ops = 16

    def case(self, rng, i):
        # The leg-swing rate sets the number of stances, hence the cost.
        phidot = stratum(rng, 1.0, 2.0, i % len(self.cycle), len(self.cycle))
        return {"kappa": rng.uniform(45.0, 55.0),
                "mu": rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0),
                "seed": gait_seed(rng.uniform(0.80, 0.90), phidot)}

    def op(self, fx, case, tr):
        params = rs.SlipParams(kappa=case["kappa"], mu=case["mu"])
        spec = tr.spec(rs.slip_hybrid_spec(params))
        with tr.span("hybrid.run_hybrid"):
            traj = rs.run_hybrid(spec, case["seed"], 0.0, STRIDE_T)
        tr.note("hybrid.impacts", len(traj.impacts))
        routhian = rs.slip_routhian(params)
        routhian = dataclasses.replace(routhian, base=tr.mechanical(routhian.base))
        with tr.span("routh.reconstruct"):
            mus = rs.momentum_sequence(params.mu, traj.impacts,
                                       rs.slip_momentum_transition)
            thetas = rs.reconstruct_cyclic(routhian, traj, 0.0, mus=mus)
        return traj, mus, thetas

    def check(self, fx, case, result):
        traj, mus, thetas = result
        params = rs.SlipParams(kappa=case["kappa"], mu=case["mu"])
        fails = impact_failures(params, traj)
        n = len(traj.impacts)
        if n < 2:
            fails.append(f"only {n} impacts in {STRIDE_T} s")
        times = [ev.time for ev in traj.impacts]
        if times != sorted(times) or len(traj.segments) != n + 1:
            fails.append("impacts out of order or segments missing")
        if not abs(traj.segments[-1].t[-1] - STRIDE_T) <= 1e-12:
            fails.append(f"run ends at {traj.segments[-1].t[-1]!r}")
        e0 = slip_energy(params, case["seed"])
        e1 = slip_energy(params, traj.segments[-1].y[-1])
        if not abs(e1 - e0) <= DRIFT_TOL * max(1.0, abs(e0)):
            fails.append(f"energy drift {e1 - e0:.3e}")
        if mus != [case["mu"] * (-1.0) ** k for k in range(n + 1)]:
            fails.append(f"momentum sequence {mus}")
        # Constant inertia: theta grows by mu_k * dt / I on segment k.
        theta = 0.0
        for k, (seg, (_, th)) in enumerate(zip(traj.segments, thetas)):
            want = mus[k] * (seg.t[-1] - seg.t[0]) / params.inertia
            if not (abs(th[0] - theta) <= 1e-12
                    and abs(th[-1] - th[0] - want) <= 1e-8):
                fails.append(f"segment {k}: attitude {th[-1] - th[0]!r}, want {want!r}")
                break
            theta = th[-1]
        return fails


# Mirrors of the committed scenarios (scenarios/slip_simulate.yaml,
# slip_periodic_orbit.yaml, controlled_zero_dynamics.yaml and
# slip_check_suite.yaml); the seeded fields are filled in per case.
# `poincare` is left out: the stability workload covers it.
def scenario_doc(task, rng):
    if task == "zero_dynamics":
        c = controlled_case(rng)
        return {"model": "controlled_slip", "task": task,
                "params": {"kappa": 50.0, "l0": c["l0"], "c0": c["c0"], "c2": c["c2"]},
                "seed": [c["c0"], 0.0, 0.0, c["phidot"]],
                "numerics": {"tol": 1e-10, "t_max": 5.0}}
    if task == "check_suite":
        return {"model": "slip", "task": task,
                "params": {"kappa": rng.uniform(45.0, 55.0)}}
    return {"model": "slip", "task": task,
            "params": {"kappa": rng.uniform(47.0, 53.0), "l0": 1.0},
            "seed": [rng.uniform(0.79, 0.82), 0.0, 0.0, rng.uniform(0.4, 0.6)],
            "numerics": {"tol": 1e-10,
                         "t_max": 6.0 if task == "simulate" else 5.0}}


def written_bytes(out_dir):
    """Bytes of the files in out_dir, less the report's wall_seconds line.

    The text of that float changes length from run to run; without it the
    count repeats exactly.
    """
    total = 0
    for entry in os.scandir(out_dir):
        with open(entry.path, "rb") as fh:
            data = fh.read()
        if entry.name == "report.yaml":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"wall_seconds:"))
        total += len(data)
    return total


class ScenarioSuite(Workload):
    """One op is one in-process `routhsim.cli.main` call on a generated scenario."""

    name = "scenario_suite"
    cycle = ("simulate", "simulate", "periodic_orbit", "periodic_orbit",
             "zero_dynamics", "check_suite")
    min_ops = 60

    def fixture(self, workdir):
        return {"dir": workdir}

    def case(self, rng, i):
        task = self.cycle[i % len(self.cycle)]
        doc = scenario_doc(task, rng)
        return {"task": task, "doc": doc, "text": yaml.safe_dump(doc)}

    def prepare(self, fx, case):
        path = os.path.join(fx["dir"], "scenario.yaml")
        with open(path, "w") as fh:
            fh.write(case["text"])
        out = os.path.join(fx["dir"], "out")
        shutil.rmtree(out, ignore_errors=True)
        return {**case, "out": out,
                "argv": [case["task"], "--scenario", path, "--out", out, "--quiet"]}

    def op(self, fx, case, tr):
        with tr.span("cli.main"):
            return cli.main(case["argv"])

    def probe(self, fx, case, tr):
        tr.note("scenario.report_bytes", written_bytes(case["out"]))
        with tr.span("scenario.parse"):
            sc = rs.parse_scenario(case["text"])
        with tr.span("scenario.run"):
            report = rs.run(sc, out_dir=os.path.join(fx["dir"], "probe"))
        tr.note("scenario.task_s", report.wall_seconds)

    def check(self, fx, case, code):
        if code != 0:
            return [f"exit code {code}"]
        with open(os.path.join(case["out"], "report.yaml")) as fh:
            report = yaml.safe_load(fh)
        doc, task, results = case["doc"], case["task"], report["results"]
        fails = []
        if report["task"] != task or not report["passed"]:
            fails.append(f"report task {report['task']}, passed {report['passed']}")
        echo = report["scenario"]
        if echo["params"] != doc["params"] or echo["seed"] != doc.get("seed"):
            fails.append("scenario echo differs from the input")
        want_checks = {"simulate": set(), "periodic_orbit": {"closure", "time_symmetry"},
                       "zero_dynamics": {"u_star_evenness", "on_manifold", "closure",
                                         "hybrid_invariance"},
                       "check_suite": {"involution", "reversibility",
                                       "routhian_invariance"}}[task]
        if {c["name"] for c in report["checks"]} != want_checks:
            fails.append(f"checks {[c['name'] for c in report['checks']]}")
        if task == "simulate":
            params = rs.SlipParams(**doc["params"])
            final = np.array(results["final_state"])
            drift = slip_energy(params, final) - slip_energy(params, doc["seed"])
            if not results["impact_count"] == len(report["impact_times"]) >= 1:
                fails.append(f"impact count {results['impact_count']}")
            if not abs(drift) <= DRIFT_TOL:
                fails.append(f"energy drift {drift:.3e}")
            with open(os.path.join(case["out"], "trajectory.csv")) as fh:
                last = fh.read().rstrip("\n").rsplit("\n", 1)[-1].split(",")
            if not np.array_equal(np.array(last[1:5], dtype=float), final):
                fails.append("trajectory does not end at the final state")
        if task in ("periodic_orbit", "zero_dynamics"):
            if report["impact_times"] != [results["half_period"]]:
                fails.append(f"impact times {report['impact_times']}")
        return fails


WORKLOADS = {w.name: w for w in (GaitSweep(), Stability(), LongStride(),
                                 ScenarioSuite())}
