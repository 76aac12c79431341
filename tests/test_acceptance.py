"""Acceptance gate: one test per release criterion, each printing a verdict.

Every test prints a single `ACCEPTANCE <n> <name>: PASS/FAIL` line regardless
of capture settings, then asserts the criterion at its stated tolerance.
"""
import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.integrate import solve_ivp

import routhsim as rs
from oracles import char_poly_coefficients

REPO = Path(__file__).resolve().parents[1]
CERT = rs.CERTIFIED_SLIP
CCTRL = rs.CERTIFIED_CONTROLLED


def verdict(capsys, number, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def integrate_full_pendulum(t_eval, r0=1.2, mu=1.0, m=1.0, k=1.0):
    """Oracle: the unreduced planar spring pendulum in polar coordinates."""
    theta_dot0 = mu / (m * r0 ** 2)

    def field(t, y):
        r, theta, rdot, thetadot = y
        return [rdot, thetadot,
                r * thetadot ** 2 - (k / m) * r,
                -2.0 * rdot * thetadot / r]

    sol = solve_ivp(field, (t_eval[0], t_eval[-1]), [r0, 0.0, 0.0, theta_dot0],
                    t_eval=t_eval, method="RK45", rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y


def test_criterion_1_reduction_correctness(capsys):
    started = time.perf_counter()
    t_eval = np.linspace(0.0, 5.0, 501)
    full = integrate_full_pendulum(t_eval)

    f = rs.routh_vector_field(rs.pendulum_routhian(rs.PendulumParams()))
    reduced = solve_ivp(lambda t, y: f(y), (0.0, 5.0), [1.2, 0.0],
                        t_eval=t_eval, method="RK45", rtol=1e-12, atol=1e-12)
    sup = max(np.max(np.abs(full[0] - reduced.y[0])),
              np.max(np.abs(full[2] - reduced.y[1])))
    p_theta = 1.0 * full[0] ** 2 * full[3]
    drift = np.max(np.abs(p_theta - 1.0))
    elapsed = time.perf_counter() - started

    ok = sup <= 1e-6 and drift <= 1e-8 and elapsed < 1.0
    verdict(capsys, 1, "reduction correctness", ok)
    assert sup <= 1e-6
    assert drift <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_symmetry_certification(capsys):
    started = time.perf_counter()
    sym = rs.slip_symmetry()
    routhian = rs.slip_routhian(CERT.params)
    f = rs.routh_vector_field(routhian)
    rng = np.random.default_rng(0)
    inv = rev = rinv = 0.0
    for s in rng.uniform([0.5, -1.3, -2, -3], [1.5, 1.3, 2, 3], (1000, 4)):
        inv = max(inv, rs.involution_residual(sym, s))
        rev = max(rev, rs.reversibility_residual(sym, f, s))
        img = sym.phi(s)
        rinv = max(rinv, abs(rs.routhian_eval(routhian, img[:2], img[2:])
                             - rs.routhian_eval(routhian, s[:2], s[2:])))
    elapsed = time.perf_counter() - started

    ok = inv <= 1e-10 and rev <= 1e-8 and rinv <= 1e-12 and elapsed < 1.0
    verdict(capsys, 2, "symmetry certification", ok)
    assert inv <= 1e-10
    assert rev <= 1e-8
    assert rinv <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_periodic_orbit_existence(capsys):
    started = time.perf_counter()
    found = rs.search_slip_tuple()
    match = (found.kappa == CERT.kappa
             and abs(found.xi_star - CERT.xi_star) <= 1e-12
             and abs(found.phidot_star - CERT.phidot_star) <= 1e-12)

    spec = rs.slip_hybrid_spec(CERT.params)
    orbit = rs.construct_periodic_orbit(spec, rs.slip_symmetry(), CERT.seed,
                                        t_max=5.0)
    elapsed = time.perf_counter() - started

    ok = (match and orbit.closure_residual <= 1e-6
          and orbit.time_symmetry_residual <= 1e-6 and elapsed < 5.0)
    verdict(capsys, 3, "periodic orbit existence", ok)
    assert match
    assert orbit.closure_residual <= 1e-6
    assert orbit.time_symmetry_residual <= 1e-6
    assert elapsed < 5.0


def test_criterion_4_family_of_orbits(capsys):
    started = time.perf_counter()
    spec = rs.slip_hybrid_spec(CERT.params)
    sym = rs.slip_symmetry()
    fp = rs.fixed_point_manifold(sym, CERT.seed[:2])
    residuals = []
    for j in range(fp.dim):
        for step in (1e-3, -1e-3):
            orbit = rs.construct_periodic_orbit(
                spec, sym, CERT.seed + step * fp.basis[:, j], t_max=5.0)
            residuals.append(orbit.closure_residual)
    elapsed = time.perf_counter() - started

    ok = (len(residuals) >= 4 and max(residuals) <= 1e-6 and elapsed < 10.0)
    verdict(capsys, 4, "family of orbits", ok)
    assert len(residuals) >= 4
    assert max(residuals) <= 1e-6
    assert elapsed < 10.0


def test_criterion_5_spectral_structure(capsys):
    # Stability convention: the touchdown angle is pinned at the detected
    # impact angle, which makes the reset Jacobian rank 2. At the certified
    # orbit this yields one unit eigenvalue, not two, so the two-unit-
    # eigenvalue sub-checks are expected to fail and are reported honestly.
    started = time.perf_counter()
    pinned = rs.SlipParams(kappa=CERT.kappa, l0=1.0, phi0=CERT.impact_angle)
    spec = rs.slip_hybrid_spec(pinned)
    section = rs.slip_section(CERT.seed)
    jac = rs.jacobian(spec, section, t_max=5.0)
    eigs = rs.eigenvalues(jac)

    impact_state = np.array([1.0, CERT.impact_angle, 1.05, 2.9])
    beta = rs.numerical_rank(rs.reset_jacobian(spec, impact_state))

    unit_count = int(np.sum(np.abs(np.abs(eigs) - 1.0) <= 1e-4))
    zero_count = int(np.sum(np.abs(eigs) <= 1e-4))
    ok0, ok1 = rs.check_spectral_bounds(eigs, r=2, beta=2, n_minus_1=3)
    elapsed = time.perf_counter() - started

    ok = (unit_count >= 2 and zero_count >= 1 and ok0 and ok1
          and beta == 2 and elapsed < 10.0)
    verdict(capsys, 5, "spectral structure", ok)
    assert zero_count >= 1
    assert beta == 2
    assert ok0
    assert elapsed < 10.0
    assert unit_count >= 2
    assert ok1


def test_criterion_6_controlled_zero_dynamics(capsys):
    started = time.perf_counter()
    params = CCTRL.params
    coeffs = CCTRL.coefficients
    manifold = rs.quadratic_constraint(coeffs)
    spec = rs.closed_loop_slip_spec(params, coeffs)

    rng = np.random.default_rng(1)
    evenness = max(abs(rs.feedback_u_star(manifold, params, phi, pd)
                       - rs.feedback_u_star(manifold, params, -phi, pd))
                   for phi, pd in rng.uniform([-1.2, -3.0], [1.2, 3.0],
                                              (100, 2)))

    orbit = rs.periodic_orbit_on_manifold(spec, rs.slip_symmetry(), manifold,
                                          CCTRL.seed, t_max=5.0)
    on_manifold = max(abs(manifold.residuals(y)[0])
                      for seg in orbit.trajectory.segments for y in seg.y)
    invariant, _ = rs.hybrid_invariance_check(
        manifold, rs.slip_guard(params), rs.slip_reset(params))
    elapsed = time.perf_counter() - started

    ok = (evenness <= 1e-12 and on_manifold <= 1e-6 and invariant
          and orbit.closure_residual <= 1e-6 and elapsed < 10.0)
    verdict(capsys, 6, "controlled zero dynamics", ok)
    assert evenness <= 1e-12
    assert on_manifold <= 1e-6
    assert invariant
    assert orbit.closure_residual <= 1e-6
    assert elapsed < 10.0


def test_criterion_7_anti_zeno_and_admissibility(capsys):
    started = time.perf_counter()
    from routhsim.hybrid import (AdmissibilityError, HybridSystemSpec,
                                 ZenoError, apply_reset, run_hybrid)

    zeno_spec = HybridSystemSpec(vector_field=lambda s: np.array([1.0, 0.0]),
                                 guard=lambda s: float(s[0]) - 1.0,
                                 reset=lambda s: np.array(s))
    got_zeno = False
    try:
        run_hybrid(zeno_spec, [0.0, 0.0], 0.0, 3.0)
    except ZenoError:
        got_zeno = True

    outward_spec = HybridSystemSpec(vector_field=lambda s: np.array([s[1], 0.0]),
                                    guard=lambda s: float(s[0]) - 1.0,
                                    reset=lambda s: np.array([1.5, 1.0]))
    got_admissibility = False
    try:
        apply_reset(outward_spec, np.array([1.0, 1.0]))
    except AdmissibilityError:
        got_admissibility = True
    elapsed = time.perf_counter() - started

    ok = got_zeno and got_admissibility and elapsed < 1.0
    verdict(capsys, 7, "anti-Zeno and admissibility", ok)
    assert got_zeno
    assert got_admissibility
    assert elapsed < 1.0


def test_criterion_8_eigen_solver_oracle(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (3, 4):
        for _ in range(100):
            A = rng.normal(size=(n, n))
            vals = np.sort_complex(rs.eigenvalues(A))
            oracle = np.sort_complex(np.roots(char_poly_coefficients(A)))
            worst = max(worst, float(np.max(np.abs(vals - oracle))))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-8 and elapsed < 1.0
    verdict(capsys, 8, "eigen-solver oracle", ok)
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_9_cli_reproducibility(capsys, tmp_path):
    started = time.perf_counter()
    scenario = REPO / "scenarios" / "slip_periodic_orbit.yaml"
    # The CLI runs from this checkout's sources, installed or not.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    reports = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "routhsim.cli", "periodic_orbit",
             "--scenario", str(scenario), "--out", str(out), "--quiet"],
            cwd=REPO, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with open(out / "report.yaml") as fh:
            reports.append(yaml.safe_load(fh))

    same_count = (len(reports[0]["impact_times"])
                  == len(reports[1]["impact_times"]))
    time_delta = max(abs(a - b) for a, b in zip(reports[0]["impact_times"],
                                                reports[1]["impact_times"]))

    with open(tmp_path / "a" / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    header_ok = rows[0] == ["t", "xi", "phi", "xidot", "phidot", "segment"]
    ts = [float(r[0]) for r in rows[1:]]
    monotone = all(b >= a for a, b in zip(ts, ts[1:]))
    report_ok = (reports[0]["passed"] is True
                 and all(set(c) == {"name", "passed", "residual", "tolerance"}
                         for c in reports[0]["checks"]))
    elapsed = time.perf_counter() - started

    ok = (same_count and time_delta <= 1e-8 and header_ok and monotone
          and report_ok and elapsed < 10.0)
    verdict(capsys, 9, "CLI reproducibility", ok)
    assert same_count
    assert time_delta <= 1e-8
    assert header_ok
    assert monotone
    assert report_ok
    assert elapsed < 10.0
