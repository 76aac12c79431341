"""Reversal symmetries, fixed-point manifolds, and symmetric periodic orbits."""
import dataclasses

import numpy as np
import pytest

import routhsim as rs
from routhsim.hybrid import HybridSystemSpec, NoImpactError, ZenoError, run_hybrid
from routhsim.symmetry import (
    ClosureError,
    ResetMismatchError,
    ReversalSymmetry,
    construct_periodic_orbit,
    fixed_point_manifold,
    involution_residual,
    is_fixed_point,
    reversibility_residual,
)

CERT = rs.CERTIFIED_SLIP


def certified_setup():
    params = CERT.params
    return rs.slip_hybrid_spec(params), rs.slip_symmetry(), CERT.seed


class TestInvolution:
    def test_slip_involution_exact(self):
        sym = rs.slip_symmetry()
        rng = np.random.default_rng(3)
        for s in rng.uniform(-2.0, 2.0, size=(1000, 4)):
            assert involution_residual(sym, s) <= 1e-10

    def test_pendulum_involution_exact(self):
        sym = rs.pendulum_symmetry()
        rng = np.random.default_rng(4)
        for s in rng.uniform(0.2, 2.0, size=(200, 2)):
            assert involution_residual(sym, s) <= 1e-10

    def test_nonlinear_involution(self):
        # F(a, b) = (-a + b^2, b) composes with itself to the identity.
        sym = ReversalSymmetry(F=lambda q: np.array([-q[0] + q[1] ** 2, q[1]]))
        rng = np.random.default_rng(5)
        for s in rng.uniform(-1.0, 1.0, size=(50, 4)):
            assert involution_residual(sym, s) <= 1e-8


class TestReversibility:
    def test_slip_field_reversible(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        f = rs.routh_vector_field(rs.slip_routhian(params))
        sym = rs.slip_symmetry()
        rng = np.random.default_rng(6)
        for s in rng.uniform([0.5, -1.3, -2, -3], [1.5, 1.3, 2, 3], (1000, 4)):
            assert reversibility_residual(sym, f, s) <= 1e-8

    def test_pendulum_field_reversible(self):
        f = rs.routh_vector_field(rs.pendulum_routhian(rs.PendulumParams()))
        sym = rs.pendulum_symmetry()
        rng = np.random.default_rng(7)
        for s in rng.uniform([0.4, -2.0], [2.0, 2.0], (200, 2)):
            assert reversibility_residual(sym, f, s) <= 1e-8

    def test_broken_symmetry_detected(self):
        # Damping breaks velocity-reversal symmetry; residual is 2|v|.
        f = lambda s: np.array([s[1], -s[1]])
        sym = rs.pendulum_symmetry()
        res = reversibility_residual(sym, f, np.array([0.3, 0.2]))
        assert res == pytest.approx(0.4, abs=1e-12)


class TestTangentLift:
    def test_linear_involution_jacobian_blocks(self):
        sym = rs.slip_symmetry()
        s = np.array([0.9, 0.3, -0.4, 1.1])
        J = sym.dphi(s)
        R = np.diag([1.0, -1.0])
        np.testing.assert_allclose(J[:2, :2], R, atol=1e-12)
        np.testing.assert_allclose(J[2:, 2:], -R, atol=1e-12)
        np.testing.assert_allclose(J[:2, 2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(J[2:, :2], 0.0, atol=1e-9)

    def test_nonlinear_velocity_block(self):
        sym = ReversalSymmetry(F=lambda q: np.array([-q[0] + q[1] ** 2, q[1]]))
        q = np.array([0.3, 0.7])
        v = np.array([1.2, -0.5])
        J = sym.dphi(np.concatenate([q, v]))
        # dF = [[-1, 2b], [0, 1]]; d(dF v)/dq has a single 2*v1 entry.
        dF = np.array([[-1.0, 2 * q[1]], [0.0, 1.0]])
        np.testing.assert_allclose(J[:2, :2], dF, atol=1e-8)
        np.testing.assert_allclose(J[2:, 2:], -dF, atol=1e-8)
        np.testing.assert_allclose(J[2, :2], [0.0, -2 * v[1]], atol=1e-6)
        np.testing.assert_allclose(J[3, :2], 0.0, atol=1e-6)


class TestStacks:
    """phi and dphi of a (k, n) stack are the row-by-row results."""

    @pytest.mark.parametrize("sym, n", [(rs.slip_symmetry(), 4),
                                        (rs.pendulum_symmetry(), 2)],
                             ids=["slip", "pendulum"])
    def test_bundled_stack_equals_rows(self, sym, n):
        states = np.random.default_rng(11).uniform(-2.0, 2.0, (200, n))
        for method in (sym.phi, sym.dphi):
            rows = np.array([method(s) for s in states])
            assert np.array_equal(method(states), rows)
        assert sym.phi(states[:0]).shape == (0, n)

    def test_bundled_velocity_block_is_exact(self):
        # A linear reflection's lift is diag(R, -R), with no difference step.
        s = np.array([0.9, 0.3, -0.4, 1.1])
        R = np.diag([1.0, -1.0])
        np.testing.assert_array_equal(rs.slip_symmetry().dphi(s),
                                      np.block([[R, np.zeros((2, 2))],
                                                [np.zeros((2, 2)), -R]]))

    def test_callable_symmetry_is_mapped_row_by_row(self):
        # F reads q[0] and q[1], so it does not broadcast over a stack.
        sym = ReversalSymmetry(F=lambda q: np.array([-q[0] + q[1] ** 2, q[1]]))
        states = np.random.default_rng(12).uniform(-1.0, 1.0, (30, 4))
        for method in (sym.phi, sym.dphi):
            assert np.array_equal(method(states),
                                  np.array([method(s) for s in states]))

    def test_wrong_shapes_refused(self):
        with pytest.raises(ValueError, match="shapes"):
            ReversalSymmetry(F=lambda q: np.append(q, 0.0)).phi(np.zeros(4))
        with pytest.raises(ValueError, match="do not fit"):
            rs.slip_symmetry().phi(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="finite rows of even length"):
            rs.slip_symmetry().phi(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="1-D vector"):
            rs.slip_symmetry().dphi(np.zeros((3, 4, 1)))

    def test_construction(self):
        with pytest.raises(ValueError, match="needs F or matrix"):
            ReversalSymmetry()
        with pytest.raises(ValueError, match="takes F and dF from its matrix"):
            ReversalSymmetry(F=lambda q: q, matrix=np.eye(2))
        with pytest.raises(ValueError, match="finite square matrix"):
            ReversalSymmetry(matrix=np.ones((2, 3)))
        sym = ReversalSymmetry(matrix=[[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(sym.F(np.array([1.0, 2.0])), [2.0, 1.0])
        np.testing.assert_array_equal(sym.config_jacobian([1.0, 2.0]),
                                      [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            sym.matrix[0, 0] = 5.0


class TestFixedPoints:
    def test_slip_fixed_point_form(self):
        sym = rs.slip_symmetry()
        assert is_fixed_point(sym, np.array([0.8, 0.0, 0.0, 0.5]))
        assert not is_fixed_point(sym, np.array([0.8, 0.1, 0.0, 0.5]))
        assert not is_fixed_point(sym, np.array([0.8, 0.0, 0.2, 0.5]))

    def test_slip_manifold_dimension_and_basis(self):
        fp = fixed_point_manifold(rs.slip_symmetry(), [0.8, 0.0])
        assert fp.dim == 2
        span = fp.basis @ fp.basis.T
        for direction in (np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0])):
            np.testing.assert_allclose(span @ direction, direction, atol=1e-12)

    def test_pendulum_manifold_dimension(self):
        fp = fixed_point_manifold(rs.pendulum_symmetry(), [1.2])
        assert fp.dim == 1
        np.testing.assert_allclose(fp.basis[:, 0], [1.0, 0.0], atol=1e-12)


class TestPeriodicOrbit:
    def test_certified_orbit_closes(self):
        spec, sym, seed = certified_setup()
        orbit = construct_periodic_orbit(spec, sym, seed, t_max=5.0)
        assert orbit.closure_residual <= 1e-6
        assert orbit.half_period == pytest.approx(CERT.half_period, abs=1e-8)

    def test_time_symmetry_property(self):
        spec, sym, seed = certified_setup()
        orbit = construct_periodic_orbit(spec, sym, seed, t_max=5.0)
        assert orbit.time_symmetry_residual <= 1e-6

    def test_tighter_tolerance_confirms_closure(self):
        spec, sym, seed = certified_setup()
        orbit = construct_periodic_orbit(spec, sym, seed, t_max=5.0, tol=1e-11)
        assert orbit.closure_residual <= 1e-6

    def test_second_period_repeats(self):
        spec, sym, seed = certified_setup()
        orbit = construct_periodic_orbit(spec, sym, seed, t_max=5.0)
        period = 2.0 * orbit.half_period
        traj = run_hybrid(spec, seed, 0.0, 2.0 * period - 1e-6)
        for t in np.linspace(0.05, period - 0.05, 10):
            delta = traj.state_at(t + period) - traj.state_at(t)
            assert np.max(np.abs(delta)) <= 1e-5

    def test_time_symmetry_residual_is_the_per_knot_maximum(self):
        # The stacked phi over the first half's knots gives, to the bit, the
        # largest per-knot defect against the second half's dense output.
        spec, sym, seed = certified_setup()
        rng = np.random.default_rng(13)
        seeds = [seed] + [np.array([xi, 0.0, 0.0, rate]) for xi, rate in
                          rng.uniform([0.79, 0.4], [0.82, 0.6], (6, 2))]
        for s0 in seeds:
            orbit = construct_periodic_orbit(spec, sym, s0, t_max=5.0)
            first, second = orbit.trajectory.segments
            mirrored = second.dense(2.0 * orbit.half_period - first.t).T
            per_knot = max(float(np.max(np.abs(sym.phi(y) - g)))
                           for y, g in zip(first.y, mirrored))
            assert orbit.time_symmetry_residual == per_knot

    def test_non_fixed_point_seed_rejected(self):
        spec, sym, _ = certified_setup()
        with pytest.raises(ValueError):
            construct_periodic_orbit(spec, sym, [0.8, 0.0, 0.3, 0.5], t_max=5.0)

    def test_energy_too_low_no_impact(self):
        # Seed at the effective-potential minimum with no angular rate.
        params = CERT.params
        xi_eq = params.l0 - params.m * params.g / params.kappa
        spec = rs.slip_hybrid_spec(params)
        with pytest.raises(NoImpactError):
            construct_periodic_orbit(spec, rs.slip_symmetry(),
                                     [xi_eq, 0.0, 0.0, 0.0], t_max=5.0)

    def test_reset_symmetry_mismatch_detected(self):
        # Pinning the touchdown angle away from the detected one must trip
        # the reset-vs-symmetry agreement check.
        params = rs.SlipParams(kappa=CERT.kappa, l0=1.0, phi0=0.3)
        spec = rs.slip_hybrid_spec(params)
        with pytest.raises(ResetMismatchError):
            construct_periodic_orbit(spec, rs.slip_symmetry(), CERT.seed,
                                     t_max=5.0)

    def test_one_reset_evaluation(self):
        spec, sym, seed = certified_setup()
        calls = []

        def reset(s):
            calls.append(1)
            return spec.reset(s)

        construct_periodic_orbit(dataclasses.replace(spec, reset=reset), sym,
                                 seed, t_max=5.0)
        assert len(calls) == 1

    def test_stuck_reset_raises_zeno(self):
        # Harmonic oscillator from (1, 0), reversed by (q, v) -> (q, -v),
        # reaching the guard q = -1/2 with a reset that leaves it there.
        spec = HybridSystemSpec(vector_field=lambda s: np.array([s[1], -s[0]]),
                                guard=lambda s: -s[0] - 0.5,
                                reset=lambda s: np.array(s))
        with pytest.raises(ZenoError):
            construct_periodic_orbit(spec, ReversalSymmetry(F=lambda q: q),
                                     [1.0, 0.0], t_max=5.0)

    def test_family_of_orbits(self):
        spec, sym, seed = certified_setup()
        fp = fixed_point_manifold(sym, seed[:2])
        count = 0
        for j in range(fp.dim):
            for step in (1e-3, -1e-3):
                orbit = construct_periodic_orbit(
                    spec, sym, seed + step * fp.basis[:, j], t_max=5.0)
                assert orbit.closure_residual <= 1e-6
                count += 1
        assert count >= 4

    def test_second_half_guard_crossing(self):
        # Harmonic oscillator from (1, 0), reversed by (q, v) -> (q, -v).
        sym = ReversalSymmetry(F=lambda q: q)

        def spec(guard):
            return HybridSystemSpec(
                vector_field=lambda s: np.array([s[1], -s[0]]), guard=guard,
                reset=lambda s: np.array([s[0], -s[1]]))

        # q^2 - 1/4 rises at q = -1/2 (t1 = 2 pi / 3); after the reset the
        # second half rises through it again at q = 1/2 (t = pi < 2 t1).
        with pytest.raises(ClosureError, match="crosses the guard"):
            construct_periodic_orbit(spec(lambda s: s[0] ** 2 - 0.25), sym,
                                     [1.0, 0.0], t_max=5.0)

        orbit = construct_periodic_orbit(spec(lambda s: -s[0] - 0.5), sym,
                                         [1.0, 0.0], t_max=5.0)
        assert orbit.half_period == pytest.approx(2.0 * np.pi / 3.0, abs=1e-9)
        assert orbit.time_symmetry_residual <= 1e-8
