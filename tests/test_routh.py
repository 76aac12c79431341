"""Routh reduction: Routhian evaluation, reduced fields, reconstruction."""
import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import routhsim as rs
from routhsim.hybrid import HybridSystemSpec, integrate_segment, run_hybrid
from routhsim.routh import (
    SingularInertiaError,
    effective_potential,
    momentum,
    momentum_sequence,
    reconstruct_cyclic,
    reduced_energy,
    routh_vector_field,
    routhian_eval,
)


def pendulum(mu=1.0, m=1.0, k=1.0):
    return rs.pendulum_routhian(rs.PendulumParams(m=m, k=k, mu=mu))


def slip(mu=0.0, **kw):
    defaults = dict(m=1.0, inertia=1.0, g=9.81, l0=1.2, kappa=10.0)
    defaults.update(kw)
    return rs.slip_routhian(rs.SlipParams(mu=mu, **defaults))


def integrate_full_pendulum(r0, theta0, mu, t_span, m=1.0, k=1.0, tol=1e-12):
    """Unreduced two-degree-of-freedom oracle in polar coordinates."""
    def rhs(t, y):
        r, theta, rdot, thetadot = y
        return [rdot, thetadot, r * thetadot ** 2 - (k / m) * r,
                -2.0 * rdot * thetadot / r]

    thetadot0 = mu / (m * r0 ** 2)
    sol = solve_ivp(rhs, t_span, [r0, theta0, 0.0, thetadot0], method="RK45",
                    rtol=tol, atol=tol, dense_output=True)
    assert sol.success
    return sol


class TestRouthianEval:
    def test_pendulum_reference_value(self):
        assert routhian_eval(pendulum(), [1.0], [0.0]) == pytest.approx(-1.0)

    def test_pendulum_zero_momentum_matches_lagrangian(self):
        sys = pendulum(mu=0.0)
        for r, rdot in [(0.7, 0.3), (1.4, -1.1)]:
            lagrangian = 0.5 * rdot ** 2 - 0.5 * r ** 2
            assert routhian_eval(sys, [r], [rdot]) == pytest.approx(lagrangian)

    def test_slip_reference_value(self):
        sys = slip(mu=2.0)
        assert routhian_eval(sys, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(-12.01)

    def test_rest_value_is_minus_effective_potential(self):
        sys = slip(mu=1.3)
        for x in ([1.0, 0.2], [0.8, -0.5]):
            assert routhian_eval(sys, x, [0.0, 0.0]) == -effective_potential(sys, x)

    def test_singular_inertia_raises(self):
        with pytest.raises(SingularInertiaError):
            routhian_eval(pendulum(), [1e-6], [0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_inertia_raises(self, value):
        base = pendulum().base
        sys = rs.RouthianSystem(
            base=rs.MechanicalSystem(shape_dim=1, mass_shape=base.mass_shape,
                                     inertia_cyclic=lambda x: value,
                                     potential=base.potential),
            mu=1.0)
        with pytest.raises(SingularInertiaError):
            effective_potential(sys, [1.0])
        traj = TestReconstruction.smooth_trajectory(pendulum(), [1.2, 0.0], 1.0)
        with pytest.raises(SingularInertiaError):
            reconstruct_cyclic(sys, traj, theta0=0.0)


class TestStacks:
    """The Routhian, the effective potential and the cyclic inertia of a
    (k, d) stack are the row-by-row results."""

    @pytest.mark.parametrize("make, lo, hi", [
        (lambda: pendulum(mu=0.7), [0.4, -1.5], [1.8, 1.5]),
        (lambda: slip(mu=1.1, kappa=60.0),
         [0.5, -1.2, -2.0, -3.0], [1.5, 1.2, 2.0, 3.0]),
    ], ids=["pendulum", "slip"])
    def test_stack_equals_rows(self, make, lo, hi):
        sys = make()
        d = sys.base.shape_dim
        states = np.random.default_rng(31).uniform(lo, hi, (300, 2 * d))
        x, v = states[:, :d], states[:, d:]
        for fn, args in ((lambda *a: routhian_eval(sys, *a), (x, v)),
                         (lambda *a: effective_potential(sys, *a), (x,)),
                         (sys.base.cyclic_inertia, (x,))):
            stacked = fn(*args)
            assert stacked.shape == (300,)
            assert np.array_equal(stacked, [fn(*row) for row in zip(*args)])

    def test_one_singular_row_raises(self):
        sys = pendulum()
        x = np.array([[1.0], [1.2], [1e-6], [0.9]])
        for fn in (sys.base.cyclic_inertia,
                   lambda x: effective_potential(sys, x),
                   lambda x: routhian_eval(sys, x, np.zeros_like(x))):
            with pytest.raises(SingularInertiaError, match="1.000e-12"):
                fn(x)

    def test_callables_that_do_not_broadcast_are_refused(self):
        # Each reads one point: on a stack, the first row or a constant.
        sys = rs.RouthianSystem(
            base=rs.MechanicalSystem(shape_dim=1,
                                     mass_shape=lambda x: np.array([[1.0]]),
                                     inertia_cyclic=lambda x: x[0] ** 2,
                                     potential=lambda x: 0.5 * x[0] ** 2),
            mu=1.0)
        x = np.array([[1.0], [1.2], [0.9]])
        assert routhian_eval(sys, x[1], x[2]) == pytest.approx(
            0.5 * 0.81 - 0.72 - 1.0 / 2.88)
        with pytest.raises(ValueError, match=r"inertia_cyclic gave shape \(1,\)"):
            sys.base.cyclic_inertia(x)
        with pytest.raises(ValueError, match=r"potential gave shape \(1,\)"):
            effective_potential(sys, x)
        with pytest.raises(ValueError, match=r"mass_shape gave shape \(1, 1\)"):
            routhian_eval(sys, x, x)


class TestVectorField:
    def test_slip_reference_point(self):
        f = routh_vector_field(slip())
        np.testing.assert_allclose(f(np.array([1.0, 0.0, 0.0, 0.0])),
                                   [0.0, 0.0, -7.81, 0.0], atol=1e-12)

    def test_pendulum_zero_momentum_is_oscillator(self):
        f = routh_vector_field(pendulum(mu=0.0))
        np.testing.assert_allclose(f(np.array([1.0, 0.0])), [0.0, -1.0],
                                   atol=1e-12)

    @pytest.mark.parametrize("make,lo,hi", [
        (lambda: pendulum(mu=0.7), [0.4, -1.5], [1.8, 1.5]),
        (lambda: slip(mu=1.1, kappa=60.0),
         [0.5, -1.2, -2.0, -3.0], [1.5, 1.2, 2.0, 3.0]),
    ])
    def test_generic_engine_matches_analytic(self, make, lo, hi):
        sys = make()
        analytic = routh_vector_field(sys)
        generic = routh_vector_field(
            dataclasses.replace(sys, analytic_vector_field=None))
        rng = np.random.default_rng(7)
        for s in rng.uniform(lo, hi, size=(100, len(lo))):
            assert np.max(np.abs(analytic(s) - generic(s))) <= 1e-6

    def test_energy_conserved_along_segment(self):
        sys = slip(mu=0.5, kappa=60.0, l0=1.0)
        f = routh_vector_field(sys)
        spec = HybridSystemSpec(vector_field=f,
                                guard=lambda s: float(s[0]) - 10.0,
                                reset=lambda s: np.array(s))
        start = np.array([0.85, 0.1, 0.0, 1.2])
        segment, _ = integrate_segment(spec, start, 0.0, 3.0, tol=1e-10)
        e0 = reduced_energy(sys, start)
        drift = max(abs(reduced_energy(sys, y) - e0) for y in segment.y)
        assert drift <= 1e-7 * max(1.0, abs(e0))


class TestMomentum:
    def test_pendulum_value(self):
        sys = rs.pendulum_system(rs.PendulumParams())
        assert momentum(sys, [2.0], [0.0], 0.5) == pytest.approx(2.0)

    def test_zero_rate(self):
        sys = rs.pendulum_system(rs.PendulumParams())
        assert momentum(sys, [1.7], [0.2], 0.0) == 0.0

    def test_slip_constant_inertia(self):
        sys = rs.slip_mechanical(rs.SlipParams(inertia=1.5))
        assert momentum(sys, [0.9, 0.4], [0.0, 0.0], 2.0) == pytest.approx(3.0)


class TestMomentumSequence:
    def test_sign_flips(self):
        mus = momentum_sequence(2.0, [object(), object()],
                                rs.slip_momentum_transition)
        assert mus == [2.0, -2.0, 2.0]

    def test_identity_transition(self):
        mus = momentum_sequence(1.5, [object()] * 3, lambda mu, ev: mu)
        assert mus == [1.5] * 4


class TestReconstruction:
    @staticmethod
    def smooth_trajectory(sys, start, t_end, tol=1e-10):
        f = routh_vector_field(sys)
        spec = HybridSystemSpec(vector_field=f,
                                guard=lambda s: float(s[0]) - 100.0,
                                reset=lambda s: np.array(s))
        return run_hybrid(spec, start, 0.0, t_end, tol=tol)

    def test_circular_orbit_linear_theta(self):
        # Effective-potential minimum of the unit pendulum sits at r = 1.
        sys = pendulum(mu=1.0)
        traj = self.smooth_trajectory(sys, [1.0, 0.0], 5.0)
        [(ts, thetas)] = reconstruct_cyclic(sys, traj, theta0=0.0)
        np.testing.assert_allclose(thetas, ts, atol=1e-6)

    def test_zero_momentum_theta_constant(self):
        sys = pendulum(mu=0.0)
        traj = self.smooth_trajectory(sys, [1.2, 0.0], 5.0)
        [(_, thetas)] = reconstruct_cyclic(sys, traj, theta0=0.4)
        np.testing.assert_allclose(thetas, 0.4, atol=1e-12)

    def test_matches_full_pendulum_oracle(self):
        sys = pendulum(mu=1.0)
        traj = self.smooth_trajectory(sys, [1.2, 0.0], 5.0)
        [(ts, thetas)] = reconstruct_cyclic(sys, traj, theta0=0.0)
        oracle = integrate_full_pendulum(1.2, 0.0, 1.0, (0.0, 5.0))
        assert max(abs(thetas - oracle.sol(ts)[1])) <= 1e-6

    @pytest.mark.parametrize("mu, start, t_end", [
        (1.0, [1.2, 0.0], 5.0), (0.5, [1.5, 0.3], 8.0), (2.0, [0.8, -0.2], 6.0)])
    def test_matches_tight_integration_along_dense_output(self, mu, start, t_end):
        # The reference integrates thetadot = mu / (m r^2) along the same
        # dense output with DOP853 at 1e-13, so only the quadrature differs.
        sys = pendulum(mu=mu)
        traj = self.smooth_trajectory(sys, start, t_end)
        [(ts, thetas)] = reconstruct_cyclic(sys, traj, theta0=0.0)
        dense = traj.segments[0].dense
        ref = solve_ivp(
            lambda t, th: [mu / sys.base.cyclic_inertia(dense(t)[:1])],
            (ts[0], ts[-1]), [0.0], method="DOP853", rtol=1e-13, atol=1e-13,
            t_eval=ts)
        assert np.max(np.abs(thetas - ref.y[0])) <= 1e-9

    def test_slip_piecewise_constant_rate(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0, inertia=1.0, mu=2.0)
        spec = rs.slip_hybrid_spec(params)
        sys = rs.slip_routhian(params)
        traj = run_hybrid(spec, [0.8, 0.0, 0.0, 0.5], 0.0, 2.5)
        assert len(traj.impacts) >= 1
        mus = momentum_sequence(params.mu, traj.impacts,
                                rs.slip_momentum_transition)
        pieces = reconstruct_cyclic(sys, traj, theta0=0.0, mus=mus)
        for mu_i, (ts, thetas) in zip(mus, pieces):
            if len(ts) < 2:
                continue
            slopes = np.diff(thetas) / np.diff(ts)
            np.testing.assert_allclose(slopes, mu_i / params.inertia, atol=1e-8)

    def test_missing_momentum_values_rejected(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        traj = run_hybrid(rs.slip_hybrid_spec(params), [0.8, 0.0, 0.0, 0.5],
                          0.0, 2.5)
        with pytest.raises(ValueError):
            reconstruct_cyclic(rs.slip_routhian(params), traj, 0.0, mus=[0.0])

    @pytest.mark.parametrize("theta0, mu", [(np.nan, 1.0), (np.inf, 1.0),
                                            (0.0, np.nan), (0.0, np.inf)])
    def test_non_finite_theta0_or_momentum_rejected(self, theta0, mu):
        sys = pendulum()
        traj = self.smooth_trajectory(sys, [1.2, 0.0], 1.0)
        with pytest.raises(ValueError, match="finite"):
            reconstruct_cyclic(sys, traj, theta0=theta0, mus=[mu])


class TestFullReduction:
    def test_projection_matches_reduced_flow(self):
        # Reduced trajectory vs the (r, rdot) projection of the full system.
        oracle = integrate_full_pendulum(1.2, 0.0, 1.0, (0.0, 5.0))
        f = routh_vector_field(pendulum(mu=1.0))
        red = solve_ivp(lambda t, y: f(y), (0.0, 5.0), [1.2, 0.0],
                        method="RK45", rtol=1e-10, atol=1e-10,
                        dense_output=True)
        ts = np.linspace(0.0, 5.0, 400)
        full = oracle.sol(ts)
        reduced = red.sol(ts)
        assert max(abs(full[0] - reduced[0])) <= 1e-6
        assert max(abs(full[2] - reduced[1])) <= 1e-6

    def test_momentum_conserved_along_full_solution(self):
        oracle = integrate_full_pendulum(1.2, 0.0, 1.0, (0.0, 5.0))
        ts = np.linspace(0.0, 5.0, 400)
        r, _, _, thetadot = oracle.sol(ts)
        assert max(abs(r ** 2 * thetadot - 1.0)) <= 1e-8
