"""Zero-dynamics control: invariance feedback, compatibility, hybrid invariance."""
import numpy as np
import pytest

import routhsim as rs
from routhsim.control import (
    ControlledRouthian,
    EmptyImpactSetError,
    GeometricDegeneracyError,
    ZeroDynamicsManifold,
    feedback_u_star,
    gamma_compatibility,
    hybrid_invariance_check,
    periodic_orbit_on_manifold,
    zero_dynamics_rhs,
)
from routhsim.models import SLIP_INPUT_MATRIX, slip_guard, slip_reset

CERT = rs.CERTIFIED_CONTROLLED


def certified_pieces():
    params = CERT.params
    coeffs = CERT.coefficients
    manifold = rs.quadratic_constraint(coeffs)
    spec = rs.closed_loop_slip_spec(params, coeffs)
    return params, manifold, spec


class TestControlledRouthian:
    def test_slip_wiring_accepted(self):
        controlled, manifold, u_star = rs.controlled_slip_system(
            CERT.params, CERT.coefficients)
        assert controlled.input_matrix.shape == (4, 1)
        assert np.isfinite(u_star(CERT.seed))

    def test_rank_deficient_input_matrix_rejected(self):
        with pytest.raises(ValueError):
            ControlledRouthian(base=rs.slip_routhian(CERT.params),
                               input_matrix=np.zeros((4, 1)),
                               actuated_indices=(0,))

    def test_unactuated_row_must_vanish(self):
        C = np.array([[0.0], [0.0], [1.0], [0.5]])
        with pytest.raises(ValueError):
            ControlledRouthian(base=rs.slip_routhian(CERT.params),
                               input_matrix=C, actuated_indices=(0,))

    def test_non_unit_mass_rejected_for_bundled_model(self):
        with pytest.raises(ValueError):
            rs.controlled_slip_system(rs.SlipParams(m=2.0, l0=CERT.l0),
                                      CERT.coefficients)


class TestManifoldGeometry:
    def test_embed_satisfies_constraints(self):
        manifold = rs.quadratic_constraint(CERT.coefficients)
        s = manifold.embed(0.3, 1.7)
        pos, vel = manifold.residuals(s)
        assert abs(pos) <= 1e-14 and abs(vel) <= 1e-14

    def test_nonpositive_length_rejected(self):
        manifold = ZeroDynamicsManifold(h=lambda phi: -1.0,
                                        dh=lambda phi: 0.0,
                                        d2h=lambda phi: 0.0)
        with pytest.raises(GeometricDegeneracyError):
            manifold.length(0.0)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            rs.ConstraintCoefficients(0.0, 0.1)


class TestZeroDynamics:
    def test_symmetry_forced_zero_at_origin(self):
        manifold = rs.quadratic_constraint(rs.ConstraintCoefficients(0.9, 0.2))
        for phidot in (0.0, 0.5, 2.0):
            assert zero_dynamics_rhs(manifold, 9.81, 0.0, phidot) == 0.0

    def test_reference_evaluation(self):
        manifold = ZeroDynamicsManifold(h=lambda p: 1.0 + 0.1 * p ** 2,
                                        dh=lambda p: 0.2 * p,
                                        d2h=lambda p: 0.2)
        val = zero_dynamics_rhs(manifold, 9.81, 0.2, 1.0)
        assert val == pytest.approx((9.81 * np.sin(0.2) - 2 * 0.04) / 1.004)

    def test_constant_constraint_is_pendulum(self):
        manifold = ZeroDynamicsManifold(h=lambda p: 0.9, dh=lambda p: 0.0,
                                        d2h=lambda p: 0.0)
        val = zero_dynamics_rhs(manifold, 9.81, 0.4, 1.3)
        assert val == pytest.approx(9.81 * np.sin(0.4) / 0.9)


class TestFeedback:
    def test_origin_value(self):
        params, manifold, _ = certified_pieces()
        c0, c2 = CERT.c0, CERT.c2
        phidot = 1.4
        expected = (2.0 * c2 * phidot ** 2 - c0 * phidot ** 2 + params.g
                    + params.kappa * (c0 - params.l0) / params.m)
        assert feedback_u_star(manifold, params, 0.0, phidot) == pytest.approx(
            expected, abs=1e-12)

    def test_evenness(self):
        params, manifold, _ = certified_pieces()
        rng = np.random.default_rng(9)
        for phi, phidot in rng.uniform([-1.2, -3.0], [1.2, 3.0], (100, 2)):
            assert abs(feedback_u_star(manifold, params, phi, phidot)
                       - feedback_u_star(manifold, params, -phi, phidot)) <= 1e-12

    def test_maintains_invariance_over_one_stance(self):
        params, manifold, spec = certified_pieces()
        from routhsim.hybrid import integrate_segment
        segment, event = integrate_segment(spec, CERT.seed, 0.0, 5.0)
        assert event is not None
        worst = max(abs(manifold.residuals(y)[0]) for y in segment.y)
        assert worst <= 1e-6


class TestGammaCompatibility:
    def test_slip_identity_gamma(self):
        sym = rs.slip_symmetry()
        states = [np.array([0.9, 0.2, -0.3, 1.0]),
                  np.array([1.1, -0.4, 0.5, -2.0])]
        res = gamma_compatibility(sym, SLIP_INPUT_MATRIX, lambda u: u,
                                  states, [np.array([0.7]), np.array([-1.3])])
        assert res <= 1e-12

    def test_wrong_gamma_detected(self):
        sym = rs.slip_symmetry()
        states = [np.array([0.9, 0.2, -0.3, 1.0])]
        u = np.array([0.7])
        res = gamma_compatibility(sym, SLIP_INPUT_MATRIX, lambda w: -w,
                                  states, [u])
        assert res == pytest.approx(2.0 * abs(u[0]), abs=1e-12)

    def test_zero_input(self):
        sym = rs.slip_symmetry()
        res = gamma_compatibility(sym, SLIP_INPUT_MATRIX, lambda w: 5.0 * w,
                                  [np.array([0.9, 0.2, -0.3, 1.0])],
                                  [np.array([0.0])])
        assert res == 0.0


class TestHybridInvariance:
    def test_even_constraint_invariant(self):
        params, manifold, _ = certified_pieces()
        ok, witness = hybrid_invariance_check(manifold, slip_guard(params),
                                              slip_reset(params))
        assert ok and witness is None

    def test_symmetry_breaking_reset_detected(self):
        params, manifold, _ = certified_pieces()
        bad_reset = lambda s: np.array([params.l0, -s[1] + 0.05, -s[2], s[3]])
        ok, witness = hybrid_invariance_check(manifold, slip_guard(params),
                                              bad_reset)
        assert not ok
        assert witness is not None and witness["position_residual"] != 0.0

    def test_unreachable_guard_raises(self):
        manifold = rs.quadratic_constraint(CERT.coefficients)
        guard = lambda s: float(s[0]) - 0.5  # constraint length stays above
        with pytest.raises(EmptyImpactSetError):
            hybrid_invariance_check(manifold, guard,
                                    lambda s: np.array(s))


class TestOrbitOnManifold:
    def test_certified_controlled_orbit(self):
        params, manifold, spec = certified_pieces()
        orbit = periodic_orbit_on_manifold(spec, rs.slip_symmetry(), manifold,
                                           CERT.seed, t_max=5.0)
        assert orbit.closure_residual <= 1e-6
        assert orbit.half_period == pytest.approx(CERT.half_period, abs=1e-8)

    def test_off_manifold_seed_rejected(self):
        params, manifold, spec = certified_pieces()
        with pytest.raises(ValueError):
            periodic_orbit_on_manifold(spec, rs.slip_symmetry(), manifold,
                                       [CERT.c0 + 0.01, 0.0, 0.0,
                                        CERT.phidot_star], t_max=5.0)
