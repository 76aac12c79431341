"""Bundled models: analytic fields, symmetries, resets, frozen regressions."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routhsim import _fd

import routhsim as rs
from routhsim.certified import (
    CERTIFIED_CONTROLLED,
    CERTIFIED_SLIP,
    search_controlled_tuple,
    search_slip_tuple,
)
from routhsim.models import (
    slip_field_jacobian,
    slip_guard,
    slip_momentum_transition,
    slip_reset,
)
from routhsim.routh import routh_vector_field


class TestParamsValidation:
    def test_pendulum_positive(self):
        with pytest.raises(ValueError):
            rs.PendulumParams(m=-1.0)
        with pytest.raises(ValueError):
            rs.PendulumParams(k=0.0)

    def test_slip_positive(self):
        for kwargs in ({"m": 0.0}, {"g": -9.81}, {"l0": 0.0}, {"kappa": -5.0},
                       {"inertia": 0.0}):
            with pytest.raises(ValueError):
                rs.SlipParams(**kwargs)

    def test_slip_touchdown_angle_range(self):
        with pytest.raises(ValueError):
            rs.SlipParams(phi0=-0.1)
        with pytest.raises(ValueError):
            rs.SlipParams(phi0=np.pi / 2)
        rs.SlipParams(phi0=0.0)  # boundary admitted


class TestAnalyticFields:
    def test_pendulum_generic_matches_analytic(self):
        routhian = rs.pendulum_routhian(rs.PendulumParams(m=1.3, k=2.1, mu=0.7))
        generic = routh_vector_field(
            dataclasses.replace(routhian, analytic_vector_field=None))
        analytic = routh_vector_field(routhian)
        rng = np.random.default_rng(21)
        for s in rng.uniform([0.4, -2.0], [2.0, 2.0], (100, 2)):
            np.testing.assert_allclose(generic(s), analytic(s), atol=1e-6)

    def test_slip_generic_matches_analytic(self):
        routhian = rs.slip_routhian(rs.SlipParams(kappa=75.0, l0=0.9))
        generic = routh_vector_field(
            dataclasses.replace(routhian, analytic_vector_field=None))
        analytic = routh_vector_field(routhian)
        rng = np.random.default_rng(22)
        for s in rng.uniform([0.5, -1.2, -2, -3], [1.4, 1.2, 2, 3], (100, 4)):
            np.testing.assert_allclose(generic(s), analytic(s), atol=1e-6)

    def test_stance_field_reference(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        s = np.array([0.9, 0.3, -0.4, 1.2])
        xi_acc, phi_acc = rs.slip_hybrid_spec(params).vector_field(s)[2:]
        assert xi_acc == pytest.approx(0.9 * 1.44 - 9.81 * np.cos(0.3)
                                       - 50.0 * (0.9 - 1.0))
        assert phi_acc == pytest.approx((9.81 / 0.9) * np.sin(0.3)
                                        - 2 * 1.2 * (-0.4) / 0.9)

    @settings(deadline=None)
    @given(st.floats(0.5, 1.5), st.floats(-1.4, 1.4),
           st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(10.0, 200.0))
    def test_slip_field_jacobian_matches_differences(self, xi, phi, xidot,
                                                     phidot, kappa):
        spec = rs.slip_hybrid_spec(rs.SlipParams(kappa=kappa))
        s = np.array([xi, phi, xidot, phidot])
        closed = spec.vector_field_jacobian(s)
        fd = _fd.jacobian(spec.vector_field, s)
        np.testing.assert_allclose(closed, fd, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(closed)))

    @pytest.mark.parametrize("helper", [slip_field_jacobian])
    def test_field_helpers_take_any_sequence(self, helper):
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        s = [0.9, 0.3, -0.4, 1.2]
        ref = np.asarray(helper(params, np.array(s)))
        for seq in (s, tuple(s)):
            assert np.array_equal(np.asarray(helper(params, seq)), ref)

    def test_slip_field_jacobian_on_a_stack(self):
        # np.sin on an array and on one value may differ by 1 ulp.
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        rng = np.random.default_rng(25)
        stack = rng.uniform([0.5, -1.2, -2, -3], [1.4, 1.2, 2, 3], (40, 4))
        jac = slip_field_jacobian(params, stack)
        assert jac.shape == (40, 4, 4)
        for s, one in zip(stack, jac):
            np.testing.assert_allclose(one, slip_field_jacobian(params, s),
                                       rtol=1e-14, atol=0.0)

    def test_spec_field_is_written_out_formula(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        g, kappa, l0, m = params.g, params.kappa, params.l0, params.m
        rng = np.random.default_rng(26)
        states = rng.uniform([0.5, -1.2, -2, -3], [1.4, 1.2, 2, 3], (100, 4))
        feedback = lambda s: 3.0 * s[1] - 0.5 * s[3]
        for field, u_feedback in (
                (routh_vector_field(rs.slip_routhian(params)), None),
                (rs.slip_hybrid_spec(params).vector_field, None),
                (rs.slip_hybrid_spec(params, feedback).vector_field, feedback)):
            for s in states:
                xi, phi, xidot, phidot = s.tolist()
                u = 0.0 if u_feedback is None else float(u_feedback(s))
                expected = np.array([
                    xidot, phidot,
                    xi * phidot ** 2 - g * math.cos(phi)
                    - kappa * (xi - l0) / m + u,
                    (g / xi) * math.sin(phi) - 2.0 * phidot * xidot / xi])
                assert np.array_equal(field(s), expected)

    def test_feedback_spec_has_no_field_jacobian(self):
        spec = rs.slip_hybrid_spec(rs.SlipParams(), u_feedback=lambda s: 0.0)
        assert spec.vector_field_jacobian is None

    def test_actuation_enters_length_equation_only(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        s = np.array([0.9, 0.3, -0.4, 1.2])
        base = rs.slip_hybrid_spec(params).vector_field(s)
        pushed = rs.slip_hybrid_spec(params, lambda s: 2.5).vector_field(s)
        assert pushed[2] - base[2] == pytest.approx(2.5)
        assert np.array_equal(np.delete(pushed, 2), np.delete(base, 2))


class TestSymmetryOfPotential:
    def test_slip_potential_even_in_angle(self):
        mech = rs.slip_mechanical(rs.SlipParams(kappa=50.0, l0=1.0))
        rng = np.random.default_rng(23)
        for xi, phi in rng.uniform([0.5, -1.3], [1.5, 1.3], (200, 2)):
            assert abs(mech.potential([xi, phi])
                       - mech.potential([xi, -phi])) <= 1e-12

    def test_slip_routhian_reversal_invariant(self):
        routhian = rs.slip_routhian(rs.SlipParams(kappa=50.0, l0=1.0))
        sym = rs.slip_symmetry()
        rng = np.random.default_rng(24)
        for s in rng.uniform([0.5, -1.3, -2, -3], [1.5, 1.3, 2, 3], (200, 4)):
            flipped = sym.phi(s)
            assert abs(rs.routhian_eval(routhian, s[:2], s[2:])
                       - rs.routhian_eval(routhian, flipped[:2],
                                          flipped[2:])) <= 1e-12


class TestGuardAndReset:
    def test_guard_zero_at_rest_length(self):
        params = rs.SlipParams(kappa=50.0, l0=0.85)
        g = slip_guard(params)
        assert g([0.85, 0.2, 1.0, 1.0]) == 0.0
        assert g([0.9, 0.2, 1.0, 1.0]) > 0.0

    def test_reflect_reset_values(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        post = slip_reset(params)(np.array([1.0, 0.7, 1.3, 2.1]))
        np.testing.assert_allclose(post, [1.0, -0.7, -1.3, 2.1])

    def test_pinned_reset_values(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0, phi0=0.55)
        post = slip_reset(params)(np.array([1.0, 0.7, 1.3, 2.1]))
        np.testing.assert_allclose(post, [1.0, -0.55, -1.3, 2.1])

    def test_reflect_reset_is_symmetry_on_guard(self):
        params = rs.SlipParams(kappa=50.0, l0=1.0)
        sym = rs.slip_symmetry()
        reset = slip_reset(params)
        rng = np.random.default_rng(25)
        for phi, xidot, phidot in rng.uniform([-1.0, 0.1, -3],
                                              [1.0, 2.0, 3], (100, 3)):
            s = np.array([params.l0, phi, xidot, phidot])
            np.testing.assert_allclose(reset(s), sym.phi(s), atol=1e-12)

    def test_momentum_flips_sign(self):
        assert slip_momentum_transition(1.7, None) == -1.7
        assert slip_momentum_transition(-0.3, None) == 0.3

    @given(st.floats(-10.0, 10.0, allow_nan=False), st.integers(0, 20))
    def test_momentum_sequence_alternates(self, mu0, n_impacts):
        seq = rs.momentum_sequence(mu0, [None] * n_impacts,
                                   slip_momentum_transition)
        assert len(seq) == n_impacts + 1
        for i, mu in enumerate(seq):
            assert mu == (-1.0) ** i * mu0


class TestSectionConstructor:
    def test_anchor_off_hyperplane_rejected(self):
        with pytest.raises(ValueError):
            rs.slip_section([0.8, 0.1, 0.0, 0.5])

    def test_zero_angular_rate_rejected(self):
        with pytest.raises(ValueError):
            rs.slip_section([0.8, 0.0, 0.0, 0.0])

    def test_direction_tracks_angular_rate(self):
        up = rs.slip_section([0.8, 0.0, 0.0, 0.5])
        down = rs.slip_section([0.8, 0.0, 0.0, -0.5])
        assert up.crossing_direction == "rising"
        assert down.crossing_direction == "falling"


class TestBundles:
    def test_slip_system_triple(self):
        routhian, spec, sym = rs.slip_system(rs.SlipParams(kappa=50.0, l0=1.0))
        s = np.array([0.9, 0.2, 0.1, 0.5])
        assert routh_vector_field(routhian)(s).shape == (4,)
        assert np.isfinite(spec.guard(s))
        assert rs.involution_residual(sym, s) <= 1e-12


class TestCertifiedRegressions:
    def test_slip_search_reproduces_frozen_tuple(self):
        found = search_slip_tuple()
        assert found.kappa == CERTIFIED_SLIP.kappa
        assert found.xi_star == pytest.approx(CERTIFIED_SLIP.xi_star, abs=1e-12)
        assert found.phidot_star == pytest.approx(CERTIFIED_SLIP.phidot_star,
                                                  abs=1e-12)
        assert found.half_period == pytest.approx(CERTIFIED_SLIP.half_period,
                                                  abs=1e-6)
        assert found.impact_angle == pytest.approx(CERTIFIED_SLIP.impact_angle,
                                                   abs=1e-6)

    def test_controlled_search_reproduces_frozen_tuple(self):
        found = search_controlled_tuple()
        assert found.c0 == pytest.approx(CERTIFIED_CONTROLLED.c0, abs=1e-12)
        assert found.c2 == pytest.approx(CERTIFIED_CONTROLLED.c2, abs=1e-12)
        assert found.l0 == pytest.approx(CERTIFIED_CONTROLLED.l0, abs=1e-12)
        assert found.phidot_star == pytest.approx(
            CERTIFIED_CONTROLLED.phidot_star, abs=1e-12)
        assert found.kappa == CERTIFIED_CONTROLLED.kappa
        assert found.half_period == pytest.approx(
            CERTIFIED_CONTROLLED.half_period, abs=1e-6)
