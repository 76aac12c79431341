"""Sections, return maps, Jacobians, eigenvalues, and spectral bounds."""
import dataclasses

import numpy as np
import pytest

import routhsim as rs
from routhsim import poincare
from routhsim.hybrid import HybridSystemSpec
from routhsim.poincare import (
    check_spectral_bounds,
    eigenvalues,
    jacobian,
    make_section,
    numerical_rank,
    reset_jacobian,
    return_map,
    stability_report,
    time_to_impact,
    transversal_section,
)

CERT = rs.CERTIFIED_SLIP
# Touchdown angle pinned at the certified impact angle: the rank-2 reset.
PINNED = rs.SlipParams(kappa=CERT.kappa, l0=1.0, phi0=CERT.impact_angle)


def sawtooth():
    return HybridSystemSpec(vector_field=lambda s: np.array([1.0, 0.0]),
                            guard=lambda s: float(s[0]) - 1.0,
                            reset=lambda s: np.array([0.0, s[1]]))


def no_guard(field):
    return HybridSystemSpec(vector_field=field,
                            guard=lambda s: float(s[0]) - 1e6,
                            reset=lambda s: np.array(s))


class TestTimeToImpact:
    def test_sawtooth_linear(self):
        t = time_to_impact(sawtooth(), [0.25, 0.0], t_max=5.0)
        assert t == pytest.approx(0.75, abs=1e-9)

    def test_slip_below_escape_energy(self):
        params = CERT.params
        xi_eq = params.l0 - params.m * params.g / params.kappa
        spec = rs.slip_hybrid_spec(params)
        assert time_to_impact(spec, [xi_eq, 0.0, 0.0, 0.0], 5.0) == np.inf

    def test_slip_periodic_seed_half_period(self):
        spec = rs.slip_hybrid_spec(CERT.params)
        t = time_to_impact(spec, CERT.seed, 5.0)
        assert t == pytest.approx(CERT.half_period, abs=1e-8)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            time_to_impact(sawtooth(), [0.0, 0.0], t_max=0.0)


class TestSectionGeometry:
    def test_chart_orthonormal_default(self):
        sec = make_section([0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(sec.chart.T @ sec.chart, np.eye(3),
                                   atol=1e-12)
        np.testing.assert_allclose(sec.chart.T @ sec.normal, 0.0, atol=1e-12)

    def test_chart_round_trip(self):
        sec = rs.slip_section(CERT.seed)
        p = np.array([0.01, -0.02, 0.03])
        np.testing.assert_allclose(sec.to_chart(sec.lift(p)), p, atol=1e-14)

    def test_transversal_section_normal(self):
        f = lambda s: np.array([s[1], -s[0]])
        sec = transversal_section(f, [1.0, 0.0])
        np.testing.assert_allclose(np.abs(sec.normal), [0.0, 1.0], atol=1e-12)

    def test_bad_chart_rejected(self):
        with pytest.raises(ValueError):
            make_section([0.0, 0.0], [1.0, 0.0],
                         chart=np.array([[1.0], [0.0]]))

    @pytest.mark.parametrize("normal", [[0.0, 0.0, 0.0, 0.0],
                                        [0.0, np.nan, 0.0, 0.0],
                                        [0.0, np.inf, 0.0, 0.0]],
                             ids=["zero", "nan", "inf"])
    def test_degenerate_normal_rejected(self, normal):
        chart = np.column_stack([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                 [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="normal must be finite and nonzero"):
            make_section(CERT.seed, normal, chart=chart)
        with pytest.raises(ValueError, match="normal must be finite and nonzero"):
            make_section(CERT.seed, normal)


class TestReturnMap:
    def test_certified_anchor_returns_to_itself(self):
        spec = rs.slip_hybrid_spec(CERT.params)
        sec = rs.slip_section(CERT.seed)
        out = return_map(spec, sec, np.zeros(3), t_max=5.0)
        assert np.max(np.abs(out)) <= 1e-7

    def test_fix_direction_perturbation_returns(self):
        spec = rs.slip_hybrid_spec(CERT.params)
        sec = rs.slip_section(CERT.seed)
        for chart_dir in (np.array([1e-3, 0.0, 0.0]),
                          np.array([0.0, 0.0, 1e-3])):
            out = return_map(spec, sec, chart_dir, t_max=5.0)
            assert np.max(np.abs(out - chart_dir)) <= 1e-6

    def test_no_return_raises(self):
        params = CERT.params
        xi_eq = params.l0 - params.m * params.g / params.kappa
        spec = rs.slip_hybrid_spec(params)
        sec = make_section([xi_eq, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        with pytest.raises(poincare.NoReturnError):
            return_map(spec, sec, np.zeros(3), t_max=2.0)


class TestJacobian:
    def test_monodromy_of_uncoupled_oscillators(self):
        # Oscillator pair (omega = 1 and sqrt 2); the section orthogonal to
        # the flow at (1, 0, 0, 0) returns after 2*pi with a closed-form map.
        omega2 = np.sqrt(2.0)

        def field(s):
            x1, x2, v1, v2 = s
            return np.array([v1, v2, -x1, -omega2 ** 2 * x2])

        spec = no_guard(field)
        anchor = np.array([1.0, 0.0, 0.0, 0.0])
        sec = make_section(anchor, [0.0, 0.0, -1.0, 0.0],
                           chart=np.column_stack([
                               [1.0, 0.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0, 1.0]]),
                           crossing_direction="rising")
        jac = jacobian(spec, sec, t_max=8.0, require_impact=False)
        a = 2.0 * np.pi * omega2
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.0, np.cos(a), np.sin(a) / omega2],
            [0.0, -omega2 * np.sin(a), np.cos(a)]])
        np.testing.assert_allclose(jac, expected, atol=1e-8)

    def test_constant_return_map_rank_zero(self):
        # Reset to a fixed state makes the return map constant.
        spec = HybridSystemSpec(vector_field=lambda s: np.array([1.0, 0.0]),
                                guard=lambda s: float(s[0]) - 1.0,
                                reset=lambda s: np.array([0.0, 0.3]))
        sec = make_section([0.5, 0.3], [1.0, 0.0])
        jac = jacobian(spec, sec, t_max=5.0)
        assert numerical_rank(jac) == 0

    def test_matches_central_differences_at_order_h2(self):
        from oracles import central_fd_return_jacobian

        spec = rs.slip_hybrid_spec(PINNED)
        sec = rs.slip_section(CERT.seed)
        exact = jacobian(spec, sec, t_max=5.0, tol=1e-12)
        for h in (1e-5, 1e-6):
            fd = central_fd_return_jacobian(spec, sec, h, t_max=5.0, tol=1e-12)
            assert np.max(np.abs(exact - fd)) <= 2e6 * h ** 2

    def test_finite_difference_field_jacobian_fallback(self):
        spec = rs.slip_hybrid_spec(PINNED)
        assert spec.vector_field_jacobian is not None
        sec = rs.slip_section(CERT.seed)
        closed = jacobian(spec, sec, t_max=5.0)
        fallback = jacobian(
            dataclasses.replace(spec, vector_field_jacobian=None), sec, t_max=5.0)
        assert np.max(np.abs(closed - fallback)) <= 1e-6

    def test_pinned_spectrum(self):
        spec = rs.slip_hybrid_spec(PINNED)
        moduli = np.abs(eigenvalues(jacobian(spec, rs.slip_section(CERT.seed),
                                             t_max=5.0)))
        np.testing.assert_allclose(moduli[:2], [1.887837, 1.0], atol=1e-6)
        assert moduli[2] <= 1e-8

    def test_tangential_return_raises(self):
        # After the reset the flow meets the section y = 0 at the inflection
        # of y = (x - 0.5)^3, where its normal rate vanishes.
        spec = HybridSystemSpec(
            vector_field=lambda s: np.array([1.0, 3.0 * (s[0] - 0.5) ** 2]),
            guard=lambda s: float(s[0]) - 1.0,
            reset=lambda s: np.array([0.0, -s[1]]))
        sec = make_section([0.5, 0.0], [0.0, 1.0])
        with pytest.raises(RuntimeError, match="tangentially"):
            jacobian(spec, sec, t_max=5.0)


class TestEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_rotation_generator(self):
        vals = sorted(eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]])),
                      key=lambda z: z.imag)
        np.testing.assert_allclose(vals, [-1j, 1j], atol=1e-12)

    def test_random_matrix_against_companion_oracle(self):
        from oracles import char_poly_coefficients

        rng = np.random.default_rng(11)
        A = rng.normal(size=(4, 4))
        vals = np.sort_complex(eigenvalues(A))
        oracle = np.sort_complex(np.roots(char_poly_coefficients(A)))
        assert np.max(np.abs(vals - oracle)) <= 1e-8

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(9))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))

    def test_sorted_by_modulus(self):
        vals = eigenvalues(np.diag([0.1, 2.0, 1.0]))
        assert np.all(np.diff(np.abs(vals)) <= 0)


class TestRankAndResetJacobian:
    def test_rank_of_projector(self):
        P = np.diag([1.0, 1.0, 0.0])
        assert numerical_rank(P) == 2

    def test_rank_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_detected_angle_reset_rank_three(self):
        spec = rs.slip_hybrid_spec(CERT.params)
        state = np.array([1.0, CERT.impact_angle, 1.05, 2.9])
        assert numerical_rank(reset_jacobian(spec, state)) == 3

    def test_pinned_angle_reset_rank_two(self):
        params = rs.SlipParams(kappa=CERT.kappa, l0=1.0,
                               phi0=CERT.impact_angle)
        spec = rs.slip_hybrid_spec(params)
        state = np.array([1.0, CERT.impact_angle, 1.05, 2.9])
        assert numerical_rank(reset_jacobian(spec, state)) == 2


class TestSpectralBounds:
    def test_bounds_on_reference_spectrum(self):
        ok0, ok1 = check_spectral_bounds([1.0, 1.0, 0.0], r=2, beta=2,
                                         n_minus_1=3)
        assert ok0 and ok1

    def test_zero_count_shortfall_detected(self):
        ok0, _ = check_spectral_bounds([1.0, 1.0, 0.5], r=2, beta=2,
                                       n_minus_1=3)
        assert not ok0

    def test_vacuous_bounds(self):
        ok0, ok1 = check_spectral_bounds([0.5, 0.5], r=0, beta=2, n_minus_1=2)
        assert ok0 and ok1

    def test_classifications(self):
        assert stability_report(np.diag([0.5, 0.3]), r=0, beta=2,
                                n_minus_1=2).classification == "asymptotically_stable"
        assert stability_report(np.diag([1.0, 0.5]), r=1, beta=2,
                                n_minus_1=2).classification == "marginally_stable"
        assert stability_report(np.diag([1.2, 0.5]), r=1, beta=2,
                                n_minus_1=2).classification == "unstable"
        assert stability_report(np.diag([1.0, 1.0]), r=1, beta=2,
                                n_minus_1=2).classification == "degenerate"

    def test_report_counts(self):
        rep = stability_report(np.diag([1.0, 0.0, -1.0]), r=2, beta=2,
                               n_minus_1=3)
        assert rep.lambda0_count == 1
        assert rep.lambda1_count == 2
