"""Sections, return maps, Jacobians, eigenvalues, and spectral bounds."""
import dataclasses

import numpy as np
import pytest

import routhsim as rs
from routhsim import poincare
from routhsim.hybrid import HybridSystemSpec, ZenoError, _flow
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

    def test_bad_crossing_direction_rejected(self):
        # A misspelt direction would otherwise scan for both directions.
        with pytest.raises(ValueError, match="crossing_direction"):
            make_section([0.5, 0.0], [1.0, 0.0], crossing_direction="Rising")
        with pytest.raises(ValueError, match="crossing_direction"):
            dataclasses.replace(make_section([0.5, 0.0], [1.0, 0.0]),
                                crossing_direction="Rising")

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

    def test_one_reset_per_cycle(self):
        spec = rs.slip_hybrid_spec(CERT.params)
        calls = []

        def reset(s):
            calls.append(1)
            return spec.reset(s)

        counted = dataclasses.replace(spec, reset=reset)
        return_map(counted, rs.slip_section(CERT.seed), np.zeros(3), t_max=5.0)
        assert len(calls) == 1

    def test_stuck_reset_raises_zeno(self):
        spec = HybridSystemSpec(vector_field=lambda s: np.array([1.0, 0.0]),
                                guard=lambda s: float(s[0]) - 1.0,
                                reset=lambda s: np.array(s))
        with pytest.raises(ZenoError):
            return_map(spec, make_section([0.5, 0.0], [1.0, 0.0]), [0.0],
                       t_max=5.0)

    def test_second_impact_before_section_raises(self):
        # The reset lands past the section x = 0.5, so the flow meets the
        # guard x = 1 again at t = 0.75 before it returns.
        spec = HybridSystemSpec(vector_field=lambda s: np.array([1.0, 0.0]),
                                guard=lambda s: float(s[0]) - 1.0,
                                reset=lambda s: np.array([0.75, s[1]]))
        sec = make_section([0.5, 0.0], [1.0, 0.0])
        with pytest.raises(poincare.NoReturnError,
                           match="second impact at t=0.75"):
            return_map(spec, sec, [0.0], t_max=5.0)


class TestJacobian:
    def test_monodromy_of_uncoupled_oscillators(self):
        # Oscillator pair (omega = 1 and sqrt 2): the derivative of one
        # smooth leg over 2*pi against the closed-form e^(A t).
        omega = np.array([1.0, np.sqrt(2.0)])
        A = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [-np.diag(omega ** 2), np.zeros((2, 2))]])
        spec = no_guard(lambda s: A @ s)
        steps = []
        t = 2.0 * np.pi
        _, event, _ = _flow(spec, [1.0, 0.0, 0.0, 0.0], 0.0, t, 1e-10,
                            record=steps)
        assert event is None
        phi = poincare._transition(
            lambda xs: np.broadcast_to(A, (len(xs), 4, 4)), steps, t)
        c, s = np.cos(omega * t), np.sin(omega * t)
        expected = np.block([[np.diag(c), np.diag(s / omega)],
                             [np.diag(-omega * s), np.diag(c)]])
        np.testing.assert_allclose(phi, expected, rtol=0.0, atol=1e-8)

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

    @staticmethod
    def pinned_gaits():
        """The certified pinned gait and 3 seeded gaits from the box
        kappa in [49, 51], xi* in [0.795, 0.802], phidot* in [0.52, 0.58],
        each with its touchdown angle pinned at its orbit's impact angle."""
        yield PINNED, CERT.seed
        rng = np.random.default_rng(2024)
        sym = rs.slip_symmetry()
        for _ in range(3):
            params = rs.SlipParams(kappa=rng.uniform(49.0, 51.0))
            seed = np.array([rng.uniform(0.795, 0.802), 0.0, 0.0,
                             rng.uniform(0.52, 0.58)])
            orbit = rs.construct_periodic_orbit(rs.slip_hybrid_spec(params),
                                                sym, seed, t_max=5.0)
            angle = abs(float(orbit.trajectory.impacts[0].pre_state[1]))
            yield dataclasses.replace(params, phi0=angle), seed

    def test_matches_augmented_flow(self):
        from oracles import augmented_flow_jacobian

        for params, seed in self.pinned_gaits():
            spec = rs.slip_hybrid_spec(params)
            sec = rs.slip_section(seed)
            jac = jacobian(spec, sec, t_max=5.0)
            ref = augmented_flow_jacobian(spec, sec, t_max=5.0)
            assert np.max(np.abs(jac - ref)) <= 1e-6
            assert np.max(np.abs(np.abs(eigenvalues(jac))
                                 - np.abs(eigenvalues(ref)))) <= 1e-7

    def test_field_calls_over_return_map(self):
        # The sensitivity rides on the state's own steps: beyond the return
        # map's flow, only the saltation's f- and f+ and the projection's f.
        spec = rs.slip_hybrid_spec(PINNED)
        sec = rs.slip_section(CERT.seed)
        calls = []

        def field(s):
            calls.append(1)
            return spec.vector_field(s)

        counted = dataclasses.replace(spec, vector_field=field)
        return_map(counted, sec, np.zeros(3), t_max=5.0)
        flow = len(calls)
        calls.clear()
        jacobian(counted, sec, t_max=5.0)
        assert len(calls) <= flow + 3

    def test_one_field_jacobian_call_per_leg(self):
        # Each leg's stage states go to Df as one stack: the stance up to
        # the impact, and the stance after it up to the section.
        spec = rs.slip_hybrid_spec(PINNED)
        calls = []

        def dfield(states):
            calls.append(1)
            return spec.vector_field_jacobian(states)

        counted = dataclasses.replace(spec, vector_field_jacobian=dfield)
        jacobian(counted, rs.slip_section(CERT.seed), t_max=5.0)
        assert len(calls) == 2

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


class TestReversibleHalves:
    @staticmethod
    def gaits():
        """The certified gait and 5 seeded gaits from the box kappa in
        [49, 51], xi* in [0.795, 0.802], phidot* in [0.52, 0.58]."""
        yield CERT.params, CERT.seed
        rng = np.random.default_rng(7)
        for _ in range(5):
            yield (rs.SlipParams(kappa=rng.uniform(49.0, 51.0)),
                   np.array([rng.uniform(0.795, 0.802), 0.0, 0.0,
                             rng.uniform(0.52, 0.58)]))

    def test_second_half_is_the_reflected_inverse_of_the_first(self):
        # For a reversible field, the flow from phi(x) over t is phi of the
        # flow from x over -t. The second half starts at reset = phi of the
        # first half's end, so its transition matrix is
        # T2 = Dphi T1^-1 Dphi (Lamb & Roberts, Physica D 112, 1998).
        sym = rs.slip_symmetry()
        for params, seed in self.gaits():
            spec = rs.slip_hybrid_spec(params)
            orbit = rs.construct_periodic_orbit(spec, sym, seed, t_max=5.0)
            first, second = [], []
            _, event, _ = _flow(spec, orbit.seed, 0.0, 5.0, 1e-10, None, first)
            t1 = event.time
            assert t1 == orbit.half_period
            post = rs.apply_reset(spec, event.pre_state)
            _flow(spec, post, t1, 2.0 * t1, 1e-10, None, second)
            t1_map = poincare._transition(spec.vector_field_jacobian, first, t1)
            t2_map = poincare._transition(spec.vector_field_jacobian, second,
                                          2.0 * t1)
            dphi = sym.dphi(orbit.seed)
            reflected = dphi @ np.linalg.inv(t1_map) @ dphi
            assert np.max(np.abs(t2_map - reflected)) <= 1e-7


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
