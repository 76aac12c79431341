"""Hybrid execution engine: events, resets, anti-Zeno and admissibility."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853

import routhsim as rs
from routhsim.hybrid import (
    AdmissibilityError,
    HybridSystemSpec,
    IntegrationError,
    MaxImpactsError,
    TangentialCrossingError,
    ZenoError,
    as_state,
    apply_reset,
    _SUBSTEPS,
    integrate_segment,
    run_hybrid,
)
from routhsim.poincare import _variational_spec

NAN, INF = float("nan"), float("inf")


def sawtooth(reset=None, **kw):
    """Unit-speed drift to x = 1 with a reset back to the origin."""
    return HybridSystemSpec(
        vector_field=lambda s: np.array([1.0, 0.0]),
        guard=lambda s: float(s[0]) - 1.0,
        reset=reset or (lambda s: np.array([0.0, 0.0])),
        guard_direction="rising",
        **kw,
    )


def harmonic(level=0.0, direction="falling"):
    """x'' = -x with the guard x = level."""
    return HybridSystemSpec(
        vector_field=lambda s: np.array([s[1], -s[0]]),
        guard=lambda s: float(s[0]) - level,
        reset=lambda s: np.array(s),
        guard_direction=direction,
    )


class TestAsState:
    def test_accepts_even_vectors(self):
        out = as_state([1.0, 2.0])
        assert out.dtype == float and out.shape == (2,)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            as_state([1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_state([1.0, np.nan])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_state(np.eye(2))


class TestIntegrateSegment:
    def test_unit_drift_event_at_one(self):
        segment, event = integrate_segment(sawtooth(), [0.0, 0.0], 0.0, 5.0)
        assert event is not None
        assert event.time == pytest.approx(1.0, abs=1e-9)
        assert event.pre_state[0] == pytest.approx(1.0, abs=1e-9)
        assert segment.t[-1] == event.time

    def test_event_residual_within_tolerance(self):
        spec = sawtooth()
        _, event = integrate_segment(spec, [0.0, 0.0], 0.0, 5.0)
        assert event.guard_residual <= spec.event_tol

    def test_oscillator_no_event_before_crossing(self):
        # First zero of cos(t) is at pi/2 > 1.
        segment, event = integrate_segment(harmonic(), [1.0, 0.0], 0.0, 1.0)
        assert event is None
        assert segment.t[-1] == pytest.approx(1.0)

    def test_oscillator_event_at_quarter_period(self):
        _, event = integrate_segment(harmonic(), [1.0, 0.0], 0.0, 3.0)
        assert event.time == pytest.approx(np.pi / 2, abs=1e-8)

    def test_tangential_crossing_reported(self):
        # Guard rate 1e-9 at the crossing is below the resolvable threshold.
        spec = HybridSystemSpec(
            vector_field=lambda s: np.array([1e-9, 0.0]),
            guard=lambda s: float(s[0]) - 5e-9,
            reset=lambda s: np.array([0.0, 0.0]),
        )
        with pytest.raises(TangentialCrossingError):
            integrate_segment(spec, [0.0, 0.0], 0.0, 10.0)

    def test_starts_on_guard_skips_departure(self):
        # Post-reset states sit on the guard; the departure must not retrigger.
        spec = HybridSystemSpec(
            vector_field=lambda s: np.array([-1.0, 0.0]),
            guard=lambda s: float(s[0]) - 1.0,
            reset=lambda s: np.array([0.0, 0.0]),
            guard_direction="rising",
        )
        _, event = integrate_segment(spec, [1.0, 0.0], 0.0, 1.0)
        assert event is None

    def test_integrator_order_on_oscillator(self):
        # Tightening the tolerance must not increase the one-period error.
        errs = []
        for tol in (1e-8, 1e-10):
            spec = harmonic()
            segment, _ = integrate_segment(
                HybridSystemSpec(vector_field=spec.vector_field,
                                 guard=lambda s: float(s[0]) - 2.0,
                                 reset=lambda s: np.array(s)),
                [1.0, 0.0], 0.0, 2.0 * np.pi, tol=tol)
            errs.append(abs(segment.dense(2.0 * np.pi)[0] - 1.0))
        assert errs[1] <= errs[0] + 1e-12


class TestInlinedStep:
    """The inlined step against scipy.integrate.DOP853, its oracle."""

    @staticmethod
    def oracle(field, start, t_max, tol):
        """scipy's knots, states, dense values at each step's scan samples
        and field calls (its dense output taken on every step)."""
        solver = DOP853(lambda t, y: field(y), 0.0, start, t_max,
                        rtol=tol, atol=tol)
        ts, ys, dense = [solver.t], [solver.y], []
        while solver.status == "running":
            solver.step()
            ts.append(solver.t)
            ys.append(solver.y)
            grid = np.linspace(solver.t_old, solver.t, _SUBSTEPS + 1)
            dense.append(solver.dense_output()(grid[1:]))
        return np.array(ts), np.vstack(ys), dense, solver.nfev

    @pytest.mark.parametrize("variational", [False, True],
                             ids=["slip", "slip_variational"])
    def test_matches_scipy_bit_for_bit(self, variational):
        cert = rs.CERTIFIED_SLIP
        spec, start = rs.slip_hybrid_spec(cert.params), cert.seed
        if variational:
            spec = _variational_spec(spec, 4)
            start = np.concatenate([start, np.eye(4).ravel()])
        calls = []

        def field(s):
            calls.append(1)
            return spec.vector_field(s)

        # A guard that never fires: the flow runs to t_max.
        free = dataclasses.replace(spec, vector_field=field,
                                   guard=lambda s: -1.0)
        segment, event = integrate_segment(free, start, 0.0, 5.0, tol=1e-10)
        ts, ys, dense, nfev = self.oracle(spec.vector_field, start, 5.0, 1e-10)
        assert event is None
        assert np.array_equal(segment.t, ts)
        assert np.array_equal(segment.y, ys)
        for step, ref in zip(segment.dense.interpolants, dense, strict=True):
            grid = np.linspace(step.t_old, step.t, _SUBSTEPS + 1)
            assert np.array_equal(step(grid[1:]), ref)
        assert len(calls) == nfev
        # Two calls start the flow, an accepted step makes 12 + 3 and a
        # rejected one 12: the run takes rejected steps, and its last step
        # is clipped to end at t_max.
        steps = ts.size - 1
        assert (nfev - 2 - 15 * steps) // 12 > 0
        assert segment.t[-1] == 5.0

    def test_blow_up_raises(self):
        # x' = x^2 from x = 1 leaves every bound at t = 1.
        spec = HybridSystemSpec(vector_field=lambda s: np.array([s[0] ** 2, 0.0]),
                                guard=lambda s: -1.0,
                                reset=lambda s: np.array(s))
        with pytest.raises(IntegrationError):
            integrate_segment(spec, [1.0, 0.0], 0.0, 2.0)


class TestNonFiniteArguments:
    """Non-finite horizons and tolerances raise before the first step."""

    @pytest.mark.parametrize("t_start, t_max, tol", [
        (NAN, 1.0, 1e-10), (0.0, NAN, 1e-10), (0.0, INF, 1e-10),
        (0.0, 1.0, NAN), (0.0, 1.0, INF)])
    def test_integrate_segment(self, t_start, t_max, tol):
        # The guard x = 2 is never reached.
        with pytest.raises(ValueError):
            integrate_segment(harmonic(level=2.0), [1.0, 0.0], t_start, t_max,
                              tol=tol)

    @pytest.mark.parametrize("t0, tf, tol", [
        (NAN, 1.0, 1e-10), (0.0, NAN, 1e-10), (0.0, INF, 1e-10),
        (0.0, 1.0, NAN), (0.0, 1.0, INF)])
    def test_run_hybrid(self, t0, tf, tol):
        with pytest.raises(ValueError):
            run_hybrid(sawtooth(), [0.0, 0.0], t0, tf, tol=tol)

    @pytest.mark.parametrize("task", ["orbit", "return_map", "jacobian",
                                      "time_to_impact"])
    @pytest.mark.parametrize("t_max, tol", [
        (NAN, 1e-10), (INF, 1e-10), (5.0, NAN), (5.0, INF)])
    def test_pipeline(self, task, t_max, tol):
        cert = rs.CERTIFIED_SLIP
        spec = rs.slip_hybrid_spec(cert.params)
        section = rs.slip_section(cert.seed)
        calls = {
            "orbit": lambda: rs.construct_periodic_orbit(
                spec, rs.slip_symmetry(), cert.seed, t_max, tol=tol),
            "return_map": lambda: rs.return_map(spec, section, np.zeros(3),
                                                t_max=t_max, tol=tol),
            "jacobian": lambda: rs.jacobian(spec, section, t_max=t_max, tol=tol),
            "time_to_impact": lambda: rs.time_to_impact(spec, cert.seed, t_max,
                                                        tol=tol),
        }
        with pytest.raises(ValueError):
            calls[task]()


class TestCrossingProperties:
    @settings(deadline=None)
    @given(st.floats(-6.0, -2.0))
    def test_near_grazing_crossing_found(self, log_eps):
        # x = sin t rises above 1 - eps and falls back within 2 sqrt(2 eps):
        # at the default tolerance a sign test at step ends alone misses
        # this pair, so the test pins the sub-step sampling.
        eps = 10.0 ** log_eps
        spec = harmonic(level=1.0 - eps, direction="rising")
        _, event = integrate_segment(spec, [0.0, 1.0], 0.0, 3.0)
        assert event is not None
        # The guard rate is only sqrt(2 eps), so a state error d moves the
        # event time by d / rate: check the exact flow's guard there, and
        # the time itself at a tolerance that resolves it.
        assert abs(np.sin(event.time) - (1.0 - eps)) <= 1e-9
        _, fine = integrate_segment(spec, [0.0, 1.0], 0.0, 3.0, tol=1e-12)
        assert fine.time == pytest.approx(np.arcsin(1.0 - eps), abs=1e-8)

    @settings(deadline=None)
    @given(st.floats(-9.0, -6.0))
    def test_deep_near_grazing_crossing_found(self, log_eps):
        # Here the crossing pair spans at most 2 sqrt(2e-6) ~ 2.8e-3, well
        # inside one sample interval of an eighth-order step: only the
        # critical points of the step's fit bring a sample between them.
        eps = 10.0 ** log_eps
        spec = harmonic(level=1.0 - eps, direction="rising")
        _, event = integrate_segment(spec, [0.0, 1.0], 0.0, 3.0)
        assert event is not None
        assert abs(np.sin(event.time) - (1.0 - eps)) <= 1e-9
        # A state error d moves the time by d / sqrt(2 eps): at tol 1e-12
        # d ~ 3e-12 gives 7e-8 at eps = 1e-9, so read the time at 1e-13.
        _, fine = integrate_segment(spec, [0.0, 1.0], 0.0, 3.0, tol=1e-13)
        assert fine.time == pytest.approx(np.arcsin(1.0 - eps), abs=1e-8)

    @settings(deadline=None)
    @given(st.floats(0.2, 3.0), st.sampled_from([1e-3, 1e-4, 1e-5]))
    def test_two_crossings_inside_one_sample_interval(self, a, gap):
        # x = (t - a)(t - b) dips below the guard x = 0 only on [a, b], a
        # window far shorter than a sample interval of the (long) steps
        # this quadratic flow allows.
        b = a + gap
        spec = HybridSystemSpec(
            vector_field=lambda s: np.array([2.0 * s[1] - (a + b), 1.0]),
            guard=lambda s: float(s[0]),
            reset=lambda s: np.array(s),
            guard_direction="falling",
        )
        _, event = integrate_segment(spec, [a * b, 0.0], 0.0, 4.0)
        assert event is not None
        assert event.time == pytest.approx(a, abs=1e-8)

    def test_step_far_from_guard_makes_substeps_guard_calls(self):
        # The Bernstein bound of every step excludes zero, so each step
        # evaluates the guard at its _SUBSTEPS new samples and nowhere else.
        calls = []

        def guard(s):
            calls.append(1)
            return float(s[0]) - 10.0

        spec = HybridSystemSpec(vector_field=lambda s: np.array([s[1], -s[0]]),
                                guard=guard, reset=lambda s: np.array(s))
        segment, event = integrate_segment(spec, [1.0, 0.0], 0.0, 5.0)
        assert event is None
        steps = segment.t.size - 1
        assert steps > 1
        assert len(calls) == 1 + _SUBSTEPS * steps

    def test_guard_undefined_before_crossing(self):
        # A guard that is NaN on part of the flow: those samples take no
        # part in the sign test, and the fit is not rooted through them.
        spec = HybridSystemSpec(
            vector_field=lambda s: np.array([1.0, 0.0]),
            guard=lambda s: np.sqrt(s[0] - 0.5) - 1.0 if s[0] >= 0.5 else np.nan,
            reset=lambda s: np.array(s),
        )
        _, event = integrate_segment(spec, [0.0, 0.0], 0.0, 5.0)
        assert event.time == pytest.approx(1.5, abs=1e-9)

    @settings(deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(2.0, 10.0))
    def test_horizon_does_not_move_event(self, level, t_max):
        spec = harmonic(level=level, direction="rising")
        _, short = integrate_segment(spec, [0.0, 1.0], 0.0, t_max)
        _, long = integrate_segment(spec, [0.0, 1.0], 0.0, 2.0 * t_max)
        assert short.time == pytest.approx(np.arcsin(level), abs=1e-8)
        assert long.time == short.time
        np.testing.assert_array_equal(long.pre_state, short.pre_state)

    @settings(deadline=None)
    @given(st.sampled_from(["rising", "falling", "both"]),
           st.floats(0.1, 2.0), st.sampled_from([1.0, -1.0]),
           st.floats(0.0, 5e-11))
    def test_start_on_guard_is_not_a_crossing(self, direction, speed, sign,
                                              offset):
        # x = v sin t (shifted back by an offset within event_tol) leaves the
        # guard x = 0 at once, then crosses it near pi (against the sign of
        # v) and near 2 pi (with it). The departure must not count.
        v = sign * speed
        _, event = integrate_segment(harmonic(direction=direction),
                                     [-sign * offset, v], 0.0, 7.0)
        at_pi = direction == "both" or (direction == "rising") == (v < 0)
        expected = np.pi if at_pi else 2.0 * np.pi
        assert event.time == pytest.approx(expected, abs=1e-8)

class TestApplyReset:
    def test_inward_post_state_accepted(self):
        post = apply_reset(sawtooth(), np.array([1.0, 0.0]))
        assert np.allclose(post, [0.0, 0.0])

    def test_outward_velocity_on_guard_rejected(self):
        spec = HybridSystemSpec(
            vector_field=lambda s: np.array([s[1], 0.0]),
            guard=lambda s: float(s[0]) - 1.0,
            reset=lambda s: np.array([1.0, 1.0]),
            guard_direction="rising",
        )
        with pytest.raises(AdmissibilityError):
            apply_reset(spec, np.array([1.0, 1.0]))

    def test_inward_velocity_on_guard_accepted(self):
        spec = HybridSystemSpec(
            vector_field=lambda s: np.array([s[1], 0.0]),
            guard=lambda s: float(s[0]) - 1.0,
            reset=lambda s: np.array([1.0, -s[1]]),
            guard_direction="rising",
        )
        post = apply_reset(spec, np.array([1.0, 1.0]))
        assert post[1] == -1.0

    def test_off_guard_pre_state_rejected(self):
        with pytest.raises(ValueError):
            apply_reset(sawtooth(), np.array([0.5, 0.0]), guard_residual=0.5)


class TestRunHybrid:
    def test_sawtooth_impact_times(self):
        traj = run_hybrid(sawtooth(), [0.0, 0.0], 0.0, 3.5)
        times = [ev.time for ev in traj.impacts]
        assert np.allclose(times, [1.0, 2.0, 3.0], atol=1e-8)

    def test_right_continuity_at_impacts(self):
        traj = run_hybrid(sawtooth(), [0.0, 0.0], 0.0, 3.5)
        for i, ev in enumerate(traj.impacts):
            np.testing.assert_array_equal(traj.segments[i + 1].y[0],
                                          ev.post_state)

    def test_identity_reset_raises_zeno(self):
        spec = sawtooth(reset=lambda s: np.array(s))
        with pytest.raises(ZenoError):
            run_hybrid(spec, [0.0, 0.0], 0.0, 3.0)

    def test_rapid_reimpacts_raise_zeno(self):
        spec = sawtooth(reset=lambda s: np.array([1.0 - 1e-9, 0.0]))
        with pytest.raises(ZenoError):
            run_hybrid(spec, [0.0, 0.0], 0.0, 3.0)

    def test_max_impacts_budget(self):
        spec = sawtooth(max_impacts=2)
        with pytest.raises(MaxImpactsError):
            run_hybrid(spec, [0.0, 0.0], 0.0, 3.5)

    def test_determinism(self):
        t1 = [ev.time for ev in run_hybrid(sawtooth(), [0.0, 0.0], 0.0, 3.5).impacts]
        t2 = [ev.time for ev in run_hybrid(sawtooth(), [0.0, 0.0], 0.0, 3.5).impacts]
        assert t1 == t2

    def test_impact_gaps_respect_minimum(self):
        spec = sawtooth()
        traj = run_hybrid(spec, [0.0, 0.0], 0.0, 3.5)
        times = [ev.time for ev in traj.impacts]
        assert all(b - a >= spec.min_inter_impact
                   for a, b in zip(times, times[1:]))

    def test_state_at_evaluates_segments(self):
        traj = run_hybrid(sawtooth(), [0.0, 0.0], 0.0, 2.5)
        assert traj.state_at(0.5)[0] == pytest.approx(0.5, abs=1e-9)
        with pytest.raises(ValueError):
            traj.state_at(10.0)

    def test_state_at_impact_is_post_impact_state(self):
        cert = rs.CERTIFIED_SLIP
        traj = run_hybrid(rs.slip_hybrid_spec(cert.params), cert.seed, 0.0, 3.0)
        assert traj.impacts
        for ev in traj.impacts:
            np.testing.assert_array_equal(traj.state_at(ev.time), ev.post_state)


class TestCertifiedSegment:
    # The certified gait's half period from solve_ivp with Radau and with
    # DOP853 at rtol 1e-13 (the two agree to 4e-15).
    HALF_PERIOD = 0.84671975120793

    def test_cost_and_accuracy(self):
        cert = rs.CERTIFIED_SLIP
        spec = rs.slip_hybrid_spec(cert.params)
        calls = []

        def field(s):
            calls.append(1)
            return spec.vector_field(s)

        counted = dataclasses.replace(spec, vector_field=field)
        _, event = integrate_segment(counted, cert.seed, 0.0, 5.0, tol=1e-10)
        assert len(calls) <= 300
        assert event.time == pytest.approx(self.HALF_PERIOD, abs=3e-11)


class TestSpecValidation:
    def test_bad_direction(self):
        with pytest.raises(ValueError):
            HybridSystemSpec(vector_field=lambda s: s, guard=lambda s: 0.0,
                             reset=lambda s: s, guard_direction="sideways")

    def test_bad_min_inter_impact(self):
        with pytest.raises(ValueError):
            sawtooth(min_inter_impact=0.0)

    def test_bad_max_impacts(self):
        with pytest.raises(ValueError):
            sawtooth(max_impacts=0)

    @pytest.mark.parametrize("gap", [NAN, INF])
    def test_non_finite_min_inter_impact(self, gap):
        # A NaN gap would switch the Zeno guard off.
        with pytest.raises(ValueError):
            sawtooth(min_inter_impact=gap)

    @pytest.mark.parametrize("event_tol", [NAN, INF, 0.0, -1e-10])
    def test_bad_event_tol(self, event_tol):
        # A NaN tolerance would switch the residual check off; a zero or
        # negative one would fail later as a stalled refinement.
        with pytest.raises(ValueError):
            sawtooth(event_tol=event_tol)
