"""The library's DOP853 parts against scipy's, their oracle."""
import dataclasses

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate._ivp.common import select_initial_step
from scipy.integrate._ivp.rk import Dop853DenseOutput

import routhsim as rs
from routhsim import _dop853
from routhsim.hybrid import integrate_segment


@pytest.mark.parametrize("name", ["A", "A_EXTRA", "B", "E3", "E5", "D"])
def test_constants_equal_scipy(name):
    ours, theirs = getattr(_dop853, name), getattr(DOP853, name)
    assert ours.shape == theirs.shape
    assert np.array_equal(ours, theirs)


def test_initial_step_equals_scipy():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        M = rng.normal(size=(n, n))
        fun = lambda y: M @ y + np.sin(y)
        y0 = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 2)
        t0, t_bound = rng.uniform(-1, 1), rng.uniform(1.5, 10)
        tol = 10.0 ** rng.uniform(-13, -6)
        f0 = fun(y0)
        ours = _dop853.select_initial_step(fun, t0, y0, t_bound, f0, tol, tol)
        theirs = select_initial_step(lambda t, y: fun(y), t0, y0, t_bound,
                                     np.inf, f0, 1.0, 7, tol, tol)
        assert ours == theirs


class TestDenseOutput:
    """The piecewise dense output against an OdeSolution of scipy's
    per-step interpolants, built from the same steps."""

    @pytest.fixture(scope="class")
    def pair(self):
        cert = rs.CERTIFIED_SLIP
        spec = dataclasses.replace(rs.slip_hybrid_spec(cert.params),
                                   guard=lambda s: -1.0)
        segment, _ = integrate_segment(spec, cert.seed, 0.0, 3.0)
        steps = segment.dense.interpolants
        oracle = OdeSolution(segment.t, [
            Dop853DenseOutput(s.t_old, s.t, s.y_old, s.F) for s in steps])
        return segment, oracle

    def test_scalar(self, pair):
        segment, oracle = pair
        for t in np.random.default_rng(1).uniform(0.0, 3.0, 50):
            value = segment.dense(t)
            assert value.shape == (4,)
            assert np.array_equal(value, oracle(t))

    def test_array(self, pair):
        segment, oracle = pair
        # Unsorted, with repeats, knots, and points past both ends.
        t = np.random.default_rng(2).uniform(-0.1, 3.1, 200)
        t = np.concatenate([t, segment.t[::3], t[:5]])
        value = segment.dense(t)
        assert value.shape == (4, t.size)
        assert np.array_equal(value, oracle(t))

    def test_knots_take_the_lower_interpolant(self, pair):
        segment, oracle = pair
        for k, t in enumerate(segment.t):
            assert np.array_equal(segment.dense(t), oracle(t))
            step = segment.dense.interpolants[max(k - 1, 0)]
            assert np.array_equal(segment.dense(t), step(t))
        assert np.array_equal(segment.dense(segment.t), oracle(segment.t))
