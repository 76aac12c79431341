"""Execution engine for simple hybrid systems.

Integrates a smooth vector field with the adaptive eighth-order DOP853
scheme and scans each accepted step on its dense output as it goes, stopping
at the first directional guard crossing. The step is scipy's DOP853 tableau,
error norm and step-size controller, inlined so that the field is called
directly; `scipy.integrate.DOP853` itself is the oracle the tests compare it
with, step for step and bit for bit. This is the one place where crossings
are found: the same scan also reports the first crossing of a watched
function, which the Poincare return map uses for its section. The scan finds
every crossing of an event that is affine in the state, however long the
step (see `_critical_points`); for a nonlinear guard that coverage is a
heuristic. Event times are refined by bracketing root-finding; the module
then applies the reset map and enforces anti-Zeno and post-reset
admissibility conditions.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import DOP853, OdeSolution
# Two parts of scipy's DOP853 with no public name, from its private modules.
from scipy.integrate._ivp.common import select_initial_step
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

from . import _fd

EVENT_TOL = 1e-10
TANGENT_TOL = 1e-8
DEFAULT_TOL = 1e-10
_SUBSTEPS = 8  # samples per accepted step when scanning for sign changes

# A degree-7 polynomial in tau in [0, 1] (DOP853's dense output on one step)
# fitted to the step's _SUBSTEPS + 1 equispaced samples, as monomial
# coefficients, and the map from those to Bernstein coefficients, whose
# range encloses the polynomial's on [0, 1].
_DEGREE = 7
_FIT = np.linalg.pinv(np.vander(np.linspace(0.0, 1.0, _SUBSTEPS + 1),
                                _DEGREE + 1, increasing=True))
_BERNSTEIN = np.array([[math.comb(j, i) / math.comb(_DEGREE, i)
                        for i in range(_DEGREE + 1)]
                       for j in range(_DEGREE + 1)])
_RANGE = _BERNSTEIN @ _FIT  # samples -> Bernstein coefficients

# scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.5-II.6):
# 12 stages, an error norm from the E5 and E3 estimates, and 3 extra stages
# for the dense output's 7 x n coefficients F. The stage times (C, C_EXTRA)
# are not needed: the field is autonomous.
_STAGES = DOP853.n_stages
_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy raises smaller rtols to this
_POWER = 3 + DOP853.D.shape[0]  # rows of F: 3 from the step's ends, 4 from D
# Dop853DenseOutput is y_old + sum_j x^(j//2 + 1) (1 - x)^((j + 1)//2) F[j]
# at x = (t - t_old) / h; the rows are the scan's samples x = k / _SUBSTEPS.
_TAU = np.linspace(0.0, 1.0, _SUBSTEPS + 1)
_BASIS = np.array([[x ** (j // 2 + 1) * (1.0 - x) ** ((j + 1) // 2)
                    for j in range(_POWER)] for x in _TAU[1:]])

RISING = "rising"
FALLING = "falling"
BOTH = "both"
_DIRECTIONS = (RISING, FALLING, BOTH)


class HybridError(RuntimeError):
    """Base class for hybrid-execution failures."""


class IntegrationError(HybridError):
    """The underlying ODE solver failed (step-size underflow, blow-up)."""


class TangentialCrossingError(HybridError):
    """Guard derivative vanishes at the bracketed root; crossing is grazing."""


class AdmissibilityError(HybridError):
    """Post-reset state drives back into the guard."""


class ZenoError(HybridError):
    """Impacts accumulate faster than the minimum inter-impact time allows."""


class MaxImpactsError(HybridError):
    """The impact budget was exhausted before the final time."""


class NoImpactError(HybridError):
    """The flow never reached the guard within the allotted horizon."""


def as_state(x) -> np.ndarray:
    """Validate and normalize a state vector: finite entries, even dimension."""
    s = np.asarray(x, dtype=float)
    if s.ndim != 1 or s.size == 0 or s.size % 2 != 0:
        raise ValueError(f"state must be a 1-D vector of even length, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("state contains non-finite entries")
    return s


@dataclass(frozen=True)
class HybridSystemSpec:
    """A vector field, guard function, reset map and event policy.

    guard_direction selects the sign of d(guard)/dt at which crossings
    trigger; 'both' accepts either sign. vector_field_jacobian, when given,
    returns the closed-form Jacobian of vector_field at a state; the exact
    return-map linearization falls back to central differences without it.
    """

    vector_field: Callable[[np.ndarray], np.ndarray]
    guard: Callable[[np.ndarray], float]
    reset: Callable[[np.ndarray], np.ndarray]
    guard_direction: str = RISING
    min_inter_impact: float = 1e-6
    max_impacts: int = 10_000
    event_tol: float = EVENT_TOL
    vector_field_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.guard_direction not in _DIRECTIONS:
            raise ValueError(f"guard_direction must be one of {_DIRECTIONS}")
        if not 0.0 < self.min_inter_impact < math.inf:
            raise ValueError("min_inter_impact must be positive and finite")
        if not 0.0 < self.event_tol < math.inf:
            raise ValueError("event_tol must be positive and finite")
        if self.max_impacts < 1:
            raise ValueError("max_impacts must be a positive integer")


@dataclass(frozen=True)
class ImpactEvent:
    """A refined guard crossing: pre state on the guard, post state after reset."""

    time: float
    pre_state: np.ndarray
    post_state: Optional[np.ndarray]
    guard_residual: float


@dataclass(frozen=True)
class Segment:
    """Samples of one smooth arc: integrator steps plus the exact event time."""

    t: np.ndarray          # shape (k,)
    y: np.ndarray          # shape (k, dim), rows are states
    dense: object          # scipy OdeSolution over [t[0], t[-1]]


@dataclass(frozen=True)
class HybridTrajectory:
    segments: tuple
    impacts: tuple
    t0: float
    tf: float

    def state_at(self, t: float) -> np.ndarray:
        """Evaluate the trajectory at time t (right-continuous at impacts)."""
        for seg in reversed(self.segments):
            if seg.t[0] <= t <= seg.t[-1]:
                return np.asarray(seg.dense(t), dtype=float)
        raise ValueError(f"t={t} outside [{self.t0}, {self.tf}]")


def guard_rate(spec: HybridSystemSpec, s: np.ndarray) -> float:
    """d(guard)/dt along the flow, with the guard gradient by central differences."""
    grad = _fd.gradient(spec.guard, s)
    return float(grad @ np.asarray(spec.vector_field(s), dtype=float))


def _first_crossing(direction: str, g: np.ndarray, start: int):
    """Index i >= start of the first pair (g[i], g[i+1]) crossing zero in `direction`."""
    g0, g1 = g[:-1], g[1:]
    up = (g0 < 0.0) & (g1 >= 0.0)
    down = (g0 > 0.0) & (g1 <= 0.0)
    hit = up if direction == RISING else down if direction == FALLING else up | down
    idx = np.flatnonzero(hit[start:])
    return None if idx.size == 0 else start + int(idx[0])


def _critical_points(f: np.ndarray) -> np.ndarray:
    """Interior critical points, tau in (0, 1), of the degree-7 fit to f.

    f holds an event function's _SUBSTEPS + 1 equispaced samples on one
    step. None are returned when the fit's Bernstein coefficients are all
    of one strict sign (the fit has no zero on the step), or when one is
    not finite (the sign test then sees only the samples). For an event
    affine in the state the fit is the event along DOP853's degree-7 dense
    output, so between these points and the samples the event is monotone
    and a sign test on them misses no crossing. For a nonlinear event this
    is a heuristic.
    """
    b = _RANGE @ f
    if not -math.inf < b.min() <= 0.0 <= b.max() < math.inf:
        return f[:0]
    c = _FIT @ f
    roots = np.polynomial.polynomial.polyroots(c[1:] * np.arange(1, _DEGREE + 1))
    # A double root can come back as a complex pair split by rounding.
    tau = roots.real[np.abs(roots.imag) <= 1e-9]
    return tau[(tau > 0.0) & (tau < 1.0)]


def _samples(fn, dense, grid: np.ndarray, f0: float, states: np.ndarray):
    """fn on one step's grid (f0 at grid[0], states at the rest) and on the
    interior critical points of its fit: the merged, sorted times and values."""
    f = np.array([f0] + [float(fn(s)) for s in states])
    extra = grid[0] + (grid[-1] - grid[0]) * _critical_points(f)
    if extra.size == 0:
        return grid, f
    t = np.concatenate([grid, extra])
    f = np.concatenate([f, [float(fn(s)) for s in dense(extra).T]])
    order = np.argsort(t, kind="stable")
    return t[order], f[order]


def _root(fn, dense, t_lo: float, t_hi: float, f_hi: float) -> float:
    """Time in [t_lo, t_hi] at which fn vanishes along the dense output."""
    if f_hi == 0.0:
        return float(t_hi)
    return float(brentq(lambda t: float(fn(dense(t))), t_lo, t_hi,
                        xtol=1e-14, rtol=8.9e-16))


def _flow(spec: HybridSystemSpec, start, t_start: float, t_max: float,
          tol: float, watch=None):
    """Step DOP853 from `start` and stop at the first wanted crossing.

    The step is scipy's DOP853 inlined: its tableau, initial step, error
    norm and step-size controller at rtol = atol = tol, and its dense output
    built from 3 extra stages. It takes the same steps, to the bit, as
    `scipy.integrate.DOP853`, which the tests use as its oracle, and calls
    spec.vector_field directly. Each accepted step is sampled at _SUBSTEPS + 1
    points of its dense output; where the degree-7 fit to an event's samples
    may vanish on the step, the event is also sampled at the fit's interior
    critical points (`_critical_points`). A pair of crossings inside one step
    is then still seen: for an event affine in the state this holds whatever
    the step length, for a nonlinear guard it is a heuristic. The flow stops
    at the first step that holds a wanted guard crossing or, with
    watch = (fn, direction, t_min), a wanted sign change of fn on a sample
    pair starting at or after t_min. Returns (Segment, ImpactEvent or None,
    watch hit as (time, state) or None); a watch hit later than the impact
    in the same step is dropped.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not (math.isfinite(t_start) and math.isfinite(t_max)):
        raise ValueError("t_start and t_max must be finite")
    y = as_state(start)
    if t_max <= t_start:
        raise ValueError("t_max must exceed t_start")

    if tol < _RTOL_FLOOR:
        warnings.warn(f"tol {tol:g} is below 100 eps; the relative "
                      f"tolerance is raised to {_RTOL_FLOOR:g}", stacklevel=3)
    field = spec.vector_field
    t, t_max, rtol = float(t_start), float(t_max), max(tol, _RTOL_FLOOR)
    # Stage derivatives: rows 0.._STAGES for the step (row 0 is f(y), row
    # _STAGES is f at the step's end), the rest for the dense output.
    K = np.empty((_STAGES + 1 + len(DOP853.A_EXTRA), y.size))
    K[0] = field(y)
    h_abs = select_initial_step(lambda _, x: np.asarray(field(x), dtype=float),
                                t, y, t_max, math.inf, K[0], 1.0,
                                DOP853.error_estimator_order, rtol, tol)
    stages = [(s, K[:s].T, a[:s]) for s, a in enumerate(DOP853.A[1:], start=1)]
    extras = [(s, K[:s].T, a[:s])
              for s, a in enumerate(DOP853.A_EXTRA, start=_STAGES + 1)]
    k_step, k_err = K[:_STAGES].T, K[:_STAGES + 1].T

    ts, ys, steps = [t], [y], []
    g_prev = float(spec.guard(y))
    # A segment that starts on the guard (post-reset case) skips its leading
    # on-guard samples so the departure is not mistaken for a crossing.
    on_guard = abs(g_prev) <= spec.event_tol
    if watch is not None:
        fn, w_direction, t_min = watch
        w_prev = float(fn(y))
    event = hit = None
    while event is None and hit is None and t < t_max:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError("integrator failed: step size below "
                                       "10 ulp of the time")
            t_new = min(t + h_abs, t_max)
            h = h_abs = t_new - t
            for s, k, a in stages:
                K[s] = field(y + np.dot(k, a) * h)
            y_new = y + h * np.dot(k_step, DOP853.B)
            K[_STAGES] = field(y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(k_err, DOP853.E5) / scale
            err3 = np.dot(k_err, DOP853.E3) / scale
            e5 = math.sqrt(err5.dot(err5)) ** 2
            e3 = math.sqrt(err3.dot(err3)) ** 2
            if e5 == 0 and e3 == 0:
                error = 0.0
            else:
                error = h * e5 / math.sqrt((e5 + 0.01 * e3) * y.size)
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True

        for s, k, a in extras:
            K[s] = field(y + np.dot(k, a) * h)
        F = np.empty((_POWER, y.size))
        delta = y_new - y
        F[0] = delta
        F[1] = h * K[0] - delta
        F[2] = 2 * delta - h * (K[_STAGES] + K[0])
        F[3:] = h * np.dot(DOP853.D, K)
        K[0] = K[_STAGES]
        step = Dop853DenseOutput(t, t_new, y, F)
        steps.append(step)
        states = y + _BASIS @ F
        grid = t + h * _TAU
        grid[-1] = t_new
        t, y = t_new, y_new
        ts.append(t)
        ys.append(y)

        tg, g = _samples(spec.guard, step, grid, g_prev, states)
        g_prev = g[-1]
        first = 0
        if on_guard:
            off = np.flatnonzero(np.abs(g) > spec.event_tol)
            on_guard = off.size == 0
            first = g.size if on_guard else int(off[0])
        i = _first_crossing(spec.guard_direction, g, first)
        j = None
        if watch is not None:
            tw, w = _samples(fn, step, grid, w_prev, states)
            w_prev = w[-1]
            j = _first_crossing(w_direction, w, int(np.searchsorted(tw, t_min)))
        if i is None and j is None:
            continue

        dense = OdeSolution(ts, steps)
        if i is not None:
            t_event = _root(spec.guard, dense, tg[i], tg[i + 1], g[i + 1])
            pre = np.asarray(dense(t_event), dtype=float)
            residual = abs(float(spec.guard(pre)))
            if residual > spec.event_tol:
                raise IntegrationError(
                    f"event refinement stalled: |guard| = {residual:.3e} "
                    f"> {spec.event_tol:.3e}")
            rate = guard_rate(spec, pre)
            if abs(rate) < TANGENT_TOL:
                raise TangentialCrossingError(
                    f"guard derivative {rate:.3e} at t={t_event:.6g}; "
                    "tangential crossing is not resolvable")
            event = ImpactEvent(time=t_event, pre_state=pre, post_state=None,
                                guard_residual=residual)
        if j is not None and (event is None or tw[j] <= event.time):
            t_hit = _root(fn, dense, tw[j], tw[j + 1], w[j + 1])
            if event is None or t_hit <= event.time:
                hit = (t_hit, np.asarray(dense(t_hit), dtype=float))

    if event is None:
        t_grid, y_grid = np.array(ts), np.vstack(ys)
    else:
        keep = int(np.searchsorted(ts, event.time))  # knots before the event
        t_grid = np.append(ts[:keep], event.time)
        y_grid = np.vstack(ys[:keep] + [event.pre_state])
    dense = OdeSolution(t_grid, steps[:t_grid.size - 1])
    return Segment(t=t_grid, y=y_grid, dense=dense), event, hit


def integrate_segment(
    spec: HybridSystemSpec,
    start,
    t_start: float,
    t_max: float,
    tol: float = DEFAULT_TOL,
):
    """Flow from `start` until t_max or the first directional guard crossing.

    Returns (Segment, ImpactEvent or None). The flow stops at the first
    crossing, whose time is refined on the dense output until
    |guard| <= spec.event_tol; the segment's samples and dense output end at
    the event time, or at t_max when there is none. The event's post_state
    is left unset; callers pass the event through apply_reset.
    """
    segment, event, _ = _flow(spec, start, t_start, t_max, tol)
    return segment, event


def apply_reset(spec: HybridSystemSpec, pre_state, guard_residual: float = 0.0):
    """Apply the reset map and verify the moving-away condition.

    For a rising guard, a post state at or beyond the guard must satisfy
    d(guard)/dt <= 0 (and symmetrically for falling guards). States reset
    strictly inside the domain are admissible regardless of velocity: the
    flow may legitimately approach the guard again.
    """
    pre = as_state(pre_state)
    if guard_residual > spec.event_tol:
        raise ValueError(
            f"pre-impact state is not on the guard (residual {guard_residual:.3e})")
    post = as_state(spec.reset(pre))

    g_post = float(spec.guard(post))
    rate = guard_rate(spec, post)
    if spec.guard_direction == RISING:
        violated = g_post >= -spec.event_tol and rate > 0.0
    elif spec.guard_direction == FALLING:
        violated = g_post <= spec.event_tol and rate < 0.0
    else:
        violated = abs(g_post) <= spec.event_tol
    if violated:
        raise AdmissibilityError(
            f"post-reset state drives into the guard: guard={g_post:.3e}, "
            f"d(guard)/dt={rate:.3e}")
    return post


def run_hybrid(
    spec: HybridSystemSpec,
    start,
    t0: float,
    tf: float,
    tol: float = DEFAULT_TOL,
) -> HybridTrajectory:
    """Alternate flow and reset until tf, the impact budget, or an error.

    Raises ZenoError when a reset returns the pre-impact state (stuck on the
    guard) or two impacts arrive closer than min_inter_impact.
    """
    if not (math.isfinite(t0) and math.isfinite(tf)):
        raise ValueError("t0 and tf must be finite")
    if tf <= t0:
        raise ValueError("tf must exceed t0")
    state = as_state(start)
    t = t0
    segments = []
    impacts = []
    while t < tf:
        segment, event = integrate_segment(spec, state, t, tf, tol=tol)
        segments.append(segment)
        if event is None:
            break
        if len(impacts) + 1 > spec.max_impacts:
            raise MaxImpactsError(f"more than {spec.max_impacts} impacts before tf")
        if event.time - t < spec.min_inter_impact and impacts:
            raise ZenoError(
                f"impacts at {impacts[-1].time:.9g} and {event.time:.9g} are closer "
                f"than min_inter_impact={spec.min_inter_impact:g}")
        raw_post = as_state(spec.reset(event.pre_state))
        if (np.max(np.abs(raw_post - event.pre_state)) <= spec.event_tol
                and abs(float(spec.guard(raw_post))) <= spec.event_tol):
            raise ZenoError(
                "reset returned the pre-impact state: the trajectory is stuck "
                "on the guard and would re-trigger immediately")
        post = apply_reset(spec, event.pre_state, event.guard_residual)
        event = ImpactEvent(event.time, event.pre_state, post, event.guard_residual)
        impacts.append(event)
        state = post
        t = event.time
    return HybridTrajectory(segments=tuple(segments), impacts=tuple(impacts),
                            t0=t0, tf=tf)
