"""Execution engine for simple hybrid systems.

Integrates a smooth vector field with the adaptive eighth-order DOP853
scheme and scans each accepted step on its dense output as it goes, stopping
at the first directional guard crossing. The step is scipy's DOP853 tableau,
error norm and step-size controller, inlined so that the field is called
directly; the tableau, first step and dense output come from the private
`_dop853` module, so scipy is not imported. `scipy.integrate.DOP853` is the
oracle the tests compare it with, step for step and bit for bit. This is
the one place where crossings are found: the same scan also reports the
first crossing of a watched hyperplane, which the Poincare return map uses
for its section. The scan is exact for a guard declared affine
(`HybridSystemSpec.guard_gradient`) and for every section: a step is
skipped only when the Bernstein enclosure of the event along its dense
output, taken from the step's own coefficients, proves that the samples
cannot change sign, and every other step is sampled and covered whatever
its length (see `_critical_points`). For an undeclared nonlinear guard that
coverage is a heuristic. Event times are refined by Brent's bracketing
root-finder (`_brent`); the module then applies the reset map and enforces
anti-Zeno and post-reset admissibility conditions.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import _dop853, _fd
from ._dop853 import DenseOutput, DenseStep

EVENT_TOL = 1e-10
TANGENT_TOL = 1e-8
DEFAULT_TOL = 1e-10
MIN_INTER_IMPACT = 1e-6  # shortest gap between impacts before ZenoError
_SUBSTEPS = 8  # samples per accepted step when scanning for sign changes
ROOT_IMAG_TOL = 1e-9  # imaginary part up to which a fit's critical point is real

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
# for the dense output's 7 x n coefficients F. The stage times are not
# needed: the field is autonomous.
_STAGES = _dop853.N_STAGES
_EXPONENT = -1 / (_dop853.ERROR_ESTIMATOR_ORDER + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy raises smaller rtols to this
_POWER = _dop853.INTERPOLATOR_POWER  # rows of F: 3 from the step's ends, 4 from D
# DenseStep is y_old + sum_j x^(j//2 + 1) (1 - x)^((j + 1)//2) F[j] at
# x = (t - t_old) / h; the rows are the scan's samples x = k / _SUBSTEPS.
_TAU = np.linspace(0.0, 1.0, _SUBSTEPS + 1)
_BASIS = np.array([[x ** (j // 2 + 1) * (1.0 - x) ** ((j + 1) // 2)
                    for j in range(_POWER)] for x in _TAU[1:]])
# The dense output in the degree-7 Bernstein basis
# B_i = C(7, i) x^i (1 - x)^(7 - i), which sums to 1: column 0 takes y_old,
# and column j + 1 takes the term x^a (1 - x)^(j + 1 - a), a = j // 2 + 1,
# which times (x + 1 - x)^(6 - j) is sum_k C(6 - j, k) / C(7, a + k) B_(a + k).
# So an event n . y + b along a step has the Bernstein coefficients
# _HULL @ (n . y_old, F @ n) + b, whose range encloses it on the step
# (Farouki, CAGD 29, 2012).
_HULL = np.array([[1.0] + [math.comb(_DEGREE - 1 - j, i - j // 2 - 1)
                           / math.comb(_DEGREE, i) if i > j // 2 else 0.0
                           for j in range(_POWER)]
                  for i in range(_DEGREE + 1)])
# Rounding allowance of the enclosure test, in units of 2^-53 plus 4 per
# state entry; see `_side`.
_HULL_ULPS = 256
_SQRT_ROWS = math.sqrt(_POWER + 1)

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
    if not np.isfinite(s).all():
        raise ValueError("state contains non-finite entries")
    return s


@dataclass(frozen=True)
class HybridSystemSpec:
    """A vector field, guard function, reset map and event policy.

    vector_field maps a state of shape (n,) to its n derivatives, as a
    sequence of n floats or an (n,) array; the flow writes them into its
    stage array as they come, and other callers wrap them in np.asarray.
    guard_direction selects the sign of d(guard)/dt at which crossings
    trigger; 'both' accepts either sign. vector_field_jacobian, when given,
    returns the closed-form Jacobian of vector_field: a state of shape (n,)
    gives an (n, n) matrix, and a stack of states of shape (k, n) gives a
    (k, n, n) stack of matrices. The exact return-map linearization calls it
    on stacks, and falls back to central differences without it.
    guard_gradient, when given, declares the guard affine in the state:
    guard(s) = guard_gradient . s + b for a constant b, computed in floating
    point as a sum of those n + 1 terms in any order. The flow then skips
    the guard on every step where the guard's Bernstein enclosure keeps one
    strict sign, and calls it only on the other steps; a wrong gradient can
    hide a crossing. It must be a finite 1-D array of the state's length.
    guard_rate and the saltation matrix still difference the guard.
    """

    vector_field: Callable[[np.ndarray], Sequence[float] | np.ndarray]
    guard: Callable[[np.ndarray], float]
    reset: Callable[[np.ndarray], np.ndarray]
    guard_direction: str = RISING
    max_impacts: int = 10_000
    event_tol: float = EVENT_TOL
    vector_field_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # Left out of == and hash: it changes no result, and an array is unhashable.
    guard_gradient: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.guard_gradient is not None:
            grad = np.asarray(self.guard_gradient, dtype=float)
            if grad.ndim != 1 or not np.isfinite(grad).all():
                raise ValueError("guard_gradient must be a finite 1-D array")
            object.__setattr__(self, "guard_gradient", grad)
        if self.guard_direction not in _DIRECTIONS:
            raise ValueError(f"guard_direction must be one of {_DIRECTIONS}")
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
    dense: DenseOutput     # DOP853's dense output over [t[0], t[-1]]


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
    g = g.tolist()
    rising, falling = direction != FALLING, direction != RISING
    for i in range(start, len(g) - 1):
        a, b = g[i], g[i + 1]
        if (rising and a < 0.0 <= b) or (falling and a > 0.0 >= b):
            return i
    return None


def _critical_points(f: np.ndarray) -> np.ndarray:
    """Interior critical points, tau in (0, 1), of the degree-7 fit to f.

    f holds an event function's _SUBSTEPS + 1 equispaced samples on one
    step. None are returned when the fit's Bernstein coefficients are all
    of one strict sign (the fit has no zero on the step), or when one is
    not finite (the sign test then sees only the samples). For an event
    affine in the state (a section, or a guard declared affine or not) the
    fit is the event along DOP853's degree-7 dense output, so between these
    points and the samples the event is monotone and a sign test on them
    misses no crossing. Only for a nonlinear guard is this a heuristic.
    """
    b = _RANGE.dot(f).tolist()
    # min and max skip a NaN that is not first, hence the finiteness check.
    if not (-math.inf < min(b) <= 0.0 <= max(b) < math.inf
            and all(map(math.isfinite, b))):
        return f[:0]
    c = _FIT @ f
    roots = np.polynomial.polynomial.polyroots(c[1:] * np.arange(1, _DEGREE + 1))
    # A double root can come back as a complex pair split by rounding.
    tau = roots.real[np.abs(roots.imag) <= ROOT_IMAG_TOL]
    return tau[(tau > 0.0) & (tau < 1.0)]


def _affine(normal: np.ndarray, shift: float, scale: float, dim: int):
    """The enclosure test's view of the event normal . s + shift in a flow of
    `dim` state entries: (normal, shift, slope, floor) for `_side`, scale
    bounding the rounding of shift and of the event's own evaluation."""
    rounding = (4 * dim + _HULL_ULPS) * 2.0 ** -53
    return (normal, shift, rounding * math.sqrt(normal.dot(normal)),
            rounding * scale)


def _side(hull, YF: np.ndarray, size: float) -> int:
    """+1 or -1 when an affine event keeps that strict sign at every sample
    the scan could take on a step, else 0.

    hull is `_affine`'s tuple, YF stacks the step's y_old over its dense
    rows F, and size is sqrt(8) ||YF||_F, which bounds
    ||y_old|| + sum_j ||F_j||. The event along the step is a degree-7
    polynomial P in x; its Bernstein coefficients
    c = _HULL @ (YF @ n) + shift enclose P on [0, 1], and the first is
    n . y_old + shift. The step is one-signed when every computed c clears
    margin = slope * size + floor. With u = 2^-53, N state entries and
    A = ||n|| size, which bounds sum_k |n_k| (|y_old_k| + sum_j |F_jk|)
    (Cauchy-Schwarz), the margin of (4 N + _HULL_ULPS) u (A + scale) covers:
    - the rounding of c: an N-term dot, _HULL to within u and its 8-term
      dot, and the addition of shift, (N + 12) u A in all; and that of
      shift, which is within (2 N + 3) u scale;
    - the rounding of any sample: a grid state y_old + _BASIS @ F (_BASIS
      within 3 u, a 7-term dot, one addition), or a critical-point state by
      Horner at an x within 4 u of [0, 1], where |P'| <= 14 max |c|: at most
      72 u (A + scale) off P on [0, 1]; then the event's own (N + 1)-term
      sum, (N + 2) u (A + scale).
    So no sample of the step, and no critical point's, can have the other
    sign or be zero. NaN or overflow in YF makes the margin NaN or
    infinite, and the step is not one-signed.
    """
    normal, shift, slope, floor = hull
    c = _HULL.dot(YF.dot(normal)).tolist()
    margin = slope * size + floor
    # fl(x + shift) is monotone in x, so these are the extreme coefficients.
    if min(c) + shift > margin:
        return 1
    if max(c) + shift < -margin:
        return -1
    return 0


def _samples(fn, dense, grid: np.ndarray, f0: float, states: np.ndarray):
    """fn on one step's grid (f0 at grid[0], states at the rest) and on the
    interior critical points of its fit: the merged, sorted times and values."""
    f = np.array([f0] + [float(fn(s)) for s in states])
    tau = _critical_points(f)
    if tau.size == 0:
        return grid, f
    extra = grid[0] + (grid[-1] - grid[0]) * tau
    t = np.concatenate([grid, extra])
    f = np.concatenate([f, [float(fn(s)) for s in dense(extra).T]])
    order = np.argsort(t, kind="stable")
    return t[order], f[order]


def _brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A zero of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4) as scipy's `brentq` runs it: the same iterates, bit for
    bit, stopping when the bracket is below xtol + rtol * |x|. Raises
    ValueError on a NaN value or a bracket without a sign change, and
    RuntimeError after 100 iterations, scipy's default budget.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # An underflowed den gives inf or NaN in C, and a bisection.
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den
                        if den else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def _root(fn, dense, t_lo: float, t_hi: float, f_hi: float) -> float:
    """Time in [t_lo, t_hi] at which fn vanishes along the dense output."""
    if f_hi == 0.0:
        return float(t_hi)
    return _brent(lambda t: fn(dense(t)), t_lo, t_hi, xtol=1e-14, rtol=8.9e-16)


def _flow(spec: HybridSystemSpec, start, t_start: float, t_max: float,
          tol: float, watch=None, record=None):
    """Step DOP853 from `start` and stop at the first wanted crossing.

    The step is scipy's DOP853 inlined: its tableau, initial step, error
    norm and step-size controller at rtol = atol = tol, and its dense output
    built from 3 extra stages (the parts held in `_dop853`). Its products
    are `ndarray.dot`, the C routine `np.dot` dispatches to, so it takes
    the same steps, to the bit, as `scipy.integrate.DOP853`, which the
    tests use as its oracle. It calls spec.vector_field directly and writes
    each result into a row of its stage array; a field whose first result
    is not n values raises ValueError.

    The flow stops at the first step that holds a wanted guard crossing or,
    with watch = (normal, anchor, direction, t_min), a wanted sign change of
    normal . (s - anchor) on a sample pair starting at or after t_min. An
    affine event (the watch, and a guard with spec.guard_gradient) is first
    tested on each step by its Bernstein enclosure (`_side`), one product
    with the step's dense rows F: a step on which it provably keeps the
    sign of its last sample is not sampled, and the event is not called
    there. Every other step, and every step of an undeclared guard, is
    sampled at _SUBSTEPS + 1 points of its dense output; where the degree-7
    fit to an event's samples may vanish on the step, the event is also
    sampled at the fit's interior critical points (`_critical_points`). A
    pair of crossings inside one step is then still seen: for an affine
    event this holds whatever the step length, for an undeclared nonlinear
    guard it is a heuristic. Skipping changes no sample, crossing or event
    time, only which samples are taken. Returns (Segment, ImpactEvent or
    None, watch hit as (time, state) or None); a watch hit later than the
    impact in the same step is dropped. When `record` is a list, each
    accepted step appends (t_old, h, y_old, K) to it, K a copy of the step's
    16 stage derivatives (rows as in `_dop853.A_FULL`); the flow itself is
    unchanged.
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
    K = np.empty((_dop853.N_STAGES_EXTENDED, y.size))
    f0 = np.asarray(field(y), dtype=float)
    if f0.shape != y.shape:
        raise ValueError(f"vector_field must return {y.size} values, "
                         f"got shape {f0.shape}")
    K[0] = f0
    h_abs = _dop853.select_initial_step(
        lambda x: np.asarray(field(x), dtype=float), t, y, t_max, K[0],
        rtol, tol)
    stages = [(s, K[:s].T, a[:s]) for s, a in enumerate(_dop853.A[1:], start=1)]
    extras = [(s, K[:s].T, a[:s])
              for s, a in enumerate(_dop853.A_EXTRA, start=_STAGES + 1)]
    k_step, k_err = K[:_STAGES].T, K[:_STAGES + 1].T

    ts, ys, steps = [t], [y], []
    # g_prev (w_prev) is the guard (watch) at the last sample of the previous
    # step, or None when that step was skipped; g_side (w_side) is its sign.
    g_prev = float(spec.guard(y))
    g_side = (g_prev > 0.0) - (g_prev < 0.0)
    # A segment that starts on the guard (post-reset case) skips its leading
    # on-guard samples so the departure is not mistaken for a crossing.
    on_guard = abs(g_prev) <= spec.event_tol
    g_hull = w_hull = None
    grad = spec.guard_gradient
    if grad is not None:
        if grad.shape != y.shape:
            raise ValueError(f"guard_gradient must have {y.size} entries, "
                             f"got shape {grad.shape}")
        shift = g_prev - float(grad.dot(y))
        g_hull = _affine(grad, shift, math.sqrt(grad.dot(grad) * y.dot(y))
                         + abs(shift), y.size)
    if watch is not None:
        normal, anchor, w_direction, t_min = watch

        def fn(z):
            return float(normal.dot(z - anchor))

        w_prev = fn(y)
        w_side = (w_prev > 0.0) - (w_prev < 0.0)
        w_hull = _affine(normal, -float(normal.dot(anchor)),
                         math.sqrt(normal.dot(normal) * anchor.dot(anchor)),
                         y.size)
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
                K[s] = field(y + k.dot(a) * h)
            y_new = y + h * k_step.dot(_dop853.B)
            K[_STAGES] = field(y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = k_err.dot(_dop853.E5) / scale
            err3 = k_err.dot(_dop853.E3) / scale
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
            K[s] = field(y + k.dot(a) * h)
        # y_old over the dense rows, for `_side`'s one product per event.
        YF = np.empty((_POWER + 1, y.size))
        YF[0] = y
        F = YF[1:]
        delta = y_new - y
        F[0] = delta
        F[1] = h * K[0] - delta
        F[2] = 2 * delta - h * (K[_STAGES] + K[0])
        F[3:] = h * _dop853.D.dot(K)
        if record is not None:
            record.append((t, h, y, K.copy()))
        K[0] = K[_STAGES]
        step = DenseStep(t, t_new, y, F)
        steps.append(step)
        y_old = y
        t_old, t, y = t, t_new, y_new
        ts.append(t)
        ys.append(y)

        if g_hull is not None or w_hull is not None:
            f = YF.ravel()
            size = _SQRT_ROWS * math.sqrt(f.dot(f))
        scan_guard = (on_guard or g_hull is None or not g_side
                      or _side(g_hull, YF, size) != g_side)
        scan_watch = (w_hull is not None
                      and (not w_side or _side(w_hull, YF, size) != w_side))
        if not scan_guard:
            g_prev = None
        if not scan_watch:
            w_prev = None
        if not (scan_guard or scan_watch):
            continue
        states = y_old + _BASIS.dot(F)
        grid = t_old + h * _TAU
        grid[-1] = t
        i = j = None
        if scan_guard:
            # A skipped step's last sample is y_old + F[0] (_BASIS's x = 1 row).
            if g_prev is None:
                g_prev = float(spec.guard(steps[-2].y_old + steps[-2].F[0]))
            tg, g = _samples(spec.guard, step, grid, g_prev, states)
            g_prev = float(g[-1])
            g_side = (g_prev > 0.0) - (g_prev < 0.0)
            first = 0
            if on_guard:
                off = np.flatnonzero(np.abs(g) > spec.event_tol)
                on_guard = off.size == 0
                first = g.size if on_guard else int(off[0])
            i = _first_crossing(spec.guard_direction, g, first)
        if scan_watch:
            if w_prev is None:
                w_prev = fn(steps[-2].y_old + steps[-2].F[0])
            tw, w = _samples(fn, step, grid, w_prev, states)
            w_prev = float(w[-1])
            w_side = (w_prev > 0.0) - (w_prev < 0.0)
            j = _first_crossing(w_direction, w, int(np.searchsorted(tw, t_min)))
        if i is None and j is None:
            continue

        dense = DenseOutput(ts, steps)
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
    dense = DenseOutput(t_grid, steps[:t_grid.size - 1])
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


def apply_reset(spec: HybridSystemSpec, pre_state):
    """Evaluate the reset map once and check its post state.

    This is the one place a reset is evaluated. A pre state with
    |guard| > spec.event_tol raises ValueError. A post state within
    spec.event_tol of the pre state and on the guard raises ZenoError: the
    trajectory is stuck on the guard and would re-trigger at once. For a
    rising guard, a post state at or beyond the guard must satisfy
    d(guard)/dt <= 0 (and symmetrically for falling guards), or
    AdmissibilityError is raised. States reset strictly inside the domain
    are admissible regardless of velocity: the flow may legitimately
    approach the guard again.
    """
    pre = as_state(pre_state)
    residual = abs(float(spec.guard(pre)))
    if not residual <= spec.event_tol:
        raise ValueError(
            f"pre-impact state is not on the guard (residual {residual:.3e})")
    post = as_state(spec.reset(pre))

    g_post = float(spec.guard(post))
    if (np.max(np.abs(post - pre)) <= spec.event_tol
            and abs(g_post) <= spec.event_tol):
        raise ZenoError(
            "reset returned the pre-impact state: the trajectory is stuck "
            "on the guard and would re-trigger immediately")
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

    Each impact evaluates the reset once, through apply_reset. Raises
    ZenoError when two impacts arrive closer than MIN_INTER_IMPACT, or from
    apply_reset when a reset returns the pre-impact state (stuck on the
    guard).
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
        if event.time - t < MIN_INTER_IMPACT and impacts:
            raise ZenoError(
                f"impacts at {impacts[-1].time:.9g} and {event.time:.9g} are closer "
                f"than MIN_INTER_IMPACT={MIN_INTER_IMPACT:g}")
        state = apply_reset(spec, event.pre_state)
        event = replace(event, post_state=state)
        impacts.append(event)
        t = event.time
    return HybridTrajectory(segments=tuple(segments), impacts=tuple(impacts),
                            t0=t0, tf=tf)
