"""Poincare sections, return maps, and spectral stability checks.

The section is a co-dimension-one hyperplane through the orbit's symmetry
fixed point; the return map runs one full hybrid cycle (flow, reset, flow)
and projects back to chart coordinates. Its Jacobian comes from internal
numerical differentiation (Bock, 1981): the state is flowed once, and the
sensitivity is carried through the stages of the state's own accepted
DOP853 steps with no error control of its own, so it is the derivative of
the computed flow with its step sizes frozen. On the last step of each leg
it is the derivative of the dense output at the stop. The impact
multiplies the sensitivity by its saltation matrix, and the return is
projected along the flow onto the section. The eigenvalues are checked
against the reset-rank and symmetry lower bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _dop853, _fd
from .hybrid import (
    DEFAULT_TOL,
    RISING,
    TANGENT_TOL,
    _DIRECTIONS,
    HybridSystemSpec,
    TangentialCrossingError,
    as_state,
    _flow,
    apply_reset,
    integrate_segment,
)

TOL_LAMBDA0 = 1e-4
TOL_LAMBDA1 = 1e-4
RANK_RTOL = 1e-8
EIGEN_RESIDUAL_RTOL = 1e-8  # sigma_min(A - lambda I), relative to ||A||_2
CHART_TOL = 1e-10  # orthonormality of a section chart and its normal defect
DEPARTURE_SKIP = 1e-9  # s after the impact before a section crossing counts

# The DOP853 tableau with the step's end and extra stages (Hairer, Norsett &
# Wanner, Solving ODEs I, Sec. II.5-II.6); rows 0.._STAGES - 1 make a step.
_TABLEAU = _dop853.A_FULL
_STAGES = _dop853.N_STAGES

ASYMPTOTICALLY_STABLE = "asymptotically_stable"
MARGINALLY_STABLE = "marginally_stable"
UNSTABLE = "unstable"
DEGENERATE = "degenerate"


class NoReturnError(RuntimeError):
    """The flow never returned to the section within the allotted horizon."""


@dataclass(frozen=True)
class PoincareSection:
    anchor: np.ndarray
    normal: np.ndarray           # unit vector
    chart: np.ndarray            # (dim, dim-1) orthonormal columns, all _|_ normal
    crossing_direction: str = RISING

    def __post_init__(self):
        if self.crossing_direction not in _DIRECTIONS:
            raise ValueError(f"crossing_direction must be one of {_DIRECTIONS}")

    def to_chart(self, state) -> np.ndarray:
        s = as_state(state)
        return self.chart.T @ (s - self.anchor)

    def lift(self, p) -> np.ndarray:
        return self.anchor + self.chart @ np.asarray(p, dtype=float)

    def offset(self, state) -> float:
        return float(self.normal @ (as_state(state) - self.anchor))


def make_section(anchor, normal, chart: Optional[np.ndarray] = None,
                 crossing_direction: str = RISING) -> PoincareSection:
    """Assemble a section; the chart defaults to an orthonormal complement."""
    a = as_state(anchor)
    n = np.asarray(normal, dtype=float)
    if not (np.all(np.isfinite(n)) and np.any(n != 0.0)):
        raise ValueError("section normal must be finite and nonzero")
    n = n / np.linalg.norm(n)
    if chart is None:
        # Null space of n^T via full SVD.
        _, _, vt = np.linalg.svd(n[None, :])
        chart = vt[1:].T
    chart = np.asarray(chart, dtype=float)
    if chart.shape != (a.size, a.size - 1):
        raise ValueError(f"chart must be {a.size}x{a.size - 1}")
    if np.max(np.abs(chart.T @ chart - np.eye(a.size - 1))) > CHART_TOL:
        raise ValueError("chart columns must be orthonormal")
    if np.max(np.abs(chart.T @ n)) > CHART_TOL:
        raise ValueError("chart columns must be orthogonal to the normal")
    return PoincareSection(anchor=a, normal=n, chart=chart,
                           crossing_direction=crossing_direction)


def transversal_section(field, anchor) -> PoincareSection:
    """Default section: the hyperplane orthogonal to the flow at the anchor."""
    a = as_state(anchor)
    x = np.asarray(field(a), dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("flow vanishes at the anchor; no transversal hyperplane")
    return make_section(a, x / norm)


def time_to_impact(spec: HybridSystemSpec, state, t_max: float,
                   tol: float = DEFAULT_TOL) -> float:
    """First positive time at which the flow from `state` reaches the guard."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    _, event = integrate_segment(spec, state, 0.0, t_max, tol=tol)
    return math.inf if event is None else event.time


def _cycle(spec: HybridSystemSpec, section: PoincareSection, start,
           t_max: float, tol: float, legs=None):
    """Flow to the guard, reset, and flow on to the section; the hit state.

    A section crossing before the impact does not count. A flow that does
    not reach the guard within t_max, or that reaches it a second time
    before the section, raises NoReturnError. When `legs` is a list, the
    two smooth legs are appended to it: (steps, t_impact, pre, post) for
    the flow to the guard and (steps, t_hit) for the flow to the section,
    steps being `_flow`'s record of the leg's steps.
    """
    first = None if legs is None else []
    _, event, _ = _flow(spec, start, 0.0, t_max, tol, None, first)
    if event is None:
        raise NoReturnError(f"no impact within t_max={t_max:g}")
    t = event.time
    post = apply_reset(spec, event.pre_state)
    # A reset state on the section departs from it; that is no return.
    watch = (section.normal, section.anchor, section.crossing_direction,
             t + DEPARTURE_SKIP)
    second = None if legs is None else []
    _, again, hit = _flow(spec, post, t, t + t_max, tol, watch, second)
    if hit is None:
        raise NoReturnError(
            f"no section return within t_max={t_max:g} after the impact"
            if again is None else
            f"a second impact at t={again.time:.9g} came before the section")
    if legs is not None:
        legs += [(first, t, event.pre_state, post), (second, hit[0])]
    return hit[1]


def return_map(
    spec: HybridSystemSpec,
    section: PoincareSection,
    chart_point,
    t_max: float = 20.0,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """One hybrid cycle from a chart point back to the section.

    The map is the flow -> reset -> flow composition of one stance cycle:
    a section crossing counts only after the one impact, and a second
    impact before it raises NoReturnError.
    """
    return section.to_chart(
        _cycle(spec, section, section.lift(chart_point), t_max, tol))


def _transition(dfield, steps, t_stop: float) -> np.ndarray:
    """Derivative of one leg's computed flow, from its start to t_stop.

    `steps` is `_flow`'s record of the leg and t_stop lies on its last step.
    With the step sizes frozen, each stage derivative K_s = f(Y_s),
    Y_s = y + h sum_j a_sj K_j, has the derivative
    G_s = Df(Y_s) (I + h sum_j a_sj G_j), and a step's is I + h sum_s b_s G_s.
    The last step contributes the derivative of its dense output at t_stop,
    whose rows are built as `_flow` builds F, from G at the step's end and
    at the 3 extra stages. The stage states Y_s do not depend on G, so Df
    is taken in one call, `dfield` on the (_STAGES * S + 4, n) stack of every
    stage state of the S steps and the last step's end and extra stages.
    """
    S = len(steps)
    n = steps[0][2].size
    eye = np.eye(n)
    t_old, h, y, K = (np.array(c) for c in zip(*steps))
    hh = h[:, None, None]
    # Stage-major: Y[s, k] is stage s of step k.
    Y = y + h[:, None] * np.einsum("sj,kjn->skn", _TABLEAU[:_STAGES], K)
    # The last step's end (row _STAGES, whose coefficients are B) and extra
    # stages, for its dense output.
    hl, yl, Kl = h[-1], y[-1], K[-1]
    extra = [yl + hl * (_TABLEAU[s, :s] @ Kl[:s])
             for s in range(_STAGES, _dop853.N_STAGES_EXTENDED)]
    J = np.asarray(dfield(np.concatenate([Y.reshape(-1, n), extra])),
                   dtype=float)
    J, J_extra = J[:_STAGES * S].reshape(_STAGES, S, n, n), J[_STAGES * S:]
    G = np.empty((_dop853.N_STAGES_EXTENDED, S, n, n))
    G[0] = J[0]
    for s in range(1, _STAGES):
        inner = (_TABLEAU[s, :s] @ G[:s].reshape(s, -1)).reshape(S, n, n)
        G[s] = J[s] @ (eye + hh * inner)
    M = eye + hh * (_dop853.B @ G[:_STAGES].reshape(_STAGES, -1)).reshape(S, n, n)

    Gl = G[:, -1]
    for s, Js in enumerate(J_extra, start=_STAGES):
        Gl[s] = Js @ (eye + hl * np.tensordot(_TABLEAU[s, :s], Gl[:s], 1))
    dF = np.empty((_dop853.INTERPOLATOR_POWER, n, n))
    dF[0] = M[-1] - eye
    dF[1] = hl * Gl[0] - dF[0]
    dF[2] = 2 * dF[0] - hl * (Gl[_STAGES] + Gl[0])
    dF[3:] = hl * np.tensordot(_dop853.D, Gl, 1)
    phi = _dop853._horner(np.zeros((n, n)), dF, eye, (t_stop - t_old[-1]) / hl)
    for m in M[-2::-1]:
        phi = phi @ m
    return phi


def _saltation(spec: HybridSystemSpec, pre, post) -> np.ndarray:
    """Linearized impact: DR + (f+ - DR f-) grad(g)^T / (grad(g) . f-).

    Maps a perturbation just before the impact at `pre` to one just after
    it at `post`, accounting for the shift of the impact time.
    """
    dR = reset_jacobian(spec, pre)
    grad = _fd.gradient(spec.guard, pre)
    f_pre = np.asarray(spec.vector_field(pre), dtype=float)
    f_post = np.asarray(spec.vector_field(post), dtype=float)
    return dR + np.outer(f_post - dR @ f_pre, grad) / float(grad @ f_pre)


def jacobian(
    spec: HybridSystemSpec,
    section: PoincareSection,
    t_max: float = 20.0,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Jacobian of the computed return map at the anchor, in chart coordinates.

    Internal numerical differentiation (Bock, 1981): the state is flowed
    once, as `return_map` flows it, and the sensitivity Phi is carried
    through the stages of the state's own accepted DOP853 steps with no
    error control of its own (`_transition`); on each leg's last step it is
    the derivative of the dense output at the stop. With T1 and T2 the two
    legs' derivatives and Xi the impact's saltation matrix, Phi = T2 (Xi T1)
    is projected along the flow onto the section at the return:
    chart^T (I - f n^T / (n . f)) Phi chart. The field's derivative is
    spec.vector_field_jacobian, or central differences when that is unset,
    taken once per leg on the stack of its stage states.
    """
    n = section.anchor.size
    field = spec.vector_field
    dfield = spec.vector_field_jacobian or (
        lambda xs: np.array([_fd.jacobian(field, x) for x in xs]))
    legs = []
    try:
        x = _cycle(spec, section, section.anchor, t_max, tol, legs)
        f = np.asarray(field(x), dtype=float)
        rate = float(section.normal @ f)
        if abs(rate) < TANGENT_TOL:
            raise TangentialCrossingError(
                f"flow crosses the section tangentially: n . f = {rate:.3e}")
    except (NoReturnError, TangentialCrossingError) as exc:
        raise RuntimeError(f"return map not differentiable at the anchor: "
                           f"{exc}") from exc
    (steps1, t_impact, pre, post), (steps2, t_hit) = legs
    t1 = _transition(dfield, steps1, t_impact)
    xi = _saltation(spec, pre, post)
    phi = _transition(dfield, steps2, t_hit) @ (xi @ t1)
    project = np.eye(n) - np.outer(f, section.normal) / rate
    return section.chart.T @ project @ phi @ section.chart


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues with multiplicity, residual-checked.

    Balanced Hessenberg reduction plus shifted QR (LAPACK) under the hood;
    each eigenvalue is certified by the smallest singular value of
    (A - lambda I).
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.shape[0] > 8:
        raise ValueError("eigenvalue solver is limited to dimension <= 8")
    vals = np.linalg.eigvals(A)
    scale = max(np.linalg.norm(A, 2), 1e-300)
    for lam in vals:
        smin = np.linalg.svd(A - lam * np.eye(A.shape[0], dtype=complex),
                             compute_uv=False)[-1]
        if smin > EIGEN_RESIDUAL_RTOL * scale:
            raise RuntimeError(
                f"eigenvalue residual check failed for {lam}: "
                f"sigma_min={smin:.3e} > {EIGEN_RESIDUAL_RTOL * scale:.3e}")
    order = np.argsort(-np.abs(vals), kind="stable")
    return vals[order]


def numerical_rank(matrix) -> int:
    """Rank by singular values above RANK_RTOL times the largest."""
    svals = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_RTOL * svals[0]))


def reset_jacobian(spec: HybridSystemSpec, state) -> np.ndarray:
    """Central finite-difference Jacobian of the reset map at a guard state."""
    return _fd.jacobian(lambda s: as_state(spec.reset(s)), as_state(state))


@dataclass(frozen=True)
class StabilityReport:
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    lambda0_count: int
    lambda1_count: int
    lambda0_bound_ok: bool
    lambda1_bound_ok: bool
    classification: str


def _spectral_counts(moduli, r: int, beta: int, n_minus_1: int):
    """(Lambda_0, Lambda_1, Lambda_0 bound ok, Lambda_1 bound ok)."""
    lam0 = int(np.sum(moduli <= TOL_LAMBDA0))
    lam1 = int(np.sum(np.abs(moduli - 1.0) <= TOL_LAMBDA1))
    return lam0, lam1, lam0 >= max(0, n_minus_1 - beta), lam1 >= max(0, r)


def check_spectral_bounds(eigvals, r: int, beta: int, n_minus_1: int):
    """Lower bounds: at least (n-1-beta) zero eigenvalues and r unit ones."""
    return _spectral_counts(np.abs(np.asarray(eigvals)), r, beta, n_minus_1)[2:]


def stability_report(jac, r: int, beta: int, n_minus_1: int) -> StabilityReport:
    """Assemble eigenvalues, Lambda counts, bound flags and a classification."""
    jac = np.asarray(jac, dtype=float)
    vals = eigenvalues(jac)
    moduli = np.abs(vals)
    lam0, lam1, ok0, ok1 = _spectral_counts(moduli, r, beta, n_minus_1)

    non_unit = moduli[np.abs(moduli - 1.0) > TOL_LAMBDA1]
    if np.all(moduli < 1.0 - 10.0 * TOL_LAMBDA1):
        cls = ASYMPTOTICALLY_STABLE
    elif np.any(moduli > 1.0 + TOL_LAMBDA1):
        cls = UNSTABLE
    elif lam1 == r and (non_unit.size == 0
                        or np.all(non_unit < 1.0 - 10.0 * TOL_LAMBDA1)):
        cls = MARGINALLY_STABLE
    else:
        cls = DEGENERATE
    return StabilityReport(jacobian=jac, eigenvalues=vals,
                           lambda0_count=lam0, lambda1_count=lam1,
                           lambda0_bound_ok=ok0, lambda1_bound_ok=ok1,
                           classification=cls)
