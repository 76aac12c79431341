"""Poincare sections, return maps, and spectral stability checks.

The section is a co-dimension-one hyperplane through the orbit's symmetry
fixed point; the return map runs one full hybrid cycle (flow, reset, flow)
and projects back to chart coordinates. Its Jacobian is exact up to the
integration tolerance: the variational equations are flowed alongside the
state, each impact multiplies the sensitivity by its saltation matrix, and
the return is projected along the flow onto the section. Its eigenvalues are
checked against the reset-rank and symmetry lower bounds.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _fd
from .hybrid import (
    RISING,
    TANGENT_TOL,
    HybridSystemSpec,
    NoImpactError,
    TangentialCrossingError,
    as_state,
    _flow,
    apply_reset,
    integrate_segment,
)

MAX_CYCLES = 4  # hybrid cycles a return may take
TOL_LAMBDA0 = 1e-4
TOL_LAMBDA1 = 1e-4
RANK_RTOL = 1e-8

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
    n = n / np.linalg.norm(n)
    if chart is None:
        # Null space of n^T via full SVD.
        _, _, vt = np.linalg.svd(n[None, :])
        chart = vt[1:].T
    chart = np.asarray(chart, dtype=float)
    if chart.shape != (a.size, a.size - 1):
        raise ValueError(f"chart must be {a.size}x{a.size - 1}")
    if np.max(np.abs(chart.T @ chart - np.eye(a.size - 1))) > 1e-10:
        raise ValueError("chart columns must be orthonormal")
    if np.max(np.abs(chart.T @ n)) > 1e-10:
        raise ValueError("chart columns must be orthogonal to the normal")
    return PoincareSection(anchor=a, normal=n, chart=chart,
                           crossing_direction=crossing_direction)


def transversal_section(field, anchor,
                        crossing_direction: str = RISING) -> PoincareSection:
    """Default section: the hyperplane orthogonal to the flow at the anchor."""
    a = as_state(anchor)
    x = np.asarray(field(a), dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("flow vanishes at the anchor; no transversal hyperplane")
    return make_section(a, x / norm, crossing_direction=crossing_direction)


def time_to_impact(spec: HybridSystemSpec, state, t_max: float,
                   tol: float = 1e-10) -> float:
    """First positive time at which the flow from `state` reaches the guard."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    _, event = integrate_segment(spec, state, 0.0, t_max, tol=tol)
    return math.inf if event is None else event.time


def _cycle(spec: HybridSystemSpec, section: PoincareSection, start, reset,
           t_max: float, tol: float, require_impact: bool, max_cycles: int):
    """Flow and reset from `start` until the section is crossed; the hit state.

    The section is read from the first section.anchor.size entries of the
    flowed state, and reset(event) gives the state that resumes the flow
    after each impact. With require_impact a crossing only counts after at
    least one reset has fired.
    """
    n = section.anchor.size

    def offset(z):
        return section.offset(z[:n])

    state = start
    t = 0.0
    for impacts in range(max_cycles + 1):
        watch = None
        if impacts > 0 or not require_impact:
            # Ignore the immediate departure from the section itself.
            watch = (offset, section.crossing_direction, t + 1e-9)
        _, event, hit = _flow(spec, state, t, t + t_max, tol, watch)
        if hit is not None:
            return hit[1]
        if event is None:
            raise NoReturnError(
                f"no section return within t_max={t_max:g} "
                f"after {impacts} impact(s)")
        state = reset(event)
        t = event.time
    raise NoReturnError(f"no section return within {max_cycles} hybrid cycles")


def return_map(
    spec: HybridSystemSpec,
    section: PoincareSection,
    chart_point,
    t_max: float = 20.0,
    tol: float = 1e-10,
    require_impact: bool = True,
    max_cycles: int = MAX_CYCLES,
) -> np.ndarray:
    """One full hybrid cycle from a chart point back to the section.

    By default a crossing only counts after at least one reset has fired, so
    the map is the flow -> reset -> flow composition of one stance cycle.
    """
    def reset(event):
        return apply_reset(spec, event.pre_state, event.guard_residual)

    hit = _cycle(spec, section, section.lift(chart_point), reset, t_max, tol,
                 require_impact, max_cycles)
    return section.to_chart(hit)


def _variational_spec(spec: HybridSystemSpec, n: int) -> HybridSystemSpec:
    """The flow of (x, Phi), Phi the n x n sensitivity, as one flat state.

    Its field is (f(x), Df(x) Phi); its guard reads x only.
    """
    field, guard = spec.vector_field, spec.guard
    dfield = spec.vector_field_jacobian or (lambda x: _fd.jacobian(field, x))

    def augmented(z):
        x = z[:n]
        return np.concatenate([field(x), (dfield(x) @ z[n:].reshape(n, n)).ravel()])

    return dataclasses.replace(spec, vector_field=augmented,
                               guard=lambda z: guard(z[:n]))


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
    tol: float = 1e-10,
    require_impact: bool = True,
) -> np.ndarray:
    """Exact Jacobian of the return map at the anchor, in chart coordinates.

    One flow of the state and its sensitivity matrix Phi (the variational
    equations), multiplied by the saltation matrix at each impact and
    projected along the flow onto the section at the return:
    chart^T (I - f n^T / (n . f)) Phi chart. The field's derivative is
    spec.vector_field_jacobian, or central differences when that is unset.
    """
    n = section.anchor.size

    def reset(event):
        pre = event.pre_state[:n]
        post = apply_reset(spec, pre, event.guard_residual)
        phi = event.pre_state[n:].reshape(n, n)
        return np.concatenate(
            [post, (_saltation(spec, pre, post) @ phi).ravel()])

    start = np.concatenate([section.anchor, np.eye(n).ravel()])
    try:
        hit = _cycle(_variational_spec(spec, n), section, start, reset, t_max,
                     tol, require_impact, MAX_CYCLES)
        x, phi = hit[:n], hit[n:].reshape(n, n)
        f = np.asarray(spec.vector_field(x), dtype=float)
        rate = float(section.normal @ f)
        if abs(rate) < TANGENT_TOL:
            raise TangentialCrossingError(
                f"flow crosses the section tangentially: n . f = {rate:.3e}")
    except (NoReturnError, NoImpactError, TangentialCrossingError) as exc:
        raise RuntimeError(f"return map not differentiable at the anchor: "
                           f"{exc}") from exc
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
        if smin > 1e-8 * scale:
            raise RuntimeError(
                f"eigenvalue residual check failed for {lam}: "
                f"sigma_min={smin:.3e} > {1e-8 * scale:.3e}")
    order = np.argsort(-np.abs(vals), kind="stable")
    return vals[order]


def numerical_rank(matrix, rel_tol: float = RANK_RTOL) -> int:
    """Rank by singular values above rel_tol times the largest."""
    svals = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rel_tol * svals[0]))


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


def check_spectral_bounds(eigvals, r: int, beta: int, n_minus_1: int,
                          tol0: float = TOL_LAMBDA0,
                          tol1: float = TOL_LAMBDA1):
    """Lower bounds: at least (n-1-beta) zero eigenvalues and r unit ones."""
    moduli = np.abs(np.asarray(eigvals))
    lam0 = int(np.sum(moduli <= tol0))
    lam1 = int(np.sum(np.abs(moduli - 1.0) <= tol1))
    return lam0 >= max(0, n_minus_1 - beta), lam1 >= max(0, r)


def stability_report(
    jac,
    r: int,
    beta: int,
    n_minus_1: int,
    tol0: float = TOL_LAMBDA0,
    tol1: float = TOL_LAMBDA1,
) -> StabilityReport:
    """Assemble eigenvalues, Lambda counts, bound flags and a classification."""
    jac = np.asarray(jac, dtype=float)
    vals = eigenvalues(jac)
    moduli = np.abs(vals)
    lam0 = int(np.sum(moduli <= tol0))
    lam1 = int(np.sum(np.abs(moduli - 1.0) <= tol1))
    ok0, ok1 = check_spectral_bounds(vals, r, beta, n_minus_1, tol0, tol1)

    non_unit = moduli[np.abs(moduli - 1.0) > tol1]
    if np.all(moduli < 1.0 - 10.0 * tol1):
        cls = ASYMPTOTICALLY_STABLE
    elif np.any(moduli > 1.0 + tol1):
        cls = UNSTABLE
    elif lam1 == r and (non_unit.size == 0 or np.all(non_unit < 1.0 - 10.0 * tol1)):
        cls = MARGINALLY_STABLE
    else:
        cls = DEGENERATE
    return StabilityReport(jacobian=jac, eigenvalues=vals,
                           lambda0_count=lam0, lambda1_count=lam1,
                           lambda0_bound_ok=ok0, lambda1_bound_ok=ok1,
                           classification=cls)
