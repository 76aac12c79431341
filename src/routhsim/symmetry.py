"""Time-reversal symmetries and the periodic orbits they generate.

A configuration involution F lifts to the tangent-space involution
Phi(q, v) = (F(q), -dF(q) v). Fixed points of Phi seed orbits that close
after twice the time-to-impact when the reset agrees with Phi on the guard.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _fd
from .hybrid import (
    HybridSystemSpec,
    HybridTrajectory,
    NoImpactError,
    apply_reset,
    as_state,
    integrate_segment,
)

INVOLUTION_TOL = 1e-10   # sup-norm of phi(phi(s)) - s
FIXED_POINT_TOL = 1e-9   # sup-norm of phi(s) - s at a seed
RESET_MATCH_TOL = 1e-9   # sup-norm of reset - phi at the impact state
CLOSURE_TOL = 1e-6       # closure residual, relative to max(1, amplitude)
NEWTON_TOL = 1e-12       # sup-norm of F(q) - q after refinement
NEWTON_MAX_ITER = 50
EIG_MARGIN = 0.1  # required separation of dF eigenvalues from the +-1 ambiguity


class ClosureError(RuntimeError):
    """A constructed orbit failed to close within tolerance."""


class ResetMismatchError(RuntimeError):
    """The hybrid reset disagrees with the symmetry at the detected impact."""


@dataclass(frozen=True)
class ReversalSymmetry:
    """A smooth involution F on configuration space and its tangent lift."""

    F: Callable[[np.ndarray], np.ndarray]
    dF: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def config_jacobian(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.dF is not None:
            return np.asarray(self.dF(q), dtype=float)
        return _fd.jacobian(self.F, q)

    def phi(self, state) -> np.ndarray:
        """The lifted involution on (q, v)."""
        s = as_state(state)
        d = s.size // 2
        q, v = s[:d], s[d:]
        J = self.config_jacobian(q)
        return np.concatenate([np.asarray(self.F(q), dtype=float), -J @ v])

    def dphi(self, state) -> np.ndarray:
        """Jacobian of phi: [[dF, 0], [-d(dF v)/dq, -dF]].

        The velocity-block derivative is taken by finite differences of dF;
        it vanishes identically for linear F.
        """
        s = as_state(state)
        d = s.size // 2
        q, v = s[:d], s[d:]
        J = self.config_jacobian(q)
        B = _fd.jacobian(lambda z: -(self.config_jacobian(z) @ v), q)
        top = np.hstack([J, np.zeros((d, d))])
        bottom = np.hstack([B, -J])
        return np.vstack([top, bottom])


def involution_residual(sym: ReversalSymmetry, state) -> float:
    s = as_state(state)
    return float(np.max(np.abs(sym.phi(sym.phi(s)) - s)))


def reversibility_residual(sym: ReversalSymmetry, field, state) -> float:
    """Sup-norm defect of X(phi(s)) = -dphi(s) X(s)."""
    s = as_state(state)
    lhs = np.asarray(field(sym.phi(s)), dtype=float)
    rhs = sym.dphi(s) @ np.asarray(field(s), dtype=float)
    return float(np.max(np.abs(lhs + rhs)))


def is_fixed_point(sym: ReversalSymmetry, state) -> bool:
    s = as_state(state)
    return float(np.max(np.abs(sym.phi(s) - s))) <= FIXED_POINT_TOL


@dataclass(frozen=True)
class FixedPointManifold:
    """Local description of Fix(phi): refined anchor, dimension, tangent basis."""

    q: np.ndarray
    dim: int
    basis: np.ndarray  # state-space columns, orthonormal


def fixed_point_manifold(sym: ReversalSymmetry, q_seed) -> FixedPointManifold:
    """Dimension and tangent basis of the fixed-point set near q_seed.

    Position directions span the kernel of (dF - I); velocity directions the
    eigenspace of dF at -1. Gauss-Newton refines q_seed onto F(q) = q first.
    """
    q = np.asarray(q_seed, dtype=float).copy()
    for _ in range(NEWTON_MAX_ITER):
        res = np.asarray(sym.F(q), dtype=float) - q
        if np.max(np.abs(res)) <= NEWTON_TOL:
            break
        J = sym.config_jacobian(q) - np.eye(q.size)
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        q = q + step
    else:
        raise RuntimeError("Newton refinement of F(q) = q did not converge")

    J = sym.config_jacobian(q)
    eigvals, eigvecs = np.linalg.eig(J)
    pos_dirs, vel_dirs = [], []
    for lam, vec in zip(eigvals, eigvecs.T):
        near_plus = abs(lam - 1.0) <= EIG_MARGIN
        near_minus = abs(lam + 1.0) <= EIG_MARGIN
        if not (near_plus or near_minus):
            raise RuntimeError(
                f"dF eigenvalue {lam} is not separated from +-1 by {EIG_MARGIN}; "
                "fixed-point classification is ambiguous")
        vec = np.real_if_close(vec)
        if near_plus:
            pos_dirs.append(np.real(vec))
        else:
            vel_dirs.append(np.real(vec))

    d = q.size
    cols = []
    for v in pos_dirs:
        cols.append(np.concatenate([v, np.zeros(d)]))
    for v in vel_dirs:
        cols.append(np.concatenate([np.zeros(d), v]))
    if cols:
        basis, _ = np.linalg.qr(np.column_stack(cols))
    else:
        basis = np.zeros((2 * d, 0))
    return FixedPointManifold(q=q, dim=basis.shape[1], basis=basis)


@dataclass(frozen=True)
class PeriodicOrbit:
    seed: np.ndarray
    half_period: float
    trajectory: HybridTrajectory
    closure_residual: float
    time_symmetry_residual: float


def construct_periodic_orbit(spec: HybridSystemSpec, sym: ReversalSymmetry,
                             seed, t_max: float,
                             tol: float = 1e-10) -> PeriodicOrbit:
    """Build the symmetric periodic orbit through a fixed point of phi.

    Flows from the seed to the first impact at t1, applies the reset (which
    must coincide with phi at the impact state) and flows a further t1; both
    halves go through the hybrid engine, so a guard crossing before 2*t1
    raises ClosureError. Certifies the closure residual and the time
    symmetry phi(gamma(t)) = gamma(2*t1 - t): time_symmetry_residual is its
    largest defect over the first half's knots, read against the second
    half's dense output. At t = 0 that defect is the closure, and at t = t1
    the reset mismatch.
    """
    s0 = as_state(seed)
    if not is_fixed_point(sym, s0):
        raise ValueError("seed is not a fixed point of the reversal symmetry")

    seg1, event = integrate_segment(spec, s0, 0.0, t_max, tol=tol)
    if event is None:
        raise NoImpactError(f"no guard crossing within t_max={t_max:g}")
    t1 = event.time
    phi_pre = sym.phi(event.pre_state)
    reset_pre = as_state(spec.reset(event.pre_state))
    mismatch = float(np.max(np.abs(phi_pre - reset_pre)))
    if mismatch > RESET_MATCH_TOL:
        raise ResetMismatchError(
            f"reset differs from the symmetry at the impact state by {mismatch:.3e}")
    post = apply_reset(spec, event.pre_state, event.guard_residual)
    event = type(event)(event.time, event.pre_state, post, event.guard_residual)

    seg2, crossing = integrate_segment(spec, post, t1, 2.0 * t1, tol=tol)
    if crossing is not None:
        raise ClosureError(
            f"second half crosses the guard at t={crossing.time:.9g}, "
            f"before 2*t1={2.0 * t1:.9g}")

    amplitude = max(1.0, float(np.max(np.abs(seg1.y))))
    closure = float(np.linalg.norm(seg2.y[-1] - s0))
    if closure > CLOSURE_TOL * amplitude:
        raise ClosureError(
            f"orbit closure residual {closure:.3e} exceeds "
            f"{CLOSURE_TOL * amplitude:.3e}")

    mirrored = seg2.dense(2.0 * t1 - seg1.t).T
    sym_res = float(max(np.max(np.abs(sym.phi(yk) - gk))
                        for yk, gk in zip(seg1.y, mirrored)))

    traj = HybridTrajectory(segments=(seg1, seg2), impacts=(event,),
                            t0=0.0, tf=2.0 * t1)
    return PeriodicOrbit(seed=s0, half_period=t1, trajectory=traj,
                         closure_residual=closure,
                         time_symmetry_residual=sym_res)
