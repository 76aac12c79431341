"""Time-reversal symmetries and the periodic orbits they generate.

A configuration involution F lifts to the tangent-space involution
Phi(q, v) = (F(q), -dF(q) v). Fixed points of Phi seed orbits that close
after twice the time-to-impact when the reset agrees with Phi on the guard.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import _fd
from .hybrid import (
    DEFAULT_TOL,
    HybridSystemSpec,
    HybridTrajectory,
    NoImpactError,
    apply_reset,
    as_state,
    integrate_segment,
)

INVOLUTION_TOL = 1e-10   # sup-norm of phi(phi(s)) - s
REVERSIBILITY_TOL = 1e-8  # sup-norm of X(phi(s)) + dphi(s) X(s)
ROUTHIAN_INVARIANCE_TOL = 1e-12  # |R(phi(s)) - R(s)|
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
    """A smooth involution F on configuration space and its tangent lift.

    Given by callables, F and optionally its Jacobian dF, or by a matrix:
    ReversalSymmetry(matrix=R) is the linear reflection F(q) = R q, whose
    F and dF it supplies. phi and dphi take one state (n,) or a stack (k, n)
    of them; a linear symmetry maps a stack with one product, a symmetry
    given by callables row by row.
    """

    F: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dF: Optional[Callable[[np.ndarray], np.ndarray]] = None
    matrix: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.matrix is None:
            if self.F is None:
                raise ValueError("a reversal symmetry needs F or matrix")
            return
        if self.F is not None or self.dF is not None:
            raise ValueError("a linear symmetry takes F and dF from its matrix")
        R = np.array(self.matrix, dtype=float)
        if R.ndim != 2 or R.shape[0] != R.shape[1] or not np.isfinite(R).all():
            raise ValueError(f"matrix must be a finite square matrix, got {R!r}")
        R.setflags(write=False)
        object.__setattr__(self, "matrix", R)
        object.__setattr__(self, "F", lambda q: np.asarray(q, dtype=float) @ R.T)
        object.__setattr__(self, "dF", lambda q: R)

    def config_jacobian(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.dF is not None:
            return np.asarray(self.dF(q), dtype=float)
        return _fd.jacobian(self.F, q)

    def _states(self, state) -> np.ndarray:
        """One state through as_state, or a finite (k, n) stack of them."""
        s = np.asarray(state, dtype=float)
        if s.ndim != 2:
            s = as_state(s)
        elif s.shape[1] == 0 or s.shape[1] % 2 or not np.isfinite(s).all():
            raise ValueError(f"states must be finite rows of even length, "
                             f"got shape {s.shape}")
        if self.matrix is not None and s.shape[-1] != 2 * self.matrix.shape[0]:
            raise ValueError(f"states of size {s.shape[-1]} do not fit the "
                             f"{self.matrix.shape[0]}-D configuration matrix")
        return s

    def phi(self, state) -> np.ndarray:
        """The lifted involution on (q, v), of one state or of each row."""
        s = self._states(state)
        d = s.shape[-1] // 2
        if self.matrix is not None:
            R = self.matrix
            return np.concatenate([s[..., :d] @ R.T, -(s[..., d:] @ R.T)], axis=-1)
        if s.ndim == 2:
            return np.array([self.phi(row) for row in s]).reshape(s.shape)
        q, v = s[:d], s[d:]
        image = np.asarray(self.F(q), dtype=float)
        J = self.config_jacobian(q)
        if image.shape != (d,) or J.shape != (d, d):
            raise ValueError(f"F and dF of a configuration of size {d} must have "
                             f"shapes ({d},) and ({d}, {d}), got {image.shape} "
                             f"and {J.shape}")
        return np.concatenate([image, -J @ v])

    def dphi(self, state) -> np.ndarray:
        """Jacobian of phi: [[dF, 0], [-d(dF v)/dq, -dF]], one (n, n) matrix
        per state.

        The velocity block d(dF v)/dq vanishes identically for a linear
        symmetry, whose Jacobian is the constant diag(R, -R); for one given
        by callables it is taken by central differences of dF.
        """
        s = self._states(state)
        n = s.shape[-1]
        d = n // 2
        if self.matrix is not None:
            R = self.matrix
            lift = np.zeros(s.shape[:-1] + (n, n))
            lift[..., :d, :d] = R
            lift[..., d:, d:] = -R
            return lift
        if s.ndim == 2:
            return np.array([self.dphi(row) for row in s]).reshape(s.shape + (n,))
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
                             tol: float = DEFAULT_TOL) -> PeriodicOrbit:
    """Build the symmetric periodic orbit through a fixed point of phi.

    Flows from the seed to the first impact at t1, applies the reset once
    through apply_reset (its post state must coincide with phi at the
    impact state) and flows a further t1; both halves go through the
    hybrid engine, so a guard crossing before 2*t1 raises ClosureError.
    Certifies the closure residual and the time symmetry
    phi(gamma(t)) = gamma(2*t1 - t): time_symmetry_residual is its largest
    defect over the first half's knots, read against the second half's
    dense output. At t = 0 that defect is the closure, and at t = t1 the
    reset mismatch.
    """
    s0 = as_state(seed)
    if not is_fixed_point(sym, s0):
        raise ValueError("seed is not a fixed point of the reversal symmetry")

    seg1, event = integrate_segment(spec, s0, 0.0, t_max, tol=tol)
    if event is None:
        raise NoImpactError(f"no guard crossing within t_max={t_max:g}")
    t1 = event.time
    post = apply_reset(spec, event.pre_state)
    mismatch = float(np.max(np.abs(sym.phi(event.pre_state) - post)))
    if mismatch > RESET_MATCH_TOL:
        raise ResetMismatchError(
            f"reset differs from the symmetry at the impact state by {mismatch:.3e}")
    event = replace(event, post_state=post)

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
    sym_res = float(np.max(np.abs(sym.phi(seg1.y) - mirrored)))

    traj = HybridTrajectory(segments=(seg1, seg2), impacts=(event,),
                            t0=0.0, tf=2.0 * t1)
    return PeriodicOrbit(seed=s0, half_period=t1, trajectory=traj,
                         closure_residual=closure,
                         time_symmetry_residual=sym_res)
