"""Underactuated hybrid Routhian control on a zero-dynamics manifold.

The actuated shape coordinate is pinned to a constraint xi = h(phi); the
unique invariance feedback keeps the closed loop tangent to that manifold,
and the symmetry-compatibility condition transports periodic orbits onto it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hybrid import DEFAULT_TOL, HybridSystemSpec, _brent, as_state
from .routh import RouthianSystem
from .symmetry import PeriodicOrbit, ReversalSymmetry, construct_periodic_orbit

ON_MANIFOLD_TOL = 1e-6  # |xi - h(phi)| along a closed-loop orbit
INVARIANCE_TOL = 1e-9   # constraint defects of the reset guard slice
SEED_ON_MANIFOLD_TOL = 1e-9  # position and velocity defects of an orbit seed
U_STAR_EVENNESS_TOL = 1e-12  # |u*(phi, phidot) - u*(-phi, phidot)|
PHI_BRACKET = (1e-6, np.pi / 2 - 1e-6)   # angles searched for the guard slice
PHIDOT_SAMPLES = (-2.0, -0.5, 0.5, 2.0)  # angular rates reset on the slice


class GeometricDegeneracyError(RuntimeError):
    """The constraint length h(phi) is not positive where it is needed."""


class EmptyImpactSetError(RuntimeError):
    """The guard is unreachable on the zero-dynamics manifold."""


@dataclass(frozen=True)
class ControlledRouthian:
    """A Routhian system with affine control entering through a constant matrix."""

    base: RouthianSystem
    input_matrix: np.ndarray     # (state_dim, k)
    actuated_indices: tuple      # shape coordinates receiving inputs

    def __post_init__(self):
        C = np.asarray(self.input_matrix, dtype=float)
        k = C.shape[1]
        if np.linalg.matrix_rank(C) != k:
            raise ValueError("input matrix must have full column rank")
        d = self.base.base.shape_dim
        unactuated = [d + i for i in range(d) if i not in self.actuated_indices]
        if np.any(C[unactuated, :] != 0.0):
            raise ValueError("unactuated velocity rows of the input matrix must vanish")


@dataclass(frozen=True)
class ZeroDynamicsManifold:
    """xi = h(phi) with the velocity lift xidot = h'(phi) phidot.

    State layout is (xi, phi, xidot, phidot). The constraint supplies h and
    its first two derivatives dh and d2h in closed form.
    """

    h: Callable[[float], float]
    dh: Callable[[float], float]
    d2h: Callable[[float], float]

    def length(self, phi: float) -> float:
        val = float(self.h(float(phi)))
        if val <= 0.0:
            raise GeometricDegeneracyError(f"h({phi:g}) = {val:g} <= 0")
        return val

    def slope(self, phi: float) -> float:
        return float(self.dh(float(phi)))

    def curvature(self, phi: float) -> float:
        return float(self.d2h(float(phi)))

    def embed(self, phi: float, phidot: float) -> np.ndarray:
        return np.array([self.length(phi), float(phi),
                         self.slope(phi) * float(phidot), float(phidot)])

    def residuals(self, state) -> tuple:
        """(position, velocity) constraint defects at a state."""
        s = as_state(state)
        xi, phi, xidot, phidot = s
        return (xi - float(self.h(phi)), xidot - self.slope(phi) * phidot)


def zero_dynamics_rhs(manifold: ZeroDynamicsManifold, g: float,
                      phi: float, phidot: float) -> float:
    """Reduced angular dynamics on the manifold."""
    hval = manifold.length(phi)
    return (g * np.sin(phi) - 2.0 * phidot ** 2 * manifold.slope(phi)) / hval


def feedback_u_star(manifold: ZeroDynamicsManifold, params,
                    phi: float, phidot: float) -> float:
    """The unique control keeping the closed loop tangent to the manifold.

    `params` must expose g, kappa, l0, m with the quadratic spring potential.
    The arithmetic is on Python floats.
    """
    phi, phidot = float(phi), float(phidot)
    hval = manifold.length(phi)
    hp = manifold.slope(phi)
    hpp = manifold.curvature(phi)
    g, kappa, l0, m = params.g, params.kappa, params.l0, params.m
    # First three terms are d^2/dt^2 [h(phi(t))] with the zero dynamics
    # substituted for phiddot; the curvature term carries phidot^2.
    return (hpp * phidot ** 2
            + hp * g * math.sin(phi) / hval
            - 2.0 * phidot ** 2 / hval * hp ** 2
            - hval * phidot ** 2
            + g * math.cos(phi)
            + kappa * (hval - l0) / m)


def gamma_compatibility(
    sym: ReversalSymmetry,
    C,
    gamma_map: Callable[[np.ndarray], np.ndarray],
    states: Sequence,
    inputs: Sequence,
) -> float:
    """Max defect of C(phi(s)) Gamma(u) = -dphi(s) C u over the given samples."""
    C = np.asarray(C, dtype=float)
    worst = 0.0
    for s in states:
        s = as_state(s)
        dphi = sym.dphi(s)
        for u in inputs:
            u = np.atleast_1d(np.asarray(u, dtype=float))
            defect = C @ np.atleast_1d(gamma_map(u)) + dphi @ (C @ u)
            worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def hybrid_invariance_check(manifold: ZeroDynamicsManifold,
                            guard: Callable[[np.ndarray], float],
                            reset: Callable[[np.ndarray], np.ndarray]):
    """Does the reset map the manifold's guard slice back into the manifold?

    Solves guard(embed(phi, .)) = 0 for phi in PHI_BRACKET by bracketed
    root-finding, resets the slice at PHIDOT_SAMPLES, and checks both
    manifold constraints on the images against INVARIANCE_TOL.
    Returns (ok, worst_witness) with the witness carrying the offending state
    and residual, or None when invariant.
    """
    gfun = lambda phi: float(guard(manifold.embed(phi, 0.0)))
    lo, hi = PHI_BRACKET
    grid = np.linspace(lo, hi, 64)
    vals = [gfun(p) for p in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(_brent(gfun, grid[i], grid[i + 1], xtol=1e-14,
                                rtol=4 * np.finfo(float).eps))
    if not roots:
        raise EmptyImpactSetError(
            "guard has no zero on the zero-dynamics manifold in the bracket")

    ok = True
    worst = None
    worst_res = 0.0
    for phi_w in roots:
        for phidot in PHIDOT_SAMPLES:
            w = manifold.embed(phi_w, phidot)
            image = as_state(reset(w))
            pos_res, vel_res = manifold.residuals(image)
            res = max(abs(pos_res), abs(vel_res))
            if res > worst_res:
                worst_res = res
                worst = {"pre": w, "post": image,
                         "position_residual": pos_res,
                         "velocity_residual": vel_res}
            if res > INVARIANCE_TOL:
                ok = False
    return ok, (None if ok else worst)


def periodic_orbit_on_manifold(
    closed_loop: HybridSystemSpec,
    sym: ReversalSymmetry,
    manifold: ZeroDynamicsManifold,
    seed,
    t_max: float,
    tol: float = DEFAULT_TOL,
) -> PeriodicOrbit:
    """Symmetric periodic orbit of the closed loop, certified to stay on manifold."""
    s0 = as_state(seed)
    pos_res, vel_res = manifold.residuals(s0)
    if max(abs(pos_res), abs(vel_res)) > SEED_ON_MANIFOLD_TOL:
        raise ValueError(
            f"seed is off the zero-dynamics manifold: position defect "
            f"{pos_res:.3e}, velocity defect {vel_res:.3e}")
    orbit = construct_periodic_orbit(closed_loop, sym, s0, t_max, tol=tol)
    worst = 0.0
    for seg in orbit.trajectory.segments:
        for y in seg.y:
            worst = max(worst, abs(manifold.residuals(y)[0]))
    if worst > ON_MANIFOLD_TOL:
        raise RuntimeError(
            f"trajectory escaped the manifold: max |xi - h(phi)| = {worst:.3e}")
    return orbit
