"""Bundled systems with analytic vector fields.

Three models: the planar spring pendulum (one shape coordinate), the stance
phase of a one-leg hopper reduced to the spring-loaded inverted pendulum
(SLIP), and the controlled SLIP with the spring length actuated.

SLIP state layout is (xi, phi, xidot, phidot): spring length, leg angle,
and their rates. The cyclic body-attitude coordinate is reduced away; its
momentum enters only through a constant shift of the effective potential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .control import ControlledRouthian, ZeroDynamicsManifold, feedback_u_star
from .hybrid import RISING, HybridSystemSpec
from .poincare import PoincareSection, make_section
from .routh import MechanicalSystem, RouthianSystem
from .symmetry import ReversalSymmetry


@dataclass(frozen=True)
class PendulumParams:
    m: float = 1.0       # mass [kg]
    k: float = 1.0       # spring constant [N/m]
    mu: float = 1.0      # angular momentum about the pivot

    def __post_init__(self):
        if self.m <= 0 or self.k <= 0:
            raise ValueError("mass and spring constant must be positive")


@dataclass(frozen=True)
class SlipParams:
    m: float = 1.0            # body mass [kg]
    inertia: float = 1.0      # body moment of inertia [kg m^2]
    g: float = 9.81           # gravity [m/s^2]
    l0: float = 1.0           # spring rest length [m]
    kappa: float = 100.0      # spring constant [N/m]
    mu: float = 0.0           # body angular momentum (reduced away)
    phi0: Optional[float] = None  # fixed touchdown angle; None = detected at impact

    def __post_init__(self):
        for name in ("m", "inertia", "g", "l0", "kappa"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.phi0 is not None and not 0.0 <= self.phi0 < np.pi / 2:
            raise ValueError("phi0 must lie in [0, pi/2)")


# --------------------------------------------------------------------------
# Spring pendulum
# --------------------------------------------------------------------------

def pendulum_system(params: PendulumParams) -> MechanicalSystem:
    """Mass on a spring in the plane; radius is shape, polar angle is cyclic."""
    m, k = params.m, params.k
    return MechanicalSystem(
        shape_dim=1,
        mass_shape=lambda x: np.array([[m]]),
        inertia_cyclic=lambda x: m * float(x[0]) ** 2,
        potential=lambda x: 0.5 * k * float(x[0]) ** 2,
    )


def pendulum_routhian(params: PendulumParams) -> RouthianSystem:
    m, k, mu = params.m, params.k, params.mu

    def field(s):
        r, rdot = s
        return np.array([rdot, -(k / m) * r + mu ** 2 / (m ** 2 * r ** 3)])

    return RouthianSystem(base=pendulum_system(params), mu=mu,
                          analytic_vector_field=field)


def pendulum_symmetry() -> ReversalSymmetry:
    """Plain velocity reversal: the identity involution on configuration."""
    return ReversalSymmetry(F=lambda q: np.asarray(q, dtype=float),
                            dF=lambda q: np.eye(np.asarray(q).size))


# --------------------------------------------------------------------------
# SLIP (reduced one-leg hopper stance phase)
# --------------------------------------------------------------------------

def slip_mechanical(params: SlipParams) -> MechanicalSystem:
    m, inertia, g, l0, kappa = (params.m, params.inertia, params.g,
                                params.l0, params.kappa)
    return MechanicalSystem(
        shape_dim=2,
        mass_shape=lambda x: np.array([[m, 0.0], [0.0, m * float(x[0]) ** 2]]),
        inertia_cyclic=lambda x: inertia,
        potential=lambda x: (m * g * float(x[0]) * np.cos(float(x[1]))
                             + 0.5 * kappa * (float(x[0]) - l0) ** 2),
    )


def slip_acceleration(params: SlipParams, s, u: float = 0.0):
    """Closed-form stance accelerations; u adds spring-length actuation.

    s is any sequence of 4 numbers; the arithmetic is on Python floats.
    """
    xi, phi, xidot, phidot = np.asarray(s, dtype=float).tolist()
    g, kappa, l0, m = params.g, params.kappa, params.l0, params.m
    xi_acc = xi * phidot ** 2 - g * math.cos(phi) - kappa * (xi - l0) / m + u
    phi_acc = (g / xi) * math.sin(phi) - 2.0 * phidot * xidot / xi
    return xi_acc, phi_acc


def slip_field_jacobian(params: SlipParams, s) -> np.ndarray:
    """Closed-form Jacobian of the unactuated stance field at state s."""
    xi, phi, xidot, phidot = np.asarray(s, dtype=float).tolist()
    g, kappa, m = params.g, params.kappa, params.m
    sin, cos = math.sin(phi), math.cos(phi)
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [phidot ** 2 - kappa / m, g * sin, 0.0, 2.0 * xi * phidot],
        [(2.0 * phidot * xidot - g * sin) / xi ** 2, g * cos / xi,
         -2.0 * phidot / xi, -2.0 * xidot / xi],
    ])


def slip_routhian(params: SlipParams) -> RouthianSystem:
    def field(s):
        xi_acc, phi_acc = slip_acceleration(params, s)
        return np.array([s[2], s[3], xi_acc, phi_acc])

    return RouthianSystem(base=slip_mechanical(params), mu=params.mu,
                          analytic_vector_field=field)


def slip_symmetry() -> ReversalSymmetry:
    """Leg-angle reflection: F(xi, phi) = (xi, -phi)."""
    R = np.diag([1.0, -1.0])
    return ReversalSymmetry(F=lambda q: R @ np.asarray(q, dtype=float),
                            dF=lambda q: R)


def slip_guard(params: SlipParams):
    l0 = params.l0
    return lambda s: float(s[0]) - l0


def slip_reset(params: SlipParams):
    """Touchdown map in stance coordinates.

    With phi0 = None the post-impact angle is the reflected impact angle
    (the reset then coincides with the reversal symmetry on the guard);
    a fixed phi0 pins the post-impact angle, which is the rank-2 form used
    for the stability analysis.
    """
    l0, phi0 = params.l0, params.phi0
    if phi0 is None:
        return lambda s: np.array([l0, -s[1], -s[2], s[3]])
    return lambda s: np.array([l0, -phi0, -s[2], s[3]])


def slip_hybrid_spec(params: SlipParams, u_feedback=None) -> HybridSystemSpec:
    """Hybrid stance system; u_feedback(state) -> scalar adds actuation.

    Without feedback the spec carries the closed-form field Jacobian; with
    it, the feedback's derivative is unknown and linearization falls back to
    central differences.
    """
    def field(s):
        u = 0.0 if u_feedback is None else float(u_feedback(s))
        xi_acc, phi_acc = slip_acceleration(params, s, u)
        return np.array([s[2], s[3], xi_acc, phi_acc])

    jac = partial(slip_field_jacobian, params) if u_feedback is None else None
    return HybridSystemSpec(vector_field=field, guard=slip_guard(params),
                            reset=slip_reset(params), guard_direction=RISING,
                            vector_field_jacobian=jac)


def slip_system(params: SlipParams):
    """The reduced hopper bundle: Routhian, hybrid spec, reversal symmetry."""
    return slip_routhian(params), slip_hybrid_spec(params), slip_symmetry()


def slip_momentum_transition(mu: float, event) -> float:
    """Body spin reverses at touchdown, so the momentum flips sign."""
    del event
    return -mu


def slip_section(anchor) -> PoincareSection:
    """Section {phi = 0} through a symmetry fixed point.

    Contains the fixed-point tangent directions (spring length and angular
    rate) exactly; transversal whenever the anchor's angular rate is nonzero.
    """
    anchor = np.asarray(anchor, dtype=float)
    if abs(anchor[1]) > 1e-12:
        raise ValueError("anchor must lie on the phi = 0 hyperplane")
    if abs(anchor[3]) < 1e-9:
        raise ValueError("anchor has zero angular rate; the phi = 0 section "
                         "is not transversal there")
    normal = np.array([0.0, 1.0, 0.0, 0.0])
    chart = np.column_stack([
        np.array([1.0, 0.0, 0.0, 0.0]),   # spring length
        np.array([0.0, 0.0, 1.0, 0.0]),   # spring rate
        np.array([0.0, 0.0, 0.0, 1.0]),   # angular rate
    ])
    direction = RISING if anchor[3] > 0 else "falling"
    return make_section(anchor, normal, chart=chart, crossing_direction=direction)


# --------------------------------------------------------------------------
# Controlled SLIP
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintCoefficients:
    """Even spring-length constraint h(phi) = c0 + c2 phi^2."""

    c0: float
    c2: float

    def __post_init__(self):
        if self.c0 <= 0 or self.c2 <= 0:
            raise ValueError("constraint coefficients must be positive")


def quadratic_constraint(coeffs: ConstraintCoefficients) -> ZeroDynamicsManifold:
    c0, c2 = coeffs.c0, coeffs.c2
    return ZeroDynamicsManifold(
        h=lambda phi: c0 + c2 * phi ** 2,
        dh=lambda phi: 2.0 * c2 * phi,
        d2h=lambda phi: 2.0 * c2,
        even=True,
    )


SLIP_INPUT_MATRIX = np.array([[0.0], [0.0], [1.0], [0.0]])


def controlled_slip_system(params: SlipParams, coeffs: ConstraintCoefficients):
    """Wire the actuated SLIP to the even constraint and its feedback.

    Returns (ControlledRouthian, ZeroDynamicsManifold, u_star) where u_star
    maps a full state to the invariance control evaluated at its angle block.
    The bundled controlled model fixes m = 1 so the torque enters the
    spring-length acceleration without a mass ambiguity.
    """
    if abs(params.m - 1.0) > 1e-12:
        raise ValueError("the controlled SLIP model requires unit mass")
    manifold = quadratic_constraint(coeffs)
    controlled = ControlledRouthian(base=slip_routhian(params),
                                    input_matrix=SLIP_INPUT_MATRIX,
                                    actuated_indices=(0,))

    def u_star(state):
        return feedback_u_star(manifold, params, float(state[1]), float(state[3]))

    return controlled, manifold, u_star


def closed_loop_slip_spec(params: SlipParams,
                          coeffs: ConstraintCoefficients) -> HybridSystemSpec:
    """Stance dynamics with u = u_star wired in; guard and reset as for SLIP."""
    _, _, u_star = controlled_slip_system(params, coeffs)
    return slip_hybrid_spec(params, u_feedback=u_star)
