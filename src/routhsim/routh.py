"""Classical Routh reduction of cyclic mechanical Lagrangians.

Covers the block-diagonal kinetic case: L = 1/2 xdot^T M_xx(x) xdot
+ 1/2 M_theta(x) thetadot^2 - V(x) with theta cyclic. Velocity-coupled
kinetic energy (x-theta cross terms) is rejected at construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _fd
from .hybrid import HybridTrajectory, as_state

INERTIA_FLOOR = 1e-9

# The 4-node Gauss-Legendre rule on [-1, 1], exact for degree 7.
_GAUSS_NODES = np.array([-math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5)),
                         -math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
                         math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
                         math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5))])
_GAUSS_WEIGHTS = np.array([(18 - math.sqrt(30)) / 36, (18 + math.sqrt(30)) / 36,
                           (18 + math.sqrt(30)) / 36, (18 - math.sqrt(30)) / 36])


class SingularInertiaError(RuntimeError):
    """The cyclic inertia dropped below the singularity floor; reduction breaks down."""


@dataclass(frozen=True)
class MechanicalSystem:
    """Mass-matrix + potential description of a cyclic Lagrangian.

    mass_shape(x) is the symmetric positive-definite shape-space block,
    inertia_cyclic(x) the (scalar) cyclic inertia, potential(x) the
    potential energy. None of them may depend on the cyclic coordinate;
    cyclicity is structural because theta is simply not an argument.
    """

    shape_dim: int
    mass_shape: Callable[[np.ndarray], np.ndarray]
    inertia_cyclic: Callable[[np.ndarray], float]
    potential: Callable[[np.ndarray], float]

    def __post_init__(self):
        if self.shape_dim < 1:
            raise ValueError("shape_dim must be positive")

    def cyclic_inertia(self, x):
        """M_theta at one shape point (d,) as a float, or at each row of a
        stack (k, d) as a (k,) array."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            val = _per_point(self.inertia_cyclic, x, (), "inertia_cyclic")
            bad = val[~(np.isfinite(val) & (val >= INERTIA_FLOOR))]
            if bad.size:
                raise _singular(bad[0])
            return val
        val = float(self.inertia_cyclic(x))
        if not (math.isfinite(val) and val >= INERTIA_FLOOR):
            raise _singular(val)
        return val


def _singular(inertia: float) -> SingularInertiaError:
    return SingularInertiaError(
        f"cyclic inertia {inertia:.3e} is not finite or below "
        f"{INERTIA_FLOOR:g}; the reduction is singular here")


def _per_point(fn, x: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """fn(x) as floats of shape x.shape[:-1] + shape: one value per point.

    At one point, a result of the right size is reshaped. A stack's result
    of any other shape is refused rather than broadcast or reshaped, so
    that a callable that reads only one point (x[0], say) cannot pass for
    one that maps every row.
    """
    val = np.asarray(fn(x), dtype=float)
    want = x.shape[:-1] + shape
    if x.ndim == 1 and val.size == math.prod(shape):
        return val.reshape(shape)
    if val.shape != want:
        raise ValueError(f"{name} gave shape {val.shape} at points of shape "
                         f"{x.shape}; one value of shape {shape} per point "
                         f"means {want}")
    return val


@dataclass(frozen=True)
class RouthianSystem:
    """A mechanical system with the cyclic momentum pinned to mu."""

    base: MechanicalSystem
    mu: float
    # Model-supplied closed-form vector field, returning n floats as a
    # sequence or an (n,) array; the generic finite-difference engine is
    # used when absent.
    analytic_vector_field: Optional[Callable] = None


def momentum(sys: MechanicalSystem, x, xdot, thetadot: float) -> float:
    """Generalized momentum conjugate to the cyclic coordinate."""
    del xdot  # no velocity coupling in the block-diagonal case
    return sys.cyclic_inertia(x) * float(thetadot)


def effective_potential(sys: RouthianSystem, x):
    """V(x) + mu^2 / (2 M_theta(x)): the potential governing the reduced motion.

    A float at one shape point (d,), a (k,) array at a stack (k, d).
    """
    x = np.asarray(x, dtype=float)
    value = (_per_point(sys.base.potential, x, (), "potential")
             + sys.mu ** 2 / (2.0 * sys.base.cyclic_inertia(x)))
    return float(value) if x.ndim == 1 else value


def routhian_eval(sys: RouthianSystem, x, xdot):
    """The Routhian: shape kinetic energy minus the effective potential.

    A float at one point (x, xdot) of shape (d,) each, a (k,) array at
    stacks (k, d); the kinetic energy is summed in the same order either way.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(xdot, dtype=float)
    d = sys.base.shape_dim
    M = _per_point(sys.base.mass_shape, x, (d, d), "mass_shape")
    vM = np.sum(v[..., :, None] * M, axis=-2)
    value = 0.5 * np.sum(vM * v, axis=-1) - effective_potential(sys, x)
    return float(value) if x.ndim == 1 else value


def reduced_energy(sys: RouthianSystem, state) -> float:
    """Conserved energy of the reduced flow: kinetic plus effective potential."""
    s = as_state(state)
    d = sys.base.shape_dim
    x, v = s[:d], s[d:]
    M = np.asarray(sys.base.mass_shape(x), dtype=float)
    return 0.5 * float(v @ M @ v) + effective_potential(sys, x)


def _generic_field(sys: RouthianSystem):
    base = sys.base
    d = base.shape_dim

    def mass(x):
        M = np.asarray(base.mass_shape(x), dtype=float)
        if M.shape != (d, d):
            raise ValueError(f"mass_shape must return a {d}x{d} matrix")
        return M

    def field(state):
        s = as_state(state)
        x, v = s[:d], s[d:]
        M = mass(x)
        grad_veff = _fd.gradient(lambda z: effective_potential(sys, z), x)
        # dM[a, b, c] = d M_ab / d x_c by central differences.
        dM = _fd.jacobian(lambda z: mass(z).ravel(), x).reshape(d, d, d)
        mdot_v = np.einsum("abc,c,b->a", dM, v, v)
        quad = 0.5 * np.einsum("bca,b,c->a", dM, v, v)
        try:
            acc = np.linalg.solve(M, quad - mdot_v - grad_veff)
        except np.linalg.LinAlgError as exc:
            raise SingularInertiaError(f"shape mass matrix singular at x={x}") from exc
        return np.concatenate([v, acc])

    return field


def routh_vector_field(sys: RouthianSystem):
    """First-order vector field of the Routh equations on the reduced tangent space.

    The field returns an (n,) array: the model's closed form when it
    supplies one, else the generic finite-difference engine, which stays the
    reference the closed forms are tested against.
    """
    if sys.analytic_vector_field is not None:
        analytic = sys.analytic_vector_field
        return lambda state: np.asarray(analytic(state), dtype=float)
    return _generic_field(sys)


def momentum_sequence(mu0: float, impacts: Sequence, transition) -> list:
    """Per-segment momentum values mu_0, mu_1, ... across the given impacts.

    transition(mu, event) supplies the model's momentum rule at impact
    (identity for momentum-preserving resets).
    """
    mus = [float(mu0)]
    for event in impacts:
        mus.append(float(transition(mus[-1], event)))
    return mus


def reconstruct_cyclic(sys: RouthianSystem, traj: HybridTrajectory,
                       theta0: float, mus: Optional[Sequence[float]] = None):
    """Lift a reduced trajectory back to the cyclic coordinate.

    Integrates thetadot = mu_i / M_theta(x(t)) along each smooth segment;
    theta is continuous across impacts. The
    integral over each knot interval is a 4-node Gauss-Legendre sum on the
    segment's own dense output, exact when M_theta is constant; its error
    is that of the reduced flow plus the rule's on a smooth integrand.
    Returns a list of (t, theta) arrays matching traj.segments.
    """
    d = sys.base.shape_dim
    if mus is None:
        mus = [sys.mu] * len(traj.segments)
    if len(mus) < len(traj.segments):
        raise ValueError(
            f"need a momentum value per segment: got {len(mus)} for "
            f"{len(traj.segments)} segments")
    if not np.all(np.isfinite([theta0, *mus[:len(traj.segments)]])):
        raise ValueError("theta0 and the momentum values must be finite")

    out = []
    theta = float(theta0)
    for i, seg in enumerate(traj.segments):
        mu_i = float(mus[i])
        thetas = np.full(seg.t.size, theta)
        if seg.t.size > 1:
            half = 0.5 * np.diff(seg.t)
            # The node states of every knot interval in one evaluation.
            nodes = seg.t[:-1, None] + half[:, None] * (1.0 + _GAUSS_NODES)
            states = seg.dense(nodes.ravel()).T
            inverse = np.array([1.0 / sys.base.cyclic_inertia(x)
                                for x in states[:, :d]]).reshape(nodes.shape)
            thetas[1:] += np.cumsum(mu_i * half * (inverse @ _GAUSS_WEIGHTS))
        out.append((seg.t.copy(), thetas))
        theta = float(thetas[-1])
    return out
