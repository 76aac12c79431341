"""Frozen regression fixtures and the parameter searches that produced them.

The committed tuples are the first hits of the scripted grid searches below.
Re-running `search_slip_tuple()` / `search_controlled_tuple()` must reproduce
them; the regression tests assert exactly that, so the frozen numbers cannot
drift silently away from the search script.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import periodic_orbit_on_manifold
from .hybrid import HybridError, integrate_segment
from .models import (
    ConstraintCoefficients,
    SlipParams,
    closed_loop_slip_spec,
    quadratic_constraint,
    slip_hybrid_spec,
    slip_symmetry,
)

SEARCH_T_MAX = 5.0
SEARCH_TOL = 1e-10   # integration tolerance of both searches


@dataclass(frozen=True)
class CertifiedSlipTuple:
    kappa: float
    xi_star: float
    phidot_star: float
    half_period: float       # measured at tol 1e-10, frozen
    impact_angle: float      # detected leg angle at touchdown, frozen

    @property
    def params(self) -> SlipParams:
        return SlipParams(m=1.0, inertia=1.0, g=9.81, l0=1.0, kappa=self.kappa)

    @property
    def seed(self) -> np.ndarray:
        return np.array([self.xi_star, 0.0, 0.0, self.phidot_star])


@dataclass(frozen=True)
class CertifiedControlledTuple:
    c0: float
    c2: float
    l0: float
    phidot_star: float
    kappa: float
    half_period: float       # measured at tol 1e-10, frozen

    @property
    def params(self) -> SlipParams:
        return SlipParams(m=1.0, inertia=1.0, g=9.81, l0=self.l0, kappa=self.kappa)

    @property
    def coefficients(self) -> ConstraintCoefficients:
        return ConstraintCoefficients(self.c0, self.c2)

    @property
    def seed(self) -> np.ndarray:
        return np.array([self.c0, 0.0, 0.0, self.phidot_star])


# First hit of search_slip_tuple(); half period and impact angle measured once
# at integration tolerance 1e-10 and frozen.
CERTIFIED_SLIP = CertifiedSlipTuple(
    kappa=50.0,
    xi_star=0.8,
    phidot_star=0.5,
    half_period=0.846719751,
    impact_angle=1.129924965,
)

# First hit of search_controlled_tuple(); kappa and g carried over from the
# certified uncontrolled tuple.
CERTIFIED_CONTROLLED = CertifiedControlledTuple(
    c0=0.8,
    c2=0.05,
    l0=0.808,
    phidot_star=0.5,
    kappa=50.0,
    half_period=0.503131381,
)

# Constraint-shape targets for the controlled search: the spring rest length
# is pinned to the constraint value at each candidate touchdown angle.
CONTROLLED_IMPACT_ANGLES = (0.4, 0.6, 0.8)


def search_slip_tuple():
    """Scan the stance parameter box for the first guard-reaching seed.

    Grid: kappa 50..500 step 50, xi* 0.80..0.98 step 0.02, phidot* 0..3
    step 0.5, scanned row-major in that order. Accepts the first tuple whose
    flow from (xi*, 0, 0, phidot*) reaches the guard within SEARCH_T_MAX
    with a clean transversal crossing.
    """
    for kappa in np.arange(50.0, 500.1, 50.0):
        params = SlipParams(kappa=float(kappa), l0=1.0)
        spec = slip_hybrid_spec(params)
        for xi_star in np.arange(0.80, 0.9801, 0.02):
            for phidot_star in np.arange(0.0, 3.01, 0.5):
                seed = np.array([xi_star, 0.0, 0.0, phidot_star])
                try:
                    _, event = integrate_segment(spec, seed, 0.0,
                                                 SEARCH_T_MAX, tol=SEARCH_TOL)
                except HybridError:
                    continue
                if event is None:
                    continue
                return CertifiedSlipTuple(
                    kappa=float(kappa),
                    xi_star=float(xi_star),
                    phidot_star=float(phidot_star),
                    half_period=float(event.time),
                    impact_angle=float(event.pre_state[1]),
                )
    raise RuntimeError("no guard-reaching tuple in the search box")


def search_controlled_tuple():
    """Scan constraint shapes for the first closing on-manifold orbit.

    Grid: c0 0.80..0.95 step 0.05, c2 0.05..0.30 step 0.05, touchdown-angle
    target over CONTROLLED_IMPACT_ANGLES (fixing l0 = c0 + c2 * angle^2),
    phidot* 0.5..3 step 0.5; kappa = 50 throughout. Accepts the first tuple
    whose closed-loop orbit from (c0, 0, 0, phidot*) closes within 1e-6 while
    staying on the constraint manifold.
    """
    sym = slip_symmetry()
    for c0 in np.arange(0.80, 0.951, 0.05):
        for c2 in np.arange(0.05, 0.301, 0.05):
            coeffs = ConstraintCoefficients(float(c0), float(c2))
            manifold = quadratic_constraint(coeffs)
            for angle in CONTROLLED_IMPACT_ANGLES:
                l0 = float(c0 + c2 * angle ** 2)
                params = SlipParams(kappa=50.0, l0=l0)
                spec = closed_loop_slip_spec(params, coeffs)
                for phidot_star in np.arange(0.5, 3.01, 0.5):
                    seed = np.array([c0, 0.0, 0.0, phidot_star])
                    try:
                        orbit = periodic_orbit_on_manifold(
                            spec, sym, manifold, seed, SEARCH_T_MAX,
                            tol=SEARCH_TOL)
                    except (HybridError, RuntimeError, ValueError):
                        continue
                    return CertifiedControlledTuple(
                        c0=float(c0),
                        c2=float(c2),
                        l0=l0,
                        phidot_star=float(phidot_star),
                        kappa=50.0,
                        half_period=float(orbit.half_period),
                    )
    raise RuntimeError("no closing controlled tuple in the search box")
