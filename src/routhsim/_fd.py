"""Central finite-difference helpers shared across the library."""
from __future__ import annotations

import numpy as np

# Cube root of machine epsilon: the standard step optimum for central
# first differences.
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def steps(x: np.ndarray) -> np.ndarray:
    """Per-component step, scaled by max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    return FD_STEP * np.maximum(1.0, np.abs(x))


def gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    return jacobian(f, x)[0]


def jacobian(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function, columns = inputs."""
    x = np.asarray(x, dtype=float)
    h = steps(x)
    return np.column_stack([(np.asarray(f(x + e), dtype=float)
                             - np.asarray(f(x - e), dtype=float)) / (2.0 * hi)
                            for e, hi in zip(np.diag(h), h)])
