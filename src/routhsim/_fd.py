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
    """Central-difference Jacobian of a vector function, columns = inputs.

    A scalar function gives one row.
    """
    x = np.asarray(x, dtype=float)
    h = steps(x)
    e = np.diag(h)
    # Every value of a side in one array, so a scalar function pays for no
    # 0-d array arithmetic; the result is C-ordered like a stacked one.
    up = np.array([f(z) for z in x + e], dtype=float)
    down = np.array([f(z) for z in x - e], dtype=float)
    return ((up - down).reshape(x.size, -1) / (2.0 * h)[:, None]).T.copy()
