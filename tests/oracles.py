"""Independent numerical oracles shared by the test modules."""
import numpy as np

from routhsim.poincare import return_map


def char_poly_coefficients(A):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recursion (trace-based, no eigenvalue solver involved).

    Returns [1, c1, ..., cn] for lambda^n + c1 lambda^(n-1) + ... + cn.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A @ M) / k)
    return np.array(coeffs)


def central_fd_return_jacobian(spec, section, h, **kwargs):
    """Return-map Jacobian by central differences of `return_map`, one
    chart direction at a time, with steps h * max(1, |anchor coordinate|).

    Its error is O(h^2) plus the integration error over h.
    """
    k = section.chart.shape[1]
    cols = []
    for j in range(k):
        hj = h * max(1.0, abs(float(section.chart[:, j] @ section.anchor)))
        e = np.zeros(k)
        e[j] = hj
        cols.append((return_map(spec, section, e, **kwargs)
                     - return_map(spec, section, -e, **kwargs)) / (2.0 * hj))
    return np.column_stack(cols)
