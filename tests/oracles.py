"""Independent numerical oracles shared by the test modules."""
import dataclasses

import numpy as np

from routhsim import _fd
from routhsim.hybrid import (
    _FIT,
    _RANGE,
    FALLING,
    RISING,
    ROOT_IMAG_TOL,
    _flow,
    apply_reset,
)
from routhsim.poincare import DEPARTURE_SKIP, _saltation, return_map
from routhsim.scenario import FLOAT_FMT


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


def first_crossing(direction, g, start):
    """The crossing scan's index on numpy arrays: the first i >= start with
    (g[i], g[i+1]) crossing zero in `direction`, or None."""
    g0, g1 = g[:-1], g[1:]
    up = (g0 < 0.0) & (g1 >= 0.0)
    down = (g0 > 0.0) & (g1 <= 0.0)
    hit = up if direction == RISING else down if direction == FALLING else up | down
    idx = np.flatnonzero(hit[start:])
    return None if idx.size == 0 else start + int(idx[0])


def critical_points(f):
    """The scan's extra points on numpy arrays: the interior critical points
    of the degree-7 fit to 9 samples f, or none when the fit's Bernstein
    coefficients are of one strict sign or one is not finite (`min` and
    `max` of an ndarray propagate NaN)."""
    b = _RANGE @ f
    if not -np.inf < b.min() <= 0.0 <= b.max() < np.inf:
        return f[:0]
    c = _FIT @ f
    roots = np.polynomial.polynomial.polyroots(c[1:] * np.arange(1, c.size))
    tau = roots.real[np.abs(roots.imag) <= ROOT_IMAG_TOL]
    return tau[(tau > 0.0) & (tau < 1.0)]


def samples(fn, dense, grid, f0, states):
    """The scan's samples of fn on one step: on the grid (f0 at grid[0],
    states at the rest) and at the interior critical points of the fit,
    merged and sorted. The extra times are formed before testing whether
    there are any."""
    f = np.array([f0] + [float(fn(s)) for s in states])
    extra = grid[0] + (grid[-1] - grid[0]) * critical_points(f)
    if extra.size == 0:
        return grid, f
    t = np.concatenate([grid, extra])
    f = np.concatenate([f, [float(fn(s)) for s in dense(extra).T]])
    order = np.argsort(t, kind="stable")
    return t[order], f[order]


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


def variational_spec(spec, n):
    """The flow of (x, Phi), Phi the n x n sensitivity, as one flat state.

    Its field is (f(x), Df(x) Phi); its guard reads x only and is not
    declared affine, so the flow samples it on every step.
    """
    field, guard = spec.vector_field, spec.guard
    dfield = spec.vector_field_jacobian or (lambda x: _fd.jacobian(field, x))

    def augmented(z):
        x = z[:n]
        return np.concatenate([field(x), (dfield(x) @ z[n:].reshape(n, n)).ravel()])

    return dataclasses.replace(spec, vector_field=augmented,
                               guard=lambda z: guard(z[:n]), guard_gradient=None)


def augmented_flow_jacobian(spec, section, t_max=20.0, tol=1e-10):
    """Return-map Jacobian at the anchor, in chart coordinates, from one
    error-controlled flow of (x, Phi) through `variational_spec`.

    The flow has two legs: to the guard, where Phi is multiplied by the
    saltation matrix, and from the reset on to the section, where Phi is
    projected along the flow onto it. The step sizes follow the error of
    both x and Phi, so the flow differs from the one `return_map` takes.
    """
    n = section.anchor.size
    aug = variational_spec(spec, n)
    # The section as a hyperplane of (x, Phi) that does not read Phi.
    normal, anchor = (np.concatenate([v, np.zeros(n * n)])
                      for v in (section.normal, section.anchor))
    z = np.concatenate([section.anchor, np.eye(n).ravel()])
    _, event, _ = _flow(aug, z, 0.0, t_max, tol)
    pre, t = event.pre_state[:n], event.time
    post = apply_reset(spec, pre)
    phi = _saltation(spec, pre, post) @ event.pre_state[n:].reshape(n, n)
    watch = (normal, anchor, section.crossing_direction, t + DEPARTURE_SKIP)
    _, _, hit = _flow(aug, np.concatenate([post, phi.ravel()]), t, t + t_max,
                      tol, watch)
    x, phi = hit[1][:n], hit[1][n:].reshape(n, n)
    f = np.asarray(spec.vector_field(x), dtype=float)
    project = np.eye(n) - np.outer(f, section.normal) / float(section.normal @ f)
    return section.chart.T @ project @ phi @ section.chart


def write_trajectory_csv(path, names, segments, stride=1):
    """The CSV writer that formats one value at a time: each retained row is
    FLOAT_FMT of t and of each state entry, joined, plus the segment index."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(names) + ",segment\n")
        for idx, seg in enumerate(segments):
            keep = list(range(0, len(seg.t), stride))
            if keep[-1] != len(seg.t) - 1:
                keep.append(len(seg.t) - 1)
            for i in keep:
                row = [FLOAT_FMT % seg.t[i]]
                row += [FLOAT_FMT % v for v in np.atleast_1d(seg.y[i])]
                fh.write(",".join(row) + f",{idx}\n")
