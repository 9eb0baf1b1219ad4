"""Lyapunov exponent estimators and the rotation-twist average identity.

The orbit estimator reads the growth of the first column of the orbit's
prefix products: ln|A_k(x) e_1| / k at k = n and, for the halving error
proxy, at k = n // 2.  The products come from the one orbit walk,
`cocycle.orbit_products`, a blocked scan over chunks of up to
`cocycle._CHUNK` steps, in float64 for real cocycles.  The contracting
exponent follows exactly from the determinant, since the two exponents of a
2x2 cocycle sum to the mean of ln|det A|.
Quadrature follows unique ergodicity: uniform grids for d = 1, a single
ergodic orbit as quasi-Monte Carlo nodes for d >= 2.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .cocycle import _CHUNK, _as_points, orbit_products


@dataclass
class LyapEstimate:
    """Top Lyapunov exponent in nats/iterate with a halving error proxy."""

    value: float
    n: int
    error_proxy: float
    second: float = 0.0  # contracting exponent: mean ln|det A| - value


def _log_first_column(p):
    """ln|P e_1| of a ScaledMat (stack)."""
    col = np.abs(p.m[..., 0, 0]) ** 2 + np.abs(p.m[..., 1, 0]) ** 2
    return p.log_scale + 0.5 * np.log(col)


def _orbit_growth(steps, n):
    """Per-batch (value, halving proxy, second) of an n-step orbit walk."""
    if n < 1:
        raise ValueError("orbit length n must be >= 1")
    half = max(n // 2, 1)
    done = 0
    log_det = 0.0
    for a, p in orbit_products(steps):
        if done < half <= done + len(a):
            g_half = _log_first_column(p[half - done - 1])
        log_det = log_det + np.sum(np.log(np.abs(alg.det(a))), axis=0)
        done += len(a)
    value = _log_first_column(p[-1]) / n
    return value, np.abs(value - g_half / half), log_det / n - value


def lyapunov_orbit(cocycle, x0=None, n=100000):
    """Single-orbit Birkhoff estimate of the top exponent at base point x0."""
    if x0 is None:
        x0 = np.full(cocycle.dim, np.sqrt(0.5) / 3)
    x0 = _as_points(x0, cocycle.dim).reshape(-1, cocycle.dim)
    value, proxy, second = _orbit_growth(cocycle.orbit(x0, n), n)
    return LyapEstimate(
        value=float(value[0]),
        n=int(n),
        error_proxy=float(proxy[0]),
        second=float(second[0]),
    )


def quadrature_points(dim, size, alpha=None, x0=None):
    """Uniform grid for d = 1; ergodic-orbit QMC nodes for d >= 2."""
    if dim == 1:
        return np.linspace(0.0, 1.0, size, endpoint=False)[:, None]
    if alpha is None:
        raise ValueError("multidimensional quadrature needs alpha")
    x0 = np.full(dim, np.sqrt(0.5) / 3) if x0 is None else x0
    k = np.arange(size)[:, None]
    return np.mod(x0[None, :] + k * np.asarray(alpha)[None, :], 1.0)


def _nodes(cocycle, grid):
    """`grid` itself if it is an array, else that many quadrature points."""
    if isinstance(grid, np.ndarray):
        return grid
    return quadrature_points(cocycle.dim, grid, cocycle.alpha)


def lyapunov_upper(cocycle, n, grid=256):
    """(1/n) mean of ln ||A_n(x)||: an upper bound up to quadrature error."""
    sm = cocycle.iterate(_nodes(cocycle, grid), n)
    return float(np.mean(sm.log_norm()) / n)


def herman_average_rhs(cocycle, grid=4096):
    """Grid mean of ln((||A|| + ||A||^-1)/2), spectral norm."""
    s = alg.spectral_norm(cocycle.eval(_nodes(cocycle, grid)))
    return float(np.mean(np.log((s + 1.0 / s) / 2.0)))


def lyapunov_theta_average(cocycle, theta_points=64, n=100000, x0=None):
    """Mean over theta of L(R_theta A); pairs with herman_average_rhs."""
    thetas = (
        theta_points
        if isinstance(theta_points, np.ndarray)
        else (np.arange(theta_points) + 0.5) / theta_points
    )
    rots = alg.rot(thetas)
    if x0 is None:
        x0 = np.full(cocycle.dim, np.sqrt(0.5) / 3)
    width = max(1, _CHUNK // len(rots))  # steps x thetas within one chunk
    steps = (
        alg.mul(rots, a[s : s + width, None])
        for a in cocycle.orbit(x0, n)
        for s in range(0, len(a), width)
    )
    value, proxy, _ = _orbit_growth(steps, n)
    return float(np.mean(value)), float(np.mean(proxy))
