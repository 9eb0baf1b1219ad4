"""Variation of the fibered rotation number along parameter paths.

The variation over a path gamma is computed from continuous lifts of the
linear form tau along (matrix, disk point) paths, averaged in Birkhoff form
over the orbit with the disk points transported by the endpoint cocycles.
The real part is the rotation variation (revolutions), the imaginary part
carries the Lyapunov difference of the endpoints.

Sign convention (fixed once for the whole library): projective angles
increase under R_theta with increasing theta.  Paper statements phrased for
monotone-decreasing families hold mirrored.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .cocycle import _as_points, orbit_products
from .errors import UnwrapStep

MAX_PATH_STEPS = 2**20


@dataclass
class RotVariation:
    """Variation along a parameter path at Birkhoff depth n.

    deltaRho is in revolutions; deltaL is the imaginary part of the
    zeta-variation, so 2*pi*deltaL estimates L(start) - L(end) in nats.
    """

    deltaRho: float
    deltaL: float
    n: int
    pathSteps: int

    @property
    def tolerance(self):
        # z-dependence of the Birkhoff form is below 1/n; factor 2 for slack
        return 2.0 / self.n


def _phase_steps(prev, cur):
    d = np.angle(cur / prev) / (2.0 * np.pi)
    if np.max(np.abs(d)) >= alg.UNWRAP_MAX_JUMP:
        raise UnwrapStep(f"path phase jump {np.max(np.abs(d)):.3f} rev")
    return d


def delta_xi(gamma, z0, z1, steps=64, max_steps=MAX_PATH_STEPS):
    """Lifted tau-variation of a single matrix path t -> gamma(t) in SL(2,C).

    gamma maps an array of t in [0,1] to matrices (..., 2, 2); the disk
    argument moves along the segment from z0 to z1.  Doubles the path
    resolution on UnwrapStep up to max_steps.
    """
    while True:
        ts = np.linspace(0.0, 1.0, steps + 1)
        mats = alg.disk_coords(np.asarray(gamma(ts), dtype=complex))
        zs = z0 + ts * (z1 - z0)
        phis = alg.tau(mats, zs)
        try:
            d = np.sum(_phase_steps(phis[:-1], phis[1:]))
        except UnwrapStep:
            if steps * 2 > max_steps:
                raise
            steps *= 2
            continue
        dlog = np.log(np.abs(phis[-1])) - np.log(np.abs(phis[0]))
        return complex(d - 1j * dlog / (2.0 * np.pi))


def _transport_orbit(mats, z_init):
    """Moebius orbit z_{k+1} = mats[k] . z_k for disk-coordinate matrices."""
    prefix = [alg.mobius_apply(p.m, z_init) for _, p in orbit_products([mats[:-1]])]
    return np.concatenate([[complex(z_init)]] + prefix)


def variation_rho(
    family,
    theta_a,
    theta_b,
    x0=None,
    n=10000,
    steps=64,
    theta_imag=0.0,
    z_init=None,
    max_steps=MAX_PATH_STEPS,
):
    """Variation of the fibered rotation number over theta_a -> theta_b.

    Works for real families (disk points ride on the boundary circle) and for
    complexified ones (theta_imag != 0, disk points in the interior); the
    lift code path is the same.
    """
    if x0 is None:
        x0 = np.full(family.dim, np.sqrt(0.5) / 3)
    x0 = _as_points(x0, family.dim)
    if z_init is None:
        z_init = 0.0j if theta_imag != 0.0 else 1.0 + 0.0j
    xs = x0[None, :] + np.arange(n)[:, None] * family.alpha

    end_a = alg.disk_coords(
        family.eval_theta(theta_a + 1j * theta_imag, xs)
    )
    end_b = alg.disk_coords(
        family.eval_theta(theta_b + 1j * theta_imag, xs)
    )
    z0s = _transport_orbit(end_a, z_init)
    z1s = _transport_orbit(end_b, z_init)

    while True:
        try:
            total = _variation_pass(
                family, theta_a, theta_b, theta_imag, xs, z0s, z1s, steps
            )
        except UnwrapStep:
            if steps * 2 > max_steps:
                raise
            steps *= 2
            continue
        return RotVariation(
            deltaRho=float(total.real) / n,
            deltaL=float(total.imag) / n,
            n=n,
            pathSteps=steps,
        )


def _variation_pass(family, theta_a, theta_b, theta_imag, xs, z0s, z1s, steps):
    lift = np.zeros(xs.shape[0])
    prev = None
    for t in np.linspace(0.0, 1.0, steps + 1):
        theta = theta_a + t * (theta_b - theta_a) + 1j * theta_imag
        mats = alg.disk_coords(family.eval_theta(theta, xs))
        zs = z0s + t * (z1s - z0s)
        phis = alg.tau(mats, zs)
        if prev is None:
            first_abs = np.log(np.abs(phis))
        else:
            lift += _phase_steps(prev, phis)
        prev = phis
    dlog = np.log(np.abs(prev)) - first_abs
    total = np.sum(lift) - 1j * np.sum(dlog) / (2.0 * np.pi)
    return complex(total)


def rho_profile(family, theta_grid, x0=None, n=10000, steps=64, theta_imag=0.0):
    """Continuous rho lift along an ordered theta grid (lift(theta_0) = 0)."""
    theta_grid = np.asarray(theta_grid, dtype=float)
    lift = np.zeros_like(theta_grid)
    variations = []
    for i in range(len(theta_grid) - 1):
        var = variation_rho(
            family,
            theta_grid[i],
            theta_grid[i + 1],
            x0=x0,
            n=n,
            steps=steps,
            theta_imag=theta_imag,
        )
        lift[i + 1] = lift[i] + var.deltaRho
        variations.append(var)
    return theta_grid, lift, variations


def affine_fit(theta, rho):
    """(slope, intercept, max residual) of a least-squares affine fit."""
    coef = np.polyfit(theta, rho, 1)
    fit = np.polyval(coef, theta)
    return float(coef[0]), float(coef[1]), float(np.max(np.abs(rho - fit)))


def fibered_rotation_number(cocycle, x0=None, n=100000, v0=(1.0, 0.0)):
    """Average projective angular speed of one orbit (revolutions/iterate).

    Sums the nearest-image angle increments between the prefix images
    u_k = A_k(x0) v0, atan2 of the cross and dot products of u_{k-1} and u_k
    (no normalization needed), so each step adds less than half a turn;
    returns (value mod 1, raw lift slope).  Real
    cocycles only: complex matrices or a complex v0 raise ValueError.
    Convenience for single cocycles; the paper-level object is the path
    variation above.
    """
    if x0 is None:
        x0 = np.full(cocycle.dim, np.sqrt(0.5) / 3)
    x0 = _as_points(x0, cocycle.dim).reshape(cocycle.dim)
    vx, vy = alg.as_real(v0, "fibered_rotation_number")

    steps = (
        alg.as_real(a, "fibered_rotation_number") for a in cocycle.orbit(x0, n)
    )
    px, py = vx, vy
    lift = 0.0
    for _, p in orbit_products(steps):
        m = p.m
        ux = m[:, 0, 0] * vx + m[:, 0, 1] * vy
        uy = m[:, 1, 0] * vx + m[:, 1, 1] * vy
        px, py = np.append(px, ux[:-1]), np.append(py, uy[:-1])
        lift += np.sum(np.arctan2(px * uy - py * ux, px * ux + py * uy))
        px, py = ux[-1], uy[-1]
    slope = lift / (2 * np.pi) / n
    return float(np.mod(slope, 1.0)), float(slope)
