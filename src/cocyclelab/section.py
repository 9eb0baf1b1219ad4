"""Invariant disk sections on certified strips and their diagnostics.

The section solves m(x + alpha) = Adisk(x) . m(x) by the graph transform
m -> (x -> Adisk(x - alpha) . m(x - alpha)) iterated from m = 0, which is a
uniform contraction of the Poincare metric on certified levels.  Shifted
evaluations of m interpolate spectrally (Fourier) for expression-tree
cocycles and with periodic cubic splines for sampled ones.

Both Lyapunov forms are computed: the tau-form mean(ln |tau(m)|) and the
contraction-coefficient form -mean(ln q)/2 with
q = |dz~/dz| (1-|z|^2)/(1-|z~|^2); they agree up to section residual and
quadrature because the base measure is translation invariant.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import algebra as alg
from .complexify import _AHMember
from .errors import NotAtZeroEnergy, SlowContraction
from .lyap import lyapunov_orbit
from .monotone import monotonicity_constant
from .rotnum import variation_rho

_RATIO_LIMIT = 1.0 - 1e-4


@dataclass
class DiskSection:
    """Grid-sampled invariant section on one complexified level."""

    grid: np.ndarray
    values: np.ndarray
    t: float            # signed imaginary part of the level
    side: str
    residual: float


def _shift_fourier(values, shift):
    """Samples of x -> values(x - shift), spectrally exact."""
    modes = np.fft.fftfreq(len(values), d=1.0 / len(values))
    return np.fft.ifft(np.fft.fft(values) * np.exp(-2j * np.pi * modes * shift))


def _shift_cubic(values, shift, grid):
    """Samples of x -> values(x - shift) by periodic cubic spline."""
    xs = np.concatenate([grid, [1.0]])
    vr = np.concatenate([values.real, [values.real[0]]])
    vi = np.concatenate([values.imag, [values.imag[0]]])
    pts = np.mod(grid - shift, 1.0)
    re = CubicSpline(xs, vr, bc_type="periodic")(pts)
    im = CubicSpline(xs, vi, bc_type="periodic")(pts)
    return re + 1j * im


def invariant_section(
    member,
    grid=512,
    tol=1e-12,
    max_iter=20000,
    direction="forward",
    level=0.0,
    side="",
    interp=None,
):
    """Disk section of a complexified cocycle member on a uniform grid.

    direction='forward' computes the attracting section of the given member;
    'backward' runs the inverse cocycle (the section satisfying
    m(x) = Adisk(x)^{-1} . m(x + alpha)), used for the mirrored level.
    """
    if member.dim != 1:
        raise ValueError("sections are implemented over the 1-torus")
    if interp is None:
        interp = "cubic" if isinstance(member, _AHMember) else "fourier"
    xs = np.arange(grid) / grid
    alpha = float(member.alpha[0])
    fwd = alg.disk_coords(member.eval(xs[:, None]))
    if direction == "forward":
        # m_new(x) = Adisk(x - alpha) . m(x - alpha)
        mats = alg.disk_coords(member.eval((xs - alpha)[:, None]))
        shift = alpha
    else:
        # m_new(x) = Adisk(x)^{-1} . m(x + alpha), Adisk unimodular
        mats = alg.adj(fwd)
        shift = -alpha

    m = np.zeros(grid, dtype=complex)
    prev_update = None
    for it in range(max_iter):
        shifted = (
            _shift_fourier(m, shift)
            if interp == "fourier"
            else _shift_cubic(m, shift, xs)
        )
        new = alg.mobius_apply(mats, shifted)
        update = float(np.max(alg.hyperbolic_distance_unchecked(new, m)))
        m = new
        if update < tol and it > 0:
            break
        if prev_update is not None and update > tol * 10:
            if update > _RATIO_LIMIT * prev_update and it > 10:
                raise SlowContraction(
                    f"update ratio {update / prev_update:.6f} at iter {it}"
                )
        prev_update = update
    if np.max(np.abs(m)) >= 1.0:
        raise SlowContraction("section escaped the open disk")

    # a-posteriori residual in m(x + alpha) = Adisk(x) . m(x), every node
    lhs = (
        _shift_fourier(m, -alpha)
        if interp == "fourier"
        else _shift_cubic(m, -alpha, xs)
    )
    rhs = alg.mobius_apply(fwd, m)
    residual = float(np.max(alg.hyperbolic_distance_unchecked(lhs, rhs)))
    return DiskSection(
        grid=xs, values=m, t=level, side=side, residual=residual
    )


def section_lyapunov(member, section):
    """(tau-form, q-form) Lyapunov exponents from a converged section."""
    mats = alg.disk_coords(member.eval(section.grid[:, None]))
    taus = alg.tau(mats, section.values)
    l_tau = float(np.mean(np.log(np.abs(taus))))
    m_tilde = alg.mobius_apply(mats, section.values)
    q = (
        (1.0 - np.abs(section.values) ** 2)
        / (1.0 - np.abs(m_tilde) ** 2)
        / np.abs(taus) ** 2
    )
    l_q = float(-0.5 * np.mean(np.log(q)))
    return l_tau, l_q


def kotani_integrals(section_plus, section_minus):
    """(I+, I-, D^2) of the key-computation diagnostics.

    I_pm = mean 1/(1-|m_pm|^2) and D^2 = mean |m_plus - m_minus|^2; both
    sections live in the open disk on their native (mirrored) levels.
    """
    mp, mm = section_plus.values, section_minus.values
    i_plus = float(np.mean(1.0 / (1.0 - np.abs(mp) ** 2)))
    i_minus = float(np.mean(1.0 / (1.0 - np.abs(mm) ** 2)))
    d2 = float(np.mean(np.abs(mp - mm) ** 2))
    return i_plus, i_minus, d2


def mirrored_sections(family, t, side, grid=512, tol=1e-12):
    """(m+, m-) at levels +-t: forward on the contracting side, backward
    on the mirror."""
    sign = 1.0 if side == "upper" else -1.0
    fwd_member = family.theta_cocycle(complex(0.0, sign * t))
    bwd_member = family.theta_cocycle(complex(0.0, -sign * t))
    m_plus = invariant_section(
        fwd_member, grid=grid, tol=tol, level=sign * t, side=side
    )
    m_minus = invariant_section(
        bwd_member,
        grid=grid,
        tol=tol,
        direction="backward",
        level=-sign * t,
        side=("lower" if side == "upper" else "upper"),
    )
    return m_plus, m_minus


def u_values(family, levels, side, sigma_grid=8, x_grid=512, tol=1e-12):
    """U(t) = sigma-average of the section Lyapunov exponent per level."""
    sign = 1.0 if side == "upper" else -1.0
    sigmas = np.arange(sigma_grid) / sigma_grid
    out = {}
    for t in levels:
        vals = []
        for sigma in sigmas:
            member = family.theta_cocycle(complex(sigma, sign * t))
            sec = invariant_section(
                member, grid=x_grid, tol=tol, level=sign * t, side=side
            )
            l_tau, l_q = section_lyapunov(member, sec)
            vals.append(0.5 * (l_tau + l_q))
        out[float(t)] = float(np.mean(vals))
    return out


def u_profile(family, levels, side, sigma_grid=8, x_grid=512, tol=1e-12):
    """Affine fit (slope, intercept, relative residual) of U(t) over levels."""
    uv = u_values(family, levels, side, sigma_grid, x_grid, tol)
    ts = np.array(sorted(uv))
    us = np.array([uv[t] for t in ts])
    coef = np.polyfit(ts, us, 1)
    fit = np.polyval(coef, ts)
    scale = max(np.max(np.abs(us)), 1e-300)
    resid = float(np.max(np.abs(us - fit)) / scale)
    return float(coef[0]), float(coef[1]), resid, uv


def second_derivative_limit(s1, s2, s3, levels=(0.05, 0.025), grid=4096):
    """Richardson value of (2/t^2) * theta-average of L for the twisted flow.

    Uses the rotation-twist average identity to reduce the theta-average of
    L(R_{<l,x>} e^{t s(<l,x> - theta)}) to the explicit profile integral
    mean_theta ln((||e^{t s(theta)}|| + ||e^{t s(theta)}||^-1)/2), evaluated
    spectrally on a theta grid; extrapolation uses the two smallest levels
    with an O(t) error model.
    """
    from .cocycle import ExpSl2

    thetas = (np.arange(grid) / grid)[:, None]

    def avg(t):
        mats = ExpSl2(s1, s2, s3, t=t).eval(thetas)
        smax = alg.spectral_norm(mats)
        return float(np.mean(np.log((smax + 1.0 / smax) / 2.0)))

    vals = {float(t): (2.0 / t**2) * avg(float(t)) for t in levels}
    ts = sorted(vals, reverse=True)
    f_t, f_half = vals[ts[-2]], vals[ts[-1]]
    richardson = 2.0 * f_half - f_t
    return float(richardson), vals


def derivative_bound_check(
    family,
    theta_star,
    h=0.02,
    n=10000,
    lyap_n=100000,
    lyap_tol=1e-3,
    epsilon=None,
):
    """Compare |d rho / d theta| at theta_star against epsilon / (2 pi).

    Requires L(A_{theta_star}) < lyap_tol (the bound concerns zero-exponent
    parameters); epsilon defaults to the certified monotonicity constant,
    and Uncertified is raised when the default grid cannot certify it.
    """
    l_est = lyapunov_orbit(family.theta_cocycle(theta_star), n=lyap_n)
    if l_est.value >= lyap_tol:
        raise NotAtZeroEnergy(
            f"L = {l_est.value:.3e} >= {lyap_tol} at theta* = {theta_star}"
        )
    if epsilon is None:
        epsilon = monotonicity_constant(
            family, require_certificate=True
        ).epsilon
    var = variation_rho(family, theta_star - h, theta_star + h, n=n)
    deriv = var.deltaRho / (2.0 * h)
    return float(deriv), float(abs(epsilon) / (2.0 * np.pi))
