"""Asymptotically holomorphic extensions and strip-contraction certification.

The extension of a sampled 1-periodic function is the moment-kernel section

    ext(f)(sigma + i t) = integral K(x) f(sigma + t x) dx,

with K = (polynomial) * (bump) solving the moment system
integral x^k K = i^k, k = 0 .. floor(eta + 1).  In Fourier form the
extension multiplies mode m by Khat(m t), which is how it is evaluated here
(spectrally exact for the trigonometric interpolant of the samples).

Strip membership of a monotone family is certified by the exact image-disk
test at every grid node: the closed unit disk must map strictly inside the
open disk, with margin.  The measured contraction exponent eps_hat(t) feeds
the Schwarz-bound checks downstream.
"""

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from .errors import (
    DetVanishes,
    IllConditioned,
    NoContraction,
    PoleOnCircle,
    Undersampled,
)

_COND_LIMIT = 1e12


def _bump(u):
    out = np.zeros_like(u, dtype=float)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


@dataclass
class AHKernel:
    """Moment kernel K on a uniform grid over [-halfwidth, halfwidth]."""

    eta: float
    halfwidth: float
    xs: np.ndarray
    values: np.ndarray
    moment_residuals: np.ndarray = field(repr=False)

    def moment(self, k):
        return np.trapezoid(self.values * self.xs**k, self.xs)

    def fourier(self, s):
        """Khat(s) = integral K(x) e^{2 pi i s x} dx, vectorized over s."""
        s = np.asarray(s, dtype=float)
        phase = np.exp(2j * np.pi * s[..., None] * self.xs)
        return np.trapezoid(self.values * phase, self.xs, axis=-1)


def ah_kernel(eta, halfwidth=0.5, grid=257):
    """Construct the moment kernel for extension order eta >= 1.

    The polynomial degree is floor(eta + 1); the moment linear system uses
    high-resolution trapezoid quadrature (the bump's derivatives all vanish
    at the support ends, so the rule is spectrally accurate).
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    deg = int(np.floor(eta + 1.0))
    xs = np.linspace(-halfwidth, halfwidth, grid)
    bump = _bump(xs / halfwidth)
    # moment matrix M[k, j] = integral x^{k+j} bump
    powers = np.array(
        [np.trapezoid(bump * xs**p, xs) for p in range(2 * deg + 1)]
    )
    M = np.array([[powers[k + j] for j in range(deg + 1)] for k in range(deg + 1)])
    cond = np.linalg.cond(M)
    if cond > _COND_LIMIT:
        raise IllConditioned(
            f"moment system condition {cond:.2e} > {_COND_LIMIT:.0e}"
        )
    rhs = np.array([1j**k for k in range(deg + 1)])
    coef = np.linalg.solve(M, rhs)
    values = bump * np.polyval(coef[::-1], xs + 0j)
    kernel = AHKernel(
        eta=float(eta),
        halfwidth=float(halfwidth),
        xs=xs,
        values=values,
        moment_residuals=np.zeros(deg + 1),
    )
    kernel.moment_residuals = np.array(
        [abs(kernel.moment(k) - 1j**k) for k in range(deg + 1)]
    )
    return kernel


def _modes(n):
    return np.fft.fftfreq(n, d=1.0 / n)


def ah_extend_scalar(samples, kernel, sigma, t):
    """Extension of a sampled 1-periodic function at sigma + i t.

    For t >= 0 this is the kernel formula evaluated through the Fourier
    multiplier Khat(m t); for t < 0 the real-symmetric conjugate extension.
    sigma may be an array.
    """
    samples = np.asarray(samples)
    n = samples.shape[0]
    if t != 0.0 and 1.0 / n > abs(t) * float(
        2 * kernel.halfwidth / (len(kernel.xs) - 1)
    ):
        raise Undersampled(
            f"sample step 1/{n} too coarse for level {t} with this kernel"
        )
    if t < 0.0:
        return np.conj(ah_extend_scalar(np.conj(samples), kernel, sigma, -t))
    fhat = np.fft.fft(samples) / n
    m = _modes(n)
    keep = np.abs(fhat) > 1e-15 * max(np.max(np.abs(fhat)), 1e-300)
    fhat, m = fhat[keep], m[keep]
    mult = kernel.fourier(m * t)
    sigma = np.asarray(sigma, dtype=float)
    phases = np.exp(2j * np.pi * sigma[..., None] * m)
    return phases @ (fhat * mult)


class AHCocycleExtension:
    """Unimodular asymptotically holomorphic extension of sampled entries.

    Normalizes by det^(-1/2), det = ext(a) ext(d) - ext(b) ext(c), with
    the principal square root.  That root continues the branch from t = 0,
    where det = 1, only while Re(det) > 0; a point with Re(det) <= 0 raises
    DetVanishes.
    """

    def __init__(self, alpha, samples, kernel):
        samples = np.asarray(samples)
        if samples.ndim != 3 or samples.shape[1:] != (2, 2):
            raise ValueError("samples must be (G, 2, 2)")
        self.alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        self.samples = alg.as_real(samples, "AHCocycleExtension").astype(float)
        self.kernel = kernel
        self.dim = 1

    def eval_at(self, x, t):
        """Extension matrices at (x + i t) for an array of real x."""
        x = np.asarray(x, dtype=float).reshape(-1)
        ent = [
            ah_extend_scalar(self.samples[:, i, j], self.kernel, x, t)
            for i in range(2)
            for j in range(2)
        ]
        a, b, c, d = ent
        det = a * d - b * c
        if np.any(np.abs(det) < 1e-6):
            raise DetVanishes(
                f"extension determinant reached {np.min(np.abs(det)):.2e}"
            )
        if np.any(det.real <= 0):  # the principal root leaves the branch
            raise DetVanishes("extension determinant left Re(det) > 0")
        m = alg.mat2(a, b, c, d)
        return m / np.sqrt(det)[..., None, None]

    def theta_cocycle(self, theta):
        """Phase-family member at complex theta, as an evaluable cocycle."""
        return _AHMember(self, complex(theta))


class _AHMember:
    """Cocycle-like view of an AH extension at fixed complex phase shift."""

    def __init__(self, ext, theta):
        self.ext = ext
        self.theta = theta
        self.alpha = ext.alpha
        self.dim = 1

    def eval(self, x):
        x = np.asarray(x)
        shape = x.shape[:-1] if x.ndim > 1 else x.shape
        flat = x.reshape(-1) if x.ndim <= 1 else x[..., 0].reshape(-1)
        out = self.ext.eval_at(flat + self.theta.real, self.theta.imag)
        return out.reshape(shape + (2, 2))


@dataclass
class StripCertificate:
    """Certified contraction strip of a monotone family."""

    delta: float
    side: str  # 'upper' or 'lower'
    eps_hat: dict  # level t -> measured contraction exponent
    margin: float
    grid: tuple

    @property
    def sign(self):
        return 1.0 if self.side == "upper" else -1.0


def _contraction_stats(family, sigma_pts, x_pts, t_signed):
    """(worst |center|+radius, eps_hat) over the probe grid at one level."""
    worst = -np.inf
    for sigma in sigma_pts:
        member = family.theta_cocycle(complex(sigma, t_signed))
        mats = alg.disk_coords(member.eval(x_pts))
        bound = alg.disk_image_bound(mats)
        worst = max(worst, float(np.max(bound)))
    eps_hat = -np.log(worst) / (2.0 * abs(t_signed))
    return worst, eps_hat


def strip_width(
    family,
    tmax=0.2,
    sigma_grid=8,
    x_grid=128,
    margin=1e-10,
    levels=12,
):
    """Largest certified dyadic level and contracting side of a family.

    Probes both half planes by dyadic descent from tmax; a level passes when
    every (sigma, x) node maps the closed unit disk inside the open disk
    with the given margin.  Returns the certificate with measured
    contraction exponents for every passing level.
    """
    sigma_pts = np.arange(sigma_grid) / sigma_grid
    x_pts = (np.arange(x_grid) / x_grid)[:, None]
    results = {}
    for sign, side in ((1.0, "upper"), (-1.0, "lower")):
        eps = {}
        delta = 0.0
        t = tmax
        for _ in range(levels):
            try:
                worst, eps_hat = _contraction_stats(
                    family, sigma_pts, x_pts, sign * t
                )
                ok = worst < 1.0 - margin
            except (PoleOnCircle, DetVanishes, Undersampled):
                ok = False
            if ok:
                eps[t] = eps_hat
                if delta == 0.0:
                    delta = t
            elif delta > 0.0:
                # containment must persist down to 0 on a certified side
                delta = 0.0
                eps = {}
            t /= 2.0
        if delta > 0.0:
            results[side] = (delta, eps)
    if not results:
        raise NoContraction(
            f"no contracting side found down to t = {tmax / 2**(levels-1):.3g}"
        )
    side = max(results, key=lambda s: results[s][0])
    delta, eps = results[side]
    return StripCertificate(
        delta=float(delta),
        side=side,
        eps_hat=eps,
        margin=margin,
        grid=(sigma_grid, x_grid),
    )


def dbar_residual(extension_values_fn, sigma_pts, t, h=1e-3):
    """Max |dbar F| over sigma at level t, by 4th-order central differences.

    extension_values_fn(sigma_array, t) returns F(sigma + i t); this is the
    independent oracle used to measure asymptotic holomorphicity.
    """
    w = np.array([8.0, -1.0])  # 4th order: (8(f1-f-1) - (f2-f-2)) / 12h

    def deriv(axis):
        out = 0.0
        for k, wk in enumerate(w, start=1):
            if axis == 0:
                fp = extension_values_fn(sigma_pts + k * h, t)
                fm = extension_values_fn(sigma_pts - k * h, t)
            else:
                fp = extension_values_fn(sigma_pts, t + k * h)
                fm = extension_values_fn(sigma_pts, t - k * h)
            out = out + wk * (fp - fm)
        return out / (12.0 * h)

    dbar = 0.5 * (deriv(0) + 1j * deriv(1))
    return float(np.max(np.abs(dbar)))


def dbar_slope(residuals, ts):
    """Log-log slope estimates between consecutive levels."""
    r = np.asarray(residuals, dtype=float)
    t = np.asarray(ts, dtype=float)
    return np.log(r[:-1] / r[1:]) / np.log(t[:-1] / t[1:])
