"""Continued-fraction renormalization of one-frequency cocycles.

A level-n renormalization around x* is the commuting pair

    A0(x) = A_{(-1)^(n-1) q_{n-1}}(x* + beta_{n-1} x),
    A1(x) = A_{(-1)^n q_n}(x* + beta_{n-1} x),

with p_n/q_n the convergents of alpha, beta_n = (-1)^n (q_n alpha - p_n)
and alpha_n = beta_n / beta_{n-1} the Gauss-map orbit.  A normalizing map B
(B(x+1) A0(x) B(x)^{-1} = Id) turns the pair into a 1-periodic
representative over x -> x + alpha_n; representatives are unique up to
conjugacy, so rotation-model distances are reported together with the
normalizing-map construction used (polar seed path with flat ends).
"""

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from .cocycle import Cocycle, _cosh_family
from .errors import (
    ChartMiss,
    CommutationResidual,
    PeriodicityResidual,
    RationalAlpha,
)


@dataclass
class CFData:
    """Continued-fraction data of alpha in (0,1): levels 0..depth-1."""

    alpha: float
    a: np.ndarray  # partial quotients, a[n] for level n >= 1 (a[0] unused)
    p: np.ndarray
    q: np.ndarray
    beta: np.ndarray
    alphas: np.ndarray  # alpha_n = G^n(alpha)

    def level(self, n):
        """(q_{n-1}, q_n, beta_{n-1}, alpha_n) for a renormalization level."""
        return (
            int(self.q[n - 1]) if n >= 1 else 0,
            int(self.q[n]),
            float(self.beta[n - 1]) if n >= 1 else 1.0,
            float(self.alphas[n]),
        )


def continued_fraction(alpha, depth):
    """Convergents and Gauss-map orbit by the subtractive beta recurrence.

    beta_n = beta_{n-2} - a_n beta_{n-1} with a_n = floor(beta_{n-2} /
    beta_{n-1}) keeps the small quantities beta_n fully compensated (no
    q_n * alpha - p_n cancellation).  Raises RationalAlpha if a remainder
    collapses before the requested depth.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p = np.zeros(depth, dtype=np.int64)
    q = np.zeros(depth, dtype=np.int64)
    a = np.zeros(depth, dtype=np.int64)
    beta = np.zeros(depth)
    p_prev, q_prev = 1, 0  # level -1
    b_prev2, b_prev = 1.0, alpha  # beta_{-1}, beta_0
    p[0], q[0], beta[0] = 0, 1, alpha
    for n in range(1, depth):
        if b_prev < 1e-13:
            raise RationalAlpha(
                f"remainder {b_prev:.2e} at level {n}; alpha is rational "
                "to working precision"
            )
        an = int(np.floor(b_prev2 / b_prev))
        bn = b_prev2 - an * b_prev
        a[n] = an
        p[n] = an * p[n - 1] + p_prev
        q[n] = an * q[n - 1] + q_prev
        p_prev, q_prev = p[n - 1], q[n - 1]
        beta[n] = bn
        b_prev2, b_prev = b_prev, bn
    alphas = np.empty(depth)
    alphas[0] = alpha
    alphas[1:] = beta[1:] / beta[:-1]
    return CFData(alpha=alpha, a=a, p=p, q=q, beta=beta, alphas=alphas)


@dataclass
class RenormPair:
    """Commuting pair of a level-n renormalization around x*."""

    level: int
    x_star: float
    alpha_n: float
    beta_prev: float
    q_prev: int
    q_cur: int
    cocycle: Cocycle = field(repr=False)
    commutation_residual: float = 0.0

    def _iterate(self, x, steps):
        pts = (self.x_star + self.beta_prev * np.asarray(x, dtype=float))
        mats = self.cocycle.iterate(pts[:, None], steps).value()
        return alg.as_real(mats, "renormalization")

    def eval0(self, x):
        sign = -1 if self.level % 2 == 0 else 1
        return self._iterate(x, sign * self.q_prev)

    def eval1(self, x):
        sign = 1 if self.level % 2 == 0 else -1
        return self._iterate(x, sign * self.q_cur)


def commuting_pair(cocycle, cf, n, x_star=0.0, check_grid=64, tol=1e-8):
    """Level-n commuting pair; verifies the commutation identity on a grid."""
    if cocycle.dim != 1:
        raise ValueError("renormalization needs a one-frequency cocycle")
    q_prev, q_cur, beta_prev, alpha_n = cf.level(n)
    pair = RenormPair(
        level=n,
        x_star=float(x_star),
        alpha_n=alpha_n,
        beta_prev=beta_prev,
        q_prev=q_prev,
        q_cur=q_cur,
        cocycle=cocycle,
    )
    xs = np.linspace(0.0, 1.0, check_grid, endpoint=False)
    lhs = alg.mul(pair.eval1(xs + 1.0), pair.eval0(xs))
    rhs = alg.mul(pair.eval0(xs + alpha_n), pair.eval1(xs))
    res = float(np.max(alg.spectral_norm(lhs - rhs)))
    pair.commutation_residual = res
    if res > tol:
        raise CommutationResidual(
            f"commutation residual {res:.2e} > {tol:.0e} at level {n}"
        )
    return pair


def _smooth_step(u):
    """C-infinity step with flat ends on [0, 1]."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    lo = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    hi = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return lo / (lo + hi)


def _polar_2x2(m):
    """m = K @ P with K in SO(2) and P symmetric positive definite."""
    mtm = m.T @ m
    w, v = np.linalg.eigh(mtm)
    if np.any(w <= 0):
        raise ChartMiss("polar factor not positive definite")
    p = v @ np.diag(np.sqrt(w)) @ v.T
    k = alg.mul(m, alg.inv(p))
    ang = np.arctan2(k[1, 0], k[0, 0])  # projects K onto SO(2)
    logp = v @ np.diag(np.log(np.sqrt(w))) @ v.T
    return ang, logp


def _conjugate(bmap, mats, xs, shift):
    """B(x + shift) M(x) B(x)^{-1} at xs from mats = M(xs); B is unimodular."""
    head = alg.mul(bmap.eval(xs + shift), mats)
    return alg.mul(head, alg.adj(bmap.eval(xs)))


class NormalizingMap:
    """B with B(x+1) A0(x) B(x)^{-1} = Id.

    Rotation-valued pairs use the adapted construction: the affine part
    a x + b of the angle of A0 is cancelled exactly by the quadratic twist
    R_{-(a (x^2 - x)/2 + b x)}, and only the small residual oscillation is
    absorbed by a flat-ended smooth step.  This keeps the representative
    close to the rotation model whenever the pair is.  General pairs seed
    the interpolation Id -> A0(0)^{-1} through the polar decomposition
    modulated by the same step; beyond [0, 1] everything extends by
    B(x+1) = B(x) A0(x)^{-1}.
    """

    def __init__(self, pair, grid=256):
        self.pair = pair
        xs = np.linspace(0.0, 1.0, grid + 1)
        mats = pair.eval0(xs)
        smax, smin = alg.singular_values(mats)
        self.rotation_valued = float(np.max(np.abs(smax - 1.0))) < 1e-9
        if self.rotation_valued:
            col = mats[:, 0, 0] + 1j * mats[:, 1, 0]
            psi = alg.unwrap_args(col)  # angle of A0 in revolutions
            coef = np.polyfit(xs, psi, 1)
            self.aff_a, self.aff_b = float(coef[0]), float(coef[1])
            self.res_r = psi - (self.aff_a * xs + self.aff_b)
        else:
            # A0(0)^{-1}: A0 is unimodular
            self.angle, self.logp = _polar_2x2(alg.adj(mats[0]))

    def _seed_rotation(self, u):
        # angle: exact quadratic kill of the affine part, stepped residual
        quad = self.aff_a * (u * u - u) / 2.0 + self.aff_b * u
        r0 = self.res_r[0]
        return alg.rot(-(quad + _smooth_step(u) * r0))

    def _seed_polar(self, u):
        # exp(eta logp) = f I + g eta logp: logp is traceless and symmetric
        eta = _smooth_step(u)
        lp = self.logp
        f, g, _, _ = _cosh_family(eta**2 * (lp[0, 0] ** 2 + lp[0, 1] ** 2))
        ge = (g * eta)[:, None, None]
        expo = f[:, None, None] * np.eye(2) + ge * lp
        return alg.mul(alg.rot(eta * self.angle / (2.0 * np.pi)), expo)

    def eval(self, x):
        """B at arbitrary x >= 0 (recursion depth = floor(x))."""
        x = np.asarray(x, dtype=float).reshape(-1)
        base = np.clip(x, 0.0, 1.0)
        out = (
            self._seed_rotation(base)
            if self.rotation_valued
            else self._seed_polar(base)
        )
        todo = x > 1.0
        if np.any(todo):
            prev = self.eval(x[todo] - 1.0)
            a0 = self.pair.eval0(x[todo] - 1.0)
            out[todo] = alg.mul(prev, alg.adj(a0))
        return out

    def residual(self, grid=64):
        xs = np.linspace(0.0, 1.0, grid, endpoint=False)
        lhs = _conjugate(self, self.pair.eval0(xs), xs, 1.0)
        return float(np.max(alg.spectral_norm(lhs - np.eye(2))))


def normalizing_map(pair, grid=64, tol=1e-8):
    """Construct and verify the normalizing map of (1, A0)."""
    b = NormalizingMap(pair)
    res = b.residual(grid)
    if res > tol:
        raise ChartMiss(f"normalizing-map residual {res:.2e} > {tol:.0e}")
    return b


@dataclass
class SampledCocycle:
    """1-periodic cocycle given by samples on a uniform grid."""

    alpha: float
    grid: np.ndarray
    mats: np.ndarray
    periodicity_residual: float


def renorm_representative(pair, bmap=None, samples=1024, tol=1e-7):
    """Representative A(x) = B(x + alpha_n) A1(x) B(x)^{-1} on [0, 1).

    Doubles the sampling until the 1-periodicity residual passes (the
    identity is exact; the check guards float drift in long products).
    """
    if bmap is None:
        bmap = normalizing_map(pair)
    n = samples
    while True:
        xs = np.arange(n) / n
        rep = _conjugate(bmap, pair.eval1(xs), xs, pair.alpha_n)
        sub = xs[:: max(n // 64, 1)] + 1.0
        per = _conjugate(bmap, pair.eval1(sub), sub, pair.alpha_n)
        res = float(
            np.max(alg.spectral_norm(per - rep[:: max(n // 64, 1)]))
        )
        if res <= tol:
            return SampledCocycle(
                alpha=pair.alpha_n,
                grid=xs,
                mats=rep,
                periodicity_residual=res,
            )
        if n >= 16384:
            raise PeriodicityResidual(
                f"periodicity residual {res:.2e} > {tol:.0e}"
            )
        n *= 2


def sampled_degree(rep):
    """Winding of the first column of a sampled cocycle over one period."""
    col = rep.mats[:, 0, 0] + 1j * rep.mats[:, 1, 0]
    closed = np.concatenate([col, col[:1]])
    # fixed samples: max_samples = samples, so an UnwrapStep propagates
    n = len(col)
    return alg.winding(lambda _: closed, n, max_samples=n)


def rotation_distance(rep, deg, n):
    """(theta_hat, distance) against the rotation model R_{theta + (-1)^n deg x}.

    distance(theta) is the max over the grid of the spectral norm of
    R_{-theta - (-1)^n deg x} A(x) - Id, in closed form: A(x) acts as
    z -> q(x) z + r(x) conj(z) (`alg.conformal_split`), the twist multiplies
    q by exp(-2 pi i (theta + (-1)^n deg x)) and leaves |r| alone, so

        distance(theta) = max_x |q(x) e^{-2 pi i (theta + (-1)^n deg x)} - 1|
                          + |r(x)|.

    q and |r| are computed once; any set of theta is one broadcast.  A
    256-point scan picks the three lowest local minima of the scan, each is
    refined by golden-section steps over +-1/256 (the three in lockstep)
    until no bracket holds a float inside it, at most 80 steps, and the
    best wins.  Complex rep.mats raise ValueError.
    """
    q, r = alg.conformal_split(rep.mats)
    q = q * np.exp(-2j * np.pi * ((-1) ** n) * deg * rep.grid)
    r = np.abs(r)

    def dist(thetas):
        turn = np.exp(-2j * np.pi * thetas)[..., None]
        return np.max(np.abs(q * turn - 1.0) + r, axis=-1)

    thetas = np.arange(256) / 256
    vals = dist(thetas)  # the (theta x grid) table in one broadcast
    minima = np.flatnonzero(
        (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1))
    )
    ks = minima[np.argsort(vals[minima], kind="stable")[:3]]
    a, b = thetas[ks] - 1.0 / 256, thetas[ks] + 1.0 / 256
    gr = (np.sqrt(5) - 1) / 2
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = dist(c), dist(d)
    for _ in range(80):
        if np.all(np.nextafter(a, b) >= b):  # no bracket can shrink further
            break
        left = fc < fd  # keep [a, d], else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - gr * (b - a), a + gr * (b - a))
        fnew = dist(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    theta_hat = (a + b) / 2
    final = dist(theta_hat)
    j = int(np.argmin(final))
    return float(np.mod(theta_hat[j], 1.0)), float(final[j])


def renorm_cascade(cocycle, depth, x_star=0.0, samples=1024):
    """Per-level renormalization diagnostics for a one-frequency cocycle.

    Returns a list of dict rows: level, alpha_n, commutation residual,
    representative degree, theta_hat, rotation-model distance, periodicity
    residual and the representative's final sample count.
    """
    from .cocycle import homotopy_class

    cf = continued_fraction(float(cocycle.alpha[0]), depth + 1)
    deg = homotopy_class(cocycle)[0]
    rows = []
    for n in range(1, depth + 1):
        pair = commuting_pair(cocycle, cf, n, x_star=x_star)
        bmap = normalizing_map(pair)
        rep = renorm_representative(pair, bmap, samples=samples)
        theta_hat, distance = rotation_distance(rep, deg, n)
        rows.append(
            {
                "level": n,
                "alpha_n": pair.alpha_n,
                "commutation_residual": pair.commutation_residual,
                "representative_degree": sampled_degree(rep),
                "expected_degree": ((-1) ** n) * deg,
                "theta_hat": theta_hat,
                "distance": distance,
                "periodicity_residual": rep.periodicity_residual,
                "samples": len(rep.grid),
            }
        )
    return rows
