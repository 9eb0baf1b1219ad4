"""Exact 2x2 matrix algebra, Moebius actions, disk coordinates and tau-lifts.

This module is the 2x2 kernel layer of the library: `mat2` builds a stack,
`mul` multiplies, `det`, `adj` and `inv` invert, `disk_coords` conjugates
into SU(1,1), `mobius_apply` acts on the disk and `conformal_split` splits a
real matrix into its rotation and reflection parts.  Other modules call these
and do not hand-roll entrywise products, adjugates, inverses or Moebius
maps of their own.

Conventions used throughout the library:
  * rotations: rot(theta) is the rotation by 2*pi*theta radians,
  * angles and phase lifts are stored in revolutions (arg/2pi),
  * disk coordinates: disk_coords(A) = Q A Q^-1 sends SL(2,R) onto SU(1,1),
  * the hyperbolic metric on the unit disk is |dz| / (1 - |z|^2), so
    dist(0, r) = artanh(r).

All matrix functions accept stacked arrays of shape (..., 2, 2) and broadcast.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryPoint,
    DegenerateTau,
    NonIntegerWinding,
    PoleOnCircle,
    UnwrapStep,
)

# Conjugation to disk coordinates; maps SL(2,R) bijectively onto SU(1,1).
Q = (-1.0 / (1.0 + 1.0j)) * np.array([[1.0, -1.0j], [1.0, 1.0j]])
QINV = np.linalg.inv(Q)

J = np.array([[0.0, -1.0], [1.0, 0.0]])

UNWRAP_MAX_JUMP = 0.45  # revolutions; beyond this a lift is unreliable
_BOUNDARY_EPS = 1e-12


def mat2(a, b, c, d):
    """Stack four broadcastable entries into (..., 2, 2)."""
    a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape, d.shape)
    out = np.empty(shape + (2, 2), np.result_type(a, b, c, d))
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = c
    out[..., 1, 1] = d
    return out


def mul(A, B):
    """Batched 2x2 product A @ B from explicit entries (broadcasts)."""
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    e, f, g, h = B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1]
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), np.result_type(A, B))
    out[..., 0, 0] = a * e + b * g
    out[..., 0, 1] = a * f + b * h
    out[..., 1, 0] = c * e + d * g
    out[..., 1, 1] = c * f + d * h
    return out


def det(M):
    """Determinants of (..., 2, 2) matrices."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def adj(M):
    """Adjugate of (..., 2, 2) matrices: the inverse wherever det = 1."""
    return mat2(M[..., 1, 1], -M[..., 0, 1], -M[..., 1, 0], M[..., 0, 0])


def inv(M):
    """Inverse of invertible (..., 2, 2) matrices: adjugate over det."""
    M = np.asarray(M)
    return adj(M) / det(M)[..., None, None]


def as_real(M, what):
    """M as a real array; ValueError if an entry has nonzero imaginary part."""
    M = np.asarray(M)
    if np.iscomplexobj(M):
        if np.any(M.imag != 0):
            raise ValueError(f"{what} needs real values")
        M = M.real
    return M


def rot(theta):
    """Rotation by 2*pi*theta; theta may be complex (analytic continuation).

    Real theta gives float64.  Complex theta takes one complex exponential
    e = exp(2 pi i theta): cos = (e + 1/e) / 2 and sin = (e - 1/e) / 2i.
    """
    th = np.asarray(theta)
    if np.iscomplexobj(th):
        e = np.exp(2j * np.pi * th)
        ei = 1.0 / e
        c, s = 0.5 * (e + ei), -0.5j * (e - ei)
    else:
        th = 2.0 * np.pi * th
        c, s = np.cos(th), np.sin(th)
    return mat2(c, -s, s, c)


def disk_coords(A):
    """Q A Q^-1, linear in the entries of A; real unimodular input lands in
    SU(1,1)."""
    A = np.asarray(A)
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    s, t = (a + d) / 2.0, 0.5j * (b - c)
    u, w = (a - d) / 2.0, 0.5j * (b + c)
    return mat2(s + t, u - w, u + w, s - t)


def from_disk_coords(M):
    """Inverse of disk_coords."""
    return QINV @ np.asarray(M) @ Q


def mobius_apply(M, z):
    """Moebius action (az+b)/(cz+d) with Riemann-sphere conventions."""
    M = np.asarray(M)
    a, b = M[..., 0, 0], M[..., 0, 1]
    c, d = M[..., 1, 0], M[..., 1, 1]
    z = np.asarray(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(np.isinf(z)):
            num = np.where(np.isinf(z), a, a * np.where(np.isinf(z), 0, z) + b)
            den = np.where(np.isinf(z), c, c * np.where(np.isinf(z), 0, z) + d)
        else:
            num = a * z + b
            den = c * z + d
        out = num / den
    return np.where(den == 0, np.inf, out)


@dataclass(frozen=True)
class EuclideanDisk:
    """Euclidean disk in the plane; used for exact image-of-disk tests."""

    center: complex
    radius: float

    def contains_closure_in_unit_disk(self, margin=0.0):
        return abs(self.center) + self.radius < 1.0 - margin


def mobius_image_disk(M):
    """Image of the open unit disk under the Moebius action of M.

    Requires the pole -d/c outside the closed unit disk (|d| > |c|); the
    image is then the Euclidean disk with the classical center/radius
    formulas.  Raises PoleOnCircle otherwise, which signals M outside the
    interior of the contraction set.
    """
    M = np.asarray(M)
    a, b = M[..., 0, 0], M[..., 0, 1]
    c, d = M[..., 1, 0], M[..., 1, 1]
    denom = np.abs(d) ** 2 - np.abs(c) ** 2
    if np.any(np.abs(d) <= np.abs(c) + 1e-12):
        raise PoleOnCircle("unit circle meets the Moebius pole (|d| <= |c|)")
    center = (b * np.conj(d) - a * np.conj(c)) / denom
    radius = np.abs(det(M)) / denom
    if M.ndim == 2:
        return EuclideanDisk(complex(center), float(radius))
    return center, radius


def disk_image_bound(M):
    """max(|center| + radius) of the unit-disk image; batched, no dataclass."""
    center, radius = mobius_image_disk(np.asarray(M).reshape(-1, 2, 2))
    return np.abs(center) + radius


def tau(M, z, check=True):
    """Linear form tau(z) = M[1,0]*z + M[1,1] for M in disk coordinates.

    For M = [[u, conj(v)], [v, conj(u)]] in SU(1,1) this is v*z + conj(u),
    the denominator cocycle of the Moebius action.  Never zero when the
    closed disk is mapped into itself.
    """
    M = np.asarray(M)
    t = M[..., 1, 0] * np.asarray(z) + M[..., 1, 1]
    if check and np.any(np.abs(t) < 1e-14):
        raise DegenerateTau("tau vanished; matrix outside the contraction set")
    return t


def unwrap_args(seq, axis=0, max_jump=UNWRAP_MAX_JUMP):
    """Continuous lift of arg(seq)/2pi along `axis`; lift starts in [0, 1).

    Raises UnwrapStep when a consecutive ratio argument reaches `max_jump`
    revolutions: the caller must refine the sampling.
    """
    seq = np.asarray(seq, dtype=complex)
    if np.any(seq == 0):
        raise DegenerateTau("zero entry in phase sequence")
    first = np.take(seq, [0], axis=axis)
    ratios = np.take(seq, range(1, seq.shape[axis]), axis=axis) / np.take(
        seq, range(0, seq.shape[axis] - 1), axis=axis
    )
    steps = np.angle(ratios) / (2.0 * np.pi)
    if steps.size and np.max(np.abs(steps)) >= max_jump:
        raise UnwrapStep(
            f"phase jump {np.max(np.abs(steps)):.3f} rev >= {max_jump} rev"
        )
    start = np.mod(np.angle(first) / (2.0 * np.pi), 1.0)
    return np.concatenate(
        [start, start + np.cumsum(steps, axis=axis)], axis=axis
    )


def winding(sample, samples, max_samples=65536):
    """Integer winding number of a sampled closed loop.

    sample(n) returns n + 1 nonzero complex points along the loop, the last
    one closing it.  On UnwrapStep n doubles while 2n <= max_samples, else
    the error propagates; a lift endpoint farther than 0.1 from an integer
    raises NonIntegerWinding.
    """
    n = samples
    while True:
        try:
            lift = unwrap_args(sample(n))
            break
        except UnwrapStep:
            if 2 * n > max_samples:
                raise
            n *= 2
    wind = lift[-1] - lift[0]
    if abs(wind - round(wind)) > 0.1:
        raise NonIntegerWinding(f"winding {wind:.4f} not near an integer")
    return int(round(wind))


def _check_in_disk(z):
    z = np.asarray(z)
    if np.any(np.abs(z) >= 1.0 - _BOUNDARY_EPS):
        raise BoundaryPoint("point lies on the unit circle within 1e-12")
    return z


def hyperbolic_distance(z, w):
    """Geodesic distance for the metric |dz|/(1-|z|^2); dist(0,r)=artanh(r)."""
    z = _check_in_disk(z)
    w = _check_in_disk(w)
    rho = np.abs(z - w) / np.abs(1.0 - np.conj(z) * w)
    return np.arctanh(rho)


def hyperbolic_distance_unchecked(z, w):
    """Same as hyperbolic_distance but without the boundary guard (hot path)."""
    rho = np.abs(z - w) / np.abs(1.0 - np.conj(z) * w)
    # clip guards rho ~ 1 + eps from roundoff on nearly-boundary points
    return np.arctanh(np.clip(rho, 0.0, 1.0 - 1e-16))


def fixed_point_in_disk(M):
    """Attracting fixed point in the open disk of a disk-coordinates matrix.

    Solves c z^2 + (d - a) z - b = 0 and returns the root of modulus < 1.
    Used as an independent oracle for constant-cocycle invariant sections.
    """
    M = np.asarray(M)
    a, b = M[0, 0], M[0, 1]
    c, d = M[1, 0], M[1, 1]
    if abs(c) < 1e-15:
        # diagonal-ish: z = b/(d-a) or 0 when b ~ 0
        if abs(b) < 1e-15:
            return 0.0 + 0.0j
        z = b / (a - d)
        return complex(z)
    roots = np.roots([c, d - a, -b])
    inside = roots[np.abs(roots) < 1.0]
    if inside.size == 0:
        raise BoundaryPoint("no fixed point inside the open disk")
    return complex(inside[np.argmin(np.abs(inside))])


def _is_effectively_real(M):
    if not np.iscomplexobj(M):
        return True
    scale = np.max(np.abs(M.real)) if M.size else 1.0
    return np.max(np.abs(M.imag)) <= 1e-12 * max(scale, 1e-300)


def conformal_split(M):
    """(q, r) with M z = q z + r conj(z), for real (..., 2, 2) stacks M.

    Identifying R^2 with C, [[a, b], [c, d]] acts as z -> q z + r conj(z)
    with the rotation part q = ((a+d) + i(c-b))/2 and the reflection part
    r = ((a-d) + i(c+b))/2; the singular values are |q| + |r| and
    ||q| - |r||, and a rotation R_s multiplies q by exp(2 pi i s).  Complex
    input raises ValueError: the split holds for real matrices only.
    """
    M = np.asarray(M)
    if np.iscomplexobj(M):
        raise ValueError("conformal_split needs real matrices")
    a, b = M[..., 0, 0], M[..., 0, 1]
    c, d = M[..., 1, 0], M[..., 1, 1]
    q = np.empty(a.shape, complex)
    r = np.empty(a.shape, complex)
    q.real, q.imag = (a + d) / 2.0, (c - b) / 2.0
    r.real, r.imag = (a - d) / 2.0, (c + b) / 2.0
    return q, r


def singular_values(M):
    """(sigma_max, sigma_min) of (..., 2, 2) matrices.

    Real matrices use the cancellation-free `conformal_split`,
        sigma_max = |q| + |r|,  sigma_min = ||q| - |r||,
    exact for isometries; complex ones fall back to the Frobenius form.
    """
    M = np.asarray(M)
    if _is_effectively_real(M):
        q, r = conformal_split(M.real)
        q, r = np.abs(q), np.abs(r)
        return q + r, np.abs(q - r)
    f2 = np.sum(np.abs(M) ** 2, axis=(-2, -1))
    dm = np.abs(det(M))
    gap = np.sqrt(np.maximum(f2 * f2 - 4.0 * dm * dm, 0.0))
    smax = np.sqrt((f2 + gap) / 2.0)
    smin = np.sqrt(np.maximum((f2 - gap) / 2.0, 0.0))
    return smax, smin


def spectral_norm(M):
    """Largest singular value of (..., 2, 2) matrices, closed form."""
    return singular_values(M)[0]


def random_sl2r(rng, scale=1.0, size=None):
    """Random SL(2,R) matrices: rotation * diag * rotation (KAK)."""
    shape = () if size is None else (size,)
    t1 = rng.uniform(0.0, 1.0, shape)
    t2 = rng.uniform(0.0, 1.0, shape)
    s = rng.uniform(-scale, scale, shape)
    d = mat2(np.exp(s), 0.0, 0.0, np.exp(-s))
    return rot(t1) @ d @ rot(t2)


def random_su11(rng, scale=1.0, size=None):
    """Random SU(1,1) matrices via disk_coords of random SL(2,R)."""
    return disk_coords(random_sl2r(rng, scale=scale, size=size))


def random_contracting(rng, size=None, min_margin=0.05):
    """Random matrices in the interior of the contraction set.

    Built as disk_coords(R) * diag(r, 1/r) with r < 1, which shrinks the
    disk before an isometry; margin is re-checked via the exact image disk.
    """
    n = 1 if size is None else size
    out = np.empty((n, 2, 2), dtype=complex)
    k = 0
    while k < n:
        m = random_su11(rng, scale=0.8)
        r = rng.uniform(0.2, 1.0 - min_margin)
        cand = m @ np.diag([np.sqrt(r), 1 / np.sqrt(r)])
        disk = mobius_image_disk(cand)
        if disk.contains_closure_in_unit_disk(margin=min_margin / 4):
            out[k] = cand
            k += 1
    return out[0] if size is None else out
