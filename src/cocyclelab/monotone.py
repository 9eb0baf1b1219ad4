"""Certification of angular monotonicity in parameter and phase directions.

The derivative of the projective angle of A_theta(x) y with respect to theta
is computed from exact expression-tree jets (never finite differences):

    g = cross(u, u') / |u|^2,   u = A_theta(x) y,   u' = (d/dtheta A) y,

in radians per unit parameter, with the convention that rotations R_theta
increase the angle.  Every member has det A = 1, so u' = B u with
B = A' adj(A), and g = u^T K B u / |u|^2 with K = [[0, 1], [-1, 0]]: a
Rayleigh quotient of H = sym(K B).  Its range over all directions y is
therefore exactly the eigenvalue pair of H, and the extreme y is adj(A)
applied to the matching eigenvector.  Only x and theta are sampled on a
grid; a certificate combines a uniform sign on that grid with a
crude-but-sound Lipschitz bound on g in x and theta obtained from
Bernstein-type coefficient norms of the tree.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .cocycle import PHASE_SHIFT, ROT_TWIST, SCHRODINGER_E, Family
from .errors import NotMonotonic, Uncertified


@dataclass
class MonotonicityReport:
    epsilon: float          # signed extremal angular speed (radians/parameter),
                            # exact over y, minimal |g| over the (x, theta) grid
    argmin: tuple           # (x, y angle in [0, pi), theta) attaining it; the
                            # y angle is that of adj(A) times H's eigenvector
    grid: tuple             # (x nodes, theta nodes)
    certified: bool
    margin: float           # Lipschitz exclusion margin in x and theta


def _speed_range(family, theta, xs):
    """Exact range of g over all directions y at one theta; xs (N,d).

    Returns (lo, hi, psi_lo, psi_hi), each (N,): the eigenvalues of H at
    each node and the projective angles in [0, pi) of the y attaining them.
    Complexified members (any nonzero imaginary part) raise ValueError.
    """
    a, da = family.theta_jet(theta, xs, order=1)[:2]
    inv = alg.adj(alg.as_real(a, "monotonicity"))
    b = alg.mul(alg.as_real(da, "monotonicity"), inv)
    # H = sym(K B) = [[p, q], [q, r]] in the entries of B
    p, r = b[..., 1, 0], -b[..., 0, 1]
    q = (b[..., 1, 1] - b[..., 0, 0]) / 2.0
    mid, rad = (p + r) / 2.0, np.hypot((p - r) / 2.0, q)
    # eigenvector angle of mid + rad, in revolutions
    top = np.arctan2(2.0 * q, p - r) / (4.0 * np.pi)
    # first columns of adj(A) R_phi are the y with A y along each eigenvector
    ys = alg.mul(inv, alg.rot(np.stack([top + 0.25, top])))[..., 0]
    psi = np.mod(np.arctan2(ys[..., 1], ys[..., 0]), np.pi)
    return mid - rad, mid + rad, psi[0], psi[1]


def _x_grid(dim, n):
    if dim == 1:
        return np.linspace(0.0, 1.0, n, endpoint=False)[:, None]
    side = max(2, int(round(n ** (1.0 / dim))))
    axes = [np.linspace(0.0, 1.0, side, endpoint=False)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _family_sup_bounds(family, theta_window):
    """(M0, M1, M2) sup bounds of A, dA/dtheta, d2A/dtheta2 on the window."""
    if family.kind in (PHASE_SHIFT, ROT_TWIST):
        return family.theta_bounds()
    if family.kind == SCHRODINGER_E:
        emax = max(abs(theta_window[0]), abs(theta_window[1]))
        m0f = np.sqrt((emax + family._v.sup_bound()) ** 2 + 2.0)
        p = family.power
        m0 = m0f**p
        m1 = p * m0f ** (p - 1)
        m2 = p * (p - 1) * m0f ** max(p - 2, 0)
        return m0, m1, m2
    raise Uncertified("no parameter bounds for this family kind")


def _lipschitz_bound(family, direction_kind, xdir=None, theta_window=(0.0, 1.0)):
    """Bound on the derivative of g along theta or a base direction xdir.

    Quotient rule with |u| >= 1/M0 (unimodularity) and |u| <= M0:
        |d_s g| <= M0^2 (3 M1 B0s + M0 B1s),
    where B0s, B1s bound |d_s A y| and |d_s dA y|, uniformly in y.  Sound
    and crude; strict families (rotation twists have g = -2 pi exactly)
    shortcut to zero.
    """
    if family.kind == ROT_TWIST:
        return 0.0  # g is identically -2 pi for rotation twists
    m0, m1, m2 = _family_sup_bounds(family, theta_window)
    if direction_kind == "theta":
        b0s, b1s = m1, m2
    else:  # base direction xdir; mixed bound via polarization
        if family.kind == PHASE_SHIFT:
            b0s = family.cocycle.expr.bounds(xdir)[1]
            wp = family.w + xdir
            wm = family.w - xdir
            b1s = 0.25 * (
                family.cocycle.expr.bounds(wp)[2]
                + family.cocycle.expr.bounds(wm)[2]
            )
        elif family.kind == SCHRODINGER_E:
            emax = max(abs(theta_window[0]), abs(theta_window[1]))
            tree = family.theta_cocycle(emax).expr
            n1 = tree.bounds(xdir)[1]
            if n1 == 0.0:
                b0s, b1s = 0.0, 0.0
            else:
                raise Uncertified("x-dependent energy family not certifiable")
        else:
            raise Uncertified("no mixed bound for this family kind")
    return (m0**2) * (3.0 * m1 * b0s + m0 * b1s)


def monotonicity_constant(
    family,
    xgrid=64,
    thetagrid=16,
    theta_window=(0.0, 1.0),
    require_certificate=False,
):
    """Extremal angular speed, exact over y and sampled over (x, theta),
    with sign check and certificate.

    Raises NotMonotonic (with a witness) on a sign change and ValueError on
    a complexified member.  When the Lipschitz margin in x and theta cannot
    exclude an off-grid sign change the report is returned uncertified, or
    Uncertified is raised if a certificate was required.
    """
    xs = _x_grid(family.dim, xgrid)
    lo, hi = theta_window
    periodic = family.kind in (PHASE_SHIFT, ROT_TWIST)
    thetas = np.linspace(lo, hi, thetagrid, endpoint=not periodic)
    if family.kind == PHASE_SHIFT:
        # theta only translates the x grid; the infimum at theta = 0 equals
        # the infimum over (x, theta)
        thetas = thetas[:1]

    g_lo, g_hi, psi_lo, psi_hi = (
        np.stack(v)  # (theta nodes, x nodes)
        for v in zip(*(_speed_range(family, float(t), xs) for t in thetas))
    )
    if np.min(g_lo) < 0.0 < np.max(g_hi):
        k, i = np.unravel_index(np.argmin(g_lo), g_lo.shape)
        raise NotMonotonic(
            "angular derivative changes sign",
            witness={
                "x": xs[i].tolist(),
                "y_angle": float(psi_lo[k, i] / np.pi),
                "theta": float(thetas[k]),
                "value": float(g_lo[k, i]),
            },
        )
    # one sign everywhere: |g| is least at the end of each range nearest 0
    g, psi = (g_lo, psi_lo) if np.min(g_lo) >= 0.0 else (g_hi, psi_hi)
    k, i = np.unravel_index(np.argmin(np.abs(g)), g.shape)
    gval = float(g[k, i])
    argmin = (tuple(xs[i]), float(psi[k, i]), float(thetas[k]))

    margin = 0.0
    certified = False
    try:
        hx = 1.0 / (len(xs) ** (1.0 / family.dim))
        lips = [
            _lipschitz_bound(family, "x", xdir=e, theta_window=theta_window)
            * hx
            / 2.0
            for e in np.eye(family.dim)
        ]
        if family.kind != PHASE_SHIFT:
            # each window point lies within (hi - lo) / halves of a node
            n = len(thetas)
            halves = 2 * n if periodic else max(2 * n - 2, 1)
            lips.append(
                _lipschitz_bound(family, "theta", theta_window=theta_window)
                * (hi - lo)
                / halves
            )
        margin = float(sum(lips))
        certified = abs(gval) > margin
    except (Uncertified, NotImplementedError):
        certified = False

    if require_certificate and not certified:
        raise Uncertified(
            f"uniform sign on the grid but margin {margin:.3g} >= "
            f"|epsilon| {abs(gval):.3g}"
        )
    return MonotonicityReport(
        epsilon=gval,
        argmin=argmin,
        grid=(len(xs), len(thetas)),
        certified=certified,
        margin=margin,
    )


def w_cone_sample(cocycle, directions, xgrid=64):
    """Per-direction monotonicity reports for phase families A(x + theta w).

    Returns {tuple(w): MonotonicityReport | NotMonotonic | Uncertified}; the
    monotone directions form an open convex cone, which callers can sanity
    check on midpoints.
    """
    out = {}
    for w in directions:
        fam = Family.phase_shift(cocycle, np.asarray(w, dtype=float))
        try:
            out[tuple(np.asarray(w, dtype=float))] = monotonicity_constant(
                fam, xgrid=xgrid, thetagrid=1
            )
        except (NotMonotonic, Uncertified) as err:
            out[tuple(np.asarray(w, dtype=float))] = err
    return out
