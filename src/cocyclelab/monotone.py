"""Certification of angular monotonicity in parameter and phase directions.

The derivative of the projective angle of A_theta(x) y with respect to theta
is computed from exact expression-tree jets (never finite differences):

    g = cross(u, u') / |u|^2,   u = A_theta(x) y,   u' = (d/dtheta A) y,

in radians per unit parameter, with the convention that rotations R_theta
increase the angle.  A certificate combines a uniform sign on the grid with a
crude-but-sound Lipschitz bound on g obtained from Bernstein-type coefficient
norms of the tree.
"""

from dataclasses import dataclass

import numpy as np

from .cocycle import PHASE_SHIFT, ROT_TWIST, SCHRODINGER_E, Family
from .errors import NotMonotonic, Uncertified


@dataclass
class MonotonicityReport:
    epsilon: float          # signed extremal angular speed (radians/parameter)
    argmin: tuple           # (x, y angle, theta) attaining |g| minimum
    grid: tuple             # (x nodes, y nodes, theta nodes)
    certified: bool
    margin: float           # Lipschitz exclusion margin on the grid


def _angle_speed(family, theta, xs, ys):
    """g(x, y) for one theta; xs (N,d), ys (M,2) unit vectors."""
    a, da = family.theta_jet(theta, xs, order=1)[:2]
    u = np.einsum("nij,mj->nmi", a, ys)
    du = np.einsum("nij,mj->nmi", da, ys)
    cross = (u[..., 0] * du[..., 1] - u[..., 1] * du[..., 0]).real
    norm2 = (np.abs(u[..., 0]) ** 2 + np.abs(u[..., 1]) ** 2).real
    return cross / norm2


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
    """Bound on the derivative of g along one grid direction.

    Quotient rule with |u| >= 1/M0 (unimodularity) and |u| <= M0:
        |d_s g| <= M0^2 (3 M1 B0s + M0 B1s),
    where B0s, B1s bound |d_s A y| and |d_s dA y|.  Sound and crude; strict
    families (rotation twists have g = -2 pi exactly) shortcut to zero.
    """
    if family.kind == ROT_TWIST:
        return 0.0  # g is identically -2 pi for rotation twists
    m0, m1, m2 = _family_sup_bounds(family, theta_window)
    if direction_kind == "theta":
        b0s, b1s = m1, m2
    elif direction_kind == "y":
        b0s, b1s = m0, m1
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
    ygrid=128,
    thetagrid=16,
    theta_window=(0.0, 1.0),
    require_certificate=False,
):
    """Extremal angular speed over a grid, with sign check and certificate.

    Raises NotMonotonic (with a witness) on a sign change.  When the
    Lipschitz margin cannot exclude an off-grid sign change the report is
    returned uncertified, or Uncertified is raised if a certificate was
    required.
    """
    xs = _x_grid(family.dim, xgrid)
    psis = np.pi * np.arange(ygrid) / ygrid  # projective angles
    ys = np.stack([np.cos(psis), np.sin(psis)], axis=-1)
    lo, hi = theta_window
    periodic = family.kind in (PHASE_SHIFT, ROT_TWIST)
    thetas = np.linspace(lo, hi, thetagrid, endpoint=not periodic)
    if family.kind == PHASE_SHIFT:
        # theta only translates the x grid; the infimum at theta = 0 equals
        # the infimum over (x, theta)
        thetas = thetas[:1]

    best = None
    gmin, gmax = np.inf, -np.inf
    for theta in thetas:
        g = _angle_speed(family, float(theta), xs, ys)
        i, j = np.unravel_index(np.argmin(np.abs(g)), g.shape)
        cand = (float(np.abs(g[i, j])), float(g[i, j]), theta, i, j)
        if best is None or cand[0] < best[0]:
            best = cand
        gmin = min(gmin, float(np.min(g)))
        gmax = max(gmax, float(np.max(g)))
        if gmin < 0.0 < gmax:
            k, l = np.unravel_index(np.argmin(g), g.shape)
            raise NotMonotonic(
                "angular derivative changes sign",
                witness={
                    "x": xs[k].tolist(),
                    "y_angle": float(psis[l] / np.pi),
                    "theta": float(theta),
                    "value": float(g[k, l]),
                },
            )

    _, gval, theta_at, i, j = best
    argmin = (tuple(xs[i]), float(psis[j]), float(theta_at))
    grid = (len(xs), ygrid, len(thetas))

    margin = 0.0
    certified = False
    try:
        hx = 1.0 / (len(xs) ** (1.0 / family.dim))
        hy = np.pi / ygrid
        htheta = (hi - lo) / max(len(thetas), 1)
        lips = [
            _lipschitz_bound(family, "y", theta_window=theta_window)
            * hy
            / 2.0
        ]
        if family.kind != PHASE_SHIFT:
            lips.append(
                _lipschitz_bound(family, "theta", theta_window=theta_window)
                * htheta
                / 2.0
            )
        for axis in range(family.dim):
            e = np.zeros(family.dim)
            e[axis] = 1.0
            lips.append(
                _lipschitz_bound(
                    family, "x", xdir=e, theta_window=theta_window
                )
                * hx
                / 2.0
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
        epsilon=float(gval),
        argmin=argmin,
        grid=grid,
        certified=certified,
        margin=margin,
    )


def sign_scan_oracle(family, nx=256, ny=256, ntheta=256, theta_window=(0.0, 1.0)):
    """Brute-force sign scan of g; independent oracle for the certifier."""
    xs = _x_grid(family.dim, nx)
    psis = np.pi * np.arange(ny) / ny
    ys = np.stack([np.cos(psis), np.sin(psis)], axis=-1)
    lo, hi = theta_window
    gmin, gmax = np.inf, -np.inf
    for theta in np.linspace(lo, hi, ntheta, endpoint=False):
        g = _angle_speed(family, float(theta), xs, ys)
        gmin = min(gmin, float(np.min(g)))
        gmax = max(gmax, float(np.max(g)))
    return gmin, gmax


def w_cone_sample(cocycle, directions, xgrid=64, ygrid=128):
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
                fam, xgrid=xgrid, ygrid=ygrid, thetagrid=1
            )
        except (NotMonotonic, Uncertified) as err:
            out[tuple(np.asarray(w, dtype=float))] = err
    return out
