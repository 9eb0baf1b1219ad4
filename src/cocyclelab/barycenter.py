"""Conformal barycenter of finite disk measures by midpoint self-pairing.

The pairing z * w is the hyperbolic geodesic midpoint; a measure is paired
with itself (pushforward of the product measure under *) and the energy
Phi(mu) = sum w / (1 - |z|^2) strictly decreases until the measure
concentrates at the barycenter.

A finite-atom realization needs a merge policy, and it has one mechanism:
give every atom a group id, then fold each group to its weighted geodesic
combination (`_fold_runs`, Phi-nonincreasing).  The ids come from three
rules.  The pairing groups coinciding atoms and sends each atom of weight
below WEIGHT_FLOOR to its Euclidean-nearest atom above it.  Compaction
groups atoms sharing a MERGE_RADIUS/4 quantization box, then clusters them
greedily in weight order within a hyperbolic radius (Moebius-equivariant up
to weight ties), doubling the radius until at most BUDGET atoms remain.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .errors import AtomBlowup, BoundaryPoint, NoConvergence, PhiIncrease

HARD_PAIR_LIMIT = 1 << 24
WEIGHT_FLOOR = 1e-15
MERGE_RADIUS = 1e-9
BUDGET = 64
ATOM_CAP = 4096
MAX_ITER = 200
_NEAREST_BLOCK = 1 << 20  # distance entries per block of _nearest


@dataclass
class DiskMeasure:
    """Finite atomic probability measure on the open unit disk."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=complex).ravel()
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.atoms.shape != self.weights.shape:
            raise ValueError("atoms and weights length mismatch")
        if np.any(self.weights < 0):
            raise ValueError("negative weight")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        if np.any(np.abs(self.atoms) >= 1.0):
            raise BoundaryPoint("atom on or outside the unit circle")
        order = np.lexsort(
            (self.atoms.imag, self.atoms.real, -self.weights)
        )
        self.atoms = self.atoms[order]
        self.weights = self.weights[order]

    @staticmethod
    def point(z):
        return DiskMeasure(np.array([z]), np.array([1.0]))

    @staticmethod
    def uniform(atoms):
        atoms = np.asarray(atoms, dtype=complex)
        return DiskMeasure(atoms, np.full(len(atoms), 1.0 / len(atoms)))

    def pushforward(self, mat):
        """Image measure under the Moebius action of a disk-coordinates matrix."""
        return DiskMeasure(alg.mobius_apply(mat, self.atoms), self.weights.copy())

    def heaviest(self):
        return complex(self.atoms[np.argmax(self.weights)])

    def canonical_point(self):
        """Weighted geodesic fold of all atoms in invariant order.

        Moebius-equivariant up to float noise; used as the reference for
        spread measurements and stopping decisions.
        """
        z, _, _ = _fold_runs(
            self.atoms, self.weights, np.zeros(len(self.atoms), dtype=int)
        )
        return complex(z[0])

    def spread(self, ref=None):
        """(max, weighted rms) hyperbolic distance to the reference point."""
        ref = self.canonical_point() if ref is None else ref
        d = alg.hyperbolic_distance_unchecked(self.atoms, ref)
        return float(np.max(d)), float(np.sqrt(np.sum(self.weights * d * d)))


def geodesic_point(z, w, frac):
    """Point at hyperbolic fraction `frac` of the geodesic from z to w."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(z) >= 1.0) or np.any(np.abs(w) >= 1.0):
        raise BoundaryPoint("geodesic needs interior points")
    wp = (w - z) / (1.0 - np.conj(z) * w)
    r = np.abs(wp)
    fr = np.broadcast_to(np.asarray(frac, dtype=float), r.shape)
    scale = np.zeros_like(r)
    pos = r > 0
    scale[pos] = np.tanh(fr[pos] * np.arctanh(np.minimum(r[pos], 1 - 1e-16)))
    part = np.zeros_like(wp)
    part[pos] = wp[pos] / r[pos] * scale[pos]
    return (part + z) / (1.0 + np.conj(z) * part)


def hyperbolic_midpoint(z, w):
    """Midpoint of the hyperbolic geodesic from z to w; z * z = z."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(z) >= 1.0) or np.any(np.abs(w) >= 1.0):
        raise BoundaryPoint("midpoint needs interior points")
    wp = (w - z) / (1.0 - np.conj(z) * w)
    half = wp / (1.0 + np.sqrt(np.maximum(1.0 - np.abs(wp) ** 2, 0.0)))
    return (half + z) / (1.0 + np.conj(z) * half)


def phi(measure):
    """Energy Phi(mu) = sum w / (1 - |z|^2) >= 1."""
    return float(
        np.sum(measure.weights / (1.0 - np.abs(measure.atoms) ** 2))
    )


def _fold(z_keep, w_keep, z_in, w_in):
    """Weight-preserving geodesic fold; Phi-nonincreasing by convexity of
    1/(1-|z|^2) along hyperbolic geodesics."""
    total = w_keep + w_in
    frac = np.where(total > 0, w_in / np.maximum(total, 1e-300), 0.0)
    return geodesic_point(z_keep, z_in, frac), total


def _nearest(points, targets):
    """Index of the Euclidean-nearest target of each point, first on ties.

    Distances are taken in blocks of at most _NEAREST_BLOCK entries, so a
    large pairing never builds its full points x targets matrix.
    """
    rows = max(1, _NEAREST_BLOCK // len(targets))
    return np.concatenate(
        [
            np.argmin(np.abs(points[k : k + rows, None] - targets), axis=1)
            for k in range(0, len(points), rows)
        ]
    )


def pair_measures(mu, nu):
    """Pushforward of mu x nu under the midpoint pairing.

    Atom count is |mu|*|nu| (halved by symmetry when mu is nu).  Coinciding
    atoms merge, and each atom of weight below WEIGHT_FLOOR folds into its
    Euclidean-nearest atom above the floor, in one `_fold_runs` call.
    """
    n, m = len(mu.atoms), len(nu.atoms)
    if n * m > HARD_PAIR_LIMIT:
        raise AtomBlowup(f"pairing would create {n * m} atoms")
    if mu is nu:
        i, j = np.triu_indices(n)
        w = mu.weights[i] * mu.weights[j]
        w[i != j] *= 2.0
        atoms = hyperbolic_midpoint(mu.atoms[i], mu.atoms[j])
    else:
        atoms = hyperbolic_midpoint(
            np.repeat(mu.atoms, m), np.tile(nu.atoms, n)
        )
        w = np.repeat(mu.weights, m) * np.tile(nu.weights, n)
    uniq, ids = np.unique(atoms, return_inverse=True)
    small = np.bincount(ids, weights=w, minlength=len(uniq)) < WEIGHT_FLOOR
    group = np.arange(len(uniq))
    if np.any(small) and not np.all(small):
        big = np.flatnonzero(~small)
        group[small] = big[_nearest(uniq[small], uniq[big])]
    # zero scores: a group is copies of one point plus atoms below the floor,
    # so its fold order matters only far below tol, which does not pay for
    # the O(n^2) invariant tiebreak
    z, w, _ = _fold_runs(atoms, w, group[ids], scores=np.zeros(len(atoms)))
    return DiskMeasure(z, w / w.sum())


def _invariant_scores(atoms, weights):
    """Weighted distance sums: a Moebius-invariant sort tiebreaker.

    Rounded to 12 digits so frame-dependent float jitter cannot flip the
    order; residual ties occur only for genuinely symmetric configurations,
    where either choice is equivalent.
    """
    if len(atoms) > 3000:
        # fold the set of maximal-weight atoms into one invariant reference
        top = weights >= np.max(weights) * (1.0 - 1e-12)
        zs = atoms[top]
        ref, _, _ = _fold_runs(
            zs,
            np.full(len(zs), 1.0 / len(zs)),
            np.zeros(len(zs), dtype=int),
            scores=np.zeros(len(zs)),
        )
        d = alg.hyperbolic_distance_unchecked(atoms, ref[0])
    else:
        d = weights @ np.arctanh(
            np.clip(
                np.abs(atoms[:, None] - atoms[None, :])
                / np.abs(1.0 - np.conj(atoms[:, None]) * atoms[None, :]),
                0.0,
                1.0 - 1e-16,
            )
        )
    scale = max(np.max(d), 1e-300)
    return np.round(d / scale, 12)


def _order(atoms, weights, scores, ids=None):
    wr = np.round(weights / max(np.max(weights), 1e-300), 12)
    keys = [atoms.imag, atoms.real, scores, -wr]
    if ids is not None:
        keys.append(ids)
    return np.lexsort(tuple(keys))


def _fold_runs(atoms, weights, ids, scores=None):
    """Collapse each id-group to its weighted geodesic combination.

    Pairwise tree reduction, vectorized across all groups; every fold is
    Phi-nonincreasing, so the collapse is too.
    """
    if scores is None:
        scores = _invariant_scores(atoms, weights)
    order = _order(atoms, weights, scores, ids)
    z, w, cid = atoms[order], weights[order].copy(), ids[order]
    while True:
        first = np.ones(len(cid), dtype=bool)
        first[1:] = cid[1:] != cid[:-1]
        if np.all(first):
            return z, w, cid
        starts = np.where(first, np.arange(len(cid)), 0)
        runpos = np.arange(len(cid)) - np.maximum.accumulate(starts)
        right = runpos % 2 == 1
        li = np.where(right)[0] - 1
        zi, wi = _fold(z[li], w[li], z[right], w[right])
        z = z.copy()
        z[li] = zi
        w[li] = wi
        keep = ~right
        z, w, cid = z[keep], w[keep], cid[keep]


def _greedy_cluster(atoms, weights, radius, scores):
    """Group ids of a weight-ordered greedy merge within hyperbolic `radius`."""
    ids = np.full(len(atoms), -1, dtype=int)
    next_id = 0
    for idx in _order(atoms, weights, scores):
        if ids[idx] >= 0:
            continue
        live = np.flatnonzero(ids < 0)
        d = alg.hyperbolic_distance_unchecked(atoms[live], atoms[idx])
        ids[live[d <= radius]] = next_id
        next_id += 1
    return ids


def _ref_scores(atoms, ref):
    d = alg.hyperbolic_distance_unchecked(atoms, ref)
    return np.round(d / max(np.max(d), 1e-300), 12)


def _compact(measure, ref=None):
    """Fold atoms sharing a MERGE_RADIUS/4 box, then cluster to BUDGET atoms.

    The box assignment is the only non-equivariant step; it acts two orders
    below the convergence tolerance in use.
    """
    atoms, weights = measure.atoms, measure.weights
    ref = measure.canonical_point() if ref is None else ref
    box = MERGE_RADIUS / 4.0
    _, ids = np.unique(
        np.round(atoms.real / box) + 1j * np.round(atoms.imag / box),
        return_inverse=True,
    )
    atoms, weights, _ = _fold_runs(
        atoms, weights, ids, scores=_ref_scores(atoms, ref)
    )
    # invariant starting radius aimed at the budget in one pass
    radius = max(MERGE_RADIUS, measure.spread(ref)[0] / (2.0 * np.sqrt(BUDGET)))
    for _ in range(60):
        if len(atoms) <= BUDGET:
            break
        scores = _ref_scores(atoms, ref)
        ids = _greedy_cluster(atoms, weights, radius, scores)
        atoms, weights, _ = _fold_runs(atoms, weights, ids, scores=scores)
        radius *= 2.0
    return DiskMeasure(atoms, weights / weights.sum())


def conformal_barycenter(measure, tol=1e-8, return_trace=False):
    """Barycenter location by iterated self-pairing, to hyperbolic tol.

    Stops when the measure's hyperbolic diameter is below tol (or its
    weighted variance below tol^2) and returns the heaviest atom.  Raises
    PhiIncrease if the energy Phi rises across an iteration, and
    NoConvergence after MAX_ITER iterations.
    """
    mu = _compact(measure)
    trace = [phi(mu)]
    for _ in range(MAX_ITER):
        ref = mu.canonical_point()
        dmax, rms = mu.spread(ref)
        if 2.0 * dmax < tol or rms * rms < tol * tol:
            if return_trace:
                return mu.heaviest(), trace
            return mu.heaviest()
        mu = pair_measures(mu, mu)
        if len(mu.atoms) > BUDGET:
            mu = _compact(mu, ref=ref)
        if len(mu.atoms) > ATOM_CAP:
            raise AtomBlowup(f"{len(mu.atoms)} atoms despite compaction")
        trace.append(phi(mu))
        # pairing strictly decreases Phi; compaction may add O(radius)
        if trace[-1] > trace[-2] + 1e-9:
            raise PhiIncrease(
                f"Phi rose from {trace[-2]:.12g} to {trace[-1]:.12g}"
            )
    raise NoConvergence(
        f"diameter {2 * mu.spread()[0]:.3e} after {MAX_ITER} iterations",
        diameter=2 * mu.spread()[0],
    )


def load_atoms(path):
    """Read a measure from text: one 're im [weight]' triple per line."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [float(v) for v in line.replace(",", " ").split()]
            if len(parts) == 2:
                parts.append(1.0)
            rows.append(parts)
    arr = np.array(rows)
    w = arr[:, 2]
    return DiskMeasure(arr[:, 0] + 1j * arr[:, 1], w / w.sum())
