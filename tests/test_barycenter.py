import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cocyclelab import algebra as alg
from cocyclelab import barycenter as bc
from cocyclelab.errors import AtomBlowup, BoundaryPoint, PhiIncrease


def test_midpoint_fixed_and_half():
    assert bc.hyperbolic_midpoint(0.3 + 0.1j, 0.3 + 0.1j) == pytest.approx(
        0.3 + 0.1j
    )
    # tanh(artanh(0.8)/2) = 0.5
    assert bc.hyperbolic_midpoint(0.0j, 0.8 + 0.0j) == pytest.approx(0.5)


def test_midpoint_bisection_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        w = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        mid = bc.hyperbolic_midpoint(z, w)
        d1 = alg.hyperbolic_distance(z, mid)
        d2 = alg.hyperbolic_distance(mid, w)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert d1 + d2 == pytest.approx(alg.hyperbolic_distance(z, w), abs=1e-12)


def test_midpoint_equivariance():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        m = alg.random_su11(rng)
        z = 0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        w = 0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        lhs = alg.mobius_apply(m, bc.hyperbolic_midpoint(z, w))
        rhs = bc.hyperbolic_midpoint(
            alg.mobius_apply(m, z), alg.mobius_apply(m, w)
        )
        assert abs(lhs - rhs) < 1e-10


def test_phi_values():
    assert bc.phi(bc.DiskMeasure.point(0.0)) == pytest.approx(1.0)
    mu = bc.DiskMeasure(np.array([0.6, -0.6]), np.array([0.5, 0.5]))
    assert bc.phi(mu) == pytest.approx(1.5625)
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = 0.9 * rng.uniform(-0.7, 0.7, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
        assert bc.phi(bc.DiskMeasure.uniform(pts)) >= 1.0


def test_pair_of_diracs():
    mu = bc.DiskMeasure.point(0.3)
    nu = bc.DiskMeasure.point(-0.4 + 0.2j)
    out = bc.pair_measures(mu, nu)
    assert len(out.atoms) == 1
    assert out.atoms[0] == pytest.approx(
        bc.hyperbolic_midpoint(0.3 + 0j, -0.4 + 0.2j)
    )


def test_pairing_decreases_phi():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = 0.8 * (
            rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        ) / np.sqrt(2)
        mu = bc.DiskMeasure.uniform(pts)
        paired = bc.pair_measures(mu, mu)
        assert bc.phi(paired) <= bc.phi(mu) + 1e-12


def test_symmetric_self_pair_contains_origin():
    mu = bc.DiskMeasure(np.array([0.5 + 0.2j, -0.5 - 0.2j]), np.array([0.5, 0.5]))
    out = bc.pair_measures(mu, mu)
    k = np.argmin(np.abs(out.atoms))
    assert abs(out.atoms[k]) < 1e-15
    assert out.weights[k] == pytest.approx(0.5)


def test_barycenter_dirac_immediate():
    assert bc.conformal_barycenter(bc.DiskMeasure.point(0.3 + 0.4j)) == (
        0.3 + 0.4j
    )


def test_barycenter_symmetric_pair():
    mu = bc.DiskMeasure(np.array([0.6 + 0.2j, -0.6 - 0.2j]), np.array([0.5, 0.5]))
    assert abs(bc.conformal_barycenter(mu, tol=1e-8)) < 1e-8


def test_barycenter_equivariance_sample():
    rng = np.random.default_rng(5)
    pts = 0.7 * (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)) / np.sqrt(2)
    mu = bc.DiskMeasure.uniform(pts)
    b0 = bc.conformal_barycenter(mu, tol=1e-8)
    for _ in range(10):
        m = alg.random_su11(rng)
        bm = bc.conformal_barycenter(mu.pushforward(m), tol=1e-8)
        assert abs(bm - alg.mobius_apply(m, b0)) < 1e-7


def test_phi_of_barycenter_bounded_by_phi():
    rng = np.random.default_rng(6)
    for _ in range(5):
        pts = 0.8 * (
            rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        ) / np.sqrt(2)
        mu = bc.DiskMeasure.uniform(pts)
        b = bc.conformal_barycenter(mu, tol=1e-8)
        assert 1.0 / (1.0 - abs(b) ** 2) <= bc.phi(mu) + 1e-9


def test_phi_monotone_trace():
    rng = np.random.default_rng(7)
    pts = 0.8 * (rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)) / np.sqrt(2)
    mu = bc.DiskMeasure.uniform(pts)
    _, trace = bc.conformal_barycenter(mu, tol=1e-8, return_trace=True)
    assert np.all(np.diff(trace) <= 1e-12)
    assert trace[-1] < trace[0]  # strict decrease for a non-Dirac measure


def test_barycenter_deterministic():
    rng = np.random.default_rng(8)
    pts = 0.7 * (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)) / np.sqrt(2)
    mu1 = bc.DiskMeasure.uniform(pts)
    mu2 = bc.DiskMeasure.uniform(pts[::-1])  # same measure, scrambled input
    assert bc.conformal_barycenter(mu1) == bc.conformal_barycenter(mu2)


def test_weak_convergence_of_barycenters():
    # compactness proposition, test form: split atoms into shrinking clouds
    rng = np.random.default_rng(9)
    base = np.array([0.5 + 0.1j, -0.3 + 0.4j, 0.1 - 0.5j])
    target = bc.conformal_barycenter(bc.DiskMeasure.uniform(base), tol=1e-10)
    prev_err = np.inf
    for eps in [0.1, 0.01, 0.001]:
        cloud = np.concatenate(
            [z + eps * np.exp(2j * np.pi * np.arange(4) / 4) for z in base]
        )
        b = bc.conformal_barycenter(bc.DiskMeasure.uniform(cloud), tol=1e-10)
        err = abs(b - target)
        assert err < max(2 * eps, 1e-6)
        prev_err = err


def test_atom_blowup_guard():
    rng = np.random.default_rng(10)
    pts = 0.5 * (rng.uniform(-1, 1, 5000) + 1j * rng.uniform(-1, 1, 5000)) / 2
    mu = bc.DiskMeasure.uniform(pts)
    with pytest.raises(AtomBlowup):
        bc.pair_measures(mu, mu)


def test_boundary_guards():
    with pytest.raises(BoundaryPoint):
        bc.DiskMeasure(np.array([1.0 + 0j]), np.array([1.0]))
    with pytest.raises(BoundaryPoint):
        bc.hyperbolic_midpoint(1.0 + 0j, 0.0j)


def test_load_atoms(tmp_path):
    p = tmp_path / "atoms.txt"
    p.write_text("# re im weight\n0.5 0.1 2\n-0.3 0.2 1\n0.0 0.0\n")
    mu = bc.load_atoms(p)
    assert len(mu.atoms) == 3
    assert mu.weights.sum() == pytest.approx(1.0)
    assert mu.weights.max() == pytest.approx(0.5)


def test_phi_increase_raises_typed_error(monkeypatch):
    mu = bc.DiskMeasure(np.array([0.5 + 0.2j, -0.5 - 0.2j]), np.array([0.5, 0.5]))
    # a pairing that pushes mass toward the boundary raises Phi
    monkeypatch.setattr(bc, "pair_measures", lambda a, b: bc.DiskMeasure.point(0.9))
    with pytest.raises(PhiIncrease):
        bc.conformal_barycenter(mu)


def _reference_pair(mu, nu):
    """The pairing with the sequential merge: sum exact duplicates, then fold
    each atom below the floor, in turn, into the nearest atom above it.

    Returns atoms, normalized weights and each atom's absorbed share of its
    final weight (0 for an atom that absorbed nothing).
    """
    if mu is nu:
        i, j = np.triu_indices(len(mu.atoms))
        w = mu.weights[i] * mu.weights[j]
        w[i != j] *= 2.0
        atoms = bc.hyperbolic_midpoint(mu.atoms[i], mu.atoms[j])
    else:
        m = len(nu.atoms)
        atoms = bc.hyperbolic_midpoint(
            np.repeat(mu.atoms, m), np.tile(nu.atoms, len(mu.atoms))
        )
        w = np.repeat(mu.weights, m) * np.tile(nu.weights, len(mu.atoms))
    atoms, inv = np.unique(atoms, return_inverse=True)
    w = np.bincount(inv, weights=w, minlength=len(atoms))
    small = w < bc.WEIGHT_FLOOR
    own = w
    if np.any(small) and not np.all(small):
        big_atoms, big_weights = atoms[~small].copy(), w[~small].copy()
        own = big_weights.copy()
        for z, wz in zip(atoms[small], w[small]):
            k = np.argmin(np.abs(big_atoms - z))
            total = big_weights[k] + wz
            big_atoms[k] = bc.geodesic_point(big_atoms[k], z, wz / total)
            big_weights[k] = total
        atoms, w = big_atoms, big_weights
    return atoms, w / w.sum(), 1.0 - own / w


def _random_measure(rng, size, tiny):
    """`size` atoms in |z| < 0.9; `tiny` of them carry weight near 1e-9, so
    their self-pairings fall below the floor."""
    z = 0.9 * np.sqrt(rng.uniform(size=size)) * np.exp(
        2j * np.pi * rng.uniform(size=size)
    )
    w = rng.uniform(0.5, 1.5, size)
    w[:tiny] *= 10.0 ** rng.uniform(-10, -8, tiny)
    return bc.DiskMeasure(z, w / w.sum())


def _assert_matches_reference(out, ref_atoms, ref_weights, absorbed):
    assert len(out.atoms) == len(ref_atoms)
    match = np.argmin(np.abs(out.atoms[:, None] - ref_atoms[None, :]), axis=1)
    assert len(set(match)) == len(match)
    # same groups: every weight agrees to 1e-12 relative
    assert np.all(
        np.abs(out.weights - ref_weights[match]) <= 1e-12 * ref_weights[match]
    )
    # `_fold_runs` folds a group as a tree, the reference in sequence; the
    # two orders differ at first order in the atom's absorbed share of mass
    # (measured at most 0.035 of it), and not at all where nothing folded
    gap = np.abs(out.atoms - ref_atoms[match])
    assert np.all(gap <= 1e-12 + absorbed[match])


@seed(1310)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 14), st.integers(0, 14))
def test_pair_merge_matches_sequential_reference(s, size, tiny):
    rng = np.random.default_rng(s)
    mu = _random_measure(rng, size, min(tiny, size))
    nu = _random_measure(rng, max(size // 2, 1), min(tiny, size) // 2)
    for a, b in ((mu, mu), (mu, nu)):
        out = bc.pair_measures(a, b)
        _assert_matches_reference(out, *_reference_pair(a, b))
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert bc.phi(out) <= (bc.phi(a) + bc.phi(b)) / 2 + 1e-12


def test_pair_merge_matches_reference_across_nearest_blocks():
    rng = np.random.default_rng(11)
    mu = _random_measure(rng, 64, 32)
    nu = _random_measure(rng, 64, 32)
    out = bc.pair_measures(mu, nu)
    # 1024 atoms below the floor against 3072 above: several blocks
    assert 1024 * 3072 > 2 * bc._NEAREST_BLOCK
    _assert_matches_reference(out, *_reference_pair(mu, nu))
    assert len(out.atoms) == 3072
    assert bc.phi(out) <= (bc.phi(mu) + bc.phi(nu)) / 2 + 1e-12
