import numpy as np
import pytest

from cocyclelab import algebra as alg
from cocyclelab import cocycle as cc
from cocyclelab import renorm as rn
from cocyclelab.errors import RationalAlpha
from cocyclelab.trig import TrigPoly

GOLD = cc.GOLDEN_MEAN


def test_continued_fraction_golden():
    cf = rn.continued_fraction(GOLD, 6)
    assert list(cf.q) == [1, 1, 2, 3, 5, 8]
    assert np.allclose(cf.alphas, GOLD, atol=1e-12)
    assert np.max(np.abs(cf.beta - GOLD ** (np.arange(6) + 1))) < 1e-12


def test_continued_fraction_rational_guard():
    with pytest.raises(RationalAlpha):
        rn.continued_fraction(0.5, 6)


def test_beta_inverse_identity():
    cf = rn.continued_fraction(GOLD, 8)
    for n in range(1, 7):
        qp, qc, bp, an = cf.level(n)
        assert abs(1.0 / bp - (qc + an * qp)) < 1e-10


def test_commuting_pair_rotation_closed_form():
    c = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    cf = rn.continued_fraction(GOLD, 7)
    x_star = 0.2
    for n in [1, 2, 3, 4]:
        pair = rn.commuting_pair(c, cf, n, x_star=x_star)
        assert pair.commutation_residual <= 1e-10
        xs = np.linspace(0, 1, 9)
        got = pair.eval1(xs)
        qsgn = pair.q_cur if n % 2 == 0 else -pair.q_cur
        ys = x_star + pair.beta_prev * xs
        if qsgn >= 0:
            ang = qsgn * ys + qsgn * (qsgn - 1) * GOLD / 2.0
        else:
            q = -qsgn
            ang = -(q * (ys - q * GOLD) + q * (q - 1) * GOLD / 2.0)
        want = alg.rot(ang)
        assert np.max(np.abs(got - want)) < 1e-10


def test_pipeline_stays_rotation_valued():
    phi = TrigPoly.cosine((1,), 0.1)
    c = cc.Cocycle([GOLD], cc.Rot((1,), phi))
    cf = rn.continued_fraction(GOLD, 6)
    for n in [1, 3, 5]:
        pair = rn.commuting_pair(c, cf, n)
        bmap = rn.normalizing_map(pair)
        rep = rn.renorm_representative(pair, bmap, samples=512)
        for mats in [pair.eval0(np.linspace(0, 1, 33)), rep.mats]:
            smax, _ = alg.singular_values(np.asarray(mats).real)
            assert np.max(np.abs(smax - 1.0)) <= 1e-9


def test_normalizing_map_constant_rotation():
    # constant pair: residual at machine precision, B rotation-valued
    c = cc.Cocycle([GOLD], cc.Rot((0,), TrigPoly.constant(0.27)))
    cf = rn.continued_fraction(GOLD, 4)
    pair = rn.commuting_pair(c, cf, 2)
    bmap = rn.normalizing_map(pair)
    assert bmap.residual() <= 1e-12
    smax, _ = alg.singular_values(bmap.eval(np.linspace(0, 2, 21)))
    assert np.max(np.abs(smax - 1)) < 1e-12


def test_normalizing_map_identity_cocycle():
    c = cc.Cocycle([GOLD], cc.Const(np.eye(2), dim=1))
    cf = rn.continued_fraction(GOLD, 4)
    pair = rn.commuting_pair(c, cf, 2)
    bmap = rn.normalizing_map(pair)
    assert np.max(np.abs(bmap.eval(np.linspace(0, 2, 11)) - np.eye(2))) < 1e-12


def test_normalizing_map_generic_pair():
    c = cc.Cocycle([GOLD], cc.herman(1.5, (1,)))
    cf = rn.continued_fraction(GOLD, 5)
    pair = rn.commuting_pair(c, cf, 2)
    bmap = rn.normalizing_map(pair)
    assert not bmap.rotation_valued
    assert bmap.residual() <= 1e-8


def _seed_polar_loop(bmap, u):
    """Plain reference: the polar seed path by one eigh per sample."""
    eta = rn._smooth_step(u)
    out = np.empty((len(u), 2, 2))
    for i, e in enumerate(eta):
        c, s = np.cos(e * bmap.angle), np.sin(e * bmap.angle)
        w, v = np.linalg.eigh(e * bmap.logp)
        out[i] = np.array([[c, -s], [s, c]]) @ (v @ np.diag(np.exp(w)) @ v.T)
    return out


@pytest.mark.parametrize("lam, level", [(1.5, 2), (2.0, 3), (1.2, 4)])
def test_seed_polar_matches_eigh_loop(lam, level):
    c = cc.Cocycle([GOLD], cc.herman(lam, (1,)))
    cf = rn.continued_fraction(GOLD, level + 2)
    bmap = rn.NormalizingMap(rn.commuting_pair(c, cf, level))
    assert not bmap.rotation_valued
    u = np.linspace(0.0, 1.0, 257)
    got, want = bmap._seed_polar(u), _seed_polar_loop(bmap, u)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert bmap.residual() <= 1e-8


def test_representative_periodic_and_degree_flip():
    phi = TrigPoly.cosine((1,), 0.1)
    c = cc.Cocycle([GOLD], cc.Rot((1,), phi))
    cf = rn.continued_fraction(GOLD, 7)
    for n in [1, 2, 3, 4]:
        pair = rn.commuting_pair(c, cf, n)
        rep = rn.renorm_representative(pair, samples=512)
        assert rep.periodicity_residual <= 1e-7
        assert rn.sampled_degree(rep) == (-1) ** n * 1


def test_rotation_distance_exact_model():
    xs = np.arange(512) / 512
    n = 3
    theta0 = 0.37
    mats = alg.rot(theta0 + ((-1) ** n) * 1 * xs).real
    rep = rn.SampledCocycle(GOLD, xs, mats, 0.0)
    theta_hat, dist = rn.rotation_distance(rep, 1, n)
    assert dist <= 1e-10
    assert abs(theta_hat - theta0) <= 1e-8


CASCADE_FIXTURE = [
    # pilot distances for R_{x + 0.1 cos 2 pi x}, golden alpha, x* = 0
    0.2691263247,
    0.2154947891,
    0.0461876472,
    0.0058519231,
    0.0003718609,
]


def test_cascade_distances_decrease():
    c = cc.Cocycle([GOLD], cc.Rot((1,), TrigPoly.cosine((1,), 0.1)))
    rows = rn.renorm_cascade(c, 5)
    dists = [r["distance"] for r in rows]
    for k in range(1, len(dists)):
        assert dists[k] <= 1.1 * dists[k - 1]
    for got, want in zip(dists, CASCADE_FIXTURE):
        assert got == pytest.approx(want, rel=1e-3)
    for r in rows:
        assert r["representative_degree"] == r["expected_degree"]
        assert r["commutation_residual"] <= 1e-8


def test_cascade_on_exact_model():
    m = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    rows = rn.renorm_cascade(m, 3)
    for r in rows:
        assert r["distance"] <= 1e-10


def _rotation_distance_brute(rep, deg, n):
    """Plain reference: spectral-norm scan of the twisted grid, 256 points,
    then 80 golden-section steps around the best one."""
    model_deg = ((-1) ** n) * deg

    def dist(theta):
        twist = alg.rot(-theta - model_deg * rep.grid)
        off = alg.mul(twist, rep.mats) - np.eye(2)
        return float(np.max(alg.spectral_norm(off)))

    thetas = np.arange(256) / 256
    k = int(np.argmin([dist(t) for t in thetas]))
    a, b = thetas[k] - 1.0 / 256, thetas[k] + 1.0 / 256
    gr = (np.sqrt(5) - 1) / 2
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = dist(c), dist(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = dist(d)
    theta_hat = (a + b) / 2
    return float(np.mod(theta_hat, 1.0)), dist(theta_hat), dist


@pytest.mark.parametrize("x_star", [0.0, 0.3])
def test_rotation_distance_matches_brute_force(x_star):
    c = cc.Cocycle([GOLD], cc.Rot((1,), TrigPoly.cosine((1,), 0.1)))
    rows = rn.renorm_cascade(c, 6, x_star=x_star)
    cf = rn.continued_fraction(GOLD, 7)
    for row in rows:
        n = row["level"]
        pair = rn.commuting_pair(c, cf, n, x_star=x_star)
        rep = rn.renorm_representative(pair, rn.normalizing_map(pair))
        assert row["samples"] == len(rep.grid) >= 1024
        _, want, dist = _rotation_distance_brute(rep, 1, n)
        assert abs(row["distance"] - want) <= 1e-10
        assert row["distance"] <= want + 1e-12
        # the closed form is the spectral-norm distance at theta_hat
        assert abs(dist(row["theta_hat"]) - row["distance"]) <= 1e-12


def test_rotation_distance_rejects_complex_mats():
    xs = np.arange(64) / 64
    mats = alg.rot(0.2 + xs).astype(complex)
    rep = rn.SampledCocycle(GOLD, xs, mats, 0.0)
    with pytest.raises(ValueError):
        rn.rotation_distance(rep, 1, 2)
