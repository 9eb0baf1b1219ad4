import math

import numpy as np
import pytest

from cocyclelab import cocycle as cc
from cocyclelab import lyap
from cocyclelab.trig import TrigPoly

GOLD = cc.GOLDEN_MEAN
LN54 = np.log(1.25)


def test_constant_hyperbolic_orbit():
    c = cc.Cocycle([GOLD], cc.Const(np.diag([2.0, 0.5]), dim=1))
    est = lyap.lyapunov_orbit(c, n=100)
    assert est.value == pytest.approx(np.log(2.0), abs=1e-10)
    assert est.second == pytest.approx(-np.log(2.0), abs=1e-10)


def test_rotation_model_orbit_zero():
    c = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    est = lyap.lyapunov_orbit(c, n=2000)
    assert abs(est.value) < 1e-10


def test_herman_orbit_lower_bound():
    c = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    est = lyap.lyapunov_orbit(c, n=200000)
    assert est.value >= LN54 - 3e-3
    assert est.value >= -est.error_proxy


def test_upper_bound_constant():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    c = cc.Cocycle([GOLD], cc.Const(m, dim=1))
    got = lyap.lyapunov_upper(c, 1, grid=64)
    want = np.log((1 + np.sqrt(5)) / 2)  # spectral norm of the shear
    assert got == pytest.approx(want, abs=1e-12)


def test_upper_bound_rotation_zero():
    c = cc.Cocycle([GOLD], cc.rotation_model((2,)))
    for n in [1, 4, 16]:
        assert abs(lyap.lyapunov_upper(c, n, grid=128)) < 1e-12


def test_upper_bound_subadditive_and_dominates_orbit():
    c = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    vals = [lyap.lyapunov_upper(c, n, grid=512) for n in [2, 4, 8, 16, 32, 64, 128, 256]]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-3)
    orbit = lyap.lyapunov_orbit(c, n=100000)
    assert vals[-1] >= orbit.value - 1e-3


def test_herman_average_rhs_values():
    rot_c = cc.Cocycle([GOLD], cc.Rot((1,), TrigPoly.cosine((1,), 0.4)))
    assert lyap.herman_average_rhs(rot_c) == pytest.approx(0.0, abs=1e-14)
    herm = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    assert lyap.herman_average_rhs(herm) == pytest.approx(LN54, abs=1e-12)
    const = cc.Cocycle([GOLD], cc.Const(np.diag([3.0, 1 / 3.0]), dim=1))
    assert lyap.herman_average_rhs(const) == pytest.approx(np.log(5 / 3), abs=1e-12)


def test_theta_average_rotation_zero():
    c = cc.Cocycle([GOLD], cc.Rot((1,), TrigPoly.sine((1,), 0.3)))
    avg, _ = lyap.lyapunov_theta_average(c, theta_points=8, n=4000)
    assert abs(avg) < 1e-8


def test_theta_average_identity_cocycle():
    c = cc.Cocycle([GOLD], cc.Const(np.eye(2), dim=1))
    avg, _ = lyap.lyapunov_theta_average(c, theta_points=8, n=2000)
    assert abs(avg) < 1e-10


def test_theta_average_herman_matches_rhs():
    # light version of the acceptance identity (A1 runs the full sizes)
    c = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    avg, _ = lyap.lyapunov_theta_average(c, theta_points=16, n=20000)
    assert avg == pytest.approx(LN54, rel=0.01)


def test_conjugacy_invariance():
    rng = np.random.default_rng(10)
    c = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    b = cc.Product(
        [
            cc.Rot((0,), TrigPoly.cosine((1,), 0.3)),
            cc.DiagExp(TrigPoly.sine((1,), 0.4)),
        ]
    )
    conj = c.conjugated(b)
    l0 = lyap.lyapunov_orbit(c, n=100000).value
    l1 = lyap.lyapunov_orbit(conj, n=100000).value
    assert abs(l0 - l1) <= 2e-2


def test_iterate_scaling():
    c = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    l1 = lyap.lyapunov_orbit(c, n=60000).value
    c3 = c.iterate_cocycle(3)
    l3 = lyap.lyapunov_orbit(c3, n=20000).value
    assert l3 == pytest.approx(3 * l1, rel=2e-2)


def test_nonnegativity_estimates():
    rng = np.random.default_rng(11)
    for _ in range(5):
        phi = TrigPoly.cosine((1,), rng.uniform(-0.5, 0.5))
        c = cc.Cocycle([rng.uniform(0.2, 0.8)], cc.Rot((1,), phi))
        est = lyap.lyapunov_orbit(c, n=5000)
        assert est.value >= -est.error_proxy - 1e-12


def test_lyapunov_orbit_rejects_empty_orbit():
    c = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    with pytest.raises(ValueError):
        lyap.lyapunov_orbit(c, n=0)


def _benettin_reference(mats):
    """Two-vector Benettin loop, one step at a time in plain Python.

    Returns (value, halving proxy, second) like `lyapunov_orbit`: a unit
    vector renormalized every step, plus a Gram-Schmidt second vector that
    restarts on angle collapse.
    """
    n = len(mats)
    (x1, y1), (x2, y2) = (1 + 0j, 0j), (0j, 1 + 0j)
    s1 = s2 = 0.0
    for k, ((a, b), (c, d)) in enumerate(mats.tolist()):
        x1, y1 = a * x1 + b * y1, c * x1 + d * y1
        x2, y2 = a * x2 + b * y2, c * x2 + d * y2
        g1 = math.sqrt(abs(x1) ** 2 + abs(y1) ** 2)
        x1, y1 = x1 / g1, y1 / g1
        proj = x1.conjugate() * x2 + y1.conjugate() * y2
        x2, y2 = x2 - proj * x1, y2 - proj * y1
        g2 = math.sqrt(abs(x2) ** 2 + abs(y2) ** 2)
        if g2 < 1e-8 * abs(proj):
            x2, y2, g2 = -y1, x1, 1.0
        x2, y2 = x2 / g2, y2 / g2
        s1 += math.log(g1)
        s2 += math.log(g2)
        if k + 1 == n // 2:
            s1_half = s1
    return s1 / n, abs(s1 / n - s1_half / (n // 2)), s2 / n


@pytest.mark.parametrize(
    "cocycle",
    [
        cc.Cocycle([GOLD], cc.herman(2.0, (1,))),
        cc.Family.rot_twist(cc.Cocycle([GOLD], cc.herman(1.5, (1,)))).theta_cocycle(
            0.2 + 0.05j
        ),
    ],
    ids=["herman", "complexified"],
)
def test_lyapunov_orbit_matches_benettin_reference(cocycle, monkeypatch):
    monkeypatch.setattr(cc, "_CHUNK", 4096)
    n = 3 * cc._CHUNK + 17  # three full chunks of the walk and a partial one
    x0 = np.array([0.29])
    mats = cocycle.eval(x0 + np.arange(n)[:, None] * cocycle.alpha)
    value, proxy, second = _benettin_reference(mats)
    est = lyap.lyapunov_orbit(cocycle, x0=x0, n=n)
    assert est.value == pytest.approx(value, abs=1e-12)
    assert est.error_proxy == pytest.approx(proxy, abs=1e-12)
    assert est.second == pytest.approx(second, abs=1e-12)


@pytest.mark.parametrize("n", [2**12, 2**16])
@pytest.mark.parametrize("x0", [0.1, 0.37, 0.8])
def test_lyapunov_orbit_conjugacy_invariant(n, x0):
    # the conjugate's A_n e_1 is B(x + n alpha) A_n(x) e_1, since the shear
    # B(x)^-1 fixes e_1; ||B|| < 1.3 bounds the gap by ln(1.3) / n
    c = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    conj = c.conjugated(cc.ShearU(TrigPoly.cosine((1,), 0.5)))
    a = lyap.lyapunov_orbit(c, x0=[x0], n=n).value
    b = lyap.lyapunov_orbit(conj, x0=[x0], n=n).value
    assert abs(a - b) <= 1.0 / n
