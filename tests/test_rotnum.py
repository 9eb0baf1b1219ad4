import math

import numpy as np
import pytest

from cocyclelab import algebra as alg
from cocyclelab import cocycle as cc
from cocyclelab import rotnum
from cocyclelab.trig import TrigPoly

GOLD = cc.GOLDEN_MEAN


def test_delta_xi_constant_identity_path():
    gamma = lambda ts: np.broadcast_to(np.eye(2), (len(ts), 2, 2))
    assert rotnum.delta_xi(gamma, 0.2 + 0.1j, -0.3j) == pytest.approx(0.0)


def test_delta_xi_rotation_path():
    theta = 0.37
    gamma = lambda ts: alg.rot(ts * theta)
    z = 0.25 - 0.1j
    d = rotnum.delta_xi(gamma, z, z)
    assert d.real == pytest.approx(theta, abs=1e-12)
    assert d.imag == pytest.approx(0.0, abs=1e-12)


def test_delta_xi_path_independence_in_z():
    rng = np.random.default_rng(1)
    m = alg.from_disk_coords(alg.random_contracting(rng))

    def gamma(ts):
        out = np.empty((len(ts), 2, 2), dtype=complex)
        for i, t in enumerate(ts):
            out[i] = np.eye(2) * (1 - t) + t * m  # chord; stays in the set
        return out

    z0, z1 = 0.3 + 0.2j, -0.4j
    d1 = rotnum.delta_xi(gamma, z0, z1, steps=256)
    # different interior interpolation: go via 0
    mid = rotnum.delta_xi(gamma, z0, 0.0j, steps=256)
    # compose with the constant-endpoint segment from 0 to z1
    endpath = lambda ts: np.broadcast_to(m, (len(ts), 2, 2))
    tail = rotnum.delta_xi(endpath, 0.0j, z1, steps=256)
    assert abs((mid + tail) - d1) < 1e-9


def test_variation_rho_rot_twist_full_loop():
    base = cc.Cocycle([GOLD], cc.herman(1.7, (1,)))
    fam = cc.Family.rot_twist(base)
    var = rotnum.variation_rho(fam, 0.0, 1.0, n=400)
    assert abs(abs(var.deltaRho) - 1.0) <= 2.0 / var.n
    assert var.deltaRho == pytest.approx(-1.0, abs=2.0 / var.n)


def test_variation_rho_phase_shift_rotation_model():
    base = cc.Cocycle([GOLD], cc.rotation_model((2,)))
    fam = cc.Family.phase_shift(base, [1.0])
    var = rotnum.variation_rho(fam, 0.0, 1.0, n=300)
    assert var.deltaRho == pytest.approx(2.0, abs=2.0 / var.n)


def test_variation_rho_constant_family():
    base = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    fam = cc.Family.phase_shift(base, [0.0])  # theta does nothing
    var = rotnum.variation_rho(fam, 0.0, 1.0, n=100)
    assert abs(var.deltaRho) < 1e-9
    assert abs(var.deltaL) < 1e-9


def test_variation_concatenation():
    base = cc.Cocycle([GOLD], cc.herman(1.5, (1,)))
    fam = cc.Family.rot_twist(base)
    n = 500
    ab = rotnum.variation_rho(fam, 0.0, 0.35, n=n)
    bc = rotnum.variation_rho(fam, 0.35, 0.8, n=n)
    ac = rotnum.variation_rho(fam, 0.0, 0.8, n=n)
    assert abs(ab.deltaRho + bc.deltaRho - ac.deltaRho) <= 3.0 / n


def test_rho_profile_affine_phase_shift():
    base = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    fam = cc.Family.phase_shift(base, [1.0])
    n = 2000
    thetas, lift, _ = rotnum.rho_profile(fam, np.linspace(0, 1, 33), n=n)
    slope, _, resid = rotnum.affine_fit(thetas, lift)
    assert resid <= 2.0 / n
    assert slope == pytest.approx(1.0, abs=1e-2)


def test_rho_profile_monotone_rot_twist():
    base = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    fam = cc.Family.rot_twist(base)
    _, lift, _ = rotnum.rho_profile(fam, np.linspace(0, 1, 17), n=500)
    assert np.all(np.diff(lift) < 0)  # R_{-theta} decreases our rho


def test_rho_profile_rot_twist_identity_cocycle():
    base = cc.Cocycle([GOLD], cc.Const(np.eye(2), dim=1))
    fam = cc.Family.rot_twist(base)
    thetas, lift, _ = rotnum.rho_profile(fam, np.linspace(0, 0.5, 9), n=200)
    assert np.max(np.abs(lift - (-thetas))) < 1e-8


def test_fibered_rotation_constant_rotation():
    c = cc.Cocycle([GOLD], cc.Rot((0,), TrigPoly.constant(0.3)))
    val, slope = rotnum.fibered_rotation_number(c, n=2000)
    assert val == pytest.approx(0.3, abs=1e-10)
    c2 = cc.Cocycle([GOLD], cc.Rot((0,), TrigPoly.constant(0.6)))
    val2, slope2 = rotnum.fibered_rotation_number(c2, n=2000)
    assert val2 == pytest.approx(0.6, abs=1e-10)
    assert slope2 == pytest.approx(-0.4, abs=1e-10)


def test_fibered_rotation_x0_independence():
    c = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    rng = np.random.default_rng(2)
    n = 17711  # Fibonacci depth: discrepancy-optimal for the golden mean
    vals = []
    for _ in range(16):
        v, _ = rotnum.fibered_rotation_number(c, x0=rng.uniform(0, 1, 1), n=n)
        vals.append(v)
    vals = np.array(vals)
    # averaging oracle: per-start values agree mod 1 within 2/N
    circ = np.angle(np.exp(2j * np.pi * (vals - vals[0]))) / (2 * np.pi)
    assert np.max(np.abs(circ)) < 2.0 / n


def test_fibered_rotation_hyperbolic_zero():
    c = cc.Cocycle([GOLD], cc.Const(np.diag([2.0, 0.5]), dim=1))
    n = 5000
    val, slope = rotnum.fibered_rotation_number(c, n=n)
    assert min(val, 1 - val) < 2.0 / n
    assert abs(slope) < 2.0 / n


def test_homotopic_paths_equal_variation():
    base = cc.Cocycle([GOLD], cc.herman(1.5, (1,)))
    fam = cc.Family.rot_twist(base)
    n = 500
    # same endpoints, different parametrization speed: rho variation agrees
    a = rotnum.variation_rho(fam, 0.0, 0.5, n=n, steps=64)
    b1 = rotnum.variation_rho(fam, 0.0, 0.2, n=n, steps=128)
    b2 = rotnum.variation_rho(fam, 0.2, 0.5, n=n, steps=32)
    assert abs((b1.deltaRho + b2.deltaRho) - a.deltaRho) <= 3.0 / n


def test_im_re_consistency_complexified():
    # imaginary part of the variation carries L(start) - L(end)
    from cocyclelab import lyap

    base = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    fam = cc.Family.rot_twist(base)
    t = 0.04
    var = rotnum.variation_rho(fam, 0.0, 0.3, n=4000, theta_imag=t)
    # RotTwist members at fixed Im theta share L by constant conjugation,
    # so the Lyapunov difference must vanish
    assert abs(2 * np.pi * var.deltaL) < 5e-3
    c0 = fam.theta_cocycle(0.0 + 1j * t)
    c1 = fam.theta_cocycle(0.3 + 1j * t)
    l0 = lyap.lyapunov_orbit(c0, n=40000).value
    l1 = lyap.lyapunov_orbit(c1, n=40000).value
    assert abs((l0 - l1) - 2 * np.pi * var.deltaL) < 2e-2


def _angle_reference(mats, v0=(1.0, 0.0)):
    """Lift slope of the normalized orbit of v0, one step at a time."""
    vx, vy = v0
    lift = 0.0
    for (a, b), (c, d) in mats.real.tolist():
        wx, wy = a * vx + b * vy, c * vx + d * vy
        lift += math.atan2(wy * vx - wx * vy, wx * vx + wy * vy) / (2 * math.pi)
        norm = math.hypot(wx, wy)
        vx, vy = wx / norm, wy / norm
    return lift / len(mats)


def _moebius_reference(mats, z):
    """Moebius orbit z_{k+1} = mats[k] . z_k, one step at a time."""
    out = []
    for (a, b), (c, d) in mats.tolist():
        out.append(z)
        z = (a * z + b) / (c * z + d)
    return np.array(out)


@pytest.mark.parametrize(
    "expr",
    [
        cc.conjugate_expr(
            cc.Rot((0,), TrigPoly.constant(0.3)),
            cc.ShearU(TrigPoly.cosine((1,), 0.5)),
            np.array([GOLD]),
        ),
        cc.Product([cc.herman(1.2, (1,)), cc.ShearL(TrigPoly.sine((1,), 0.6))]),
    ],
    ids=["conjugated-rotation", "herman-shear"],
)
def test_fibered_rotation_matches_angle_reference(expr, monkeypatch):
    monkeypatch.setattr(cc, "_CHUNK", 4096)
    c = cc.Cocycle([GOLD], expr)
    n = 3 * cc._CHUNK + 17  # three full chunks of the walk and a partial one
    x0 = np.array([0.29])
    mats = c.eval(x0 + np.arange(n)[:, None] * c.alpha)
    want = _angle_reference(mats)
    val, slope = rotnum.fibered_rotation_number(c, x0=x0, n=n)
    assert slope == pytest.approx(want, abs=1e-12)
    assert val == pytest.approx(want % 1.0, abs=1e-12)


@pytest.mark.parametrize("theta_imag, z0", [(0.0, 1.0 + 0.0j), (0.05, 0.0j)])
def test_transport_orbit_matches_moebius_reference(theta_imag, z0, monkeypatch):
    monkeypatch.setattr(cc, "_CHUNK", 4096)
    fam = cc.Family.rot_twist(cc.Cocycle([GOLD], cc.herman(1.5, (1,))))
    n = 3 * cc._CHUNK + 17
    xs = 0.29 + np.arange(n)[:, None] * fam.alpha
    mats = alg.disk_coords(fam.eval_theta(0.2 + 1j * theta_imag, xs))
    got = rotnum._transport_orbit(mats, z0)
    # on the circle the orbit crosses expanding stretches that amplify
    # rounding in both walks: against an mpmath orbit the step loop is off by
    # up to 1.6e-12 there and the prefix products by 7.5e-12
    assert np.max(np.abs(got - _moebius_reference(mats, z0))) < 1e-10


def test_fibered_rotation_rejects_complex_input():
    fam = cc.Family.rot_twist(cc.Cocycle([GOLD], cc.herman(1.5, (1,))))
    with pytest.raises(ValueError):
        rotnum.fibered_rotation_number(fam.theta_cocycle(0.2 + 0.05j), n=100)
    with pytest.raises(ValueError):
        rotnum.fibered_rotation_number(
            fam.theta_cocycle(0.2), n=100, v0=(1.0, 1j)
        )
