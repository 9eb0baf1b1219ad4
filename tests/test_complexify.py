import numpy as np
import pytest

from cocyclelab import algebra as alg
from cocyclelab import cocycle as cc
from cocyclelab import complexify as cx
from cocyclelab.errors import DetVanishes, NoContraction, Undersampled
from cocyclelab.trig import TrigPoly

GOLD = cc.GOLDEN_MEAN


def test_kernel_moments():
    for eta in [1.0, 2.0, 3.0]:
        K = cx.ah_kernel(eta)
        deg = int(np.floor(eta + 1))
        for k in range(deg + 1):
            assert abs(K.moment(k) - 1j**k) < 1e-8
    # eta = 1 explicit values 1, i, -1
    K = cx.ah_kernel(1.0)
    assert K.moment(0) == pytest.approx(1.0, abs=1e-8)
    assert K.moment(1) == pytest.approx(1j, abs=1e-8)
    assert K.moment(2) == pytest.approx(-1.0, abs=1e-8)
    # eta = 2 includes k = 3 -> -i
    K2 = cx.ah_kernel(2.0)
    assert K2.moment(3) == pytest.approx(-1j, abs=1e-8)


def test_extension_of_constant():
    K = cx.ah_kernel(1.0)
    f = np.full(16384, 0.7)
    for t in [0.0, 0.05, -0.08]:
        out = cx.ah_extend_scalar(f, K, np.array([0.1, 0.9]), t)
        assert np.allclose(out, 0.7, atol=1e-10)


def test_extension_taylor_matches_analytic():
    K = cx.ah_kernel(1.0)
    G = 65536
    f = np.cos(2 * np.pi * np.arange(G) / G)
    sig = np.linspace(0, 1, 33)
    for t in [1e-2, 5e-3]:
        got = cx.ah_extend_scalar(f, K, sig, t)
        want = np.cos(2 * np.pi * (sig + 1j * t))
        # matches analytic continuation to O(t^{floor(eta+1)})
        assert np.max(np.abs(got - want)) < 50 * t**2


def test_extension_real_symmetry():
    K = cx.ah_kernel(2.0)
    G = 16384
    f = np.cos(2 * np.pi * np.arange(G) / G) + 0.3 * np.sin(
        4 * np.pi * np.arange(G) / G
    )
    sig = np.linspace(0, 1, 17)
    up = cx.ah_extend_scalar(f, K, sig, 0.03)
    dn = cx.ah_extend_scalar(f, K, sig, -0.03)
    assert np.max(np.abs(dn - np.conj(up))) < 1e-12


def test_undersampled_guard():
    K = cx.ah_kernel(1.0)
    f = np.cos(2 * np.pi * np.arange(64) / 64)
    with pytest.raises(Undersampled):
        cx.ah_extend_scalar(f, K, np.array([0.0]), 0.05)


def test_dbar_slope_measures_kernel_order():
    # the floor(eta+1) moment kernel gives residual O(t^{floor(eta)+1});
    # kernel order floor(eta) is the guaranteed lower bound
    G = 32768
    f = np.cos(2 * np.pi * np.arange(G) / G)
    ts = [0.1, 0.05, 0.025]
    for eta, want in [(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]:
        K = cx.ah_kernel(eta)
        fn = lambda s, t: cx.ah_extend_scalar(f, K, s, t)
        res = [cx.dbar_residual(fn, np.linspace(0, 1, 17), t) for t in ts]
        slopes = cx.dbar_slope(res, ts)
        assert np.max(np.abs(slopes - want)) < 0.3
        # the O(t^{floor(eta)}) bound of the definition holds a fortiori
        for r, t in zip(res, ts):
            assert r <= 30 * t ** np.floor(eta)


def test_eta_improves_extension_error():
    G = 32768
    f = np.cos(2 * np.pi * np.arange(G) / G)
    sig = np.linspace(0, 1, 33)
    t = 0.02
    errs = []
    for eta in [1.0, 2.0, 3.0]:
        K = cx.ah_kernel(eta)
        got = cx.ah_extend_scalar(f, K, sig, t)
        errs.append(np.max(np.abs(got - np.cos(2 * np.pi * (sig + 1j * t)))))
    assert errs[0] > errs[1] > errs[2]


def _sampled_rotation(G=32768, amp=0.1):
    xs = np.arange(G) / G
    expr = cc.Rot((1,), TrigPoly.cosine((1,), amp))
    return xs, expr, expr.eval(xs[:, None]).real


def test_ah_cocycle_matches_analytic_tree():
    xs, expr, samples = _sampled_rotation()
    K = cx.ah_kernel(2.0)
    ext = cx.AHCocycleExtension([GOLD], samples, K)
    x_eval = np.linspace(0, 1, 65)
    t = 0.02
    got = ext.eval_at(x_eval, t)
    want = expr.eval((x_eval + 1j * t)[:, None])
    assert np.max(np.abs(got - want)) < 1e-4


def test_ah_cocycle_t_zero_and_det():
    xs, expr, samples = _sampled_rotation(G=4096)
    K = cx.ah_kernel(1.0)
    ext = cx.AHCocycleExtension([GOLD], samples, K)
    got = ext.eval_at(xs[:64], 0.0)
    assert np.max(np.abs(got - samples[:64])) < 1e-10
    det = np.linalg.det(got)
    assert np.max(np.abs(det - 1.0)) < 1e-10


def test_ah_cocycle_det_off_half_plane_raises(monkeypatch):
    xs, expr, samples = _sampled_rotation(G=4096)
    ext = cx.AHCocycleExtension([GOLD], samples, cx.ah_kernel(1.0))
    extend = cx.ah_extend_scalar
    # every entry times i: det = -1, where the principal root is i and no
    # longer continues the branch from det = 1
    monkeypatch.setattr(cx, "ah_extend_scalar", lambda *a: 1j * extend(*a))
    with pytest.raises(DetVanishes):
        ext.eval_at(xs[:64], 0.0)


def test_ah_cocycle_real_symmetry():
    xs, expr, samples = _sampled_rotation(G=16384)
    K = cx.ah_kernel(2.0)
    ext = cx.AHCocycleExtension([GOLD], samples, K)
    x_eval = np.linspace(0, 1, 17)
    up = ext.eval_at(x_eval, 0.04)
    dn = ext.eval_at(x_eval, -0.04)
    assert np.max(np.abs(dn - np.conj(up))) < 1e-12


def test_strip_rotation_model_phase():
    base = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    fam = cc.Family.phase_shift(base, [1.0])
    cert = cx.strip_width(fam, tmax=0.1, sigma_grid=4, x_grid=64)
    assert cert.side == "lower"
    assert cert.delta == pytest.approx(0.1)
    # diagonal closed form: image radius e^{-4 pi t}, eps_hat = 2 pi
    t = 0.05
    member = fam.theta_cocycle(complex(0.0, -t))
    mats = alg.disk_coords(member.eval((np.arange(32) / 32)[:, None]))
    bound = alg.disk_image_bound(mats)
    assert np.max(np.abs(bound - np.exp(-4 * np.pi * t))) < 1e-12
    assert cert.eps_hat[0.05] == pytest.approx(2 * np.pi, rel=1e-10)


def test_strip_rot_twist_herman():
    base = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    fam = cc.Family.rot_twist(base)
    cert = cx.strip_width(fam, tmax=0.16, sigma_grid=4, x_grid=64)
    assert cert.side == "upper"
    assert cert.delta >= 0.1
    assert cert.eps_hat[cert.delta] == pytest.approx(2 * np.pi, rel=1e-9)


def test_strip_schrodinger_energy_no_contraction():
    fam = cc.Family.schrodinger_energy(TrigPoly.zero(1), [GOLD], power=1)
    with pytest.raises(NoContraction):
        cx.strip_width(fam, tmax=0.05, sigma_grid=4, x_grid=8, levels=6)


def test_strip_certificate_stable_under_grid_doubling():
    base = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    fam = cc.Family.phase_shift(base, [1.0])
    c1 = cx.strip_width(fam, tmax=0.2, sigma_grid=2, x_grid=64)
    c2 = cx.strip_width(fam, tmax=0.2, sigma_grid=2, x_grid=128)
    assert c1.side == c2.side == "lower"
    assert c2.delta >= c1.delta / 2.0
