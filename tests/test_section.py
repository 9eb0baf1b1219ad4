import numpy as np
import pytest

from cocyclelab import algebra as alg
from cocyclelab import cocycle as cc
from cocyclelab import complexify as cx
from cocyclelab import section as sec
from cocyclelab.errors import NotAtZeroEnergy, Uncertified
from cocyclelab.trig import TrigPoly

GOLD = cc.GOLDEN_MEAN
LN54 = np.log(1.25)


def rotation_phase_member(t_signed, l=(1,)):
    base = cc.Cocycle([GOLD], cc.rotation_model(l))
    fam = cc.Family.phase_shift(base, [1.0])
    return fam.theta_cocycle(complex(0.0, t_signed))


def test_rotation_model_section_is_zero():
    member = rotation_phase_member(-0.05)
    s = sec.invariant_section(member, grid=128, level=-0.05, side="lower")
    assert np.max(np.abs(s.values)) < 1e-14
    assert s.residual < 1e-14


def test_constant_hyperbolic_section_matches_fixed_point():
    # constant contracting matrix: section = attracting Moebius fixed point
    # (phase complexification contracts on the lower side)
    m_const = cc.herman(2.0, (1,)).eval(np.array([0.13 - 0.02j]))
    c = cc.Cocycle([GOLD], cc.Const(m_const, dim=1))
    fam = cc.Family.phase_shift(c, [0.0])
    member = fam.theta_cocycle(0.0)
    s = sec.invariant_section(member, grid=64)
    want = alg.fixed_point_in_disk(alg.disk_coords(m_const))
    assert np.max(np.abs(s.values - want)) < 1e-10


def test_section_residual_below_tolerance_random_monotone():
    rng = np.random.default_rng(5)
    for _ in range(3):
        phi = TrigPoly.cosine((1,), rng.uniform(-0.3, 0.3)) + TrigPoly.sine(
            (2,), rng.uniform(-0.2, 0.2)
        )
        base = cc.Cocycle([GOLD], cc.Rot((1,), phi))
        fam = cc.Family.phase_shift(base, [1.0])
        member = fam.theta_cocycle(complex(0.0, -0.04))
        s = sec.invariant_section(member, grid=256, tol=1e-12)
        assert s.residual <= 1e-10


def test_section_lyapunov_rotation_model_closed_form():
    for t in [0.02, 0.05]:
        member = rotation_phase_member(-t)
        s = sec.invariant_section(member, grid=128, level=-t, side="lower")
        l_tau, l_q = sec.section_lyapunov(member, s)
        assert l_tau == pytest.approx(2 * np.pi * t, abs=1e-8)
        assert l_q == pytest.approx(2 * np.pi * t, abs=1e-8)


def test_tau_q_agreement():
    hbase = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    rt = cc.Family.rot_twist(hbase)
    member = rt.theta_cocycle(complex(0.25, 0.03))
    s = sec.invariant_section(member, grid=512)
    l_tau, l_q = sec.section_lyapunov(member, s)
    assert abs(l_tau - l_q) < 1e-6


def test_section_lyapunov_dominates_real_exponent():
    # upper-semicontinuity direction at probe resolution
    from cocyclelab.lyap import lyapunov_orbit

    hbase = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    ps = cc.Family.phase_shift(hbase, [1.0])
    member = ps.theta_cocycle(complex(0.0, -0.02))
    s = sec.invariant_section(member, grid=512)
    l_tau, _ = sec.section_lyapunov(member, s)
    real_l = lyapunov_orbit(hbase, n=100000).value
    assert l_tau >= real_l - 1e-2


def test_kotani_rotation_model():
    base = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    fam = cc.Family.phase_shift(base, [1.0])
    for t in [0.1, 0.05, 0.025, 0.0125]:
        mp, mm = sec.mirrored_sections(fam, t, "lower", grid=128)
        ip, im_, d2 = sec.kotani_integrals(mp, mm)
        assert ip == pytest.approx(1.0, abs=1e-6)
        assert im_ == pytest.approx(1.0, abs=1e-6)
        assert d2 <= 1e-10
        assert ip >= 1.0 - 1e-12 and im_ >= 1.0 - 1e-12


HERMAN_I_PLUS = {
    # regression fixture from the pilot run (grid 1024, tol 1e-12)
    0.1: 1.628777,
    0.05: 1.847462,
    0.025: 2.336572,
    0.0125: 3.344756,
}


def test_kotani_herman_fixture_and_monotonicity():
    hbase = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    ps = cc.Family.phase_shift(hbase, [1.0])
    got = {}
    for t in [0.1, 0.05, 0.025, 0.0125]:
        mp, mm = sec.mirrored_sections(ps, t, "lower", grid=1024)
        ip, im_, d2 = sec.kotani_integrals(mp, mm)
        got[t] = ip
        assert ip == pytest.approx(HERMAN_I_PLUS[t], rel=1e-3)
        assert ip >= 1.0 and im_ >= 1.0
    ts = sorted(got, reverse=True)
    vals = [got[t] for t in ts]
    assert np.all(np.diff(vals) > 0)  # strictly increasing as t decreases


def test_kotani_dichotomy_rotation_vs_herman():
    # rotation-valued: I+ + I- stays within factor 2 of the t=0.1 value;
    # herman (L > 0): the sum grows monotonically as t decreases
    base = cc.Cocycle([GOLD], cc.Rot((1,), TrigPoly.cosine((1,), 0.2)))
    fam = cc.Family.phase_shift(base, [1.0])
    sums = []
    for t in [0.1, 0.05, 0.025, 0.0125]:
        mp, mm = sec.mirrored_sections(fam, t, "lower", grid=512)
        ip, im_, _ = sec.kotani_integrals(mp, mm)
        sums.append(ip + im_)
    assert np.max(sums) <= 2.0 * sums[0]

    hbase = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    hfam = cc.Family.phase_shift(hbase, [1.0])
    hsums = []
    for t in [0.1, 0.05, 0.025, 0.0125]:
        mp, mm = sec.mirrored_sections(hfam, t, "lower", grid=512)
        ip, im_, _ = sec.kotani_integrals(mp, mm)
        hsums.append(ip + im_)
    assert np.all(np.diff(hsums) > 0)


def test_u_profile_rotation_model_exact():
    base = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    fam = cc.Family.phase_shift(base, [1.0])
    slope, intercept, resid, uv = sec.u_profile(
        fam, [0.02, 0.04, 0.06], "lower", sigma_grid=2, x_grid=128
    )
    assert slope == pytest.approx(2 * np.pi, rel=1e-9)
    assert abs(intercept) < 1e-9
    assert resid < 1e-9


def test_u_profile_herman_rot_twist():
    hbase = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    rt = cc.Family.rot_twist(hbase)
    slope, intercept, resid, uv = sec.u_profile(
        rt, [0.02, 0.04, 0.06, 0.08, 0.10], "upper", sigma_grid=4, x_grid=256
    )
    assert resid <= 1e-3
    assert abs(slope) == pytest.approx(2 * np.pi, rel=0.02)
    assert intercept == pytest.approx(LN54, rel=0.01)
    ts = sorted(uv)
    vals = [uv[t] for t in ts]
    assert np.all(np.array(vals) >= 0.0)
    assert np.all(np.diff(vals) > 0)  # U nondecreasing in t


def test_second_derivative_limit_values():
    z = TrigPoly.zero(1)
    r, _ = sec.second_derivative_limit(
        TrigPoly.cosine((1,)), z, z, levels=(0.05, 0.025)
    )
    assert r == pytest.approx(0.5, rel=0.05)
    r_so2, _ = sec.second_derivative_limit(
        z, z, TrigPoly.sine((1,)), levels=(0.05, 0.025)
    )
    assert abs(r_so2) <= 1e-4
    r_s2, _ = sec.second_derivative_limit(
        z, TrigPoly.sine((1,)), z, levels=(0.05, 0.025)
    )
    assert r_s2 == pytest.approx(0.5, rel=0.05)


def test_schwarz_bound_on_certified_levels():
    hbase = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    rt = cc.Family.rot_twist(hbase)
    cert = cx.strip_width(rt, tmax=0.16, sigma_grid=4, x_grid=64)
    uv = sec.u_values(rt, [0.02, 0.08], cert.side, sigma_grid=2, x_grid=256)
    for t, u in uv.items():
        assert u >= 0.9 * cert.eps_hat[t] * t


def test_derivative_bound_check():
    base = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    fam = cc.Family.phase_shift(base, [1.0])
    deriv, thresh = sec.derivative_bound_check(fam, 0.2, h=0.02, n=4000)
    assert thresh == pytest.approx(1.0, abs=1e-9)
    assert abs(deriv) >= thresh - 5e-3

    hbase = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    hfam = cc.Family.phase_shift(hbase, [1.0])
    with pytest.raises(NotAtZeroEnergy):
        sec.derivative_bound_check(hfam, 0.1, lyap_n=20000)


def test_derivative_bound_check_needs_certified_epsilon():
    # L = 0 and monotone with epsilon = 2 pi (1 - 0.3 pi) ~ 0.361, but the
    # default grid's x margin exceeds it: no certified epsilon to compare with
    base = cc.Cocycle([GOLD], cc.Rot((1,), TrigPoly.cosine((1,), 0.15)))
    fam = cc.Family.phase_shift(base, [1.0])
    with pytest.raises(Uncertified):
        sec.derivative_bound_check(fam, 0.2, lyap_n=20000)
    eps = 2 * np.pi * (1 - 0.3 * np.pi)
    _, thresh = sec.derivative_bound_check(
        fam, 0.2, n=4000, lyap_n=20000, epsilon=eps
    )
    assert thresh == pytest.approx(1 - 0.3 * np.pi, abs=1e-12)


def test_rot_twist_derivative_bound_rotation_valued():
    base = cc.Cocycle([GOLD], cc.Rot((1,), TrigPoly.cosine((1,), 0.15)))
    fam = cc.Family.rot_twist(base)
    deriv, thresh = sec.derivative_bound_check(fam, 0.3, h=0.02, n=4000)
    assert thresh == pytest.approx(1.0, abs=1e-12)
    assert abs(deriv) >= 1.0 - 0.01


def test_ah_member_section():
    # sections also run on asymptotically holomorphic sampled cocycles
    G = 32768
    xs = np.arange(G) / G
    expr = cc.Rot((1,), TrigPoly.cosine((1,), 0.1))
    samples = expr.eval(xs[:, None]).real
    ext = cx.AHCocycleExtension([GOLD], samples, cx.ah_kernel(2.0))
    member = ext.theta_cocycle(complex(0.0, -0.04))
    s = sec.invariant_section(member, grid=256, tol=1e-10)
    assert s.residual < 1e-6
    # compare against the analytic-tree section
    fam = cc.Family.phase_shift(cc.Cocycle([GOLD], expr), [1.0])
    member2 = fam.theta_cocycle(complex(0.0, -0.04))
    s2 = sec.invariant_section(member2, grid=256)
    assert np.max(np.abs(s.values - s2.values)) < 1e-4
