import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cocyclelab import cocycle as cc
from cocyclelab import monotone as mono
from cocyclelab.errors import NotMonotonic, Uncertified
from cocyclelab.trig import TrigPoly

GOLD = cc.GOLDEN_MEAN


def _angle_speed(family, theta, xs, ys):
    """g(x, y) for one theta; xs (N,d), ys (M,2) unit vectors."""
    a, da = family.theta_jet(theta, xs, order=1)[:2]
    u = np.einsum("nij,mj->nmi", a, ys)
    du = np.einsum("nij,mj->nmi", da, ys)
    cross = (u[..., 0] * du[..., 1] - u[..., 1] * du[..., 0]).real
    norm2 = (np.abs(u[..., 0]) ** 2 + np.abs(u[..., 1]) ** 2).real
    return cross / norm2


def sign_scan_oracle(family, nx=256, ny=256, ntheta=256, theta_window=(0.0, 1.0)):
    """Brute-force (x, y, theta) grid scan of g: the independent oracle for
    the certifier's closed form in y."""
    xs = mono._x_grid(family.dim, nx)
    psis = np.pi * np.arange(ny) / ny
    ys = np.stack([np.cos(psis), np.sin(psis)], axis=-1)
    lo, hi = theta_window
    gmin, gmax = np.inf, -np.inf
    for theta in np.linspace(lo, hi, ntheta, endpoint=False):
        g = _angle_speed(family, float(theta), xs, ys)
        gmin = min(gmin, float(np.min(g)))
        gmax = max(gmax, float(np.max(g)))
    return gmin, gmax


def test_rot_twist_epsilon_exact():
    base = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    rep = mono.monotonicity_constant(
        cc.Family.rot_twist(base), xgrid=32, thetagrid=8
    )
    assert rep.epsilon == pytest.approx(-2 * np.pi, abs=1e-12)
    assert abs(rep.epsilon) == pytest.approx(2 * np.pi)
    assert rep.certified


def test_phase_shift_rotation_model_epsilon():
    base = cc.Cocycle([GOLD], cc.rotation_model((2,)))
    rep = mono.monotonicity_constant(
        cc.Family.phase_shift(base, [1.0]), xgrid=32
    )
    assert rep.epsilon == pytest.approx(2 * np.pi * 2, abs=1e-10)
    assert rep.certified


def test_herman_phase_family_monotone_all_lambda():
    # exact angular speed 2 pi / (lam^2 cos^2 + lam^-2 sin^2): positive for
    # every lam, minimum 2 pi / lam^2 (brute-force scan agrees)
    for lam in [2.0, 10.0]:
        base = cc.Cocycle([GOLD], cc.herman(lam, (1,)))
        fam = cc.Family.phase_shift(base, [1.0])
        gmin, gmax = sign_scan_oracle(fam, nx=128, ny=256, ntheta=1)
        assert gmin > 0
        assert gmin == pytest.approx(2 * np.pi / lam**2, rel=1e-3)
        rep = mono.monotonicity_constant(fam, xgrid=128)
        assert rep.epsilon == pytest.approx(2 * np.pi / lam**2, rel=1e-3)


def test_not_monotonic_with_witness():
    # x-dependent diagonal stretch overpowers the rotation near its axis
    expr = cc.Product(
        [cc.DiagExp(TrigPoly.cosine((1,), 2.0)), cc.Rot((1,))]
    )
    base = cc.Cocycle([GOLD], expr)
    fam = cc.Family.phase_shift(base, [1.0])
    gmin, gmax = sign_scan_oracle(fam, nx=128, ny=128, ntheta=1)
    assert gmin < 0 < gmax  # oracle: genuine sign change
    with pytest.raises(NotMonotonic) as err:
        mono.monotonicity_constant(fam, xgrid=128)
    w = err.value.witness
    assert w["value"] < 0
    # witness location reproduces a negative derivative
    fam_g = _angle_speed(
        fam,
        w["theta"],
        np.array([w["x"]]),
        np.array([[np.cos(np.pi * w["y_angle"]), np.sin(np.pi * w["y_angle"])]]),
    )
    assert fam_g[0, 0] < 0


def test_certified_epsilon_is_lower_bound_off_grid():
    rng = np.random.default_rng(3)
    base = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    fam = cc.Family.phase_shift(base, [1.0])
    rep = mono.monotonicity_constant(fam, xgrid=64)
    assert rep.certified
    for _ in range(500):
        x = rng.uniform(0, 1, (1, 1))
        psi = rng.uniform(0, np.pi)
        y = np.array([[np.cos(psi), np.sin(psi)]])
        g = _angle_speed(fam, rng.uniform(0, 1), x, y)[0, 0]
        assert g >= rep.epsilon - rep.margin - 1e-12


def test_w_cone_rotation_model_2d():
    base = cc.Cocycle([GOLD, np.sqrt(2) - 1], cc.rotation_model((1, 0)))
    reports = mono.w_cone_sample(
        base, [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)], xgrid=1024
    )
    plus = reports[(1.0, 0.0)]
    minus = reports[(-1.0, 0.0)]
    zero = reports[(0.0, 1.0)]
    assert plus.epsilon == pytest.approx(2 * np.pi, abs=1e-10) and plus.certified
    assert minus.epsilon == pytest.approx(-2 * np.pi, abs=1e-10) and minus.certified
    assert isinstance(zero, mono.MonotonicityReport) and not zero.certified
    assert abs(zero.epsilon) < 1e-12


def test_w_cone_contains_class_and_convexity():
    base = cc.Cocycle([GOLD, np.sqrt(2) - 1], cc.rotation_model((1, 1)))
    dirs = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
    reports = mono.w_cone_sample(base, dirs, xgrid=16)
    for w in dirs:
        rep = reports[w]
        assert isinstance(rep, mono.MonotonicityReport)
        assert rep.epsilon > 0  # cone contains l and its midpoints


def test_schrodinger_never_monotone_in_phase():
    v = TrigPoly.cosine((1,), 1.0)
    base = cc.Cocycle([GOLD], cc.schrodinger(v, 0.5))
    reports = mono.w_cone_sample(base, [(1.0,), (-1.0,)], xgrid=128)
    for rep in reports.values():
        bad = isinstance(rep, NotMonotonic)
        zeroish = (
            isinstance(rep, mono.MonotonicityReport) and abs(rep.epsilon) < 1e-9
        )
        assert bad or zeroish


def test_schrodinger_second_iterate_energy_monotone():
    fam = cc.Family.schrodinger_energy(TrigPoly.zero(1), [GOLD], power=2)
    rep = mono.monotonicity_constant(
        fam,
        xgrid=1,
        thetagrid=4096,
        theta_window=(-1.0, 1.0),
    )
    # monotone window of the second iterate at v = 0; sign follows the
    # classical convention (rotation number decreases in E in our orientation)
    assert rep.certified
    assert rep.epsilon < 0
    # first iterate: g = -y0^2 <= 0 touches zero, so epsilon degenerates
    fam1 = cc.Family.schrodinger_energy(TrigPoly.zero(1), [GOLD], power=1)
    rep1 = mono.monotonicity_constant(
        fam1, xgrid=1, thetagrid=64, theta_window=(-1.0, 1.0)
    )
    assert abs(rep1.epsilon) < 1e-12 and not rep1.certified


def test_phase_translation_invariance():
    base = cc.Cocycle([GOLD], cc.herman(1.5, (1,)))
    fam = cc.Family.phase_shift(base, [1.0])
    rep0 = mono.monotonicity_constant(fam, xgrid=256)
    vals = []
    for theta in [0.0, 0.3, 0.77]:
        g = _angle_speed(
            fam,
            theta,
            mono._x_grid(1, 256),
            np.stack(
                [np.cos(np.pi * np.arange(256) / 256), np.sin(np.pi * np.arange(256) / 256)],
                axis=-1,
            ),
        )
        vals.append(np.min(g))
    assert np.max(np.abs(np.array(vals) - rep0.epsilon)) < 1e-3


def test_schrodinger_second_iterate_closed_form_epsilon():
    # at v = 0, H = [[-1, E], [E, -(E^2 + 1)]]: the upper eigenvalue
    # -(E^2 + 2)/2 + |E| sqrt(E^2/4 + 1) peaks at |E| = 1, a grid node
    fam = cc.Family.schrodinger_energy(TrigPoly.zero(1), [GOLD], power=2)
    rep = mono.monotonicity_constant(
        fam, xgrid=1, thetagrid=9, theta_window=(-1.0, 1.0)
    )
    assert rep.epsilon == pytest.approx((np.sqrt(5) - 3) / 2, abs=1e-12)
    assert abs(rep.argmin[2]) == 1.0
    assert rep.grid == (1, 9)


@seed(1618)
@settings(max_examples=25, deadline=None)
@given(st.floats(1.2, 3.0), st.floats(0.0, 0.1))
def test_speed_range_contains_y_grid_oracle(lam, a):
    # diag(lam, 1/lam) R_{x + a cos 2 pi x}: every y-grid speed lies in the
    # exact range at its node, and the grid's extremes approach its ends
    rot = cc.Rot((1,), TrigPoly.cosine((1,), a))
    expr = cc.Product([cc.Const(np.diag([lam, 1.0 / lam])), rot])
    fam = cc.Family.phase_shift(cc.Cocycle([GOLD], expr), [1.0])
    xs = mono._x_grid(1, 32)
    lo, hi, _, _ = mono._speed_range(fam, 0.0, xs)
    psis = np.pi * np.arange(8192) / 8192
    g = _angle_speed(fam, 0.0, xs, np.stack([np.cos(psis), np.sin(psis)], -1))
    gmin, gmax = g.min(axis=1), g.max(axis=1)
    assert np.all(gmin >= lo - 1e-12) and np.all(gmax <= hi + 1e-12)
    scale = np.maximum(np.abs(lo), np.abs(hi))
    assert np.all(gmin - lo <= 1e-5 * scale)
    assert np.all(hi - gmax <= 1e-5 * scale)


def test_extreme_direction_attains_the_range():
    # the returned y angles are the directions where g takes lo and hi
    herman = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    v = TrigPoly.cosine((1,), 0.7)
    cases = [
        (cc.Family.phase_shift(herman, [1.0]), 0.0),
        (cc.Family.schrodinger_energy(v, [GOLD], power=2), 0.3),
    ]
    xs = mono._x_grid(1, 16)
    for fam, theta in cases:
        lo, hi, psi_lo, psi_hi = mono._speed_range(fam, theta, xs)
        for end, psi in [(lo, psi_lo), (hi, psi_hi)]:
            assert np.all((0.0 <= psi) & (psi < np.pi))
            ys = np.stack([np.cos(psi), np.sin(psi)], -1)
            g = np.diagonal(_angle_speed(fam, theta, xs, ys))
            assert np.max(np.abs(g - end)) <= 1e-12 * np.max(np.abs(end))


def test_require_certificate():
    herman = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    with pytest.raises(Uncertified):  # x margin 19.7 > |epsilon| = pi / 2
        mono.monotonicity_constant(
            cc.Family.phase_shift(herman, [1.0]), require_certificate=True
        )
    rot = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    rep = mono.monotonicity_constant(
        cc.Family.phase_shift(rot, [1.0]), require_certificate=True
    )
    assert rep.certified and rep.epsilon == pytest.approx(2 * np.pi, abs=1e-12)


def test_complexified_member_rejected():
    # a real tree at real theta returns complex arrays with zero imaginary
    # part; a complex shift makes the imaginary part nonzero
    base = cc.Cocycle([GOLD], cc.Shift([0.05j], cc.herman(2.0)))
    with pytest.raises(ValueError):
        mono.monotonicity_constant(cc.Family.phase_shift(base, [1.0]))
