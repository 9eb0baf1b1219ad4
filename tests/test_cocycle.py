import json

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cocyclelab import algebra as alg
from cocyclelab import cocycle as cc
from cocyclelab.errors import Overflow
from cocyclelab.trig import TrigPoly

GOLD = cc.GOLDEN_MEAN


def random_expr(rng, dim=1):
    """Random analytic expression tree with a couple of layers."""
    phi = TrigPoly.cosine((1,) * dim, rng.uniform(-0.4, 0.4)) + TrigPoly.sine(
        (1,) * dim, rng.uniform(-0.4, 0.4)
    )
    p = TrigPoly.cosine((1,) * dim, rng.uniform(-0.5, 0.5))
    q = TrigPoly.sine((1,) * dim, rng.uniform(-0.8, 0.8))
    nodes = [
        cc.Rot(tuple(rng.integers(-2, 3, dim)), phi),
        cc.DiagExp(p),
        cc.ShearU(q),
        cc.Const(alg.random_sl2r(rng), dim=dim),
    ]
    return cc.Product(nodes)


def test_rot_constant_phase():
    expr = cc.Rot((0,), TrigPoly.constant(0.3))
    for x in [0.0, 0.4, -1.7]:
        assert np.allclose(expr.eval(np.array([x])), alg.rot(0.3), atol=1e-15)


def test_rotation_model_eval():
    expr = cc.rotation_model((2, -1))
    x = np.array([0.13, 0.41])
    m = expr.eval(x)
    angle = 2 * x[0] - x[1]
    assert np.allclose(m, alg.rot(angle), atol=1e-14)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert det == pytest.approx(1.0, abs=1e-15)


def test_builders_values():
    h = cc.herman(2.0, (1,))
    assert np.allclose(h.eval(np.array([0.0])), np.diag([2.0, 0.5]), atol=1e-15)
    s = cc.schrodinger(TrigPoly.zero(1), 2.0)
    assert np.allclose(
        s.eval(np.array([0.37])), np.array([[2.0, -1.0], [1.0, 0.0]]), atol=1e-14
    )


def test_exp_family_inverse_pair():
    s1 = TrigPoly.cosine((1,))
    s2 = TrigPoly.sine((1,), 0.4)
    z = TrigPoly.zero(1)
    a = cc.exp_family(s1, s2, z, 0.3)
    b = cc.exp_family(s1, s2, z, -0.3)
    x = np.linspace(0, 1, 17)[:, None]
    prod = a.eval(x) @ b.eval(x)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_real_evaluation_unimodular_and_real():
    rng = np.random.default_rng(1)
    for _ in range(20):
        expr = random_expr(rng)
        x = rng.uniform(0, 1, (40, 1))
        m = expr.eval(x)
        assert np.max(np.abs(m.imag)) < 1e-14
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-12


def test_cauchy_riemann_residual():
    # analytic continuation: centered 8th-order FD d/d(conj z) residual
    rng = np.random.default_rng(2)
    expr = random_expr(rng)
    z0 = np.array([0.3 + 0.05j])
    h = 1e-2
    w = np.array([3 / 4, -3 / 20, 1 / 60])

    def d_along(direction):
        out = 0.0
        for k, wk in enumerate(w, start=1):
            out = out + wk * (
                expr.eval(z0 + direction * k * h) - expr.eval(z0 - direction * k * h)
            )
        return out / h

    dbar = 0.5 * (d_along(1.0) + 1j * d_along(1j))
    assert np.max(np.abs(dbar)) < 1e-6


def test_eval_overflow_guard():
    expr = cc.DiagExp(TrigPoly.cosine((1,), 1.0))
    with pytest.raises(Overflow):
        expr.eval(np.array([0.0 + 200.0j]))


def test_iterate_identity_and_closed_form():
    c = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    sm = c.iterate(np.array([0.2]), 0)
    assert np.allclose(sm.value(), np.eye(2))
    n = 57
    x = 0.2
    sm = c.iterate(np.array([x]), n)
    angle = n * x + n * (n - 1) * GOLD / 2.0
    assert np.max(np.abs(sm.value() - alg.rot(angle))) < 1e-10


def test_iterate_cocycle_identity():
    rng = np.random.default_rng(3)
    c = cc.Cocycle([GOLD], random_expr(rng))
    x = np.array([0.11])
    for m, n in [(3, 4), (10, 7), (1, 25)]:
        lhs = c.iterate(x, m + n).value()
        rhs = c.iterate(x + n * c.alpha, m).value() @ c.iterate(x, n).value()
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-9


def test_iterate_inverse_identity():
    # deep compositions need a conditioned cocycle (L ~ 0); a hyperbolic one
    # loses the contracting scale to rounding once e^{2nL} passes 1/eps
    phi = TrigPoly.cosine((1,), 0.3) + TrigPoly.sine((2,), 0.2)
    c = cc.Cocycle([GOLD], cc.Rot((1,), phi))
    x = np.array([0.37])
    for n in [1, 10, 100, 10000]:
        prod = c.iterate(x, -n).matmul(c.iterate(x - n * c.alpha, n))
        assert abs(prod.log_scale) < 1e-8
        assert np.max(np.abs(prod.value() - np.eye(2))) < 1e-8


def test_iterate_inverse_identity_hyperbolic_shallow():
    rng = np.random.default_rng(4)
    c = cc.Cocycle([GOLD], random_expr(rng))
    x = np.array([0.37])
    for n in [1, 5, 20]:
        prod = c.iterate(x, -n).matmul(c.iterate(x - n * c.alpha, n))
        assert np.max(np.abs(prod.value() - np.eye(2))) < 1e-8


def _mp_herman_log_norm(x, n, lam, alpha):
    """ln ||A_n(x)|| of Herman's diag(lam, 1/lam) R_x at 80 digits."""
    with mp.workdps(80):
        d = mp.matrix([[lam, 0], [0, 1 / mp.mpf(lam)]])
        p = mp.eye(2)
        for k in range(n):
            t = 2 * mp.pi * (mp.mpf(x) + k * mp.mpf(alpha))
            p = d * mp.matrix([[mp.cos(t), -mp.sin(t)], [mp.sin(t), mp.cos(t)]]) * p
        frob = sum(p[i, j] ** 2 for i in range(2) for j in range(2))
        det = abs(p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])
        return float(mp.log((mp.sqrt(frob + 2 * det) + mp.sqrt(frob - 2 * det)) / 2))


def test_iterate_hyperbolic_matches_mpmath():
    # past n = 64 the contracting singular value is below rounding of det(m);
    # a determinant "repair" built from det(m) then corrupts the product
    c = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    xs = np.arange(4) / 4.0
    for n in (64, 128):
        got = c.iterate(xs, n).log_norm()
        want = [_mp_herman_log_norm(x, n, 2.0, GOLD) for x in xs]
        assert np.max(np.abs(got - want)) < 1e-9


@seed(2718)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 100))
def test_cocycle_identity_property(s, n, m):
    # 64 points give chunks of _CHUNK // 64 = 64 steps, so n and n + m cross
    # chunk boundaries of the orbit walk.  alpha and x are multiples of 2^-20,
    # so x + k alpha is exact and A_m(x + n alpha) sees the same points as
    # A_{n+m}(x): a hyperbolic product would amplify point rounding.
    rng = np.random.default_rng(s)
    c = cc.Cocycle([np.round(GOLD * 2**20) / 2**20], random_expr(rng))
    x = rng.integers(0, 2**20, (64, 1)) / 2**20
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "_CHUNK", 4096)
        lhs = c.iterate(x, n + m)
        a_m, a_n = c.iterate(x + n * c.alpha, m), c.iterate(x, n)
    rhs = a_m.matmul(a_n)
    # rounding is relative to ||A_m|| ||A_n||, the natural scale of the product
    ref = a_m.log_norm() + a_n.log_norm()
    diff = (
        np.exp(lhs.log_scale - ref)[:, None, None] * lhs.m
        - np.exp(rhs.log_scale - ref)[:, None, None] * rhs.m
    )
    assert np.max(np.abs(diff)) < 1e-10


def test_homotopy_class_examples():
    assert cc.homotopy_class(cc.rotation_model((2, -1))) == (2, -1)
    assert cc.homotopy_class(cc.herman(3.0, (1,)), samples=4096) == (1,)
    v = TrigPoly.cosine((1,), 0.7)
    assert cc.homotopy_class(cc.schrodinger(v, 1.3)) == (0,)


def test_homotopy_class_conjugation_invariant():
    rng = np.random.default_rng(5)
    a = cc.Cocycle([GOLD], cc.herman(2.0, (1,)))
    for _ in range(5):
        b = random_expr(rng)
        conj = a.conjugated(b)
        assert cc.homotopy_class(conj, samples=4096) == (1,)


def test_jets_match_finite_differences():
    rng = np.random.default_rng(6)
    s1 = TrigPoly.cosine((1,), 0.4)
    s2 = TrigPoly.sine((1,), 0.3)
    z = TrigPoly.zero(1)
    exprs = [
        cc.Rot((1,), TrigPoly.cosine((1,), 0.2)),
        cc.DiagExp(TrigPoly.cosine((1,), 0.5)),
        cc.ShearL(TrigPoly.sine((1,), 0.7)),
        cc.ExpSl2(s1, s2, z, t=0.8),
        random_expr(rng),
    ]
    h = 1e-4
    u = np.array([1.0])
    for expr in exprs:
        x = np.array([[0.23]])
        val, d1, d2 = expr.jet(x, u, order=2)
        fp = expr.eval(x + h * u)
        fm = expr.eval(x - h * u)
        fd1 = (fp - fm) / (2 * h)
        fd2 = (fp - 2 * expr.eval(x) + fm) / h**2
        assert np.max(np.abs(d1 - fd1)) < 1e-6
        assert np.max(np.abs(d2 - fd2)) < 1e-4


def test_bounds_dominate_samples():
    rng = np.random.default_rng(7)
    u = np.array([1.0])
    xs = rng.uniform(0, 1, (200, 1))
    for _ in range(10):
        expr = random_expr(rng)
        m0, m1, m2 = expr.bounds(u)
        val, d1, d2 = expr.jet(xs, u, order=2)
        assert np.max(alg.spectral_norm(val)) <= m0 + 1e-9
        assert np.max(alg.spectral_norm(d1)) <= m1 + 1e-9
        assert np.max(alg.spectral_norm(d2)) <= m2 + 1e-9


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    c = cc.Cocycle([GOLD], random_expr(rng))
    path = tmp_path / "cocycle.json"
    c.save(path)
    c2 = cc.Cocycle.load(path)
    assert c.to_json() == c2.to_json()
    x = rng.uniform(0, 1, (20, 1))
    assert np.array_equal(c.eval(x), c2.eval(x))


def test_json_builder_shorthand(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(
        json.dumps({"builder": "herman", "lambda": 2.0, "l": [1], "alpha": [GOLD]})
    )
    c = cc.Cocycle.load(path)
    assert np.allclose(c.eval(np.array([0.0])), np.diag([2.0, 0.5]))


def test_family_kinds():
    base = cc.Cocycle([GOLD], cc.rotation_model((1,)))
    ps = cc.Family.phase_shift(base, [1.0])
    x = np.array([[0.2]])
    assert np.allclose(ps.eval_theta(0.3, x)[0], alg.rot(0.5), atol=1e-14)
    rt = cc.Family.rot_twist(base)
    assert np.allclose(
        rt.eval_theta(0.3, x)[0], alg.rot(-0.3) @ alg.rot(0.2), atol=1e-14
    )
    assert rt.fiber_degree() == -1
    assert ps.fiber_degree() == 1


def test_family_theta_jet_matches_fd():
    base = cc.Cocycle([GOLD], cc.herman(1.5, (1,)))
    x = np.array([[0.37]])
    h = 1e-5
    for fam in [
        cc.Family.phase_shift(base, [1.0]),
        cc.Family.rot_twist(base),
        cc.Family.schrodinger_energy(TrigPoly.cosine((1,), 0.3), [GOLD], power=2),
    ]:
        val, d1 = fam.theta_jet(0.21, x, order=1)
        fd = (fam.eval_theta(0.21 + h, x) - fam.eval_theta(0.21 - h, x)) / (2 * h)
        assert np.max(np.abs(d1 - fd)) < 1e-6


def _sequential_prefix(steps):
    """Prefix products A[k] ... A[0] by a plain loop, rescaled at each step.

    The loop runs in extended precision where the platform has it: a
    float64 loop over a few thousand hyperbolic steps already drifts by
    1e-12 of the product's norm, more than the scan does.
    """
    steps = steps.astype(np.clongdouble if np.iscomplexobj(steps) else np.longdouble)
    m = np.empty_like(steps)
    ls = np.zeros(steps.shape[:-2], np.longdouble)
    p, scale = np.broadcast_to(np.eye(2, dtype=steps.dtype), steps.shape[1:]), 0.0
    for k, a in enumerate(steps):
        p = a @ p
        peak = np.max(np.abs(p), axis=(-2, -1))
        p = p / peak[..., None, None]
        scale = scale + np.log(peak)
        m[k], ls[k] = p, scale
    return m, ls


@pytest.mark.parametrize("c", [1, 2, 3, 31, 32, 33, 100, 1025, 4097])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["scalar", "batch3"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_orbit_products_matches_sequential_loop(c, batch, kind):
    # a chunk of c steps, then a single-block and a multi-block chunk that
    # both start from a carry
    rng = np.random.default_rng(c)
    shape = (c + 40,) + batch
    lam = np.exp(rng.uniform(-0.4, 0.4, shape))
    steps = alg.rot(rng.uniform(0.0, 1.0, shape)) @ alg.mat2(lam, 0.0, 0.0, 1.0 / lam)
    if kind == "complex":
        steps = steps @ alg.rot(0.05j * rng.uniform(-1.0, 1.0, shape))
    want_m, want_ls = _sequential_prefix(steps)
    chunks = list(cc.orbit_products([steps[:c], steps[c : c + 7], steps[c + 7 :]]))
    assert [len(a) for a, _ in chunks] == [c, 7, 33]
    got_m = np.concatenate([p.m for _, p in chunks])
    got_ls = np.concatenate([p.log_scale for _, p in chunks])
    assert got_m.dtype == steps.dtype
    diff = np.exp(got_ls - want_ls)[..., None, None] * got_m - want_m
    norm = np.max(np.abs(want_m), axis=(-2, -1))
    assert np.max(np.max(np.abs(diff), axis=(-2, -1)) / norm) < 1e-12


@seed(1310)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dtype_rule_and_json_round_trip(s):
    rng = np.random.default_rng(s)
    expr = random_expr(rng)
    x = rng.uniform(-1.0, 2.0, (16, 1))
    a = expr.eval(x)
    assert a.dtype == np.float64
    # the same points as complex numbers continue the same values
    ac = expr.eval(x.astype(complex))
    assert ac.dtype == np.complex128
    assert np.all(np.abs(ac - a) <= 1e-13 * (1.0 + np.abs(a)))
    assert cc.Shift([0.01j], expr).eval(x).dtype == np.complex128
    # the JSON text round trip evaluates bit-identically, with the same dtype
    back = cc.node_from_json(json.loads(json.dumps(expr.to_json())))
    for pts in (x, x + 0.02j):
        want, got = expr.eval(pts), back.eval(pts)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_cosh_family_matches_mpmath():
    # real and complex w on both sides of the series cut at |w| = 1
    ws = np.array([-50.0, -3.0, -1.0, -0.5, -2e-5, 0.0, 1e-7, 2e-5, 0.9, 1.5, 40.0])

    def g(z):
        r = mp.sqrt(z)
        return mp.sinh(r) / r if z != 0 else mp.mpf(1)

    with mp.workdps(40):
        for w in list(ws) + [0.3 + 0.8j, -2e-5 + 1e-5j, 2.0 - 3.0j]:
            z = mp.mpc(w)
            want = [mp.cosh(mp.sqrt(z)), g(z), mp.diff(g, z), mp.diff(g, z, 2)]
            for arg in (w, complex(w)) if np.isreal(w) else (w,):
                got = cc._cosh_family(np.array([arg]))
                for v, ref in zip(got, want):
                    assert v.dtype == np.asarray(arg).dtype
                    err = abs(complex(v[0]) - complex(ref))
                    assert err <= 1e-15 * max(1.0, abs(complex(ref)))


def test_exp_sl2_real_branch_matches_complex():
    # w = 9 (0.81 cos^2 - 0.25) spans elliptic (w < -1) and hyperbolic
    # (w > 1) points, the series region |w| < 1 and w = 0
    s1 = TrigPoly.cosine((1,), 0.9)
    z = TrigPoly.zero(1)
    s3 = TrigPoly.constant(0.5)
    expr = cc.ExpSl2(s1, z, s3, t=3.0)
    x = np.concatenate([np.linspace(0.0, 1.0, 33), [np.arccos(5 / 9) / (2 * np.pi)]])
    x = x[:, None]
    jets = expr.jet(x, [1.0], order=2)
    cjets = expr.jet(x.astype(complex), [1.0], order=2)
    w = -alg.det(expr._smat(x))
    assert np.any(w < -1) and np.any(w > 1) and np.any(np.abs(w) < 1e-6)
    for got, want in zip(jets, cjets):
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert np.max(np.abs(got - want)) < 1e-13 * (1.0 + np.max(np.abs(got)))
