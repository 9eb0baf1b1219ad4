import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cocyclelab import algebra as alg
from cocyclelab.errors import DegenerateTau, PoleOnCircle, UnwrapStep

RNG = np.random.default_rng(20260810)


def test_disk_coords_identity():
    out = alg.disk_coords(np.eye(2))
    assert np.allclose(out, np.eye(2), atol=1e-14)


def test_disk_coords_rotation_is_diagonal():
    # direct 2x2 product oracle: Q R_theta Q^-1
    for theta in [0.1, 0.37, -0.2]:
        got = alg.disk_coords(alg.rot(theta))
        want = np.diag(
            [np.exp(-2j * np.pi * theta), np.exp(2j * np.pi * theta)]
        )
        oracle = alg.Q @ alg.rot(theta) @ alg.QINV
        assert np.allclose(got, oracle, atol=1e-14)
        assert np.allclose(got, want, atol=1e-12)


def test_disk_coords_su11_shape():
    mats = alg.random_sl2r(RNG, size=1000)
    out = alg.disk_coords(mats)
    u, v = out[..., 0, 0], out[..., 1, 0]
    assert np.allclose(out[..., 0, 1], np.conj(v), atol=1e-10)
    assert np.allclose(out[..., 1, 1], np.conj(u), atol=1e-10)
    assert np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0)) < 1e-10


def test_disk_coords_homomorphism():
    a = alg.random_sl2r(RNG, size=200)
    b = alg.random_sl2r(RNG, size=200)
    lhs = alg.disk_coords(a @ b)
    rhs = alg.disk_coords(a) @ alg.disk_coords(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@seed(1310)
@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 4), max_size=2),
    st.floats(1e-3, 1e3),
)
def test_disk_coords_complex_matches_conjugation(s, lead, scale):
    # complexified members feed complex matrices; the oracle is Q A Q^-1
    rng = np.random.default_rng(s)
    shape = tuple(lead) + (2, 2)
    a = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    got = alg.disk_coords(a)
    want = alg.Q @ a @ alg.QINV
    assert got.shape == shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    back = alg.from_disk_coords(got)
    assert np.max(np.abs(back - a)) <= 1e-13 * np.max(np.abs(a))


def test_inv_is_inverse_on_complex_matrices():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(2000, 2, 2)) + 1j * rng.normal(size=(2000, 2, 2))
    m = m[np.linalg.cond(m) < 1e3]
    assert len(m) > 1000
    assert np.max(np.abs(alg.mul(alg.inv(m), m) - np.eye(2))) < 1e-12
    assert np.max(np.abs(alg.inv(m[0]) @ m[0] - np.eye(2))) < 1e-12


def test_adj_is_inverse_on_sl2r():
    m = alg.random_sl2r(RNG, scale=2.0, size=500)
    assert np.max(np.abs(alg.adj(m) - alg.inv(m))) <= 1e-13 * np.max(
        np.abs(m)
    )
    assert np.max(np.abs(alg.mul(alg.adj(m), m) - np.eye(2))) < 1e-12


def test_mat2_broadcasts_and_promotes():
    col = np.arange(3.0)
    for entries in [
        (1, col, 2j, col[:, None]),
        (1, 0, 0, 1),
        (np.float32(1.5), 2, col, 1),
        (1.0, col.astype(np.float32), np.zeros(3, complex), 0),
    ]:
        # reference: the nested-stack build
        a, b, c, d = np.broadcast_arrays(*map(np.asarray, entries))
        want = np.stack(
            [np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2
        )
        got = alg.mat2(*entries)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert alg.mat2(1, col, 2j, col[:, None]).shape == (3, 3, 2, 2)
    assert alg.mat2(1, col, 2j, col[:, None]).dtype == complex


@seed(1310)
@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(1e-3, 1e3),
)
def test_conformal_split_twisted_distance(s, turn, scale):
    # the closed form of the rotation-model distance in renorm
    m = scale * np.random.default_rng(s).normal(size=(8, 2, 2))
    q, r = alg.conformal_split(m)
    got = np.abs(q * np.exp(-2j * np.pi * turn) - 1.0) + np.abs(r)
    want = alg.spectral_norm(alg.mul(alg.rot(-turn), m) - np.eye(2))
    norm = np.linalg.norm(m, 2, axis=(-2, -1))
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + norm))
    # z -> q z + r conj(z) is the action of m on z = x + iy
    z = complex(*np.random.default_rng(s + 1).normal(size=2))
    w = m @ np.array([z.real, z.imag])
    assert np.allclose(q * z + r * np.conj(z), w[:, 0] + 1j * w[:, 1])


def test_conformal_split_singular_values_and_real_guard():
    m = RNG.normal(size=(300, 2, 2))
    smax, smin = alg.singular_values(m)
    sv = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(smax - sv[:, 0]) / sv[:, 0]) <= 1e-14
    assert np.max(np.abs(smin - sv[:, 1]) / sv[:, 0]) <= 1e-14
    with pytest.raises(ValueError):
        alg.conformal_split(m + 0j)


def test_mobius_identity():
    assert alg.mobius_apply(np.eye(2), 0.3 + 0.1j) == pytest.approx(
        0.3 + 0.1j
    )


def test_mobius_rotation_scales_angle():
    theta = 0.13
    m = alg.disk_coords(alg.rot(theta))
    z = 0.4 - 0.2j
    assert alg.mobius_apply(m, z) == pytest.approx(
        np.exp(-4j * np.pi * theta) * z
    )


def test_mobius_pole_maps_to_infinity():
    m = np.array([[1.0, 2.0], [1.0, 0.0]])
    assert np.isinf(alg.mobius_apply(m, 0.0))


def test_image_disk_identity():
    d = alg.mobius_image_disk(np.eye(2))
    assert d.center == pytest.approx(0.0)
    assert d.radius == pytest.approx(1.0)


def test_image_disk_diagonal_scaling():
    t = -0.07
    m = np.diag([np.exp(2 * np.pi * t), np.exp(-2 * np.pi * t)])
    d = alg.mobius_image_disk(m)
    assert d.center == pytest.approx(0.0, abs=1e-14)
    assert d.radius == pytest.approx(np.exp(4 * np.pi * t), rel=1e-12)


def test_image_disk_pole_guard():
    with pytest.raises(PoleOnCircle):
        alg.mobius_image_disk(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_image_disk_boundary_sampling_oracle():
    # 720 boundary samples must land on the computed circle within 1e-8
    angles = np.exp(2j * np.pi * np.arange(720) / 720)
    rng = np.random.default_rng(7)
    count = 0
    while count < 1000:
        m = alg.random_su11(rng, scale=1.2) @ np.diag(
            [rng.uniform(0.3, 1.4), 1.0]
        )
        if np.abs(m[1, 1]) <= np.abs(m[1, 0]) + 1e-6:
            continue
        count += 1
        disk = alg.mobius_image_disk(m)
        img = alg.mobius_apply(m, angles)
        r = np.abs(img - disk.center)
        assert np.max(np.abs(r - disk.radius)) < 1e-8


def test_tau_identity_and_rotation():
    z = 0.2 + 0.5j
    assert alg.tau(np.eye(2), z) == pytest.approx(1.0)
    theta = 0.21
    m = alg.disk_coords(alg.rot(theta))
    assert alg.tau(m, z) == pytest.approx(np.exp(2j * np.pi * theta))


def test_tau_open_half_plane():
    # tau over the closed disk never straddles a half plane boundary
    rng = np.random.default_rng(11)
    mats = alg.random_contracting(rng, size=200)
    zs = 0.999 * np.exp(2j * np.pi * np.arange(64) / 64)
    for m in mats:
        t = alg.tau(m, zs)
        ref = alg.tau(m, np.array([0.0j]))
        rel = np.angle(t / ref)
        assert np.max(np.abs(rel)) < np.pi


def test_tau_degenerate_guard():
    m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # tau(z) = z
    with pytest.raises(DegenerateTau):
        alg.tau(m, 0.0)


def test_unwrap_args_examples():
    assert np.allclose(alg.unwrap_args([1.0, 1.0, 1.0]), 0.0)
    seq = np.exp(2j * np.pi * 0.3 * np.arange(10))
    assert np.allclose(alg.unwrap_args(seq), 0.3 * np.arange(10), atol=1e-12)
    with pytest.raises(UnwrapStep):
        alg.unwrap_args(np.exp(2j * np.pi * 0.49 * np.arange(10)))


def test_unwrap_args_start_in_unit_interval():
    seq = np.exp(2j * np.pi * (0.7 + 0.1 * np.arange(5)))
    lift = alg.unwrap_args(seq)
    assert 0.0 <= lift[0] < 1.0
    assert np.allclose(np.diff(lift), 0.1, atol=1e-12)


def test_hyperbolic_distance_values():
    assert alg.hyperbolic_distance(0.0, 0.0) == pytest.approx(0.0)
    assert alg.hyperbolic_distance(0.0, 0.5) == pytest.approx(
        np.arctanh(0.5), abs=1e-12
    )


def test_hyperbolic_distance_invariance():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = alg.random_su11(rng)
        z = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        w = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        d0 = alg.hyperbolic_distance(z, w)
        d1 = alg.hyperbolic_distance(
            alg.mobius_apply(m, z), alg.mobius_apply(m, w)
        )
        assert abs(d0 - d1) < 1e-10


def test_hyperbolic_distance_boundary_guard():
    from cocyclelab.errors import BoundaryPoint

    with pytest.raises(BoundaryPoint):
        alg.hyperbolic_distance(1.0 - 1e-15, 0.0)


def _tau_hat_along(path_mats, z_vals):
    """Lift of arg tau/2pi along a sampled (matrix, z) path, start value 0."""
    taus = np.array(
        [alg.tau(m, z) for m, z in zip(path_mats, z_vals)]
    )
    lift = alg.unwrap_args(taus)
    return (lift[-1] - lift[0]) - 1j * (
        np.log(np.abs(taus[-1])) - np.log(np.abs(taus[0]))
    ) / (2 * np.pi)


def _contracting_path(rng, steps=400):
    """Path t -> gamma(t) from the identity into the contraction set."""
    t1, t2 = rng.uniform(0, 1, 2)
    s = rng.uniform(-0.8, 0.8)
    r = rng.uniform(0.3, 0.9)
    ts = np.linspace(0.0, 1.0, steps)
    mats = np.empty((steps, 2, 2), dtype=complex)
    for i, t in enumerate(ts):
        u = alg.disk_coords(
            alg.rot(t * t1)
            @ np.diag([np.exp(t * s), np.exp(-t * s)])
            @ alg.rot(t * t2)
        )
        mats[i] = u @ np.diag([r ** (t / 2), r ** (-t / 2)])
    return mats


def test_tau_lift_composition_rule():
    # tau_hat(A2 A1, z) = tau_hat(A2, disk_action(A1) z) + tau_hat(A1, z)
    rng = np.random.default_rng(99)
    for _ in range(25):
        p1 = _contracting_path(rng)
        p2 = _contracting_path(rng)
        z = 0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        zs = np.full(len(p1), z)
        lhs = _tau_hat_along(p2 @ p1, zs)
        a1z = alg.mobius_apply(p1, zs)
        rhs = _tau_hat_along(p2, a1z) + _tau_hat_along(p1, zs)
        assert abs(lhs - rhs) < 1e-9


def test_re_tau_hat_varies_less_than_half():
    rng = np.random.default_rng(5)
    mats = alg.random_contracting(rng, size=100)
    zs = np.exp(2j * np.pi * np.arange(100) / 100)
    for m in mats:
        t = alg.tau(m, zs)
        ref = alg.tau(m, np.array([0.0j]))[0]
        spread = np.angle(t / ref) / (2 * np.pi)
        assert np.max(spread) - np.min(spread) < 0.5


def test_rot_complex_angle_matches_cos_sin():
    rng = np.random.default_rng(7)
    theta = rng.uniform(-1.0, 1.0, 4000) + 1j * rng.uniform(-0.5, 0.5, 4000)
    th = 2.0 * np.pi * theta
    c, s = np.cos(th), np.sin(th)
    want = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    e = np.abs(np.exp(2j * np.pi * theta))
    tol = 1e-15 * np.maximum(e, 1.0 / e)
    err = np.max(np.abs(alg.rot(theta) - want), axis=(-2, -1))
    assert np.all(err <= tol)
    real = alg.rot(theta.real)
    assert real.dtype == np.float64
    assert np.array_equal(real[..., 0, 0], np.cos(2.0 * np.pi * theta.real))
