import copy
import json
import pickle

import numpy as np
import pytest

from cocyclelab.trig import TrigPoly


def _eval_loop(poly, x):
    """Plain reference: sum_k c_k e^{2 pi i <k, x>}, one mode at a time."""
    x = np.asarray(x)
    out = np.zeros(x.shape[:-1], dtype=complex)
    for k, c in poly.coeffs.items():
        out = out + c * np.exp(2j * np.pi * (x @ np.array(k, dtype=float)))
    return out.real if poly.real and np.isrealobj(x) else out


def _polys():
    rng = np.random.default_rng(7)
    one = TrigPoly.cosine((1,), 0.3) + TrigPoly.sine((3,), -0.2) + 0.5
    two = TrigPoly.cosine((1, -2), 0.4) + TrigPoly.sine((0, 1), 0.7)
    cplx = TrigPoly(2, {(1, 0): 0.3 + 0.1j, (-2, 1): -0.2j}, real=False)
    return [
        (one, rng.uniform(size=(64, 1))),
        (one.shifted(0.01j), rng.uniform(size=(64, 1)) + 0.02j),
        (two, rng.uniform(size=(5, 7, 2))),
        (cplx, rng.uniform(size=(33, 2))),
        (TrigPoly.zero(2), rng.uniform(size=(4, 2))),
    ]


def test_coeffs_are_read_only():
    p = TrigPoly.cosine((1,), 0.3)
    with pytest.raises(TypeError):
        p.coeffs[(2,)] = 1.0
    with pytest.raises(TypeError):
        del p.coeffs[(1,)]
    with pytest.raises(AttributeError):
        p.coeffs = {}
    assert dict(p.coeffs) == {(1,): 0.15, (-1,): 0.15}


@pytest.mark.parametrize("k", range(5))
def test_cached_modes_eval_equality_and_json(k):
    poly, x = _polys()[k]
    got = poly.eval(x)
    want = _eval_loop(poly, x)
    assert got.dtype == want.dtype
    assert got.shape == x.shape[:-1]
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14
    # the same mapping built in another order is equal and evaluates alike
    rebuilt = TrigPoly(poly.dim, dict(reversed(poly.coeffs.items())), poly.real)
    assert rebuilt == poly
    assert np.array_equal(rebuilt.eval(x), got)
    assert poly + 1.0 != poly
    back = TrigPoly.from_json(json.loads(json.dumps(poly.to_json())))
    assert back == poly
    assert np.array_equal(back.eval(x), got)
    for other in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly)):
        assert other == poly
        assert np.array_equal(other.eval(x), got)
