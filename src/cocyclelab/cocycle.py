"""Quasiperiodic cocycles as exact SL(2,R)-valued expression trees.

Every node is entire, so trees also evaluate at complex torus points and
analytic continuation into strips is structural rather than numerical.  One
dtype rule holds for every node: a tree with real coefficients, evaluated at
real points, returns float64; complex points, complex offsets or complex
coefficients return complex128.  Directional jets (value, first and second
derivative along a fixed direction) are exact node-by-node product rules;
they back the monotonicity certification.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .trig import TrigPoly

_S = np.array([[1.0, 0.0], [0.0, -1.0]])
_EU = np.array([[0.0, 1.0], [0.0, 0.0]])
_EL = np.array([[0.0, 0.0], [1.0, 0.0]])


def _as_points(x, dim):
    """Coerce x to shape (..., dim); scalars allowed for dim == 1."""
    x = np.asarray(x)
    if x.ndim == 0:
        if dim != 1:
            raise ValueError("scalar point for a multidimensional cocycle")
        return x.reshape(1)
    if x.shape[-1] != dim:
        if dim == 1:
            return x[..., None]
        raise ValueError("point dimension mismatch")
    return x


def _leibniz(ja, jb):
    """Jet of a matrix product from jets of the factors."""
    order = len(ja) - 1
    mul = alg.mul
    out = [mul(ja[0], jb[0])]
    if order >= 1:
        out.append(mul(ja[1], jb[0]) + mul(ja[0], jb[1]))
    if order >= 2:
        out.append(
            mul(ja[2], jb[0]) + 2.0 * mul(ja[1], jb[1]) + mul(ja[0], jb[2])
        )
    return out


class Node:
    """Expression-tree node; subclasses define eval/jet/bounds/json."""

    dim = 1

    def eval(self, x):
        raise NotImplementedError

    def jet(self, x, direction, order=1):
        """[A, dA, ...]: exact directional derivatives d/dt at A(x + t u)."""
        raise NotImplementedError

    def bounds(self, direction):
        """(M0, M1, M2): sup bounds of |A|, |dA|, |d2A| on the real torus."""
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


class Rot(Node):
    """R_{<l,x> + phi(x)}: rotation with integer winding l and trig part."""

    def __init__(self, l, phi=None):
        self.l = tuple(int(v) for v in np.atleast_1d(l))
        self.dim = len(self.l)
        self.phi = phi if phi is not None else TrigPoly.zero(self.dim)
        if self.phi.dim != self.dim:
            raise ValueError("phi dimension mismatch")

    def angle(self, x):
        x = _as_points(x, self.dim)
        return x @ np.asarray(self.l, dtype=float) + self.phi.eval(x)

    def eval(self, x):
        return alg.rot(self.angle(x))

    def jet(self, x, direction, order=1):
        x = _as_points(x, self.dim)
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        a = self.eval(x)
        psi1 = float(np.dot(self.l, u)) + self.phi.deriv(u).eval(x)
        ja = alg.mul(alg.J, a)
        out = [a, (2 * np.pi * psi1)[..., None, None] * ja]
        if order >= 2:
            psi2 = self.phi.deriv(u).deriv(u).eval(x)
            d2 = (2 * np.pi * psi2)[..., None, None] * ja - (
                (2 * np.pi * psi1) ** 2
            )[..., None, None] * a
            out.append(d2)
        return out

    def bounds(self, direction):
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        b1 = 2 * np.pi * (
            abs(float(np.dot(self.l, u))) + self.phi.deriv_bound(u, 1)
        )
        b2 = 2 * np.pi * self.phi.deriv_bound(u, 2)
        return 1.0, b1, b2 + b1 * b1

    def to_json(self):
        return {"kind": "rot", "l": list(self.l), "phi": self.phi.to_json()}


class DiagExp(Node):
    """diag(e^{p(x)}, e^{-p(x)})."""

    def __init__(self, p):
        self.p = p
        self.dim = p.dim

    def eval(self, x):
        v = self.p.eval(_as_points(x, self.dim))
        return alg.mat2(np.exp(v), 0.0, 0.0, np.exp(-v))

    def jet(self, x, direction, order=1):
        x = _as_points(x, self.dim)
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        a = self.eval(x)
        p1 = self.p.deriv(u).eval(x)[..., None, None]
        sa = alg.mul(_S, a)
        out = [a, p1 * sa]
        if order >= 2:
            p2 = self.p.deriv(u).deriv(u).eval(x)[..., None, None]
            out.append(p2 * sa + p1 * p1 * a)
        return out

    def bounds(self, direction):
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        m0 = np.exp(self.p.sup_bound())
        b1 = self.p.deriv_bound(u, 1)
        b2 = self.p.deriv_bound(u, 2)
        return m0, b1 * m0, (b2 + b1 * b1) * m0

    def to_json(self):
        return {"kind": "diag_exp", "p": self.p.to_json()}


class _Shear(Node):
    _E = None
    _kind = None

    def __init__(self, q):
        self.q = q
        self.dim = q.dim

    def eval(self, x):
        v = self.q.eval(_as_points(x, self.dim))
        if self._kind == "shear_u":
            return alg.mat2(1.0, v, 0.0, 1.0)
        return alg.mat2(1.0, 0.0, v, 1.0)

    def jet(self, x, direction, order=1):
        x = _as_points(x, self.dim)
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        a = self.eval(x)
        q1 = self.q.deriv(u).eval(x)[..., None, None]
        e = np.broadcast_to(self._E.astype(a.dtype), a.shape)
        out = [a, q1 * e]
        if order >= 2:
            q2 = self.q.deriv(u).deriv(u).eval(x)[..., None, None]
            out.append(q2 * e)
        return out

    def bounds(self, direction):
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        return (
            1.0 + self.q.sup_bound(),
            self.q.deriv_bound(u, 1),
            self.q.deriv_bound(u, 2),
        )

    def to_json(self):
        return {"kind": self._kind, "q": self.q.to_json()}


class ShearU(_Shear):
    _E = _EU
    _kind = "shear_u"


class ShearL(_Shear):
    _E = _EL
    _kind = "shear_l"


class Const(Node):
    """A constant matrix; stored as float64 when it has no imaginary part."""

    def __init__(self, m, dim=1):
        m = np.asarray(m)
        if np.iscomplexobj(m) and not np.any(m.imag):
            m = m.real
        self.m = m.astype(complex if np.iscomplexobj(m) else float)
        self.dim = int(dim)

    def eval(self, x):
        x = _as_points(x, self.dim)
        out = np.empty(x.shape[:-1] + (2, 2), np.result_type(self.m, x))
        out[...] = self.m
        return out

    def jet(self, x, direction, order=1):
        a = self.eval(x)
        out = [a, np.zeros_like(a)]
        if order >= 2:
            out.append(np.zeros_like(a))
        return out

    def bounds(self, direction):
        return float(alg.spectral_norm(self.m)), 0.0, 0.0

    def to_json(self):
        return {
            "kind": "const",
            "dim": self.dim,
            "m": [[{"re": v.real, "im": v.imag} for v in row] for row in self.m],
        }


# Taylor coefficients in w of f, g, g' and g'' (see _cosh_family), k < 12
_COSH_SERIES = np.array(
    [
        [1.0 / math.factorial(2 * k + d) * math.perm(k + o, o) for k in range(12)]
        for d, o in ((0, 0), (1, 0), (3, 1), (5, 2))
    ]
)


def _cosh_family(w):
    """f = cosh(sqrt(w)), g = sinh(sqrt(w))/sqrt(w), g', g''; entire in w.

    Real w gives real values: cos and sin of sqrt(-w) where w < 0.  For
    |w| < 1 the Taylor series replace the closed forms of g' and g'', which
    lose about log10(1/|w|) and 2 log10(1/|w|) digits to cancellation.
    """
    w = np.asarray(w)
    w = w.astype(complex if np.iscomplexobj(w) else float)
    small = np.abs(w) < 1.0
    ws = np.where(small, 1.0, w)
    if np.iscomplexobj(ws):
        r = np.sqrt(ws)
        f, g = np.cosh(r), np.sinh(r) / r
    else:
        neg = ws < 0
        r = np.sqrt(np.abs(ws))
        rp = np.where(neg, 0.0, r)  # cosh and sinh only where w > 0
        f = np.where(neg, np.cos(r), np.cosh(rp))
        g = np.where(neg, np.sin(r), np.sinh(rp)) / r
    g1 = (f - g) / (2 * ws)
    g2 = g / (4 * ws) - 3 * g1 / (2 * ws)
    series = np.polynomial.polynomial.polyval(w, _COSH_SERIES.T)
    return tuple(np.where(small, s, v) for s, v in zip(series, (f, g, g1, g2)))


class ExpSl2(Node):
    """exp(t * s(x)) with s = [[s1, s2+s3], [s2-s3, -s1]] traceless."""

    def __init__(self, s1, s2, s3, t=1.0):
        self.s1, self.s2, self.s3 = s1, s2, s3
        self.t = float(t)
        self.dim = s1.dim
        if not (s1.dim == s2.dim == s3.dim):
            raise ValueError("component dimension mismatch")

    def _smat(self, x, u=None, order=0):
        polys = (self.s1, self.s2, self.s3)
        if order > 0:
            polys = tuple(p.deriv(u) for p in polys)
            if order > 1:
                polys = tuple(p.deriv(u) for p in polys)
        a, b, c = (p.eval(x) for p in polys)
        return self.t * alg.mat2(a, b + c, b - c, -a)

    def eval(self, x):
        x = _as_points(x, self.dim)
        B = self._smat(x)
        w = -alg.det(B)
        f, g, _, _ = _cosh_family(w)
        eye = np.eye(2)
        return f[..., None, None] * eye + g[..., None, None] * B

    def jet(self, x, direction, order=1):
        x = _as_points(x, self.dim)
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        B = self._smat(x)
        B1 = self._smat(x, u, 1)
        w = -alg.det(B)
        f, g, g1, g2 = _cosh_family(w)
        tr = lambda M, N: (
            M[..., 0, 0] * N[..., 0, 0]
            + M[..., 0, 1] * N[..., 1, 0]
            + M[..., 1, 0] * N[..., 0, 1]
            + M[..., 1, 1] * N[..., 1, 1]
        )
        w1 = tr(B, B1)  # d(-det B) = tr(B B') for traceless B
        eye = np.eye(2)
        val = f[..., None, None] * eye + g[..., None, None] * B
        dv = (
            (0.5 * g * w1)[..., None, None] * eye
            + (g1 * w1)[..., None, None] * B
            + g[..., None, None] * B1
        )
        out = [val, dv]
        if order >= 2:
            B2 = self._smat(x, u, 2)
            w2 = tr(B1, B1) + tr(B, B2)
            d2 = (
                (0.5 * g1 * w1 * w1 + 0.5 * g * w2)[..., None, None] * eye
                + (g2 * w1 * w1 + g1 * w2)[..., None, None] * B
                + (2.0 * g1 * w1)[..., None, None] * B1
                + g[..., None, None] * B2
            )
            out.append(d2)
        return out

    def bounds(self, direction):
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        sb = lambda p, o: (p.sup_bound() if o == 0 else p.deriv_bound(u, o))
        nb = [
            abs(self.t)
            * (sb(self.s1, o) + sb(self.s2, o) + sb(self.s3, o))
            for o in (0, 1, 2)
        ]
        m0 = np.exp(nb[0])
        # |d exp(B)[H]| <= |H| e^{|B|};   second order adds the |B'|^2 term
        return m0, nb[1] * m0, (nb[2] + nb[1] ** 2) * m0

    def to_json(self):
        return {
            "kind": "exp_sl2",
            "s1": self.s1.to_json(),
            "s2": self.s2.to_json(),
            "s3": self.s3.to_json(),
            "t": self.t,
        }


class Product(Node):
    def __init__(self, children):
        self.children = list(children)
        if not self.children:
            raise ValueError("empty product")
        self.dim = self.children[0].dim
        if any(c.dim != self.dim for c in self.children):
            raise ValueError("child dimension mismatch")

    def eval(self, x):
        out = self.children[0].eval(x)
        for c in self.children[1:]:
            out = alg.mul(out, c.eval(x))
        return out

    def jet(self, x, direction, order=1):
        jets = self.children[0].jet(x, direction, order)
        for c in self.children[1:]:
            jets = _leibniz(jets, c.jet(x, direction, order))
        return jets

    def bounds(self, direction):
        m0, m1, m2 = self.children[0].bounds(direction)
        for c in self.children[1:]:
            n0, n1, n2 = c.bounds(direction)
            m0, m1, m2 = (
                m0 * n0,
                m1 * n0 + m0 * n1,
                m2 * n0 + 2 * m1 * n1 + m0 * n2,
            )
        return m0, m1, m2

    def to_json(self):
        return {"kind": "product", "children": [c.to_json() for c in self.children]}


class Shift(Node):
    """child evaluated at x + offset; complex offsets continue analytically."""

    def __init__(self, offset, child):
        self.offset = np.atleast_1d(np.asarray(offset))
        self.child = child
        self.dim = child.dim
        if self.offset.shape != (self.dim,):
            raise ValueError("offset dimension mismatch")

    def eval(self, x):
        return self.child.eval(_as_points(x, self.dim) + self.offset)

    def jet(self, x, direction, order=1):
        return self.child.jet(
            _as_points(x, self.dim) + self.offset, direction, order
        )

    def bounds(self, direction):
        return self.child.bounds(direction)

    def to_json(self):
        off = [
            {"re": complex(v).real, "im": complex(v).imag} for v in self.offset
        ]
        return {"kind": "shift", "offset": off, "child": self.child.to_json()}


def invert_node(node):
    """Expression tree of x -> node(x)^{-1} (exact, node by node)."""
    if isinstance(node, Rot):
        return Rot(tuple(-v for v in node.l), node.phi * -1.0)
    if isinstance(node, DiagExp):
        return DiagExp(node.p * -1.0)
    if isinstance(node, ShearU):
        return ShearU(node.q * -1.0)
    if isinstance(node, ShearL):
        return ShearL(node.q * -1.0)
    if isinstance(node, Const):
        return Const(alg.inv(node.m), dim=node.dim)
    if isinstance(node, ExpSl2):
        return ExpSl2(node.s1, node.s2, node.s3, t=-node.t)
    if isinstance(node, Product):
        return Product([invert_node(c) for c in reversed(node.children)])
    if isinstance(node, Shift):
        return Shift(node.offset, invert_node(node.child))
    raise TypeError(f"cannot invert node {type(node).__name__}")


def conjugate_expr(a_expr, b_expr, alpha):
    """Expression tree of x -> B(x + alpha) A(x) B(x)^{-1}."""
    return Product([Shift(alpha, b_expr), a_expr, invert_node(b_expr)])


def node_from_json(obj):
    kind = obj["kind"]
    if kind == "rot":
        return Rot(obj["l"], TrigPoly.from_json(obj["phi"]))
    if kind == "diag_exp":
        return DiagExp(TrigPoly.from_json(obj["p"]))
    if kind == "shear_u":
        return ShearU(TrigPoly.from_json(obj["q"]))
    if kind == "shear_l":
        return ShearL(TrigPoly.from_json(obj["q"]))
    if kind == "const":
        m = np.array(
            [[complex(v["re"], v["im"]) for v in row] for row in obj["m"]]
        )
        return Const(m, dim=obj.get("dim", 1))
    if kind == "exp_sl2":
        return ExpSl2(
            TrigPoly.from_json(obj["s1"]),
            TrigPoly.from_json(obj["s2"]),
            TrigPoly.from_json(obj["s3"]),
            obj.get("t", 1.0),
        )
    if kind == "product":
        return Product([node_from_json(c) for c in obj["children"]])
    if kind == "shift":
        off = np.array([complex(v["re"], v["im"]) for v in obj["offset"]])
        if np.all(off.imag == 0):
            off = off.real
        return Shift(off, node_from_json(obj["child"]))
    raise ValueError(f"unknown node kind {kind!r}")


# ---------------------------------------------------------------------------


@dataclass
class ScaledMat:
    """Matrix with a split log-scale: true product = e^{log_scale} * m."""

    m: np.ndarray
    log_scale: np.ndarray

    def value(self):
        return np.exp(np.asarray(self.log_scale))[..., None, None] * self.m

    def log_norm(self):
        """log of the spectral norm of the represented product."""
        return self.log_scale + np.log(alg.spectral_norm(self.m))

    def __getitem__(self, k):
        """The product(s) at index k of the leading (stacking) axis."""
        return ScaledMat(self.m[k], self.log_scale[k])

    def matmul(self, other):
        """self @ other with rescaling; overflow-free composition."""
        m = alg.mul(self.m, other.m)
        return ScaledMat(m, self.log_scale + other.log_scale).rescaled()

    def rescaled(self):
        """The same products with every largest entry magnitude 1."""
        a = np.abs(self.m)
        # entrywise maxima; reducing the (2, 2) axes is slower
        peak = np.maximum(
            np.maximum(a[..., 0, 0], a[..., 0, 1]),
            np.maximum(a[..., 1, 0], a[..., 1, 1]),
        )
        m = self.m * (1.0 / peak)[..., None, None]
        return ScaledMat(m, np.asarray(self.log_scale, dtype=float) + np.log(peak))

    def inverse(self):
        """Inverse assuming the true product is unimodular (adjugate)."""
        ls = np.asarray(self.log_scale, dtype=float)
        return ScaledMat(alg.adj(self.m), ls)


_CHUNK = 65536  # matrices per scanned chunk, whatever the batch shape
_BLOCK = 32  # longest run of steps multiplied one after another


def _scan_chunk(a, carry):
    """Prefix products of the steps a (c, ..., 2, 2), times `carry`.

    The blocked scan of `orbit_products`.  Its last pass is not rescaled:
    both factors there have entries of order one.
    """
    if carry is not None:
        carry = carry.rescaled()  # keeps carries from drifting over chunks
    c = len(a)
    size = c if c <= _BLOCK else min(_BLOCK, math.isqrt(c) + 1)
    nb, full = -(-c // size), c // size
    # step j of every block is the contiguous stack m[j] of nb matrices;
    # the last block is padded with identities
    m = np.empty((size, nb) + a.shape[1:], a.dtype)
    by_block = m.swapaxes(0, 1)
    by_block[:full] = a[: full * size].reshape((full, size) + a.shape[1:])
    if full < nb:
        by_block[full, : c - full * size] = a[full * size :]
        by_block[full, c - full * size :] = np.eye(2, dtype=a.dtype)
    ls = np.zeros(m.shape[:-2])
    p = ScaledMat(m[0], ls[0])
    for j in range(1, size):
        p = ScaledMat(m[j], 0.0).matmul(p)
        m[j], ls[j] = p.m, p.log_scale
    if nb > 1:
        # incoming products [carry, T0 carry, T1 T0 carry, ...] of the blocks
        if carry is None:
            eye = np.broadcast_to(np.eye(2, dtype=a.dtype), a.shape[1:])
            carry = ScaledMat(eye, np.zeros(a.shape[1:-2]))
        t = ScaledMat(
            np.concatenate([carry.m[None], p.m[:-1]]),
            np.concatenate([np.asarray(carry.log_scale)[None], p.log_scale[:-1]]),
        )
        shift = 1
        while shift < nb:
            tail = t[shift:].matmul(t[:-shift])
            t.m[shift:], t.log_scale[shift:] = tail.m, tail.log_scale
            shift *= 2
        carry = t[:, None]
    m, ls = by_block, ls.swapaxes(0, 1)
    if carry is not None:
        m, ls = alg.mul(m, carry.m), ls + carry.log_scale
    flat = (nb * size,) + a.shape[1:-2]
    return ScaledMat(m.reshape(flat + (2, 2))[:c], ls.reshape(flat)[:c])


def orbit_products(steps):
    """Prefix products P[k] = A[k] ... A[0] of a stream of step matrices.

    `steps` yields arrays (c, ..., 2, 2) of consecutive steps A[k] over a
    fixed batch shape.  Yields (A, P) chunks of at most _CHUNK matrices (at
    least one step), P a ScaledMat of shape (c', ...) in the dtype of the
    steps, so real steps are walked in float64.

    Each chunk of c' steps is one work-efficient blocked scan of about two
    products per step:
      * B = c' when c' <= 32 (one block), else B = min(32, isqrt(c') + 1);
      * the nb = ceil(c' / B) blocks, the last one padded with identities,
        are multiplied sequentially, side by side: B - 1 rescaled products
        on stacks of nb;
      * the nb block totals are scanned by doubling (Hillis-Steele);
      * one pass multiplies every block by its incoming product.
    Rounding grows with B + log2(nb) within a chunk and by one product per
    chunk, so no determinant repair is needed; the last product is carried
    into the next chunk.
    """
    carry = None
    for block in steps:
        width = max(1, _CHUNK // max(int(np.prod(block.shape[1:-2])), 1))
        for s in range(0, len(block), width):
            a = block[s : s + width]
            p = _scan_chunk(a, carry)
            carry = p[-1]
            yield a, p


class Cocycle:
    """(alpha, A): pair of a torus translation and an expression tree."""

    def __init__(self, alpha, expr):
        self.alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        self.expr = expr
        self.dim = expr.dim
        if self.alpha.shape != (self.dim,):
            raise ValueError("alpha dimension mismatch")

    def eval(self, x):
        return self.expr.eval(x)

    def __call__(self, x):
        return self.expr.eval(x)

    def orbit(self, x, n):
        """Steps A(x + k alpha), k < n, in chunks of shape (c, ..., 2, 2)."""
        x = _as_points(x, self.dim)
        width = max(1, _CHUNK // max(x[..., 0].size, 1))
        for s in range(0, n, width):
            k = np.arange(s, min(s + width, n)).reshape((-1,) + (1,) * x.ndim)
            pts = x + k * self.alpha
            mats = self.eval(pts.reshape(-1, self.dim))
            yield mats.reshape(pts.shape[:-1] + (2, 2))

    def iterate(self, x, n):
        """Ordered product A_n(x) as a ScaledMat; A_0 = Id, A_{-n} inverse."""
        x = _as_points(x, self.dim)
        n = int(n)
        if n == 0:
            eye = np.eye(2, dtype=np.result_type(x, float))
            m = np.broadcast_to(eye, x.shape[:-1] + (2, 2))
            return ScaledMat(m.copy(), np.zeros(x.shape[:-1]))
        if n < 0:
            # A_{-n}(x) = A_n(f^{-n} x)^{-1}; the true product is unimodular
            # so the inverse is the adjugate at the same log-scale.
            return self.iterate(x - (-n) * self.alpha, -n).inverse()
        for _, p in orbit_products(self.orbit(x, n)):
            pass
        return p[-1]

    def iterate_cocycle(self, n):
        """The cocycle (n*alpha, A_n) as an expression tree."""
        n = int(n)
        if n < 1:
            raise ValueError("iterate_cocycle needs n >= 1")
        factors = [
            Shift(k * self.alpha, self.expr) for k in range(n - 1, -1, -1)
        ]
        expr = factors[0] if len(factors) == 1 else Product(factors)
        return Cocycle(n * self.alpha, expr)

    def conjugated(self, b_expr):
        """The conjugate cocycle x -> B(x + alpha) A(x) B(x)^{-1}."""
        return Cocycle(self.alpha, conjugate_expr(self.expr, b_expr, self.alpha))

    # -- io ------------------------------------------------------------------
    def to_json(self):
        return {
            "dimension": self.dim,
            "alpha": list(map(float, self.alpha)),
            "expr": self.expr.to_json(),
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @staticmethod
    def from_json(obj):
        obj = expand_builders(obj)
        expr = node_from_json(obj["expr"])
        return Cocycle(np.asarray(obj["alpha"], dtype=float), expr)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return Cocycle.from_json(json.load(fh))


# -- builders ----------------------------------------------------------------


def rotation_model(l):
    """x -> R_{<l, x>}."""
    return Rot(l)


def herman(lam, l=(1,)):
    """x -> diag(lam, 1/lam) R_{<l,x>}; lam > 1 gives Herman's example."""
    lam = float(lam)
    diag = Const(np.diag([lam, 1.0 / lam]), dim=len(tuple(np.atleast_1d(l))))
    return Product([diag, Rot(l)])


def schrodinger(v, E):
    """x -> [[E - v(x), -1], [1, 0]] as the exact tree shear * rotation-like.

    Complex E gives the analytic continuation in the energy parameter.
    """
    base = Const(np.array([[0.0, -1.0], [1.0, 0.0]]), dim=v.dim)
    return Product([ShearU(TrigPoly.constant(complex(E), v.dim) - v), base])


def exp_family(s1, s2, s3, t, l=(1,), theta=0.0):
    """x -> exp(t s(<l,x> - theta)) for 1-d profile polys s_i.

    The twisted-rotation family R_{<l,x>} exp(t s(<l,x> - theta)) of the
    second-derivative experiment is Product([Rot(l), exp_family(...)]).
    """
    l = tuple(int(v) for v in np.atleast_1d(l))
    comp = [p.compose_linear(l, shift=-theta) for p in (s1, s2, s3)]
    return ExpSl2(*comp, t=t)


# -- homotopy class ------------------------------------------------------------


def homotopy_class(cocycle_or_expr, samples=1024, max_samples=65536):
    """Winding vector of the first column around each coordinate loop.

    Doubles the sampling on UnwrapStep up to max_samples; rejects lifts whose
    endpoint is not within 0.1 of an integer (see `algebra.winding`).
    """
    expr = getattr(cocycle_or_expr, "expr", cocycle_or_expr)
    d = expr.dim

    def column(j, n):
        xs = np.zeros((n + 1, d))
        xs[:, j] = np.linspace(0.0, 1.0, n + 1)
        mats = expr.eval(xs)
        return mats[..., 0, 0] + 1j * mats[..., 1, 0]

    return tuple(
        alg.winding(lambda n: column(j, n), samples, max_samples)
        for j in range(d)
    )


# -- families -------------------------------------------------------------------

PHASE_SHIFT = "phase_shift"
ROT_TWIST = "rot_twist"
SCHRODINGER_E = "schrodinger_energy"


class Family:
    """One-parameter family of cocycles over a fixed translation.

    Kinds: phase shift A(x + theta w), rotation twist R_{-theta} A(x), and
    the Schrodinger energy family (with optional iterate for the classical
    second-iterate twist).  theta may be complex everywhere; that is the
    complexification used by the strip machinery.
    """

    def __init__(self, kind, cocycle, w=None, power=1):
        self.kind = kind
        self.cocycle = cocycle
        self.alpha = cocycle.alpha
        self.dim = cocycle.dim
        self.w = None if w is None else np.atleast_1d(np.asarray(w, dtype=float))
        self.power = int(power)
        if kind == PHASE_SHIFT and self.w is None:
            raise ValueError("phase shift needs a direction w")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def phase_shift(cocycle, w):
        return Family(PHASE_SHIFT, cocycle, w=w)

    @staticmethod
    def rot_twist(cocycle):
        return Family(ROT_TWIST, cocycle)

    @staticmethod
    def schrodinger_energy(v, alpha, power=1):
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        base = Cocycle(alpha, schrodinger(v, 0.0))
        fam = Family(SCHRODINGER_E, base, power=power)
        fam._v = v
        return fam

    # -- evaluation ---------------------------------------------------------
    def theta_cocycle(self, theta):
        """The member cocycle at (possibly complex) parameter theta."""
        if self.kind == PHASE_SHIFT:
            return Cocycle(
                self.alpha, Shift(theta * self.w, self.cocycle.expr)
            )
        if self.kind == ROT_TWIST:
            expr = Product([Const(alg.rot(-theta), self.dim), self.cocycle.expr])
            return Cocycle(self.alpha, expr)
        if self.kind == SCHRODINGER_E:
            c = Cocycle(self.alpha, schrodinger(self._v, theta))
            return c if self.power == 1 else c.iterate_cocycle(self.power)
        raise ValueError(f"unknown family kind {self.kind}")

    def eval_theta(self, theta, x):
        return self.theta_cocycle(theta).eval(x)

    def theta_jet(self, theta, x, order=1):
        """[A, dA/dtheta, ...] at real theta; exact, no finite differences."""
        if self.kind == PHASE_SHIFT:
            pts = _as_points(x, self.dim) + theta * self.w
            return self.cocycle.expr.jet(pts, self.w, order)
        if self.kind == ROT_TWIST:
            a = self.eval_theta(theta, x)
            da = -2 * np.pi * alg.mul(alg.J, a)
            out = [a, da]
            if order >= 2:
                out.append(-((2 * np.pi) ** 2) * a)
            return out
        if self.kind == SCHRODINGER_E:
            x = _as_points(x, self.dim)
            one_step = lambda y: self._schrodinger_jet(theta, y, order)
            jets = one_step(x)
            for k in range(1, self.power):
                jets = _leibniz(one_step(x + k * self.alpha), jets)
            return jets
        raise ValueError(f"unknown family kind {self.kind}")

    def _schrodinger_jet(self, E, x, order):
        a = schrodinger(self._v, E).eval(x)
        d = np.zeros_like(a)
        d[..., 0, 0] = 1.0  # d/dE [[E - v, -1], [1, 0]]
        out = [a, d]
        if order >= 2:
            out.append(np.zeros_like(a))
        return out

    def theta_bounds(self):
        """(M0, M1, M2) sup bounds for the theta-dependence on the real torus."""
        if self.kind == PHASE_SHIFT:
            return self.cocycle.expr.bounds(self.w)
        if self.kind == ROT_TWIST:
            m0, _, _ = self.cocycle.expr.bounds(np.zeros(self.dim))
            return m0, 2 * np.pi * m0, (2 * np.pi) ** 2 * m0
        if self.kind == SCHRODINGER_E:
            raise NotImplementedError(
                "energy families certify on explicit windows only"
            )
        raise ValueError(f"unknown family kind {self.kind}")

    def fiber_degree(self, x0=None, samples=2048):
        """Winding of theta -> A_theta(x0) e_1 over one parameter loop."""
        x0 = np.zeros(self.dim) if x0 is None else np.asarray(x0, dtype=float)

        def column(n):
            mats = np.stack(
                [
                    self.eval_theta(t, x0[None, :])[0]
                    for t in np.linspace(0.0, 1.0, n + 1)
                ]
            )
            return mats[:, 0, 0] + 1j * mats[:, 1, 0]

        return alg.winding(column, samples)

    def to_json(self):
        out = {"kind": self.kind, "cocycle": self.cocycle.to_json()}
        if self.w is not None:
            out["w"] = list(map(float, self.w))
        if self.kind == SCHRODINGER_E:
            out["v"] = self._v.to_json()
            out["power"] = self.power
        return out

    @staticmethod
    def from_json(obj):
        kind = obj["kind"]
        if kind == SCHRODINGER_E:
            return Family.schrodinger_energy(
                TrigPoly.from_json(obj["v"]),
                np.asarray(obj["cocycle"]["alpha"], dtype=float),
                power=obj.get("power", 1),
            )
        c = Cocycle.from_json(obj["cocycle"])
        if kind == PHASE_SHIFT:
            return Family.phase_shift(c, np.asarray(obj["w"], dtype=float))
        if kind == ROT_TWIST:
            return Family.rot_twist(c)
        raise ValueError(f"unknown family kind {kind}")


# -- builder shorthand expansion ------------------------------------------------


def expand_builders(obj):
    """Allow {'builder': name, ...} shorthand in cocycle JSON files."""
    if "builder" not in obj:
        return obj
    name = obj["builder"]
    alpha = obj["alpha"]
    if name == "rotation_model":
        expr = rotation_model(obj["l"])
    elif name == "herman":
        expr = herman(obj["lambda"], tuple(obj.get("l", (1,))))
    elif name == "schrodinger":
        expr = schrodinger(TrigPoly.from_json(obj["v"]), obj["E"])
    elif name == "rotation":
        phi = TrigPoly.from_json(obj["phi"]) if "phi" in obj else None
        expr = Rot(obj.get("l", (0,)), phi)
    else:
        raise ValueError(f"unknown builder {name!r}")
    return {
        "dimension": expr.dim,
        "alpha": alpha,
        "expr": expr.to_json(),
    }


GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0
SILVER_MEAN = np.sqrt(2.0) - 1.0
