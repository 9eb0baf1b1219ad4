"""Finite Fourier data on the d-torus with exact complex evaluation.

A TrigPoly is a finite sum  sum_k c_k e^{2 pi i <k, x>}  over integer
multi-indices k.  Evaluation accepts complex torus points, which is the
analytic continuation used by the strip machinery.  Real-valued polys keep
the c_{-k} = conj(c_k) pairing structurally.
"""

from types import MappingProxyType

import numpy as np

from .errors import Overflow

_EXP_LIMIT = 690.0  # exp beyond this exceeds 1e299


class TrigPoly:
    """Finite Fourier sum.  `coeffs` is a read-only view, so the sorted mode
    matrix and coefficient vector that `eval` uses, built once at
    construction, cannot go stale."""

    def __init__(self, dim, coeffs=None, real=True):
        self.dim = int(dim)
        out = {}
        if coeffs:
            for k, c in coeffs.items():
                k = tuple(int(v) for v in k)
                if len(k) != self.dim:
                    raise ValueError("mode length != dim")
                c = complex(c)
                if c != 0:
                    out[k] = out.get(k, 0.0) + c
        self._coeffs = MappingProxyType(out)
        self.real = bool(real)
        if self.real:
            self._check_real_pairing()
        modes = sorted(out)
        self._modes = np.array(modes, dtype=float).reshape(-1, self.dim)
        self._coefs = np.array([out[k] for k in modes], dtype=complex)

    @property
    def coeffs(self):
        """Read-only mode -> coefficient mapping."""
        return self._coeffs

    def __reduce__(self):  # pickle and deepcopy rebuild from the mapping
        return TrigPoly, (self.dim, dict(self._coeffs), self.real)

    def _check_real_pairing(self):
        for k, c in self.coeffs.items():
            mk = tuple(-v for v in k)
            cm = self.coeffs.get(mk, 0.0)
            if abs(np.conj(c) - cm) > 1e-12 * max(1.0, abs(c)):
                raise ValueError("real poly needs c_{-k} = conj(c_k)")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(dim=1):
        return TrigPoly(dim, {})

    @staticmethod
    def constant(value, dim=1):
        return TrigPoly(dim, {(0,) * dim: value}, real=abs(np.imag(value)) == 0)

    @staticmethod
    def cosine(k=(1,), amp=1.0, dim=None):
        k = tuple(int(v) for v in np.atleast_1d(k))
        dim = len(k) if dim is None else dim
        mk = tuple(-v for v in k)
        return TrigPoly(dim, {k: amp / 2.0, mk: amp / 2.0})

    @staticmethod
    def sine(k=(1,), amp=1.0, dim=None):
        k = tuple(int(v) for v in np.atleast_1d(k))
        dim = len(k) if dim is None else dim
        mk = tuple(-v for v in k)
        return TrigPoly(dim, {k: amp / 2.0j, mk: -amp / 2.0j})

    # -- algebra -----------------------------------------------------------
    def __add__(self, other):
        if np.isscalar(other):
            other = TrigPoly.constant(other, self.dim)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return TrigPoly(self.dim, out, real=self.real and other.real)

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, TrigPoly) else -other)

    def __rsub__(self, other):
        return (self * -1.0) + other

    __radd__ = __add__

    def __mul__(self, scalar):
        s = complex(scalar)
        return TrigPoly(
            self.dim,
            {k: c * s for k, c in self.coeffs.items()},
            real=self.real and abs(s.imag) == 0,
        )

    __rmul__ = __mul__

    def mean(self):
        c0 = self.coeffs.get((0,) * self.dim, 0.0)
        return c0.real if self.real else c0

    # -- evaluation ---------------------------------------------------------
    def eval(self, x):
        """Evaluate at torus points x of shape (..., dim); x may be complex."""
        x = np.asarray(x)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.shape[-1] != self.dim:
            raise ValueError("point dimension mismatch")
        modes, coefs = self._modes, self._coefs
        real = self.real and np.isrealobj(x)
        if modes.shape[0] == 0:
            return np.zeros(x.shape[:-1], dtype=float if real else complex)
        phase = 2j * np.pi * (x @ modes.T)
        if np.max(np.abs(phase.real)) > _EXP_LIMIT:
            raise Overflow("trig poly evaluation out of floating range")
        vals = np.exp(phase) @ coefs
        return vals.real if real else vals

    def __call__(self, x):
        return self.eval(x)

    # -- calculus ------------------------------------------------------------
    def deriv(self, direction):
        """Directional derivative along a constant vector (d/dt) f(x + t u)."""
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        out = {
            k: c * 2j * np.pi * float(np.dot(k, u))
            for k, c in self.coeffs.items()
        }
        return TrigPoly(self.dim, out, real=self.real)

    def shifted(self, offset):
        """f(x + offset); complex offsets give the analytic continuation."""
        off = np.atleast_1d(np.asarray(offset))
        out = {
            k: c * np.exp(2j * np.pi * complex(np.dot(k, off)))
            for k, c in self.coeffs.items()
        }
        return TrigPoly(self.dim, out, real=self.real and np.isrealobj(off))

    def compose_linear(self, l, shift=0.0):
        """One-dim poly evaluated at u = <l, x> + shift, as a d-dim poly."""
        if self.dim != 1:
            raise ValueError("compose_linear needs a 1-d poly")
        l = np.atleast_1d(np.asarray(l, dtype=int))
        out = {}
        for (m,), c in self.coeffs.items():
            k = tuple(int(m * v) for v in l)
            out[k] = out.get(k, 0.0) + c * np.exp(
                2j * np.pi * m * complex(shift)
            )
        return TrigPoly(
            len(l), out, real=self.real and abs(complex(shift).imag) == 0
        )

    # -- bounds ---------------------------------------------------------------
    def sup_bound(self):
        """sum |c_k| >= sup over the real torus of |f|."""
        return float(sum(abs(c) for c in self.coeffs.values()))

    def deriv_bound(self, direction, order=1):
        """Bernstein-type bound sum |c_k| (2 pi |<k,u>|)^order."""
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        return float(
            sum(
                abs(c) * (2.0 * np.pi * abs(float(np.dot(k, u)))) ** order
                for k, c in self.coeffs.items()
            )
        )

    def support(self):
        return sorted(self.coeffs.keys())

    # -- serialization ---------------------------------------------------------
    def to_json(self):
        return {
            "dim": self.dim,
            "real": self.real,
            "coeffs": [
                {"k": list(k), "re": c.real, "im": c.imag}
                for k, c in sorted(self.coeffs.items())
            ],
        }

    @staticmethod
    def from_json(obj):
        coeffs = {
            tuple(e["k"]): complex(e["re"], e.get("im", 0.0))
            for e in obj.get("coeffs", [])
        }
        return TrigPoly(obj["dim"], coeffs, real=obj.get("real", True))

    def __eq__(self, other):
        return (
            isinstance(other, TrigPoly)
            and self.dim == other.dim
            and self.real == other.real
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TrigPoly(dim={self.dim}, modes={len(self.coeffs)})"
