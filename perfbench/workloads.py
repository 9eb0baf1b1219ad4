"""The four benchmark workloads: seeded inputs, one op each, and its oracle.

A workload turns a numpy Generator into inputs (`make_input`), runs one op on
an input (`run`, the timed part) and checks the op's output (`check`, not
timed), returning its accuracy as a list of (label, error, tolerance)
triples.  An op fails when it raises a `CocycleLabError` or when any error
exceeds its tolerance.

Every library call goes through a module attribute (`lyap.lyapunov_orbit`,
never a name imported by value), so the trace wrappers installed on those
attributes see it.

`make_input(rng, small=True)` builds the warm-up input: the same call mix at
a reduced size, which touches every code path of the op without making the
set-up time a copy of the op time.
"""

from dataclasses import dataclass

import numpy as np

from cocyclelab import algebra as alg
from cocyclelab import barycenter as bc
from cocyclelab import cocycle as cc
from cocyclelab import complexify as cx
from cocyclelab import lyap, renorm, rotnum, section
from cocyclelab.trig import TrigPoly

GOLD = cc.GOLDEN_MEAN


class Orbit:
    """Birkhoff orbit walks: Herman L and a conjugated-rotation rho."""

    name = "orbit"
    lam = 2.0
    rho = 0.3

    def make_input(self, rng, small=False):
        n = 2**10 if small else 2**16
        herman = cc.Cocycle([GOLD], cc.herman(self.lam))
        rotation = cc.Cocycle(
            [GOLD], cc.Rot((0,), TrigPoly.constant(self.rho))
        ).conjugated(cc.ShearU(TrigPoly.cosine((1,), 0.5)))
        return dict(x0=[rng.uniform()], n=n, herman=herman, rotation=rotation)

    def run(self, inp, counters):
        est = lyap.lyapunov_orbit(inp["herman"], x0=inp["x0"], n=inp["n"])
        rho, _ = rotnum.fibered_rotation_number(
            inp["rotation"], x0=inp["x0"], n=inp["n"]
        )
        return est.value, rho

    def check(self, inp, out):
        value, rho = out
        n = inp["n"]
        # L(herman(lam)) = ln((lam + 1/lam) / 2): phase shifts carry R_t A to A
        exact_l = np.log((self.lam + 1.0 / self.lam) / 2.0)
        rho_err = abs((rho - self.rho + 0.5) % 1.0 - 0.5)
        return [
            ("lyapunov", abs(value - exact_l), 8.0 / n),
            ("rotation", rho_err, 8.0 / n),
        ]


class Variation:
    """Parameter-path lifts of the phase-shift family of a Product tree."""

    name = "variation"
    window = 0.4
    theta_imag = -0.04  # the side strip_width certifies; +0.04 is not

    def make_input(self, rng, small=False):
        expr = cc.Product(
            [
                cc.Const(np.diag([2.0, 0.5])),
                cc.Rot((1,), TrigPoly.cosine((1,), 0.1)),
            ]
        )
        family = cc.Family.phase_shift(cc.Cocycle([GOLD], expr), [1.0])
        return dict(
            theta0=rng.uniform(), n=500 if small else 10**4, family=family
        )

    def run(self, inp, counters):
        fam, th, n = inp["family"], inp["theta0"], inp["n"]
        loop = rotnum.variation_rho(fam, th, th + 1.0, n=n, steps=64)
        window = rotnum.variation_rho(
            fam, th, th + self.window, n=n, steps=64, theta_imag=self.theta_imag
        )
        return loop, window

    def check(self, inp, out):
        loop, window = out
        # members at equal Im theta are phase shifts of each other, so the
        # Lyapunov difference across the window vanishes
        return [
            ("loop_rho", abs(loop.deltaRho - 1.0), loop.tolerance),
            ("window_rho", abs(window.deltaRho - self.window), window.tolerance),
            ("window_L", abs(2.0 * np.pi * window.deltaL), window.tolerance),
        ]


def disk_points(rng, size):
    """`size` seed-drawn points, uniform in the disk |z| < 0.8."""
    radius = 0.8 * np.sqrt(rng.uniform(size=size))
    return radius * np.exp(2j * np.pi * rng.uniform(size=size))


def hyperbolic_distance(z, w):
    """Distance for the library's metric |dz| / (1 - |z|^2), in plain numpy."""
    return np.arctanh(abs(z - w) / abs(1.0 - np.conj(w) * z))


class Barycenter:
    """Conformal barycenters: 40 atoms, their Moebius pushforward, and a
    5-fold symmetric measure of 40 atoms pushed forward by the same map."""

    name = "barycenter"
    tol = 1e-8
    fold = 5
    # The test suite asks for 1e-7 on 5-atom measures.  On 40 atoms about
    # one op in 200 lands near 1e-5 at the commit that added this benchmark
    # (compaction is not exactly equivariant); `digits` records that, and
    # this gate fails only an answer that is wrong, not imprecise.
    equivariance_tol = 1e-4
    # The barycenter of a symmetric measure is its center of symmetry.  At
    # the commit that added this benchmark the library lands up to about
    # 1.8e-3 (hyperbolic, 89 seeds) away from it on 40 atoms: compaction to 64
    # atoms limits the accuracy, whatever `tol` asks for.  `digits` records
    # that; the gate fails an answer further off than this, such as the
    # measure's `canonical_point` (median 6e-3, 62% of seeds above 5e-3).
    symmetric_tol = 5e-3

    def make_input(self, rng, small=False):
        size = 8 if small else 40
        mu = bc.DiskMeasure.uniform(disk_points(rng, size))
        # size / fold points and their rotations by 2 pi k / fold: the
        # rotations fix the measure, so its barycenter is 0
        turns = np.exp(2j * np.pi * np.arange(self.fold) / self.fold)
        symmetric = (disk_points(rng, size // self.fold)[:, None] * turns).ravel()
        move = alg.random_su11(rng)
        return dict(
            mu=mu,
            nu=mu.pushforward(move),
            sym=bc.DiskMeasure.uniform(symmetric).pushforward(move),
            move=move,
            tol=1e-2 if small else self.tol,
        )

    def run(self, inp, counters):
        b_mu, trace = bc.conformal_barycenter(
            inp["mu"], tol=inp["tol"], return_trace=True
        )
        b_nu = bc.conformal_barycenter(inp["nu"], tol=inp["tol"])
        b_sym = bc.conformal_barycenter(inp["sym"], tol=inp["tol"])
        counters["barycenter.iterations"] += len(trace)
        return b_mu, b_nu, b_sym

    def check(self, inp, out):
        b_mu, b_nu, b_sym = out
        move = inp["move"]
        # move(0) = b / d for move = [[a, b], [c, d]]
        center = move[0, 1] / move[1, 1]
        return [
            (
                "equivariance",
                abs(b_nu - complex(alg.mobius_apply(move, b_mu))),
                self.equivariance_tol,
            ),
            ("symmetric", hyperbolic_distance(b_sym, center), self.symmetric_tol),
        ]


class RotationModel:
    """The distance of a sampled cocycle A to the rotations R_{t + deg x}.

    distance(t) = max over the grid of |R_{-t - deg x} A(x) - I|_2, in plain
    numpy.  A real 2x2 matrix M = [[a, b], [c, d]] has |M|_2 = |q| + |r|
    with q = ((a + d) + i(c - b)) / 2 and r = ((a - d) + i(c + b)) / 2;
    the rotation R_s multiplies q and r by exp(2 pi i s), and subtracting I
    subtracts 1 from q.
    """

    def __init__(self, grid, mats, degree):
        a, b = mats[:, 0, 0], mats[:, 0, 1]
        c, d = mats[:, 1, 0], mats[:, 1, 1]
        self.q = (a + d + 1j * (c - b)) / 2 * np.exp(-2j * np.pi * degree * grid)
        self.r = np.abs(a - d + 1j * (c + b)) / 2

    def distance(self, thetas):
        turn = np.exp(-2j * np.pi * np.atleast_1d(thetas))[:, None]
        return np.max(np.abs(self.q * turn - 1.0) + self.r, axis=1)

    def minimum(self, coarse=512, candidates=2, width=1e-13):
        """Minimum over t: a dense scan, then zooms around its best points."""
        thetas = np.arange(coarse) / coarse
        values = self.distance(thetas)
        best = np.inf
        for k in np.argsort(values)[:candidates]:
            lo, hi = thetas[k] - 1.0 / coarse, thetas[k] + 1.0 / coarse
            while hi - lo > width:
                ts = np.linspace(lo, hi, 33)
                vs = self.distance(ts)
                j = int(np.argmin(vs))
                lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, 32)]
            best = min(best, vs[j])
        return best


class Cascade:
    """Renormalization cascade plus strip and mirrored-section checks."""

    name = "cascade"
    levels = (0.1, 0.05, 0.025, 0.0125)
    residual_tol = 1e-10

    def make_input(self, rng, small=False):
        rotation = cc.Cocycle(
            [GOLD], cc.Rot((1,), TrigPoly.cosine((1,), 0.1))
        )
        lam = rng.uniform(1.5, 2.5)
        family = cc.Family.phase_shift(
            cc.Cocycle([GOLD], cc.herman(lam)), [1.0]
        )
        return dict(
            rotation=rotation,
            x_star=rng.uniform(),
            family=family,
            depth=2 if small else 6,
            grid=512 if small else 1024,
            levels=self.levels[:2] if small else self.levels,
        )

    def run(self, inp, counters):
        rows = renorm.renorm_cascade(
            inp["rotation"], inp["depth"], x_star=inp["x_star"]
        )
        cert = cx.strip_width(inp["family"])
        sections = [
            section.mirrored_sections(inp["family"], t, cert.side, grid=inp["grid"])
            for t in inp["levels"]
        ]
        return rows, cert, sections

    def check(self, inp, out):
        rows, cert, sections = out
        residuals = [m.residual for pair in sections for m in pair]
        errors = [
            (
                "commutation",
                max(r["commutation_residual"] for r in rows),
                self.residual_tol,
            ),
            (
                "periodicity",
                max(r["periodicity_residual"] for r in rows),
                self.residual_tol,
            ),
            ("section", max(residuals), self.residual_tol),
            ("rotation_model", self.model_error(inp, rows), self.residual_tol),
        ]
        # a structural miss reads as an infinite error
        wrong_degree = sum(
            r["representative_degree"] != r["expected_degree"] for r in rows
        )
        errors.append(("degree", np.inf if wrong_degree else 0.0, 0.5))
        uncertified = max(inp["levels"]) > cert.delta
        errors.append(("strip", np.inf if uncertified else 0.0, 0.5))
        return errors

    def model_error(self, inp, rows):
        """Worst gap of a row's (theta_hat, distance) to `RotationModel`.

        Rebuilds each level's representative through the public renorm
        steps, then checks that `distance` is the model distance at
        `theta_hat` and is no larger than the model's minimum.
        """
        rotation = inp["rotation"]
        cf = renorm.continued_fraction(float(rotation.alpha[0]), inp["depth"] + 1)
        deg = cc.homotopy_class(rotation)[0]
        worst = 0.0
        for row in rows:
            n = row["level"]
            pair = renorm.commuting_pair(rotation, cf, n, x_star=inp["x_star"])
            rep = renorm.renorm_representative(pair, renorm.normalizing_map(pair))
            if np.iscomplexobj(rep.mats):
                return np.inf  # the model's norm formula is for real matrices
            model = RotationModel(rep.grid, rep.mats, (-1) ** n * deg)
            at_hat = model.distance(row["theta_hat"])[0]
            worst = max(
                worst,
                abs(at_hat - row["distance"]),
                row["distance"] - model.minimum(),
            )
        return worst


WORKLOADS = {w.name: w for w in (Orbit(), Variation(), Barycenter(), Cascade())}


@dataclass
class OpResult:
    seconds: float  # wall time
    ref_seconds: float  # time at the reference speed (reference.py)
    errors: list  # (label, error, tolerance); empty when the op raised
    failure: str = ""

    @property
    def ok(self):
        return not self.failure and all(e <= tol for _, e, tol in self.errors)

    @property
    def digits(self):
        """-log10 of the worst error, floored at 1e-16; 0 when the op raised."""
        if not self.errors:
            return 0.0
        worst = max(e for _, e, _ in self.errors)
        return -np.log10(min(max(worst, 1e-16), 1.0))
