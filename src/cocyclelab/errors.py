"""Exception types raised across the library.

Every error carries enough context (offending value, witness location) for the
caller to refine grids/steps or reject the input.
"""


class CocycleLabError(Exception):
    """Base class for all library errors."""


class PoleOnCircle(CocycleLabError):
    """Moebius map has its pole on or inside the unit circle (|d| <= |c|)."""


class DegenerateTau(CocycleLabError):
    """tau(z) vanished; the matrix is not in the closed contraction set."""


class UnwrapStep(CocycleLabError):
    """Consecutive phase jump too large for a reliable lift; refine sampling."""


class BoundaryPoint(CocycleLabError):
    """A disk argument sits on (or numerically on) the unit circle."""


class Overflow(CocycleLabError):
    """Complexified evaluation exceeded floating-point range (strip too wide)."""


class NonIntegerWinding(CocycleLabError):
    """Winding lift endpoint too far from an integer."""


class NotMonotonic(CocycleLabError):
    """Sign change in the angular derivative; witness stored in .witness."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class Uncertified(CocycleLabError):
    """Derivative sign uniform on the grid but the Lipschitz margin failed."""


class IllConditioned(CocycleLabError):
    """Moment linear system too ill-conditioned; adjust kernel halfwidth."""


class Undersampled(CocycleLabError):
    """Sample grid too coarse for the requested extension level."""


class DetVanishes(CocycleLabError):
    """Determinant of the extension got too close to 0 (strip too wide)."""


class NoContraction(CocycleLabError):
    """Neither half-plane contracts at the smallest probe level."""


class SlowContraction(CocycleLabError):
    """Graph-transform update ratio too close to 1 for this grid."""


class NoConvergence(CocycleLabError):
    """Iteration budget exhausted; diagnostic value stored in .diameter."""

    def __init__(self, msg, diameter=None):
        super().__init__(msg)
        self.diameter = diameter


class PhiIncrease(CocycleLabError):
    """Barycenter energy Phi rose across an iteration (merge policy fault)."""


class AtomBlowup(CocycleLabError):
    """Atom count exceeded the hard cap before compaction could act."""


class RationalAlpha(CocycleLabError):
    """Continued-fraction remainder hit zero before the requested depth."""


class CommutationResidual(CocycleLabError):
    """Commuting-pair identity failed numerically (reduce the level)."""


class ChartMiss(CocycleLabError):
    """Normalizing-map seed path could not be built in the chosen chart."""


class PeriodicityResidual(CocycleLabError):
    """Renormalization representative failed the 1-periodicity check."""


class NotAtZeroEnergy(CocycleLabError):
    """Derivative-bound check requires L close to zero at the base point."""

