"""cocyclelab: numerics for quasiperiodic SL(2,R) cocycles.

Library covering Lyapunov exponents, fibered rotation numbers,
monotonicity certification, complexified invariant sections, Kotani
diagnostics, the conformal barycenter and continued-fraction
renormalization, with quantitative identity checks at desk scale.
"""

__version__ = "0.1.0"
