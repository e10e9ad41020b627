"""Exact-arithmetic toolkit for (q-)Askey scheme orthogonal polynomials.

The package evaluates the classical and basic hypergeometric families
(Jacobi/ultraspherical, Krawtchouk, Hahn, dual Hahn, Racah, Wilson,
Askey-Wilson, continuous q-ultraspherical, q-Racah) in exact rational
arithmetic and machine-checks their structural identities: dualities,
orthogonality relations, linearization, addition and dual addition
formulas.  A floating-point companion verifies the q -> 1 and N -> infinity
limit claims, and a CLI runs the whole suite with deterministic reports.
"""

__version__ = "0.1.0"

from .errors import (
    InadmissiblePoint,
    NonConvergence,
    NonFinite,
    NonPositiveWeight,
    ParameterError,
    QAskeyError,
    VanishingDenominator,
    ZeroArgument,
)
from .families import (
    AWParams,
    HahnParams,
    JacobiParams,
    KrawtchoukParams,
    QParams,
    QRacahParams,
    RacahParams,
    WilsonParams,
)
from .laurent import LaurentPoly, x_embed
from .series import HyperSeriesSpec, terminating_hyper

__all__ = [
    "__version__",
    "AWParams",
    "HahnParams",
    "HyperSeriesSpec",
    "InadmissiblePoint",
    "JacobiParams",
    "KrawtchoukParams",
    "LaurentPoly",
    "NonConvergence",
    "NonFinite",
    "NonPositiveWeight",
    "ParameterError",
    "QAskeyError",
    "QParams",
    "QRacahParams",
    "RacahParams",
    "terminating_hyper",
    "VanishingDenominator",
    "WilsonParams",
    "x_embed",
    "ZeroArgument",
]
