"""Reference formulas the tests check the package against: closed forms
that no suite row checks, the product (a z^e; q)_k built factor by factor,
and the variable maps z -> 1/z and z -> -z."""

from fractions import Fraction

from qaskey.errors import VanishingDenominator
from qaskey.families import QParams, QRacahParams
from qaskey.laurent import LaurentPoly
from qaskey.series import qpochhammer


def qpoch_laurent_pow(a, zexp: int, qbase, k: int) -> LaurentPoly:
    """prod_{j<k} (1 - q^j a z^zexp) as a Laurent polynomial."""
    out = LaurentPoly.constant(1)
    for j in range(k):
        out = out * (1 - LaurentPoly.monomial(zexp, Fraction(a) * Fraction(qbase) ** j))
    return out


def cqu_leading_z_coeff(n: int, qp: QParams) -> Fraction:
    """Coefficient of z^n: (q^(1/2) beta)^(n/2) (q^(1/2)b; q)_n / (qb^2; q)_n."""
    q, b = qp.q, qp.beta
    return (qp.t * qp.s) ** n * qpochhammer(qp.qhalf * b, q, n) / qpochhammer(q * b * b, q, n)


def qracah_at_top(n: int, qrp: QRacahParams) -> Fraction:
    """Closed-form value of the q-Racah polynomial at x = N
    (the q-Saalschuetz evaluation)."""
    a, b, d, q = qrp.alpha, qrp.beta, qrp.delta, qrp.qp.q
    num = qpochhammer(q * b, q, n) * qpochhammer(q * a / d, q, n)
    den = qpochhammer(q * a, q, n) * qpochhammer(q * b * d, q, n)
    if den == 0:
        raise VanishingDenominator(n, "q-Racah top-evaluation denominator vanishes")
    return num / den * d ** n


def invert_variable(p: LaurentPoly) -> LaurentPoly:
    """The image of p under z -> 1/z (every exponent negated)."""
    return LaurentPoly({-k: v for k, v in p.items()})


def negate_variable(p: LaurentPoly) -> LaurentPoly:
    """The image of p under z -> -z."""
    return LaurentPoly({k: -v if k % 2 else v for k, v in p.items()})
