"""Reference formulas the tests check the package against: closed forms
that no suite row checks, the scalars of the closed dual-addition
coefficients and of the closed projection sum from their q-Pochhammer
symbols at one k, the product (a z^e; q)_k built factor by factor,
the Laurent q-series summed term by term, the q-Racah 4phi3 for free
parameters, the q-Racah weight formula for one x and the norm formula for
one n, and the variable maps z -> 1/z and z -> -z."""

from fractions import Fraction

from qaskey.errors import ParameterError, VanishingDenominator
from qaskey.families import QParams, QRacahParams
from qaskey.laurent import LaurentPoly
from qaskey.series import HyperSeriesSpec, qpochhammer, terminating_hyper


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


def dual_addition_scalar_per_k(k: int, l: int, m: int, qp: QParams) -> Fraction:
    """The scalar c_k of the k-th closed dual-addition coefficient, from
    its q-Pochhammer symbols at this k alone."""
    q, b, qh, t = qp.q, qp.beta, qp.qhalf, qp.t
    c = Fraction(-1) ** k * t ** (2 * k * (k + l + m + 2)) * b ** k
    if k >= 1:  # at k = 0 the ratio is 1, also where beta = 1 makes it 0/0
        c *= (1 - b * b * q ** (2 * k)) / (1 - b * b * q ** k)
    c *= qpochhammer(q ** (-l), q, k) * qpochhammer(q ** (-m), q, k) * qpochhammer(q * b * b, q, k)
    c /= qpochhammer(q * b, q, k) ** 2 * qpochhammer(q, q, k)
    c /= qpochhammer(-qh * b, qh, 2 * k) ** 2
    return c


def projection_prefactor_per_k(k: int, l: int, m: int, qp: QParams) -> Fraction:
    """The scalar prefactor of the k-th closed projection sum, from its
    q-Pochhammer symbols at this k alone."""
    q, b, qh, t, s = qp.q, qp.beta, qp.qhalf, qp.t, qp.s
    pref = (t ** (2 * (l + m + 1)) * s * s) ** k
    pref *= qpochhammer(t ** (2 - 4 * (l + m)) / b, q, k)
    pref /= qpochhammer(-qh * b, q, k) * qpochhammer(q * b, q, k) * qpochhammer(-q * b, q, k)
    b2 = q ** (2 * k + 1) * b * b
    bh = t ** (4 * k + 2) * b
    pref *= qpochhammer(b2, q, l - k) * qpochhammer(b2, q, m - k) / qpochhammer(b2, q, l + m - 2 * k)
    pref *= qpochhammer(bh, q, l + m - 2 * k) / (
        qpochhammer(bh, q, l - k) * qpochhammer(bh, q, m - k)
    )
    return pref


def laurent_phi_terms(scalar_nums, scalar_dens, a_laurent, qbase, arg, nterms) -> LaurentPoly:
    """sum_k c_k arg^k (az; q)_k (a z^-1; q)_k, c_k = (scalar_nums; q)_k /
    ((q; q)_k (scalar_dens; q)_k), one term at a time: (az, a/z; q)_k from
    full Laurent products and c_k by term ratios, stopping at the first
    zero term and raising at the first vanishing denominator."""
    if nterms < 0:
        raise ParameterError(f"degree must be >= 0, got {nterms}")
    scalar_nums = [Fraction(v) for v in scalar_nums]
    scalar_dens = [Fraction(v) for v in scalar_dens]
    a_laurent, qbase, arg = Fraction(a_laurent), Fraction(qbase), Fraction(arg)
    coeff = Fraction(1)
    lpart = LaurentPoly.constant(1)
    total = lpart
    qpow = Fraction(1)  # q^k
    for k in range(nterms):
        for v in scalar_nums:
            coeff *= 1 - qpow * v
        az = qpow * a_laurent
        lpart = lpart * (
            (LaurentPoly.constant(1) - LaurentPoly.monomial(1, az))
            * (LaurentPoly.constant(1) - LaurentPoly.monomial(-1, az))
        )
        qpow *= qbase
        den = 1 - qpow
        for v in scalar_dens:
            den *= 1 - (qpow / qbase) * v
        if den == 0:
            raise VanishingDenominator(k + 1, "Laurent q-series denominator")
        coeff = coeff * arg / den
        if not coeff:
            break
        total = total + lpart * coeff
    return total


def qracah_phi(n: int, x: int, alpha, beta, gamma, delta, q) -> Fraction:
    """The q-Racah 4phi3 at lattice index x for free parameters, summed by
    the validated series spec."""
    spec = HyperSeriesSpec(
        numerator=(q ** (-n), q ** (n + 1) * alpha * beta, q ** (-x), q ** (x + 1) * gamma * delta),
        denominator=(q * alpha, q * beta * delta, q * gamma),
        argument=q,
        termination=min(n, x),
        base=q,
    )
    return terminating_hyper(spec)


def qracah_weight_per_x(x: int, a, b, g, d, q) -> Fraction:
    """The q-Racah weight at x for free parameters from its q-Pochhammer
    symbols at this x alone, each denominator factor checked up to x."""
    if 1 - g * d * q == 0:
        raise VanishingDenominator(0, "1 - gamma*delta*q = 0")
    dens = (q, g * d * q / a, g * q / b, d * q)
    qpow = Fraction(1)
    for i in range(x):
        for base in dens:
            if qpow * base == 1:
                raise VanishingDenominator(i + 1, f"(b; q)_x factor with b={base}")
        qpow *= q
    num = (1 - g * d * q ** (2 * x + 1)) * Fraction(1)
    for base in (a * q, b * d * q, g * q, g * d * q):
        num *= qpochhammer(base, q, x)
    den = (a * b * q) ** x * (1 - g * d * q)
    for base in dens:
        den *= qpochhammer(base, q, x)
    return num / den


def qracah_norm_per_n(n: int, qrp: QRacahParams) -> Fraction:
    """The q-Racah norm h_n from its q-Pochhammer symbols at this n alone,
    times h_0; the lattice bound is the caller's."""
    a, b, g, d, q = qrp.alpha, qrp.beta, qrp.gamma, qrp.delta, qrp.qp.q
    den = Fraction(1)
    for base in (q * a, q * a * b, q * g, q * b * d):
        den *= qpochhammer(base, q, n)
    den *= 1 - a * b * q ** (2 * n + 1)
    if den == 0:
        raise VanishingDenominator(n, "q-Racah norm-ratio denominator vanishes")
    num = (1 - a * b * q) * (q * g * d) ** n
    for base in (q, q * b, q * a * b / g, q * a / d):
        num *= qpochhammer(base, q, n)
    return num / den * qrp.h0


def invert_variable(p: LaurentPoly) -> LaurentPoly:
    """The image of p under z -> 1/z (every exponent negated)."""
    return LaurentPoly({-k: v for k, v in p.items()})


def negate_variable(p: LaurentPoly) -> LaurentPoly:
    """The image of p under z -> -z."""
    return LaurentPoly({k: -v if k % 2 else v for k, v in p.items()})
