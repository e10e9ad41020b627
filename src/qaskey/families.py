"""Constructors and exact evaluators for the polynomial families of the
scheme.  Their float counterparts live in `numerics`.

Classical side: Jacobi/ultraspherical, Krawtchouk, Hahn, dual Hahn, Racah
(with weights and norms), Wilson in its real-rational dual form.  q-side:
Askey-Wilson, continuous q-ultraspherical in two representations, q-Racah
(with weights and norms).

All q-dependent parameters are derived from a QParams pair (t, s) with
t = q^(1/4) and s = beta^(1/2), so quarter powers of q and half powers of
beta are exact rationals and every in-scope identity becomes a statement
over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial
from typing import NamedTuple

from .errors import ParameterError, VanishingDenominator, ZeroArgument
from .laurent import LaurentPoly, SymmetricLaurent
from .series import (
    HyperSeriesSpec,
    pochhammer,
    qpochhammer,
    terminating_hyper,
)


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QParams:
    """The exact carrier of q and beta: t = q^(1/4), s = beta^(1/2).

    Requires 0 < t < 1, s > 0 and s*t < 1 (the latter is the admissibility
    window 0 < beta < q^(-1/2) of the continuous q-ultraspherical family).
    """

    t: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "s", Fraction(self.s))
        if not 0 < self.t < 1:
            raise ParameterError(f"need 0 < t < 1, got t={self.t}")
        if not self.s > 0:
            raise ParameterError(f"need s > 0, got s={self.s}")
        if not self.s * self.t < 1:
            raise ParameterError(f"need s*t < 1 (beta < q^(-1/2)), got s*t={self.s * self.t}")

    # Cached in the instance __dict__, outside the fields that eq and hash use.
    @cached_property
    def q(self) -> Fraction:
        return self.t ** 4

    @cached_property
    def qhalf(self) -> Fraction:
        return self.t ** 2

    @property
    def qquarter(self) -> Fraction:
        return self.t

    @cached_property
    def beta(self) -> Fraction:
        return self.s ** 2

    @property
    def betahalf(self) -> Fraction:
        return self.s

    @property
    def a(self) -> Fraction:
        """The alternative parameter a = q^(1/4) beta^(1/2) of the
        Rahman-Verma normalization (beta = q^(-1/2) a^2)."""
        return self.t * self.s

    def beta_shift(self, k: int) -> "QParams":
        """The carrier of (q, q^k beta): same t, s -> t^(2k) s."""
        return QParams(self.t, self.t ** (2 * k) * self.s)


@dataclass(frozen=True)
class JacobiParams:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha <= -1 or self.beta <= -1:
            raise ParameterError("Jacobi parameters must satisfy alpha, beta > -1")


@dataclass(frozen=True)
class KrawtchoukParams:
    p: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ParameterError("Krawtchouk p must lie in (0, 1)")
        if self.N < 1:
            raise ParameterError("Krawtchouk N must be >= 1")


@dataclass(frozen=True)
class HahnParams:
    alpha: Fraction
    beta: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha <= -1 or self.beta <= -1:
            raise ParameterError("Hahn parameters must satisfy alpha, beta > -1")
        if self.N < 1:
            raise ParameterError("Hahn N must be >= 1")


@dataclass(frozen=True)
class RacahParams:
    """Racah parameters with gamma = -N-1 encoded through N."""

    alpha: Fraction
    beta: Fraction
    N: int
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.N < 1:
            raise ParameterError("Racah N must be >= 1")

    @property
    def gamma(self) -> Fraction:
        return Fraction(-self.N - 1)


@dataclass(frozen=True)
class WilsonParams:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


@dataclass(frozen=True)
class AWParams:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    qbase: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "qbase"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not 0 < self.qbase < 1:
            raise ParameterError("Askey-Wilson base must lie in (0, 1)")
        vals = (self.a, self.b, self.c, self.d)
        for i in range(4):
            for j in range(i + 1, 4):
                if vals[i] * vals[j] == 1:
                    raise ParameterError(
                        f"pairwise product {vals[i]}*{vals[j]} = 1 is not admissible"
                    )


@dataclass(frozen=True)
class QRacahParams:
    """q-Racah parameters; gamma = q^(-N-1) is encoded through N and the
    QParams carrier supplies the base q = t^4.

    Construction validates that no weight denominator factor vanishes on
    the lattice 0..N.
    """

    alpha: Fraction
    beta: Fraction
    delta: Fraction
    N: int
    qp: QParams

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.N < 1:
            raise ParameterError("q-Racah N must be >= 1")
        if self.alpha == 0 or self.beta == 0 or self.delta == 0:
            raise ParameterError("q-Racah alpha, beta, delta must be nonzero")
        q = self.qp.q
        gamma = self.gamma
        if 1 - gamma * self.delta * q == 0:
            raise VanishingDenominator(0, "1 - gamma*delta*q = 0")
        dens = (q, gamma * self.delta * q / self.alpha, gamma * q / self.beta, self.delta * q)
        qpow = Fraction(1)
        for x in range(self.N):
            for b in dens:
                if qpow * b == 1:
                    raise VanishingDenominator(x + 1, f"(b; q)_x factor with b={b}")
            qpow *= q

    @cached_property
    def gamma(self) -> Fraction:
        return self.qp.q ** (-self.N - 1)


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------


def jacobi_r(n: int, jp: JacobiParams, x) -> Fraction:
    """Jacobi polynomial normalized to 1 at x = 1."""
    spec = HyperSeriesSpec(
        numerator=(-n, n + jp.alpha + jp.beta + 1),
        denominator=(jp.alpha + 1,),
        argument=(1 - Fraction(x)) / 2,
        termination=n,
    )
    return terminating_hyper(spec)


def ultraspherical_r(n: int, alpha, x) -> Fraction:
    """Ultraspherical (Gegenbauer) polynomial, normalized to 1 at x = 1."""
    return jacobi_r(n, JacobiParams(alpha, alpha), x)


# Key (n, alpha); `verify --suite all` reuses 81 of them over the whole run.
@lru_cache(maxsize=256)
def ultraspherical_coeffs(n: int, alpha) -> tuple:
    """Exact coefficient vector of the degree-n ultraspherical polynomial,
    lowest degree first."""
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ParameterError("ultraspherical alpha must exceed -1")
    coeffs = [Fraction(0)] * (n + 1)
    term = Fraction(1)  # (-n)_k (n+2a+1)_k / ((a+1)_k k!)
    for k in range(n + 1):
        if term:
            # term * ((1-x)/2)^k contributes binomially to powers 0..k
            scale = term / 2 ** k
            for i in range(k + 1):
                coeffs[i] += scale * comb(k, i) * (-1) ** i
        term = term * (-n + k) * (n + 2 * alpha + 1 + k) / ((alpha + 1 + k) * (k + 1))
    return tuple(coeffs)


def krawtchouk(n: int, x: int, kp: KrawtchoukParams) -> Fraction:
    """Krawtchouk polynomial K_n(x; p, N) on the lattice 0..N."""
    _check_lattice(n, x, kp.N)
    spec = HyperSeriesSpec(
        numerator=(-n, -x),
        denominator=(-kp.N,),
        argument=1 / kp.p,
        termination=min(n, x),
    )
    return terminating_hyper(spec)


def krawtchouk_weight(x: int, kp: KrawtchoukParams) -> Fraction:
    """Binomial weight of the Krawtchouk orthogonality relation."""
    _check_lattice(0, x, kp.N)
    return comb(kp.N, x) * kp.p ** x * (1 - kp.p) ** (kp.N - x)


def hahn(n: int, x: int, hp: HahnParams) -> Fraction:
    """Hahn polynomial Q_n(x; alpha, beta, N)."""
    _check_lattice(n, x, hp.N)
    spec = HyperSeriesSpec(
        numerator=(-n, n + hp.alpha + hp.beta + 1, -x),
        denominator=(hp.alpha + 1, -hp.N),
        argument=1,
        termination=min(n, x),
    )
    return terminating_hyper(spec)


def hahn_weight(x: int, hp: HahnParams) -> Fraction:
    """Weight of the Hahn orthogonality relation."""
    _check_lattice(0, x, hp.N)
    num = pochhammer(hp.alpha + 1, x) * pochhammer(hp.beta + 1, hp.N - x)
    return num / (factorial(x) * factorial(hp.N - x))


def dual_hahn(n: int, x: int, hp: HahnParams) -> Fraction:
    """Dual Hahn polynomial R_n(x(x+alpha+beta+1); alpha, beta, N)."""
    _check_lattice(n, x, hp.N)
    spec = HyperSeriesSpec(
        numerator=(-n, -x, x + hp.alpha + hp.beta + 1),
        denominator=(hp.alpha + 1, -hp.N),
        argument=1,
        termination=min(n, x),
    )
    return terminating_hyper(spec)


def racah_phi(n: int, x: int, alpha, beta, gamma, delta) -> Fraction:
    """The Racah-type 4F3 at lattice index x, for free parameters."""
    alpha, beta, gamma, delta = map(Fraction, (alpha, beta, gamma, delta))
    spec = HyperSeriesSpec(
        numerator=(-n, n + alpha + beta + 1, -x, x + gamma + delta + 1),
        denominator=(alpha + 1, beta + delta + 1, gamma + 1),
        argument=1,
        termination=min(n, x),
    )
    return terminating_hyper(spec)


def racah(n: int, x: int, rp: RacahParams) -> Fraction:
    """Racah polynomial at lattice index x, with gamma = -N-1."""
    _check_lattice(n, x, rp.N)
    return racah_phi(n, x, rp.alpha, rp.beta, rp.gamma, rp.delta)


def racah_weight(x: int, rp: RacahParams) -> Fraction:
    """Racah orthogonality weight at lattice index x."""
    _check_lattice(0, x, rp.N)
    a, b, g, d = rp.alpha, rp.beta, rp.gamma, rp.delta
    if g + d + 1 == 0:
        raise VanishingDenominator(0, "gamma + delta + 1 = 0")
    num = (
        pochhammer(a + 1, x)
        * pochhammer(b + d + 1, x)
        * pochhammer(g + 1, x)
        * pochhammer(g + d + 1, x)
        * (g + d + 1 + 2 * x)
    )
    den = Fraction(1)
    for base in (-a + g + d + 1, -b + g + 1, d + 1):
        for i in range(x):
            if base + i == 0:
                raise VanishingDenominator(i, f"({base})_x factor vanishes")
        den *= pochhammer(base, x)
    den *= factorial(x) * (g + d + 1)
    return num / den


class Norms(NamedTuple):
    ratio: Fraction  # h_n / h_0
    h0: Fraction


def racah_h0(rp: RacahParams) -> Fraction:
    """Closed form of h_0 = sum of the Racah weights (gamma = -N-1)."""
    a, b, d = rp.alpha, rp.beta, rp.delta
    h0_den = pochhammer(a - d + 1, rp.N) * pochhammer(b + 1, rp.N)
    if h0_den == 0:
        raise VanishingDenominator(rp.N, "Racah h_0 denominator vanishes")
    return pochhammer(a + b + 2, rp.N) * pochhammer(-d, rp.N) / h0_den


def racah_norms(n: int, rp: RacahParams) -> Norms:
    """Norm data of the Racah orthogonality relation: (h_n/h_0, h_0)."""
    _check_lattice(0, n, rp.N)
    a, b, g, d = rp.alpha, rp.beta, rp.gamma, rp.delta
    den = (
        pochhammer(a + 1, n)
        * pochhammer(a + b + 1, n)
        * pochhammer(b + d + 1, n)
        * pochhammer(g + 1, n)
        * (a + b + 2 * n + 1)
    )
    if den == 0:
        raise VanishingDenominator(n, "Racah norm-ratio denominator vanishes")
    ratio = (
        (a + b + 1)
        * pochhammer(b + 1, n)
        * pochhammer(a + b - g + 1, n)
        * pochhammer(a - d + 1, n)
        * factorial(n)
        / den
    )
    return Norms(ratio, racah_h0(rp))


def wilson_dual_params(wp: WilsonParams) -> WilsonParams:
    """Parameter map of the Wilson self-duality: a' = (a+b+c+d-1)/2 and
    a'+b' = a+b, a'+c' = a+c, a'+d' = a+d."""
    ap = (wp.a + wp.b + wp.c + wp.d - 1) / 2
    return WilsonParams(ap, wp.a + wp.b - ap, wp.a + wp.c - ap, wp.a + wp.d - ap)


def wilson_dual_phi(n: int, m: int, wp: WilsonParams) -> Fraction:
    """The Wilson 4F3 on the duality lattice, with a + ix := -m, so that
    a - ix = 2a + m and all parameters are real rationals."""
    spec = HyperSeriesSpec(
        numerator=(-n, n + wp.a + wp.b + wp.c + wp.d - 1, -m, 2 * wp.a + m),
        denominator=(wp.a + wp.b, wp.a + wp.c, wp.a + wp.d),
        argument=1,
        termination=min(n, m),
    )
    return terminating_hyper(spec)


# ---------------------------------------------------------------------------
# Askey-Wilson and continuous q-ultraspherical
# ---------------------------------------------------------------------------


def _laurent_phi(scalar_nums, scalar_dens, a_laurent, qbase, arg, nterms) -> LaurentPoly:
    """Terminating q-series with Laurent numerator factors (az, a/z; q)_k.

    Returns sum_k c_k arg^k (az; q)_k (a z^-1; q)_k with the scalar part
    c_k = (scalar_nums; q)_k / ((q; q)_k (scalar_dens; q)_k), accumulated
    by term ratios exactly as in the scalar engine.
    """
    if nterms < 0:
        raise ParameterError(f"degree must be >= 0, got {nterms}")
    scalar_nums = [Fraction(v) for v in scalar_nums]
    scalar_dens = [Fraction(v) for v in scalar_dens]
    a_laurent = Fraction(a_laurent)
    qbase = Fraction(qbase)
    arg = Fraction(arg)
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


def askey_wilson_r(n: int, awp: AWParams) -> SymmetricLaurent:
    """Askey-Wilson polynomial normalized to 1 at z = a, as an exact
    symmetric Laurent polynomial in z."""
    a, b, c, d, q = awp.a, awp.b, awp.c, awp.d, awp.qbase
    poly = _laurent_phi(
        scalar_nums=(q ** (-n), q ** (n - 1) * a * b * c * d),
        scalar_dens=(a * b, a * c, a * d),
        a_laurent=a,
        qbase=q,
        arg=q,
        nterms=n,
    )
    return SymmetricLaurent.from_poly(poly)


def askey_wilson_r_at(n: int, awp: AWParams, z0) -> Fraction:
    """Scalar value of the Askey-Wilson polynomial at z = z0."""
    a, b, c, d, q = awp.a, awp.b, awp.c, awp.d, awp.qbase
    z0 = Fraction(z0)
    if z0 == 0:
        raise ZeroArgument("cannot evaluate an Askey-Wilson polynomial at z = 0")
    spec = HyperSeriesSpec(
        numerator=(q ** (-n), q ** (n - 1) * a * b * c * d, a * z0, a / z0),
        denominator=(a * b, a * c, a * d),
        argument=q,
        termination=n,
        base=q,
    )
    return terminating_hyper(spec)


def cqu_aw_params(qp: QParams) -> AWParams:
    """The Askey-Wilson specialization carrying the continuous
    q-ultraspherical family: (a, q^(1/2)a, -a, -q^(1/2)a) with a = ts."""
    a = qp.a
    return AWParams(a, qp.qhalf * a, -a, -qp.qhalf * a, qp.q)


# Key (n, carrier), beta-shifted carriers included; dual-addition at lmax 11
# reuses 267 of them across the whole run, so 1024 keep every reuse up to there.
@lru_cache(maxsize=1024)
def cqu_r(n: int, qp: QParams) -> SymmetricLaurent:
    """Continuous q-ultraspherical polynomial (value 1 at z = ts), as a
    symmetric Laurent polynomial."""
    return askey_wilson_r(n, cqu_aw_params(qp))


def cqu_r_alt(n: int, qp: QParams) -> SymmetricLaurent:
    """The alternative base-q^(1/2) representation of the same polynomial."""
    t, s = qp.t, qp.s
    poly = _laurent_phi(
        scalar_nums=(t ** (-2 * n), t ** (2 * n + 2) * s ** 2),
        scalar_dens=(-(t ** 2) * s ** 2, t ** 2 * s, -(t ** 2) * s),
        a_laurent=t * s,
        qbase=t ** 2,
        arg=t ** 2,
        nterms=n,
    )
    return SymmetricLaurent.from_poly(poly)


def cqu_r_at(n: int, qp: QParams, z0) -> Fraction:
    """Scalar value of the continuous q-ultraspherical polynomial."""
    return askey_wilson_r_at(n, cqu_aw_params(qp), z0)


def cqu_duality_point(m: int, qp: QParams) -> Fraction:
    """The self-duality lattice point z = q^(-m/2 - 1/4) beta^(-1/2)."""
    return qp.t ** (-2 * m - 1) / qp.s


def cqu_leading_z_coeff(n: int, qp: QParams) -> Fraction:
    """Coefficient of z^n: (q^(1/2) beta)^(n/2) (q^(1/2)b; q)_n / (qb^2; q)_n."""
    q, b = qp.q, qp.beta
    return (qp.t * qp.s) ** n * qpochhammer(qp.qhalf * b, q, n) / qpochhammer(q * b * b, q, n)


# ---------------------------------------------------------------------------
# q-Racah
# ---------------------------------------------------------------------------


def qracah_phi(n: int, x: int, alpha, beta, gamma, delta, qbase) -> Fraction:
    """The q-Racah 4phi3 at lattice index x, for free parameters."""
    alpha, beta, gamma, delta, q = map(Fraction, (alpha, beta, gamma, delta, qbase))
    spec = HyperSeriesSpec(
        numerator=(q ** (-n), q ** (n + 1) * alpha * beta, q ** (-x), q ** (x + 1) * gamma * delta),
        denominator=(q * alpha, q * beta * delta, q * gamma),
        argument=q,
        termination=min(n, x),
        base=q,
    )
    return terminating_hyper(spec)


def qracah(n: int, x: int, qrp: QRacahParams) -> Fraction:
    """q-Racah polynomial at lattice index x, with gamma = q^(-N-1)."""
    _check_lattice(n, x, qrp.N)
    return qracah_phi(n, x, qrp.alpha, qrp.beta, qrp.gamma, qrp.delta, qrp.qp.q)


def qracah_weight_raw(x: int, alpha, beta, gamma, delta, qbase) -> Fraction:
    """The q-Racah weight formula for free parameters.

    Exposed separately because the backward-shift identity evaluates the
    parameter-shifted weight one step beyond its own lattice, where the
    formula correctly produces 0.
    """
    a, b, g, d, q = map(Fraction, (alpha, beta, gamma, delta, qbase))
    if 1 - g * d * q == 0:
        raise VanishingDenominator(0, "1 - gamma*delta*q = 0")
    dens = (q, g * d * q / a, g * q / b, d * q)
    qpow = Fraction(1)
    for i in range(x):
        for base in dens:
            if qpow * base == 1:
                raise VanishingDenominator(i + 1, f"(b; q)_x factor with b={base}")
        qpow *= q
    return _qracah_weight(x, a, b, g, d, q, dens)


def qracah_weight(x: int, qrp: QRacahParams) -> Fraction:
    """q-Racah orthogonality weight at lattice index x; `QRacahParams`
    checked its denominators over the whole lattice."""
    _check_lattice(0, x, qrp.N)
    a, b, g, d, q = qrp.alpha, qrp.beta, qrp.gamma, qrp.delta, qrp.qp.q
    return _qracah_weight(x, a, b, g, d, q, (q, g * d * q / a, g * q / b, d * q))


def _qracah_weight(x: int, a, b, g, d, q, dens) -> Fraction:
    """The weight formula, given its nonvanishing denominator bases `dens`."""
    num = (1 - g * d * q ** (2 * x + 1)) * Fraction(1)
    for base in (a * q, b * d * q, g * q, g * d * q):
        num *= qpochhammer(base, q, x)
    den = (a * b * q) ** x * (1 - g * d * q)
    for base in dens:
        den *= qpochhammer(base, q, x)
    return num / den


# Key qrp: the rows of one lattice come one after another, so one entry
# catches every reuse.
@lru_cache(maxsize=1)
def qracah_h0(qrp: QRacahParams) -> Fraction:
    """Closed form of h_0 = sum of the q-Racah weights (gamma = q^(-N-1))."""
    a, b, d, q = qrp.alpha, qrp.beta, qrp.delta, qrp.qp.q
    h0_den = qpochhammer(q * a / d, q, qrp.N) * qpochhammer(q * b, q, qrp.N)
    if h0_den == 0:
        raise VanishingDenominator(qrp.N, "q-Racah h_0 denominator vanishes")
    return qpochhammer(q * q * a * b, q, qrp.N) * qpochhammer(1 / d, q, qrp.N) / h0_den


def qracah_norms(n: int, qrp: QRacahParams) -> Norms:
    """Norm data of the q-Racah orthogonality relation: (h_n/h_0, h_0)."""
    _check_lattice(0, n, qrp.N)
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
    return Norms(num / den, qracah_h0(qrp))


def qracah_at_top(n: int, qrp: QRacahParams) -> Fraction:
    """Closed-form value of the q-Racah polynomial at x = N
    (the q-Saalschuetz evaluation)."""
    a, b, d, q = qrp.alpha, qrp.beta, qrp.delta, qrp.qp.q
    num = qpochhammer(q * b, q, n) * qpochhammer(q * a / d, q, n)
    den = qpochhammer(q * a, q, n) * qpochhammer(q * b * d, q, n)
    if den == 0:
        raise VanishingDenominator(n, "q-Racah top-evaluation denominator vanishes")
    return num / den * d ** n


def _check_lattice(n: int, x: int, N: int) -> None:
    if not (0 <= n <= N and 0 <= x <= N):
        raise ParameterError(f"lattice indices must satisfy 0 <= n, x <= {N}, got n={n}, x={x}")
