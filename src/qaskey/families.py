"""Constructors and exact evaluators for the polynomial families of the
scheme.  Their float counterparts live in `numerics`.

Classical side: Jacobi/ultraspherical, Krawtchouk, Hahn, dual Hahn, Racah
(with weights and norms), Wilson in its real-rational dual form.  q-side:
Askey-Wilson, continuous q-ultraspherical in two representations, q-Racah
(with weights and norms).  Both Racah families are self-dual, and a norm
ratio h_n / h_0 is the reciprocal of the weight at the dual parameters
(alpha, beta, gamma, delta) -> (gamma, delta, alpha, beta), so each family
has one builder of weight tables, for free parameters, that its norms read
too: both records keep the two tables, as running integer products.

All q-dependent parameters are derived from a QParams pair (t, s) with
t = q^(1/4) and s = beta^(1/2), so quarter powers of q and half powers of
beta are exact rationals and every in-scope identity becomes a statement
over Q.

The q-arithmetic is that of `series` (term ratios, vanishing scans,
q-Pochhammer symbols), and each quantity of a q-Racah lattice is cached
once, on its `QRacahParams`, each value too, with one reduction per table
entry.  Every q-Racah family the program evaluates is such a record: the
one-point lattice N = 0, the shifted family of the backward shift (on
0..N-1) and the linearization lattices included; what the rows of one
linearization lattice share beyond its record is cached in `identities`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, prod

from .errors import ParameterError, VanishingDenominator, ZeroArgument
from .laurent import LaurentPoly
from .series import (
    first_qvanishing,
    pochhammer,
    qhyper_sum,
    qpochhammer,
    qterm_ratios,
    terminating_hyper,
)


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


class Record:
    """A frozen record, the base of every parameter and report record.

    Its fields are the names a subclass annotates, in order, after those of
    the record it extends; a field given a value in the class body takes
    that value as its default.  Construction takes the fields by position
    or keyword, then calls `__post_init__`, which may normalize a field
    with `object.__setattr__`.  After that no attribute can be set or
    deleted; a `cached_property` still works, since it writes the instance
    dict directly.  Equality goes by class and field values, and the hash
    is that of the tuple of field values, as for a frozen dataclass, so it
    is the same in every process when the fields are numbers.  The program
    does not import `dataclasses`, which pulls in `inspect` and `ast` and
    compiles each decorated class's methods with `exec` at import.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in vars(cls).get("__annotations__", {}) if name not in cls._fields]
        cls._fields = (*cls._fields, *own)
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own
                                             if name in vars(cls)}}

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._defaults:
                values[field] = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _field_values(self) == _field_values(other)

    def __hash__(self):
        return hash(_field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self._fields, _field_values(self)))
        return f"{type(self).__qualname__}({fields})"


def _field_values(record: Record) -> tuple:
    return tuple(map(record.__dict__.__getitem__, record._fields))


class QParams(Record):
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

    # Cached in the instance __dict__, outside the fields that eq and hash use;
    # the hash too, so that a cache keyed on a carrier hashes its two
    # Fractions once per record, not once per lookup.
    @cached_property
    def _hash(self) -> int:
        return hash((self.t, self.s))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def q(self) -> Fraction:
        return self.t ** 4

    @cached_property
    def qhalf(self) -> Fraction:
        return self.t ** 2

    @cached_property
    def beta(self) -> Fraction:
        return self.s ** 2

    @property
    def a(self) -> Fraction:
        """The alternative parameter a = q^(1/4) beta^(1/2) of the
        Rahman-Verma normalization (beta = q^(-1/2) a^2)."""
        return self.t * self.s

    # The power tables, in the instance __dict__ like the hash, filled as
    # they are asked for: q^n, and the integer pairs (N, D) of t^e and s^f,
    # for exponents of both signs.
    @cached_property
    def _q_powers(self) -> dict:
        return {}

    @cached_property
    def _t_pairs(self) -> dict:
        return {}

    @cached_property
    def _s_pairs(self) -> dict:
        return {}

    def q_power(self, n: int) -> Fraction:
        """q^n, from the carrier's table."""
        powers = self._q_powers
        value = powers.get(n)
        if value is None:
            value = powers[n] = self.q ** n
        return value

    def ts_power(self, e: int, f: int) -> tuple:
        """Integers (N, D) with t^e s^f = N/D, from the carrier's tables."""
        tn, td = _power_pair(self._t_pairs, self.t, e)
        sn, sd = _power_pair(self._s_pairs, self.s, f)
        return tn * sn, td * sd

    def beta_shift(self, k: int) -> "QParams":
        """The carrier of (q, q^k beta): same t, s -> t^(2k) s; one record
        per (carrier, k), shared by every row that promotes beta."""
        return _beta_shifted(self, k)


# Key (carrier, k).  Dual addition and theorem 5.1 promote each carrier by
# k = 0..lmax, and the addition, restriction and difference rows by k <= 5,
# so 128 entries keep every record of three carriers to lmax 41.
@lru_cache(maxsize=128)
def _beta_shifted(qp: QParams, k: int) -> QParams:
    return QParams(qp.t, qp.t ** (2 * k) * qp.s)


def _power_pair(table: dict, x: Fraction, e: int) -> tuple:
    """The integer pair (N, D) of x^e = N/D, kept in `table` under e."""
    pair = table.get(e)
    if pair is None:
        n, d = (x.numerator, x.denominator) if e >= 0 else (x.denominator, x.numerator)
        pair = table[e] = (n ** abs(e), d ** abs(e))
    return pair


class JacobiParams(Record):
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha <= -1 or self.beta <= -1:
            raise ParameterError("Jacobi parameters must satisfy alpha, beta > -1")


class KrawtchoukParams(Record):
    p: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ParameterError("Krawtchouk p must lie in (0, 1)")
        if self.N < 1:
            raise ParameterError("Krawtchouk N must be >= 1")


class HahnParams(Record):
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


class RacahParams(Record):
    """Racah parameters with gamma = -N-1 encoded through N."""

    alpha: Fraction
    beta: Fraction
    N: int
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.N < 0:
            raise ParameterError("Racah N must be >= 0")

    @property
    def gamma(self) -> Fraction:
        return Fraction(-self.N - 1)

    # Cached outside the fields that eq and hash use: the unreduced pairs of the
    # weights w(0..N) and of h_n / h_0 = 1 / w~(n), w~ the weight at the dual parameters.
    @cached_property
    def _weights(self) -> list:
        return _racah_weight_pairs(self.alpha, self.beta, self.gamma, self.delta, self.N)

    @cached_property
    def _norm_ratios(self) -> list:
        return [(den, num) for num, den in
                _racah_weight_pairs(self.gamma, self.delta, self.alpha, self.beta, self.N)]


class WilsonParams(Record):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


class AWParams(Record):
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


class QRacahParams(Record):
    """q-Racah parameters; gamma = q^(-N-1) is encoded through N and the
    QParams carrier supplies the base q = t^4.

    N = 0 is the one-point lattice, with weight 1, value 1 and h_0 = 1.
    Construction validates that no weight denominator factor vanishes on
    the lattice 0..N.  The private tables below hold what `qracah`,
    `qracah_weight` and `qracah_norms` read, and `h0` is the total mass:
    each is built for the whole lattice the first time one of them asks,
    and dies with the record; the weights and the norm ratios are the pairs
    of `_qracah_weight_pairs` at the record's parameters and at the dual
    ones.  `_values` keeps each value `qracah` has summed, one (n, x) at a
    time.
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
        if self.N < 0:
            raise ParameterError("q-Racah N must be >= 0")
        if self.alpha == 0 or self.beta == 0 or self.delta == 0:
            raise ParameterError("q-Racah alpha, beta, delta must be nonzero")
        g, d, q = self.gamma, self.delta, self.qp.q
        if 1 - g * d * q == 0:
            raise VanishingDenominator(0, "1 - gamma*delta*q = 0")
        # the weight denominator bases of `_qracah_weight_pairs`
        dens = (q, g * d * q / self.alpha, g * q / self.beta, d * q)
        hit = first_qvanishing(dens, q, self.N)
        if hit is not None:
            raise VanishingDenominator(hit[0] + 1, f"(b; q)_x factor with b={hit[1]}")

    # Cached in the instance __dict__, outside the fields that eq and hash use.
    # The powers of q below are read from the carrier's table.
    @cached_property
    def gamma(self) -> Fraction:
        return self.qp.q_power(-self.N - 1)

    @cached_property
    def _q_neg(self) -> tuple:
        """q^(-n) for n = 0..N."""
        q_power = self.qp.q_power
        return tuple(q_power(-n) for n in range(self.N + 1))

    @cached_property
    def _ab_q(self) -> tuple:
        """alpha beta q^(n+1) for n = 0..N."""
        ab, q_power = self.alpha * self.beta, self.qp.q_power
        return tuple(ab * q_power(n + 1) for n in range(self.N + 1))

    @cached_property
    def _gd_q(self) -> tuple:
        """gamma delta q^(x+1) for x = 0..N."""
        gd, q_power = self.gamma * self.delta, self.qp.q_power
        return tuple(gd * q_power(x + 1) for x in range(self.N + 1))

    @cached_property
    def _values(self) -> dict:
        """(n, x) -> the value of `qracah`, filled as it is asked for."""
        return {}

    @cached_property
    def _phi_dens(self) -> tuple:
        """The denominator bases (q alpha, q beta delta, q gamma) of the 4phi3."""
        q = self.qp.q
        return (q * self.alpha, q * self.beta * self.delta, q * self.gamma)

    @cached_property
    def _phi_vanishing(self) -> tuple:
        """The first (k, b), k < N, with q^k b = 1 for b in `_phi_dens`, or
        (N, None): a 4phi3 whose termination index exceeds k raises there."""
        return first_qvanishing(self._phi_dens, self.qp.q, self.N) or (self.N, None)

    @cached_property
    def _weights(self) -> tuple:
        """The weights w(0..N), each pair of `_qracah_weight_pairs` reduced once."""
        pairs = _qracah_weight_pairs(self.alpha, self.beta, self.gamma, self.delta, self.qp.q, self.N)
        return tuple(Fraction(num, den) for num, den in pairs)

    @cached_property
    def h0(self) -> Fraction:
        """Closed form of h_0 = sum of the weights.  Its denominator vanishes
        only if alpha/delta or beta is q^(-j), 1 <= j <= N, and then a weight
        base gamma delta q/alpha or gamma q/beta is q^(j-N): never here."""
        a, b, d, q, N = self.alpha, self.beta, self.delta, self.qp.q, self.N
        return qpochhammer(q * q * a * b, q, N) * qpochhammer(1 / d, q, N) / (
            qpochhammer(q * a / d, q, N) * qpochhammer(q * b, q, N))

    @cached_property
    def _norm_ratios(self) -> tuple:
        """Integer pairs (numerator, denominator) of the ratios h_n / h_0 for
        n = 0..N, unreduced: h_n / h_0 = 1 / w~(n), with w~ the weight at
        the dual parameters (gamma, delta, alpha, beta), so each is a pair
        of `_qracah_weight_pairs` there, swapped.  A zero denominator is
        kept, to raise only when its n is asked for."""
        pairs = _qracah_weight_pairs(self.gamma, self.delta, self.alpha, self.beta, self.qp.q, self.N)
        return tuple((den, num) for num, den in pairs)


def _qracah_weight_pairs(a, b, g, d, q: Fraction, top: int) -> list:
    """Unreduced integer pairs (num, den) of the q-Racah weight at free
    parameters, for x = 0..top,

        w(x) = (1 - g d q^(2x+1)) (a q, b d q, g q, g d q; q)_x
               / ((1 - g d q) (a b q)^x (q, g d q/a, g q/b, d q; q)_x),

    from one running integer product each way; a zero factor is kept."""
    ups = [(v.numerator, v.denominator) for v in (a * q, b * d * q, g * q, g * d * q)]
    downs = [(v.numerator, v.denominator) for v in (q, g * d * q / a, g * q / b, d * q)]
    # 1 - q^j v = (Q^j v_den - P^j v_num) / (Q^j v_den) with q = P/Q; the
    # Q^j of the ups cancel those of the downs, and each step multiplies by
    # prod(downs' denominators) / ((a b q) prod(ups' denominators))
    z = a * b * q
    step_num, step_den = z.denominator, z.numerator
    for _, vd in downs:
        step_num *= vd
    for _, vd in ups:
        step_den *= vd
    # (1 - v q^(2x)) / (1 - v) = (V_den Q^2x - V_num P^2x) / (Q^2x (V_den - V_num)), v = g d q
    vn, vd = ups[3]
    p, qd = q.numerator, q.denominator
    num = den = pj = qj = 1  # pj, qj = P^x, Q^x
    pairs = []
    for x in range(top + 1):
        if x:
            num *= step_num
            den *= step_den
            for un, ud in ups:
                num *= qj * ud - pj * un
            for un, ud in downs:
                den *= qj * ud - pj * un
            pj *= p
            qj *= qd
        pairs.append((num * (vd * qj * qj - vn * pj * pj), den * qj * qj * (vd - vn)))
    return pairs


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------


def jacobi_r(n: int, jp: JacobiParams, x) -> Fraction:
    """Jacobi polynomial normalized to 1 at x = 1."""
    return terminating_hyper((-n, n + jp.alpha + jp.beta + 1), (jp.alpha + 1,), (1 - Fraction(x)) / 2, n)


def ultraspherical_r(n: int, alpha, x) -> Fraction:
    """Ultraspherical (Gegenbauer) polynomial, normalized to 1 at x = 1."""
    return jacobi_r(n, JacobiParams(alpha, alpha), x)


def ultraspherical_coeffs(n: int, alpha) -> tuple:
    """Exact coefficient vector of the degree-n ultraspherical polynomial,
    lowest degree first: sum_k T_k ((1-x)/2)^k with T_0 = 1 and, for
    alpha = p/r, T_(k+1) / (2 T_k) the integer pair ((k-n)(r(n+1+k)+2p),
    2(p+r(k+1))(k+1)).  Over the product 2^n den_n of the pair denominators
    each T_k / 2^k is an integer, one exact division from the last, and
    each coefficient an integer sum over it, reduced once."""
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ParameterError("ultraspherical alpha must exceed -1")
    p, r = alpha.numerator, alpha.denominator
    steps = [((k - n) * (r * (n + 1 + k) + 2 * p), 2 * (p + r * (k + 1)) * (k + 1)) for k in range(n)]
    terms = [prod(down for _, down in steps)]  # alpha > -1 keeps each down > 0
    for up, down in steps:
        terms.append(terms[-1] * up // down)
    # T_k ((1-x)/2)^k contributes binomially to the powers 0..k
    return tuple(Fraction((-1) ** i * sum(comb(k, i) * terms[k] for k in range(i, n + 1)), terms[0])
                 for i in range(n + 1))


def krawtchouk(n: int, x: int, kp: KrawtchoukParams) -> Fraction:
    """Krawtchouk polynomial K_n(x; p, N) on the lattice 0..N."""
    _check_lattice(n, x, kp.N)
    return terminating_hyper((-n, -x), (-kp.N,), 1 / kp.p, min(n, x))


def krawtchouk_weight(x: int, kp: KrawtchoukParams) -> Fraction:
    """Binomial weight of the Krawtchouk orthogonality relation."""
    _check_lattice(0, x, kp.N)
    return comb(kp.N, x) * kp.p ** x * (1 - kp.p) ** (kp.N - x)


def hahn(n: int, x: int, hp: HahnParams) -> Fraction:
    """Hahn polynomial Q_n(x; alpha, beta, N)."""
    _check_lattice(n, x, hp.N)
    return terminating_hyper((-n, n + hp.alpha + hp.beta + 1, -x), (hp.alpha + 1, -hp.N), 1, min(n, x))


def hahn_weight(x: int, hp: HahnParams) -> Fraction:
    """Weight of the Hahn orthogonality relation."""
    _check_lattice(0, x, hp.N)
    num = pochhammer(hp.alpha + 1, x) * pochhammer(hp.beta + 1, hp.N - x)
    return num / (factorial(x) * factorial(hp.N - x))


def dual_hahn(n: int, x: int, hp: HahnParams) -> Fraction:
    """Dual Hahn polynomial R_n(x(x+alpha+beta+1); alpha, beta, N)."""
    _check_lattice(n, x, hp.N)
    return terminating_hyper((-n, -x, x + hp.alpha + hp.beta + 1), (hp.alpha + 1, -hp.N), 1, min(n, x))


def racah_phi(n: int, x: int, alpha, beta, gamma, delta) -> Fraction:
    """The Racah-type 4F3 at lattice index x, for free parameters."""
    return terminating_hyper((-n, n + alpha + beta + 1, -x, x + gamma + delta + 1),
                             (alpha + 1, beta + delta + 1, gamma + 1), 1, min(n, x))


def racah(n: int, x: int, rp: RacahParams) -> Fraction:
    """Racah polynomial at lattice index x, with gamma = -N-1."""
    _check_lattice(n, x, rp.N)
    return racah_phi(n, x, rp.alpha, rp.beta, rp.gamma, rp.delta)


def _racah_weight_pairs(a, b, g, d, top: int) -> list:
    """Unreduced integer pairs (num, den), zero factors kept, of the Racah
    weight at free parameters for x = 0..top, one running product each way:

        w(x) = (g + d + 1 + 2x) (a + 1, b + d + 1, g + 1, g + d + 1)_x
               / ((g + d + 1) x! (-a + g + d + 1, -b + g + 1, d + 1)_x)."""
    ups = [(v.numerator, v.denominator) for v in (a + 1, b + d + 1, g + 1, g + d + 1)]
    downs = [(v.numerator, v.denominator) for v in (Fraction(1), -a + g + d + 1, -b + g + 1, d + 1)]
    vn, vd = ups[3]  # (g + d + 1 + 2x) / (g + d + 1) = (vn + 2x vd) / vn
    num = den = 1
    pairs = []
    for x in range(top + 1):
        pairs.append((num * (vn + 2 * x * vd), den * vn))
        for (un, ud), (dn, dd) in zip(ups, downs):  # (c)_x gains (C_num + x C_den) / C_den
            num *= (un + x * ud) * dd
            den *= (dn + x * dd) * ud
    return pairs


def racah_weight(x: int, rp: RacahParams) -> Fraction:
    """Racah orthogonality weight at lattice index x: the weight table's
    pair of `rp`, reduced, once the scan of its denominator factors passes."""
    _check_lattice(0, x, rp.N)
    a, b, g, d = rp.alpha, rp.beta, rp.gamma, rp.delta
    if g + d + 1 == 0:
        raise VanishingDenominator(0, "gamma + delta + 1 = 0")
    for base in (-a + g + d + 1, -b + g + 1, d + 1):
        # base + i = 0 for some i < x iff base is an integer in (-x, 0]
        if base.denominator == 1 and -x < base.numerator <= 0:
            raise VanishingDenominator(-base.numerator, f"({base})_x factor vanishes")
    return Fraction(*rp._weights[x])


def racah_h0(rp: RacahParams) -> Fraction:
    """Closed form of h_0 = sum of the Racah weights (gamma = -N-1)."""
    a, b, d = rp.alpha, rp.beta, rp.delta
    h0_den = pochhammer(a - d + 1, rp.N) * pochhammer(b + 1, rp.N)
    if h0_den == 0:
        raise VanishingDenominator(rp.N, "Racah h_0 denominator vanishes")
    return pochhammer(a + b + 2, rp.N) * pochhammer(-d, rp.N) / h0_den


def racah_norms(n: int, rp: RacahParams) -> Fraction:
    """The norm h_n of the Racah orthogonality relation: the ratio h_n / h_0
    from the norm table of `rp`, times h_0.  A vanishing ratio denominator
    raises for its own n only, before h_0 is read."""
    _check_lattice(0, n, rp.N)
    num, den = rp._norm_ratios[n]
    if den == 0:
        raise VanishingDenominator(n, "Racah norm-ratio denominator vanishes")
    return Fraction(num, den) * racah_h0(rp)


def wilson_dual_params(wp: WilsonParams) -> WilsonParams:
    """Parameter map of the Wilson self-duality: a' = (a+b+c+d-1)/2 and
    a'+b' = a+b, a'+c' = a+c, a'+d' = a+d."""
    ap = (wp.a + wp.b + wp.c + wp.d - 1) / 2
    return WilsonParams(ap, wp.a + wp.b - ap, wp.a + wp.c - ap, wp.a + wp.d - ap)


def wilson_dual_phi(n: int, m: int, wp: WilsonParams) -> Fraction:
    """The Wilson 4F3 on the duality lattice, with a + ix := -m, so that
    a - ix = 2a + m and all parameters are real rationals."""
    return terminating_hyper((-n, n + wp.a + wp.b + wp.c + wp.d - 1, -m, 2 * wp.a + m),
                             (wp.a + wp.b, wp.a + wp.c, wp.a + wp.d), 1, min(n, m))


# ---------------------------------------------------------------------------
# Askey-Wilson and continuous q-ultraspherical
# ---------------------------------------------------------------------------


def _laurent_phi(scalar_nums, scalar_dens, a_laurent, qbase, nterms) -> LaurentPoly:
    """Terminating q-series with Laurent numerator factors (az, a/z; q)_k.

    Returns sum_k c_k q^k (az; q)_k (a z^-1; q)_k with the scalar part
    c_k = (scalar_nums; q)_k / ((q; q)_k (scalar_dens; q)_k).  Its term
    ratios rho_k = up_k / down_k are read from `qterm_ratios` (which raises
    at the first vanishing denominator) up to the first zero term, and
    summed by Horner's rule from the top term, S <- (rho_k f_k) S + 1, with
    f_k = (1 - wz)(1 - w/z) and w = q^k a = u/v, so that
    rho_k f_k = up_k ((u^2 + v^2) - uv (z + 1/z)) / (down_k v^2), built from
    integers as the half (up_k (u^2 + v^2), -up_k uv) over down_k v^2.
    """
    if nterms < 0:
        raise ParameterError(f"degree must be >= 0, got {nterms}")
    a_laurent, qbase = Fraction(a_laurent), Fraction(qbase)
    ratios = qterm_ratios([Fraction(v) for v in scalar_nums], [Fraction(v) for v in scalar_dens],
                          qbase, qbase, nterms, "Laurent q-series denominator")
    steps = []  # rho_k f_k
    u, v = a_laurent.numerator, a_laurent.denominator  # w = q^k a = u / v
    for up, down in ratios:
        if not up:
            break
        steps.append(LaurentPoly((up * (u * u + v * v), -up * u * v), down * v * v))
        u *= qbase.numerator
        v *= qbase.denominator
    total = LaurentPoly.constant(1)
    for step in reversed(steps):
        total = step * total + 1
    return total


def askey_wilson_r(n: int, awp: AWParams) -> LaurentPoly:
    """Askey-Wilson polynomial normalized to 1 at z = a, as an exact
    symmetric Laurent polynomial in z."""
    a, b, c, d, q = awp.a, awp.b, awp.c, awp.d, awp.qbase
    return _laurent_phi(
        scalar_nums=(q ** (-n), q ** (n - 1) * a * b * c * d),
        scalar_dens=(a * b, a * c, a * d),
        a_laurent=a,
        qbase=q,
        nterms=n,
    )


def askey_wilson_r_at(n: int, awp: AWParams, z0) -> Fraction:
    """Scalar value of the Askey-Wilson polynomial at z = z0."""
    a, b, c, d, q = awp.a, awp.b, awp.c, awp.d, awp.qbase
    z0 = Fraction(z0)
    if z0 == 0:
        raise ZeroArgument("cannot evaluate an Askey-Wilson polynomial at z = 0")
    return terminating_hyper((q ** (-n), q ** (n - 1) * a * b * c * d, a * z0, a / z0),
                             (a * b, a * c, a * d), q, n, base=q)


def cqu_aw_params(qp: QParams) -> AWParams:
    """The Askey-Wilson specialization carrying the continuous
    q-ultraspherical family: (a, q^(1/2)a, -a, -q^(1/2)a) with a = ts."""
    a = qp.a
    return AWParams(a, qp.qhalf * a, -a, -qp.qhalf * a, qp.q)


# Key (n, carrier), beta-shifted carriers included; dual-addition at lmax 11
# reuses 267 of them across the whole run, so 1024 keep every reuse up to there.
@lru_cache(maxsize=1024)
def cqu_r(n: int, qp: QParams) -> LaurentPoly:
    """Continuous q-ultraspherical polynomial (value 1 at z = ts), as a
    symmetric Laurent polynomial."""
    return askey_wilson_r(n, cqu_aw_params(qp))


def cqu_r_alt(n: int, qp: QParams) -> LaurentPoly:
    """The alternative base-q^(1/2) representation of the same polynomial."""
    t, s = qp.t, qp.s
    return _laurent_phi(
        scalar_nums=(t ** (-2 * n), t ** (2 * n + 2) * s ** 2),
        scalar_dens=(-(t ** 2) * s ** 2, t ** 2 * s, -(t ** 2) * s),
        a_laurent=t * s,
        qbase=t ** 2,
        nterms=n,
    )


def cqu_duality_point(m: int, qp: QParams) -> Fraction:
    """The self-duality lattice point z = q^(-m/2 - 1/4) beta^(-1/2)."""
    return qp.t ** (-2 * m - 1) / qp.s


# ---------------------------------------------------------------------------
# q-Racah
# ---------------------------------------------------------------------------


def qracah(n: int, x: int, qrp: QRacahParams) -> Fraction:
    """q-Racah polynomial at lattice index x, with gamma = q^(-N-1).

    The 4phi3 with numerator bases (q^-n, alpha beta q^(n+1), q^-x,
    gamma delta q^(x+1)) and denominator bases (q alpha, q beta delta,
    q gamma), summed by `qhyper_sum` on series parameters read from the
    tables of `qrp` and kept in its `_values`.  It raises the
    `VanishingDenominator` of `terminating_hyper`'s scan exactly when its
    termination index min(n, x) passes the lattice's first vanishing
    denominator factor.
    """
    _check_lattice(n, x, qrp.N)
    value = qrp._values.get((n, x))
    if value is None:
        top = min(n, x)
        k, b = qrp._phi_vanishing
        if k < top:
            raise VanishingDenominator(k + 1, f"(b; q)_k factor with b={b}")
        q = qrp.qp.q
        nums = (qrp._q_neg[n], qrp._ab_q[n], qrp._q_neg[x], qrp._gd_q[x])
        value = qrp._values[n, x] = qhyper_sum(nums, qrp._phi_dens, q, q, top)
    return value


def qracah_weight(x: int, qrp: QRacahParams) -> Fraction:
    """q-Racah orthogonality weight at lattice index x, read from the
    weight table of `qrp`.  `QRacahParams` checked its denominators over
    the whole lattice, so only the lattice bound can raise here."""
    _check_lattice(0, x, qrp.N)
    return qrp._weights[x]


def qracah_norms(n: int, qrp: QRacahParams) -> Fraction:
    """The norm h_n of the q-Racah orthogonality relation: the ratio
    h_n / h_0 from the norm table of `qrp`, times `qrp.h0`, reduced once.
    A vanishing ratio denominator raises for its own n only, before h_0 is
    read."""
    _check_lattice(0, n, qrp.N)
    num, den = qrp._norm_ratios[n]
    if den == 0:
        raise VanishingDenominator(n, "q-Racah norm-ratio denominator vanishes")
    h0 = qrp.h0
    return Fraction(num * h0.numerator, den * h0.denominator)


def _check_lattice(n: int, x: int, N: int) -> None:
    if not (0 <= n <= N and 0 <= x <= N):
        raise ParameterError(f"lattice indices must satisfy 0 <= n, x <= {N}, got n={n}, x={x}")
