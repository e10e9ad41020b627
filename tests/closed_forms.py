"""Reference formulas the tests check the package against: closed forms
that no suite row checks, the scalars of the closed dual-addition
coefficients (also in the parameter a = q^(1/4) beta^(1/2)), of the
closed projection sum and of the q addition expansion from their
q-Pochhammer symbols at one k, the closed projection sum at one k as a
product of oracles, the first closed projection prefactor from six
q-Pochhammer symbols, the explicit q, classical and Legendre
linearization coefficients at one j, the ultraspherical coefficient
vector term by term, the product (a z^e; q)_k built factor by factor,
the Laurent q-series summed term by term, the q-Racah 4phi3 for free
parameters, the q-Racah weight formula for one x and the norm and norm
ratio formulas for one n, the Racah weight for one x with its vanishing
factors tested one at a time and the Racah norm for one n, a classical
dual addition row from that row alone, and the variable maps z -> 1/z and
z -> -z.

Laurent polynomials here are oracles: dicts exponent -> nonzero Fraction,
with no symmetry required, so that factors such as 1 - a z can be formed.
A package polynomial p compares with them as `terms(p)`."""

from fractions import Fraction
from math import comb, factorial

from qaskey.errors import ParameterError, VanishingDenominator
from qaskey.families import QParams, QRacahParams, RacahParams, cqu_r, racah, racah_h0
from qaskey.identities import _compare, _upoly, linearization_racah_params
from qaskey.laurent import linear_combination, x_embed
from qaskey.series import pochhammer, qpochhammer, terminating_hyper


# ---------------------------------------------------------------------------
# the dict-of-Fraction oracle of the Laurent ring
# ---------------------------------------------------------------------------


def terms(p) -> dict:
    """The oracle of a package polynomial, read from its half h over den:
    exponent -> nonzero Fraction, ascending exponent."""
    h, den = p._h, p._den
    return {k: Fraction(h[abs(k)], den) for k in range(1 - len(h), len(h)) if h[abs(k)]}


def _o(d) -> dict:
    return {k: Fraction(v) for k, v in d.items() if v}


def _o_add(a, b) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return _o(out)


def _o_scale(a, s) -> dict:
    return _o({k: v * s for k, v in a.items()})


def _o_mul(a, b) -> dict:
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return _o(out)


def _o_pow(a, n) -> dict:
    out = {0: Fraction(1)}
    for _ in range(n):
        out = _o_mul(out, a)
    return out


def _o_x_embed(coeffs) -> dict:
    out = {}
    for k, c in enumerate(coeffs):
        out = _o_add(out, _o_scale(_o_pow({1: Fraction(1, 2), -1: Fraction(1, 2)}, k), Fraction(c)))
    return out


def _o_sym(h) -> dict:
    """Oracle of h[0] + sum_k h[k] (z^k + z^-k)."""
    return _o({k: h[abs(k)] for k in range(1 - len(h), len(h))})


def _o_eval(a, z0) -> Fraction:
    return sum((v * Fraction(z0) ** k for k, v in a.items()), Fraction(0))


def _o_str(a) -> str:
    if not a:
        return "0"
    terms = []
    for k in sorted(a, reverse=True):
        v = a[k]
        zk = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
        body = str(abs(v)) if not zk else (zk if abs(v) == 1 else f"{abs(v)} {zk}")
        sign = "-" if v < 0 else "+"
        terms.append(f"{sign}{body}" if not terms else f"{sign} {body}")
    return " ".join(terms).lstrip("+")


def qpoch_laurent_pow(a, zexp: int, qbase, k: int) -> dict:
    """prod_{j<k} (1 - q^j a z^zexp) as an oracle."""
    out = {0: Fraction(1)}
    for j in range(k):
        out = _o_mul(out, _o({0: 1, zexp: -Fraction(a) * Fraction(qbase) ** j}))
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


def dual_addition_coeff_a_per_k(k: int, l: int, m: int, qp: QParams) -> Fraction:
    """The same scalar c_k written in a = q^(1/4) beta^(1/2), from its
    q-Pochhammer symbols at this k alone: 0 for k > m."""
    a, q, qh, t = qp.a, qp.q, qp.qhalf, qp.t
    a2, a4 = a * a, a ** 4
    c = Fraction(-1) ** k * t ** (2 * k * (k + l + m + 1)) * a2 ** k
    if k >= 1:  # at k = 0 the ratio is 1, also where a^4 = q makes it 0/0
        c *= (1 - a4 * q ** (2 * k) / q) / (1 - a4 * q ** k / q)
    c *= qpochhammer(q ** (-l), q, k) * qpochhammer(q ** (-m), q, k) * qpochhammer(a4, q, k)
    c /= qpochhammer(qh * a2, q, k) ** 2 * qpochhammer(q, q, k)
    c /= qpochhammer(-a2, qh, 2 * k) ** 2
    return c


def dual_addition_classical_per_row(alpha, l: int, m: int, j: int, mutation=None):
    """The report of one classical dual addition row from that row alone:
    the Racah record, the scalars with their Racah factor R_k(j) and the
    products (x^2 - 1)^k R_(l-k)(alpha + k) R_(m-k)(alpha + k), each k's in
    that order, built again for every j."""
    if not (0 <= j <= m <= l):
        raise ParameterError("need 0 <= j <= m <= l")
    alpha = Fraction(alpha)
    x2_minus_1 = x_embed([-1, 0, 1])
    rp = linearization_racah_params(alpha, l, m)
    polys, scalars = [], []
    for k in range(m + 1):
        c = Fraction(1) if k == 0 else (alpha + k) / (alpha + Fraction(k, 2))
        c *= pochhammer(Fraction(-l), k) * pochhammer(Fraction(-m), k) * pochhammer(2 * alpha + 1, k)
        c /= Fraction(2) ** (2 * k) * pochhammer(alpha + 1, k) ** 2 * factorial(k)
        c *= racah(k, j, rp)
        polys.append(x2_minus_1 ** k * _upoly(l - k, alpha + k) * _upoly(m - k, alpha + k))
        scalars.append(c)
    items = [(f"l={l}, m={m}, j={j}", linear_combination(polys, scalars), _upoly(l + m - 2 * j, alpha))]
    params = {"target": "classical", "l": l, "m": m, "j": j, "alpha": alpha}
    return _compare("dual-addition-classical", params, items, mutation)


def addition_coeff_q_per_k(k: int, n: int, qp: QParams, u, v) -> Fraction:
    """The scalar coefficient of the k-th kernel polynomial in the q
    addition expansion at fixed u, v, from its q-Pochhammer symbols at this
    k alone."""
    a, q, qh = qp.a, qp.q, qp.qhalf
    a2, a4 = a * a, a ** 4
    c = Fraction(-1) ** k * qh ** (k * (k + 1))
    for base in (q ** (-n), a2, q ** n * a4):
        c *= qpochhammer(base, q, k)
    for base in (qh * a2, -qh * a2, -a2):
        c /= qpochhammer(base, q, k)
    # (a^4/q; q)_k / (a^4/q; q)_2k, cancelled so that a^4 = q stays finite
    c /= qpochhammer(q, q, k) * qpochhammer(a4 * q ** (k - 1), q, k)
    c *= u ** (-k) * qpochhammer(a2 * u * u, q, k)
    c *= v ** (-k) * qpochhammer(a2 * v * v, q, k)
    return c


def linearization_coeff_q_per_j(j: int, l: int, m: int, qp: QParams) -> Fraction:
    """The explicit q linearization coefficient at j from its q-Pochhammer
    symbols at this j alone."""
    q, b, qh = qp.q, qp.beta, qp.qhalf
    qb = qh * b
    pref = qpochhammer(q, q, l) * qpochhammer(q, q, m)
    pref /= qpochhammer(q * b * b, q, l) * qpochhammer(q * b * b, q, m)
    c = (1 - q ** (l + m - 2 * j) * qb) / (1 - qb)
    c *= qpochhammer(qb, q, j) / qpochhammer(q, q, j)
    c *= qpochhammer(qb, q, l - j) / qpochhammer(q, q, l - j)
    c *= qpochhammer(qb, q, m - j) / qpochhammer(q, q, m - j)
    c *= qpochhammer(q * b * b, q, l + m - j) / qpochhammer(q * qb, q, l + m - j)
    return pref * c * qb ** j


def linearization_coeff_classical_per_j(j: int, alpha, l: int, m: int) -> Fraction:
    """The explicit ultraspherical linearization coefficient at j from its
    shifted factorials at this j alone; at alpha = -1/2 it divides by 0."""
    alpha = Fraction(alpha)
    pref = Fraction(factorial(l) * factorial(m))
    pref /= pochhammer(2 * alpha + 1, l) * pochhammer(2 * alpha + 1, m)
    c = (l + m + alpha + Fraction(1, 2) - 2 * j) / (alpha + Fraction(1, 2))
    c *= pochhammer(alpha + Fraction(1, 2), j) * pochhammer(alpha + Fraction(1, 2), l - j)
    c *= pochhammer(alpha + Fraction(1, 2), m - j) * pochhammer(2 * alpha + 1, l + m - j)
    c /= factorial(j) * factorial(l - j) * factorial(m - j)
    c /= pochhammer(alpha + Fraction(3, 2), l + m - j)
    return pref * c


def linearization_coeff_legendre_per_j(j: int, l: int, m: int) -> Fraction:
    """The explicit Legendre linearization coefficient at j from its
    shifted factorials at this j alone."""
    half = Fraction(1, 2)
    c = pochhammer(half, j) * pochhammer(half, l - j) * pochhammer(half, m - j)
    c *= factorial(l + m - j) * (2 * (l + m - 2 * j) + 1)
    return c / (factorial(j) * factorial(l - j) * factorial(m - j) * pochhammer(3 * half, l + m - j))


def ultraspherical_coeffs_per_k(n: int, alpha) -> tuple:
    """The coefficient vector of the degree-n ultraspherical polynomial,
    lowest degree first: each term T_k ((1-x)/2)^k of its 2F1 expanded
    binomially, with T_k from T_(k-1) by one Fraction term ratio."""
    alpha = Fraction(alpha)
    coeffs = [Fraction(0)] * (n + 1)
    term = Fraction(1)  # (-n)_k (n+2a+1)_k / ((a+1)_k k!)
    for k in range(n + 1):
        if term:
            scale = term / 2 ** k
            for i in range(k + 1):
                coeffs[i] += scale * comb(k, i) * (-1) ** i
        term = term * (-n + k) * (n + 2 * alpha + 1 + k) / ((alpha + 1 + k) * (k + 1))
    return tuple(coeffs)


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


def projection_closed_per_k(k: int, l: int, m: int, qp: QParams) -> dict:
    """The k-th closed projection sum of the lattice (carrier, l, m) as an
    oracle: (a^2 z^2, a^2 z^-2; q)_k factor by factor, times
    R_(l-k)(z; q^k beta) R_(m-k)(z; q^k beta) and the prefactor at this k
    alone."""
    if not 0 <= k <= m <= l:
        raise ParameterError("need 0 <= k <= m <= l")
    a2, promoted = qp.a ** 2, qp.beta_shift(k)
    out = _o_mul(qpoch_laurent_pow(a2, 2, qp.q, k), qpoch_laurent_pow(a2, -2, qp.q, k))
    for n in (l - k, m - k):
        out = _o_mul(out, terms(cqu_r(n, promoted)))
    return _o_scale(out, projection_prefactor_per_k(k, l, m, qp))


def projection_prefactor_0(l: int, m: int, qp: QParams) -> Fraction:
    """pref_0 of the closed projection sums of the lattice (carrier, l, m)
    from six q-Pochhammer symbols, with b = beta:

        (q b^2; q)_l (q b^2; q)_m / (q b^2; q)_(l+m)
        * (q^(1/2) b; q)_(l+m) / ((q^(1/2) b; q)_l (q^(1/2) b; q)_m)."""
    q, b, qh = qp.q, qp.beta, qp.qhalf
    pref = qpochhammer(q * b * b, q, l) * qpochhammer(q * b * b, q, m) / qpochhammer(q * b * b, q, l + m)
    return pref * qpochhammer(qh * b, q, l + m) / (qpochhammer(qh * b, q, l) * qpochhammer(qh * b, q, m))


def laurent_phi_terms(scalar_nums, scalar_dens, a_laurent, qbase, arg, nterms) -> dict:
    """sum_k c_k arg^k (az; q)_k (a z^-1; q)_k, c_k = (scalar_nums; q)_k /
    ((q; q)_k (scalar_dens; q)_k), one term at a time as an oracle:
    (az, a/z; q)_k from products of the factors 1 - az and 1 - a/z and c_k
    by term ratios, stopping at the first zero term and raising at the
    first vanishing denominator."""
    if nterms < 0:
        raise ParameterError(f"degree must be >= 0, got {nterms}")
    scalar_nums = [Fraction(v) for v in scalar_nums]
    scalar_dens = [Fraction(v) for v in scalar_dens]
    a_laurent, qbase, arg = Fraction(a_laurent), Fraction(qbase), Fraction(arg)
    coeff = Fraction(1)
    lpart = {0: Fraction(1)}
    total = lpart
    qpow = Fraction(1)  # q^k
    for k in range(nterms):
        for v in scalar_nums:
            coeff *= 1 - qpow * v
        az = qpow * a_laurent
        lpart = _o_mul(lpart, _o_mul(_o({0: 1, 1: -az}), _o({0: 1, -1: -az})))
        qpow *= qbase
        den = 1 - qpow
        for v in scalar_dens:
            den *= 1 - (qpow / qbase) * v
        if den == 0:
            raise VanishingDenominator(k + 1, "Laurent q-series denominator")
        coeff = coeff * arg / den
        if not coeff:
            break
        total = _o_add(total, _o_scale(lpart, coeff))
    return total


def qracah_phi(n: int, x: int, alpha, beta, gamma, delta, q) -> Fraction:
    """The q-Racah 4phi3 at lattice index x for free parameters, summed by
    the validated `terminating_hyper`."""
    return terminating_hyper(
        numerator=(q ** (-n), q ** (n + 1) * alpha * beta, q ** (-x), q ** (x + 1) * gamma * delta),
        denominator=(q * alpha, q * beta * delta, q * gamma),
        argument=q,
        termination=min(n, x),
        base=q,
    )


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


def qracah_norm_ratio_per_n(n: int, qrp: QRacahParams) -> Fraction:
    """The q-Racah norm ratio h_n / h_0 from its q-Pochhammer symbols at
    this n alone; the lattice bound is the caller's."""
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
    return num / den


def qracah_norm_per_n(n: int, qrp: QRacahParams) -> Fraction:
    """The q-Racah norm h_n: its ratio at this n alone times h_0, which is
    read only when the ratio is finite."""
    return qracah_norm_ratio_per_n(n, qrp) * qrp.h0


def racah_weight_per_x(x: int, rp: RacahParams) -> Fraction:
    """The Racah weight at x from its shifted factorials at this x, every
    denominator factor base + i, i < x, tested one at a time."""
    a, b, g, d = rp.alpha, rp.beta, rp.gamma, rp.delta
    if g + d + 1 == 0:
        raise VanishingDenominator(0, "gamma + delta + 1 = 0")
    num = (g + d + 1 + 2 * x) * Fraction(1)
    for base in (a + 1, b + d + 1, g + 1, g + d + 1):
        num *= pochhammer(base, x)
    den = factorial(x) * (g + d + 1)
    for base in (-a + g + d + 1, -b + g + 1, d + 1):
        for i in range(x):
            if base + i == 0:
                raise VanishingDenominator(i, f"({base})_x factor vanishes")
        den *= pochhammer(base, x)
    return num / den


def racah_norm_per_n(n: int, rp: RacahParams) -> Fraction:
    """The Racah norm h_n: its ratio h_n / h_0 from its shifted factorials
    at this n alone, times h_0, which is read only when the ratio is
    finite; the lattice bound is the caller's."""
    a, b, g, d = rp.alpha, rp.beta, rp.gamma, rp.delta
    den = (a + b + 2 * n + 1) * Fraction(1)
    for base in (a + 1, a + b + 1, b + d + 1, g + 1):
        den *= pochhammer(base, n)
    if den == 0:
        raise VanishingDenominator(n, "Racah norm-ratio denominator vanishes")
    num = (a + b + 1) * factorial(n)
    for base in (b + 1, a + b - g + 1, a - d + 1):
        num *= pochhammer(base, n)
    return num / den * racah_h0(rp)


def _oracle(p) -> dict:
    """p itself if it is an oracle, else the terms of the polynomial p."""
    return p if isinstance(p, dict) else terms(p)


def invert_variable(p) -> dict:
    """The oracle of p (an oracle or a polynomial) under z -> 1/z."""
    return {-k: v for k, v in _oracle(p).items()}


def negate_variable(p) -> dict:
    """The oracle of p (an oracle or a polynomial) under z -> -z."""
    return {k: -v if k % 2 else v for k, v in _oracle(p).items()}
