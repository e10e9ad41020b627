"""Floating-point companion: float evaluators of the families, Bessel-type
series, the two continuous weights (`cqu_weight`, `aw_weight`) through
truncated infinite products, convergence verification of the limit
claims, and the probes, each of which computes its value from its own
arguments and returns its suite record.

Limit claims carry no rates in their source statements, so acceptance is
empirical: errors must decrease along the schedule and the final
successive ratio must sit in the band of the limit's order.  Hahn ->
Jacobi is first order: the ratio sits around 1/2 per doubling of N.  The
q -> 1 limits of the one-parameter family ('cqu-to-ultra' and
'dual-addition-q-to-1') are second order: the ratio sits around 1/4 per
halving of 1-q, because the family is invariant under q -> 1/q (see
RATIO_BANDS).  The bands are artifact-level numerical properties, not
theorems.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import NonConvergence, NonFinite, ParameterError
from .families import QParams, Record, cqu_r
from .series import hyper_sum, pochhammer, qhyper_sum, qpochhammer

# Expected final error ratios under halving of (1-q) or doubling of N.
# Hahn -> Jacobi converges at first order (ratio 1/2).  The q -> 1 limits of
# the one-parameter subfamily converge at SECOND order: in the self-dual
# normalization the polynomials are exactly invariant under q -> 1/q (an
# exact-arithmetic fact, tested), so their error is an even function of
# ln(q) and quarters when 1-q halves.  Each band is +-30% of its center.
FIRST_ORDER_BAND = (0.35, 0.65)
SECOND_ORDER_BAND = (0.175, 0.325)
RATIO_BANDS = {
    "hahn-to-jacobi": FIRST_ORDER_BAND,
    "cqu-to-ultra": SECOND_ORDER_BAND,
    "dual-addition-q-to-1": SECOND_ORDER_BAND,
}
PRODUCT_TRUNCATION = 1e-18


def _require_finite(x: float) -> float:
    if not math.isfinite(x):
        raise NonFinite(f"non-finite value {x}")
    return x


def bessel_script_j(alpha: float, x: float) -> float:
    """Normalized Bessel-type series 0F1(-; alpha+1; -x^2/4), summed until
    the term magnitude falls below 1e-16 relative to the partial sum."""
    if alpha <= -1:
        raise ParameterError("alpha must exceed -1")
    arg = -0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1000):
        term *= arg / ((alpha + 1 + k) * (k + 1))
        if not math.isfinite(term):
            raise NonConvergence(f"series terms overflowed at k={k}")
        total += term
        if abs(term) <= 1e-16 * max(1.0, abs(total)):
            return _require_finite(total)
    raise NonConvergence("Bessel series did not converge within 1000 terms")


# ---------------------------------------------------------------------------
# float evaluation of the families
# ---------------------------------------------------------------------------


def jacobi_r_float(n: int, alpha: float, beta: float, x: float) -> float:
    return hyper_sum((-n, n + alpha + beta + 1), (alpha + 1,), (1 - x) / 2, n)


def ultraspherical_r_float(n: int, alpha: float, x: float) -> float:
    return jacobi_r_float(n, alpha, alpha, x)


def _cqu_phi(n: int, q: float, beta: float, a: float, z):
    """The 4phi3 of the continuous q-ultraspherical polynomial of degree n
    at the point z, for the normalizing parameter a = q^(1/4) beta^(1/2)."""
    nums = (q ** (-n), beta * beta * q ** (n + 1), a * z, a / z)
    dens = (beta * q, -beta * q ** 0.5, -beta * q)
    return qhyper_sum(nums, dens, q, q, n)


def cqu_r_float(n: int, qbase: float, beta: float, x: float) -> float:
    """Float value of the continuous q-ultraspherical polynomial at
    x = cos(theta), evaluated through z = exp(i theta) on the unit circle."""
    z = complex(x, (1 - x * x) ** 0.5)
    return _cqu_phi(n, qbase, beta, qbase ** 0.25 * beta ** 0.5, z).real


def qracah_phi_float(n, x_real, alpha, beta, gamma, delta, qbase) -> float:
    """Float q-Racah value; x_real may sit off the integer lattice."""
    nums = (
        qbase ** (-n),
        qbase ** (n + 1) * alpha * beta,
        qbase ** (-x_real),
        qbase ** (x_real + 1) * gamma * delta,
    )
    dens = (qbase * alpha, qbase * beta * delta, qbase * gamma)
    return qhyper_sum(nums, dens, qbase, qbase, n)


def racah_phi_float(n: int, j_real, alpha, beta, gamma, delta) -> float:
    nums = (-n, n + alpha + beta + 1, -j_real, j_real + gamma + delta + 1)
    dens = (alpha + 1, beta + delta + 1, gamma + 1)
    return hyper_sum(nums, dens, 1.0, n)


def hahn_float(n: int, x_real, alpha, beta, N) -> float:
    return hyper_sum((-n, n + alpha + beta + 1, -x_real), (alpha + 1, -N), 1.0, n)


# ---------------------------------------------------------------------------
# limit schedules
# ---------------------------------------------------------------------------


class LimitReport(Record):
    kind: str
    schedule: tuple
    errors: tuple
    ratios: tuple
    verdict: str  # "pass" | "fail"


def _limit_verdict(kind: str, errors: Sequence[float]) -> str:
    if all(e == 0.0 for e in errors):
        return "pass"  # degenerate: both sides coincide identically
    tail = errors[-4:]
    if len(tail) < 4 or any(not (a > b) for a, b in zip(tail, tail[1:])):
        return "fail"
    band = RATIO_BANDS.get(kind)
    if band is not None:
        ratio = errors[-1] / errors[-2]
        if not band[0] <= ratio <= band[1]:
            return "fail"
    return "pass"


def _cqu_to_ultra_error(q: float, alpha: float, n: int) -> float:
    beta = q ** alpha
    return max(abs(cqu_r_float(n, q, beta, x) - ultraspherical_r_float(n, alpha, x))
               for x in (0.0, 0.3, -0.3, 0.7, -0.7))


def _hahn_to_jacobi_error(N: int, alpha: float, beta: float, n: int) -> float:
    return max(abs(hahn_float(n, N * x, alpha, beta, N)
                   - hyper_sum((-n, n + alpha + beta + 1), (alpha + 1,), x, n))
               for x in (0.1, 0.5, 0.9))


def _jacobi_to_bessel_error(nu: int, alpha: float, beta: float, lam: float) -> float:
    n = int(round(nu * lam))
    return max(abs(jacobi_r_float(n, alpha, beta, math.cos(x / nu)) - bessel_script_j(alpha, lam * x))
               for x in (0.5, 1.0, 2.0))


def _dual_addition_error(q: float, alpha: float, l: int, m: int) -> float:
    """Term-by-term distance of the q-side dual addition expansion from its
    classical counterpart, with beta = q^alpha."""
    beta = q ** alpha
    err = 0.0
    for k in range(m + 1):
        for j in range(m + 1):
            for x in (0.15, 0.45, 0.8):
                err = max(err, abs(_dual_addition_term_q(k, l, m, j, q, beta, x)
                                   - _dual_addition_term_classical(k, l, m, j, alpha, x)))
    return err


# The dyadic schedules, over the exponents j = 4..10.
_Q_TO_1 = tuple(1.0 - 2.0 ** (-j) for j in range(4, 11))
_DOUBLING = tuple(2 ** j for j in range(4, 11))

# limit kind -> (schedule, error at one schedule step)
_LIMITS = {
    "cqu-to-ultra": (_Q_TO_1, _cqu_to_ultra_error),
    "hahn-to-jacobi": (_DOUBLING, _hahn_to_jacobi_error),
    "jacobi-to-bessel": (_DOUBLING, _jacobi_to_bessel_error),
    "dual-addition-q-to-1": (_Q_TO_1, _dual_addition_error),
}


def limit_check(kind: str, **params) -> LimitReport:
    """Convergence check of one limit transition along its dyadic schedule.

    Kinds and their keyword parameters: 'cqu-to-ultra' (q up to 1; alpha,
    n), 'hahn-to-jacobi' (N doubling; alpha, beta, n), 'jacobi-to-bessel'
    (degree doubling, monotone decrease only; alpha, beta, lam) and
    'dual-addition-q-to-1' (q up to 1, expansion compared term by term;
    alpha, l, m).  The `limits` suite rows in `cli` set their values.
    """
    if kind not in _LIMITS:
        raise ParameterError(f"unknown limit kind {kind!r}")
    schedule, error_at = _LIMITS[kind]
    errors = tuple(_require_finite(error_at(step, **params)) for step in schedule)
    ratios = tuple(b / a if a else 0.0 for a, b in zip(errors, errors[1:]))
    return LimitReport(kind, schedule, errors, ratios, _limit_verdict(kind, errors))


def _dual_addition_term_q(k, l, m, j, q, beta, x) -> float:
    qh = q ** 0.5
    c = q ** (0.5 * k * (k + l + m + 2)) * beta ** k
    if k >= 1:  # at k = 0 the ratio is 1, also where beta = 1 makes it 0/0
        c *= (1 - beta * beta * q ** (2 * k)) / (1 - beta * beta * q ** k)
    for base in (q ** (-l), q ** (-m), q * beta * beta):
        c *= qpochhammer(base, q, k)
    c /= qpochhammer(q * beta, q, k) ** 2 * qpochhammer(q, q, k)
    c /= qpochhammer(-qh * beta, qh, 2 * k) ** 2
    for i in range(k):
        w = q ** i * qh * beta
        c *= 4 * w * x * x - (1 + w) ** 2
    c *= cqu_r_float(l - k, q, q ** k * beta, x) * cqu_r_float(m - k, q, q ** k * beta, x)
    c *= qracah_phi_float(
        k, j, beta / qh, beta / qh, q ** (-m - 1), q ** (-l - 0.5) / beta, q
    )
    return c


def _dual_addition_term_classical(k, l, m, j, alpha, x) -> float:
    c = 1.0 if k == 0 else (alpha + k) / (alpha + 0.5 * k)
    c *= pochhammer(float(-l), k) * pochhammer(float(-m), k) * pochhammer(2 * alpha + 1, k)
    c /= 4.0 ** k * pochhammer(alpha + 1.0, k) ** 2 * math.factorial(k)
    c *= (x * x - 1) ** k
    c *= ultraspherical_r_float(l - k, alpha + k, x) * ultraspherical_r_float(m - k, alpha + k, x)
    c *= racah_phi_float(k, float(j), alpha - 0.5, alpha - 0.5, -m - 1.0, -l - alpha - 0.5)
    return c


# ---------------------------------------------------------------------------
# continuous weights and quadrature
# ---------------------------------------------------------------------------


def qpoch_infinite(b, qbase: float):
    """(b; q)_infinity with the product truncated at the first index K
    where q^K drops below the relative truncation threshold."""
    if not 0 < qbase < 1:
        raise ParameterError("base must lie in (0, 1)")
    out = 1.0 + 0.0j if isinstance(b, complex) else 1.0
    qpow = 1.0
    while qpow >= PRODUCT_TRUNCATION:
        out *= 1 - qpow * b
        qpow *= qbase
    return out


def _cqu_circle_weight(e2: complex, q: float, beta: float) -> float:
    """|(e2; q)_inf / (q^(1/2) beta e2; q)_inf|^2 at e2 = z^2 on the unit
    circle: the one-parameter weight without its (1-x^2)^(-1/2) factor.

    f times its conjugate: every float step of f commutes with
    conjugation, so this has the bits of f times f evaluated at the
    conjugate node, for half the products."""
    f = qpoch_infinite(e2, q) / qpoch_infinite(q ** 0.5 * beta * e2, q)
    return (f * f.conjugate()).real


def _check_theta(theta: float) -> None:
    if not 0 < theta < math.pi:
        raise ParameterError("theta must lie strictly inside (0, pi)")


def cqu_weight(q: float, beta: float, theta: float) -> float:
    """The even one-parameter weight at x = cos(theta), theta in (0, pi),
    including its (1-x^2)^(-1/2) factor."""
    _check_theta(theta)
    return _require_finite(_cqu_circle_weight(cmath.exp(2j * theta), q, beta) / math.sin(theta))


def aw_weight(q: float, abcd: tuple, theta: float) -> float:
    """The circle weight of the four-parameter family with parameters
    abcd = (a, b, c, d) at z = exp(i theta), theta in (0, pi)."""
    _check_theta(theta)
    return _require_finite(_aw_weight_circle(q, abcd, theta))


def aw_h0_closed(q: float, abcd: tuple) -> float:
    """Closed form of the 0-th circle norm: 4 pi (abcd; q)_inf over the
    product of (q; q)_inf and the six pairwise-product factors."""
    a, b, c, d = abcd
    num = 4 * math.pi * qpoch_infinite(a * b * c * d, q)
    den = qpoch_infinite(q, q)
    for pair in (a * b, a * c, a * d, b * c, b * d, c * d):
        den *= qpoch_infinite(pair, q)
    return num / den


# The node cap of the circle integrals.  Their integrands are periodic, so
# the midpoint sums settle geometrically: those of carrier (1/2, 199/100),
# near the edge s*t < 1, at 8192 nodes, the others measured at 128 to 512.
# At q = 0.99^4 a numeric-orthogonality row that never settled would reach
# the cap in about 6 s, and the four-parameter mass, whose nodes cost 2 ms
# each, in about 25 s.
CIRCLE_NODE_CAP = 2 ** 13


def refine_integral(f: Callable[[float], float], lo: float, hi: float,
                    max_nodes: int = 2 ** 20) -> float:
    """Midpoint rule from 64 nodes with dyadic node doubling until two
    successive refinements agree to 1e-9 relative to the integral's scale
    max(1, |total|, h sum |f|), up to `max_nodes` nodes.  Round-off in the
    sum is relative to the integral of |f|, not to |total|: an integral
    near 0 of a large integrand, such as an off-diagonal one of a carrier
    near q = 1, would otherwise never settle."""
    n = 64
    prev = None
    while n <= max_nodes:
        h = (hi - lo) / n
        total = magnitude = 0.0
        for i in range(n):
            value = f(lo + (i + 0.5) * h)
            total += value
            magnitude += abs(value)
        total *= h
        _require_finite(total)
        if prev is not None and abs(total - prev) <= 1e-9 * max(1.0, abs(total), h * magnitude):
            return total
        prev = total
        n *= 2
    raise NonConvergence(f"quadrature did not stabilize within {max_nodes} points")


# Key carrier.  Every numeric-orthogonality row reads the first carrier of
# the grid, so one entry keeps its nodes for all fifteen integrals.
@lru_cache(maxsize=1)
def _cqu_node_weights(qp: QParams) -> dict:
    """theta -> the circle weight at the quadrature node theta, filled as
    `_cqu_inner` asks: the integrals of one carrier share their nodes."""
    return {}


def _cqu_inner(qp: QParams, d1: int, d2: int) -> float:
    """I_(d1 d2): the integral of R_d1 R_d2 against the circle weight."""
    q, beta = float(qp.q), float(qp.beta)
    polys = {}
    for deg in {d1, d2}:
        p = cqu_r(deg, qp)
        polys[deg] = [(k, float(p.coeff(k))) for k in range(-deg, deg + 1) if p.coeff(k)]
    weights = _cqu_node_weights(qp)

    def f(theta):
        z = cmath.exp(1j * theta)
        p1 = sum(c * z ** k for k, c in polys[d1]).real
        p2 = sum(c * z ** k for k, c in polys[d2]).real
        w = weights.get(theta)
        if w is None:
            w = weights[theta] = _cqu_circle_weight(z * z, q, beta)
        return p1 * p2 * w

    return refine_integral(f, 0.0, 2 * math.pi, CIRCLE_NODE_CAP)


# Key (carrier, degree).  The numeric-orthogonality rows pair the degrees
# 0..4 of one carrier, so five entries catch every reuse.
@lru_cache(maxsize=5)
def _cqu_diagonal(qp: QParams, n: int) -> float:
    return _cqu_inner(qp, n, n)


def _aw_weight_circle(q: float, abcd: tuple, theta: float) -> float:
    """The four-parameter circle weight at z = exp(i theta)."""
    z = cmath.exp(1j * theta)

    def g(w):
        out = qpoch_infinite(w * w, q)
        for p in abcd:
            out /= qpoch_infinite(p * w, q)
        return out

    return (g(z) * g(1 / z)).real


# ---------------------------------------------------------------------------
# probes: each returns its suite record
# ---------------------------------------------------------------------------


def limit(kind: str, **params) -> dict:
    """The record of one limit transition, with its schedule, errors and
    successive ratios."""
    r = limit_check(kind, **params)
    return {
        "id": f"limit-{kind}",
        "params": {k: str(v) for k, v in sorted(params.items())},
        "verdict": r.verdict,
        "schedule": [str(v) for v in r.schedule],
        "errors": [repr(e) for e in r.errors],
        "ratios": [repr(e) for e in r.ratios],
    }


def _threshold_record(check_id: str, params: dict, value: float, threshold: float) -> dict:
    return {
        "id": check_id,
        "params": {k: str(v) for k, v in sorted(params.items())},
        "verdict": "pass" if value < threshold else "fail",
        "residual": repr(value),
        "threshold": repr(threshold),
    }


def numeric_orthogonality_cqu(qp: QParams, m: int, n: int) -> dict:
    """Quadrature orthogonality of the one-parameter family on the unit
    circle: the normalized off-diagonal residual |I_mn| / sqrt(I_mm I_nn)."""
    off = _cqu_inner(qp, m, n)
    value = abs(off) / math.sqrt(_cqu_diagonal(qp, m) * _cqu_diagonal(qp, n))
    return _threshold_record("numeric-orthogonality-cqu", {"m": m, "n": n, "t": qp.t, "s": qp.s},
                             value, 1e-8)


def _aw_params_floats(qp: QParams) -> tuple:
    """(q, (a, b, c, d)) of the Askey-Wilson specialization carrying the
    one-parameter family, as floats."""
    a = float(qp.a)
    qh = float(qp.qhalf)
    return float(qp.q), (a, qh * a, -a, -qh * a)


def numeric_aw_h0(qp: QParams) -> dict:
    """Relative deviation of the integrated four-parameter circle weight
    from its closed-form total mass."""
    q, abcd = _aw_params_floats(qp)
    integral = refine_integral(lambda th: _aw_weight_circle(q, abcd, th), 0.0, 2 * math.pi,
                               CIRCLE_NODE_CAP)
    h0 = aw_h0_closed(q, abcd)
    value = abs(integral - h0) / abs(h0)
    return _threshold_record("numeric-aw-h0", {"t": qp.t, "s": qp.s}, value, 1e-8)


_PROBE_THETAS = (0.4, 1.0, 1.7, 2.3, 2.8)


def numeric_weight_ratio(qp: QParams) -> dict:
    """Beta-promoted over base weight against its exact quadratic value."""
    q, beta = float(qp.q), float(qp.beta)
    worst = 0.0
    for theta in _PROBE_THETAS:
        w = cqu_weight(q, beta, theta)
        w_promoted = cqu_weight(q, beta * q, theta)
        x = math.cos(theta)
        exact = (1 + q ** 0.5 * beta) ** 2 - 4 * q ** 0.5 * beta * x * x
        worst = max(worst, abs(w_promoted / w - exact))
    return _threshold_record("numeric-weight-ratio", {"t": qp.t, "s": qp.s}, worst, 1e-10)


def numeric_weight_symmetry(qp: QParams) -> dict:
    """The weight is even in x: values at theta and pi - theta agree."""
    q, beta = float(qp.q), float(qp.beta)
    worst = 0.0
    for theta in _PROBE_THETAS:
        w = cqu_weight(q, beta, theta)
        w_mirror = cqu_weight(q, beta, math.pi - theta)
        worst = max(worst, abs(w_mirror - w) / abs(w))
    return _threshold_record("numeric-weight-symmetry", {"t": qp.t, "s": qp.s}, worst, 1e-12)


def numeric_weight_aw_vs_cqu(qp: QParams) -> dict:
    """The specialized circle weight equals the one-parameter weight as a
    theta-density up to a theta-independent factor (spread of the ratio)."""
    q, beta = float(qp.q), float(qp.beta)
    abcd = _aw_params_floats(qp)[1]
    ratios = []
    for theta in _PROBE_THETAS:
        w = cqu_weight(q, beta, theta)
        waw = aw_weight(q, abcd, theta)
        ratios.append(waw / (w * math.sin(theta)))
    spread = max(ratios) - min(ratios)
    return _threshold_record("numeric-weight-aw-vs-cqu", {"t": qp.t, "s": qp.s}, spread, 1e-10)


def bessel_special_cases() -> dict:
    """The series at alpha = -1/2 and 1/2 against cos x and sin x / x."""
    worst = 0.0
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        worst = max(worst, abs(bessel_script_j(-0.5, x) - math.cos(x)))
        worst = max(worst, abs(bessel_script_j(0.5, x) - math.sin(x) / x))
    return _threshold_record("bessel-special-cases", {}, worst, 1e-12)


def float_exact_consistency(qp: QParams, nmax: int) -> dict:
    """Largest relative gap, over the degrees 0..nmax at z = 7/5, between
    the exact one-parameter polynomial `cqu_r` evaluated there (converted
    to float) and its 4phi3 summed in floats by the series kernel."""
    z0 = Fraction(7, 5)
    q, beta = float(qp.q), float(qp.beta)
    a = float(qp.a)
    zf = float(z0)
    worst = 0.0
    for n in range(nmax + 1):
        exact = float(cqu_r(n, qp).eval_at(z0))
        approx = _cqu_phi(n, q, beta, a, zf)
        scale = max(1.0, abs(exact))
        worst = max(worst, abs(exact - approx) / scale)
    return _threshold_record("float-exact-consistency", {"t": qp.t, "s": qp.s, "nmax": nmax},
                             worst, 1e-12)
