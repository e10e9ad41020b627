"""Exact scalar engine: rationals, shifted factorials, terminating series.

Every scalar in the exact layer is a `fractions.Fraction`, which is always
stored gcd-reduced with a positive denominator, so canonical form is free.
A terminating series is summed from its term ratios; no Pochhammer symbol
is evaluated beyond the termination index, which keeps denominator
parameters of the form -N (ordinary) or q^N-like values (q-case) harmless
as long as the series terminates in time.

Exact (int or Fraction) arguments never pass through `Fraction`
arithmetic term by term, in the ordinary case as in the q-case.  Each term
ratio is an integer pair (A_k, B_k) built from the parameters' numerators
and denominators (and from q^k = P^k/Q^k in the q-case; `qterm_ratios`
yields them, and the Laurent builder of `families` reads them too).
`hyper_sum` and `qhyper_sum` sum them by Horner's rule from the top term,
S <- 1 + (A_k/B_k) S, on one integer numerator and denominator, reduced
once; `pochhammer` and `qpochhammer` are running integer products.  A
vanishing factor b + k = 0 is an integer test on b, and `first_qvanishing`
scans for a factor q^k b = 1.  Floats and complex values, as `numerics`
passes them, run duck-typed loops over incremental term ratios instead, in
a fixed operation order, and so do two exact calls that must keep the
type of their values: an int base of `pochhammer`, and a `hyper_sum` with
no term past the first (`nterms == 0`).  An exact `hyper_sum` of
plain ints with a term past the first gives a Fraction.
`terminating_hyper` validates a terminating series (its termination
numerator and every denominator factor it uses) before it sums it.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import ParameterError, VanishingDenominator


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into a rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse rational from {text!r}: {exc}") from exc


def pochhammer(b, k: int):
    """Shifted factorial (b)_k = b (b+1) ... (b+k-1); empty product for k=0.

    A Fraction b gives a Fraction from one integer product, reduced once;
    any other b (an int too) multiplies the factors in its own type.
    """
    if type(b) is Fraction:
        # b + j = (b_num + j b_den) / b_den
        n, d = b.numerator, b.denominator
        num = 1
        for j in range(k):
            num *= n + j * d
        return Fraction(num, d ** k)
    out = b - b + 1  # one, in the arithmetic type of b
    for j in range(k):
        out *= b + j
    return out


def _exact(*values) -> bool:
    """True when every value is exactly an int or a Fraction: these take
    the integer paths; anything else (subclasses too) takes the loops."""
    return all(type(v) is Fraction or type(v) is int for v in values)


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def qpochhammer(b, qbase, k: int):
    """q-shifted factorial (b; q)_k = (1-b)(1-qb)...(1-q^(k-1) b).

    Exact arguments (int or Fraction) give a Fraction built from one
    integer product each for numerator and denominator, reduced once;
    floats and complex values multiply the factors in order.
    """
    if _exact(b, qbase):
        return _qpochhammer_exact(b, qbase, k)
    out = qbase - qbase + 1
    qpow = out
    for _ in range(k):
        out *= 1 - qpow * b
        qpow *= qbase
    return out


def _qpochhammer_exact(b, qbase, k: int) -> Fraction:
    # 1 - q^j b = (Q^j b_den - P^j b_num) / (Q^j b_den) with q = P/Q
    bn, bd = b.numerator, b.denominator
    p, qd = qbase.numerator, qbase.denominator
    num = den = 1
    pj = qj = 1
    for _ in range(k):
        num *= qj * bd - pj * bn
        den *= qj * bd
        pj *= p
        qj *= qd
    return Fraction(num, den)


def hyper_sum(nums: Sequence, dens: Sequence, arg, nterms: int):
    """Terminating ordinary hypergeometric sum over k = 0..nterms.

    Computes sum_k (nums)_k / ((dens)_k k!) arg^k.  Exact arguments (int or
    Fraction) are summed from their integer term ratios when a term past
    the first is summed.  Everything else runs the term-ratio loop,
    duck-typed for Fraction, float or complex scalars alike.
    """
    if nterms > 0 and _exact(arg, *nums, *dens):
        return _ratio_sum(_term_ratios(nums, dens, arg, nterms))
    term = arg - arg + 1
    total = term
    for k in range(nterms):
        for a in nums:
            term *= a + k
        den = k + 1
        for b in dens:
            den *= b + k
        if den == 0:
            raise VanishingDenominator(k + 1)
        term = term * arg / den
        total += term
    return total


def _term_ratios(nums, dens, arg, nterms: int):
    """Lazily, the integer pairs (up, down) = t_(k+1)/t_k, k < nterms, of the
    exact sum_k (nums)_k / ((dens)_k k!) arg^k; a zero `down` raises
    VanishingDenominator(k + 1) when its k is reached."""
    # t_(k+1) / t_k = arg prod(a + k) / ((k + 1) prod(b + k)), where
    # v + k = (v_num + k v_den) / v_den
    a_pairs = [(a.numerator, a.denominator) for a in nums]
    b_pairs = [(b.numerator, b.denominator) for b in dens]
    up0, down0 = arg.numerator, arg.denominator
    for _, bd in b_pairs:
        up0 *= bd
    for _, ad in a_pairs:
        down0 *= ad
    for k in range(nterms):
        up, down = up0, down0 * (k + 1)
        for an, ad in a_pairs:
            up *= an + k * ad
        for bn, bd in b_pairs:
            down *= bn + k * bd
        if not down:
            raise VanishingDenominator(k + 1)
        yield up, down


def _ratio_sum(ratios) -> Fraction:
    """1 + r_0 (1 + r_1 (1 + ...)) for the integer pairs r_k = (up_k, down_k),
    by Horner's rule from the top term on one integer numerator and
    denominator, reduced once.  Every ratio is formed first, so a vanishing
    denominator past a zero term raises."""
    num = den = 1
    for up, down in reversed(list(ratios)):
        num, den = down * den + up * num, down * den
    return Fraction(num, den)


def qhyper_sum(nums: Sequence, dens: Sequence, qbase, arg, nterms: int):
    """Terminating basic hypergeometric sum over k = 0..nterms.

    Computes sum_k (nums; q)_k / ((dens; q)_k (q; q)_k) arg^k.  Exact
    arguments are summed from their integer term ratios; floats and complex
    values run the term-ratio loop, in the operation order `numerics`
    relies on.
    """
    if _exact(qbase, arg, *nums, *dens):
        return _ratio_sum(qterm_ratios(nums, dens, qbase, arg, nterms))
    term = arg - arg + 1
    total = term
    qpow = term  # q^k
    for k in range(nterms):
        for a in nums:
            term *= 1 - qpow * a
        qpow *= qbase
        den = 1 - qpow
        for b in dens:
            den *= 1 - (qpow / qbase) * b
        if den == 0:
            raise VanishingDenominator(k + 1)
        term = term * arg / den
        total += term
    return total


def qterm_ratios(nums, dens, qbase, arg, nterms: int, detail: str = ""):
    """Lazily, the integer pairs (up, down) = t_(k+1)/t_k, k < nterms, of the
    exact sum_k (nums; q)_k / ((dens; q)_k (q; q)_k) arg^k; a zero `down`
    raises VanishingDenominator(k + 1, detail) when its k is reached."""
    # t_(k+1) / t_k = arg prod(1 - q^k a) / ((1 - q^(k+1)) prod(1 - q^k b)),
    # where 1 - q^k v = (Q^k v_den - P^k v_num) / (Q^k v_den) with q = P/Q.
    # The powers of Q meet in one factor Q^e, e = k (|dens| + 1 - |nums|) + 1.
    a_pairs = [(a.numerator, a.denominator) for a in nums]
    b_pairs = [(b.numerator, b.denominator) for b in dens]
    up0, down0 = arg.numerator, arg.denominator
    for _, bd in b_pairs:
        up0 *= bd
    for _, ad in a_pairs:
        down0 *= ad
    p, qd = qbase.numerator, qbase.denominator
    pk = qk = 1  # q^k = pk / qk
    for k in range(nterms):
        up, down = up0, down0 * (qk * qd - pk * p)
        for an, ad in a_pairs:
            up *= qk * ad - pk * an
        for bn, bd in b_pairs:
            down *= qk * bd - pk * bn
        if not down:
            raise VanishingDenominator(k + 1, detail)
        e = k * (len(b_pairs) + 1 - len(a_pairs)) + 1
        if e >= 0:
            up *= qd ** e
        else:
            down *= qd ** -e
        yield up, down
        pk *= p
        qk *= qd


def first_qvanishing(bases, qbase, top: int):
    """The first (k, b) with q^k b = 1, k < top outer and the exact `bases`
    in order inner: the first vanishing factor of the (b; q)_top; or None."""
    # with q = P/Q: q^k b = 1 iff P^k b_num = Q^k b_den
    p, qd = qbase.numerator, qbase.denominator
    pk = qk = 1
    for k in range(top):
        for b in bases:
            if pk * b.numerator == qk * b.denominator:
                return k, b
        pk *= p
        qk *= qd
    return None


def terminating_hyper(numerator, denominator, argument, termination: int, base=None) -> Fraction:
    """Exact value of a validated terminating (q-)hypergeometric series.

    `base` is None for an ordinary series and the rational q (0 < q < 1)
    for a q-series.  `termination` is the n of the leading -n (ordinary)
    or q^(-n) (q-case) numerator parameter.  Every denominator factor used
    up to the termination index is scanned first, and a vanishing one is
    rejected with a precise index witness.
    """
    numerator = tuple(map(_fraction, numerator))
    denominator = tuple(map(_fraction, denominator))
    argument = _fraction(argument)
    n = termination
    if n < 0:
        raise ParameterError("termination index must be a natural number")
    if base is None:
        if all(a != -n for a in numerator):
            raise ParameterError(f"no numerator parameter equals -{n}")
        for b in denominator:
            # b + k = 0 for some k < n iff b is an integer in (-n, 0]
            if b.denominator == 1 and -n < b.numerator <= 0:
                raise VanishingDenominator(1 - b.numerator, f"(b)_k factor with b={b}")
        return hyper_sum(numerator, denominator, argument, n)
    base = _fraction(base)
    if not 0 < base < 1:
        raise ParameterError(f"series base must lie in (0, 1), got {base}")
    # with q = P/Q: a = q^(-n) iff a_num P^n = a_den Q^n
    pn, qn = base.numerator ** n, base.denominator ** n
    if all(a.numerator * pn != a.denominator * qn for a in numerator):
        raise ParameterError(f"no numerator parameter equals base^(-{n})")
    hit = first_qvanishing(denominator, base, n)
    if hit is not None:
        raise VanishingDenominator(hit[0] + 1, f"(b; q)_k factor with b={hit[1]}")
    return qhyper_sum(numerator, denominator, base, argument, n)
