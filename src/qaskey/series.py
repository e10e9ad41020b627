"""Exact scalar engine: rationals, shifted factorials, terminating series.

Every scalar in the exact layer is a `fractions.Fraction`, which is always
stored gcd-reduced with a positive denominator, so canonical form is free.
Series are summed by incremental term ratios; no Pochhammer symbol is ever
evaluated beyond the termination index, which keeps denominator parameters
of the form -N (ordinary) or q^N-like values (q-case) harmless as long as
the series terminates in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ParameterError, VanishingDenominator

Rat = Fraction


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into a rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse rational from {text!r}: {exc}") from exc


def format_rat(x: Fraction) -> str:
    """Render a rational as 'p/q', or 'p' when the denominator is 1."""
    return str(Fraction(x))


def pochhammer(b, k: int):
    """Shifted factorial (b)_k = b (b+1) ... (b+k-1); empty product for k=0."""
    out = b - b + 1  # one, in the arithmetic type of b
    for j in range(k):
        out *= b + j
    return out


def qpochhammer(b, qbase, k: int):
    """q-shifted factorial (b; q)_k = (1-b)(1-qb)...(1-q^(k-1) b)."""
    out = qbase - qbase + 1
    qpow = out
    for _ in range(k):
        out *= 1 - qpow * b
        qpow *= qbase
    return out


def hyper_sum(nums: Sequence, dens: Sequence, arg, nterms: int):
    """Terminating ordinary hypergeometric sum over k = 0..nterms.

    Computes sum_k (nums)_k / ((dens)_k k!) arg^k by incremental term ratios.
    Duck-typed: works with Fraction, float or complex scalars alike.
    """
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


def qhyper_sum(nums: Sequence, dens: Sequence, qbase, arg, nterms: int):
    """Terminating basic hypergeometric sum over k = 0..nterms.

    Computes sum_k (nums; q)_k / ((dens; q)_k (q; q)_k) arg^k incrementally.
    Duck-typed like `hyper_sum`.
    """
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


@dataclass(frozen=True)
class HyperSeriesSpec:
    """A validated terminating (q-)hypergeometric series.

    `base` is None for an ordinary series and the rational q (0 < q < 1)
    for a q-series.  `termination` is the n of the leading -n (ordinary)
    or q^(-n) (q-case) numerator parameter.  Construction scans every
    denominator factor used up to the termination index and rejects the
    spec with a precise index witness if one vanishes.
    """

    numerator: tuple
    denominator: tuple
    argument: Fraction
    termination: int
    base: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(Fraction(a) for a in self.numerator))
        object.__setattr__(self, "denominator", tuple(Fraction(b) for b in self.denominator))
        object.__setattr__(self, "argument", Fraction(self.argument))
        if self.base is not None:
            object.__setattr__(self, "base", Fraction(self.base))
        n = self.termination
        if n < 0:
            raise ParameterError("termination index must be a natural number")
        if self.base is None:
            if all(a != -n for a in self.numerator):
                raise ParameterError(f"no numerator parameter equals -{n}")
            for b in self.denominator:
                for k in range(n):
                    if b + k == 0:
                        raise VanishingDenominator(k + 1, f"(b)_k factor with b={b}")
        else:
            if not 0 < self.base < 1:
                raise ParameterError(f"series base must lie in (0, 1), got {self.base}")
            if all(a != self.base ** (-n) for a in self.numerator):
                raise ParameterError(f"no numerator parameter equals base^(-{n})")
            qpow = Fraction(1)
            for k in range(n):
                for b in self.denominator:
                    if qpow * b == 1:
                        raise VanishingDenominator(k + 1, f"(b; q)_k factor with b={b}")
                qpow *= self.base


def terminating_hyper(spec: HyperSeriesSpec) -> Fraction:
    """Exact value of a validated terminating (q-)hypergeometric series."""
    if spec.base is None:
        return hyper_sum(spec.numerator, spec.denominator, spec.argument, spec.termination)
    return qhyper_sum(spec.numerator, spec.denominator, spec.base, spec.argument, spec.termination)
