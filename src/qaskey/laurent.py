"""Exact Laurent polynomials in one variable z over the rationals.

Askey-Wilson-type polynomials live in the symmetric subspace (invariant
under z -> 1/z), where they are ordinary polynomials in x = (z + 1/z)/2.

A polynomial is stored fraction-free, in the layout of FLINT's `fmpq_poly`:
the lowest exponent `lo`, a tuple `n` of integer numerators and one common
denominator `den`, so that the coefficient of z^(lo + i) is n[i]/den.  The
canonical form has no zero at either end of `n`, den > 0 and
gcd(den, *n) == 1, and zero is (0, (), 1).  Sums and products work on
integers and reduce each result with one gcd, and `linear_combination`
puts all its terms over one denominator and reduces once; the variable
maps keep the canonical form as it is.  Equality is exact comparison of
the three fields.  `_c` (exponent -> nonzero reduced Fraction, ascending)
is a view derived from them on each access; `items`, `coeff`, `eval_at`,
`__str__` and the span tracer in `bench/` read it.  Instances are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import SymmetryViolation, ZeroArgument

_SCALARS = (int, Fraction)


class LaurentPoly:
    """Immutable Laurent polynomial sum_i n[i]/den z^(lo + i), canonical."""

    __slots__ = ("_lo", "_n", "_den")

    def __init__(self, coeffs=()):
        self._lo, self._n, self._den = _fields(_collect(coeffs))

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        return cls({0: Fraction(value)})

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: Fraction(coeff)})

    @property
    def _c(self) -> dict:
        """exponent -> reduced nonzero Fraction, ascending exponent."""
        lo, den = self._lo, self._den
        return {lo + i: Fraction(v, den) for i, v in enumerate(self._n) if v}

    def coeff(self, exponent: int) -> Fraction:
        return self._c.get(exponent, Fraction(0))

    def items(self):
        """Sorted (exponent, coefficient) pairs, ascending exponent."""
        return list(self._c.items())

    @property
    def support(self):
        return [self._lo + i for i, v in enumerate(self._n) if v]

    def is_zero(self) -> bool:
        return not self._n

    def max_degree(self):
        return self._lo + len(self._n) - 1 if self._n else None

    # ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._n, other._n
        d1, d2 = self._den, other._den
        den = d1
        if d1 != d2:
            g = gcd(d1, d2)
            den = d1 // g * d2
            a = [v * (d2 // g) for v in a]
            b = [v * (d1 // g) for v in b]
        lo1, lo2 = self._lo, other._lo
        lo = min(lo1, lo2)
        out = [0] * (max(lo1 + len(a), lo2 + len(b)) - lo)
        out[lo1 - lo:lo1 - lo + len(a)] = a
        for i, v in enumerate(b, lo2 - lo):
            out[i] += v
        return _poly(lo, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self._lo, tuple(-v for v in self._n), self._den)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            p = other.numerator
            return _poly(self._lo, [v * p for v in self._n] if p else [],
                         self._den * other.denominator)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._n, other._n
        if not a or not b:
            return _raw(0, (), 1)
        # out[k] = sum_i a[i] b[k - i], one C-level sum per output exponent.
        la, lb = len(a), len(b)
        rb = b[::-1]
        out = []
        for k in range(la + lb - 1):
            i0 = k - lb + 1 if k >= lb else 0
            i1 = k + 1 if k < la else la
            j0 = lb - 1 - k
            out.append(sum(map(mul, a[i0:i1], rb[j0 + i0:j0 + i1])))
        return _poly(self._lo + other._lo, out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1 / Fraction(scalar))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for general Laurent polynomials")
        out = LaurentPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._n == other._n and self._lo == other._lo and self._den == other._den

    def __hash__(self):
        return hash((self._lo, self._n, self._den))

    # evaluation and variable maps ----------------------------------------

    def eval_at(self, z0):
        """Exact value at z = z0 (z0 nonzero)."""
        if z0 == 0:
            raise ZeroArgument("cannot evaluate a Laurent polynomial at z = 0")
        if isinstance(z0, _SCALARS):
            z0 = Fraction(z0)
            total = Fraction(0)
        else:
            total = z0 - z0
        for k, v in self._c.items():
            total += v * z0 ** k
        return total

    def invert_variable(self):
        """The image under z -> 1/z (every exponent negated)."""
        n = self._n
        return _raw(1 - self._lo - len(n) if n else 0, n[::-1], self._den)

    def negate_variable(self):
        """The image under z -> -z."""
        lo = self._lo
        return _raw(lo, tuple(-v if (lo + i) & 1 else v for i, v in enumerate(self._n)),
                    self._den)

    def is_symmetric(self) -> bool:
        n = self._n
        return not n or (2 * self._lo + len(n) == 1 and n == n[::-1])

    # rendering ------------------------------------------------------------

    def __str__(self):
        c = self._c
        if not c:
            return "0"
        parts = []
        for k in sorted(c, reverse=True):
            v = c[k]
            mag = -v if v < 0 else v
            if k == 0:
                body = str(mag)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                body = zk if mag == 1 else f"{mag} {zk}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())!r})"


def _collect(coeffs) -> dict:
    """exponent -> nonzero Fraction from a mapping or (exponent, value)
    pairs, in input order, with repeated exponents summed."""
    items = coeffs.items() if hasattr(coeffs, "items") else coeffs
    c = {}
    for k, v in items:
        k = int(k)
        v = Fraction(v)
        if not v:
            continue
        w = c.get(k, 0) + v
        if w:
            c[k] = w
        else:
            del c[k]
    return c


def _fields(c: dict) -> tuple:
    """(lo, n, den) of exponent -> nonzero Fraction.  den is the lcm of the
    reduced denominators, so gcd(den, *n) == 1 with no reduction."""
    if not c:
        return 0, (), 1
    lo = min(c)
    den = lcm(*(v.denominator for v in c.values()))
    n = [0] * (max(c) - lo + 1)
    for k, v in c.items():
        n[k - lo] = v.numerator * (den // v.denominator)
    return lo, tuple(n), den


def _raw(lo: int, n: tuple, den: int) -> LaurentPoly:
    """A LaurentPoly of fields already in canonical form."""
    out = object.__new__(LaurentPoly)
    out._lo, out._n, out._den = lo, n, den
    return out


def _poly(lo: int, n: list, den: int) -> LaurentPoly:
    """The canonical form of sum_i n[i]/den z^(lo + i), for den > 0: the
    zeros at either end stripped and one gcd taken out."""
    i, j = 0, len(n)
    while i < j and not n[i]:
        i += 1
    while j > i and not n[j - 1]:
        j -= 1
    if i == j:
        return _raw(0, (), 1)
    n = n[i:j]
    g = gcd(den, *n)
    if g != 1:
        den //= g
        n = [v // g for v in n]
    return _raw(lo + i, tuple(n), den)


def linear_combination(polys, scalars) -> LaurentPoly:
    """sum_i scalars[i] * polys[i] (rational scalars, equal lengths) in one
    integer pass: every nonzero term over the lcm of den_i * scalar_i's
    denominator, numerators padded to one exponent range, one C-level sum
    per output coefficient and one reduction."""
    terms = [(p, c) for p, c in zip(polys, scalars, strict=True) if c and p._n]
    if not terms:
        return _raw(0, (), 1)
    dens = [p._den * c.denominator for p, c in terms]
    den = lcm(*dens)
    lo = min(p._lo for p, _ in terms)
    hi = max(p._lo + len(p._n) for p, _ in terms)
    rows = [(0,) * (p._lo - lo) + p._n + (0,) * (hi - p._lo - len(p._n)) for p, _ in terms]
    mults = [c.numerator * (den // d) for (_, c), d in zip(terms, dens)]
    return _poly(lo, [sum(map(mul, col, mults)) for col in zip(*rows)], den)


class SymmetricLaurent(LaurentPoly):
    """A Laurent polynomial with p(z) = p(1/z), validated at construction."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        c = _collect(coeffs)
        _check_symmetric(c)
        self._lo, self._n, self._den = _fields(c)

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "SymmetricLaurent":
        if not p.is_symmetric():
            _check_symmetric(p._c)
        out = object.__new__(cls)
        out._lo, out._n, out._den = p._lo, p._n, p._den
        return out


def _check_symmetric(c: dict) -> None:
    """Raise at the first exponent of c whose mirror coefficient differs."""
    for k, v in c.items():
        if c.get(-k) != v:
            raise SymmetryViolation(
                f"coefficient mismatch at exponents {k} / {-k}: "
                f"{v} vs {c.get(-k, Fraction(0))}"
            )


# Unbounded: one entry per degree ever embedded; the classical checks embed degree <= 12.
@lru_cache(maxsize=None)
def _x_power(k: int) -> LaurentPoly:
    # ((z + 1/z)/2)^k
    x = LaurentPoly({1: Fraction(1, 2), -1: Fraction(1, 2)})
    return x ** k


def x_embed(coeffs) -> SymmetricLaurent:
    """Map a polynomial in x = (z + 1/z)/2, given by coefficients lowest
    degree first, to its symmetric Laurent form."""
    total = LaurentPoly()
    for k, c in enumerate(coeffs):
        if c:
            total = total + _x_power(k) * Fraction(c)
    return SymmetricLaurent.from_poly(total)


def qpoch_laurent_pow(a, zexp: int, qbase, k: int) -> LaurentPoly:
    """prod_{j<k} (1 - q^j a z^zexp) as a Laurent polynomial."""
    out = LaurentPoly.constant(1)
    factor_c = Fraction(a)
    qb = Fraction(qbase)
    for _ in range(k):
        out = out * (LaurentPoly.constant(1) - LaurentPoly.monomial(zexp, factor_c))
        factor_c *= qb
    return out
