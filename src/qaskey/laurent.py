"""Exact Laurent polynomials in one variable z over the rationals.

Askey-Wilson-type polynomials live in the symmetric subspace (invariant
under z -> 1/z), where they are ordinary polynomials in x = (z + 1/z)/2.

A polynomial is stored fraction-free, in the layout of FLINT's `fmpq_poly`:
the lowest exponent `lo`, a tuple `n` of integer numerators and one common
denominator `den`, so that the coefficient of z^(lo + i) is n[i]/den.  The
canonical form has no zero at either end of `n`, den > 0 and
gcd(den, *n) == 1, and zero is (0, (), 1).  A `SymmetricLaurent` stores
only its half: the numerators h = (h_0, ..., h_d) over the same `den`, with
p = (h_0 + sum_{k>=1} h_k (z^k + z^-k)) / den, h_d != 0 and zero ().  It
derives `_lo` and `_n` from h on access, so both layouts expose the same
three fields.

Products work on integers and reduce each result with one gcd.  When
both factors are halves, the product stays a half, by
(z^i + z^-i)(z^j + z^-j) = (z^(i+j) + z^-(i+j)) + (z^|i-j| + z^-|i-j|):
each pair (i, j) is multiplied once.  Every sum, `+` and `-` included,
runs through `linear_combination`, which puts all its terms over one
denominator and reduces once; over halves only, it sums the halves.  A
half plus an integer c (Horner's `+ 1`) only moves h_0 to h_0 + c den,
which needs no reduction.  Mixed operands take the full layout.
Equality is exact comparison of the fields.  `_c` (exponent -> nonzero
reduced Fraction, ascending) is a view built on each access, for `items`,
`__str__` and the span tracer in `bench/`; `coeff` and `eval_at` read the
fields.
Instances are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul

from .errors import SymmetryViolation, ZeroArgument

_SCALARS = (int, Fraction)


class LaurentPoly:
    """Immutable Laurent polynomial sum_i n[i]/den z^(lo + i), canonical."""

    __slots__ = ("_lo", "_n", "_den")

    def __init__(self, coeffs=()):
        self._lo, self._n, self._den = _fields(_collect(coeffs))

    @staticmethod
    def constant(value) -> "SymmetricLaurent":
        """The constant polynomial: a half, as every constant is symmetric."""
        value = Fraction(value)
        return _raw_half((value.numerator,) if value else (), value.denominator)

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: Fraction(coeff)})

    @property
    def _c(self) -> dict:
        """exponent -> reduced nonzero Fraction, ascending exponent."""
        lo, den = self._lo, self._den
        return {lo + i: Fraction(v, den) for i, v in enumerate(self._n) if v}

    def coeff(self, exponent: int) -> Fraction:
        i, n = exponent - self._lo, self._n
        return Fraction(n[i], self._den) if 0 <= i < len(n) else Fraction(0)

    def items(self):
        """Sorted (exponent, coefficient) pairs, ascending exponent."""
        return list(self._c.items())

    # ring operations -----------------------------------------------------

    def __add__(self, other):
        if type(other) is int and type(self) is SymmetricLaurent:
            # h_0 + c den in place of h_0: gcd(den, h_0 + c den, h_1, ...)
            # = gcd(den, h_0, h_1, ...) = 1, so no reduction is needed
            h, den = self._h or (0,), self._den
            h = (h[0] + other * den,) + h[1:]
            return _raw_half(h, den) if h != (0,) else _raw_half((), 1)
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return linear_combination((self, other), (1, 1))

    __radd__ = __add__

    def __neg__(self):
        if type(self) is SymmetricLaurent:
            return _raw_half(tuple(-v for v in self._h), self._den)
        return _raw(self._lo, tuple(-v for v in self._n), self._den)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    # `_compare` forms lhs - rhs on mixed items, like __radd__/__rmul__.
    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            p, den = other.numerator, self._den * other.denominator
            if type(self) is SymmetricLaurent:
                return _half([v * p for v in self._h] if p else [], den)
            return _poly(self._lo, [v * p for v in self._n] if p else [], den)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if type(self) is SymmetricLaurent and type(other) is SymmetricLaurent:
            return _half(_half_product(self._h, other._h), self._den * other._den)
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
        if type(self) is SymmetricLaurent and type(other) is SymmetricLaurent:
            return self._h == other._h and self._den == other._den
        return self._n == other._n and self._lo == other._lo and self._den == other._den

    def __hash__(self):
        return hash((self._lo, self._n, self._den))

    # evaluation -----------------------------------------------------------

    def eval_at(self, z0):
        """Exact value at z = z0 (z0 nonzero)."""
        z0 = Fraction(z0)
        if not z0:
            raise ZeroArgument("cannot evaluate a Laurent polynomial at z = 0")
        # z0 = P/Q: sum_i n[i] z0^(lo + i) = z0^lo sum_i n[i] P^i Q^(d - i) / Q^d,
        # d = len(n) - 1, by Horner's rule on integers from the top term.
        p, q = z0.numerator, z0.denominator
        acc, qk = 0, 1
        for v in reversed(self._n):
            acc = acc * p + v * qk
            qk *= q
        lo, top = self._lo, self._lo + len(self._n) - 1
        num = acc * p ** max(lo, 0) * q ** max(-top, 0)
        den = self._den * q ** max(top, 0) * p ** max(-lo, 0)
        return Fraction(num, den)

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


def _reduced(n: list, den: int) -> tuple:
    """(n, den) with their gcd taken out; n is nonempty and den > 0."""
    g = gcd(den, *n)
    if g != 1:
        return tuple([v // g for v in n]), den // g
    return tuple(n), den


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
    return _raw(lo + i, *_reduced(n[i:j], den))


def _half_product(a: tuple, b: tuple) -> list:
    """The half of the product of the halves a and b: each a[i] b[j] once,
    added to the term i + j and, for i, j >= 1, to the term |i - j| (twice
    to the term 0 when i == j).  One row of products per term of the
    shorter half."""
    if len(a) < len(b):
        a, b = b, a
    la = len(a)
    out = [0] * (la + len(b) - 1) if b else []
    for j, y in enumerate(b):
        row = [x * y for x in a]
        out[j:j + la] = map(add, out[j:j + la], row)
        if j:
            out[0] += row[j]
            out[:la - j] = map(add, out[:la - j], row[j:])  # i >= j: i - j
            out[1:j] = map(add, out[1:j], row[j - 1:0:-1])  # 1 <= i < j: j - i
    return out


def linear_combination(polys, scalars) -> LaurentPoly:
    """sum_i scalars[i] * polys[i] (rational scalars, equal lengths) in one
    integer pass: every nonzero term over the lcm of den_i * scalar_i's
    denominator, numerators padded to one exponent range, one C-level sum
    per output coefficient and one reduction.  Over halves only, the
    halves are summed and the result is a half."""
    pairs = [(p, c) for p, c in zip(polys, scalars, strict=True) if c]
    halves = all(type(p) is SymmetricLaurent for p, _ in pairs)
    if halves:
        terms = [(0, p._h, p._den, c) for p, c in pairs if p._h]
    else:
        terms = [(p._lo, p._n, p._den, c) for p, c in pairs if p._n]
    if not terms:
        return _raw_half((), 1) if halves else _raw(0, (), 1)
    dens = [den * c.denominator for _, _, den, c in terms]
    den = lcm(*dens)
    lo = min(t[0] for t in terms)
    hi = max(t[0] + len(t[1]) for t in terms)
    rows = [(0,) * (tlo - lo) + n + (0,) * (hi - tlo - len(n)) for tlo, n, _, _ in terms]
    mults = [t[3].numerator * (den // d) for t, d in zip(terms, dens)]
    out = [sum(map(mul, col, mults)) for col in zip(*rows)]
    return _half(out, den) if halves else _poly(lo, out, den)


class SymmetricLaurent(LaurentPoly):
    """A Laurent polynomial with p(z) = p(1/z), validated at construction
    and stored by its half h: p = (h[0] + sum_{k>=1} h[k] (z^k + z^-k)) / den."""

    __slots__ = ("_h",)

    def __init__(self, coeffs=()):
        c = _collect(coeffs)
        _check_symmetric(c)
        _, n, self._den = _fields(c)
        self._h = n[len(n) // 2:]

    @staticmethod
    def from_half(h, den: int) -> "SymmetricLaurent":
        """(h[0] + sum_{k>=1} h[k] (z^k + z^-k)) / den from integers, den != 0."""
        if den < 0:
            h, den = [-v for v in h], -den
        return _half(list(h), den)

    @property
    def _lo(self) -> int:
        return 1 - len(self._h) if self._h else 0

    @property
    def _n(self) -> tuple:
        h = self._h
        return h[:0:-1] + h

    @property
    def _c(self) -> dict:
        h, den = self._h, self._den
        vals = [Fraction(v, den) for v in h]
        c = {-k: vals[k] for k in range(len(h) - 1, 0, -1) if h[k]}
        c.update((k, vals[k]) for k in range(len(h)) if h[k])
        return c

    def coeff(self, exponent: int) -> Fraction:
        i, h = abs(exponent), self._h
        return Fraction(h[i], self._den) if i < len(h) else Fraction(0)

    # copy and pickle set the stored half, not the derived `_lo` and `_n`
    def __reduce__(self):
        return _raw_half, (self._h, self._den)


def _raw_half(h: tuple, den: int) -> SymmetricLaurent:
    """A SymmetricLaurent of a half already in canonical form."""
    out = object.__new__(SymmetricLaurent)
    out._h, out._den = h, den
    return out


def _half(h: list, den: int) -> SymmetricLaurent:
    """The canonical half of (h[0] + sum_k h[k] (z^k + z^-k)) / den, for
    den > 0: the zeros at the top stripped and one gcd taken out."""
    j = len(h)
    while j and not h[j - 1]:
        j -= 1
    if not j:
        return _raw_half((), 1)
    return _raw_half(*_reduced(h[:j], den))


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
def _x_power(k: int) -> SymmetricLaurent:
    # ((z + 1/z)/2)^k
    return _raw_half((0, 1), 2) ** k


def x_embed(coeffs) -> SymmetricLaurent:
    """Map a polynomial in x = (z + 1/z)/2, given by coefficients lowest
    degree first, to its symmetric Laurent form."""
    return linear_combination([_x_power(k) for k in range(len(coeffs))],
                              [Fraction(c) for c in coeffs])
