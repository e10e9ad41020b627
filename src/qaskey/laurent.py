"""Exact symmetric Laurent polynomials in one variable z over the rationals.

Askey-Wilson and continuous q-ultraspherical polynomials, their products
and the linearization and dual-addition expansions are invariant under
z -> 1/z, so they are ordinary polynomials in x = (z + 1/z)/2.  A
`LaurentPoly` is such a polynomial, stored fraction-free by its half: the
integer numerators h = (h_0, ..., h_d) over one denominator den, with
p = (h_0 + sum_{k>=1} h_k (z^k + z^-k)) / den.  The canonical form has
h_d != 0, den > 0 and gcd(den, *h) == 1, and zero is ((), 1).

Products work on integers and reduce each result with one gcd, by
(z^i + z^-i)(z^j + z^-j) = (z^(i+j) + z^-(i+j)) + (z^|i-j| + z^-|i-j|):
each pair (i, j) is multiplied once.  Every sum, `+` and `-` included,
runs through `linear_combination`, which puts all its halves over one
denominator and reduces once.  A polynomial plus an integer c (Horner's
`+ 1`) only moves h_0 to h_0 + c den, which needs no reduction.  A
rational scalar is the constant polynomial: it compares, and hashes,
equal to its polynomial.  `_c` (exponent -> nonzero reduced Fraction,
ascending) is a view built on each access, for `items` and the span tracer
in `bench/`; `coeff`, `eval_at` and `render` (the text of `__str__`, and of
the float line of `eval`) read the half.
Instances are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul

from .errors import ZeroArgument

_SCALARS = (int, Fraction)


class LaurentPoly:
    """Immutable (h[0] + sum_{k>=1} h[k] (z^k + z^-k)) / den, canonical."""

    __slots__ = ("_h", "_den")

    def __init__(self, h=(), den: int = 1):
        """The polynomial of integer numerators h over den != 0."""
        if not den:
            raise ZeroDivisionError("LaurentPoly denominator is zero")
        if den < 0:
            h, den = [-v for v in h], -den
        self._h, self._den = _reduced(list(h), den)

    @staticmethod
    def constant(value) -> "LaurentPoly":
        value = Fraction(value)
        return _raw((value.numerator,) if value else (), value.denominator)

    @property
    def _c(self) -> dict:
        """exponent -> reduced nonzero Fraction, ascending exponent."""
        h, den = self._h, self._den
        vals = [Fraction(v, den) for v in h]
        c = {-k: vals[k] for k in range(len(h) - 1, 0, -1) if h[k]}
        c.update((k, vals[k]) for k in range(len(h)) if h[k])
        return c

    def coeff(self, exponent: int) -> Fraction:
        i, h = abs(exponent), self._h
        return Fraction(h[i], self._den) if i < len(h) else Fraction(0)

    def items(self):
        """Sorted (exponent, coefficient) pairs, ascending exponent."""
        return list(self._c.items())

    # ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            # h_0 + c den in place of h_0: gcd(den, h_0 + c den, h_1, ...)
            # = gcd(den, h_0, h_1, ...) = 1, so no reduction is needed
            h, den = self._h or (0,), self._den
            h = (h[0] + other * den,) + h[1:]
            return _raw(h, den) if h != (0,) else _raw((), 1)
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return linear_combination((self, other), (1, 1))

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple(-v for v in self._h), self._den)

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
            return _half([v * p for v in self._h] if p else [], self._den * other.denominator)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _half(_half_product(self._h, other._h), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of a Laurent polynomial are not defined")
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
        return self._h == other._h and self._den == other._den

    def __hash__(self):
        # a constant hashes as its Fraction, which it equals
        h = self._h
        if len(h) < 2:
            return hash(Fraction(h[0], self._den) if h else 0)
        return hash((h, self._den))

    # evaluation -----------------------------------------------------------

    def eval_at(self, z0):
        """Exact value at z = z0 (z0 nonzero)."""
        z0 = Fraction(z0)
        if not z0:
            raise ZeroArgument("cannot evaluate a Laurent polynomial at z = 0")
        # z0 = P/Q: z0^k + z0^-k = (P^2k + Q^2k) / (PQ)^k, so p(z0) is
        # (h_0 (PQ)^d + sum_k h_k (P^2k + Q^2k) (PQ)^(d - k)) / (den (PQ)^d),
        # summed by Horner's rule in PQ from h_0.
        h = self._h
        if not h:
            return Fraction(0)
        p, q = z0.numerator, z0.denominator
        pq, p2, q2, p2k, q2k = p * q, p * p, q * q, 1, 1
        acc = h[0]
        for v in h[1:]:
            p2k *= p2
            q2k *= q2
            acc = acc * pq + v * (p2k + q2k)
        return Fraction(acc, self._den * pq ** (len(h) - 1))

    # rendering ------------------------------------------------------------

    def __str__(self):
        return self.render()

    def render(self, magnitude=str) -> str:
        """The polynomial from its top exponent down, read from the half:
        each nonzero coefficient as its sign and `magnitude` of its absolute
        value (a Fraction), which is left out where it is 1 beside a power
        of z; z for z^1 and a bare constant for z^0."""
        h, den = self._h, self._den
        parts = []
        for k in range(len(h) - 1, -len(h), -1):
            v = h[abs(k)]
            if not v:
                continue
            mag = Fraction(abs(v), den)
            if k == 0:
                body = magnitude(mag)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                body = zk if mag == 1 else f"{magnitude(mag)} {zk}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LaurentPoly({self._h!r}, {self._den!r})"


def _raw(h: tuple, den: int) -> LaurentPoly:
    """A LaurentPoly of a half already in canonical form."""
    out = object.__new__(LaurentPoly)
    out._h, out._den = h, den
    return out


def _reduced(h: list, den: int) -> tuple:
    """The canonical (h, den) of (h[0] + sum_k h[k] (z^k + z^-k)) / den, for
    den > 0: the zeros at the top stripped and one gcd taken out."""
    j = len(h)
    while j and not h[j - 1]:
        j -= 1
    if not j:
        return (), 1
    h = h[:j]
    g = gcd(den, *h)
    if g != 1:
        return tuple([v // g for v in h]), den // g
    return tuple(h), den


def _half(h: list, den: int) -> LaurentPoly:
    """The canonical form of (h[0] + sum_k h[k] (z^k + z^-k)) / den, den > 0."""
    return _raw(*_reduced(h, den))


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
    integer pass: every nonzero half over the lcm of den_i * scalar_i's
    denominator, padded to one length, one C-level sum per output
    coefficient and one reduction."""
    terms = [(p._h, p._den * c.denominator, c.numerator)
             for p, c in zip(polys, scalars, strict=True) if c and p._h]
    if not terms:
        return _raw((), 1)
    den = lcm(*(d for _, d, _ in terms))
    width = max(len(h) for h, _, _ in terms)
    rows = [h + (0,) * (width - len(h)) for h, _, _ in terms]
    mults = [c * (den // d) for _, d, c in terms]
    return _half([sum(map(mul, col, mults)) for col in zip(*rows)], den)


# Unbounded: one entry per degree ever embedded; the classical checks embed degree <= 12.
@lru_cache(maxsize=None)
def _x_power(k: int) -> LaurentPoly:
    # ((z + 1/z)/2)^k
    return _raw((0, 1), 2) ** k


def x_embed(coeffs) -> LaurentPoly:
    """Map a polynomial in x = (z + 1/z)/2, given by coefficients lowest
    degree first, to its Laurent form."""
    return linear_combination([_x_power(k) for k in range(len(coeffs))],
                              [Fraction(c) for c in coeffs])
