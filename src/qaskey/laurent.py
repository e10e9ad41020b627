"""Sparse exact Laurent polynomials in one variable z over the rationals.

Askey-Wilson-type polynomials live in the symmetric subspace (invariant
under z -> 1/z), where they are ordinary polynomials in x = (z + 1/z)/2.
Coefficients are Fractions; canonical form never stores a zero coefficient,
so equality is plain coefficient comparison.  Instances are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import SymmetryViolation, ZeroArgument

_SCALARS = (int, Fraction)


class LaurentPoly:
    """Immutable sparse Laurent polynomial: exponent -> nonzero Fraction."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
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
        self._c = c

    @classmethod
    def _raw(cls, c: dict) -> "LaurentPoly":
        out = object.__new__(LaurentPoly)
        out._c = c
        return out

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        return cls({0: Fraction(value)})

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: Fraction(coeff)})

    def coeff(self, exponent: int) -> Fraction:
        return self._c.get(exponent, Fraction(0))

    def items(self):
        """Sorted (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    @property
    def support(self):
        return sorted(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def max_degree(self):
        return max(self._c) if self._c else None

    # ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            w = c.get(k, 0) + v
            if w:
                c[k] = w
            else:
                c.pop(k, None)
        return LaurentPoly._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({k: -v for k, v in self._c.items()})

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
            s = Fraction(other)
            if not s:
                return LaurentPoly._raw({})
            return LaurentPoly._raw({k: v * s for k, v in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                w = c.get(k, 0) + v1 * v2
                if w:
                    c[k] = w
                else:
                    c.pop(k, None)
        return LaurentPoly._raw(c)

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
        return self._c == other._c

    def __hash__(self):
        return hash(tuple(self.items()))

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
        return LaurentPoly._raw({-k: v for k, v in self._c.items()})

    def negate_variable(self):
        """The image under z -> -z."""
        return LaurentPoly._raw({k: (v if k % 2 == 0 else -v) for k, v in self._c.items()})

    def is_symmetric(self) -> bool:
        return all(self._c.get(-k) == v for k, v in self._c.items())

    # rendering ------------------------------------------------------------

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k in sorted(self._c, reverse=True):
            v = self._c[k]
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


class SymmetricLaurent(LaurentPoly):
    """A Laurent polynomial with p(z) = p(1/z), validated at construction."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(coeffs)
        for k, v in self._c.items():
            if self._c.get(-k) != v:
                raise SymmetryViolation(
                    f"coefficient mismatch at exponents {k} / {-k}: "
                    f"{v} vs {self._c.get(-k, Fraction(0))}"
                )

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "SymmetricLaurent":
        return cls(p._c)


# Unbounded: one entry per degree ever embedded, and qaskey embeds only quadratics.
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
