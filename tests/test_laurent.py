"""Laurent ring tests: exact arithmetic, symmetry, embeddings."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qaskey.errors import SymmetryViolation, ZeroArgument
from qaskey.laurent import (
    LaurentPoly,
    SymmetricLaurent,
    qpoch_laurent_pow,
    x_embed,
)
from qaskey.series import qpochhammer

coeff_lists = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                       min_size=1, max_size=5)


def _x():
    return LaurentPoly({1: F(1, 2), -1: F(1, 2)})


def test_ring_ops():
    two_x = _x() + _x()
    assert two_x * two_x == LaurentPoly({2: 1, 0: 2, -2: 1})
    p = LaurentPoly({3: F(2, 5), -1: F(7)})
    assert p * LaurentPoly.constant(1) == p
    assert (p - p).is_zero()
    assert p - p == LaurentPoly()
    assert (p * 0).is_zero()
    assert -(-p) == p
    assert p ** 0 == LaurentPoly.constant(1)
    assert p ** 3 == p * p * p


def test_eval_at():
    half_sum = _x()
    assert half_sum.eval_at(F(2)) == F(5, 4)
    assert LaurentPoly.constant(1).eval_at(F(-9, 7)) == 1
    assert LaurentPoly.monomial(3).eval_at(F(1, 2)) == F(1, 8)
    with pytest.raises(ZeroArgument):
        half_sum.eval_at(0)


def test_invert_variable():
    p = LaurentPoly({2: 1, -1: 3})
    assert p.invert_variable() == LaurentPoly({-2: 1, 1: 3})
    s = x_embed([F(1), F(2), F(3)])
    assert s.invert_variable() == s
    assert LaurentPoly.constant(F(5, 3)).invert_variable() == LaurentPoly.constant(F(5, 3))


def test_negate_variable():
    p = LaurentPoly({2: 1, 1: 5, -3: F(1, 2)})
    q = p.negate_variable()
    assert q == LaurentPoly({2: 1, 1: -5, -3: -F(1, 2)})


def test_x_embed_examples():
    assert x_embed([0, 1]) == _x()
    assert x_embed([1]) == LaurentPoly.constant(1)
    assert x_embed([-1, 0, 1]) == LaurentPoly({2: F(1, 4), 0: F(-1, 2), -2: F(1, 4)})


@given(coeff_lists, coeff_lists)
def test_x_embed_is_ring_homomorphism(p, q):
    conv = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            conv[i + j] += a * b
    assert x_embed(p) * x_embed(q) == x_embed(conv)


@given(coeff_lists)
def test_symmetric_eval_at_one(p):
    s = x_embed(p)
    assert s.eval_at(F(1)) + s.eval_at(1 / F(1)) == 2 * s.eval_at(F(1))


def test_qpoch_laurent():
    assert qpoch_laurent_pow(F(1, 3), +1, F(1, 4), 0) == LaurentPoly.constant(1)
    assert qpoch_laurent_pow(F(1, 3), +1, F(1, 4), 1) == LaurentPoly({0: 1, 1: F(-1, 3)})
    # evaluating at z = 1/a hits the (1; q)_k factor
    a = F(2, 7)
    prod = qpoch_laurent_pow(a, +1, F(1, 2), 2) * qpoch_laurent_pow(a, -1, F(1, 2), 2)
    assert prod.eval_at(1 / a) == 0


@given(st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(lambda v: v != 0),
       st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(lambda v: v != 0),
       st.integers(min_value=0, max_value=6))
def test_qpoch_laurent_matches_scalar(a, z0, k):
    q = F(1, 3)
    assert qpoch_laurent_pow(a, +1, q, k).eval_at(z0) == qpochhammer(a * z0, q, k)
    assert qpoch_laurent_pow(a, -1, q, k).eval_at(z0) == qpochhammer(a / z0, q, k)
    assert qpoch_laurent_pow(a, 2, q, k).eval_at(z0) == qpochhammer(a * z0 * z0, q, k)


def test_symmetric_constructor_validates():
    SymmetricLaurent({1: F(2), -1: F(2), 0: F(-3)})
    with pytest.raises(SymmetryViolation):
        SymmetricLaurent({1: F(2), -1: F(3)})
    with pytest.raises(SymmetryViolation):
        SymmetricLaurent({2: F(1)})


@given(coeff_lists)
def test_family_style_outputs_are_symmetric(p):
    s = x_embed(p)
    assert s.is_symmetric()
    assert SymmetricLaurent.from_poly(s) == s


def test_rendering():
    p = LaurentPoly({2: F(3, 2), 0: F(-1, 2), -2: 1})
    assert str(p) == "3/2 z^2 - 1/2 + z^-2"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({1: -1})) == "-z"


def test_canonical_no_zero_coefficients():
    p = LaurentPoly({5: F(0), 1: F(2)})
    assert p.support == [1]
    q = LaurentPoly({1: F(2)}) + LaurentPoly({1: F(-2)})
    assert q.support == []


def test_hash_consistent_with_eq():
    p1 = LaurentPoly({1: F(1, 2), -1: F(1, 2)})
    p2 = x_embed([0, 1])
    assert p1 == p2 and hash(p1) == hash(p2)
