"""Laurent ring tests: exact arithmetic, symmetry, embeddings."""

import copy
import pickle
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from qaskey.errors import ZeroArgument
from qaskey.laurent import LaurentPoly, linear_combination, x_embed
from qaskey.series import qpochhammer
from closed_forms import (
    _o, _o_add, _o_eval, _o_mul, _o_pow, _o_scale, _o_str, _o_sym, _o_x_embed, invert_variable,
    negate_variable, qpoch_laurent_pow,
)

coeff_lists = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                       min_size=1, max_size=5)


def _x():
    return LaurentPoly((0, 1), 2)


def _poly(oracle) -> LaurentPoly:
    """The polynomial of a symmetric oracle, through the public constructor."""
    assert invert_variable(oracle) == oracle
    den = lcm(*(v.denominator for v in oracle.values()))
    return LaurentPoly([int(oracle.get(k, 0) * den) for k in range(max(oracle, default=-1) + 1)],
                       den)


def test_ring_ops():
    two_x = _x() + _x()
    assert two_x * two_x == LaurentPoly((2, 0, 1))
    p = LaurentPoly((35, 0, 0, 2), 5)  # 7 + 2/5 (z^3 + z^-3)
    assert p * LaurentPoly.constant(1) == p
    assert p - p == LaurentPoly()
    assert p * 0 == LaurentPoly()
    assert -(-p) == p
    assert p ** 0 == LaurentPoly.constant(1)
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_eval_at():
    half_sum = _x()
    assert half_sum.eval_at(F(2)) == F(5, 4)
    assert LaurentPoly.constant(1).eval_at(F(-9, 7)) == 1
    assert LaurentPoly((0, 0, 0, 1)).eval_at(F(1, 2)) == F(1, 8) + 8
    assert LaurentPoly((0, 0, 0, 1)).eval_at(F(-1, 2)) == -F(1, 8) - 8
    assert LaurentPoly().eval_at(F(3)) == 0
    with pytest.raises(ZeroArgument):
        half_sum.eval_at(0)


def test_invert_variable():
    assert invert_variable({2: 1, -1: 3}) == {-2: 1, 1: 3}
    s = x_embed([F(1), F(2), F(3)])
    assert invert_variable(s) == dict(s.items())
    assert invert_variable(LaurentPoly.constant(F(5, 3))) == {0: F(5, 3)}


def test_negate_variable():
    assert negate_variable({2: 1, 1: 5, -3: F(1, 2)}) == {2: 1, 1: -5, -3: -F(1, 2)}
    assert negate_variable(_x()) == {1: F(-1, 2), -1: F(-1, 2)}


def test_x_embed_examples():
    assert x_embed([0, 1]) == _x()
    assert x_embed([1]) == LaurentPoly.constant(1)
    assert x_embed([-1, 0, 1]) == LaurentPoly((-2, 0, 1), 4)


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
    assert qpoch_laurent_pow(F(1, 3), +1, F(1, 4), 0) == {0: 1}
    assert qpoch_laurent_pow(F(1, 3), +1, F(1, 4), 1) == {0: 1, 1: F(-1, 3)}
    # evaluating at z = 1/a hits the (1; q)_k factor
    a = F(2, 7)
    prod = _o_mul(qpoch_laurent_pow(a, +1, F(1, 2), 2), qpoch_laurent_pow(a, -1, F(1, 2), 2))
    assert _o_eval(prod, 1 / a) == 0


@given(st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(lambda v: v != 0),
       st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(lambda v: v != 0),
       st.integers(min_value=0, max_value=6))
def test_qpoch_laurent_matches_scalar(a, z0, k):
    q = F(1, 3)
    assert _o_eval(qpoch_laurent_pow(a, +1, q, k), z0) == qpochhammer(a * z0, q, k)
    assert _o_eval(qpoch_laurent_pow(a, -1, q, k), z0) == qpochhammer(a / z0, q, k)
    assert _o_eval(qpoch_laurent_pow(a, 2, q, k), z0) == qpochhammer(a * z0 * z0, q, k)


def test_symmetric_constructor_validates():
    LaurentPoly((-3, 2))
    with pytest.raises(ZeroDivisionError):
        LaurentPoly((1, 2), 0)
    with pytest.raises(ZeroDivisionError):
        LaurentPoly((), 0)


@given(coeff_lists)
def test_family_style_outputs_are_symmetric(p):
    s = x_embed(p)
    assert invert_variable(s) == dict(s.items())
    assert eval(repr(s), {"LaurentPoly": LaurentPoly}) == s


def test_rendering():
    p = LaurentPoly((-1, 0, 3), 2)
    assert str(p) == "3/2 z^2 - 1/2 + 3/2 z^-2"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly((0, -1))) == "-z - z^-1"
    assert str(LaurentPoly((4, 1), 3)) == "1/3 z + 4/3 + 1/3 z^-1"


def test_canonical_no_zero_coefficients():
    p = LaurentPoly((0, 2, 0, 0))
    assert p.items() == [(-1, F(2)), (1, F(2))]
    q = LaurentPoly((0, 2)) + LaurentPoly((0, -2))
    assert q.items() == [] and q == LaurentPoly()


def test_hash_consistent_with_eq():
    p1 = LaurentPoly((0, 1), 2)
    p2 = x_embed([0, 1])
    assert p1 == p2 and hash(p1) == hash(p2)


@pytest.mark.parametrize("value", [0, 3, -2, F(0), F(5, 3), F(-7, 2), F(8, 4)])
def test_constants_equal_and_hash_as_their_value(value):
    c = LaurentPoly.constant(value)
    built = LaurentPoly((F(value).numerator * 6,), F(value).denominator * 6)
    for poly in (c, built):
        assert poly == value and value == poly and hash(poly) == hash(value)
        assert len({poly, value}) == 1
    assert hash(LaurentPoly()) == hash(0) == hash(F(0))
    assert c != value + 1 and c + x_embed([0, 1]) != value


# ---------------------------------------------------------------------------
# the dict-of-Fraction oracle (`closed_forms`), against which every operation
# of the core is checked
# ---------------------------------------------------------------------------


def _assert_matches(p, oracle):
    """p has the coefficients of the (symmetric) oracle, in a canonical half."""
    assert p._c == oracle
    assert p.items() == sorted(oracle.items())
    assert (p == LaurentPoly()) == (not oracle)
    assert str(p) == _o_str(oracle)
    for k in range(-20, 21):
        assert p.coeff(k) == oracle.get(k, 0)
    for z0 in (F(2, 3), F(-5, 2)):
        assert p.eval_at(z0) == _o_eval(oracle, z0)
    h, den = p._h, p._den
    assert den > 0 and gcd(den, *h) == 1
    if oracle:
        assert h[-1]
    else:
        assert (h, den) == ((), 1)
    built = _poly(oracle)
    assert (built._h, built._den) == (h, den)
    assert p == built and built == p and hash(p) == hash(built)


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
nonzero = fracs.filter(lambda v: v != 0)
halves = st.lists(fracs, max_size=5)


@given(halves, halves, fracs, nonzero, st.integers(min_value=0, max_value=3))
def test_ring_ops_match_oracle(a, b, s, d, n):
    oa, ob = _o_sym(a), _o_sym(b)
    p, q = _poly(oa), _poly(ob)
    _assert_matches(p, oa)
    _assert_matches(p + q, _o_add(oa, ob))
    _assert_matches(p - q, _o_add(oa, _o_scale(ob, -1)))
    _assert_matches(-p, _o_scale(oa, -1))
    _assert_matches(p * q, _o_mul(oa, ob))
    _assert_matches(p * s, _o_scale(oa, s))
    _assert_matches(s * p, _o_scale(oa, s))
    _assert_matches(p * s.numerator, _o_scale(oa, s.numerator))
    _assert_matches(p + s, _o_add(oa, _o({0: s})))
    _assert_matches(s + p, _o_add(_o({0: s}), oa))
    _assert_matches(p - s, _o_add(oa, _o({0: -s})))
    _assert_matches(s - p, _o_add(_o({0: s}), _o_scale(oa, -1)))
    _assert_matches(p + s.numerator, _o_add(oa, _o({0: s.numerator})))
    _assert_matches(p * (1 / d), _o_scale(oa, 1 / d))
    _assert_matches(p ** n, _o_pow(oa, n))
    assert (p == q) == (oa == ob)
    assert (p == s) == (oa == _o({0: s}))


ints = st.integers(min_value=-30, max_value=30)


@given(st.lists(ints, max_size=5), st.lists(ints, max_size=5),
       ints.filter(lambda v: v != 0), ints.filter(lambda v: v != 0),
       st.integers(min_value=0, max_value=3))
def test_half_ring_ops_match_oracle(h, g, hden, gden, n):
    # halves from integers as given: trailing zeros, common factors and
    # negative denominators included
    p, q = LaurentPoly(h, hden), LaurentPoly(g, gden)
    op, oq = _o_scale(_o_sym(h), F(1, hden)), _o_scale(_o_sym(g), F(1, gden))
    _assert_matches(p, op)
    _assert_matches(p * q, _o_mul(op, oq))
    _assert_matches(p + q, _o_add(op, oq))
    _assert_matches(p - q, _o_add(op, _o_scale(oq, -1)))
    _assert_matches(-p, _o_scale(op, -1))
    _assert_matches(p ** n, _o_pow(op, n))
    assert (p == q) == (op == oq)


@given(halves, nonzero)
def test_variable_maps_and_evaluation_match_oracle(h, z0):
    oa = _o_sym(h)
    p = _poly(oa)
    assert invert_variable(p) == oa
    _assert_matches(_poly(negate_variable(p)), negate_variable(oa))
    assert p.eval_at(z0) == p.eval_at(1 / z0) == _o_eval(oa, z0)
    assert _poly(negate_variable(p)).eval_at(z0) == p.eval_at(-z0)


@given(st.lists(fracs, max_size=6))
def test_x_embed_matches_oracle(coeffs):
    _assert_matches(x_embed(coeffs), _o_x_embed(coeffs))


@given(st.lists(st.tuples(halves, st.one_of(fracs, st.integers(-3, 3))), max_size=8))
def test_linear_combination_matches_oracle(terms):
    polys = [_poly(_o_sym(a)) for a, _ in terms]
    scalars = [s for _, s in terms]
    oracle, loop = {}, LaurentPoly()
    for (a, s), p in zip(terms, polys):
        oracle = _o_add(oracle, _o_scale(_o_sym(a), s))
        loop = loop + p * s
    out = linear_combination(polys, scalars)
    _assert_matches(out, oracle)
    assert out == loop and hash(out) == hash(loop)


def test_linear_combination_edges():
    p = LaurentPoly((6, 1, 0, 0, 2), 4)
    assert linear_combination([], []) == LaurentPoly()
    assert linear_combination([p, LaurentPoly()], [0, F(5, 7)]) == LaurentPoly()
    assert linear_combination([p, -p], [F(2, 3), F(2, 3)]) == LaurentPoly()
    assert linear_combination((p,), (2,)) == p + p
    with pytest.raises(ValueError):
        linear_combination([p, p], [1])


@given(halves, halves, halves)
def test_canonical_form_does_not_depend_on_order(a, b, c):
    p, q, r = _poly(_o_sym(a)), _poly(_o_sym(b)), _poly(_o_sym(c))
    for left, right in (((p * q) * r, r * (q * p)), ((p + q) + r, r + (q + p)),
                        (p * (q + r), p * q + r * p)):
        assert left == right and hash(left) == hash(right)
    assert p + (-p) == LaurentPoly() and hash(p - p) == hash(LaurentPoly())


# ---------------------------------------------------------------------------
# the half layout: the integer `+ c` shortcut, the constructor, copies
# ---------------------------------------------------------------------------


@given(halves, st.integers(min_value=-4, max_value=4))
def test_half_plus_an_integer_matches_the_linear_combination(h, c):
    p = _poly(_o_sym(h))
    oracle = _o_add(_o_sym(h), _o({0: c}))
    for total in (p + c, c + p):
        _assert_matches(total, oracle)
        assert total == linear_combination((p, LaurentPoly.constant(c)), (1, 1))


@pytest.mark.parametrize("h,den,c,out", [
    ((2, 1), 2, -1, ((0, 1), 2)),  # h_0 cancels below a nonzero top
    ((5,), 1, -5, ((), 1)),  # the constant cancels to the zero half
    ((), 1, 0, ((), 1)),
    ((), 1, -3, ((-3,), 1)),
    ((1, 0, 3), 7, 0, ((1, 0, 3), 7)),
    ((-1, 4), 3, -2, ((-7, 4), 3)),
])
def test_half_plus_an_integer_moves_only_h0(h, den, c, out):
    total = LaurentPoly(h, den) + c
    assert type(total) is LaurentPoly and (total._h, total._den) == out


def test_half_equals_and_hashes_like_the_full_layout():
    # the half against the polynomial built from its full coefficient mapping
    full = {-2: F(3, 4), 0: F(-1, 6), 2: F(3, 4)}
    s, p = LaurentPoly((-2, 0, 9), 12), _poly(full)
    assert dict(s.items()) == full
    assert (s._h, s._den) == (p._h, p._den) == ((-2, 0, 9), 12)
    assert s == p and hash(s) == hash(p) and len({s, p}) == 1
    assert s != LaurentPoly((-2, 0, 9, 1), 12) and s != s + 1
    assert LaurentPoly() == 0 and hash(LaurentPoly()) == hash(0)
    assert repr(s) == "LaurentPoly((-2, 0, 9), 12)" and str(s) == "3/4 z^2 - 1/6 + 3/4 z^-2"


def test_from_half_builds_the_canonical_half():
    # (2 - 4(z + 1/z)) / -6, with the sign moved to the numerators
    s = LaurentPoly((2, -4), -6)
    assert (s._h, s._den) == ((-1, 2), 3)
    assert dict(s.items()) == {-1: F(2, 3), 0: F(-1, 3), 1: F(2, 3)}
    assert LaurentPoly((0, 5, 0, 0), 10)._h == (0, 1)
    assert LaurentPoly((0, 0), 7) == LaurentPoly()


def test_halves_copy_and_pickle():
    for p in (x_embed([1, F(2, 3), 3]), LaurentPoly(), LaurentPoly((4, -1, 0, 3), 5)):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is LaurentPoly and twin == p and str(twin) == str(p)
            assert (twin._h, twin._den) == (p._h, p._den)


def test_product_and_sum_are_single_methods_of_the_base_class():
    # the benchmark's span tracer wraps vars(LaurentPoly)["__mul__"] and
    # ["__add__"] and rebinds the reflected names to the same wrapper
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        assert name in vars(LaurentPoly)
    assert LaurentPoly.__rmul__ is LaurentPoly.__mul__
    assert LaurentPoly.__radd__ is LaurentPoly.__add__
