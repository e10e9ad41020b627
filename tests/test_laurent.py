"""Laurent ring tests: exact arithmetic, symmetry, embeddings."""

import copy
import pickle
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qaskey.errors import SymmetryViolation, ZeroArgument
from qaskey.laurent import LaurentPoly, SymmetricLaurent, linear_combination, x_embed
from qaskey.series import qpochhammer
from closed_forms import invert_variable, negate_variable, qpoch_laurent_pow

coeff_lists = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                       min_size=1, max_size=5)


def _x():
    return LaurentPoly({1: F(1, 2), -1: F(1, 2)})


def test_ring_ops():
    two_x = _x() + _x()
    assert two_x * two_x == LaurentPoly({2: 1, 0: 2, -2: 1})
    p = LaurentPoly({3: F(2, 5), -1: F(7)})
    assert p * LaurentPoly.constant(1) == p
    assert p - p == LaurentPoly()
    assert p * 0 == LaurentPoly()
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
    assert invert_variable(p) == LaurentPoly({-2: 1, 1: 3})
    s = x_embed([F(1), F(2), F(3)])
    assert invert_variable(s) == s
    assert invert_variable(LaurentPoly.constant(F(5, 3))) == LaurentPoly.constant(F(5, 3))


def test_negate_variable():
    p = LaurentPoly({2: 1, 1: 5, -3: F(1, 2)})
    q = negate_variable(p)
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
    assert isinstance(s, SymmetricLaurent) and invert_variable(s) == s
    assert SymmetricLaurent(s.items()) == s


def test_rendering():
    p = LaurentPoly({2: F(3, 2), 0: F(-1, 2), -2: 1})
    assert str(p) == "3/2 z^2 - 1/2 + z^-2"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({1: -1})) == "-z"


def test_canonical_no_zero_coefficients():
    p = LaurentPoly({5: F(0), 1: F(2)})
    assert p.items() == [(1, F(2))]
    q = LaurentPoly({1: F(2)}) + LaurentPoly({1: F(-2)})
    assert q.items() == [] and q == LaurentPoly()


def test_hash_consistent_with_eq():
    p1 = LaurentPoly({1: F(1, 2), -1: F(1, 2)})
    p2 = x_embed([0, 1])
    assert p1 == p2 and hash(p1) == hash(p2)


# ---------------------------------------------------------------------------
# reference oracle: exponent -> Fraction dicts, the representation the core
# replaced, against which every operation of the core is checked
# ---------------------------------------------------------------------------


def _o(d):
    return {k: F(v) for k, v in d.items() if v}


def _o_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return _o(out)


def _o_scale(a, s):
    return _o({k: v * s for k, v in a.items()})


def _o_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return _o(out)


def _o_pow(a, n):
    out = {0: F(1)}
    for _ in range(n):
        out = _o_mul(out, a)
    return out


def _o_x_embed(coeffs):
    out = {}
    for k, c in enumerate(coeffs):
        out = _o_add(out, _o_scale(_o_pow({1: F(1, 2), -1: F(1, 2)}, k), F(c)))
    return out


def _o_str(a):
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


def _assert_matches(p, oracle, half=None):
    """p has the coefficients of the oracle, in canonical fields; a half
    (a SymmetricLaurent) also in a canonical half, and it is one exactly
    when `half` says so (None: either)."""
    assert p._c == oracle
    assert p.items() == sorted(oracle.items())
    assert (p == LaurentPoly()) == (not oracle)
    assert str(p) == _o_str(oracle)
    for k in range(-20, 21):
        assert p.coeff(k) == oracle.get(k, 0)
    for z0 in (F(2, 3), F(-5, 2)):
        assert p.eval_at(z0) == sum((v * z0 ** k for k, v in oracle.items()), F(0))
    lo, n, den = p._lo, p._n, p._den
    assert den > 0 and gcd(den, *n) == 1
    if oracle:
        assert n[0] and n[-1]
    else:
        assert (lo, n, den) == (0, (), 1)
    full = LaurentPoly(oracle)
    assert type(full) is LaurentPoly and (full._lo, full._n, full._den) == (lo, n, den)
    assert p == full and full == p and hash(p) == hash(full)
    if half is not None:
        assert isinstance(p, SymmetricLaurent) == half
    if isinstance(p, SymmetricLaurent):
        h = p._h
        assert (lo, n) == ((1 - len(h), h[:0:-1] + h) if h else (0, ()))
        assert not h or h[-1]


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
sparse = st.dictionaries(st.integers(min_value=-6, max_value=6), fracs, max_size=6)
nonzero = fracs.filter(lambda v: v != 0)
halves = st.lists(fracs, max_size=5)


def _o_sym(h):
    """Oracle of (h[0] + sum_k h[k] (z^k + z^-k))."""
    return _o({k: h[abs(k)] for k in range(1 - len(h), len(h))})


@given(sparse, sparse, fracs, nonzero, st.integers(min_value=0, max_value=3))
def test_ring_ops_match_oracle(a, b, s, d, n):
    p, q, oa, ob = LaurentPoly(a), LaurentPoly(b), _o(a), _o(b)
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


@given(sparse, nonzero)
def test_variable_maps_and_evaluation_match_oracle(a, z0):
    p, oa = LaurentPoly(a), _o(a)
    _assert_matches(invert_variable(p), {-k: v for k, v in oa.items()})
    _assert_matches(negate_variable(p), {k: -v if k % 2 else v for k, v in oa.items()})
    assert (invert_variable(p) == p) == all(oa.get(-k) == v for k, v in oa.items())
    assert SymmetricLaurent((p + invert_variable(p)).items()) == p + invert_variable(p)
    assert p.eval_at(z0) == sum((v * z0 ** k for k, v in oa.items()), F(0))


@given(st.lists(fracs, max_size=6))
def test_x_embed_matches_oracle(coeffs):
    _assert_matches(x_embed(coeffs), _o_x_embed(coeffs), half=True)


@given(st.lists(st.tuples(st.one_of(halves, sparse), st.one_of(fracs, st.integers(-3, 3))),
                max_size=8))
def test_linear_combination_matches_oracle(terms):
    # a list is a half, a dict a polynomial in the full layout
    polys = [SymmetricLaurent(_o_sym(a)) if isinstance(a, list) else LaurentPoly(a)
             for a, _ in terms]
    scalars = [s for _, s in terms]
    oracle, loop = {}, LaurentPoly()
    for (a, s), p in zip(terms, polys):
        oracle = _o_add(oracle, _o_scale(_o_sym(a) if isinstance(a, list) else _o(a), s))
        loop = loop + p * s
    out = linear_combination(polys, scalars)
    _assert_matches(out, oracle, half=all(isinstance(p, SymmetricLaurent)
                                          for p, s in zip(polys, scalars) if s))
    assert out == loop and hash(out) == hash(loop)


def test_linear_combination_edges():
    p = LaurentPoly({-1: F(1, 2), 2: 3})
    assert linear_combination([], []) == LaurentPoly()
    assert linear_combination([p, LaurentPoly()], [0, F(5, 7)]) == LaurentPoly()
    assert linear_combination([p, -p], [F(2, 3), F(2, 3)]) == LaurentPoly()
    assert linear_combination((p,), (2,)) == p + p
    with pytest.raises(ValueError):
        linear_combination([p, p], [1])


@given(sparse, sparse, sparse)
def test_canonical_form_does_not_depend_on_order(a, b, c):
    p, q, r = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    for left, right in (((p * q) * r, r * (q * p)), ((p + q) + r, r + (q + p)),
                        (p * (q + r), p * q + r * p)):
        assert left == right and hash(left) == hash(right)
    assert p + (-p) == LaurentPoly() and hash(p - p) == hash(LaurentPoly())
    assert LaurentPoly(reversed(list(a.items()))) == p


@pytest.mark.parametrize("build,message", [
    (lambda: SymmetricLaurent({1: F(2), -1: F(3)}), "1 / -1: 2 vs 3"),
    (lambda: SymmetricLaurent({-1: F(2), 1: F(3)}), "-1 / 1: 2 vs 3"),
    (lambda: SymmetricLaurent({2: F(1)}), "2 / -2: 1 vs 0"),
    (lambda: SymmetricLaurent(LaurentPoly({-3: F(-1, 2), 0: 5, 3: F(1, 2)}).items()),
     "-3 / 3: -1/2 vs 1/2"),
    (lambda: SymmetricLaurent(LaurentPoly({-2: F(7, 3), -1: 1, 1: 1}).items()),
     "-2 / 2: 7/3 vs 0"),
])
def test_symmetry_violation_message(build, message):
    message = f"coefficient mismatch at exponents {message}"
    with pytest.raises(SymmetryViolation, match=re.escape(message)) as err:
        build()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the half layout: symmetric operands stay halves, mixed ones take the full
# layout, and both give the oracle's coefficients
# ---------------------------------------------------------------------------


@given(halves, halves, sparse, fracs, st.integers(min_value=0, max_value=3))
def test_half_ring_ops_match_oracle(h, g, a, s, n):
    p, q, r = SymmetricLaurent(_o_sym(h)), SymmetricLaurent(_o_sym(g)), LaurentPoly(a)
    op, oq, orr = _o_sym(h), _o_sym(g), _o(a)
    _assert_matches(p, op, half=True)
    _assert_matches(p * q, _o_mul(op, oq), half=True)
    _assert_matches(p * r, _o_mul(op, orr), half=False)
    _assert_matches(r * p, _o_mul(orr, op), half=False)
    _assert_matches(p * s, _o_scale(op, s), half=True)
    _assert_matches(s * p, _o_scale(op, s), half=True)
    _assert_matches(p + q, _o_add(op, oq), half=True)
    _assert_matches(p - q, _o_add(op, _o_scale(oq, -1)), half=True)
    _assert_matches(p + r, _o_add(op, orr), half=False)
    _assert_matches(r - p, _o_add(orr, _o_scale(op, -1)), half=False)
    _assert_matches(p + s, _o_add(op, _o({0: s})), half=True)
    _assert_matches(s + p, _o_add(_o({0: s}), op), half=True)
    _assert_matches(p - s, _o_add(op, _o({0: -s})), half=True)
    _assert_matches(s - p, _o_add(_o({0: s}), _o_scale(op, -1)), half=True)
    _assert_matches(-p, _o_scale(op, -1), half=True)
    _assert_matches(p ** n, _o_pow(op, n), half=True)
    assert (p == q) == (op == oq) and (p == r) == (op == orr) and (r == p) == (orr == op)
    assert (p == s) == (op == _o({0: s}))


@given(halves, st.integers(min_value=-4, max_value=4))
def test_half_plus_an_integer_matches_the_linear_combination(h, c):
    p = SymmetricLaurent(_o_sym(h))
    oracle = _o_add(_o_sym(h), _o({0: c}))
    for total in (p + c, c + p):
        _assert_matches(total, oracle, half=True)
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
    total = SymmetricLaurent.from_half(h, den) + c
    assert type(total) is SymmetricLaurent and (total._h, total._den) == out


def test_half_equals_and_hashes_like_the_full_layout():
    s = SymmetricLaurent({-2: F(3, 4), 0: F(-1, 6), 2: F(3, 4)})
    p = LaurentPoly({-2: F(3, 4), 0: F(-1, 6), 2: F(3, 4)})
    assert s._h == (-2, 0, 9) and s._den == 12
    assert (s._lo, s._n, s._den) == (p._lo, p._n, p._den) == (-2, (9, 0, -2, 0, 9), 12)
    assert s == p and p == s and hash(s) == hash(p) and len({s, p}) == 1
    assert s != LaurentPoly({-2: F(3, 4), 0: F(-1, 6)}) and s != s + 1
    assert SymmetricLaurent() == LaurentPoly() == 0
    assert hash(SymmetricLaurent()) == hash(LaurentPoly())
    assert repr(s) == repr(p) and str(s) == str(p) == "3/4 z^2 - 1/6 + 3/4 z^-2"


def test_from_half_builds_the_canonical_half():
    # (2 - 4(z + 1/z)) / -6, with the sign moved to the numerators
    s = SymmetricLaurent.from_half((2, -4), -6)
    assert (s._h, s._den) == ((-1, 2), 3)
    assert s == LaurentPoly({-1: F(2, 3), 0: F(-1, 3), 1: F(2, 3)})
    assert SymmetricLaurent.from_half((0, 5, 0, 0), 10)._h == (0, 1)
    assert SymmetricLaurent.from_half((0, 0), 7) == SymmetricLaurent()


def test_halves_copy_and_pickle():
    for p in (x_embed([1, F(2, 3), 3]), SymmetricLaurent(), LaurentPoly({-1: 2, 3: F(1, 4)})):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is type(p) and twin == p and str(twin) == str(p)


def test_product_and_sum_are_single_methods_of_the_base_class():
    # the benchmark's span tracer wraps LaurentPoly.__mul__ and __add__ only
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        assert name not in vars(SymmetricLaurent)
