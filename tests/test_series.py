"""Exact-core tests: shifted factorials and terminating series."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from qaskey.errors import ParameterError, VanishingDenominator
from qaskey.series import (
    HyperSeriesSpec,
    first_qvanishing,
    hyper_sum,
    parse_rat,
    pochhammer,
    qhyper_sum,
    qpochhammer,
    qterm_ratios,
    terminating_hyper,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
small_naturals = st.integers(min_value=0, max_value=10)


def test_pochhammer_values():
    assert pochhammer(F(2), 3) == 24
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(F(-2), 4) == 0


def test_qpochhammer_values():
    assert qpochhammer(F(1, 2), F(1, 4), 2) == F(7, 16)
    assert qpochhammer(F(3), F(1, 2), 0) == 1
    # b = 1/q makes the second factor vanish
    assert qpochhammer(F(4), F(1, 4), 2) == 0


@given(rationals, small_naturals, small_naturals)
def test_pochhammer_splitting(b, j, k):
    assert pochhammer(b, j + k) == pochhammer(b, j) * pochhammer(b + j, k)


@given(rationals, small_naturals, small_naturals)
def test_qpochhammer_splitting(b, j, k):
    q = F(1, 3)
    assert qpochhammer(b, q, j + k) == qpochhammer(b, q, j) * qpochhammer(q ** j * b, q, k)


def test_terminating_hyper_basics():
    spec = HyperSeriesSpec(numerator=(-1, 2), denominator=(3,), argument=1, termination=1)
    assert terminating_hyper(spec) == F(1, 3)
    spec = HyperSeriesSpec(numerator=(0,), denominator=(), argument=F(7, 2), termination=0)
    assert terminating_hyper(spec) == 1


@pytest.mark.parametrize("n", [1, 2, 5])
def test_zero_numerator_parameter_kills_tail(n):
    # a Racah-type series with lattice argument 0: every k >= 1 term dies
    spec = HyperSeriesSpec(
        numerator=(-n, n + 2, 0, F(1, 2)),
        denominator=(F(3, 2), F(5, 2), F(7, 2)),
        argument=1,
        termination=n,
    )
    assert terminating_hyper(spec) == 1


def test_spec_requires_terminating_numerator():
    with pytest.raises(ParameterError):
        HyperSeriesSpec(numerator=(1, 2), denominator=(3,), argument=1, termination=1)
    with pytest.raises(ParameterError):
        HyperSeriesSpec(numerator=(F(1, 9),), denominator=(), argument=1, termination=2,
                        base=F(1, 2))


def test_spec_rejects_vanishing_denominator_with_index():
    with pytest.raises(VanishingDenominator) as err:
        HyperSeriesSpec(numerator=(-4,), denominator=(-2,), argument=1, termination=4)
    assert err.value.index == 3
    with pytest.raises(VanishingDenominator) as err:
        HyperSeriesSpec(numerator=(F(16),), denominator=(F(4),), argument=1, termination=2,
                        base=F(1, 4))
    assert err.value.index == 2


def test_negative_integer_denominator_is_fine_when_series_terminates_first():
    # denominator -N with N >= n never vanishes inside the summation range
    spec = HyperSeriesSpec(numerator=(-3, F(1, 2)), denominator=(-3,), argument=2, termination=3)
    value = terminating_hyper(spec)
    naive = sum(
        pochhammer(F(-3), k) * pochhammer(F(1, 2), k) / (pochhammer(F(-3), k) * factorial(k)) * 2 ** k
        for k in range(4)
    )
    assert value == naive


def _naive_ordinary(nums, dens, arg, n):
    total = F(0)
    for k in range(n + 1):
        term = F(1)
        for a in nums:
            term *= pochhammer(a, k)
        for b in dens:
            term /= pochhammer(b, k)
        total += term * arg ** k / factorial(k)
    return total


def _naive_q(nums, dens, qbase, arg, n):
    total = F(0)
    for k in range(n + 1):
        term = F(1)
        for a in nums:
            term *= qpochhammer(a, qbase, k)
        for b in dens:
            term /= qpochhammer(b, qbase, k)
        total += term * arg ** k / qpochhammer(qbase, qbase, k)
    return total


@st.composite
def ordinary_specs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    extra = draw(st.lists(rationals, max_size=2))
    dens = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        b = draw(rationals)
        # keep every factor b + k (k < n) away from zero
        if b.denominator == 1 and -n < b <= 0:
            b += F(1, 7)
        dens.append(b)
    arg = draw(rationals)
    return HyperSeriesSpec(numerator=tuple([-n] + extra), denominator=tuple(dens),
                           argument=arg, termination=n)


@settings(max_examples=200, deadline=None)
@given(ordinary_specs())
def test_incremental_matches_naive_ordinary(spec):
    assert terminating_hyper(spec) == _naive_ordinary(
        spec.numerator, spec.denominator, spec.argument, spec.termination
    )


@st.composite
def q_specs(draw):
    q = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 5), F(3, 4)]))
    n = draw(st.integers(min_value=0, max_value=8))
    extra = draw(st.lists(rationals, max_size=2))
    dens = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        b = draw(rationals)
        while any(q ** k * b == 1 for k in range(n)):
            b += F(1, 7)
        dens.append(b)
    arg = draw(rationals)
    return HyperSeriesSpec(numerator=tuple([q ** (-n)] + extra), denominator=tuple(dens),
                           argument=arg, termination=n, base=q)


@settings(max_examples=200, deadline=None)
@given(q_specs())
def test_incremental_matches_naive_q(spec):
    assert terminating_hyper(spec) == _naive_q(
        spec.numerator, spec.denominator, spec.base, spec.argument, spec.termination
    )


class _LoopRational(F):
    """Exact values that `qhyper_sum` sums by its term-ratio loop: only
    plain ints and Fractions take the integer path."""


def _loop_values(values):
    return tuple(_LoopRational(v) for v in values)


@st.composite
def random_q_specs(draw):
    q = draw(st.fractions(min_value=0, max_value=1, max_denominator=9).filter(lambda v: 0 < v < 1))
    n = draw(st.integers(min_value=0, max_value=8))
    extra = draw(st.lists(rationals, max_size=3))
    dens = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        b = draw(rationals)
        while any(q ** k * b == 1 for k in range(n)):
            b += F(1, 7)
        dens.append(b)
    arg = draw(rationals)
    return HyperSeriesSpec(numerator=tuple([q ** (-n)] + extra), denominator=tuple(dens),
                           argument=arg, termination=n, base=q)


@settings(max_examples=200, deadline=None)
@given(random_q_specs())
def test_integer_path_matches_naive_and_loop_q(spec):
    value = terminating_hyper(spec)
    assert type(value) is F
    assert value == _naive_q(spec.numerator, spec.denominator, spec.base, spec.argument,
                             spec.termination)
    loop = qhyper_sum(_loop_values(spec.numerator), _loop_values(spec.denominator),
                      _LoopRational(spec.base), _LoopRational(spec.argument), spec.termination)
    assert value == loop


def _outcome(fn, *args):
    """fn(*args) with its type, or the index and text of the
    VanishingDenominator it raises."""
    try:
        value = fn(*args)
    except VanishingDenominator as exc:
        return exc.index, str(exc)
    return type(value), value


@given(rationals, small_naturals)
def test_rational_pochhammer_matches_the_loop(b, k):
    value = pochhammer(b, k)
    assert type(value) is F
    assert value == pochhammer(_LoopRational(b), k)


def test_pochhammer_keeps_the_type_of_its_base():
    assert _outcome(pochhammer, 3, 4) == (int, 360)
    assert _outcome(pochhammer, -2, 3) == (int, 0)
    assert _outcome(pochhammer, 5, 0) == (int, 1)
    assert _outcome(pochhammer, F(3), 4) == (F, 360)
    assert _outcome(pochhammer, F(-1, 2), 0) == (F, 1)
    assert _outcome(pochhammer, 0.5, 3) == (float, 1.875)


@st.composite
def ordinary_sums(draw):
    """(nums, dens, arg, nterms) of `hyper_sum`, exact and with a Fraction
    among them: some terminate at a negative integer numerator, and some
    denominators are integers in (-nterms, 0], which vanish at their k."""
    nterms = draw(st.integers(min_value=1, max_value=8))
    ints = st.integers(min_value=-nterms, max_value=3)
    values = st.one_of(rationals, ints, ints.map(F))
    nums = draw(st.lists(values, max_size=3))
    dens = draw(st.lists(values, max_size=3))
    arg = draw(values)
    if not any(type(v) is F for v in (arg, *nums, *dens)):
        arg = F(arg)
    return nums, dens, arg, nterms


@settings(max_examples=300, deadline=None)
@given(ordinary_sums())
def test_integer_path_matches_the_loop_ordinary(case):
    nums, dens, arg, nterms = case
    got = _outcome(hyper_sum, nums, dens, arg, nterms)
    loop = _outcome(hyper_sum, _loop_values(nums), _loop_values(dens), _LoopRational(arg), nterms)
    assert got == loop
    if got[0] is F:
        assert got[1] == _naive_ordinary(nums, dens, arg, nterms)


def test_ordinary_sums_return_what_the_loop_returns():
    # all-int values give a float, one Fraction among them a Fraction, and
    # a sum of the first term alone the one of its argument's type
    assert _outcome(hyper_sum, (-2, 3), (4,), 1, 2) == (float, 0.09999999999999998)
    assert _outcome(hyper_sum, (-2, F(3)), (4,), 1, 2) == (F, F(1, 10))
    assert _outcome(hyper_sum, (-2, 3), (4,), F(1), 2) == (F, F(1, 10))
    assert _outcome(hyper_sum, (-2, F(3)), (4,), 1, 0) == (int, 1)
    assert _outcome(hyper_sum, (-2,), (), F(1, 2), 0) == (F, 1)
    assert _outcome(hyper_sum, (-2.0, 3.0), (4.0,), 1.0, 2) == (float, 0.09999999999999998)


def test_ordinary_integer_path_raises_where_the_loop_does():
    # (b)_k with b = -1 vanishes at k = 2, and past a zero term: the term
    # vanishes from k = 2 on while (-2)_k vanishes at k = 3
    for nums, dens, nterms, index in (((F(1, 2),), (-1,), 3, 2), ((-1, F(3)), (-2,), 4, 3)):
        got = _outcome(hyper_sum, nums, dens, F(1), nterms)
        assert got == (index, f"vanishing denominator at index {index}")
        assert got == _outcome(hyper_sum, _loop_values(nums), _loop_values(dens), F(1), nterms)
    assert _outcome(hyper_sum, (-1, F(3)), (-2,), F(1), 2) == (F, F(5, 2))


def _ordinary_scan_loop(dens, n):
    for b in dens:
        for k in range(n):
            if b + k == 0:
                raise VanishingDenominator(k + 1, f"(b)_k factor with b={b}")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(rationals, st.integers(-9, 2)), max_size=4), small_naturals)
def test_ordinary_spec_scan_matches_a_fraction_loop(dens, n):
    def build():
        return HyperSeriesSpec(numerator=(-n,), denominator=tuple(dens), argument=1, termination=n)

    expected = _outcome(_ordinary_scan_loop, [F(b) for b in dens], n)
    if expected[0] is type(None):  # the loop found no vanishing factor
        assert _outcome(build)[0] is HyperSeriesSpec
    else:
        assert _outcome(build) == expected


def test_integer_path_raises_as_the_loop_past_a_zero_term():
    # the term vanishes from k = 1 on, and (b; q)_k vanishes at k = 3
    q = F(1, 2)
    nums, dens = (q ** -1, F(3)), (q ** -2,)
    for values in (lambda v: v, _loop_values):
        with pytest.raises(VanishingDenominator) as err:
            qhyper_sum(values(nums), values(dens), q, F(1), 4)
        assert err.value.index == 3
    assert qhyper_sum(nums, dens, q, F(1), 2) == qhyper_sum(_loop_values(nums),
                                                            _loop_values(dens), q, F(1), 2)


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=9).filter(lambda v: 0 < v < 1)


@st.composite
def q_bases(draw, q, top):
    """Rationals and ints, some of them q^(-k) for a k near top, so that
    factors 1 - q^k b vanish in some draws."""
    near = st.integers(min_value=0, max_value=top + 1).map(lambda k: q ** -k)
    return draw(st.lists(st.one_of(rationals, st.integers(-3, 3), near), max_size=4))


def _ratio_outcome(ratios):
    """The Fractions of the term ratios, or the index and text of the
    VanishingDenominator raised on the way."""
    out = []
    try:
        for ratio in ratios:
            out.append(ratio if isinstance(ratio, F) else F(*ratio))
    except VanishingDenominator as exc:
        return out, exc.index, str(exc)
    return out, None, None


def _qterm_ratios_loop(nums, dens, q, arg, nterms, detail):
    """t_(k+1)/t_k in Fractions, one factor at a time."""
    qk = F(1)
    for k in range(nterms):
        up = F(arg)
        for a in nums:
            up *= 1 - qk * a
        down = 1 - qk * q
        for b in dens:
            down *= 1 - qk * b
        if down == 0:
            raise VanishingDenominator(k + 1, detail)
        yield up / down
        qk *= q


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ratio_kernel_matches_a_fraction_loop(data):
    q = data.draw(unit_rationals)
    nterms = data.draw(st.integers(min_value=0, max_value=8))
    nums, dens = data.draw(q_bases(q, nterms)), data.draw(q_bases(q, nterms))
    arg = data.draw(rationals)
    detail = data.draw(st.sampled_from(["", "some detail"]))
    assert _ratio_outcome(qterm_ratios(nums, dens, q, arg, nterms, detail)) == _ratio_outcome(
        _qterm_ratios_loop(nums, dens, q, arg, nterms, detail))


def test_ratio_kernel_is_lazy():
    # the ratio at k = 1 is zero, and the denominator at k = 2 vanishes
    q = F(1, 2)
    ratios = qterm_ratios((q ** -1,), (q ** -2,), q, F(1), 4, "detail")
    assert next(ratios)[0] != 0
    assert next(ratios)[0] == 0
    with pytest.raises(VanishingDenominator) as err:
        next(ratios)
    assert str(err.value) == "vanishing denominator at index 3 (detail)"


def _first_qvanishing_loop(bases, q, top):
    qk = F(1)
    for k in range(top):
        for b in bases:
            if qk * b == 1:
                return k, b
        qk *= q
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vanishing_scan_matches_a_fraction_loop(data):
    q = data.draw(unit_rationals)
    top = data.draw(st.integers(min_value=0, max_value=8))
    bases = data.draw(q_bases(q, top))
    assert first_qvanishing(bases, q, top) == _first_qvanishing_loop(bases, q, top)


def _qpochhammer_loop(b, qbase, k):
    out = qbase - qbase + 1
    qpow = out
    for _ in range(k):
        out *= 1 - qpow * b
        qpow *= qbase
    return out


@given(rationals, st.fractions(min_value=-2, max_value=2, max_denominator=9), small_naturals)
def test_rational_qpochhammer_matches_reference_loop(b, qbase, k):
    value = qpochhammer(b, qbase, k)
    assert type(value) is F
    assert value == _qpochhammer_loop(b, qbase, k)
    assert qpochhammer(b.numerator, qbase, k) == _qpochhammer_loop(b.numerator, qbase, k)


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-1, max_value=1),
       st.floats(min_value=-1, max_value=1), small_naturals)
def test_float_and_complex_qpochhammer_are_bit_identical_to_the_loop(b, qbase, im, k):
    assert qpochhammer(b, qbase, k) == _qpochhammer_loop(b, qbase, k)
    bz, qz = complex(b, im), complex(qbase, -im)
    assert qpochhammer(bz, qz, k) == _qpochhammer_loop(bz, qz, k)
    assert qpochhammer(bz, qbase, k) == _qpochhammer_loop(bz, qbase, k)


@pytest.mark.parametrize("spec,index,message", [
    (dict(numerator=(-4,), denominator=(-2,), argument=1, termination=4),
     3, "vanishing denominator at index 3 ((b)_k factor with b=-2)"),
    # the first vanishing b in order, not the one that vanishes first in k
    (dict(numerator=(-4,), denominator=(F(1, 2), -2, -1), argument=1, termination=4),
     3, "vanishing denominator at index 3 ((b)_k factor with b=-2)"),
    (dict(numerator=(F(16),), denominator=(F(4),), argument=1, termination=2, base=F(1, 4)),
     2, "vanishing denominator at index 2 ((b; q)_k factor with b=4)"),
    # the first k at which any b vanishes, then the first such b in order
    (dict(numerator=(F(64),), denominator=(F(16), F(1, 3), F(4)), argument=1, termination=3,
          base=F(1, 4)),
     2, "vanishing denominator at index 2 ((b; q)_k factor with b=4)"),
])
def test_spec_vanishing_denominator_index_and_message(spec, index, message):
    with pytest.raises(VanishingDenominator) as err:
        HyperSeriesSpec(**spec)
    assert err.value.index == index
    assert str(err.value) == message


@given(ordinary_specs())
def test_results_are_canonical(spec):
    value = terminating_hyper(spec)
    assert value.denominator > 0
    from math import gcd

    assert gcd(value.numerator, value.denominator) == 1


def test_rational_text_round_trip():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-7") == F(-7)
    for value in (F(3, 4), F(5), F(-7, 2)):
        assert parse_rat(str(value)) == value
    with pytest.raises(ParameterError):
        parse_rat("x/y")
    with pytest.raises(ParameterError):
        parse_rat("1/0")
