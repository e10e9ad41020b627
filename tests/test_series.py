"""Exact-core tests: shifted factorials and terminating series."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from qaskey.errors import ParameterError, VanishingDenominator
from qaskey.series import (
    HyperSeriesSpec,
    format_rat,
    parse_rat,
    pochhammer,
    qpochhammer,
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


@given(ordinary_specs())
def test_results_are_canonical(spec):
    value = terminating_hyper(spec)
    assert value.denominator > 0
    from math import gcd

    assert gcd(value.numerator, value.denominator) == 1


def test_rational_text_round_trip():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-7") == F(-7)
    assert format_rat(F(3, 4)) == "3/4"
    assert format_rat(F(5, 1)) == "5"
    with pytest.raises(ParameterError):
        parse_rat("x/y")
    with pytest.raises(ParameterError):
        parse_rat("1/0")
