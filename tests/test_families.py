"""Family evaluators: values, weights, norms, dualities, cross-checks."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qaskey.cli import _text
from qaskey.errors import ParameterError, QAskeyError, VanishingDenominator
from qaskey.families import (
    AWParams,
    HahnParams,
    JacobiParams,
    KrawtchoukParams,
    QParams,
    QRacahParams,
    RacahParams,
    WilsonParams,
    askey_wilson_r,
    askey_wilson_r_at,
    cqu_aw_params,
    cqu_duality_point,
    cqu_r,
    cqu_r_alt,
    dual_hahn,
    hahn,
    hahn_weight,
    jacobi_r,
    krawtchouk,
    krawtchouk_weight,
    qracah,
    qracah_norms,
    qracah_weight,
    racah,
    racah_h0,
    racah_norms,
    racah_phi,
    racah_weight,
    ultraspherical_coeffs,
    ultraspherical_r,
    wilson_dual_params,
    wilson_dual_phi,
)
from qaskey.identities import (
    DEFAULT_QPARAMS, check_dual_addition_q_inversion, linearization_qracah_params,
)
from closed_forms import (
    cqu_leading_z_coeff, invert_variable, laurent_phi_terms, negate_variable, qracah_at_top,
    qracah_norm_per_n, qracah_norm_ratio_per_n, qracah_phi, qracah_weight_per_x,
    racah_norm_per_n, racah_weight_per_x, terms, ultraspherical_coeffs_per_k,
)

QP = QParams(F(1, 2), F(2, 3))


def test_qparams_accessors_and_validation():
    qp = QParams(F(1, 2), F(2, 3))
    assert qp.q == F(1, 16) and qp.qhalf == F(1, 4)
    assert qp.beta == F(4, 9) and qp.a == F(1, 3)
    assert qp.beta_shift(1) == QParams(F(1, 2), F(1, 6))
    with pytest.raises(ParameterError):
        QParams(F(3, 2), F(1))
    with pytest.raises(ParameterError):
        QParams(F(1, 2), F(-1))
    with pytest.raises(ParameterError):
        QParams(F(1, 2), F(5, 2))  # s*t >= 1


def test_cached_powers_leave_equality_hash_and_text_alone():
    qp = QParams(F(1, 2), F(2, 3))
    qrp = linearization_qracah_params(qp, 3, 2)
    assert (qp.q, qp.qhalf, qp.beta, qrp.gamma) == (F(1, 16), F(1, 4), F(4, 9), F(16) ** 3)
    assert qp.q is qp.q and qrp.gamma is qrp.gamma
    fresh = QParams(F(1, 2), F(2, 3))
    assert qp == fresh and hash(qp) == hash(fresh)
    fresh_qrp = QRacahParams(qrp.alpha, qrp.beta, qrp.delta, 2, fresh)
    assert qrp == fresh_qrp and hash(qrp) == hash(fresh_qrp)
    assert _text(qp) == "t=1/2,s=2/3"
    assert _text(qrp) == f"alpha={qrp.alpha},beta={qrp.beta},delta={qrp.delta},N=2,qp=t=1/2,s=2/3"


def test_a_carrier_hashes_its_fractions_once(monkeypatch):
    qp = QParams(F(1, 2), F(2, 3))
    calls, fraction_hash = [], F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or fraction_hash(self))
    hashes = {hash(qp) for _ in range(5)}
    assert calls == [qp.t, qp.s] and hashes == {hash((qp.t, qp.s))}


def test_equal_carriers_hash_equal_and_share_one_cache_entry():
    # a carrier, one built afresh, its beta_shift(0), and a promoted record
    # of another carrier: t = 1/2, s = (1/2)^2 * 4/3 = 1/3
    qp = QParams(F(1, 2), F(1, 3))
    records = (qp, QParams(F(2, 4), F(3, 9)), qp.beta_shift(0), QParams(F(1, 2), F(4, 3)).beta_shift(1))
    assert all(r == qp for r in records) and {hash(r) for r in records} == {hash(qp)}
    cqu_r.cache_clear()
    values = [cqu_r(3, r) for r in records]
    info = cqu_r.cache_info()
    assert (info.misses, info.hits) == (1, 3) and all(v is values[0] for v in values)


def test_one_promoted_record_per_carrier_and_k():
    # equal carriers, however built, read one record per k
    qp, fresh = QParams(F(2, 3), F(1, 2)), QParams(F(2, 3), F(1, 2))
    for k in range(4):
        assert qp.beta_shift(k) is fresh.beta_shift(k) == QParams(qp.t, qp.t ** (2 * k) * qp.s)


POWER_CARRIERS = (QParams(F(1, 2), F(2, 3)), QParams(F(3, 5), F(1, 2)), QParams(F(9, 10), F(1)),
                  QParams(F(2, 7), F(5, 3)))


@pytest.mark.parametrize("qp", POWER_CARRIERS)
def test_carrier_power_tables_equal_direct_powers(qp):
    # twice over: once filling the tables, once reading them
    t, s = qp.t, qp.s
    for _ in range(2):
        for e in range(-40, 41):
            assert qp.q_power(e) == qp.q ** e
            tn, td = (t.numerator, t.denominator) if e >= 0 else (t.denominator, t.numerator)
            sn, sd = (s.numerator, s.denominator) if e >= 0 else (s.denominator, s.numerator)
            assert qp.ts_power(e, 0) == (tn ** abs(e), td ** abs(e))
            assert qp.ts_power(0, e) == (sn ** abs(e), sd ** abs(e))
            for f in (-7, -1, 0, 3):
                n, d = qp.ts_power(e, f)
                assert F(n, d) == t ** e * s ** f


@pytest.mark.parametrize("qp", POWER_CARRIERS[:3])
def test_a_record_on_a_filled_carrier_equals_one_on_a_fresh_carrier(qp):
    from qaskey import identities as ids

    for e in range(-40, 41):
        qp.q_power(e), qp.ts_power(e, e)
    for l, m in ((3, 0), (4, 2), (6, 5)):
        fresh = QParams(qp.t, qp.s)  # equal, with empty tables
        assert fresh == qp and fresh is not qp and "_q_powers" not in vars(fresh)
        records = []
        for carrier in (qp, fresh):
            alpha = carrier.beta / carrier.qhalf
            rec = QRacahParams(alpha, alpha, 1 / (carrier.beta * carrier.qhalf * carrier.q ** l), m, carrier)
            try:
                values = [qracah(n, x, rec) for n in range(m + 1) for x in range(m + 1)]
            except VanishingDenominator as exc:  # s = 1: the same error on both
                values = str(exc)
            records.append((rec.gamma, rec._q_neg, rec._ab_q, rec._gd_q, rec._weights,
                            rec._norm_ratios, values, ids._dual_addition_scalars(carrier, l, m),
                            ids._closed_projection_prefactors(carrier, l, m),
                            ids._linearization_coeffs_q(carrier, l, m),
                            ids._addition_coeffs_q(m, carrier, F(2), F(3))))
        assert records[0] == records[1]


def test_jacobi_normalization():
    for n in range(7):
        assert jacobi_r(n, JacobiParams(F(1, 2), F(1, 3)), F(1)) == 1
    assert jacobi_r(0, JacobiParams(2, 3), F(-5, 7)) == 1
    x = F(2, 9)
    assert jacobi_r(1, JacobiParams(0, 0), x) == x


def test_ultraspherical_values_and_coeffs():
    assert ultraspherical_coeffs(2, F(0)) == (F(-1, 2), F(0), F(3, 2))
    assert ultraspherical_r(2, F(0), F(1, 2)) == F(-1, 8)
    for n in range(7):
        assert ultraspherical_r(n, F(1, 4), F(1)) == 1
    # parity, brute force on both sides
    for n in range(7):
        for x in (F(1, 3), F(-2, 7), F(4, 5)):
            assert ultraspherical_r(n, F(1, 2), -x) == F(-1) ** n * ultraspherical_r(n, F(1, 2), x)


@given(st.integers(min_value=0, max_value=6),
       st.fractions(min_value=-1, max_value=1, max_denominator=9))
def test_ultraspherical_coeffs_match_values(n, x):
    alpha = F(1, 3)
    poly_value = sum(c * x ** k for k, c in enumerate(ultraspherical_coeffs(n, alpha)))
    assert poly_value == ultraspherical_r(n, alpha, x)


# alpha in (-1, 3]: below -1/2, at -1/2 (where the (2 alpha + 1)_k of the
# classical linearization vanish), near -1 and past 1
ALPHAS = st.one_of(st.sampled_from([F(-3, 4), F(-1, 2), F(7, 3), F(3), F(-99, 100)]),
                   st.fractions(min_value=F(-1), max_value=3, max_denominator=12)
                   .filter(lambda a: a > -1))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12), ALPHAS)
def test_ultraspherical_coeffs_match_the_per_k_oracle(n, alpha):
    got = ultraspherical_coeffs(n, alpha)
    assert got == ultraspherical_coeffs_per_k(n, alpha)
    assert all(type(c) is F for c in got)


def test_krawtchouk_values():
    kp = KrawtchoukParams(F(1, 2), 2)
    assert krawtchouk(0, 2, kp) == 1
    assert krawtchouk(1, 1, kp) == 0
    kp3 = KrawtchoukParams(F(1, 3), 3)
    assert krawtchouk(1, 2, kp3) == -1
    assert krawtchouk(2, 1, kp3) == -1
    assert sum(krawtchouk_weight(x, kp3) for x in range(4)) == 1


def test_hahn_and_dual_hahn():
    hp = HahnParams(F(0), F(0), 2)
    assert hahn(0, 1, hp) == 1
    assert hahn(2, 0, hp) == 1
    assert hahn(1, 1, hp) == 0
    hp4 = HahnParams(F(1, 2), F(1, 3), 4)
    for n in range(5):
        for x in range(5):
            assert dual_hahn(n, x, hp4) == hahn(x, n, hp4)


def test_racah_values_and_duality():
    rp = RacahParams(F(1, 2), F(1, 3), 3, F(1, 5))
    for n in range(4):
        assert racah(n, 0, rp) == 1
        assert racah(0, n, rp) == 1
    for n in range(4):
        for x in range(4):
            assert racah(n, x, rp) == racah_phi(x, n, rp.gamma, rp.delta, rp.alpha, rp.beta)


def test_racah_weights_and_norms():
    rp = RacahParams(F(0), F(0), 3, F(-5))  # positive-weight lattice
    assert racah_weight(0, rp) == 1
    assert sum(racah_weight(x, rp) for x in range(4)) == racah_h0(rp)
    assert racah_norms(0, rp) == racah_h0(rp)
    for params in [RacahParams(F(1, 2), F(1, 2), 3, F(-6)),
                   RacahParams(F(3, 2), F(3, 2), 3, F(-7)),
                   RacahParams(F(1), F(1), 3, F(-13, 2))]:
        assert sum(racah_weight(x, params) for x in range(4)) == racah_h0(params)


def test_wilson_duality():
    wp = WilsonParams(F(1), F(3, 2), F(2), F(5, 2))
    assert wilson_dual_phi(0, 3, wp) == 1
    assert wilson_dual_phi(3, 0, wp) == 1
    wpd = wilson_dual_params(wp)
    assert wpd.a == F(3)
    for n in range(5):
        for m in range(5):
            assert wilson_dual_phi(n, m, wp) == wilson_dual_phi(m, n, wpd)


def test_askey_wilson_basic():
    awp = AWParams(F(1, 3), F(1, 12), F(-1, 3), F(-1, 12), F(1, 16))
    assert askey_wilson_r(0, awp) == askey_wilson_r_at(0, awp, F(7, 5)) == 1
    for n in range(7):
        poly = askey_wilson_r(n, awp)
        assert poly.eval_at(awp.a) == 1  # value 1 at z = a
        assert invert_variable(poly) == terms(poly)
        assert max(terms(poly)) == n and poly.coeff(n) != 0
        assert poly.eval_at(F(7, 5)) == askey_wilson_r_at(n, awp, F(7, 5))
    with pytest.raises(ParameterError):
        AWParams(F(2), F(1, 2), F(1, 3), F(1, 5), F(1, 4))  # ab = 1


def test_cqu_representations_agree():
    for qp in (QP, QParams(F(2, 3), F(1, 2)), QParams(F(1, 2), F(1, 3))):
        for n in range(9):
            assert cqu_r(n, qp) == cqu_r_alt(n, qp)


def test_cqu_special_value_and_leading_coefficient():
    for n in range(9):
        assert cqu_r(n, QP).eval_at(QP.a) == 1
        assert cqu_r(n, QP).coeff(n) == cqu_leading_z_coeff(n, QP)


def test_cqu_parity():
    for n in range(9):
        poly = cqu_r(n, QP)
        assert negate_variable(poly) == terms(poly * F(-1) ** n)


def test_cqu_duality_points():
    for m in range(7):
        for n in range(7):
            zm, zn = cqu_duality_point(m, QP), cqu_duality_point(n, QP)
            assert cqu_r(n, QP).eval_at(zm) == cqu_r(m, QP).eval_at(zn)
    assert cqu_duality_point(2, QP) == QP.t ** (-5) / QP.s


def test_cqu_is_the_alternative_parameter_specialization():
    # same quadruple in both parameterizations: (a, q^(1/2)a, -a, -q^(1/2)a)
    awp = cqu_aw_params(QP)
    assert (awp.a, awp.b, awp.c, awp.d) == (QP.a, QP.qhalf * QP.a, -QP.a, -QP.qhalf * QP.a)
    for n in range(5):
        assert cqu_r(n, QP).eval_at(F(9, 4)) == askey_wilson_r_at(n, awp, F(9, 4))


def test_qracah_values():
    qrp = linearization_qracah_params(QP, 3, 2)
    for n in range(3):
        assert qracah(n, 0, qrp) == 1
        assert qracah(0, n, qrp) == 1
        assert qracah(n, qrp.N, qrp) == qracah_at_top(n, qrp)


def test_qracah_weights_and_norms():
    for (l, m) in [(3, 2), (4, 3)]:
        qrp = linearization_qracah_params(QP, l, m)
        assert qracah_weight(0, qrp) == 1
        assert sum(qracah_weight(x, qrp) for x in range(m + 1)) == qrp.h0
        assert qracah_norms(0, qrp) == qrp.h0


@pytest.mark.parametrize("qp", DEFAULT_QPARAMS)
def test_qracah_weight_matches_the_scanning_formula(qp):
    qrp = linearization_qracah_params(qp, 9, 9)
    for x in range(qrp.N + 1):
        args = (x, qrp.alpha, qrp.beta, qrp.gamma, qrp.delta, qp.q)
        assert qracah_weight(x, qrp) == qracah_weight_per_x(*args)


def _outcome(fn, *args):
    """fn(*args), or the class, index and text of the package error it raises."""
    try:
        return fn(*args)
    except QAskeyError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


def _table_cases():
    """The lattices of the default carriers and of beta = 1 for l <= 7, and
    two records with alpha = q^(-3), whose (alpha q; q)_k factor vanishes
    at k = 2, so that only the entry (3, 3) passes it."""
    for qp in (*DEFAULT_QPARAMS, QParams(F(1, 2), F(1))):
        for l in range(1, 8):
            for m in range(1, l + 1):
                yield linearization_qracah_params(qp, l, m)
    for beta in (F(16, 9), F(1)):
        yield QRacahParams(QP.q ** -3, beta, F(7, 3), 3, QP)


def _assert_integer_tables_match_the_per_entry_formulas(qrp):
    """The weight and norm-ratio tables, the norms and the weights of a
    record against their per-entry Fraction formulas, raising included."""
    a, b, g, d, q = qrp.alpha, qrp.beta, qrp.gamma, qrp.delta, qrp.qp.q
    for n in range(qrp.N + 1):
        num, den = qrp._norm_ratios[n]
        ratio = _outcome(qracah_norm_ratio_per_n, n, qrp)
        assert (F(num, den) if den else den) == (ratio if not isinstance(ratio, tuple) else 0)
        assert _outcome(qracah_norms, n, qrp) == _outcome(qracah_norm_per_n, n, qrp)
        assert qracah_weight(n, qrp) == qracah_weight_per_x(n, a, b, g, d, q)
        assert type(qrp._weights[n]) is F


def test_qracah_tables_match_the_per_entry_formulas():
    raised = []
    for qrp in _table_cases():
        _assert_integer_tables_match_the_per_entry_formulas(qrp)
        a, b, g, d, q = qrp.alpha, qrp.beta, qrp.gamma, qrp.delta, qrp.qp.q
        for n in range(qrp.N + 1):
            for x in range(qrp.N + 1):
                got = _outcome(qracah, n, x, qrp)
                assert got == _outcome(qracah_phi, n, x, a, b, g, d, q), (qrp, n, x)
                if isinstance(got, tuple):
                    raised.append((qrp.N, n, x, got[1]))
    assert raised == [(3, 3, 3, 3)] * 2


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=F(1, 5), max_value=F(19, 20), max_denominator=20),
       st.fractions(min_value=F(1, 5), max_value=F(3, 2), max_denominator=20),
       st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
def test_integer_tables_match_the_per_entry_formulas_random_carriers(t, s, l_, m_):
    # linearization lattices of random admissible (t, s), beta = 1 and
    # s t close to 1 included
    if not s * t < 1:
        s = (1 - 1 / F(s.denominator + 1)) / t
    qrp = linearization_qracah_params(QParams(t, s), max(l_, m_), min(l_, m_))
    _assert_integer_tables_match_the_per_entry_formulas(qrp)


@pytest.mark.parametrize("l,m", [(1, 1), (4, 3), (6, 0)])
def test_beta_one_norm_at_zero_raises_before_h0_is_read(l, m):
    # beta = 1: alpha beta q = 1, so 1 - alpha beta q^(2n+1) vanishes at n = 0
    qrp = linearization_qracah_params(QParams(F(1, 2), F(1)), l, m)
    with pytest.raises(VanishingDenominator) as err:
        qracah_norms(0, qrp)
    assert (err.value.index, str(err.value)) == (
        0, "vanishing denominator at index 0 (q-Racah norm-ratio denominator vanishes)")
    assert "h0" not in vars(qrp)


@pytest.mark.parametrize("N", [1, 3, 6])
def test_racah_weight_scan_matches_the_one_factor_at_a_time_formula(N):
    # integer and half-integer parameters: the factors (base)_x of the
    # weight denominator vanish for some x, and gamma + delta + 1 for some delta
    values = [F(v, 2) for v in range(-13, 5)]
    outcomes = set()
    for alpha in values[::3]:
        for beta in values[1::4]:
            for delta in values[::2]:
                rp = RacahParams(alpha, beta, N, delta)
                for x in range(N + 1):
                    got = _outcome(racah_weight, x, rp)
                    assert got == _outcome(racah_weight_per_x, x, rp), (rp, x)
                    outcomes.add(got[:2] if isinstance(got, tuple) else F)
    # values, and errors at every index the lattice allows
    assert outcomes == {F} | {(VanishingDenominator, i) for i in range(N)}


@pytest.mark.parametrize("N", [1, 3, 6])
def test_racah_norms_match_the_per_n_formula(N):
    # the parameter grid of the weight scan: the norm-ratio denominator
    # vanishes at some n, and the h_0 denominator for some records
    values = [F(v, 2) for v in range(-13, 5)]
    raised = set()
    for alpha in values[::3]:
        for beta in values[1::4]:
            for delta in values[::2]:
                rp = RacahParams(alpha, beta, N, delta)
                for n in range(N + 1):
                    got = _outcome(racah_norms, n, rp)
                    assert got == _outcome(racah_norm_per_n, n, rp), (rp, n)
                    if isinstance(got, tuple):
                        raised.add(got[2].split("(")[-1])
    assert raised == {"Racah norm-ratio denominator vanishes)", "Racah h_0 denominator vanishes)"}
    # alpha = -1, beta = 0: 1 + alpha + beta + 2n vanishes at n = 0, (alpha + 1)_n from n = 1 on
    rp = RacahParams(F(-1), F(0), 3, F(-5))
    for n in range(4):
        assert _outcome(racah_norms, n, rp) == (
            VanishingDenominator, n,
            f"vanishing denominator at index {n} (Racah norm-ratio denominator vanishes)")


# Racah parameters: half-integers, which hit every vanishing factor of the
# weights, of the norm ratios and of h_0, and rationals that hit none
RACAH_VALUES = st.one_of(st.sampled_from([F(v, 2) for v in range(-13, 5)]),
                         st.fractions(min_value=-7, max_value=3, max_denominator=7))


@settings(max_examples=150, deadline=None)
@given(RACAH_VALUES, RACAH_VALUES, RACAH_VALUES, st.integers(min_value=0, max_value=6))
def test_racah_tables_match_the_per_entry_formulas(alpha, beta, delta, N):
    # each entry of the weight and norm tables against the formula at its
    # own index, raising included: class, index and text
    rp = RacahParams(alpha, beta, N, delta)
    for x in range(N + 1):
        assert _outcome(racah_weight, x, rp) == _outcome(racah_weight_per_x, x, rp)
        assert _outcome(racah_norms, x, rp) == _outcome(racah_norm_per_n, x, rp)


def test_free_parameter_weights_match_the_per_x_formula():
    # the shifted record of the backward-shift identity on 0..N-1, whose
    # weight is 0 one step past its lattice, and a record whose delta q = 1
    # raises at construction as the weight does from x = 1 on
    for qrp in _table_cases():
        a, b, g, d, q, N = qrp.alpha, qrp.beta, qrp.gamma, qrp.delta, qrp.qp.q, qrp.N
        shifted = QRacahParams(q * a, q * b, d, N - 1, qrp.qp)
        assert shifted.gamma == q * g
        for x in range(N):
            assert qracah_weight(x, shifted) == qracah_weight_per_x(x, q * a, q * b, q * g, d, q)
        assert qracah_weight_per_x(N, q * a, q * b, q * g, d, q) == 0
        assert _outcome(QRacahParams, a, b, 1 / q, N, qrp.qp) == \
            _outcome(qracah_weight_per_x, N, a, b, g, 1 / q, q)


@pytest.mark.parametrize("qp", (*DEFAULT_QPARAMS, QParams(F(1, 2), F(1))))
def test_one_point_records_have_unit_weight_value_and_mass(qp):
    qrp = QRacahParams(F(16, 9), F(16, 9), F(7, 3), 0, qp)
    assert qracah_weight(0, qrp) == qracah(0, 0, qrp) == qrp.h0 == qracah_norms(0, qrp) == 1
    # the m = 0 linearization lattice: the inversion row divides by a norm
    # of 1 where beta = 1 makes the record's ratio (1 - alpha beta q)/(1 - alpha beta q) 0/0
    qrp = linearization_qracah_params(qp, 3, 0)
    assert qrp.N == 0 and qracah_weight(0, qrp) == qracah(0, 0, qrp) == qrp.h0 == 1
    assert check_dual_addition_q_inversion(qp, 3, 0).passed
    rp = RacahParams(F(1, 2), F(1, 3), 0, F(1, 5))
    assert racah_weight(0, rp) == racah(0, 0, rp) == racah_h0(rp) == racah_norms(0, rp) == 1
    with pytest.raises(ParameterError, match="q-Racah N must be >= 0"):
        QRacahParams(F(16, 9), F(16, 9), F(7, 3), -1, qp)
    with pytest.raises(ParameterError, match="Racah N must be >= 0"):
        RacahParams(F(1, 2), F(1, 3), -1, F(1, 5))


@pytest.mark.parametrize("N", range(1, 6))
@pytest.mark.parametrize("qp", DEFAULT_QPARAMS)
def test_records_with_a_vanishing_h0_denominator_are_rejected(qp, N):
    # (q alpha/delta; q)_N or (q beta; q)_N vanishes iff alpha/delta or beta
    # is q^(-j) with 1 <= j <= N: construction rejects every such record
    q = qp.q
    for j in range(1, N + 1):
        for free in (F(2, 3), F(-5, 7), F(7, 3)):
            for alpha, beta, delta in ((free * q ** -j, F(16, 9), free), (free, q ** -j, F(16, 9))):
                with pytest.raises(VanishingDenominator):
                    QRacahParams(alpha, beta, delta, N, qp)


@pytest.mark.parametrize("beta,raising", [(F(16, 9), {3}), (F(1), {1, 3})])
def test_qracah_norm_errors_are_per_n(beta, raising):
    # alpha = q^(-3): (q alpha; q)_n vanishes from n = 3 on; with beta = 1,
    # 1 - alpha beta q^(2n+1) vanishes at n = 1 alone
    qrp = QRacahParams(QP.q ** -3, beta, F(7, 3), 3, QP)
    for n in range(qrp.N + 1):
        if n in raising:
            with pytest.raises(VanishingDenominator) as err:
                qracah_norms(n, qrp)
            assert err.value.index == n
        else:
            assert qracah_norms(n, qrp) == qracah_norm_per_n(n, qrp)


def _cqu_alt_terms(n, qp):
    t, s = qp.t, qp.s
    return laurent_phi_terms((t ** (-2 * n), t ** (2 * n + 2) * s ** 2),
                             (-(t ** 2) * s ** 2, t ** 2 * s, -(t ** 2) * s),
                             t * s, t ** 2, t ** 2, n)


def _aw_terms(n, awp):
    a, b, c, d, q = awp.a, awp.b, awp.c, awp.d, awp.qbase
    return laurent_phi_terms((q ** (-n), q ** (n - 1) * a * b * c * d), (a * b, a * c, a * d),
                             a, q, q, n)


@pytest.mark.parametrize("shift", [0, 3])
@pytest.mark.parametrize("qp", DEFAULT_QPARAMS)
def test_horner_builder_matches_the_term_by_term_sum(qp, shift):
    qp = qp.beta_shift(shift)
    awp = cqu_aw_params(qp)
    for n in range(13):
        expected = _aw_terms(n, awp)
        assert terms(askey_wilson_r(n, awp)) == expected
        assert terms(cqu_r(n, qp)) == expected
        assert terms(cqu_r_alt(n, qp)) == _cqu_alt_terms(n, qp) == expected


def test_horner_builder_stops_and_raises_where_the_term_by_term_sum_does():
    # ab = 1/q: (ab; q)_k vanishes at k = 1, so the series raises at index 2
    q = F(1, 4)
    awp = AWParams(F(1, 2), 2 / q, F(1, 3), F(1, 5), q)
    got = _outcome(askey_wilson_r, 4, awp)
    assert got == _outcome(_aw_terms, 4, awp)
    assert got == (VanishingDenominator, 2,
                   "vanishing denominator at index 2 (Laurent q-series denominator)")
    # q^(n-1) abcd q = 1: the term k = 2 vanishes before (ab; q)_2 = 0 is reached
    awp = AWParams(F(2), F(2), F(2), F(2), F(1, 2))
    poly = askey_wilson_r(4, awp)
    assert terms(poly) == _aw_terms(4, awp)
    assert max(terms(poly)) == 1


def test_qracah_matches_askey_wilson_on_the_lattice():
    # the q-quadratic substitution carries the discrete family into the
    # continuous one: A^2 = q*gamma*delta, z_x = q^(-x)/A
    for (l, m) in [(3, 2), (4, 3)]:
        qrp = linearization_qracah_params(QP, l, m)
        q = QP.q
        A = 1 / QP.s / QP.t ** (2 * (l + m) + 1)
        awp = AWParams(A, q * qrp.alpha / A, q * qrp.beta * qrp.delta / A,
                       q * qrp.gamma / A, q)
        for n in range(min(4, m) + 1):
            for x in range(m + 1):
                zx = q ** (-x) / A
                assert qracah(n, x, qrp) == askey_wilson_r_at(n, awp, zx)


def test_qracah_admissibility_validation():
    # delta q = 1 makes a weight denominator factor vanish at x = 1
    with pytest.raises(VanishingDenominator) as err:
        QRacahParams(F(1, 2), F(1, 2), 1 / QP.q, 2, QP)
    assert err.value.index == 1


def test_hahn_weight_positive():
    hp = HahnParams(F(1, 2), F(1, 3), 4)
    assert all(hahn_weight(x, hp) > 0 for x in range(5))


def test_lattice_bounds_enforced():
    kp = KrawtchoukParams(F(1, 3), 3)
    with pytest.raises(ParameterError):
        krawtchouk(4, 0, kp)
    with pytest.raises(ParameterError):
        krawtchouk(0, 4, kp)
