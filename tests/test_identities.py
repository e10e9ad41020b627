"""Identity checks: verdicts, witnesses, oracles, fail-negative behavior."""

import inspect
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from qaskey import cli, identities
from qaskey.errors import NonPositiveWeight, ParameterError, QAskeyError, VanishingDenominator
from qaskey.families import (
    HahnParams,
    KrawtchoukParams,
    QParams,
    RacahParams,
    WilsonParams,
    cqu_r,
    qracah,
    qracah_norms,
    qracah_weight,
)
from qaskey.identities import (
    DEFAULT_ALPHAS,
    DEFAULT_QPARAMS,
    PYTHAGOREAN_PAIRS,
    CheckReport,
    Mutation,
    ParamGrid,
    Witness,
    check_addition_classical,
    check_addition_legendre,
    check_addition_q,
    check_backward_shift,
    check_cqu_representations,
    check_difference_formula,
    check_dual_addition_a_form,
    check_dual_addition_classical,
    check_dual_addition_q_direct,
    check_dual_addition_q_inversion,
    check_duality_cqu,
    check_duality_discrete,
    check_linearization_classical,
    check_linearization_legendre,
    check_linearization_q,
    check_orthogonality_discrete,
    check_orthogonality_q_racah,
    check_product_formula_classical,
    check_restriction_equivalence,
    check_theorem_5_1,
    check_weight_ratio,
    dual_projection_sum,
    linearization_qracah_params,
    linearization_racah_params,
    weight_moments,
    ADDITION_QPARAMS,
    _addition_coeffs_q,
    _classical_dual_addition,
    _closed_projection_prefactors,
    _compare,
    _dual_addition_scalars,
    _lattice,
    _linearization_coeffs_q,
    _qpoch_a2z2,
)
from qaskey.laurent import LaurentPoly, linear_combination, x_embed
from qaskey.series import qpochhammer
from closed_forms import (
    _o,
    _o_mul,
    _o_scale,
    addition_coeff_q_per_k,
    cqu_leading_z_coeff,
    dual_addition_classical_per_row,
    dual_addition_coeff_a_per_k,
    dual_addition_scalar_per_k,
    linearization_coeff_classical_per_j,
    linearization_coeff_legendre_per_j,
    linearization_coeff_q_per_j,
    projection_closed_per_k,
    projection_prefactor_0,
    projection_prefactor_per_k,
    qpoch_laurent_pow,
    qracah_phi,
    terms,
)

QP = QParams(F(1, 2), F(2, 3))
QPA = QParams(F(1, 2), F(1, 3))
P = PYTHAGOREAN_PAIRS


def assert_report_invariant(report: CheckReport):
    if report.verdict == "pass":
        assert report.witness is None and report.residual is None
    else:
        assert report.witness is not None and report.residual is not None


# ---------------------------------------------------------------------------
# pass verdicts on representative parameters
# ---------------------------------------------------------------------------


def test_duality_cqu():
    r = check_duality_cqu(QP, 6)
    assert r.passed
    assert_report_invariant(r)


@pytest.mark.parametrize("family,params", [
    ("krawtchouk", KrawtchoukParams(F(1, 3), 3)),
    ("hahn-dual-hahn", HahnParams(F(1, 2), F(1, 3), 4)),
    ("racah", RacahParams(F(1, 2), F(1, 3), 3, F(1, 5))),
    ("wilson", WilsonParams(F(1), F(3, 2), F(2), F(5, 2))),
])
def test_duality_discrete(family, params):
    report = check_duality_discrete(params)
    assert report.passed and report.check_id == f"duality-{family}"


@pytest.mark.parametrize("family,params", [
    ("krawtchouk", KrawtchoukParams(F(1, 3), 4)),
    ("hahn", HahnParams(F(1, 2), F(1, 3), 4)),
    ("racah", linearization_racah_params(F(1, 2), 5, 3)),
    ("q-racah", (QP, 5, 4)),  # the linearization lattice (carrier, l, m)
])
def test_orthogonality_discrete(family, params):
    report = (check_orthogonality_q_racah(*params) if family == "q-racah"
              else check_orthogonality_discrete(params))
    assert report.passed and report.check_id == f"orthogonality-{family}"


def test_discrete_checks_reject_a_record_with_no_such_relation():
    qrp = linearization_qracah_params(QP, 4, 3)
    with pytest.raises(ParameterError, match="no duality check for QRacahParams"):
        check_duality_discrete(qrp)
    with pytest.raises(ParameterError, match="no orthogonality check for QRacahParams"):
        check_orthogonality_discrete(qrp)
    with pytest.raises(ParameterError, match="no orthogonality check for WilsonParams"):
        check_orthogonality_discrete(WilsonParams(F(1), F(3, 2), F(2), F(5, 2)))


@pytest.mark.parametrize("qp", DEFAULT_QPARAMS + (QParams(F(1, 2), F(1)),))
def test_a_form_lattice_polynomials_are_the_linearization_lattice(qp):
    # the a-form's 4phi3 parameters (a^2/q, a^2/q, q^(-m-1), q^(-l)/a^2) are
    # those of the lattice, since a^2 = q^(1/2) beta
    a2, q = qp.a * qp.a, qp.q
    for l in range(6):
        for m in range(l + 1):
            qrp = linearization_qracah_params(qp, l, m)
            for k in range(m + 1):
                for j in range(m + 1):
                    phi = qracah_phi(k, j, a2 / q, a2 / q, q ** (-m - 1), q ** (-l) / a2, q)
                    assert qracah(k, j, qrp) == phi, (qp, l, m, k, j)


def test_weight_ratio_and_difference():
    assert check_weight_ratio(QP).passed
    assert check_difference_formula(QP, 8).passed
    with pytest.raises(ParameterError):
        check_difference_formula(QP, 1)


def test_difference_formula_vanishing_device():
    # the left side vanishes at the normalization points z = ts and 1/(ts),
    # which is what makes the quadratic factor split off exactly
    a = QP.a
    for n in (2, 3, 5):
        diff = cqu_r(n, QP) - cqu_r(n - 2, QP)
        assert diff.eval_at(a) == 0
        assert diff.eval_at(1 / a) == 0


def test_difference_formula_leading_coefficient_route():
    # the prefactor is forced by the top-degree coefficients of the two
    # families: extract and compare them directly
    q, b, qh, t = QP.q, QP.beta, QP.qhalf, QP.t
    promoted = QP.beta_shift(1)
    for n in range(2, 7):
        pref = 4 * t ** (2 * (3 - n)) * b * (1 - t ** (4 * n - 2) * b)
        pref /= (1 + qh * b) * (1 + q * b) * (1 - q * b)
        # top z-coefficient of (x^2 - a^2) * R_(n-2) with promoted beta is
        # (1/4) times the promoted leading coefficient
        lhs_top = cqu_leading_z_coeff(n, QP)
        rhs_top = pref * cqu_leading_z_coeff(n - 2, promoted) / 4
        assert lhs_top == rhs_top


def test_backward_shift():
    assert check_backward_shift(QP, 4, 3, 3).passed


@pytest.mark.parametrize("qp", DEFAULT_QPARAMS + (QParams(F(1, 2), F(1)),))
def test_backward_shift_on_every_lattice_to_l_6(qp):
    # N = 1 included, where the shifted record is the one-point lattice
    failed = [(l, m, nmax) for l in range(1, 7) for m in range(1, l + 1) for nmax in range(1, m + 1)
              if not check_backward_shift(qp, l, m, nmax).passed]
    assert failed == []


def test_backward_shift_constant_function_annihilates():
    # summing the degree-1 member against a constant is an orthogonality
    # statement: both sides of the summed relation are exactly 0
    qrp = linearization_qracah_params(QP, 4, 3)
    lhs = sum(qracah_weight(x, qrp) * qracah(1, x, qrp) for x in range(qrp.N + 1))
    assert lhs == 0  # and the telescoped side is 0 termwise since f(x) - f(x+1) = 0


def test_theorem_5_1_small_grid():
    assert check_theorem_5_1(QP, 3, 3).passed


def test_param_grid_resolves_its_defaults():
    grid = ParamGrid()
    assert (grid.lmax, grid.mmax) == (5, 5)
    assert grid.qparams == DEFAULT_QPARAMS and grid.alphas == DEFAULT_ALPHAS
    assert ParamGrid(None, None, (), ()) == grid
    grid = ParamGrid(lmax=3, qparams=[QP], alphas=[F(1)])
    assert (grid.lmax, grid.mmax, grid.qparams, grid.alphas) == (3, 3, (QP,), (F(1),))
    assert ParamGrid(lmax=4, mmax=2).mmax == 2
    assert list(ParamGrid(lmax=2, mmax=1).lm_pairs()) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    for kwargs, message in (({"lmax": -1}, "grid lmax must be >= 0, got -1"),
                            ({"mmax": -2}, "grid mmax must be >= 0, got -2"),
                            ({"lmax": 3, "mmax": -1}, "grid mmax must be >= 0, got -1")):
        with pytest.raises(ParameterError) as exc:
            ParamGrid(**kwargs)
        assert str(exc.value) == message


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=F(1, 5), max_value=F(4, 5), max_denominator=6),
       st.fractions(min_value=F(1, 5), max_value=F(6, 5), max_denominator=6),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_projection_sum_closed_form_random_carriers(t, s, l_, m_, k_):
    # brute = closed beyond the default carriers: random admissible (t, s)
    if not s * t < 1:
        s = 1 / (2 * t)
    qp = QParams(t, s)
    l = max(l_, m_, k_)
    m = max(m_, k_)
    k = min(k_, m)
    assert terms(dual_projection_sum(k, l, m, qp)) == projection_closed_per_k(k, l, m, qp)


def _assert_tables_match_their_per_k_oracles(qp, l, m):
    assert _dual_addition_scalars(qp, l, m) == tuple(
        dual_addition_scalar_per_k(k, l, m, qp) for k in range(m + 1))
    assert _closed_projection_prefactors(qp, l, m) == tuple(
        projection_prefactor_per_k(k, l, m, qp) for k in range(m + 1))


@pytest.mark.parametrize("qp", DEFAULT_QPARAMS + (QParams(F(1, 2), F(1)),))
def test_closed_term_ratio_tables_match_their_per_k_oracles(qp):
    for l in range(12):
        for m in range(l + 1):
            _assert_tables_match_their_per_k_oracles(qp, l, m)
    for l, m in ((3, 2), (5, 5)):
        closed = _lattice(qp, l, m).closed
        for k, c in enumerate(_dual_addition_scalars(qp, l, m)):
            promoted = qp.beta_shift(k)
            shifted = _qpoch_a2z2(qp, k) * cqu_r(l - k, promoted) * cqu_r(m - k, promoted)
            assert closed[k] == shifted * c


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=F(1, 5), max_value=F(19, 20), max_denominator=20),
       st.fractions(min_value=F(1, 5), max_value=F(3, 2), max_denominator=20),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_closed_term_ratio_tables_random_carriers(t, s, l_, m_):
    # the tables beyond the default carriers: random admissible (t, s), up
    # to s t close to 1, where the denominator factors come closest to 0
    if not s * t < 1:
        s = (1 - 1 / F(s.denominator + 1)) / t
    _assert_tables_match_their_per_k_oracles(QParams(t, s), max(l_, m_), min(l_, m_))


# admissible carriers beyond the defaults: beta = 1, where a^4 = q, and two
# of the carriers the byte-identity runs use
TABLE_QPARAMS = DEFAULT_QPARAMS + (QParams(F(1, 2), F(1)), QParams(F(3, 5), F(1, 2)),
                                   QParams(F(9, 10), F(1)))


def _random_carrier(t, s) -> QParams:
    return QParams(t, s if s * t < 1 else (1 - 1 / F(s.denominator + 1)) / t)


def _assert_row_tables_match_their_oracles(qp, l, m):
    # the a-form scalars are the closed dual-addition scalars, and 0 past m
    assert _dual_addition_scalars(qp, l, m) + (0,) * (l + 1 - m) == tuple(
        dual_addition_coeff_a_per_k(k, l, m, qp) for k in range(l + 2))
    assert _linearization_coeffs_q(qp, l, m) == tuple(
        linearization_coeff_q_per_j(j, l, m, qp) for j in range(m + 1))


def _outcome(call):
    """("value", v) of a call, or ("raise", type, text) of what it raised."""
    try:
        return "value", call()
    except (NonPositiveWeight, ParameterError, VanishingDenominator) as exc:
        return "raise", type(exc), str(exc)


def _old_projection_sum(k, l, m, qp):
    # sum_j (w_j R_k(j)) B_j: each weight times a value, then over the basis
    qrp = linearization_qracah_params(qp, l, m)
    weights = [qracah_weight(j, qrp) for j in range(m + 1)]
    for j, w in enumerate(weights):
        if w <= 0:
            raise NonPositiveWeight(j, w)
    basis = [cqu_r(l + m - 2 * j, qp) for j in range(m + 1)]
    return linear_combination(basis, [w * qracah(k, j, qrp) for j, w in enumerate(weights)])


def _assert_lattice_parts_match_their_oracles(qp, lmax):
    for l in range(lmax + 1):
        for m in range(l + 1):
            for k in range(m + 1):
                # a promoted record built afresh, not the carrier's shared one
                promoted = QParams(qp.t, qp.t ** (2 * k) * qp.s)
                direct = _qpoch_a2z2(qp, k) * cqu_r(l - k, promoted) * cqu_r(m - k, promoted)
                assert _lattice(qp, l, m).shifted[k] == direct
                assert _outcome(partial(dual_projection_sum, k, l, m, qp)) == _outcome(
                    partial(_old_projection_sum, k, l, m, qp))


@pytest.mark.parametrize("qp", TABLE_QPARAMS)
def test_weighted_basis_and_shifted_products_match_their_oracles(qp):
    # the weights folded into the basis once per lattice, and the shifted
    # products from the left factors of (carrier, l, k), against the sums
    # and the triple products formed directly; an error would have to be
    # the oracle's, with the same text
    _assert_lattice_parts_match_their_oracles(qp, 6)


@settings(max_examples=15, deadline=None)
@given(st.fractions(min_value=F(1, 5), max_value=F(19, 20), max_denominator=20),
       st.fractions(min_value=F(1, 5), max_value=F(3, 2), max_denominator=20),
       st.integers(min_value=0, max_value=6))
def test_weighted_basis_and_shifted_products_random_carriers(t, s, lmax):
    _assert_lattice_parts_match_their_oracles(_random_carrier(t, s), lmax)


@pytest.mark.parametrize("qp", TABLE_QPARAMS)
def test_row_tables_match_their_per_entry_oracles(qp):
    for l in range(7):
        for m in range(l + 1):
            _assert_row_tables_match_their_oracles(qp, l, m)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=F(1, 5), max_value=F(19, 20), max_denominator=20),
       st.fractions(min_value=F(1, 5), max_value=F(3, 2), max_denominator=20),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_row_tables_random_carriers(t, s, l_, m_):
    _assert_row_tables_match_their_oracles(_random_carrier(t, s), max(l_, m_), min(l_, m_))


NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_QPARAMS + ADDITION_QPARAMS), st.integers(min_value=0, max_value=6),
       NONZERO, NONZERO)
def test_addition_coefficient_table_matches_the_per_k_oracle(qp, n, u, v):
    # negative u and v; the zero factors of (a^2 u^2; q)_k where
    # a^2 u^2 = q^(-i), carried to every later k, are pinned below
    assert _addition_coeffs_q(n, qp, u, v) == tuple(
        addition_coeff_q_per_k(k, n, qp, u, v) for k in range(n + 1))


def test_addition_coefficient_table_on_the_restriction_lattice_and_its_zeros():
    qp = QParams(F(1, 2), F(1))  # beta = 1: a^4 = q
    for n in range(6):
        for l in range(4):
            for m in range(l + 1):
                u, v = qp.t ** (-2 * l) / qp.a, qp.t ** (-2 * m) / qp.a
                assert _addition_coeffs_q(n, qp, u, -v) == tuple(
                    addition_coeff_q_per_k(k, n, qp, u, -v) for k in range(n + 1))
    # a^2 u^2 = q^(-2): the entries from k = 3 on vanish
    qp = ADDITION_QPARAMS[0]
    u = 1 / (qp.a * qp.q)
    table = _addition_coeffs_q(5, qp, u, F(3))
    assert [bool(c) for c in table] == [True] * 3 + [False] * 3
    assert table == tuple(addition_coeff_q_per_k(k, 5, qp, u, F(3)) for k in range(6))


def _explicit_coefficients(check, *args):
    """The explicit coefficients an ultraspherical linearization check
    builds, or the class and text of what it raises first."""
    seen = []

    def items(alpha, l, m, product, explicit):
        seen.append(explicit)
        return [("captured", F(0), F(0))]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_ultraspherical_linearization_items", items)
        try:
            check(*args)
        except (ZeroDivisionError, ParameterError) as exc:
            return type(exc), str(exc)
    return seen[0]


def _per_j(formula, m, *args):
    try:
        return tuple(formula(j, *args) for j in range(m + 1))
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@example(F(-1, 2), 0, 0)
@example(F(-1, 2), 3, 2)
@example(F(-3, 4), 2, 2)
@example(F(7, 3), 5, 4)
@given(st.one_of(st.sampled_from([F(-3, 4), F(-1, 2), F(7, 3), F(3), F(-99, 100)]),
                 st.fractions(min_value=F(-1), max_value=3, max_denominator=12).filter(lambda a: a > -1)),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_ultraspherical_linearization_tables_match_the_per_j_oracles(alpha, l_, m_):
    # where the formula divides by 0 (alpha = -1/2), the check raises before
    # its first coefficient, naming the factor that vanishes
    l, m = max(l_, m_), min(l_, m_)
    expected = _per_j(linearization_coeff_classical_per_j, m, alpha, l, m)
    if alpha == F(-1, 2):
        assert expected[0] is ZeroDivisionError
        factor = f"(2 alpha + 1)_{l}" if l else "alpha + 1/2"
        expected = ParameterError, ("classical linearization at alpha=-1/2: "
                                    f"the denominator factor {factor} vanishes")
    assert _explicit_coefficients(check_linearization_classical, alpha, l, m) == expected
    assert _explicit_coefficients(check_linearization_legendre, l, m) == _per_j(
        linearization_coeff_legendre_per_j, m, l, m)


def test_closed_prefactor_table_is_built_once_per_lattice(monkeypatch):
    # the k-loop of theorem 5.1 is innermost: one lattice, and one table,
    # per (carrier, l, m), looked up by the sum and the closed form of each k
    from qaskey import identities

    built, table = [], identities._closed_projection_prefactors
    monkeypatch.setattr(identities, "_closed_projection_prefactors",
                        lambda *args: built.append(args) or table(*args))
    _lattice.cache_clear()
    assert all(check_theorem_5_1(qp, 3, 3).passed for qp in DEFAULT_QPARAMS)
    info = _lattice.cache_info()
    lattices = 3 * 10  # carriers times the pairs m <= l <= 3
    assert len(built) == len(set(built)) == info.misses == lattices
    assert info.hits == 2 * 3 * 20 - lattices  # 20 values of k per carrier


@pytest.mark.parametrize("qp", TABLE_QPARAMS)
def test_first_projection_prefactor_matches_its_six_pochhammer_form(qp):
    for l in range(13):
        for m in range(l + 1):
            assert _closed_projection_prefactors(qp, l, m)[0] == projection_prefactor_0(l, m, qp)


# (location, lhs, rhs, residual) of theorem 5.1 checks, recorded before the
# check was decided on the lattice: (1/2, 2/3) to lmax 3 with delta -2/7 at
# indices 0, 7, 19 and 20 (20 wraps to 0), and (3/5, 1/2) to lmax 4, mmax 2
# with delta 1/3 at indices 5 and 11.
THEOREM_5_1_WITNESSES = {
    (QP, 3, 3, 0, F(-2, 7)): ('t=1/2, s=2/3, l=0, m=0, k=0, z^0', '5/7', '1', '-2/7'),
    (QP, 3, 3, 7, F(-2, 7)): ('t=1/2, s=2/3, l=2, m=2, k=0, z^0',
                              '-1615720817760277/6369766431153125',
                              '29173206897639/909966633021875', '-2/7'),
    (QP, 3, 3, 19, F(-2, 7)): ('t=1/2, s=2/3, l=3, m=3, k=3, z^0',
                               '-385721039549625686270907579/103860917992524224000000',
                               '-55098766428803974600986797/14837273998932032000000', '-2/7'),
    (QP, 3, 3, 20, F(-2, 7)): ('t=1/2, s=2/3, l=0, m=0, k=0, z^0', '5/7', '1', '-2/7'),
    (QParams(F(3, 5), F(1, 2)), 4, 2, 5, F(1, 3)): (
        't=3/5, s=1/2, l=2, m=1, k=0, z^0', '1/3', '0', '1/3'),
    (QParams(F(3, 5), F(1, 2)), 4, 2, 11, F(1, 3)): (
        't=3/5, s=1/2, l=3, m=1, k=0, z^0', '1207527052122120893530651/3463210910653456854811953',
        '17707805079211758420000/1154403636884485618270651', '1/3'),
}
# pref_1 of the lattice (1/2, 2/3), l = 3, m = 2 times 6/5, recorded likewise
BUMPED_PREFACTOR_WITNESS = (
    't=1/2, s=2/3, l=3, m=2, k=1, z^-5', '5283462795507/1435993116906250',
    '15850388386521/3589982792265625',
    '-5283462795507/7179965584531250 z^5 + 8585039991277152/1653546074117546875 z^3 '
    '+ 38141317920765033/3307092148235093750 z + 38141317920765033/3307092148235093750 z^-1 '
    '+ 8585039991277152/1653546074117546875 z^-3 - 5283462795507/7179965584531250 z^-5')


def test_a_theorem_5_1_mutation_reports_the_recorded_witness():
    for (qp, lmax, mmax, index, delta), expected in THEOREM_5_1_WITNESSES.items():
        report = check_theorem_5_1(qp, lmax, mmax, Mutation(index=index, delta=delta))
        assert (report.verdict, _witness(report)) == ("fail", expected)


def test_a_theorem_5_1_check_that_differs_reports_the_recorded_witness(monkeypatch):
    table = identities._closed_projection_prefactors

    def bumped(qp, l, m):
        out = table(qp, l, m)
        return out[:1] + (out[1] * F(6, 5),) + out[2:] if (l, m) == (3, 2) else out

    monkeypatch.setattr(identities, "_closed_projection_prefactors", bumped)
    _lattice.cache_clear()
    report = check_theorem_5_1(QP, 3, 3)
    _lattice.cache_clear()
    assert (report.verdict, _witness(report)) == ("fail", BUMPED_PREFACTOR_WITNESS)


def test_an_unmutated_theorem_5_1_check_stops_at_its_first_difference(monkeypatch):
    # the items are read as a stream: the bumped pref_1 of (3, 2) decides
    # the check before the lattice (3, 3), whose prefactors would raise
    table = identities._closed_projection_prefactors

    def bumped(qp, l, m):
        if (l, m) == (3, 3):
            raise VanishingDenominator(0, "injected")
        out = table(qp, l, m)
        return out[:1] + (out[1] * F(6, 5),) + out[2:] if (l, m) == (3, 2) else out

    monkeypatch.setattr(identities, "_closed_projection_prefactors", bumped)
    _lattice.cache_clear()
    report = check_theorem_5_1(QP, 3, 3)
    _lattice.cache_clear()
    assert (report.verdict, _witness(report)) == ("fail", BUMPED_PREFACTOR_WITNESS)


def test_theorem_5_1_takes_each_projection_then_the_closed_parts(monkeypatch):
    # (l, m, k) ascending; at each k the projection sum first, then the
    # shifted products and the prefactors, each built once per lattice, so
    # an error surfaces where it did when each closed product was formed
    calls = []
    projection, left, table = (identities.dual_projection_sum, identities._left_factor,
                               identities._closed_projection_prefactors)
    monkeypatch.setattr(identities, "dual_projection_sum",
                        lambda k, l, m, qp: calls.append(("projection", l, m, k)) or projection(k, l, m, qp))
    monkeypatch.setattr(identities, "_left_factor",
                        lambda qp, l, k: calls.append(("left", l, k)) or left(qp, l, k))
    monkeypatch.setattr(identities, "_closed_projection_prefactors",
                        lambda qp, l, m: calls.append(("prefactors", l, m)) or table(qp, l, m))
    _lattice.cache_clear()
    assert check_theorem_5_1(QP, 3, 2).passed
    expected = []
    for l in range(4):
        for m in range(min(l, 2) + 1):
            expected.append(("projection", l, m, 0))
            expected += [("left", l, k) for k in range(m + 1)]
            expected.append(("prefactors", l, m))
            expected += [("projection", l, m, k) for k in range(1, m + 1)]
    assert calls == expected


def test_projection_sum_base_case_factors():
    # k = 0 reduces to the lattice mass times the plain product
    for (l, m) in [(2, 1), (3, 3), (4, 0)]:
        s0 = projection_closed_per_k(0, l, m, QP)
        assert s0 == terms(cqu_r(l, QP) * cqu_r(m, QP) * linearization_qracah_params(QP, l, m).h0)
    assert projection_closed_per_k(0, 0, 0, QP) == {0: F(1)}
    assert dual_projection_sum(0, 0, 0, QP) == LaurentPoly.constant(1)


def test_projection_sum_one_step_reduction():
    # the single-step recurrence behind the closed form, with both sides
    # computed by brute lattice sums
    q, b, qh, t, s = QP.q, QP.beta, QP.qhalf, QP.t, QP.s
    for (k, l, m) in [(1, 2, 1), (2, 3, 2), (3, 4, 3)]:
        lhs = dual_projection_sum(k, l, m, QP)
        fac = (t ** (2 * (l + m + 1)) * s * s) * qpochhammer(t ** (2 - 4 * (l + m)) / b, q, 1)
        fac /= qpochhammer(-qh * b, q, 1) * qpochhammer(q * b, q, 1) * qpochhammer(-q * b, q, 1)
        lkz = {0: F(1)}
        for sign in (1, -1):
            lkz = _o_mul(lkz, qpoch_laurent_pow(sign * QP.a, 1, qh, 1))
            lkz = _o_mul(lkz, qpoch_laurent_pow(sign * QP.a, -1, qh, 1))
        lower = dual_projection_sum(k - 1, l - 1, m - 1, QP.beta_shift(1))
        assert terms(lhs) == _o_scale(_o_mul(lkz, terms(lower)), fac)


def test_projection_sum_input_validation():
    for projection in (dual_projection_sum, projection_closed_per_k):
        with pytest.raises(ParameterError, match=r"need 0 <= k <= m <= l"):
            projection(2, 3, 1, QP)


def test_linearization_q():
    for (l, m) in [(5, 3), (4, 4), (3, 0)]:
        assert check_linearization_q(QP, l, m).passed


def test_linearization_lattice_closed_displays():
    # the specialized weight and total mass collapse to products of
    # one-parameter q-shifted factorials; pin those closed displays
    q, b, qb = QP.q, QP.beta, QP.qhalf * QP.beta
    for (l, m) in [(3, 2), (4, 4), (5, 1)]:
        qrp = linearization_qracah_params(QP, l, m)

        def qp_(base, k):
            return qpochhammer(base, q, k)

        h0_display = (qp_(q * b * b, l) * qp_(q * b * b, m) / qp_(q * b * b, l + m)) * (
            qp_(qb, l + m) / (qp_(qb, l) * qp_(qb, m)))
        assert qrp.h0 == h0_display
        for j in range(m + 1):
            w_display = (qp_(qb, l + m) / qp_(q * b * b, l + m))
            w_display *= qp_(q, l) / qp_(qb, l) * qp_(q, m) / qp_(qb, m)
            w_display *= (1 - q ** (l + m - 2 * j) * qb) / (1 - qb)
            w_display *= qp_(qb, j) / qp_(q, j)
            w_display *= qp_(qb, l - j) / qp_(q, l - j) * qp_(qb, m - j) / qp_(q, m - j)
            w_display *= qp_(q * b * b, l + m - j) / qp_(q * qb, l + m - j) * qb ** j
            assert qracah_weight(j, qrp) == w_display > 0


def test_linearization_q_top_coefficient_is_inverse_mass():
    # coefficient of the top-degree member is w(0)/h0 with w(0) = 1
    l, m = 4, 2
    qrp = linearization_qracah_params(QP, l, m)
    assert qracah_weight(0, qrp) == 1
    prod = cqu_r(l, QP) * cqu_r(m, QP)
    residual = prod - cqu_r(l + m, QP) * (1 / qrp.h0)
    assert max(terms(residual)) < l + m


def test_linearization_classical_and_legendre():
    for alpha in (F(0), F(1, 2), F(1), F(1, 4)):
        assert check_linearization_classical(alpha, 5, 4).passed
    assert check_linearization_legendre(4, 3).passed
    assert check_linearization_legendre(1, 1).passed


def test_a_negative_linearization_coefficient_fails_where_the_expansion_holds():
    # below alpha = -1/2 the expansion still holds, but with a negative coefficient
    r = check_linearization_classical(F(-3, 4), 2, 2)
    assert (r.verdict, r.witness, r.residual) == (
        "fail", Witness("nonnegative j=1", "-8/11", ">= 0"), "-8/11")
    assert check_linearization_classical(F(-3, 4), 2, 2, mutation=Mutation(0)).witness.location == (
        "explicit-form sum, z^0")


# (location, lhs, rhs, residual) of mutated linearization rows, delta 1/4,
# recorded before a row summed its expansion once when its two coefficient
# lists agree: the mutation of one sum leaves the other one's item intact
LINEARIZATION_WITNESSES = {
    (check_linearization_q, (QP, 4, 2), 0): (
        'coefficient j=0', '10360436048357/9052830803452', '4048614173747/4526415401726', '1/4'),
    (check_linearization_q, (QP, 4, 2), 3): (
        'explicit-form sum, z^0', '58333488210061/230506487312500', '176716595484/57626621828125',
        '1/4'),
    (check_linearization_q, (QP, 4, 2), 4): (
        'weight-quotient sum, z^0', '58333488210061/230506487312500',
        '176716595484/57626621828125', '1/4'),
    (check_linearization_q, (QP, 3, 3), 4): (
        'explicit-form sum, z^0', '3657851711/14391612500', '29974293/7195806250', '1/4'),
    (check_linearization_classical, (F(1, 2), 3, 2), 0): ('explicit-form sum, z^0', '1/4', '0', '1/4'),
    (check_linearization_classical, (F(1, 2), 3, 2), 3): ('coefficient j=2', '5/12', '1/6', '1/4'),
    (check_linearization_classical, (F(1, 2), 3, 2), 4): ('weight-quotient sum, z^0', '1/4', '0', '1/4'),
    (check_linearization_legendre, (3, 2), 3): ('coefficient j=2', '71/140', '9/35', '1/4'),
    (check_linearization_legendre, (3, 2), 4): ('weight-quotient sum, z^0', '1/4', '0', '1/4'),
}


def test_a_linearization_mutation_reports_the_recorded_witness():
    for (check, args, index), expected in LINEARIZATION_WITNESSES.items():
        report = check(*args, mutation=Mutation(index=index, delta=F(1, 4)))
        assert _witness(report) == expected, (check.__name__, args, index)


def _counted_sums(monkeypatch) -> list:
    """The scalar lists of every `linear_combination` the checks form."""
    sums, combine = [], identities.linear_combination
    monkeypatch.setattr(identities, "linear_combination",
                        lambda basis, scalars: sums.append(tuple(scalars)) or combine(basis, scalars))
    return sums


def test_a_linearization_row_whose_coefficients_agree_sums_one_expansion(monkeypatch):
    sums = _counted_sums(monkeypatch)
    _lattice.cache_clear()
    for check, args in ((check_linearization_q, (QP, 4, 2)), (check_linearization_q, (QP, 3, 0)),
                        (check_linearization_classical, (F(1, 2), 3, 2)),
                        (check_linearization_legendre, (3, 2)), (check_linearization_legendre, (2, 0))):
        del sums[:]
        assert check(*args).passed
        assert len(sums) == 1, (check.__name__, args)


def test_a_linearization_row_whose_quotients_differ_sums_both_expansions(monkeypatch):
    sums = _counted_sums(monkeypatch)
    coeffs, h0 = identities._linearization_coeffs_q, identities.racah_h0
    monkeypatch.setattr(identities, "_linearization_coeffs_q",
                        lambda *args: (coeffs(*args)[0] + F(1, 9),) + coeffs(*args)[1:])
    monkeypatch.setattr(identities, "racah_h0", lambda rp: 2 * h0(rp))
    _lattice.cache_clear()
    for check, args in ((check_linearization_q, (QP, 4, 2)),
                        (check_linearization_classical, (F(1, 2), 3, 2)),
                        (check_linearization_legendre, (3, 2))):
        del sums[:]
        report = check(*args)
        assert (report.verdict, report.witness.location) == ("fail", "coefficient j=0")
        assert len(sums) == 2 and sums[0] != sums[1], (check.__name__, args)


def test_dual_addition_q_both_modes():
    for (l, m, j) in [(2, 1, 1), (3, 2, 0), (4, 4, 2), (3, 0, 0)]:
        assert check_dual_addition_q_direct(QP, l, m, j).passed
    for (l, m) in [(2, 1), (3, 3), (5, 2)]:
        assert check_dual_addition_q_inversion(QP, l, m).passed


def test_dual_addition_modes_are_mutually_consistent():
    # inversion coefficients times the norms reproduce the brute sums
    l, m = 3, 2
    qrp = linearization_qracah_params(QP, l, m)
    closed = _lattice(QP, l, m).closed
    for k in range(m + 1):
        assert closed[k] * qracah_norms(k, qrp) == dual_projection_sum(k, l, m, QP)


def test_a_non_positive_racah_weight_names_its_point():
    with pytest.raises(NonPositiveWeight) as exc:
        check_orthogonality_discrete(RacahParams(F(1, 2), F(1, 3), 3, F(1, 5)))
    assert (exc.value.index, exc.value.value) == (2, F(-513, 847))


def _counted_weights(monkeypatch, negate=None):
    """The (x, N) of each identities call of qracah_weight, whose value is
    negated at the (x, N) given: no admissible carrier gives a lattice a
    non-positive weight."""
    weight, calls = identities.qracah_weight, []

    def counted(x, qrp):
        calls.append((x, qrp.N))
        return -weight(x, qrp) if (x, qrp.N) == negate else weight(x, qrp)

    monkeypatch.setattr(identities, "qracah_weight", counted)
    _lattice.cache_clear()
    return calls


def test_an_inversion_row_builds_the_lattice_weights_once(monkeypatch):
    # its m + 1 projection sums read one weight table, not one each
    calls = _counted_weights(monkeypatch)
    l, m = 5, 3
    assert check_dual_addition_q_inversion(QP, l, m).passed
    assert calls == [(x, m) for x in range(m + 1)]


def test_a_non_positive_lattice_weight_is_raised_on_every_row_that_reads_it(monkeypatch):
    # the weights part that raises is not kept: each row of the lattice
    # builds it again and raises the same error; theorem 5.1 reaches the
    # lattice N = 3 last
    l = m = 3
    calls = _counted_weights(monkeypatch, negate=(2, m))
    w = -qracah_weight(2, linearization_qracah_params(QP, l, m))
    for row in (partial(check_dual_addition_q_inversion, QP, l, m),
                partial(check_linearization_q, QP, l, m),
                partial(check_orthogonality_q_racah, QP, l, m),
                partial(check_theorem_5_1, QP, l, m)):
        calls.clear()
        with pytest.raises(NonPositiveWeight) as exc:
            row()
        assert (exc.value.index, exc.value.value, str(exc.value)) == (
            2, w, f"weight at x=2 is {w} (must be positive)")
        assert [x for x, N in calls if N == m] == list(range(m + 1))
        assert "weights" not in vars(_lattice(QP, l, m))


def test_lattice_norms_share_one_h0():
    # norm(k) = (h_k/h_0) h_0 of one lattice take h0 from the cached
    # property of its q-Racah record: one computation for all of them
    _lattice.cache_clear()
    qrp = linearization_qracah_params(QP, 5, 3)
    assert "h0" not in vars(qrp)
    norms = [qracah_norms(k, qrp) for k in range(4)]
    h0 = vars(qrp)["h0"]
    assert qrp.h0 is h0 == norms[0]


def test_one_record_and_one_value_memo_per_lattice(monkeypatch):
    # the inversion row and the m + 1 direct rows of one lattice get one
    # lattice and one record, and sum each of its (m + 1)^2 values once, on
    # that record; the weights, the basis, the shifted products and the
    # closed coefficients are built once
    from qaskey import families, identities

    l, m = 4, 3
    qhyper_sum = families.qhyper_sum
    _lattice.cache_clear()
    lattices, sums = [], []
    monkeypatch.setattr(identities, "_lattice",
                        lambda *args: lattices.append(_lattice(*args)) or lattices[-1])
    monkeypatch.setattr(families, "qhyper_sum", lambda *args: sums.append(args) or qhyper_sum(*args))
    assert check_dual_addition_q_inversion(QP, l, m).passed
    for j in range(m + 1):
        assert check_dual_addition_q_direct(QP, l, m, j).passed
    lattice = lattices[0]
    assert all(lat is lattice for lat in lattices) and _lattice.cache_info().misses == 1
    assert {"qrp", "weights", "basis", "shifted", "closed"} <= set(vars(lattice))
    assert "prefactors" not in vars(lattice)  # no row of the dual addition asks for them
    assert len(sums) == (m + 1) ** 2 == len(lattice.qrp._values)


def test_dual_addition_classical_and_a_form():
    assert check_dual_addition_classical(F(1, 2), 2, 2, 1).passed
    assert check_dual_addition_classical(F(1), 4, 3, 2).passed
    assert check_dual_addition_a_form(QP, 3, 2, 1).passed


@pytest.mark.parametrize("qp", DEFAULT_QPARAMS + (QParams(F(1, 2), F(1)),))
def test_square_factor_matches_its_qpochhammer_products(qp):
    # (a^2 z^2, a^2 z^-2; q)_k against its two z-products, and against the
    # factored form (+-a z, +-a z^-1; q^(1/2))_k
    a, a2, q = qp.a, qp.a * qp.a, qp.q
    for k in range(7):
        built = terms(_qpoch_a2z2(qp, k))
        assert built == _o_mul(qpoch_laurent_pow(a2, 2, q, k), qpoch_laurent_pow(a2, -2, q, k))
        pm = {0: F(1)}
        for sign in (1, -1):
            pm = _o_mul(pm, qpoch_laurent_pow(sign * a, 1, qp.qhalf, k))
            pm = _o_mul(pm, qpoch_laurent_pow(sign * a, -1, qp.qhalf, k))
        assert built == pm


def test_classical_fail_witness_is_a_z_coefficient():
    r = check_linearization_classical(F(1, 2), 3, 2, mutation=Mutation(0))
    assert (r.witness.location, r.residual) == ("explicit-form sum, z^0", "1")
    r = check_dual_addition_classical(F(1, 2), 3, 2, 1, mutation=Mutation(0))
    assert (r.witness.location, r.residual) == ("l=3, m=2, j=1, z^0", "1")


# The classical rows in suite order, j innermost: (l, m, j) descending.
CLASSICAL_ROWS = [(l, m, j) for l in range(4, -1, -1) for m in range(l, -1, -1)
                  for j in range(m, -1, -1)]


def _outcome(call):
    """A call's report, or the type and text of what it raised."""
    try:
        return call()
    except (QAskeyError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(7, 3), F(0), F(-3, 4), F(-1, 2), F(-1),
                                   F(-3, 2)])
def test_classical_rows_match_the_per_row_oracle(alpha):
    # reports, mutated or not, and errors with their type and text; the
    # record that raises is not kept, so every row that asks raises again
    mutation = Mutation(index=0, delta=F(-3, 7))
    _classical_dual_addition.cache_clear()
    for l, m, j in CLASSICAL_ROWS:
        for mut in (None, mutation):
            expected = _outcome(partial(dual_addition_classical_per_row, alpha, l, m, j, mut))
            if expected == (ZeroDivisionError, "Fraction(1, 0)"):
                # (alpha + 1)/(alpha + 1/2) at k = 1, named instead of divided
                assert alpha == F(-1, 2) and m >= 1
                expected = ParameterError, ("classical dual addition at alpha=-1/2: "
                                            "the denominator factor alpha + 1/2 vanishes")
            assert _outcome(partial(check_dual_addition_classical, alpha, l, m, j, mut)) == \
                expected, (l, m, j)


def test_the_rows_of_one_classical_record_build_it_once():
    for alpha, l, m in ((F(1, 2), 4, 3), (F(1), 3, 3), (F(7, 3), 4, 2)):
        _classical_dual_addition.cache_clear()
        for j in range(m, -1, -1):
            assert check_dual_addition_classical(alpha, l, m, j).passed
        info = _classical_dual_addition.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, m, 1)


# (location, lhs, rhs, residual) of a mutated row, recorded at the commit
# before the classical record and the inversion comparison: the inversion
# row (1/2, 2/3), l = 4, m = 2 with delta -2/7 at indices 0..2 (3 wraps to
# 0), and two classical rows with delta 3/5.
INVERSION_WITNESSES = (
    ('coefficient k=0, z^0', '-16288032498266/57626621828125', '176716595484/57626621828125',
     '-2/7'),
    ('coefficient k=1, z^0', '-5990016786790958/20821900195140625',
     '-40902445322208/20821900195140625', '-2/7'),
    ('coefficient k=2, z^0', '-287567036022122427483194/1006685133110645560796875',
     '57287723776304173056/1006685133110645560796875', '-2/7'),
)
CLASSICAL_WITNESSES = {
    (F(1, 2), 4, 2, 1): ('l=4, m=2, j=1, z^0', '4/5', '1/5', '3/5'),
    (F(1), 4, 4, 3): ('l=4, m=4, j=3, z^0', '39/40', '3/8', '3/5'),
}


def _witness(report):
    return report.witness.location, report.witness.lhs, report.witness.rhs, report.residual


def test_a_mutation_at_every_index_reports_the_recorded_witness():
    for index, expected in enumerate(INVERSION_WITNESSES + INVERSION_WITNESSES[:1]):
        report = check_dual_addition_q_inversion(QP, 4, 2, Mutation(index=index, delta=F(-2, 7)))
        assert _witness(report) == expected
    for (alpha, l, m, j), expected in CLASSICAL_WITNESSES.items():
        for index in (0, 1):
            report = check_dual_addition_classical(alpha, l, m, j, Mutation(index, F(3, 5)))
            assert _witness(report) == expected


def test_an_inversion_row_that_differs_reports_the_quotient_witness(monkeypatch):
    # a projection sum off by 1/5 at k = 1: the report is the comparison of
    # the quotients projection / h_k against the closed coefficients
    l, m, projection = 4, 2, identities.dual_projection_sum
    monkeypatch.setattr(identities, "dual_projection_sum",
                        lambda k, *args: projection(k, *args) + (F(1, 5) if k == 1 else 0))
    lattice = _lattice(QP, l, m)
    items = [(f"coefficient k={k}", identities.dual_projection_sum(k, l, m, QP)
              * (1 / qracah_norms(k, lattice.qrp)), lattice.closed[k]) for k in range(m + 1)]
    params = {"target": "q", "mode": "inversion", "l": l, "m": m, "j": 0, "t": QP.t, "s": QP.s}
    expected = _compare("dual-addition-q-inversion", params, items)
    report = check_dual_addition_q_inversion(QP, l, m)
    assert report == expected and report.witness.location.startswith("coefficient k=1")


def test_an_inversion_row_takes_each_norm_then_its_projection(monkeypatch):
    # k ascending, the norm first, so a failing norm or projection raises
    # where it did when each quotient was formed in turn
    calls, norms, projection = [], identities.qracah_norms, identities.dual_projection_sum
    monkeypatch.setattr(identities, "qracah_norms",
                        lambda k, qrp: calls.append(("norm", k)) or norms(k, qrp))
    monkeypatch.setattr(identities, "dual_projection_sum",
                        lambda k, *args: calls.append(("projection", k)) or projection(k, *args))
    assert check_dual_addition_q_inversion(QP, 5, 3).passed
    assert calls == [(name, k) for k in range(4) for name in ("norm", "projection")]


def test_addition_q():
    for n in range(5):
        assert check_addition_q(QPA, n, F(2), F(3)).passed
    assert check_addition_q(QPA, 3, F(3, 2), F(5, 4)).passed


def test_addition_q_where_the_kernel_family_degenerates_is_an_error():
    # a = 1/6 and q = 1/16 give a^2 u^2 = q^-1 at u = 24: the kernel
    # polynomials of degree >= 2 have a vanishing denominator, and their
    # coefficients vanish; dropping those terms read as a fail at z^-3
    with pytest.raises(VanishingDenominator) as exc:
        check_addition_q(QPA, 3, 24, 3)
    assert str(exc.value) == "vanishing denominator at index 2 (Laurent q-series denominator)"
    for u in (23, 25, F(24001, 1000)):
        assert check_addition_q(QPA, 3, u, 3).passed


def test_addition_classical_and_legendre():
    assert check_addition_classical(F(1, 2), 4, P[0], P[1], P[2][0]).passed
    assert check_addition_classical(F(0), 3, P[1], P[2], P[0][0]).passed
    assert check_addition_legendre(2, P[0], P[1], P[2]).passed
    assert check_addition_legendre(5, P[2], P[0], P[1]).passed


def test_addition_rejects_off_circle_points():
    from qaskey.errors import InadmissiblePoint

    with pytest.raises(InadmissiblePoint):
        check_addition_classical(F(1, 2), 2, (F(1, 2), F(1, 2)), P[0], F(1, 3))


def test_restriction_equivalence():
    assert check_restriction_equivalence(QP, 0, 0, 0, 0).passed
    assert check_restriction_equivalence(QP, 2, 1, 0, 1).passed
    assert check_restriction_equivalence(QP, 3, 2, 1, 2).passed
    assert check_restriction_equivalence(QP, 3, 3, 3, 4).passed


def test_product_formula_classical():
    assert check_product_formula_classical(F(0), 2, P[0], P[1]).passed
    assert check_product_formula_classical(F(1, 2), 6, P[1], P[2]).passed
    assert check_product_formula_classical(F(1), 5, P[0], P[2]).passed
    # degree-1 case reduces to the plain product of linear values
    assert check_product_formula_classical(F(3, 4), 1, P[0], P[1]).passed


def test_weight_moments_recurrence_matches_beta_ratio():
    import math

    for alpha in (F(0), F(1, 2), F(1), F(1, 4)):
        mu = weight_moments(alpha, 10)
        for k in range(1, 5):
            assert mu[2 * k] / mu[2 * k - 2] == F(2 * k - 1) / (2 * k + 2 * alpha)
            lhs = float(mu[2 * k] / mu[2 * k - 2])
            a = float(alpha)
            rhs = math.gamma(k + 0.5) * math.gamma(k + a) / (
                math.gamma(k - 0.5) * math.gamma(k + a + 1))
            assert abs(lhs - rhs) < 1e-12
        assert all(mu[2 * k + 1] == 0 for k in range(5))


def test_cqu_representation_check():
    assert check_cqu_representations(QP, 8).passed


# ---------------------------------------------------------------------------
# fail-negative: every check detects a single mutated item
# ---------------------------------------------------------------------------

# every row (name, params, call) of the `all` suite, and the rows whose
# check takes a mutation
SWEEP_ROWS = list(cli.SUITES["all"](ParamGrid(lmax=1)))


def takes_mutation(check) -> bool:
    return "mutation" in inspect.signature(check).parameters


MUTABLE_ROWS = [row for row in SWEEP_ROWS if takes_mutation(row[2].func)]


def test_the_sweep_runs_every_check():
    checks = {obj for name, obj in vars(identities).items() if name.startswith("check_")}
    assert {call.func for _, _, call in MUTABLE_ROWS} == checks


@pytest.mark.parametrize("row", range(len(MUTABLE_ROWS)))
def test_mutation_is_detected(row):
    _, _, call = MUTABLE_ROWS[row]
    name = f"row {row} ({call.func.__name__})"
    assert call().passed, f"{name} should pass unmutated"
    for index in (0, 1, 7):
        mutated = call(mutation=Mutation(index=index))
        assert not mutated.passed, f"{name} missed mutation at {index}"
        assert mutated.witness is not None and mutated.residual is not None


def test_symmetric_residual_witness_is_at_minus_the_top_index_of_its_half():
    lhs = x_embed([1, 2, 3])
    rhs = lhs + x_embed([0, 0, 0, F(1, 5)])
    residual = lhs - rhs
    assert len(residual._h) - 1 == 3
    r = _compare("half-residual", {}, [("first", lhs, lhs), ("second", lhs, rhs)])
    assert (r.witness.location, r.witness.lhs, r.witness.rhs) == ("second, z^-3", "0", "1/40")
    assert r.residual == str(residual)


# items with a pair side (p, c), and the same items with p * c formed
PAIR_P = x_embed([1, F(2, 3), 3])
PAIR_ITEMS = {
    "pass": [("right", PAIR_P * F(-7, 4), (PAIR_P, F(-7, 4))),
             ("left", (PAIR_P, F(5, 2)), PAIR_P * F(5, 2)),
             ("zero", LaurentPoly(), (PAIR_P, 0))],
    "fail": [("right", PAIR_P * F(-7, 4), (PAIR_P, F(-7, 4))),
             ("left", (PAIR_P, F(5, 2)), PAIR_P * F(5, 3)),
             ("later", x_embed([1]), (PAIR_P, 1))],
}


def _formed_items(items):
    return [(loc, *(v[0] * v[1] if isinstance(v, tuple) else v for v in sides))
            for loc, *sides in items]


@pytest.mark.parametrize("case", sorted(PAIR_ITEMS))
def test_a_pair_side_reports_as_its_formed_product(case):
    items = PAIR_ITEMS[case]
    assert _compare("pairs", {}, items) == _compare("pairs", {}, _formed_items(items))
    assert _compare("pairs", {}, items).verdict == case
    for index in range(len(items) + 1):
        mutation = Mutation(index=index, delta=F(-2, 7))
        report = _compare("pairs", {}, items, mutation)
        assert report == _compare("pairs", {}, _formed_items(items), mutation) and not report.passed


def test_a_passing_pair_forms_no_product(monkeypatch):
    products, multiply = [], LaurentPoly.__mul__

    def counted(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    assert _compare("pairs", {}, PAIR_ITEMS["pass"]).passed
    assert products == []
    assert not _compare("pairs", {}, PAIR_ITEMS["fail"]).passed
    assert products == [F(5, 2)]  # the witness forms the first differing pair


def test_a_stream_is_read_up_to_its_first_difference():
    def items():
        yield "first", F(1), F(2)
        raise RuntimeError("read past the first difference")

    report = _compare("stream", {}, items())
    assert (report.verdict, _witness(report)) == ("fail", ("first", "1", "2", "-1"))


@pytest.mark.parametrize("mutation", (None, Mutation(index=3)))
def test_an_empty_stream_raises_as_an_empty_list(mutation):
    for items in ([], iter(())):
        with pytest.raises(ParameterError) as exc:
            _compare("empty", {}, items, mutation)
        assert str(exc.value) == "check empty produced no comparison items"


def test_a_mutation_over_a_stream_indexes_modulo_its_length():
    items = [(f"i={i}", F(i), F(i)) for i in range(3)]
    for index in range(7):
        mutation = Mutation(index=index, delta=F(1, 3))
        report = _compare("stream", {}, iter(items), mutation)
        assert report == _compare("stream", {}, items, mutation)
        assert report.witness.location == f"i={index % 3}"


def test_every_check_reaches_its_verdict_through_compare(monkeypatch):
    # no check decides a row on a path of its own
    sentinel = CheckReport("sentinel", {}, "pass")
    monkeypatch.setattr(identities, "_compare", lambda *args, **kwargs: sentinel)
    for _, _, call in MUTABLE_ROWS:
        assert call() is sentinel, call.func.__name__


def test_scalar_beside_a_polynomial_is_witnessed_as_a_constant():
    # the z^-2 coefficient of the scalar 5 is 0, in either order
    poly = x_embed([0, 0, 1])  # (z^2 + 2 + z^-2) / 4
    r = _compare("mixed", {}, [("loc", F(5), poly)])
    assert (r.witness.location, r.witness.lhs, r.witness.rhs) == ("loc, z^-2", "0", "1/4")
    assert r.residual == str(5 - poly) == "-1/4 z^2 + 9/2 - 1/4 z^-2"
    r = _compare("mixed", {}, [("loc", poly, 5)])
    assert (r.witness.location, r.witness.lhs, r.witness.rhs) == ("loc, z^-2", "1/4", "0")
    assert r.residual == str(poly - 5)
    # a constant polynomial against another scalar: the witness is at z^0
    r = _compare("mixed", {}, [("loc", LaurentPoly.constant(F(1, 2)), 3)])
    assert (r.witness.location, r.witness.lhs, r.witness.rhs) == ("loc, z^0", "1/2", "3")


def _assert_weight_ratio_matches_its_oracle(qp):
    # the oracle (1 - w z^2)(1 - w z^-2), w = q^(1/2) beta = a^2, against the
    # check's left side (1 - az)(1 - a/z) times (1 + az)(1 + a/z), its right
    # side and its verdict
    w = qp.qhalf * qp.beta
    oracle = _o_mul(_o({0: 1, 2: -w}), _o({0: 1, -2: -w}))
    u, v = qp.a.numerator, qp.a.denominator
    lhs = LaurentPoly((u * u + v * v, -u * v), v * v) * LaurentPoly((u * u + v * v, u * v), v * v)
    assert terms(lhs) == oracle
    assert terms(x_embed([(1 + w) ** 2, 0, -4 * w])) == oracle
    assert check_weight_ratio(qp).passed


@pytest.mark.parametrize("qp", DEFAULT_QPARAMS + (QParams(F(1, 2), F(1)),))
def test_weight_ratio_factors_match_the_monomial_product(qp):
    _assert_weight_ratio_matches_its_oracle(qp)


@given(st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=20),
       st.fractions(min_value=F(1, 20), max_value=F(3, 1), max_denominator=20))
def test_weight_ratio_factors_match_the_monomial_product_random_carriers(t, s):
    if not s * t < 1:
        s = (1 - 1 / F(s.denominator + 1)) / t
    _assert_weight_ratio_matches_its_oracle(QParams(t, s))


def test_mutation_witness_localizes():
    r = check_duality_cqu(QP, 3, mutation=Mutation(index=0))
    assert r.witness.location.startswith("m=0, n=0")
    r = check_difference_formula(QP, 5, mutation=Mutation(index=2))
    assert r.witness.location.startswith("n=4")
    r = check_linearization_classical(F(1, 2), 3, 2, mutation=Mutation(index=3))
    assert "sum" in r.witness.location or "j=" in r.witness.location


@pytest.mark.parametrize("mutated_first", (True, False))
def test_shared_lattice_serves_no_mutated_or_stale_value(mutated_first):
    # (l, m) = (3, 2): the inversion row and a direct row share one lattice
    # and one set of closed coefficients; the (2, 2) direct row and theorem
    # 5.1 on the small grid evict them, and the second pass builds them again
    calls = (
        partial(check_dual_addition_q_inversion, QP, 3, 2),
        partial(check_dual_addition_q_direct, QP, 3, 2, 1),
        partial(check_dual_addition_q_direct, QP, 2, 2, 1),
        partial(check_theorem_5_1, QP, 2, 2),
    )
    for call in calls * 2:
        for index in range(3):
            runs = (Mutation(index=index), None) if mutated_first else (None, Mutation(index=index))
            for mut in runs:
                report = call(mutation=mut)
                assert report.passed == (mut is None), (index, mut, report)


def test_report_serialization_shape():
    r = check_weight_ratio(QP)
    d = r.to_dict()
    assert d == {"id": "weight-recurrence", "params": {"s": "2/3", "t": "1/2"}, "verdict": "pass"}
    r = check_weight_ratio(QP, mutation=Mutation(index=0, delta=F(1, 7)))
    d = r.to_dict()
    assert d["verdict"] == "fail"
    assert d["witness"]["location"] == "weight-ratio, z^0"
    assert d["witness"]["lhs"] != d["witness"]["rhs"]
    assert d["residual"] == "1/7"
