"""Identity checks: verdicts, witnesses, oracles, fail-negative behavior."""

import inspect
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qaskey import cli
from qaskey.errors import ParameterError
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
    check_addition_classical,
    check_addition_legendre,
    check_addition_q,
    check_backward_shift,
    check_cqu_representations,
    check_difference_formula,
    check_dual_addition,
    check_dual_addition_a_form,
    check_duality_cqu,
    check_duality_discrete,
    check_linearization,
    check_orthogonality_discrete,
    check_product_formula_classical,
    check_restriction_equivalence,
    check_theorem_5_1,
    check_weight_ratio,
    dual_projection_closed,
    dual_projection_sum,
    linearization_qracah_params,
    linearization_racah_params,
    weight_moments,
    _closed_projection_prefactors,
    _compare,
    _dual_addition_coeffs_q,
    _dual_addition_scalars,
    _qpoch_a2z2,
    _shifted_product,
)
from qaskey.laurent import LaurentPoly, SymmetricLaurent, x_embed
from qaskey.series import qpochhammer
from closed_forms import (
    cqu_leading_z_coeff,
    dual_addition_scalar_per_k,
    projection_prefactor_per_k,
    qpoch_laurent_pow,
    qracah_phi,
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
    ("q-racah", linearization_qracah_params(QP, 5, 4)),
])
def test_orthogonality_discrete(family, params):
    report = check_orthogonality_discrete(params)
    assert report.passed and report.check_id == f"orthogonality-{family}"


def test_discrete_checks_reject_a_record_with_no_such_relation():
    qrp = linearization_qracah_params(QP, 4, 3)
    with pytest.raises(ParameterError, match="no duality check for QRacahParams"):
        check_duality_discrete(qrp)
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
    qrp = linearization_qracah_params(QP, 4, 3)
    assert check_backward_shift(qrp, 3).passed


@pytest.mark.parametrize("qp", DEFAULT_QPARAMS + (QParams(F(1, 2), F(1)),))
def test_backward_shift_on_every_lattice_to_l_6(qp):
    # N = 1 included, where the shifted record is the one-point lattice
    failed = [(l, m, nmax) for l in range(1, 7) for m in range(1, l + 1) for nmax in range(1, m + 1)
              if not check_backward_shift(linearization_qracah_params(qp, l, m), nmax).passed]
    assert failed == []


def test_backward_shift_constant_function_annihilates():
    # summing the degree-1 member against a constant is an orthogonality
    # statement: both sides of the summed relation are exactly 0
    qrp = linearization_qracah_params(QP, 4, 3)
    lhs = sum(qracah_weight(x, qrp) * qracah(1, x, qrp) for x in range(qrp.N + 1))
    assert lhs == 0  # and the telescoped side is 0 termwise since f(x) - f(x+1) = 0


def test_theorem_5_1_small_grid():
    assert check_theorem_5_1(ParamGrid(lmax=3, qparams=(QP,))).passed


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
    assert dual_projection_sum(k, l, m, qp) == dual_projection_closed(k, l, m, qp)


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
        closed = _dual_addition_coeffs_q(qp, l, m)
        for k, c in enumerate(_dual_addition_scalars(qp, l, m)):
            assert closed[k] == _shifted_product(k, l, m, qp) * c


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


def test_closed_prefactor_table_is_built_once_per_lattice():
    # the k-loop of theorem 5.1 is innermost: one table per (carrier, l, m)
    _closed_projection_prefactors.cache_clear()
    assert check_theorem_5_1(ParamGrid(lmax=3)).passed
    info = _closed_projection_prefactors.cache_info()
    lattices = 3 * 10  # carriers times the pairs m <= l <= 3
    assert (info.misses, info.hits) == (lattices, 3 * 20 - lattices)


def test_projection_sum_base_case_factors():
    # k = 0 reduces to the lattice mass times the plain product
    for (l, m) in [(2, 1), (3, 3), (4, 0)]:
        s0 = dual_projection_closed(0, l, m, QP)
        assert s0 == cqu_r(l, QP) * cqu_r(m, QP) * linearization_qracah_params(QP, l, m).h0
    assert dual_projection_closed(0, 0, 0, QP) == LaurentPoly.constant(1)
    assert dual_projection_sum(0, 0, 0, QP) == LaurentPoly.constant(1)


def test_projection_sum_one_step_reduction():
    # the single-step recurrence behind the closed form, with both sides
    # computed by brute lattice sums
    q, b, qh, t, s = QP.q, QP.beta, QP.qhalf, QP.t, QP.s
    for (k, l, m) in [(1, 2, 1), (2, 3, 2), (3, 4, 3)]:
        lhs = dual_projection_sum(k, l, m, QP)
        fac = (t ** (2 * (l + m + 1)) * s * s) * qpochhammer(t ** (2 - 4 * (l + m)) / b, q, 1)
        fac /= qpochhammer(-qh * b, q, 1) * qpochhammer(q * b, q, 1) * qpochhammer(-q * b, q, 1)
        lkz = LaurentPoly.constant(1)
        for sign in (1, -1):
            lkz = lkz * qpoch_laurent_pow(sign * QP.a, 1, qh, 1)
            lkz = lkz * qpoch_laurent_pow(sign * QP.a, -1, qh, 1)
        rhs = lkz * dual_projection_sum(k - 1, l - 1, m - 1, QP.beta_shift(1)) * fac
        assert lhs == rhs


def test_projection_sum_input_validation():
    for projection in (dual_projection_sum, dual_projection_closed):
        with pytest.raises(ParameterError, match=r"need 0 <= k <= m <= l"):
            projection(2, 3, 1, QP)


def test_linearization_q():
    for (l, m) in [(5, 3), (4, 4), (3, 0)]:
        assert check_linearization("q", l, m, qp=QP).passed


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
    assert max(k for k, _ in residual.items()) < l + m


def test_linearization_classical_and_legendre():
    for alpha in (F(0), F(1, 2), F(1), F(1, 4)):
        assert check_linearization("classical", 5, 4, alpha=alpha).passed
    assert check_linearization("legendre", 4, 3).passed
    assert check_linearization("legendre", 1, 1).passed


def test_dual_addition_q_both_modes():
    for (l, m, j) in [(2, 1, 1), (3, 2, 0), (4, 4, 2), (3, 0, 0)]:
        assert check_dual_addition("q", l, m, j, "direct", qp=QP).passed
    for (l, m) in [(2, 1), (3, 3), (5, 2)]:
        assert check_dual_addition("q", l, m, mode="inversion", qp=QP).passed


def test_dual_addition_modes_are_mutually_consistent():
    # inversion coefficients times the norms reproduce the brute sums
    l, m = 3, 2
    qrp = linearization_qracah_params(QP, l, m)
    closed = _dual_addition_coeffs_q(QP, l, m)
    for k in range(m + 1):
        assert closed[k] * qracah_norms(k, qrp) == dual_projection_sum(k, l, m, QP)


def test_lattice_norms_share_one_h0():
    # norm(k) = (h_k/h_0) h_0 of one lattice take h0 from the cached
    # property of its q-Racah record: one computation for all of them
    linearization_qracah_params.cache_clear()
    qrp = linearization_qracah_params(QP, 5, 3)
    assert "h0" not in vars(qrp)
    norms = [qracah_norms(k, qrp) for k in range(4)]
    h0 = vars(qrp)["h0"]
    assert qrp.h0 is h0 == norms[0]


def test_one_record_and_one_value_memo_per_lattice(monkeypatch):
    # the inversion row and the m + 1 direct rows of one lattice get one
    # record, and sum each of its (m + 1)^2 values once, on that record
    from qaskey import families, identities

    l, m = 4, 3
    make, qhyper_sum = linearization_qracah_params, families.qhyper_sum
    make.cache_clear()
    records, sums = [], []
    monkeypatch.setattr(identities, "linearization_qracah_params",
                        lambda *args: records.append(make(*args)) or records[-1])
    monkeypatch.setattr(families, "qhyper_sum", lambda *args: sums.append(args) or qhyper_sum(*args))
    assert check_dual_addition("q", l, m, mode="inversion", qp=QP).passed
    for j in range(m + 1):
        assert check_dual_addition("q", l, m, j, "direct", qp=QP).passed
    assert records and all(qrp is records[0] for qrp in records)
    assert len(sums) == (m + 1) ** 2 == len(records[0]._values)


def test_dual_addition_classical_and_a_form():
    assert check_dual_addition("classical", 2, 2, 1, alpha=F(1, 2)).passed
    assert check_dual_addition("classical", 4, 3, 2, alpha=F(1)).passed
    assert check_dual_addition_a_form(QP, 3, 2, 1).passed


@pytest.mark.parametrize("qp", DEFAULT_QPARAMS + (QParams(F(1, 2), F(1)),))
def test_square_factor_matches_its_qpochhammer_products(qp):
    # (a^2 z^2, a^2 z^-2; q)_k against its two z-products, and against the
    # factored form (+-a z, +-a z^-1; q^(1/2))_k
    a, a2, q = qp.a, qp.a * qp.a, qp.q
    for k in range(7):
        built = _qpoch_a2z2(qp, k)
        assert built == qpoch_laurent_pow(a2, 2, q, k) * qpoch_laurent_pow(a2, -2, q, k)
        pm = LaurentPoly.constant(1)
        for sign in (1, -1):
            pm = pm * qpoch_laurent_pow(sign * a, 1, qp.qhalf, k)
            pm = pm * qpoch_laurent_pow(sign * a, -1, qp.qhalf, k)
        assert built == pm


def test_classical_fail_witness_is_a_z_coefficient():
    r = check_linearization("classical", 3, 2, alpha=F(1, 2), mutation=Mutation(0))
    assert (r.witness.location, r.residual) == ("explicit-form sum, z^0", "1")
    r = check_dual_addition("classical", 3, 2, 1, alpha=F(1, 2), mutation=Mutation(0))
    assert (r.witness.location, r.residual) == ("l=3, m=2, j=1, z^0", "1")


def test_addition_q():
    for n in range(5):
        assert check_addition_q(QPA, n, F(2), F(3)).passed
    assert check_addition_q(QPA, 3, F(3, 2), F(5, 4)).passed


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

# every row of the `all` suite, and the rows whose check takes a mutation
SWEEP_ROWS = list(cli.SUITES["all"](ParamGrid(lmax=1)))


def takes_mutation(check) -> bool:
    return "mutation" in inspect.signature(check).parameters


MUTABLE_ROWS = [(check, kwargs) for check, kwargs in SWEEP_ROWS if takes_mutation(check)]


@pytest.mark.parametrize("row", range(len(MUTABLE_ROWS)))
def test_mutation_is_detected(row):
    check, kwargs = MUTABLE_ROWS[row]
    name = f"row {row} ({check.__name__})"
    assert check(**kwargs).passed, f"{name} should pass unmutated"
    for index in (0, 1, 7):
        mutated = check(**kwargs, mutation=Mutation(index=index))
        assert not mutated.passed, f"{name} missed mutation at {index}"
        assert mutated.witness is not None and mutated.residual is not None


def test_symmetric_residual_witness_is_at_minus_the_top_index_of_its_half():
    lhs = x_embed([1, 2, 3])
    rhs = lhs + x_embed([0, 0, 0, F(1, 5)])
    residual = lhs - rhs
    assert isinstance(residual, SymmetricLaurent) and len(residual._h) - 1 == 3
    r = _compare("half-residual", {}, [("first", lhs, lhs), ("second", lhs, rhs)])
    assert (r.witness.location, r.witness.lhs, r.witness.rhs) == ("second, z^-3", "0", "1/40")
    assert r.residual == str(residual)


def test_mutation_witness_localizes():
    r = check_duality_cqu(QP, 3, mutation=Mutation(index=0))
    assert r.witness.location.startswith("m=0, n=0")
    r = check_difference_formula(QP, 5, mutation=Mutation(index=2))
    assert r.witness.location.startswith("n=4")
    r = check_linearization("classical", 3, 2, alpha=F(1, 2), mutation=Mutation(index=3))
    assert "sum" in r.witness.location or "j=" in r.witness.location


@pytest.mark.parametrize("mutated_first", (True, False))
def test_shared_lattice_serves_no_mutated_or_stale_value(mutated_first):
    # (l, m) = (3, 2): the inversion row and a direct row share one lattice
    # and one set of closed coefficients; the (2, 2) direct row and theorem
    # 5.1 on the small grid evict them, and the second pass builds them again
    thunks = (
        lambda mut: check_dual_addition("q", 3, 2, mode="inversion", qp=QP, mutation=mut),
        lambda mut: check_dual_addition("q", 3, 2, 1, "direct", qp=QP, mutation=mut),
        lambda mut: check_dual_addition("q", 2, 2, 1, "direct", qp=QP, mutation=mut),
        lambda mut: check_theorem_5_1(ParamGrid(lmax=2, qparams=(QP,)), mutation=mut),
    )
    for thunk in thunks * 2:
        for index in range(3):
            runs = (Mutation(index=index), None) if mutated_first else (None, Mutation(index=index))
            for mut in runs:
                report = thunk(mut)
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
