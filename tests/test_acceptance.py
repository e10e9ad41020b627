"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every exact criterion asserts a zero residual; the float criteria
assert their stated tolerances and ratio bands.

The limit criteria carry no rates in the paper, so each band is the order
the limit actually has, +-30% of its center: Hahn -> Jacobi converges at
first order (final ratio about 1/2 per doubling of N, 10a), and the two
q -> 1 limits of the one-parameter family converge at second order
(about 1/4 per halving of 1-q, 10d-10f).  In the self-dual normalization
the family is exactly invariant under (q, beta) -> (1/q, 1/beta), so its
error is an even function of ln q; 10d and 10e assert that invariance
alongside their bands, and 10f checks it in exact arithmetic.
"""

import math
import time

from fractions import Fraction as F

from qaskey.families import (
    HahnParams,
    KrawtchoukParams,
    RacahParams,
    WilsonParams,
    cqu_r,
)
from qaskey.identities import (
    ADDITION_POINTS_U,
    ADDITION_POINTS_V,
    ADDITION_QPARAMS,
    DEFAULT_QPARAMS,
    PYTHAGOREAN_PAIRS,
    Mutation,
    check_addition_classical,
    check_addition_legendre,
    check_addition_q,
    check_backward_shift,
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
    check_difference_formula,
    linearization_qracah_params,
    linearization_racah_params,
)
from qaskey import numerics
from qaskey.numerics import (
    _dual_addition_term_q,
    bessel_script_j,
    cqu_r_float,
    limit_check,
    numeric_aw_h0,
    numeric_orthogonality_cqu,
)
from closed_forms import cqu_leading_z_coeff, qracah_at_top

P = PYTHAGOREAN_PAIRS
QP0 = DEFAULT_QPARAMS[0]


def _criterion(num, description, ok, detail="", budget=None, elapsed=None):
    stamp = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        stamp += f" [{detail}]"
    if elapsed is not None:
        stamp += f" ({elapsed:.1f}s)"
    print(stamp)
    assert ok, stamp
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget: {elapsed:.1f}s"


def test_criterion_1_projection_sum_closed_form():
    started = time.monotonic()
    ok = all(check_theorem_5_1(qp, 5, 5).passed for qp in DEFAULT_QPARAMS)
    elapsed = time.monotonic() - started
    _criterion(1, "projection sums: brute = closed, 0<=k<=m<=l<=5, 3 carriers",
               ok, budget=30, elapsed=elapsed)


def test_criterion_2_dual_addition_exact():
    started = time.monotonic()
    ok = True
    for qp in DEFAULT_QPARAMS:
        for l in range(6):
            for m in range(l + 1):
                ok = ok and check_dual_addition_q_inversion(qp, l, m).passed
                for j in range(m + 1):
                    ok = ok and check_dual_addition_q_direct(qp, l, m, j).passed
    elapsed = time.monotonic() - started
    _criterion(2, "dual addition: direct all j, inversion all k, grid <= 5",
               ok, budget=60, elapsed=elapsed)


def test_criterion_3_restriction_equivalence():
    started = time.monotonic()
    ok = True
    for l in range(4):
        for m in range(l + 1):
            for j in range(m + 1):
                for n in range(m, 5):
                    ok = ok and check_restriction_equivalence(QP0, l, m, j, n).passed
    elapsed = time.monotonic() - started
    _criterion(3, "restricted expansions coincide termwise, l<=3, n<=4",
               ok, budget=10, elapsed=elapsed)


def test_criterion_4_addition_formula():
    started = time.monotonic()
    ok = True
    for qp in ADDITION_QPARAMS:
        for u in ADDITION_POINTS_U:
            for v in ADDITION_POINTS_V:
                for n in range(6):
                    ok = ok and check_addition_q(qp, n, u, v).passed
    elapsed = time.monotonic() - started
    _criterion(4, "addition formula exact in z, n<=5, u in {2,3/2}, v in {3,5/4}",
               ok, budget=10, elapsed=elapsed)


def test_criterion_5_linearization_suites():
    started = time.monotonic()
    ok = True
    for qp in DEFAULT_QPARAMS:
        for l in range(6):
            for m in range(l + 1):
                ok = ok and check_linearization_q(qp, l, m).passed
    for alpha in (F(0), F(1, 2), F(1), F(1, 4)):
        for l in range(7):
            for m in range(l + 1):
                ok = ok and check_linearization_classical(alpha, l, m).passed
    for l in range(7):
        for m in range(l + 1):
            ok = ok and check_linearization_legendre(l, m).passed
    # the degree-(1,1) legendre instance has coefficients 1/3 and 2/3
    lat = linearization_racah_params(F(0), 1, 1)
    from qaskey.families import racah_h0, racah_weight

    h0 = racah_h0(lat)
    coeffs = [racah_weight(j, lat) / h0 for j in range(2)]
    ok = ok and coeffs == [F(2, 3), F(1, 3)]
    elapsed = time.monotonic() - started
    _criterion(5, "linearization: q/classical/legendre forms agree, weights nonnegative",
               ok, detail=f"legendre(1,1) coefficients {coeffs[1]}, {coeffs[0]}",
               budget=10, elapsed=elapsed)


def test_criterion_6_dualities():
    started = time.monotonic()
    ok = True
    for N in range(1, 6):
        ok = ok and check_duality_discrete(KrawtchoukParams(F(1, 3), N)).passed
        ok = ok and check_duality_discrete(HahnParams(F(1, 2), F(1, 3), N)).passed
        ok = ok and check_duality_discrete(HahnParams(F(2), F(1), N)).passed
    for N in range(1, 5):
        ok = ok and check_duality_discrete(RacahParams(F(1, 2), F(1, 3), N, F(1, 5))).passed
    ok = ok and check_duality_discrete(WilsonParams(F(1), F(3, 2), F(2), F(5, 2))).passed
    for qp in DEFAULT_QPARAMS:
        ok = ok and check_duality_cqu(qp, 6).passed
    elapsed = time.monotonic() - started
    _criterion(6, "dualities: krawtchouk, hahn, racah, wilson, q-family lattice",
               ok, budget=5, elapsed=elapsed)


def test_criterion_7_discrete_orthogonality():
    started = time.monotonic()
    ok = True
    ok = ok and check_orthogonality_discrete(KrawtchoukParams(F(1, 3), 5)).passed
    ok = ok and check_orthogonality_discrete(KrawtchoukParams(F(1, 2), 4)).passed
    ok = ok and check_orthogonality_discrete(linearization_racah_params(F(1, 2), 5, 3)).passed
    ok = ok and check_orthogonality_discrete(linearization_racah_params(F(1), 4, 4)).passed
    ok = ok and check_orthogonality_q_racah(QP0, 5, 4).passed
    ok = ok and check_orthogonality_q_racah(DEFAULT_QPARAMS[2], 4, 3).passed
    elapsed = time.monotonic() - started
    _criterion(7, "full Gram matrices match closed-form norms incl. total mass",
               ok, budget=5, elapsed=elapsed)


def test_criterion_8_structural_formulas():
    started = time.monotonic()
    ok = True
    for qp in DEFAULT_QPARAMS:
        for n in range(9):
            ok = ok and cqu_r(n, qp).coeff(n) == cqu_leading_z_coeff(n, qp)
        ok = ok and check_weight_ratio(qp).passed
        ok = ok and check_difference_formula(qp, 8).passed
    from qaskey.families import qracah

    qrp = linearization_qracah_params(QP0, 4, 3)
    for n in range(4):
        ok = ok and qracah(n, qrp.N, qrp) == qracah_at_top(n, qrp)
    ok = ok and check_backward_shift(QP0, 4, 3, 3).passed
    ok = ok and check_backward_shift(DEFAULT_QPARAMS[1], 5, 4, 4).passed
    elapsed = time.monotonic() - started
    _criterion(8, "leading coefficient, weight ratio, difference formula, "
                  "backward shift with edges, summed form", ok, budget=5, elapsed=elapsed)


def test_criterion_9_classical_addition_and_product():
    started = time.monotonic()
    ok = True
    combos = ((P[0], P[1], P[2]), (P[1], P[2], P[0]), (P[2], P[0], P[1]))
    for alpha in (F(0), F(1, 2), F(1)):
        for xp, yp, tp in combos:
            for n in range(6):
                ok = ok and check_addition_classical(alpha, n, xp, yp, tp[0]).passed
    for xp, yp, pp in combos:
        for n in range(6):
            ok = ok and check_addition_legendre(n, xp, yp, pp).passed
    for alpha in (F(0), F(1, 2), F(1)):
        for xp, yp in ((P[0], P[1]), (P[1], P[2]), (P[0], P[2])):
            for n in range(7):
                ok = ok and check_product_formula_classical(alpha, n, xp, yp).passed
    elapsed = time.monotonic() - started
    _criterion(9, "classical addition (2 forms), legendre addition, product via moments",
               ok, budget=10, elapsed=elapsed)


# -- criterion 10, split so the green parts stay visible ----------------------


def test_criterion_10_hahn_to_jacobi_band():
    report = limit_check("hahn-to-jacobi", alpha=0.0, beta=0.0, n=2)
    tail = report.errors[-4:]
    ok = all(a > b for a, b in zip(tail, tail[1:])) and 0.35 <= report.ratios[-1] <= 0.65
    _criterion("10a", "hahn->jacobi: strict decrease, final ratio in [0.35, 0.65]",
               ok, detail=f"ratio={report.ratios[-1]:.4f}")


def test_criterion_10_jacobi_to_bessel():
    started = time.monotonic()
    ok = True
    detail = []
    for lam in (1.0, 2.0):
        report = limit_check("jacobi-to-bessel", alpha=0.5, beta=1.0 / 3.0, lam=lam)
        decreasing = all(a > b for a, b in zip(report.errors, report.errors[1:]))
        ok = ok and decreasing and report.errors[-1] < 1e-3
        detail.append(f"final({lam:g})={report.errors[-1]:.2e}")
    elapsed = time.monotonic() - started
    _criterion("10b", "jacobi->bessel: monotone decrease to < 1e-3 at 2^10",
               ok, detail=", ".join(detail), budget=30, elapsed=elapsed)


def test_criterion_10_bessel_special_cases():
    worst = 0.0
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        worst = max(worst, abs(bessel_script_j(-0.5, x) - math.cos(x)))
        worst = max(worst, abs(bessel_script_j(0.5, x) - math.sin(x) / x))
    _criterion("10c", "Bessel-type special cases (cos x, sin x / x) to 1e-12",
               worst < 1e-12, detail=f"worst={worst:.2e}")


def test_criterion_10_cqu_to_ultra_band_as_stated():
    # Second order: R_n(x; beta | q) = R_n(x; 1/beta | 1/q) exactly, so the
    # error has no term linear in ln q and quarters when 1-q halves.
    report = limit_check("cqu-to-ultra", alpha=0.5, n=3)
    tail = report.errors[-4:]
    ratio = report.ratios[-1]
    ok = all(a > b for a, b in zip(tail, tail[1:])) and 0.175 <= ratio <= 0.325
    # The invariance at the points of the `limits` suite row for this kind,
    # at the first schedule value and one nearer to 1.  R_3 is odd
    # and vanishes at x = 0, so the residual is taken relative to
    # max(1, |R_n|); the family's scale is set by R_n(x0) = 1.
    alpha, n = 0.5, 3
    worst = 0.0
    for q in (report.schedule[0], report.schedule[3]):
        for x in (0.0, 0.3, -0.3, 0.7, -0.7):
            value = cqu_r_float(n, q, q ** alpha, x)
            inverted = cqu_r_float(n, 1 / q, q ** -alpha, x)
            worst = max(worst, abs(value - inverted) / max(1.0, abs(value)))
    ok = ok and worst <= 1e-12
    _criterion("10d", "cqu->ultraspherical: strict decrease, final ratio in [0.175, 0.325] "
               "(second order), q -> 1/q invariance to 1e-12",
               ok, detail=f"ratio={ratio:.4f}, invariance residual={worst:.1e}")


def test_criterion_10_dual_addition_band_as_stated():
    # Second order for the same reason as 10d: every term of the q-side
    # expansion is invariant under (q, beta) -> (1/q, 1/beta).
    report = limit_check("dual-addition-q-to-1", alpha=0.5, l=3, m=2)
    tail = report.errors[-4:]
    ratio = report.ratios[-1]
    ok = all(a > b for a, b in zip(tail, tail[1:])) and 0.175 <= ratio <= 0.325
    # The invariance term by term over the k, j and x of the `limits`
    # suite row for this kind.
    alpha, l, m = 0.5, 3, 2
    worst = 0.0
    for q in (report.schedule[0], report.schedule[3]):
        for k in range(m + 1):
            for j in range(m + 1):
                for x in (0.15, 0.45, 0.8):
                    value = _dual_addition_term_q(k, l, m, j, q, q ** alpha, x)
                    inverted = _dual_addition_term_q(k, l, m, j, 1 / q, q ** -alpha, x)
                    worst = max(worst, abs(value - inverted) / abs(value))
    ok = ok and worst <= 1e-12
    _criterion("10e", "dual addition q->1 termwise: strict decrease, final ratio in "
               "[0.175, 0.325] (second order), q -> 1/q invariance to 1e-12",
               ok, detail=f"ratio={ratio:.4f}, invariance residual={worst:.1e}")


def test_criterion_10_structural_rates_supplement():
    # The true convergence behavior: strict decrease and quartering ratios
    # for the q -> 1 limits of the self-dual normalization.
    started = time.monotonic()
    ok = True
    detail = []
    for kind, params in (
        ("cqu-to-ultra", {"alpha": 0.5, "n": 3}),
        ("dual-addition-q-to-1", {"alpha": 0.5, "l": 3, "m": 2}),
    ):
        report = limit_check(kind, **params)
        ok = ok and report.verdict == "pass" and 0.175 <= report.ratios[-1] <= 0.325
        detail.append(f"{kind}: ratio={report.ratios[-1]:.4f}")
    # exact arithmetic behind the rate: the family is invariant under the
    # base inversion q -> 1/q, so its error in 1-q has no linear term
    from qaskey.families import cqu_r as _cqu
    from closed_forms import _o, _o_add, _o_mul, _o_scale, terms

    qp = QP0
    q, a = qp.q, qp.a
    coeff = F(1)
    lpart = {0: F(1)}
    total = lpart
    qpow = F(1)
    n = 5
    qi, ai, qhi = 1 / q, 1 / a, 1 / qp.qhalf
    nums = (qi ** (-n), qi ** n * ai ** 4)
    dens = (qhi * ai * ai, -ai * ai, -qhi * ai * ai)
    for k in range(n):
        for v in nums:
            coeff *= 1 - qpow * v
        az = qpow * ai
        lpart = _o_mul(lpart, _o_mul(_o({0: 1, 1: -az}), _o({0: 1, -1: -az})))
        qpow *= qi
        den = 1 - qpow
        for v in dens:
            den *= 1 - (qpow / qi) * v
        coeff = coeff * qi / den
        total = _o_add(total, _o_scale(lpart, coeff))
    ok = ok and total == terms(_cqu(n, qp))
    elapsed = time.monotonic() - started
    _criterion("10f", "structural second-order rate + exact base-inversion invariance",
               ok, detail="; ".join(detail), budget=30, elapsed=elapsed)


def test_criterion_11_numeric_orthogonality():
    started = time.monotonic()
    ok = True
    worst = 0.0
    for m in range(5):
        for n in range(m + 1, 5):
            worst = max(worst, float(numeric_orthogonality_cqu(QP0, m, n)["residual"]))
    ok = ok and worst < 1e-8
    deviation = float(numeric_aw_h0(QP0)["residual"])
    ok = ok and deviation < 1e-8
    elapsed = time.monotonic() - started
    _criterion(11, "numeric orthogonality: off-diagonals < 1e-8, circle mass matches closed form",
               ok, detail=f"worst offdiag={worst:.2e}, h0 deviation={deviation:.2e}",
               budget=30, elapsed=elapsed)


def test_criterion_12_fail_negative_sweep(monkeypatch):
    started = time.monotonic()
    from tests.test_identities import MUTABLE_ROWS
    from tests.test_numerics import bump_final_limit_error, perturbed

    detected = 0
    total = 0
    for _, _, call in MUTABLE_ROWS:
        for index in (0, 5):
            total += 1
            report = call(mutation=Mutation(index=index))
            if not report.passed and report.witness is not None:
                detected += 1
    # float suites: spurious bump on a limit error, and inner-product quadratures
    # off by 1e-6 (1 + degree)
    total += 1
    bump_final_limit_error(monkeypatch, "cqu-to-ultra", 1.0)
    if limit_check("cqu-to-ultra", alpha=0.5, n=3).verdict == "fail":
        detected += 1
    total += 1
    with perturbed("_cqu_inner", 1e-6):
        if numerics.numeric_orthogonality_cqu(QP0, 1, 2)["verdict"] == "fail":
            detected += 1
    elapsed = time.monotonic() - started
    _criterion(12, "fail-negative sweep: every mutated check fails with a witness",
               detected == total, detail=f"{detected}/{total} detected",
               budget=60, elapsed=elapsed)
