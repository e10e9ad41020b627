"""Float companion: Bessel series, limit schedules, weights, quadrature."""

import cmath
import math
import random
from contextlib import contextmanager

import pytest

from fractions import Fraction as F

from qaskey import numerics
from qaskey.errors import NonConvergence, ParameterError
from qaskey.families import QParams
from qaskey.numerics import (
    RATIO_BANDS,
    SECOND_ORDER_BAND,
    _aw_params_floats,
    _cqu_inner,
    aw_h0_closed,
    aw_weight,
    bessel_script_j,
    cqu_weight,
    float_exact_consistency,
    limit_check,
    numeric_aw_h0,
    numeric_orthogonality_cqu,
    qpoch_infinite,
    refine_integral,
)

QP = QParams(F(1, 2), F(2, 3))


def test_bessel_special_cases():
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        assert abs(bessel_script_j(-0.5, x) - math.cos(x)) < 1e-12
        assert abs(bessel_script_j(0.5, x) - math.sin(x) / x) < 1e-12


def test_bessel_even_and_at_zero():
    assert bessel_script_j(0.7, 0.0) == 1.0
    for x in (0.3, 1.7, 4.0):
        assert bessel_script_j(1.25, -x) == bessel_script_j(1.25, x)


def test_bessel_error_paths():
    with pytest.raises(ParameterError):
        bessel_script_j(-1.5, 1.0)
    with pytest.raises(NonConvergence):
        bessel_script_j(0.5, 1e6)


@pytest.mark.parametrize("kind,params", [
    ("cqu-to-ultra", {"alpha": 0.5, "n": 3}),
    ("hahn-to-jacobi", {"alpha": 0.0, "beta": 0.0, "n": 2}),
    ("jacobi-to-bessel", {"alpha": 0.5, "beta": 1.0 / 3.0, "lam": 1.0}),
    ("jacobi-to-bessel", {"alpha": 0.5, "beta": 1.0 / 3.0, "lam": 2.0}),
    ("dual-addition-q-to-1", {"alpha": 0.5, "l": 3, "m": 2}),
])
def test_limit_checks_pass(kind, params):
    report = limit_check(kind, **params)
    assert report.verdict == "pass", report
    # a pass with nonzero errors implies strict decrease over the last four
    if any(report.errors):
        tail = report.errors[-4:]
        assert all(a > b for a, b in zip(tail, tail[1:]))


def test_limit_ratio_bands():
    # Hahn -> Jacobi is first order; the q -> 1 family limits are second
    # order because of the exact q -> 1/q invariance of the normalization.
    r = limit_check("hahn-to-jacobi", alpha=0.0, beta=0.0, n=2)
    assert 0.35 <= r.ratios[-1] <= 0.65
    r = limit_check("cqu-to-ultra", alpha=0.5, n=3)
    assert 0.175 <= r.ratios[-1] <= 0.325
    r = limit_check("dual-addition-q-to-1", alpha=0.5, l=3, m=2)
    assert 0.175 <= r.ratios[-1] <= 0.325
    assert RATIO_BANDS["cqu-to-ultra"] == (0.175, 0.325)


def test_dual_addition_limit_at_beta_one():
    # alpha = 0 puts beta = q^alpha at 1, where the ratio
    # (1 - beta^2 q^(2k)) / (1 - beta^2 q^k) is 0/0 at k = 0
    r = limit_check("dual-addition-q-to-1", alpha=0.0, l=3, m=2)
    assert r.verdict == "pass", r
    lo, hi = SECOND_ORDER_BAND
    assert lo <= r.ratios[-1] <= hi


def test_limit_degenerate_degree_zero():
    report = limit_check("cqu-to-ultra", alpha=0.5, n=0)
    assert report.verdict == "pass"
    assert all(e == 0.0 for e in report.errors)


# each limit kind with the parameters of its `limits` suite row
LIMIT_ROWS = (
    ("cqu-to-ultra", {"alpha": 0.5, "n": 3}),
    ("hahn-to-jacobi", {"alpha": 0.0, "beta": 0.0, "n": 2}),
    ("jacobi-to-bessel", {"alpha": 0.5, "beta": 1.0 / 3.0, "lam": 1.0}),
    ("dual-addition-q-to-1", {"alpha": 0.5, "l": 3, "m": 2}),
)


def bump_final_limit_error(monkeypatch, kind: str, bump: float) -> None:
    """Make the error function of `kind` add `bump` at its last schedule step."""
    schedule, error_at = numerics._LIMITS[kind]

    def bumped(step, **params):
        return error_at(step, **params) + (bump if step == schedule[-1] else 0.0)

    monkeypatch.setitem(numerics._LIMITS, kind, (schedule, bumped))


def test_limit_mutation_bump_fails(monkeypatch):
    for kind, params in LIMIT_ROWS:
        bump_final_limit_error(monkeypatch, kind, 1.0)
        report = limit_check(kind, **params)
        assert report.verdict == "fail", kind


def test_limit_report_serialization():
    report = limit_check("hahn-to-jacobi", alpha=0.0, beta=0.0, n=2)
    assert report.kind == "hahn-to-jacobi" and report.verdict == "pass"
    assert len(report.errors) == len(report.schedule) == 7
    assert len(report.ratios) == 6
    record = numerics.limit("hahn-to-jacobi", alpha=0.0, beta=0.0, n=2)
    assert record["id"] == "limit-hahn-to-jacobi" and record["verdict"] == "pass"
    assert record["params"] == {"alpha": "0.0", "beta": "0.0", "n": "2"}
    assert record["schedule"] == [str(v) for v in report.schedule]
    assert record["errors"] == [repr(e) for e in report.errors]
    assert record["ratios"] == [repr(r) for r in report.ratios]


def test_unknown_limit_kind():
    with pytest.raises(ParameterError):
        limit_check("nope")


def test_qpoch_infinite_truncation():
    # golden value against a longer direct product
    q, b = 0.25, 0.6
    direct = 1.0
    for j in range(60):
        direct *= 1 - q ** j * b
    assert abs(qpoch_infinite(b, q) - direct) < 1e-15


def test_weight_ratio_matches_exact():
    q, beta = float(QP.q), float(QP.beta)
    for theta in (0.4, 1.0, 1.7, 2.3, 2.8):
        w = cqu_weight(q, beta, theta)
        w_promoted = cqu_weight(q, beta * q, theta)
        x = math.cos(theta)
        exact = (1 + q ** 0.5 * beta) ** 2 - 4 * q ** 0.5 * beta * x * x
        assert abs(w_promoted / w - exact) < 1e-10


def test_weight_even_symmetry():
    q, beta = float(QP.q), float(QP.beta)
    for theta in (0.3, 0.9, 1.4):
        w1 = cqu_weight(q, beta, theta)
        w2 = cqu_weight(q, beta, math.pi - theta)
        assert abs(w1 - w2) < 1e-12 * abs(w1)


def test_aw_weight_is_cqu_theta_density():
    q, beta = float(QP.q), float(QP.beta)
    ratios = []
    for theta in (0.4, 1.0, 1.7, 2.3, 2.8):
        w = cqu_weight(q, beta, theta)
        waw = aw_weight(*_aw_params_floats(QP), theta)
        ratios.append(waw / (w * math.sin(theta)))
    assert max(ratios) - min(ratios) < 1e-10


def test_weight_domain_validation():
    with pytest.raises(ParameterError):
        cqu_weight(0.5, 0.5, 0.0)
    with pytest.raises(ParameterError):
        cqu_weight(0.5, 0.5, math.pi)
    with pytest.raises(ParameterError):
        aw_weight(*_aw_params_floats(QP), math.pi)


def test_numeric_orthogonality_cqu():
    for (m, n) in [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]:
        residual = float(numeric_orthogonality_cqu(QP, m, n)["residual"])
        assert residual < 1e-8, (m, n, residual)
    assert _cqu_inner(QP, 0, 0) > 0


def test_shared_node_weights_are_bit_identical_to_a_fresh_evaluation():
    # the fifteen integrals of the numeric-orthogonality rows share one
    # table of node weights per carrier; each entry, and each residual, has
    # the bits of a fresh evaluation
    pairs = [(m, n) for m in range(5) for n in range(m + 1, 5)]
    fresh = []
    for m, n in pairs:
        numerics._cqu_node_weights.cache_clear()
        numerics._cqu_diagonal.cache_clear()
        fresh.append(numeric_orthogonality_cqu(QP, m, n)["residual"])
    numerics._cqu_node_weights.cache_clear()
    numerics._cqu_diagonal.cache_clear()
    assert [numeric_orthogonality_cqu(QP, m, n)["residual"] for m, n in pairs] == fresh
    nodes = numerics._cqu_node_weights(QP)
    assert len(nodes) >= 64 + 128
    q, beta = float(QP.q), float(QP.beta)
    for theta, weight in nodes.items():
        z = cmath.exp(1j * theta)
        assert weight.hex() == numerics._cqu_circle_weight(z * z, q, beta).hex()


def _two_product_circle_weight(e2: complex, q: float, beta: float) -> float:
    # f(e2) times f at the conjugate node, each from its two infinite products
    f = qpoch_infinite(e2, q) / qpoch_infinite(q ** 0.5 * beta * e2, q)
    fc = qpoch_infinite(e2.conjugate(), q) / qpoch_infinite(q ** 0.5 * beta * e2.conjugate(), q)
    return (f * fc).real


@pytest.mark.parametrize("t,s", [(F(1, 2), F(2, 3)), (F(2, 3), F(1, 2)), (F(1, 2), F(1, 3)),
                                 (F(1, 2), F(1)), (F(3, 5), F(1, 2)), (F(9, 10), F(1)),
                                 (F(99, 100), F(1, 2))])
def test_circle_weight_is_bit_identical_to_its_two_product_form(t, s):
    # |f|^2 as f times its conjugate has the bits of f times f at the
    # conjugate node: conjugation commutes exactly with every float step
    qp = QParams(t, s)
    q, beta = float(qp.q), float(qp.beta)
    rng = random.Random(f"{t},{s}")
    thetas = [rng.uniform(0, math.pi) for _ in range(150)] + [1e-9, math.pi / 2, math.pi - 1e-9]
    for theta in thetas:
        e2 = cmath.exp(2j * theta)
        assert numerics._cqu_circle_weight(e2, q, beta).hex() == \
            _two_product_circle_weight(e2, q, beta).hex(), theta


def test_numeric_aw_h0():
    deviation = float(numeric_aw_h0(QP)["residual"])
    assert deviation < 1e-8
    assert aw_h0_closed(*_aw_params_floats(QP)) > 0


def test_refine_integral():
    value = refine_integral(math.sin, 0.0, math.pi)
    assert abs(value - 2.0) < 1e-8


def test_an_integral_near_zero_of_a_large_integrand_settles():
    # the sums differ by round-off of about 1e-3 at every level, far above
    # 1e-9 * max(1, |total|) but far below 1e-9 * h sum |f| (about 4e4)
    calls = []

    def f(x):
        calls.append(x)
        return 1e13 * math.sin(x)

    assert abs(refine_integral(f, 0.0, 2 * math.pi)) < 1.0
    assert len(calls) == 64 + 128


def test_a_quadrature_that_never_settles_ends_at_the_node_cap():
    rng = random.Random(0)
    calls = []

    def noise(x):
        calls.append(x)
        return rng.random()

    with pytest.raises(NonConvergence, match="within 8192 points"):
        refine_integral(noise, 0.0, 2 * math.pi, numerics.CIRCLE_NODE_CAP)
    assert len(calls) == 2 * 8192 - 64


def test_every_circle_integral_stops_at_the_circle_cap(monkeypatch):
    caps = []
    real = numerics.refine_integral

    def recorded(f, lo, hi, max_nodes=2 ** 20):
        caps.append(max_nodes)
        return real(f, lo, hi, max_nodes)

    monkeypatch.setattr(numerics, "refine_integral", recorded)
    numerics._cqu_diagonal.cache_clear()
    numerics.numeric_orthogonality_cqu(QP, 1, 2)
    numerics.numeric_aw_h0(QP)
    assert caps == [numerics.CIRCLE_NODE_CAP] * 4


def test_float_exact_consistency():
    gap = float(float_exact_consistency(QParams(F(19, 20), F(1, 2)), 8)["residual"])
    assert gap < 1e-12
    # low degrees survive even at small q
    gap = float(float_exact_consistency(QP, 3)["residual"])
    assert gap < 1e-12


# each threshold probe with the arguments of its suite row, and the numerics
# function whose value it thresholds
THRESHOLD_PROBES = (
    ("numeric_orthogonality_cqu", {"qp": QP, "m": 1, "n": 2}, "_cqu_inner"),
    ("numeric_aw_h0", {"qp": QP}, "_aw_weight_circle"),
    ("numeric_weight_ratio", {"qp": QP}, "cqu_weight"),
    ("numeric_weight_symmetry", {"qp": QP}, "cqu_weight"),
    ("numeric_weight_aw_vs_cqu", {"qp": QP}, "aw_weight"),
    ("bessel_special_cases", {}, "bessel_script_j"),
    ("float_exact_consistency", {"qp": QParams(F(19, 20), F(1, 2)), "nmax": 8}, "_cqu_phi"),
)


@contextmanager
def perturbed(name: str, amount: float):
    """Make the numerics function `name` return amount * (1 + its last
    argument) more, inside the block.  The last argument of each weight is
    theta, so ratios, mirror images and spreads of weights move as well.
    `_cqu_diagonal` keeps values of `_cqu_inner`, so its cache is emptied on
    entry and on exit."""
    exact = getattr(numerics, name)
    numerics._cqu_diagonal.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, name, lambda *args: exact(*args) + amount * (1 + float(args[-1])))
            yield
    finally:
        numerics._cqu_diagonal.cache_clear()


@pytest.mark.parametrize("probe,kwargs,thresholded", THRESHOLD_PROBES)
def test_threshold_probe_fails_when_its_value_is_off(probe, kwargs, thresholded):
    record = getattr(numerics, probe)(**kwargs)
    assert record["id"] == probe.replace("_", "-")
    assert record["verdict"] == "pass", record
    with perturbed(thresholded, 1e-6):
        assert getattr(numerics, probe)(**kwargs)["verdict"] == "fail"
