"""The verification heart: each check computes both sides of one identity
in exact arithmetic and reports a verdict with an exact failure witness.

Checks never use tolerances.  Every check reaches its verdict in
`_compare`, over (location, lhs, rhs) items read one at a time; the first
mismatching item becomes the witness, with Laurent mismatches further
localized to the first differing exponent.  Every check accepts an optional
Mutation that perturbs one computed item, which the fail-negative suite
uses to prove the comparisons are not vacuous.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial

from .errors import InadmissiblePoint, NonPositiveWeight, ParameterError
from .families import (
    AWParams,
    HahnParams,
    JacobiParams,
    KrawtchoukParams,
    QParams,
    QRacahParams,
    RacahParams,
    Record,
    WilsonParams,
    askey_wilson_r,
    askey_wilson_r_at,
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
    racah_phi,
    racah_weight,
    racah_norms,
    ultraspherical_coeffs,
    ultraspherical_r,
    wilson_dual_params,
    wilson_dual_phi,
)
from .laurent import LaurentPoly, equals_scaled, linear_combination, x_embed
from .series import pochhammer, qpochhammer

F = Fraction


# ---------------------------------------------------------------------------
# reports, mutations, comparison
# ---------------------------------------------------------------------------


class Witness(Record):
    location: str
    lhs: str
    rhs: str

    def to_dict(self):
        return {"location": self.location, "lhs": self.lhs, "rhs": self.rhs}


class CheckReport(Record):
    check_id: str
    params: dict
    verdict: str  # "pass" | "fail"
    witness: Witness | None = None
    residual: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self):
        out = {
            "id": self.check_id,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.residual is not None:
            out["residual"] = self.residual
        return out


class Mutation(Record):
    """Perturb comparison item `index` (mod the item count) by `delta`."""

    index: int = 0
    delta: Fraction = Fraction(1)


class ParamGrid(Record):
    """Index ranges and parameter lists for suite runs.  Unset fields take
    their defaults at construction: lmax 5, mmax = lmax (capped by l in
    iteration), DEFAULT_QPARAMS and DEFAULT_ALPHAS."""

    lmax: int | None = None
    mmax: int | None = None
    qparams: tuple = ()
    alphas: tuple = ()

    def __post_init__(self):
        lmax = 5 if self.lmax is None else self.lmax
        object.__setattr__(self, "lmax", lmax)
        object.__setattr__(self, "mmax", lmax if self.mmax is None else self.mmax)
        object.__setattr__(self, "qparams", tuple(self.qparams or DEFAULT_QPARAMS))
        object.__setattr__(self, "alphas", tuple(self.alphas or DEFAULT_ALPHAS))
        for name in ("lmax", "mmax"):
            value = getattr(self, name)
            if value < 0:
                raise ParameterError(f"grid {name} must be >= 0, got {value}")

    def lm_pairs(self):
        for l in range(self.lmax + 1):
            for m in range(min(l, self.mmax) + 1):
                yield l, m


DEFAULT_QPARAMS = (
    QParams(F(1, 2), F(2, 3)),
    QParams(F(2, 3), F(1, 2)),
    QParams(F(1, 2), F(1, 3)),
)
DEFAULT_ALPHAS = (F(0), F(1, 2), F(1), F(3, 2), F(1, 4))

# Pythagorean pairs (c, s) with c^2 + s^2 = 1 keep the classical
# trigonometric checks inside exact rational arithmetic.
PYTHAGOREAN_PAIRS = (
    (F(3, 5), F(4, 5)),
    (F(5, 13), F(12, 13)),
    (F(8, 17), F(15, 17)),
)

# The addition-formula kernel family is inadmissible when a*u or a*v = 1,
# and its polynomials of degree k > i have a vanishing denominator when
# a^2 u^2 or a^2 v^2 = q^(-i), i >= 1.  The default carriers keep a = ts
# small enough that a^2 u^2, a^2 v^2 < 1 at the standard evaluation points
# u in {2, 3/2}, v in {3, 5/4}.
ADDITION_QPARAMS = (QParams(F(1, 2), F(1, 3)), QParams(F(3, 5), F(1, 2)))
ADDITION_POINTS_U = (F(2), F(3, 2))
ADDITION_POINTS_V = (F(3), F(5, 4))


def _compare(check_id: str, params: dict, items, mutation: Mutation | None = None) -> CheckReport:
    """Exact comparison of (location, lhs, rhs) items, read one at a time
    up to the first that differs; `items` may be a generator.

    Values are Fractions or Laurent polynomials in z; a polynomial in
    x = (z + 1/z)/2 enters through `x_embed`, and a Fraction beside a
    polynomial as the constant polynomial, so that the witness of a
    polynomial item is the coefficient of its residual's lowest power of z
    on both sides.  A pair (p, c) beside a Laurent polynomial stands for
    p * c: it is decided by `equals_scaled` and formed only for a witness or
    a mutation.  A mutation reads every item, to count them, and shifts one
    left-hand side by its delta (a Laurent polynomial in its constant term)."""
    if mutation is not None:
        items = list(items)
        if items:
            i = mutation.index % len(items)
            loc, lhs, rhs = items[i]
            items[i] = (loc, _formed(lhs) + mutation.delta, rhs)
    loc = None  # no item read yet
    for loc, lhs, rhs in items:
        if _agrees(lhs, rhs):
            continue
        lhs, rhs = _formed(lhs), _formed(rhs)
        if isinstance(lhs, LaurentPoly) or isinstance(rhs, LaurentPoly):
            lhs, rhs = (v if isinstance(v, LaurentPoly) else LaurentPoly.constant(v)
                        for v in (lhs, rhs))
            residual = lhs - rhs
            exp = 1 - len(residual._h)  # the lowest exponent
            witness = Witness(f"{loc}, z^{exp}", str(lhs.coeff(exp)), str(rhs.coeff(exp)))
        else:
            residual = lhs - rhs
            witness = Witness(loc, str(lhs), str(rhs))
        return CheckReport(check_id, params, "fail", witness, str(residual))
    if loc is None:
        raise ParameterError(f"check {check_id} produced no comparison items")
    return CheckReport(check_id, params, "pass")


def _agrees(lhs, rhs) -> bool:
    """lhs == rhs, a pair side (p, c) cross-multiplied with p * c unformed."""
    if isinstance(lhs, tuple):
        lhs, rhs = rhs, lhs
    return equals_scaled(lhs, *rhs) if isinstance(rhs, tuple) else lhs == rhs


def _formed(side):
    """The value of an item's side: the product p * c of a pair (p, c)."""
    return side[0] * side[1] if isinstance(side, tuple) else side


# Key (n, alpha); `verify --suite all` asks for 81 of them over the whole run.
@lru_cache(maxsize=256)
def _upoly(n, alpha) -> LaurentPoly:
    """The degree-n ultraspherical polynomial as a Laurent polynomial in z."""
    return x_embed(ultraspherical_coeffs(n, alpha))


def _pairs_str(pair) -> str:
    return f"({pair[0]},{pair[1]})"


def _check_pythagorean(pair):
    c, s = Fraction(pair[0]), Fraction(pair[1])
    if c * c + s * s != 1:
        raise InadmissiblePoint(f"({c}, {s}) is not a point on the unit circle")
    return c, s


# ---------------------------------------------------------------------------
# the linearization lattice (the q-Racah family behind the product formula)
# ---------------------------------------------------------------------------


class _Lattice:
    """What the rows of one linearization lattice (carrier, l, m) share,
    each part built the first time a row asks for it: the q-Racah record;
    its weights; the basis R_(l+m-2j), j = 0..m; the weighted basis
    w(j) R_(l+m-2j), which the m + 1 projection sums read; the shifted
    products; the closed dual-addition coefficients; the closed projection
    prefactors.  A part that raises is not kept, so a VanishingDenominator
    or NonPositiveWeight surfaces on each row that asks for it, with the
    same index and text.

    What depends on less than the lattice is cached per carrier instead:
    the promoted carriers (`QParams.beta_shift`, per (carrier, k)) and the
    left factors of the shifted products (`_left_factor`, per
    (carrier, l, k)), which the lattices of one l share.

    Every sum over the (weighted) basis or the closed coefficients is one
    `linear_combination`, over the lcm of den_j times the scalars'
    denominators: over one denominator of the whole list instead, the
    projection sums of lmax 15 carry a fifth more bits (median 1253 against
    1060) and run slower at depth (BENCH_lattice_tables.json, "kernels")."""

    def __init__(self, qp: QParams, l: int, m: int):
        self.qp, self.l, self.m = qp, l, m

    @cached_property
    def qrp(self) -> QRacahParams:
        """The q-Racah family whose weights are the linearization
        coefficients of the degree-(l, m) product; the one-point record
        N = 0 at m = 0."""
        qp, l, m = self.qp, self.l, self.m
        if m > l:
            raise ParameterError("linearization lattice requires l >= m")
        alpha = qp.beta / qp.qhalf
        return QRacahParams(alpha, alpha, 1 / (qp.beta * qp.qhalf * qp.q ** l), m, qp)

    @cached_property
    def weights(self) -> tuple:
        """w(j), j = 0..m; NonPositiveWeight at the first that is <= 0."""
        return _positive(tuple(qracah_weight(j, self.qrp) for j in range(self.m + 1)))

    @cached_property
    def basis(self) -> tuple:
        """R_(l+m-2j)(z), j = 0..m."""
        return tuple(cqu_r(self.l + self.m - 2 * j, self.qp) for j in range(self.m + 1))

    @cached_property
    def weighted(self) -> tuple:
        """w(j) R_(l+m-2j)(z), j = 0..m: the basis with the weights folded
        in, the weights read first."""
        return tuple(b * w for w, b in zip(self.weights, self.basis))

    @cached_property
    def shifted(self) -> tuple:
        """(a^2 z^2, a^2 z^-2; q)_k R_(l-k)(z; q^k beta) R_(m-k)(z; q^k beta),
        k = 0..m: the z-dependent parts of the closed projection sums and
        of the closed coefficients, each the carrier's left factor of
        (l, k) times R_(m-k)(z; q^k beta)."""
        qp, l = self.qp, self.l
        return tuple(_left_factor(qp, l, k) * cqu_r(self.m - k, qp.beta_shift(k))
                     for k in range(self.m + 1))

    @cached_property
    def closed(self) -> tuple:
        """The z-dependent closed coefficients multiplying the lattice
        values R_k(j), k = 0..m, in the dual addition expansion: the scalars
        of `_dual_addition_scalars` times the shifted products."""
        scalars = _dual_addition_scalars(self.qp, self.l, self.m)
        return tuple(p * c for p, c in zip(self.shifted, scalars))

    @cached_property
    def prefactors(self) -> tuple:
        """The table of `_closed_projection_prefactors`."""
        return _closed_projection_prefactors(self.qp, self.l, self.m)


# Key (carrier, l, m).  Every suite runs the rows of one lattice one after
# another (the k-loop of theorem 5.1 too), so one entry catches every reuse.
@lru_cache(maxsize=1)
def _lattice(qp: QParams, l: int, m: int) -> _Lattice:
    return _Lattice(qp, l, m)


def linearization_qracah_params(qp: QParams, l: int, m: int) -> QRacahParams:
    """The q-Racah record of the linearization lattice (carrier, l, m)."""
    return _lattice(qp, l, m).qrp


def linearization_racah_params(alpha, l: int, m: int) -> RacahParams:
    """The Racah family whose weights are the classical linearization
    coefficients of the degree-(l, m) ultraspherical product."""
    alpha = Fraction(alpha)
    return RacahParams(alpha - F(1, 2), alpha - F(1, 2), m, -l - alpha - F(1, 2))


# ---------------------------------------------------------------------------
# dualities
# ---------------------------------------------------------------------------


def check_duality_cqu(qp: QParams, mmax: int, mutation=None) -> CheckReport:
    """Self-duality of the continuous q-ultraspherical values on the
    lattice z = q^(-m/2 - 1/4) beta^(-1/2)."""
    items = []
    for m in range(mmax + 1):
        for n in range(m, mmax + 1):
            zm, zn = cqu_duality_point(m, qp), cqu_duality_point(n, qp)
            items.append(
                (f"m={m}, n={n}", cqu_r(n, qp).eval_at(zm), cqu_r(m, qp).eval_at(zn))
            )
    params = {"t": qp.t, "s": qp.s, "mmax": mmax}
    return _compare("duality-cqu", params, items, mutation)


WILSON_DUALITY_NMAX = 4


def check_duality_discrete(params_obj, mutation=None) -> CheckReport:
    """Dualities of the discrete families, chosen by the record's type:
    Krawtchouk and Hahn/dual Hahn over their full lattices, Racah in its
    parameters, Wilson on the square 0..WILSON_DUALITY_NMAX."""
    p = params_obj
    items = []
    if isinstance(p, KrawtchoukParams):
        for n in range(p.N + 1):
            for x in range(n, p.N + 1):
                items.append((f"n={n}, x={x}", krawtchouk(n, x, p), krawtchouk(x, n, p)))
        params = {"family": "krawtchouk", "p": p.p, "N": p.N}
    elif isinstance(p, HahnParams):
        for n in range(p.N + 1):
            for x in range(p.N + 1):
                items.append((f"n={n}, x={x}", hahn(n, x, p), dual_hahn(x, n, p)))
        params = {"family": "hahn-dual-hahn", "alpha": p.alpha, "beta": p.beta, "N": p.N}
    elif isinstance(p, RacahParams):
        for n in range(p.N + 1):
            for x in range(p.N + 1):
                lhs = racah(n, x, p)
                rhs = racah_phi(x, n, p.gamma, p.delta, p.alpha, p.beta)
                items.append((f"n={n}, x={x}", lhs, rhs))
        params = {"family": "racah", "alpha": p.alpha, "beta": p.beta, "delta": p.delta, "N": p.N}
    elif isinstance(p, WilsonParams):
        dual = wilson_dual_params(p)
        for n in range(WILSON_DUALITY_NMAX + 1):
            for m in range(WILSON_DUALITY_NMAX + 1):
                items.append((f"n={n}, m={m}", wilson_dual_phi(n, m, p), wilson_dual_phi(m, n, dual)))
        params = {"family": "wilson", "a": p.a, "b": p.b, "c": p.c, "d": p.d,
                  "nmax": WILSON_DUALITY_NMAX}
    else:
        raise ParameterError(f"no duality check for {type(p).__name__}")
    return _compare(f"duality-{params['family']}", params, items, mutation)


# ---------------------------------------------------------------------------
# discrete orthogonality
# ---------------------------------------------------------------------------


def check_orthogonality_discrete(params_obj, mutation=None) -> CheckReport:
    """Full Gram matrix against the closed-form norms (off-diagonal only
    for Hahn, whose diagonal norm is not in scope), for the Krawtchouk,
    Hahn or Racah family of the record's type."""
    p = params_obj
    if not isinstance(p, (KrawtchoukParams, HahnParams, RacahParams)):
        raise ParameterError(f"no orthogonality check for {type(p).__name__}")
    lattice = range(p.N + 1)
    if isinstance(p, KrawtchoukParams):
        weights = _positive([krawtchouk_weight(x, p) for x in lattice])
        values = [[krawtchouk(n, x, p) for x in lattice] for n in lattice]
        items = _gram_items(weights, values, lambda n: (1 - p.p) ** p.N / weights[n])
        params = {"family": "krawtchouk", "p": p.p, "N": p.N}
    elif isinstance(p, HahnParams):
        weights = _positive([hahn_weight(x, p) for x in lattice])
        values = [[hahn(n, x, p) for x in lattice] for n in lattice]
        items = _gram_items(weights, values)
        params = {"family": "hahn", "alpha": p.alpha, "beta": p.beta, "N": p.N}
    else:
        weights = _positive([racah_weight(x, p) for x in lattice])
        values = [[racah(n, x, p) for x in lattice] for n in lattice]
        items = _gram_items(weights, values, lambda n: racah_norms(n, p), racah_h0(p))
        params = {"family": "racah", "alpha": p.alpha, "beta": p.beta, "delta": p.delta, "N": p.N}
    return _compare(f"orthogonality-{params['family']}", params, items, mutation)


def check_orthogonality_q_racah(qp: QParams, l: int, m: int, mutation=None) -> CheckReport:
    """Full Gram matrix of the linearization lattice (carrier, l, m) against
    its closed-form norms, and its total mass."""
    lattice = _lattice(qp, l, m)
    p, weights = lattice.qrp, lattice.weights
    values = [[qracah(n, x, p) for x in range(p.N + 1)] for n in range(p.N + 1)]
    items = _gram_items(weights, values, lambda n: qracah_norms(n, p), p.h0)
    params = {"family": "q-racah", "alpha": p.alpha, "beta": p.beta, "delta": p.delta,
              "N": p.N, "t": qp.t, "s": qp.s}
    return _compare("orthogonality-q-racah", params, items, mutation)


def _positive(weights):
    for x, w in enumerate(weights):
        if w <= 0:
            raise NonPositiveWeight(x, w)
    return weights


def _gram_items(weights, values, norm=None, h0=None):
    """Items of the Gram matrix sum_x values[m][x] values[n][x] weights[x]:
    the total mass against h0 when given, each diagonal entry against
    norm(n) when given (left out otherwise), each off-diagonal one against 0."""
    items = [] if h0 is None else [("sum-of-weights", sum(weights), h0)]
    lattice = range(len(weights))
    for m in lattice:
        for n in range(m if norm else m + 1, len(weights)):
            g = sum(values[m][x] * values[n][x] * weights[x] for x in lattice)
            items.append((f"m={m}, n={n}", g, norm(n) if m == n else F(0)))
    return items


# ---------------------------------------------------------------------------
# structural identities of the continuous q-ultraspherical family
# ---------------------------------------------------------------------------


def check_weight_ratio(qp: QParams, mutation=None) -> CheckReport:
    """One-step weight recurrence in its finite telescoped Laurent form:
    (1 - q^(1/2) b z^2)(1 - q^(1/2) b z^-2) = (1 + q^(1/2) b)^2 - 4 q^(1/2) b x^2."""
    # 1 - w z^(+-2) = (1 - a z^(+-1))(1 + a z^(+-1)) with a = ts = u/v and
    # w = a^2, and (1 -+ az)(1 -+ a/z) = ((u^2 + v^2) -+ uv (z + 1/z)) / v^2
    u, v = qp.a.numerator, qp.a.denominator
    lhs = LaurentPoly((u * u + v * v, -u * v), v * v) * LaurentPoly((u * u + v * v, u * v), v * v)
    w = qp.qhalf * qp.beta
    rhs = x_embed([(1 + w) ** 2, 0, -4 * w])
    items = [("weight-ratio", lhs, rhs)]
    return _compare("weight-recurrence", {"t": qp.t, "s": qp.s}, items, mutation)


def check_difference_formula(qp: QParams, nmax: int, mutation=None) -> CheckReport:
    """Two-step difference relation lowering the degree while promoting
    beta to q*beta, as an exact Laurent identity."""
    if nmax < 2:
        raise ParameterError("difference formula needs nmax >= 2")
    t, q, qh, b = qp.t, qp.q, qp.qhalf, qp.beta
    a = (qp.a + 1 / qp.a) / 2
    x2_minus_a2 = x_embed([-(a ** 2), 0, 1])
    promoted = qp.beta_shift(1)
    items = []
    for n in range(2, nmax + 1):
        lhs = cqu_r(n, qp) - cqu_r(n - 2, qp)
        pref = 4 * t ** (2 * (3 - n)) * b * (1 - t ** (4 * n - 2) * b)
        pref /= (1 + qh * b) * (1 + q * b) * (1 - q * b)
        rhs = x2_minus_a2 * cqu_r(n - 2, promoted) * pref
        items.append((f"n={n}", lhs, rhs))
    params = {"t": qp.t, "s": qp.s, "nmax": nmax}
    return _compare("difference-formula", params, items, mutation)


def check_backward_shift(qp: QParams, l: int, m: int, nmax: int, mutation=None) -> CheckReport:
    """Backward shift relation of the linearization lattice (carrier, l, m)
    pointwise on the lattice (with the edge conventions at x = 0 and
    x = N), plus its summed-by-parts form for f(x) = x and f(x) = q^x.

    The shifted family (q alpha, q beta, q gamma, delta) is the q-Racah
    record on 0..N-1.  At x = N, one step past it, its weight is 0, so the
    term there is 0; no series is evaluated there or wherever a weight is 0.
    """
    qrp = linearization_qracah_params(qp, l, m)
    N = qrp.N
    if not 1 <= nmax <= N:
        raise ParameterError("backward shift needs 1 <= nmax <= N")
    q = qp.q
    a, b, g, d = qrp.alpha, qrp.beta, qrp.gamma, qrp.delta
    shifted = QRacahParams(q * a, q * b, d, N - 1, qp)
    lead = 1 - q * q * g * d
    items = []

    terms = {}  # shifted_term(n, x), each evaluated once

    def shifted_term(n, x):
        if (n, x) not in terms:
            w = qracah_weight(x, shifted) if x < N else F(0)
            terms[n, x] = F(0) if not w else (
                lead / (q ** (-x) - g * d * q ** (x + 2)) * w * qracah(n - 1, x, shifted))
        return terms[n, x]

    weighted = {}  # w(x) R_n(x), shared by the pointwise and the summed forms
    for n in range(1, nmax + 1):
        for x in range(N + 1):
            lhs = weighted[n, x] = qracah_weight(x, qrp) * qracah(n, x, qrp)
            rhs = shifted_term(n, x)
            if x >= 1:
                rhs -= shifted_term(n, x - 1)
            items.append((f"pointwise n={n}, x={x}", lhs, rhs))
    for n in range(1, nmax + 1):
        for fname, fval in (("x", lambda x: F(x)), ("q^x", lambda x: q ** x)):
            lhs = sum(weighted[n, x] * fval(x) for x in range(N + 1))
            rhs = sum(shifted_term(n, x) * (fval(x) - fval(x + 1)) for x in range(N))
            items.append((f"summed n={n}, f={fname}", lhs, rhs))
    params = {"alpha": a, "beta": b, "delta": d, "N": N, "t": qp.t, "s": qp.s, "nmax": nmax}
    return _compare("backward-shift", params, items, mutation)


# ---------------------------------------------------------------------------
# the kernel-weighted projection sum and its closed product form
# ---------------------------------------------------------------------------


# Key (carrier, k).  The rows of one carrier ask for k = 0..lmax again and
# again, so 32 entries keep a whole carrier to lmax 31.
@lru_cache(maxsize=32)
def _qpoch_a2z2(qp: QParams, k: int) -> LaurentPoly:
    """(a^2 z^2, a^2 z^-2; q)_k = prod_{i<k} ((1 + w_i)^2 - 4 w_i x^2) with
    w_i = q^i a^2, a^2 = q^(1/2) beta: each factor is the one-step weight
    ratio that `check_weight_ratio` checks."""
    if k == 0:
        return LaurentPoly.constant(1)
    w = qp.q ** (k - 1) * qp.qhalf * qp.beta
    return _qpoch_a2z2(qp, k - 1) * x_embed([(1 + w) ** 2, 0, -4 * w])


# Key (carrier, l, k).  The lattices (carrier, l, m), m = 0..l, run one after
# another and read k = 0..m, so 32 entries keep every left factor of one l
# to l = 31.
@lru_cache(maxsize=32)
def _left_factor(qp: QParams, l: int, k: int) -> LaurentPoly:
    """(a^2 z^2, a^2 z^-2; q)_k R_(l-k)(z; q^k beta), the part of the
    shifted products that does not depend on m."""
    return _qpoch_a2z2(qp, k) * cqu_r(l - k, qp.beta_shift(k))


def dual_projection_sum(k: int, l: int, m: int, qp: QParams) -> LaurentPoly:
    """Projection of the product R_l R_m onto the k-th element of the
    linearization lattice basis, summed over the lattice."""
    if not 0 <= k <= m <= l:
        raise ParameterError("need 0 <= k <= m <= l")
    lattice = _lattice(qp, l, m)
    return linear_combination(lattice.weighted, [qracah(k, j, lattice.qrp) for j in range(m + 1)])


def _closed_projection_prefactors(qp: QParams, l: int, m: int) -> tuple:
    """The scalar prefactors pref_0..pref_m of the closed projection sums of
    one lattice, a q-hypergeometric term in k, as a term-ratio table:

        pref_0 = (q b^2; q)_l (q^(m+1/2) b; q)_l / ((q^(m+1) b^2; q)_l (q^(1/2) b; q)_l)
               = (q b^2; q)_l (q b^2; q)_m / (q b^2; q)_(l+m)
                 * (q^(1/2) b; q)_(l+m) / ((q^(1/2) b; q)_l (q^(1/2) b; q)_m),
        pref_(k+1) / pref_k = x (1 - q^k c) f(l+k+1) f(m+k+1) g(k)
            / ((1 + q^(k+1/2) b) f(2k+1) f(2k+2)^2 g(l+m-k-1)),

    with b = beta, x = t^(2(l+m+1)) s^2, c = t^(2-4(l+m))/b,
    f(r) = 1 - q^r b^2 and g(r) = 1 - q^(r+1/2) b; one f(2k+2) is
    (1 - q^(k+1) b)(1 + q^(k+1) b).  On an admissible carrier
    (b < q^(-1/2)) no denominator factor vanishes."""
    # (a; q)_(l+m) / (a; q)_m = (q^m a; q)_l: four symbols, each base formed once
    q, qb2, qhb = qp.q, qp.q * qp.beta ** 2, qp.qhalf * qp.beta
    qm = qp.q_power(m)
    pref0 = qpochhammer(qb2, q, l) * qpochhammer(qm * qhb, q, l) / (
        qpochhammer(qm * qb2, q, l) * qpochhammer(qhb, q, l))
    x = qp.ts_power(2 * (l + m + 1), 2)

    def ratio(k):
        f2 = _one_minus(qp, 8 * k + 8, 4)
        ups = (x, _one_minus(qp, 4 * (k - l - m) + 2, -2), _one_minus(qp, 4 * (l + k + 1), 4),
               _one_minus(qp, 4 * (m + k + 1), 4), _one_minus(qp, 4 * k + 2, 2))
        downs = (_one_minus(qp, 4 * k + 2, 2, sign=-1), _one_minus(qp, 8 * k + 4, 4), f2, f2,
                 _one_minus(qp, 4 * (l + m - k) - 2, 2))
        return ups, downs

    return _running_products(pref0, map(ratio, range(m)))


def _one_minus(qp: QParams, e: int, f: int, sign: int = 1) -> tuple:
    """Integers (N, D) with 1 - sign t^e s^f = N/D."""
    n, d = qp.ts_power(e, f)
    return d - sign * n, d


def _running_products(first: Fraction, ratios) -> tuple:
    """(first, first r_0, first r_0 r_1, ...) for the ratios r_k, each given
    as its numerator and denominator factors, integer pairs (N, D) of N/D:
    one integer product each way and one reduction per entry."""
    out = [first]
    for ups, downs in ratios:
        num, den = out[-1].numerator, out[-1].denominator
        for n, d in ups:
            num *= n
            den *= d
        for n, d in downs:
            num *= d
            den *= n
        out.append(Fraction(num, den))
    return tuple(out)


def check_theorem_5_1(qp: QParams, lmax: int, mmax: int, mutation=None) -> CheckReport:
    """Brute and closed projection sums agree coefficient-wise over the
    (k, m, l) grid of one carrier, 0 <= k <= m <= min(l, mmax), l <= lmax.

    (l, m, k) ascending: the projection sum against the pair (shifted_k, pref_k)
    of its lattice, read as a stream so that one sum at a time is alive."""
    items = ((f"t={qp.t}, s={qp.s}, l={l}, m={m}, k={k}", dual_projection_sum(k, l, m, qp),
              ((lattice := _lattice(qp, l, m)).shifted[k], lattice.prefactors[k]))
             for l in range(lmax + 1) for m in range(min(l, mmax) + 1) for k in range(m + 1))
    return _compare("theorem-5-1", {"lmax": lmax, "qparams": f"{qp.t},{qp.s}"}, items, mutation)


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------


def check_linearization_q(qp: QParams, l: int, m: int, mutation=None) -> CheckReport:
    """Product R_l R_m of the q family expanded back into the family: the
    explicit coefficients against the weight quotients of the linearization
    lattice, both expansions against the product, and nonnegativity of the
    weight quotients."""
    if m > l:
        raise ParameterError("linearization requires l >= m")
    product = cqu_r(l, qp) * cqu_r(m, qp)
    explicit = _linearization_coeffs_q(qp, l, m)
    lattice = _lattice(qp, l, m)
    h0 = lattice.qrp.h0
    quotient = [w / h0 for w in lattice.weights]
    items = [(f"coefficient j={j}", explicit[j], quotient[j]) for j in range(m + 1)]
    explicit_sum = linear_combination(lattice.basis, explicit)
    items.append(("explicit-form sum", explicit_sum, product))
    items.append(("weight-quotient sum", _quotient_sum(lattice.basis, quotient, explicit, explicit_sum),
                  product))
    params = {"target": "q", "l": l, "m": m, "t": qp.t, "s": qp.s}
    return _nonnegative(_compare("linearization-q", params, items, mutation), quotient)


def _linearization_coeffs_q(qp: QParams, l: int, m: int) -> tuple:
    """The explicit coefficients c_0..c_m of the q linearization as a
    term-ratio table, none of whose denominator factors vanishes on an
    admissible carrier, with b = beta, c = q^(1/2) b and L = l + m:

        c_0 = (1 - q^L c) (c; q)_l (c; q)_m (q b^2; q)_L / ((1 - c) (q b^2; q)_l (q b^2; q)_m (q c; q)_L),
        c_(j+1) / c_j = c (1 - q^(L-2j-2) c) (1 - q^j c) (1 - q^(l-j)) (1 - q^(m-j)) (1 - q^(L-j) c)
            / ((1 - q^(L-2j) c) (1 - q^(j+1)) (1 - q^(l-j-1) c) (1 - q^(m-j-1) c) (1 - q^(L-j) b^2))."""
    q, qb2, c = qp.q, qp.q * qp.beta ** 2, qp.qhalf * qp.beta
    first = (1 - q ** (l + m) * c) / (1 - c) * qpochhammer(c, q, l) * qpochhammer(c, q, m)
    first *= qpochhammer(qb2, q, l + m) / (
        qpochhammer(qb2, q, l) * qpochhammer(qb2, q, m) * qpochhammer(q * c, q, l + m))

    def ratio(j):  # q^i c = t^(4i+2) s^2, q^i b^2 = t^(4i) s^4
        ups = [_one_minus(qp, e, f) for e, f in ((4 * (l + m - 2 * j) - 6, 2), (4 * j + 2, 2),
               (4 * (l - j), 0), (4 * (m - j), 0), (4 * (l + m - j) + 2, 2))]
        downs = [_one_minus(qp, e, f) for e, f in ((4 * (l + m - 2 * j) + 2, 2), (4 * j + 4, 0),
                 (4 * (l - j) - 2, 2), (4 * (m - j) - 2, 2), (4 * (l + m - j), 4))]
        return [qp.ts_power(2, 2), *ups], downs

    return _running_products(first, map(ratio, range(m)))


def _ultraspherical_linearization_ratios(alpha: Fraction, l: int, m: int):
    """The term ratios c_(j+1) / c_j, j < m, of the explicit coefficients of
    the ultraspherical linearization as integer pairs, with a = alpha + 1/2
    and L = l + m (alpha = 0 gives the Legendre ones):

        (L-2j-2+a) (a+j) (l-j) (m-j) (a+L-j) / ((L-2j+a) (j+1) (a+l-j-1) (a+m-j-1) (2 alpha+L-j))."""
    p, r = alpha.numerator, alpha.denominator
    a = [(2 * p + r + 2 * r * k, 2 * r) for k in range(l + m + 1)]  # a + k

    def ratio(j):
        ups = (a[l + m - 2 * j - 2], a[j], (l - j, 1), (m - j, 1), a[l + m - j])
        downs = (a[l + m - 2 * j], (j + 1, 1), a[l - j - 1], a[m - j - 1], (2 * p + r * (l + m - j), r))
        return ups, downs

    return map(ratio, range(m))


def check_linearization_classical(alpha, l: int, m: int, mutation=None) -> CheckReport:
    """Product of two ultraspherical polynomials expanded back into the
    family, by the explicit coefficients and by the Racah weight quotients,
    with the polynomials in x embedded as Laurent polynomials in z."""
    if m > l:
        raise ParameterError("linearization requires l >= m")
    alpha = Fraction(alpha)
    product = _upoly(l, alpha) * _upoly(m, alpha)
    # both denominators vanish at alpha = -1/2 (with l >= 1 for the first);
    # the error names the factor, not the interpreter's own division text
    low = pochhammer(2 * alpha + 1, l) * pochhammer(2 * alpha + 1, m)
    for factor, value in ((f"(2 alpha + 1)_{l}", low), ("alpha + 1/2", alpha + F(1, 2))):
        if not value:
            raise ParameterError(f"classical linearization at alpha={alpha}: "
                                 f"the denominator factor {factor} vanishes")
    c = F(factorial(l) * factorial(m)) / low
    c *= (l + m + alpha + F(1, 2)) / (alpha + F(1, 2))
    c *= pochhammer(alpha + F(1, 2), l) * pochhammer(alpha + F(1, 2), m) * pochhammer(2 * alpha + 1, l + m)
    c /= factorial(l) * factorial(m) * pochhammer(alpha + F(3, 2), l + m)
    explicit = _running_products(c, _ultraspherical_linearization_ratios(alpha, l, m))
    items = _ultraspherical_linearization_items(alpha, l, m, product, explicit)
    params = {"target": "classical", "l": l, "m": m, "alpha": alpha}
    return _nonnegative(_compare("linearization-classical", params, items, mutation), explicit)


def check_linearization_legendre(l: int, m: int, mutation=None) -> CheckReport:
    """The Legendre case alpha = 0 of the ultraspherical linearization, from
    the Legendre family's own first explicit coefficient."""
    if m > l:
        raise ParameterError("linearization requires l >= m")
    product = _upoly(l, F(0)) * _upoly(m, F(0))
    c = pochhammer(F(1, 2), l) * pochhammer(F(1, 2), m) * factorial(l + m) * (2 * (l + m) + 1)
    c /= factorial(l) * factorial(m) * pochhammer(F(3, 2), l + m)
    explicit = _running_products(c, _ultraspherical_linearization_ratios(F(0), l, m))
    items = _ultraspherical_linearization_items(F(0), l, m, product, explicit)
    params = {"target": "legendre", "l": l, "m": m, "alpha": F(0)}
    return _nonnegative(_compare("linearization-legendre", params, items, mutation), explicit)


def _ultraspherical_linearization_items(alpha: Fraction, l: int, m: int, product,
                                        explicit) -> list:
    """The items of an ultraspherical linearization: the expansion of the
    degree-(l, m) product by the explicit coefficients, and for m >= 1
    those coefficients against the Racah weight quotients and the
    expansion by the quotients."""
    basis = [_upoly(l + m - 2 * j, alpha) for j in range(m + 1)]
    explicit_sum = linear_combination(basis, explicit)
    items = [("explicit-form sum", explicit_sum, product)]
    if m >= 1:
        rp = linearization_racah_params(alpha, l, m)
        h0 = racah_h0(rp)
        quotient = [racah_weight(j, rp) / h0 for j in range(m + 1)]
        items += [(f"coefficient j={j}", explicit[j], quotient[j]) for j in range(m + 1)]
        items.append(("weight-quotient sum", _quotient_sum(basis, quotient, explicit, explicit_sum),
                      product))
    return items


def _quotient_sum(basis, quotient, explicit, explicit_sum) -> LaurentPoly:
    """The expansion of a linearization by its weight quotients: the
    explicit-form sum itself when the two coefficient lists agree, since
    `linear_combination` is pure; otherwise its own sum."""
    return explicit_sum if tuple(quotient) == tuple(explicit) else linear_combination(basis, quotient)


def _nonnegative(report: CheckReport, coefficients) -> CheckReport:
    """The report of a linearization whose items all agree, failed at its
    first negative coefficient if it has one."""
    for j, c in enumerate(coefficients):
        if c < 0 and report.passed:
            return CheckReport(report.check_id, report.params, "fail",
                               Witness(f"nonnegative j={j}", str(c), ">= 0"), str(c))
    return report


# ---------------------------------------------------------------------------
# dual addition formula
# ---------------------------------------------------------------------------


def _dual_addition_scalars(qp: QParams, l: int, m: int) -> tuple:
    """The scalars c_0..c_m of the closed dual-addition coefficients,

        c_k = (-1)^k t^(2k(k+l+m+2)) b^k f(2k)/f(k)
              * (q^-l, q^-m, q b^2; q)_k / ((q b; q)_k^2 (q; q)_k (-q^(1/2) b; q^(1/2))_2k^2)

    with b = beta, f(r) = 1 - q^r b^2 and f(2k)/f(k) read as 1 at k = 0,
    also where beta = 1 makes it 0/0.  As a term-ratio table: c_0 = 1 and

        c_(k+1) / c_k = -t^(2(2k+l+m+3)) b (1 - q^(k-l)) (1 - q^(k-m)) G_k
                        / ((1 - q^(k+1)) f(2k+2) (1 + q^(k+1/2) b)^2),

    G_0 = 1 and G_k = f(k)/f(2k) for k >= 1: the new factor f(k+1) of
    (q b^2; q)_(k+1) cancels against f(k+1) of f(2k+2)/f(k+1), and
    (1 - q^(k+1) b)(1 + q^(k+1) b) = f(2k+2).  On an admissible carrier
    (b < q^(-1/2)) no denominator factor vanishes."""

    def ratio(k):
        n, d = qp.ts_power(2 * (2 * k + l + m + 3), 2)
        ups = [(-n, d), _one_minus(qp, 4 * (k - l), 0), _one_minus(qp, 4 * (k - m), 0)]
        plus = _one_minus(qp, 4 * k + 2, 2, sign=-1)
        downs = [_one_minus(qp, 4 * k + 4, 0), _one_minus(qp, 8 * k + 8, 4), plus, plus]
        if k:  # G_0 = 1: the 0/0 of beta = 1 is never formed
            ups.append(_one_minus(qp, 4 * k, 4))
            downs.append(_one_minus(qp, 8 * k, 4))
        return ups, downs

    return _running_products(F(1), map(ratio, range(m)))


def _dual_addition_items(qp: QParams, l: int, m: int, j: int) -> list:
    """The one item of a dual addition row: sum_k closed_k R_k(j) against
    R_(l+m-2j)."""
    if not (0 <= j <= m <= l):
        raise ParameterError("need 0 <= j <= m <= l")
    lattice = _lattice(qp, l, m)
    qrp = lattice.qrp
    rhs = linear_combination(lattice.closed, [qracah(k, j, qrp) for k in range(m + 1)])
    return [(f"l={l}, m={m}, j={j}", rhs, cqu_r(l + m - 2 * j, qp))]


def check_dual_addition_q_direct(qp: QParams, l: int, m: int, j: int, mutation=None) -> CheckReport:
    """R_(l+m-2j) against its expansion over the linearization lattice
    basis with the closed coefficients, as Laurent polynomials."""
    items = _dual_addition_items(qp, l, m, j)
    params = {"target": "q", "mode": "direct", "l": l, "m": m, "j": j, "t": qp.t, "s": qp.s}
    return _compare("dual-addition-q-direct", params, items, mutation)


def check_dual_addition_q_inversion(qp: QParams, l: int, m: int, mutation=None) -> CheckReport:
    """Every closed coefficient of the dual addition expansion against its
    independent reconstruction: the lattice's projection sum over its norm.

    Each k takes its norm, then its projection sum, k ascending, before any
    comparison; the item of k is the pair (projection, 1/h_k) against closed_k."""
    if not 0 <= m <= l:
        raise ParameterError("need 0 <= m <= l")
    lattice = _lattice(qp, l, m)
    qrp = lattice.qrp
    closed = lattice.closed
    items = []
    for k in range(m + 1):
        # the one-point lattice's norm is 1: its record's ratio
        # (1 - alpha beta q)/(1 - alpha beta q) is 0/0 at beta = 1
        norm = F(1) if m == 0 else qracah_norms(k, qrp)
        items.append((f"coefficient k={k}", (dual_projection_sum(k, l, m, qp), 1 / norm), closed[k]))
    params = {"target": "q", "mode": "inversion", "l": l, "m": m, "j": 0, "t": qp.t, "s": qp.s}
    return _compare("dual-addition-q-inversion", params, items, mutation)


# Key (alpha, l, m).  The classical rows run j innermost, so the rows
# j = 0..m of one (alpha, l, m) follow one another and one entry catches
# every reuse.
@lru_cache(maxsize=1)
def _classical_dual_addition(alpha: Fraction, l: int, m: int) -> tuple:
    """What the rows j = 0..m of one classical dual addition expansion
    share: the Racah record of the linearization lattice, and for k = 0..m
    the scalar c_k without its Racah factor R_k(j) and the product
    (x^2 - 1)^k R_(l-k)(alpha + k) R_(m-k)(alpha + k), each scalar formed
    before its product."""
    x2_minus_1 = x_embed([-1, 0, 1])
    rp = linearization_racah_params(alpha, l, m)
    scalars, polys = [], []
    for k in range(m + 1):
        # alpha > -1 (checked by the k = 0 polynomials) leaves one factor
        # that can vanish: alpha + k/2 at k = 1
        if k == 1 and alpha == F(-1, 2):
            raise ParameterError(f"classical dual addition at alpha={alpha}: "
                                 "the denominator factor alpha + 1/2 vanishes")
        c = F(1) if k == 0 else (alpha + k) / (alpha + F(k, 2))
        c *= pochhammer(F(-l), k) * pochhammer(F(-m), k) * pochhammer(2 * alpha + 1, k)
        c /= F(2) ** (2 * k) * pochhammer(alpha + 1, k) ** 2 * factorial(k)
        scalars.append(c)
        polys.append(x2_minus_1 ** k * _upoly(l - k, alpha + k) * _upoly(m - k, alpha + k))
    return rp, tuple(scalars), tuple(polys)


def check_dual_addition_classical(alpha, l: int, m: int, j: int, mutation=None) -> CheckReport:
    """The classical dual addition expansion of the ultraspherical family,
    as an exact Laurent identity: the products of `_classical_dual_addition`
    summed against its scalars times the Racah values R_k(j)."""
    if not (0 <= j <= m <= l):
        raise ParameterError("need 0 <= j <= m <= l")
    alpha = Fraction(alpha)
    rp, scalars, polys = _classical_dual_addition(alpha, l, m)
    rhs = linear_combination(polys, [c * racah(k, j, rp) for k, c in enumerate(scalars)])
    items = [(f"l={l}, m={m}, j={j}", rhs, _upoly(l + m - 2 * j, alpha))]
    params = {"target": "classical", "l": l, "m": m, "j": j, "alpha": alpha}
    return _compare("dual-addition-classical", params, items, mutation)


def check_dual_addition_a_form(qp: QParams, l: int, m: int, j: int, mutation=None) -> CheckReport:
    """The dual addition expansion rewritten in the alternative parameter
    a = q^(1/4) beta^(1/2), as an exact Laurent identity.  Its q-Racah
    polynomials, with parameters (a^2/q, a^2/q, q^(-m-1), q^(-l)/a^2), are
    those of the linearization lattice, since a^2 = q^(1/2) beta, and its
    scalars (the oracle `dual_addition_coeff_a_per_k` of
    tests/closed_forms.py) are the closed dual-addition scalars written in
    a, so its item is the direct row's.

    Note the even-product denominator enters squared; the unsquared variant
    is inconsistent with both the original expansion and the restricted
    form derived from the addition formula.
    """
    items = _dual_addition_items(qp, l, m, j)
    params = {"l": l, "m": m, "j": j, "t": qp.t, "s": qp.s}
    return _compare("dual-addition-a-form", params, items, mutation)


# ---------------------------------------------------------------------------
# addition formulas
# ---------------------------------------------------------------------------


def _addition_kernel_params(qp: QParams, u: Fraction, v: Fraction) -> AWParams:
    a = qp.a
    return AWParams(a * u * v, a / (u * v), a * u / v, a * v / u, qp.q)


def _addition_coeffs_q(n: int, qp: QParams, u: Fraction, v: Fraction) -> tuple:
    """The scalar coefficients c_0..c_n of the kernel polynomials in the
    addition expansion at fixed evaluation parameters u, v, with a = ts,

        c_k = (-1)^k q^(k(k+1)/2) (q^-n, a^2, q^n a^4, a^2 u^2, a^2 v^2; q)_k
              / ((uv)^k (q, q^(1/2) a^2, -q^(1/2) a^2, -a^2; q)_k (q^(k-1) a^4; q)_k),

    as a term-ratio table from c_0 = 1.  The last symbol gains 1 - a^4 at
    k = 0, then 1 - q^(2k-1) a^4 and 1 - q^(2k) a^4 over 1 - q^(k-1) a^4, so
    the 0/0 of a^4 = q (beta = 1) is never formed; on an admissible carrier
    no denominator factor vanishes."""
    uv = u * v
    squares = [(w.numerator, w.denominator) for w in (u * u, v * v)]

    def ratio(k):  # q^i a^2 = t^(4i+2) s^2, q^i a^4 = t^(4i+4) s^4
        (p, d), (e, f) = qp.ts_power(4 * k + 4, 0), qp.ts_power(4 * k + 2, 2)
        ups = [(-p * uv.denominator, d * uv.numerator), _one_minus(qp, 4 * (k - n), 0), (f - e, f),
               _one_minus(qp, 4 * (n + k + 1), 4), *((f * wd - e * wn, f * wd) for wn, wd in squares)]
        downs = [(d - p, d), _one_minus(qp, 4 * k + 4, 2), _one_minus(qp, 4 * k + 4, 2, sign=-1),
                 (f + e, f), _one_minus(qp, 8 * k + 4, 4)]
        if k:
            ups.append(_one_minus(qp, 4 * k, 4))
            downs.append(_one_minus(qp, 8 * k, 4))
        return ups, downs

    return _running_products(F(1), map(ratio, range(n)))


def check_addition_q(qp: QParams, n: int, u, v, mutation=None) -> CheckReport:
    """Expansion of R_n[z] over the four-parameter kernel family at fixed
    rational u, v, checked as an exact Laurent identity in z."""
    u, v = Fraction(u), Fraction(v)
    if u == 0 or v == 0:
        raise InadmissiblePoint("u and v must be nonzero")
    kernel = _addition_kernel_params(qp, u, v)
    polys, scalars = [], []
    for k, c in enumerate(_addition_coeffs_q(n, qp, u, v)):
        shifted = cqu_r(n - k, qp.beta_shift(k))
        c *= shifted.eval_at(u) * shifted.eval_at(v)
        polys.append(askey_wilson_r(k, kernel))
        scalars.append(c)
    items = [(f"n={n}, u={u}, v={v}", linear_combination(polys, scalars), cqu_r(n, qp))]
    params = {"target": "q", "n": n, "u": u, "v": v, "t": qp.t, "s": qp.s}
    return _compare("addition-q", params, items, mutation)


def check_addition_classical(alpha, n: int, xpair, ypair, tpoint, mutation=None) -> CheckReport:
    """The ultraspherical kernel-argument expansion at Pythagorean points
    (equivalently its z-form: substituting z = xy + rx ry t turns one into
    the other)."""
    alpha = Fraction(alpha)
    x, rx = _check_pythagorean(xpair)
    y, ry = _check_pythagorean(ypair)
    tv = Fraction(tpoint)
    lhs = ultraspherical_r(n, alpha, x * y + rx * ry * tv)
    rhs = F(0)
    for k in range(n + 1):
        c = F(1) if k == 0 else (alpha + k) / (alpha + F(k, 2))
        c *= comb(n, k) * pochhammer(n + 2 * alpha + 1, k) * pochhammer(2 * alpha + 1, k)
        c /= F(2) ** (2 * k) * pochhammer(alpha + 1, k) ** 2
        c *= rx ** k * ultraspherical_r(n - k, alpha + k, x)
        c *= ry ** k * ultraspherical_r(n - k, alpha + k, y)
        c *= ultraspherical_r(k, alpha - F(1, 2), tv)
        rhs += c
    items = [(f"n={n}, x={x}, y={y}, t={tv}", lhs, rhs)]
    params = {"target": "classical", "n": n, "alpha": alpha, "x": _pairs_str(xpair),
              "y": _pairs_str(ypair), "tpoint": tv}
    return _compare("addition-classical", params, items, mutation)


def check_addition_legendre(n: int, xpair, ypair, phipair, mutation=None) -> CheckReport:
    """The classical composite-argument formula of the Legendre family,
    with cos(k phi) realized by Chebyshev polynomials."""
    c1, s1 = _check_pythagorean(xpair)
    c2, s2 = _check_pythagorean(ypair)
    cphi, _sphi = _check_pythagorean(phipair)
    lhs = ultraspherical_r(n, F(0), c1 * c2 + s1 * s2 * cphi)
    rhs = ultraspherical_r(n, F(0), c1) * ultraspherical_r(n, F(0), c2)
    for k in range(1, n + 1):
        c = 2 * F(factorial(n - k) * factorial(n + k), 2 ** (2 * k) * factorial(n) ** 2)
        scale = pochhammer(F(k + 1), n - k) / factorial(n - k)  # value at 1 of the shifted family
        p1 = jacobi_r(n - k, JacobiParams(k, k), c1) * scale
        p2 = jacobi_r(n - k, JacobiParams(k, k), c2) * scale
        rhs += c * s1 ** k * p1 * s2 ** k * p2 * _chebyshev_t(k, cphi)
    items = [(f"n={n}", lhs, rhs)]
    params = {"target": "legendre", "n": n, "x": _pairs_str(xpair), "y": _pairs_str(ypair),
              "phi": _pairs_str(phipair)}
    return _compare("addition-legendre", params, items, mutation)


def _chebyshev_t(k: int, c: Fraction) -> Fraction:
    prev, cur = F(1), Fraction(c)
    for _ in range(k):
        prev, cur = cur, 2 * c * cur - prev
    return prev


# ---------------------------------------------------------------------------
# restriction equivalence of the two dual addition routes
# ---------------------------------------------------------------------------


def _restriction_kernel_params(qp: QParams, l: int, m: int) -> AWParams:
    a, t = qp.a, qp.t
    return AWParams(
        t ** (-2 * (l + m)) / a,
        t ** (2 * (l + m)) * a ** 3,
        t ** (2 * (l - m)) * a,
        t ** (2 * (m - l)) * a,
        qp.q,
    )


def check_restriction_equivalence(qp: QParams, l: int, m: int, j: int, n: int,
                                  mutation=None) -> CheckReport:
    """On the restriction lattice z = q^(-n/2) a^(-1) the dual addition
    expansion and the addition expansion coincide term by term, and both
    totals agree with the self-duality transport of the left-hand side.

    Terms whose scalar prefactor vanishes (k beyond the smaller degree)
    are skipped without building the inadmissible series behind them.
    """
    if not (0 <= j <= m <= l and m <= n):
        raise ParameterError("need 0 <= j <= m <= l and m <= n")
    a, q, t = qp.a, qp.q, qp.t
    zpt = t ** (-2 * (l + m - 2 * j)) / a
    zu, zv = t ** (-2 * l) / a, t ** (-2 * m) / a
    kernel = _restriction_kernel_params(qp, l, m) if m >= 1 else None

    # the dual addition scalars, 0 past k = m, restricted to the lattice,
    # and the addition coefficients at the lattice points u = zu, v = zv
    scalars = _dual_addition_scalars(qp, l, m) + (F(0),) * (n - m)
    items = []
    total_r, total_a = F(0), F(0)
    for k, ca in enumerate(_addition_coeffs_q(n, qp, zu, zv)):
        cr = scalars[k] * qpochhammer(q ** (-n), q, k) * qpochhammer(q ** n * a ** 4, q, k)
        if cr == 0 and ca == 0:
            items.append((f"term k={k}", F(0), F(0)))
            continue
        shifted = cqu_r(n - k, qp.beta_shift(k))
        shared = shifted.eval_at(zu) * shifted.eval_at(zv)
        shared *= askey_wilson_r_at(k, kernel, zpt) if k >= 1 else F(1)
        term_r, term_a = cr * shared, ca * shared
        items.append((f"term k={k}", term_r, term_a))
        total_r += term_r
        total_a += term_a
    lhs = cqu_r(n, qp).eval_at(zpt)
    transported = cqu_r(l + m - 2 * j, qp).eval_at(t ** (-2 * n) / a)
    items.append(("duality transport", lhs, transported))
    items.append(("restricted total", total_r, lhs))
    items.append(("addition total", total_a, lhs))
    params = {"l": l, "m": m, "j": j, "n": n, "t": qp.t, "s": qp.s}
    return _compare("restriction-equivalence", params, items, mutation)


# ---------------------------------------------------------------------------
# classical product formula via the moment functional
# ---------------------------------------------------------------------------


def weight_moments(alpha, top: int) -> list:
    """Normalized moments of (1-t^2)^(alpha-1/2) on [-1, 1]: mu_0 = 1,
    odd moments 0, mu_2k = mu_(2k-2) (2k-1)/(2k+2 alpha)."""
    alpha = Fraction(alpha)
    mu = [F(0)] * (top + 1)
    mu[0] = F(1)
    for k in range(1, top // 2 + 1):
        mu[2 * k] = mu[2 * k - 2] * F(2 * k - 1) / (2 * k + 2 * alpha)
    return mu


def check_product_formula_classical(alpha, n: int, xpair, ypair, mutation=None) -> CheckReport:
    """Averaging the composite argument against the kernel weight
    reproduces the product of values; the integral reduces to finitely
    many exact moments because the integrand has degree n."""
    alpha = Fraction(alpha)
    if alpha <= F(-1, 2):
        raise ParameterError("product formula needs alpha > -1/2")
    x, rx = _check_pythagorean(xpair)
    y, ry = _check_pythagorean(ypair)
    cs = ultraspherical_coeffs(n, alpha)
    w = rx * ry
    tpoly = [F(0)] * (n + 1)
    for i, ci in enumerate(cs):
        if ci:
            for r in range(i + 1):
                tpoly[r] += ci * comb(i, r) * (x * y) ** (i - r) * w ** r
    mu = weight_moments(alpha, n)
    lhs = sum(tpoly[r] * mu[r] for r in range(n + 1))
    rhs = ultraspherical_r(n, alpha, x) * ultraspherical_r(n, alpha, y)
    items = [(f"n={n}, x={x}, y={y}", lhs, rhs)]
    params = {"alpha": alpha, "n": n, "x": _pairs_str(xpair), "y": _pairs_str(ypair)}
    return _compare("product-formula-classical", params, items, mutation)


# ---------------------------------------------------------------------------
# representation / family-level cross checks exposed as reports
# ---------------------------------------------------------------------------


def check_cqu_representations(qp: QParams, nmax: int, mutation=None) -> CheckReport:
    """The two series representations of the continuous q-ultraspherical
    polynomial agree coefficient-wise."""
    items = [(f"n={n}", cqu_r(n, qp), cqu_r_alt(n, qp)) for n in range(nmax + 1)]
    return _compare("cqu-representations", {"t": qp.t, "s": qp.s, "nmax": nmax}, items, mutation)
