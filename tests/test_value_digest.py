"""A digest of the exact values behind the deep reports.

A passing report carries verdicts, not values, so a change that alters a
canonical form on both sides of an identity could pass every suite.  This
hashes the fields of the values themselves: `cqu_r` on beta-shifted
carriers, every linearization lattice to l = 11 (weights, h_0, norms,
values and closed dual-addition coefficients) and the classical Racah
lattices of the classical dual addition.  Each entry is its value, or the
class, index and text of the package error it raises.  Record the digest
again only when the values are meant to change."""

import hashlib
from fractions import Fraction as F

from qaskey.errors import QAskeyError
from qaskey.families import QParams, cqu_r, qracah, qracah_norms, qracah_weight, racah
from qaskey.identities import (
    DEFAULT_QPARAMS, _lattice, linearization_qracah_params, linearization_racah_params,
)
from qaskey.laurent import LaurentPoly

GOLDEN_VALUES = "c681fc7ede7d99bc4f38ecbe5ee054be3dbed8f9a8c5d73aaebe55faeb02ed10"


def _text(value) -> str:
    if isinstance(value, LaurentPoly):
        # the text of the layout (lowest exponent, numerators, den) the
        # digest was recorded in, unfolded from the half
        h = value._h
        lo, n = (1 - len(h), h[:0:-1] + h) if h else (0, ())
        return f"{lo}|{','.join(map(str, n))}|{value._den}"
    if isinstance(value, tuple):
        return "(" + ";".join(_text(v) for v in value) + ")"
    return str(value)


def _entry(fn, *args) -> str:
    try:
        return _text(fn(*args))
    except QAskeyError as exc:
        return f"!{type(exc).__name__}|{getattr(exc, 'index', None)}|{exc}"


def _entries():
    for qp in DEFAULT_QPARAMS:
        for k in range(9):
            shifted = qp.beta_shift(k)
            for n in range(21 - k):
                yield f"cqu {qp} {k} {n}", _entry(cqu_r, n, shifted)
    for qp in (*DEFAULT_QPARAMS, QParams(F(1, 2), F(1))):
        for l in range(12):
            for m in range(l + 1):
                qrp = linearization_qracah_params(qp, l, m)
                key = f"lattice {qp} {l} {m}"
                yield f"{key} h0", _entry(lambda: qrp.h0)
                for j in range(m + 1):
                    yield f"{key} w {j}", _entry(qracah_weight, j, qrp)
                    # the norm the inversion row divides by, 1 on the one-point lattice
                    yield f"{key} h {j}", _entry(lambda: F(1) if m == 0 else qracah_norms(j, qrp))
                    for k in range(m + 1):
                        yield f"{key} R {k} {j}", _entry(qracah, k, j, qrp)
                yield f"{key} c", _entry(lambda: _lattice(qp, l, m).closed)
    for alpha in (F(1, 2), F(1)):
        for l in range(1, 5):
            for m in range(1, l + 1):
                rp = linearization_racah_params(alpha, l, m)
                for k in range(m + 1):
                    for j in range(m + 1):
                        yield f"racah {alpha} {l} {m} {k} {j}", _entry(racah, k, j, rp)


def value_digest() -> str:
    h = hashlib.sha256()
    for key, text in _entries():
        h.update(f"{key}={text}\n".encode())
    return h.hexdigest()


def test_exact_values_match_their_recorded_digest():
    assert value_digest() == GOLDEN_VALUES
