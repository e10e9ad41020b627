"""Command-line entry point: verification suites, point evaluation, tables.

Reports are deterministic: checks are generated and emitted in a fixed
order, parameters are rendered as exact rational text, and the only
non-reproducible field is the wall-time summary entry.  Exit codes:
0 all checks pass, 1 any check failed or errored, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import product

from . import __version__
from . import families as fam
from . import identities as ids
from .errors import ParameterError, QAskeyError
from .series import parse_rat

F = Fraction


# ---------------------------------------------------------------------------
# suites: each yields rows (name, params, call), lazily and in report order.
# `call` is a partial of one check or probe, and a call that raises becomes
# the error record `name` with `params`.  Checks are looked up on their
# modules when a row is made, so a rebound module attribute is what runs.
# The float layer `numerics` is imported by the two suites that run it, and
# `csv` by the commands that write it, so no other command loads them.
# ---------------------------------------------------------------------------


def _row(check, **kwargs) -> tuple:
    """The row of check(**kwargs), whose error record is named after the
    check and carries its arguments."""
    return check.__name__.removeprefix("check_").replace("_", "-"), kwargs, partial(check, **kwargs)


def _descending(top: int, length: int):
    """Tuples (l, m, j, ...) of the given length with top >= l >= m >= ... >= 0."""
    if length == 0:
        yield ()
        return
    for first in range(top + 1):
        for rest in _descending(first, length - 1):
            yield (first, *rest)


def _duality(g):
    for qp in g.qparams:
        yield _row(ids.check_duality_cqu, qp=qp, mmax=6)
    discrete = [fam.KrawtchoukParams(F(1, 3), N) for N in range(1, 6)]
    discrete += [fam.KrawtchoukParams(F(1, 2), N) for N in (3, 5)]
    discrete += [fam.HahnParams(a, b, N) for a, b in ((F(1, 2), F(1, 3)), (F(2), F(1)))
                 for N in range(1, 6)]
    discrete += [fam.RacahParams(F(1, 2), F(1, 3), N, F(1, 5)) for N in range(1, 5)]
    discrete.append(fam.WilsonParams(1, F(3, 2), 2, F(5, 2)))
    for params in discrete:
        yield _row(ids.check_duality_discrete, params_obj=params)


def _orthogonality(g):
    for params in (
        fam.KrawtchoukParams(F(1, 3), 5),
        fam.KrawtchoukParams(F(1, 2), 4),
        fam.HahnParams(F(1, 2), F(1, 3), 4),
        fam.HahnParams(F(1), F(0), 5),
        ids.linearization_racah_params(F(1, 2), 5, 3),
        ids.linearization_racah_params(F(1), 4, 4),
    ):
        yield _row(ids.check_orthogonality_discrete, params_obj=params)
    yield _row(ids.check_orthogonality_q_racah, qp=g.qparams[0], l=5, m=4)
    yield _row(ids.check_orthogonality_q_racah, qp=g.qparams[-1], l=4, m=3)


def _weight_recurrence(g):
    for qp in g.qparams:
        yield _row(ids.check_weight_ratio, qp=qp)
        yield _row(ids.check_cqu_representations, qp=qp, nmax=8)


def _difference(g):
    for qp in g.qparams:
        yield _row(ids.check_difference_formula, qp=qp, nmax=8)


def _backward_shift(g):
    qps = g.qparams
    for qp, l, m, nmax in ((qps[0], 4, 3, 3), (qps[min(1, len(qps) - 1)], 5, 4, 4)):
        params = {"qp": qp, "l": l, "m": m, "nmax": nmax}
        yield "backward-shift-on-lattice", params, partial(ids.check_backward_shift, **params)


def _linearization(g):
    for qp in g.qparams:
        for l, m in g.lm_pairs():
            yield ("linearization", {"target": "q", "l": l, "m": m, "qp": qp},
                   partial(ids.check_linearization_q, qp, l, m))
    for alpha in g.alphas:
        for l, m in _descending(6, 2):
            yield ("linearization", {"target": "classical", "l": l, "m": m, "alpha": alpha},
                   partial(ids.check_linearization_classical, alpha, l, m))
    for l, m in _descending(6, 2):
        yield ("linearization", {"target": "legendre", "l": l, "m": m},
               partial(ids.check_linearization_legendre, l, m))


def _theorem_5_1(g):
    for qp in g.qparams:
        params = {"qp": qp, "lmax": g.lmax, "mmax": g.mmax}
        yield "theorem-5-1-on-carrier", params, partial(ids.check_theorem_5_1, **params)


def _dual_addition(g):
    for qp in g.qparams:
        for l, m in g.lm_pairs():
            row = {"target": "q", "l": l, "m": m, "qp": qp}
            yield ("dual-addition", {**row, "mode": "inversion"},
                   partial(ids.check_dual_addition_q_inversion, qp, l, m))
            for j in range(m + 1):
                yield ("dual-addition", {**row, "j": j, "mode": "direct"},
                       partial(ids.check_dual_addition_q_direct, qp, l, m, j))
    for alpha in (F(1, 2), F(1)):
        for l, m, j in _descending(4, 3):
            yield ("dual-addition", {"target": "classical", "l": l, "m": m, "j": j, "alpha": alpha},
                   partial(ids.check_dual_addition_classical, alpha, l, m, j))
    for l, m, j in _descending(3, 3):
        yield _row(ids.check_dual_addition_a_form, qp=g.qparams[0], l=l, m=m, j=j)


def _addition(g):
    for qp, u, v, n in product(ids.ADDITION_QPARAMS, ids.ADDITION_POINTS_U,
                               ids.ADDITION_POINTS_V, range(6)):
        yield _row(ids.check_addition_q, qp=qp, n=n, u=u, v=v)
    p = ids.PYTHAGOREAN_PAIRS
    combos = ((p[0], p[1], p[2]), (p[1], p[2], p[0]), (p[2], p[0], p[1]))
    for alpha, (xp, yp, tp), n in product((F(0), F(1, 2), F(1)), combos, range(6)):
        yield _row(ids.check_addition_classical, alpha=alpha, n=n, xpair=xp, ypair=yp,
                   tpoint=tp[0])
    for (xp, yp, pp), n in product(combos, range(6)):
        yield _row(ids.check_addition_legendre, n=n, xpair=xp, ypair=yp, phipair=pp)


def _restriction(g):
    for l, m, j in _descending(3, 3):
        for n in range(m, 5):
            yield _row(ids.check_restriction_equivalence, qp=g.qparams[0], l=l, m=m, j=j, n=n)


def _product_formula(g):
    p = ids.PYTHAGOREAN_PAIRS
    for alpha, (xp, yp), n in product((F(0), F(1, 2), F(1)), ((p[0], p[1]), (p[1], p[2])),
                                      range(7)):
        yield _row(ids.check_product_formula_classical, alpha=alpha, n=n, xpair=xp, ypair=yp)


def _limits(g):
    from . import numerics as num

    yield _row(num.limit, kind="cqu-to-ultra", alpha=0.5, n=3)
    yield _row(num.limit, kind="hahn-to-jacobi", alpha=0.0, beta=0.0, n=2)
    for lam in (1.0, 2.0):
        yield _row(num.limit, kind="jacobi-to-bessel", alpha=0.5, beta=1.0 / 3.0, lam=lam)
    yield _row(num.limit, kind="dual-addition-q-to-1", alpha=0.5, l=3, m=2)
    yield _row(num.bessel_special_cases)
    yield _row(num.float_exact_consistency, qp=fam.QParams(F(19, 20), F(1, 2)), nmax=8)


def _numeric_orthogonality(g):
    from . import numerics as num

    qp = g.qparams[0]
    for m in range(5):
        for n in range(m + 1, 5):
            yield _row(num.numeric_orthogonality_cqu, qp=qp, m=m, n=n)
    for probe in (num.numeric_aw_h0, num.numeric_weight_ratio, num.numeric_weight_symmetry,
                  num.numeric_weight_aw_vs_cqu):
        yield _row(probe, qp=qp)


def _all(g):
    for name, rows in SUITES.items():
        if name != "all":
            yield from rows(g)


SUITES = {
    "duality": _duality,
    "orthogonality": _orthogonality,
    "weight-recurrence": _weight_recurrence,
    "difference": _difference,
    "backward-shift": _backward_shift,
    "linearization": _linearization,
    "theorem-5-1": _theorem_5_1,
    "dual-addition": _dual_addition,
    "addition": _addition,
    "restriction": _restriction,
    "product-formula": _product_formula,
    "limits": _limits,
    "numeric-orthogonality": _numeric_orthogonality,
    "all": _all,
}
SUITE_NAMES = tuple(SUITES)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def _text(value) -> str:
    """Exact text of a row argument; parameter records list their fields."""
    if isinstance(value, fam.Record):
        return ",".join(f"{name}={_text(getattr(value, name))}" for name in value._fields)
    if isinstance(value, tuple):
        return "(" + ",".join(_text(v) for v in value) + ")"
    return str(value)


def _run_row(name: str, params: dict, call) -> dict:
    """The record of one row: its check's report or probe record, or the
    row's error record, `name` carrying the text of `params`."""
    try:
        out = call()
    except Exception as exc:  # errors become records; the suite keeps going
        return {"id": name, "params": {k: _text(v) for k, v in sorted(params.items())},
                "verdict": "error", "message": f"{type(exc).__name__}: {exc}"}
    return out if isinstance(out, dict) else out.to_dict()


GRID_NMAX = 4  # the report's grid entry; suites that take an nmax set it per row


def run_suite(suite: str, grid: ids.ParamGrid) -> dict:
    """Run one suite and assemble the deterministic report document."""
    if suite not in SUITES:
        raise QAskeyError(f"unknown suite {suite!r}")
    started = time.monotonic()
    records = [_run_row(*row) for row in SUITES[suite](grid)]
    wall_ms = int((time.monotonic() - started) * 1000)
    summary = {"pass": 0, "fail": 0, "error": 0}
    for rec in records:
        summary[rec["verdict"]] += 1
    return {
        "version": __version__,
        "suite": suite,
        "grid": {
            "lmax": grid.lmax,
            "mmax": grid.mmax,
            "nmax": GRID_NMAX,
            "qparams": [f"{qp.t},{qp.s}" for qp in grid.qparams],
            "alphas": [str(a) for a in grid.alphas],
        },
        "checks": records,
        "summary": summary,
        "wallTimeMs": wall_ms,
    }


def exit_code_for(doc: dict) -> int:
    s = doc["summary"]
    return 0 if s["fail"] == 0 and s["error"] == 0 else 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_text(doc: dict) -> str:
    out = [f"qaskey {doc['version']} suite={doc['suite']}"]
    for rec in doc["checks"]:
        params = " ".join(f"{k}={v}" for k, v in rec.get("params", {}).items())
        line = f"{rec['verdict'].upper():5s} {rec['id']} {params}".rstrip()
        if rec["verdict"] == "fail" and "witness" in rec:
            w = rec["witness"]
            line += f"  [at {w['location']}: lhs={w['lhs']} rhs={w['rhs']}]"
        if rec["verdict"] == "error":
            line += f"  [{rec.get('message', '')}]"
        out.append(line)
    s = doc["summary"]
    out.append(f"summary: pass={s['pass']} fail={s['fail']} error={s['error']} "
               f"wallTimeMs={doc['wallTimeMs']}")
    return "\n".join(out) + "\n"


def render_csv(doc: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "verdict", "params", "witness_location", "lhs", "rhs"])
    for rec in doc["checks"]:
        w = rec.get("witness", {})
        params = ";".join(f"{k}={v}" for k, v in rec.get("params", {}).items())
        writer.writerow([
            rec["id"], rec["verdict"], params,
            w.get("location", ""), w.get("lhs", ""), w.get("rhs", ""),
        ])
    return buf.getvalue()


RENDERERS = {"json": render_json, "text": render_text, "csv": render_csv}


# ---------------------------------------------------------------------------
# the eval and table commands: parameter records from flags, family tables
# ---------------------------------------------------------------------------


def _parse_qparams(text: str, source: str = "--qparams"):
    parts = text.split(",")
    if len(parts) != 2:
        raise QAskeyError(f"{source} expects 't,s', got {text!r}")
    return fam.QParams(parse_rat(parts[0]), parse_rat(parts[1]))


def _flag(args, flag: str):
    """A required flag's value: a QParams, an int, or an exact rational."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if value is None:
        raise QAskeyError(f"family {args.family!r} requires {flag}")
    if flag == "--qparams":
        return _parse_qparams(value)
    return parse_rat(value) if isinstance(value, str) else value


# parameter record -> the flags of its fields, in order
_RECORD_FLAGS = {
    fam.JacobiParams: ("--alpha", "--beta"),
    fam.KrawtchoukParams: ("--p", "--N"),
    fam.HahnParams: ("--alpha", "--beta", "--N"),
    fam.RacahParams: ("--alpha", "--beta", "--N", "--delta"),
    fam.WilsonParams: ("--a", "--b", "--c", "--d"),
    fam.AWParams: ("--a", "--b", "--c", "--d", "--qbase"),
    fam.QRacahParams: ("--alpha", "--beta", "--delta", "--N", "--qparams"),
}


def _record(args, cls):
    return cls(*(_flag(args, flag) for flag in _RECORD_FLAGS[cls]))


def _at_z(args, poly):
    """The Laurent polynomial, or its value at --at-z when that is given."""
    return poly if args.at_z is None else poly.eval_at(parse_rat(args.at_z))


def _askey_wilson(args):
    awp = _record(args, fam.AWParams)
    if args.at_z is None:
        return fam.askey_wilson_r(args.n, awp)
    return fam.askey_wilson_r_at(args.n, awp, parse_rat(args.at_z))


# family -> value of `eval` (a Fraction or a Laurent polynomial)
EVAL_FAMILIES = {
    "jacobi": lambda a: fam.jacobi_r(a.n, _record(a, fam.JacobiParams), _flag(a, "--at")),
    "ultraspherical": lambda a: fam.ultraspherical_r(a.n, _flag(a, "--alpha"), _flag(a, "--at")),
    "krawtchouk": lambda a: fam.krawtchouk(a.n, _flag(a, "--x"), _record(a, fam.KrawtchoukParams)),
    "hahn": lambda a: fam.hahn(a.n, _flag(a, "--x"), _record(a, fam.HahnParams)),
    "dual-hahn": lambda a: fam.dual_hahn(a.n, _flag(a, "--x"), _record(a, fam.HahnParams)),
    "racah": lambda a: fam.racah(a.n, _flag(a, "--x"), _record(a, fam.RacahParams)),
    "wilson-dual": lambda a: fam.wilson_dual_phi(a.n, _flag(a, "--m"), _record(a, fam.WilsonParams)),
    "askey-wilson": _askey_wilson,
    "cqu": lambda a: _at_z(a, fam.cqu_r(a.n, _flag(a, "--qparams"))),
    "cqu-alt": lambda a: _at_z(a, fam.cqu_r_alt(a.n, _flag(a, "--qparams"))),
    "q-racah": lambda a: fam.qracah(a.n, _flag(a, "--x"), _record(a, fam.QRacahParams)),
}


def _cqu_value(qp, z: Fraction, n: int) -> Fraction:
    return fam.cqu_r(n, qp).eval_at(z)


# family -> (index -> value of `table`).  The *-weights and *-norms families
# live on the lattice 0..N, which is their default --range.
TABLE_FAMILIES = {
    "krawtchouk-weights": lambda a: partial(
        fam.krawtchouk_weight, kp=_record(a, fam.KrawtchoukParams)),
    "hahn-weights": lambda a: partial(fam.hahn_weight, hp=_record(a, fam.HahnParams)),
    "racah-weights": lambda a: partial(fam.racah_weight, rp=_record(a, fam.RacahParams)),
    "racah-norms": lambda a: partial(fam.racah_norms, rp=_record(a, fam.RacahParams)),
    "q-racah-weights": lambda a: partial(fam.qracah_weight, qrp=_record(a, fam.QRacahParams)),
    "q-racah-norms": lambda a: partial(fam.qracah_norms, qrp=_record(a, fam.QRacahParams)),
    "ultraspherical-values": lambda a: partial(
        fam.ultraspherical_r, alpha=_flag(a, "--alpha"), x=_flag(a, "--at")),
    "cqu-values": lambda a: partial(_cqu_value, _flag(a, "--qparams"), _flag(a, "--at-z")),
}


def _float_text(value, spec: str) -> str:
    """The nearest double to an exact value, formatted by `spec`; inf or
    -inf when the value lies outside the double range."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    return format(x, spec)


def _cmd_eval(args) -> int:
    if args.family not in EVAL_FAMILIES:
        raise QAskeyError(f"unknown family {args.family!r}")
    value = EVAL_FAMILIES[args.family](args)
    if isinstance(value, Fraction):
        print(f"exact: {value}")
        print(f"float: {_float_text(value, '.17g')}")
    else:
        print(f"exact: {value}")
        print(f"float: {value.render(partial(_float_text, spec='.17g'))}")
    return 0


def _index_range(text: str) -> tuple:
    lo, _, hi = text.partition(":")  # no colon leaves hi empty
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise QAskeyError(f"--range expects lo:hi with integer bounds, got {text!r}") from None
    if lo < 0:
        raise QAskeyError(f"--range lower bound must be >= 0, got {text!r}")
    return lo, hi


def _cmd_table(args) -> int:
    import csv

    if args.family not in TABLE_FAMILIES:
        raise QAskeyError(f"unknown table family {args.family!r}")
    on_lattice = args.family.endswith(("-weights", "-norms"))
    top = _flag(args, "--N") if on_lattice else None
    if args.index_range:
        lo, hi = _index_range(args.index_range)
    elif on_lattice:
        lo, hi = 0, top
    else:
        raise QAskeyError(f"family {args.family!r} requires --range lo:hi")
    value_at = TABLE_FAMILIES[args.family](args)
    if on_lattice and hi > top:
        raise QAskeyError(f"--range upper bound must be <= N = {top}, got {args.index_range!r}")
    rows = [(i, value_at(i)) for i in range(lo, hi + 1)]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["index", "exact", "float"])
    writer.writerows((i, str(v), _float_text(v, "")) for i, v in rows)
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise QAskeyError(f"config file {path} is not UTF-8 text") from None
    except OSError as exc:
        raise QAskeyError(f"config file {path} cannot be read: {exc.strerror}") from None
    values = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise QAskeyError(f"config file {path} has bad line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("lmax", "mmax", "qparams", "alphas"):
            raise QAskeyError(f"config file {path} has unknown key {key!r}")
        values[key] = value.strip()
    return values


def _grid_from_args(args) -> ids.ParamGrid:
    """The grid the flags and the config give; a flag overrides its config
    key, whose value is then not read, and what neither sets is left to
    ParamGrid's defaults.  An error in a config value names the file and
    the key."""
    config = _read_config(args.config) if args.config else {}

    def from_config(key: str, parse):
        try:
            return parse(config[key]) if key in config else None
        except ValueError:  # only int() raises it
            raise QAskeyError(f"config file {args.config}: key {key} expects an integer, "
                              f"got {config[key]!r}") from None
        except ParameterError as exc:  # a value that does not parse or is out of range
            raise QAskeyError(f"config file {args.config}: {exc} (key {key})") from None
        except QAskeyError as exc:
            raise QAskeyError(f"config file {args.config}: {exc}") from None

    def index(key: str):
        value = from_config(key, int)
        if value is not None and value < 0:
            raise QAskeyError(f"config file {args.config}: key {key} must be >= 0, got {value}")
        return value

    qparams = tuple(_parse_qparams(s) for s in args.qparams or ()) or from_config(
        "qparams", lambda v: tuple(_parse_qparams(s, "key qparams") for s in v.split(";") if s))
    alphas = tuple(parse_rat(a) for a in args.alpha or ()) or from_config(
        "alphas", lambda v: tuple(parse_rat(a) for a in v.split(",") if a))
    lmax = args.grid_lmax if args.grid_lmax is not None else index("lmax")
    mmax = args.grid_mmax if args.grid_mmax is not None else index("mmax")
    return ids.ParamGrid(lmax, mmax, qparams, alphas)


def _check_out(path: str) -> None:
    """Refuse, without creating it, a report path that is a directory or
    lies in a directory that does not exist or that this user cannot write."""
    if os.path.isdir(path):
        raise QAskeyError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise QAskeyError(f"--out {path}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise QAskeyError(f"--out {path}: directory {parent} is not writable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qaskey", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=SUITE_NAMES)
    v.add_argument("--format", default="json", choices=tuple(RENDERERS))
    v.add_argument("--out", default=None, help="write the report to this path")
    v.add_argument("--qparams", action="append", help="t,s pair (repeatable)")
    v.add_argument("--alpha", action="append", help="classical alpha (repeatable)")
    v.add_argument("--grid-lmax", type=int, default=None)
    v.add_argument("--grid-mmax", type=int, default=None)
    v.add_argument("--config", default=None, help="key=value configuration file")

    e = sub.add_parser("eval", help="evaluate one family member")
    e.add_argument("--family", required=True)
    e.add_argument("--n", type=int, required=True)
    for flag in ("--m", "--x", "--N"):
        e.add_argument(flag, type=int, default=None)
    for flag in ("--alpha", "--beta", "--delta", "--p", "--a", "--b", "--c", "--d", "--qbase"):
        e.add_argument(flag, default=None)
    e.add_argument("--qparams", default=None, help="t,s pair")
    e.add_argument("--at", default=None, help="evaluation point x")
    e.add_argument("--at-z", default=None, help="evaluation point z")

    t = sub.add_parser("table", help="emit a CSV table of values, weights or norms")
    t.add_argument("--family", required=True)
    for flag in ("--alpha", "--beta", "--delta", "--p", "--qparams", "--at", "--at-z"):
        t.add_argument(flag, default=None)
    t.add_argument("--N", type=int, default=None)
    t.add_argument("--range", dest="index_range", default=None, help="lo:hi inclusive")
    return parser


# The flags that take no value; every other long flag takes one.
_VALUELESS_FLAGS = ("--help", "--version")


def _join_negative_values(argv: list) -> list:
    """argv with each value that starts like a negative number, such as
    -1/2, -1e400 or -1/2,1, joined to the long flag before it as
    --flag=value.  argparse takes only plain negative decimals for values
    and the rest for unknown options; no qaskey option starts with -<digit>
    or -., and a prefix of --help or --version keeps its meaning."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (re.match(r"-[0-9.]", arg) and prev.startswith("--") and len(prev) > 2
                and "=" not in prev and not any(f.startswith(prev) for f in _VALUELESS_FLAGS)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    # Exact values may run past the interpreter's int-to-str digit limit;
    # lift it for this command only (interpreters without it have none).
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "table":
            return _cmd_table(args)
        grid = _grid_from_args(args)
        if args.out:
            _check_out(args.out)
        doc = run_suite(args.suite, grid)
        text = RENDERERS[args.format](doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return exit_code_for(doc)
    except (QAskeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def console() -> None:
    """The process entry point (`qaskey`, `python -m qaskey.cli`): `main`,
    then exit with its code after freezing the heap, whose objects are all
    still reachable, so that the collections of interpreter shutdown skip
    them; `atexit` and stream flushing still run.  `main` freezes nothing:
    the tests and `bench/tracer.py` call it in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()
