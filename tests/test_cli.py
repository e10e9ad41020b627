"""CLI surface: suites, report formats, determinism, eval/table commands."""

import ast
import csv
import hashlib
import io
import json
import contextlib
import gc
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qaskey.cli import (
    EVAL_FAMILIES,
    SUITE_NAMES,
    TABLE_FAMILIES,
    _run_row,
    main,
    render_csv,
    render_json,
    render_text,
    run_suite,
)
from qaskey.families import (
    QParams, QRacahParams, RacahParams, qracah, qracah_weight, racah, racah_weight,
)
from qaskey import cli, identities as ids
from qaskey.identities import ParamGrid, linearization_qracah_params
from closed_forms import qracah_at_top


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_small_suite_json():
    code, out, err = run_cli(["verify", "--suite", "weight-recurrence", "--format", "json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["suite"] == "weight-recurrence"
    assert set(doc["summary"]) == {"pass", "fail", "error"}
    assert doc["summary"]["fail"] == 0 and doc["summary"]["error"] == 0
    assert doc["summary"]["pass"] == len(doc["checks"]) > 0
    assert all(rec["verdict"] == "pass" for rec in doc["checks"])
    assert "wallTimeMs" in doc


def test_verify_respects_qparams_flag():
    code, out, _ = run_cli(["verify", "--suite", "weight-recurrence",
                            "--qparams", "1/2,2/3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"]["qparams"] == ["1/2,2/3"]
    assert len(doc["checks"]) == 2  # ratio identity + representation check


def test_verify_rejects_inadmissible_qparams():
    code, _, err = run_cli(["verify", "--suite", "duality", "--qparams", "3/2,1"])
    assert code == 2
    assert "t" in err


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_every_declared_suite_is_wired_and_green():
    from qaskey.cli import exit_code_for

    one_carrier = (QParams(F(1, 2), F(2, 3)),)
    for grid in (ParamGrid(lmax=1), ParamGrid(lmax=1, qparams=one_carrier)):
        for name in SUITE_NAMES:
            doc = run_suite(name, grid)
            assert doc["summary"]["pass"] == len(doc["checks"]) > 0, (name, grid.qparams)
            assert exit_code_for(doc) == 0, (name, grid.qparams)


def test_report_determinism_across_runs():
    d1 = run_suite("orthogonality", ParamGrid())
    d2 = run_suite("orthogonality", ParamGrid())
    d1.pop("wallTimeMs")
    d2.pop("wallTimeMs")
    assert render_json(d1) == render_json(d2)


# SHA-256 of the lmax=1 `all` report with its wall time removed.  Any change
# to a verdict, a parameter, a witness or the record order changes them;
# record them again only when the reports are meant to change.
GOLDEN_ALL_LMAX1 = {
    "json": "ca4e7afe8f6797aa80a9b32967bec43af257808d2c2398b96b3be8ae5703d869",
    "text": "48f368aae100be650c52682ed45a0ce5d2a510376a95e3affd24fd789a1f6f35",
    "csv": "a0641959889a4b78bd52bc899740139b91bd8ae3c56aca3877d5b43fa8ce0a79",
}


def test_reports_are_byte_identical_to_the_recorded_digests():
    doc = run_suite("all", ParamGrid(lmax=1))
    text = re.sub(r" wallTimeMs=\d+", "", render_text(doc))
    doc.pop("wallTimeMs")
    rendered = {"json": render_json(doc), "text": text, "csv": render_csv(doc)}
    digests = {fmt: hashlib.sha256(out.encode()).hexdigest() for fmt, out in rendered.items()}
    assert digests == GOLDEN_ALL_LMAX1


# SHA-256 of the lmax=1 `all` json report, wall time removed, with the
# default carriers in another order: the first carrier, which the a-form,
# restriction and numeric-orthogonality rows use, is not the default one.
GOLDEN_ALL_LMAX1_SECOND_ORDERING = "1adde3064909c9d20f9c15f44027fb85b7001b966db457844aee563c8ae909a0"


def test_second_carrier_ordering_is_byte_identical_to_its_recorded_digest():
    qparams = (QParams(F(2, 3), F(1, 2)), QParams(F(1, 2), F(1, 3)), QParams(F(1, 2), F(2, 3)))
    doc = run_suite("all", ParamGrid(lmax=1, qparams=qparams))
    doc.pop("wallTimeMs")
    digest = hashlib.sha256(render_json(doc).encode()).hexdigest()
    assert digest == GOLDEN_ALL_LMAX1_SECOND_ORDERING


# SHA-256 of json reports, wall time removed, deep enough that many rows
# share one linearization lattice and one set of closed coefficients.
GOLDEN_DEEP = {
    ("dual-addition", 4): "cbd2a558dc253254c6376bd0a4ef1bbe71645e0b46e99e9597e7ae32bcc69adb",
    ("theorem-5-1", 3): "30994121b7b765ad880e0ab8ed4fbe0566139da9e5a3d3e045068af5317e281a",
}


@pytest.mark.parametrize("suite,lmax", sorted(GOLDEN_DEEP))
def test_deep_reports_are_byte_identical_to_their_recorded_digests(suite, lmax):
    doc = run_suite(suite, ParamGrid(lmax=lmax))
    doc.pop("wallTimeMs")
    assert hashlib.sha256(render_json(doc).encode()).hexdigest() == GOLDEN_DEEP[suite, lmax]


# SHA-256 of json reports, wall time removed, at the depths the benchmark
# and the scaling table run (lmax 15 on the default carriers included),
# dual-addition and the whole suite on beta = 1
# with their error records, and theorem-5-1 near q -> 1 and on beta = 1,
# which pin the closed prefactors there: (suite, lmax, --qparams or None
# for the default carriers).
# Seconds each, so they carry the `deep` marker: `pytest -m deep`.
GOLDEN_DEEPER = {
    ("dual-addition", 9, None): "eb73d331c823b2fe7a10cce1858e897542b2dae9315fda4e87daa464a5b5daa4",
    ("dual-addition", 11, None): "4cb99fd79bbfd21e3535fd7a3a70e000d649e4509cc4aeaf0b318b80292d5bbe",
    ("theorem-5-1", 9, None): "5c7c4d6c92a91f14d4757d603c9d215e9ab40896f9aa6071df0c4c2314c8199c",
    ("theorem-5-1", 11, None): "d2b9261dacbc1b3cacb7e02dc82810b18067700b213a49c3210a580377c4065b",
    ("dual-addition", 9, "1/2,1"): "3b35e04a93ce1cf4e580d01c02459918d8007608f6b71cf4d9fe129916946e93",
    ("all", 5, "1/2,1"): "2bbba2c5957fd2a8b7e58a03d953ab0c0673e191a1c2fd82e574ff6af16c4e87",
    ("theorem-5-1", 11, "9/10,1"): "01141d001f7a83388da13f0909f90afe7117602efcdcf9b850d469a764a57ab3",
    ("theorem-5-1", 11, "1/2,1"): "c44556875780c1e8d30689d2f2bcdbbd6605018900d7f46b4416a0fd4c60afdd",
    ("dual-addition", 15, None): "a6bc7ebf652599e7f1688a102bb20b48f961ce3020c24c3f3494ee6c790e25bd",
    ("theorem-5-1", 15, None): "7ad188a6de6f0f8e9690ab9696b6cbbc1eec2fdc2b3abf473b7198d2bf348b07",
}


@pytest.mark.deep
@pytest.mark.parametrize("suite,lmax,qparams", list(GOLDEN_DEEPER))
def test_deeper_reports_are_byte_identical_to_their_recorded_digests(suite, lmax, qparams):
    carriers = () if qparams is None else (QParams(*map(F, qparams.split(","))),)
    doc = run_suite(suite, ParamGrid(lmax=lmax, qparams=carriers))
    doc.pop("wallTimeMs")
    assert hashlib.sha256(render_json(doc).encode()).hexdigest() == GOLDEN_DEEPER[suite, lmax, qparams]


# SHA-256 of the json report, wall time removed, on the carrier beta = 1,
# whose error records carry the full text of their messages.
GOLDEN_BETA_ONE = "644caec60558c0576be4bf695a17c40abb56321888d142dfb96fcfba4eebde3f"


def test_beta_one_report_is_byte_identical_to_its_recorded_digest():
    doc = run_suite("all", ParamGrid(lmax=2, qparams=(QParams(F(1, 2), F(1)),)))
    doc.pop("wallTimeMs")
    assert hashlib.sha256(render_json(doc).encode()).hexdigest() == GOLDEN_BETA_ONE


# SHA-256 of the dual-addition json report, wall time removed, at lmax 6 on
# beta = 1: its 21 error records are norm-ratio denominators of the
# linearization lattices, deeper than the lmax 2 of GOLDEN_BETA_ONE.
GOLDEN_BETA_ONE_DUAL_ADDITION = "67802f73c977b5f91402cbf75dd11a9b96a8f84df652b2e477d55d3839b98c3f"


def test_beta_one_dual_addition_report_is_byte_identical_to_its_recorded_digest():
    doc = run_suite("dual-addition", ParamGrid(lmax=6, qparams=(QParams(F(1, 2), F(1)),)))
    doc.pop("wallTimeMs")
    assert doc["summary"]["error"] == 21
    assert hashlib.sha256(render_json(doc).encode()).hexdigest() == GOLDEN_BETA_ONE_DUAL_ADDITION


# SHA-256 of the default-grid `all` json report, wall time removed, with every
# comparison raising: each exact row becomes its error record, so this pins
# the id, the parameter keys and texts and the order of every row's record.
GOLDEN_ALL_ERRORS = "4dc213930c633aa694b3a11d1da561da31cfd0b326a4bde020124bb4fc899182"


def test_every_error_record_of_the_default_grid_is_byte_identical(monkeypatch):
    def injected(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(ids, "_compare", injected)
    doc = run_suite("all", ParamGrid())
    doc.pop("wallTimeMs")
    assert doc["summary"] == {"pass": 21, "fail": 0, "error": 831}
    assert hashlib.sha256(render_json(doc).encode()).hexdigest() == GOLDEN_ALL_ERRORS


# SHA-256 of `verify --suite all --alpha -1/2 --alpha -3/4` as json, wall time
# removed, the same on Python 3.10 to 3.13.  At alpha = -1/2 the classical
# linearization rows meet a vanishing denominator factor, (2 alpha + 1)_l, or
# alpha + 1/2 at l = m = 0: 28 error records that name alpha and the factor.
# At alpha = -3/4 the expansions hold and 15 rows fail on a negative
# coefficient.
GOLDEN_STRESS_ALPHAS = "2db2681d78ef89f72ba835f08ae171f0f29c35fc0d5e6e5316aa7e7285696822"


def test_stress_alphas_report_is_byte_identical_to_its_recorded_digest():
    code, out, err = run_cli(["verify", "--suite", "all", "--alpha", "-1/2", "--alpha", "-3/4"])
    assert (code, err) == (1, "")
    doc = json.loads(out)
    doc.pop("wallTimeMs")
    assert doc["summary"] == {"pass": 725, "fail": 15, "error": 28}
    for rec in (rec for rec in doc["checks"] if rec["verdict"] == "error"):
        l = int(rec["params"]["l"])
        factor = f"(2 alpha + 1)_{l}" if l else "alpha + 1/2"
        assert rec["message"] == ("ParameterError: classical linearization at alpha=-1/2: "
                                  f"the denominator factor {factor} vanishes")
    assert hashlib.sha256(render_json(doc).encode()).hexdigest() == GOLDEN_STRESS_ALPHAS


def test_every_record_id_has_a_fail_negative():
    # rows whose check takes a mutation are swept by test_mutation_is_detected;
    # the others are float probes, each with a fail-negative of its own
    from tests.test_identities import SWEEP_ROWS, takes_mutation
    from tests.test_numerics import LIMIT_ROWS, THRESHOLD_PROBES

    covered = {f"limit-{kind}" for kind, _ in LIMIT_ROWS}
    covered |= {probe.replace("_", "-") for probe, _, _ in THRESHOLD_PROBES}
    probes = [row for row in SWEEP_ROWS if not takes_mutation(row[2].func)]
    assert {call.func.__module__ for _, _, call in probes} == {"qaskey.numerics"}
    assert {_run_row(*row)["id"] for row in probes} <= covered


def test_beta_one_errors_only_where_the_lattice_degenerates():
    # beta = 1 (s = 1): the k = 0 coefficients are finite; only the q-Racah
    # norms of the inversion rows vanish
    grid = ParamGrid(lmax=2, qparams=(QParams(F(1, 2), F(1)),))
    doc = run_suite("restriction", grid)
    assert doc["summary"]["pass"] == len(doc["checks"]) > 0
    doc = run_suite("dual-addition", grid)
    assert doc["summary"]["fail"] == 0
    errors = [rec for rec in doc["checks"] if rec["verdict"] == "error"]
    assert {(rec["params"]["mode"], rec["params"]["l"], rec["params"]["m"]) for rec in errors} == {
        ("inversion", str(l), str(m)) for l, m in grid.lm_pairs() if m >= 1}
    assert len(errors) == 3
    for rec in errors:
        assert rec["id"] == "dual-addition"
        assert rec["message"].startswith("VanishingDenominator: ")


def test_beta_one_error_records_of_the_default_grid():
    # `verify --qparams 1/2,1`: 17 error records, each the norm ratio of a
    # linearization lattice at n = 0, where 1 - alpha beta q = 0
    doc = run_suite("all", ParamGrid(qparams=(QParams(F(1, 2), F(1)),)))
    errors = [rec for rec in doc["checks"] if rec["verdict"] == "error"]
    qp = {"qp": "t=1/2,s=1"}
    expected = [("orthogonality-q-racah", {"l": "5", "m": "4", **qp}),
                ("orthogonality-q-racah", {"l": "4", "m": "3", **qp})]
    expected += [("dual-addition", {"l": str(l), "m": str(m), "mode": "inversion", **qp,
                                    "target": "q"})
                 for l in range(1, 6) for m in range(1, l + 1)]
    assert [(rec["id"], rec["params"]) for rec in errors] == expected
    assert len(errors) == 17
    assert {rec["message"] for rec in errors} == {
        "VanishingDenominator: vanishing denominator at index 0 "
        "(q-Racah norm-ratio denominator vanishes)"}


def test_beta_one_error_records_on_a_carrier_read_from_the_shift_cache():
    # the carrier t=1/2,s=1 as its beta_shift(0), a record of the shift
    # cache: the same 17 error records, with the same index and text
    fresh = QParams(F(1, 2), F(1))
    docs = [run_suite("all", ParamGrid(qparams=(qp,)))["checks"] for qp in (fresh, fresh.beta_shift(0))]
    errors = [[rec for rec in checks if rec["verdict"] == "error"] for checks in docs]
    assert docs[0] == docs[1] and len(errors[1]) == 17


def test_errored_check_names_itself():
    # q = 1/16, beta = 1: the q-Racah lattices of the orthogonality suite
    # have a vanishing norm denominator
    doc = run_suite("orthogonality", ParamGrid(lmax=1, qparams=(QParams(F(1, 2), F(1)),)))
    errors = [rec for rec in doc["checks"] if rec["verdict"] == "error"]
    assert len(errors) == 2
    for rec, (l, m) in zip(errors, ((5, 4), (4, 3))):
        assert rec["id"] == "orthogonality-q-racah"
        assert rec["params"] == {"l": str(l), "m": str(m), "qp": "t=1/2,s=1"}
        assert rec["message"].startswith("VanishingDenominator: ")


def test_verify_errors():
    for bad in (["--grid-lmax", "-1"], ["--grid-mmax", "-1"]):
        code, out, err = run_cli(["verify", "--suite", "theorem-5-1"] + bad)
        assert code == 2 and out == "" and err.startswith("error: ") and "must be >= 0" in err
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "difference", "--jobs", "2"])
    assert exc.value.code == 2


def test_text_and_csv_formats():
    code, out, _ = run_cli(["verify", "--suite", "weight-recurrence", "--format", "text",
                            "--qparams", "1/2,2/3"])
    assert code == 0
    assert out.splitlines()[-1].startswith("summary: pass=")
    code, out, _ = run_cli(["verify", "--suite", "weight-recurrence", "--format", "csv",
                            "--qparams", "1/2,2/3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "verdict", "params", "witness_location", "lhs", "rhs"]
    assert all(row[1] == "pass" for row in rows[1:])


def test_verify_out_file(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(["verify", "--suite", "weight-recurrence", "--out", str(path),
                            "--qparams", "1/2,2/3"])
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["summary"]["fail"] == 0


def test_text_report_ends_a_fail_with_its_witness_and_an_error_with_its_message(monkeypatch):
    check = ids.check_weight_ratio
    monkeypatch.setattr(ids, "check_weight_ratio", lambda qp: check(qp, mutation=ids.Mutation()))
    doc = run_suite("weight-recurrence", ParamGrid(qparams=(QParams(F(1, 2), F(2, 3)),)))
    assert render_text(doc).splitlines()[1] == (
        "FAIL  weight-recurrence s=2/3 t=1/2  [at weight-ratio, z^0: lhs=163/81 rhs=82/81]")
    code, out, _ = run_cli(["verify", "--suite", "orthogonality", "--qparams", "1/2,1",
                            "--format", "text"])
    message = ("VanishingDenominator: vanishing denominator at index 0 "
               "(q-Racah norm-ratio denominator vanishes)")
    assert code == 1 and [line for line in out.splitlines() if line.startswith("ERROR")] == [
        f"ERROR orthogonality-q-racah l={l} m={m} qp=t=1/2,s=1  [{message}]"
        for l, m in ((5, 4), (4, 3))]


def test_a_non_positive_weight_is_the_error_record_of_its_row():
    row = cli._row(ids.check_orthogonality_discrete,
                   params_obj=RacahParams(F(1, 2), F(1, 3), 3, F(1, 5)))
    assert _run_row(*row) == {
        "id": "orthogonality-discrete", "params": {"params_obj": "alpha=1/2,beta=1/3,N=3,delta=1/5"},
        "verdict": "error", "message": "NonPositiveWeight: weight at x=2 is -513/847 (must be positive)"}


@pytest.mark.parametrize("name,message", [("missing/x.json", ": directory {parent} does not exist"),
                                          (".", " is a directory")])
def test_out_path_that_cannot_be_written_stops_before_any_suite_runs(tmp_path, monkeypatch,
                                                                     name, message):
    path, ran = tmp_path / name, []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    code, out, err = run_cli(["verify", "--suite", "weight-recurrence", "--out", str(path)])
    assert (code, out, ran) == (2, "", [])
    assert err == f"error: --out {path}{message.format(parent=path.parent)}\n"


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes into a directory of mode 555")
def test_out_path_in_a_directory_that_cannot_be_written_stops_before_any_suite_runs(
        tmp_path, monkeypatch):
    ro, ran = tmp_path / "ro", []
    ro.mkdir(mode=0o555)
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    code, out, err = run_cli(["verify", "--suite", "weight-recurrence", "--out", str(ro / "x.json")])
    assert (code, out, ran, list(ro.iterdir())) == (2, "", [], [])
    assert err == f"error: --out {ro / 'x.json'}: directory {ro} is not writable\n"


def test_config_file(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("# comment\nqparams=1/2,2/3\nlmax=2\nalphas=0,1/2\n")
    code, out, _ = run_cli(["verify", "--suite", "theorem-5-1", "--config", str(cfg),
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"]["lmax"] == 2
    assert doc["grid"]["qparams"] == ["1/2,2/3"]
    assert doc["grid"]["alphas"] == ["0", "1/2"]
    # flags override the config file
    code, out, _ = run_cli(["verify", "--suite", "theorem-5-1", "--config", str(cfg),
                            "--grid-lmax", "1", "--format", "json"])
    doc = json.loads(out)
    assert doc["grid"]["lmax"] == 1
    cfg.write_text("lmax=x\n")
    code, out, err = run_cli(["verify", "--suite", "theorem-5-1", "--config", str(cfg)])
    assert code == 2 and out == "" and "lmax" in err and len(err.splitlines()) == 1
    # a config value the flags override is not read
    code, _, _ = run_cli(["verify", "--suite", "theorem-5-1", "--config", str(cfg), "--grid-lmax", "1"])
    assert code == 0


def test_config_gives_the_report_of_the_same_flags(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("lmax=3\nmmax=2\nqparams=1/2,2/3;2/3,1/2\nalphas=1/2,1\n")
    code, from_config, _ = run_cli(["verify", "--suite", "linearization", "--config", str(cfg)])
    assert code == 0
    code, from_flags, _ = run_cli(["verify", "--suite", "linearization", "--grid-lmax", "3",
                                   "--grid-mmax", "2", "--qparams", "1/2,2/3",
                                   "--qparams", "2/3,1/2", "--alpha", "1/2", "--alpha", "1"])
    assert code == 0
    config_doc, flags_doc = json.loads(from_config), json.loads(from_flags)
    del config_doc["wallTimeMs"], flags_doc["wallTimeMs"]
    assert config_doc == flags_doc
    assert config_doc["grid"] == {"lmax": 3, "mmax": 2, "nmax": 4,
                                  "qparams": ["1/2,2/3", "2/3,1/2"], "alphas": ["1/2", "1"]}


def test_config_that_is_not_utf8_is_a_configuration_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(["verify", "--suite", "weight-recurrence", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == f"error: config file {cfg} is not UTF-8 text\n"


@pytest.mark.parametrize("body,message", [
    ("oops\n", " has bad line 'oops'"),
    ("lmax=x\n", ": key lmax expects an integer, got 'x'"),
    ("mmax=1.5\n", ": key mmax expects an integer, got '1.5'"),
    ("qparams=1/2\n", ": key qparams expects 't,s', got '1/2'"),
    ("qparams=1/2,2/3;3\n", ": key qparams expects 't,s', got '3'"),
    ("qparams=2,1/2\n", ": need 0 < t < 1, got t=2"),
    ("alphas=0,x\n", ": cannot parse rational from 'x'"),
])
def test_config_errors_name_their_file(tmp_path, body, message):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(body)
    code, out, err = run_cli(["verify", "--suite", "weight-recurrence", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config file {cfg}{message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("body,message", [
    ("lmax=-1\n", ": key lmax must be >= 0, got -1"),
    ("mmax=-2\n", ": key mmax must be >= 0, got -2"),
    ("qparams=2,1\n", ": need 0 < t < 1, got t=2 (key qparams)"),
    ("qparams=1/2,2/3;1/2,3\n", ": need s*t < 1 (beta < q^(-1/2)), got s*t=3/2 (key qparams)"),
])
def test_config_values_out_of_range_name_their_file_and_key(tmp_path, body, message):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(body)
    code, out, err = run_cli(["verify", "--suite", "weight-recurrence", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == f"error: config file {cfg}{message}\n"


@pytest.mark.parametrize("name,reason", [("missing.cfg", "No such file or directory"),
                                         (".", "Is a directory")])
def test_config_file_that_cannot_be_read_is_a_configuration_error(tmp_path, name, reason):
    path = tmp_path / name
    code, out, err = run_cli(["verify", "--suite", "weight-recurrence", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: config file {path} cannot be read: {reason}\n"


def test_config_key_the_grid_does_not_read_is_a_configuration_error(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid-lmax=1\nqparams=1/2,2/3\n")
    code, out, err = run_cli(["verify", "--suite", "theorem-5-1", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == f"error: config file {cfg} has unknown key 'grid-lmax'\n"


def test_eval_examples():
    code, out, _ = run_cli(["eval", "--family", "ultraspherical", "--n", "2",
                            "--alpha", "0", "--at", "1/2"])
    assert code == 0
    assert out.splitlines()[0] == "exact: -1/8"
    code, out, _ = run_cli(["eval", "--family", "cqu", "--n", "0",
                            "--qparams", "1/2,2/3", "--at-z", "7/5"])
    assert code == 0
    assert out.splitlines()[0] == "exact: 1"


def test_eval_qracah_top_lattice_matches_closed_form():
    qp = QParams(F(1, 2), F(2, 3))
    alpha = qp.beta / qp.qhalf
    delta = 1 / (qp.beta * qp.qhalf * qp.q ** 4)
    qrp = QRacahParams(alpha, alpha, delta, 3, qp)
    code, out, _ = run_cli([
        "eval", "--family", "q-racah", "--n", "1", "--x", "3",
        "--alpha", str(alpha), "--beta", str(alpha), "--delta", str(delta),
        "--N", "3", "--qparams", "1/2,2/3",
    ])
    assert code == 0
    assert out.splitlines()[0] == f"exact: {qracah_at_top(1, qrp)}"


def test_a_negative_rational_after_a_flag_is_its_value():
    argv = ["eval", "--family", "jacobi", "--n", "1", "--alpha", "-1/2", "--beta", "0",
            "--at", "1/2"]
    joined = argv[:5] + ["--alpha=-1/2"] + argv[7:]
    assert run_cli(argv) == run_cli(joined) == (0, "exact: 1/4\nfloat: 0.25\n", "")
    code, out, err = run_cli(["verify", "--suite", "weight-recurrence", "--qparams", "-1/2,1"])
    assert (code, out, err) == (2, "", "error: need 0 < t < 1, got t=-1/2\n")
    code, out, _ = run_cli(["eval", "--family", "jacobi", "--n", "1", "--alpha", "1/2",
                            "--beta", "1/3", "--at", "-1e400"])
    assert code == 0 and out.splitlines()[1] == "float: -inf"


@pytest.mark.parametrize("argv", [["--version", "-1/2"], ["--vers", "-1"], ["eval", "-h", "-1/2"],
                                  ["table", "--he", "-1/2"]])
def test_help_and_version_take_no_value(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out


def test_eval_qracah_one_point_lattice():
    argv = ["eval", "--family", "q-racah", "--n", "0", "--x", "0", "--alpha", "16/9",
            "--beta", "16/9", "--delta", "589824/9", "--qparams", "1/2,2/3"]
    assert run_cli(argv + ["--N", "0"]) == (0, "exact: 1\nfloat: 1\n", "")
    assert run_cli(argv + ["--N=-1"]) == (2, "", "error: q-Racah N must be >= 0\n")


def test_eval_laurent_output():
    code, out, _ = run_cli(["eval", "--family", "cqu", "--n", "1", "--qparams", "1/2,2/3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("exact: ") and "z" in lines[0]
    assert lines[1].startswith("float: ")


# sha256 of the concatenated stdout of the commands below, which print
# Laurent polynomials in full (odd exponents included) and evaluate them at
# positive and negative z; it pins `__str__`, `render` and `eval_at`.
# Recorded again when the float line of `eval` took the sign and exponent
# rules of the exact line.
GOLDEN_EVAL_ARGVS = (
    ["eval", "--family", "cqu", "--n", "8", "--qparams", "1/2,2/3"],
    ["eval", "--family", "cqu-alt", "--n", "8", "--qparams", "1/2,2/3"],
    ["eval", "--family", "askey-wilson", "--n", "5", "--a", "1/2", "--b", "-1/3", "--c", "2/5",
     "--d", "3/7", "--qbase", "1/3"],
    ["eval", "--family", "cqu", "--n", "8", "--qparams", "1/2,2/3", "--at-z", "7/5"],
    ["eval", "--family", "cqu", "--n", "8", "--qparams", "1/2,2/3", "--at-z", "-3/2"],
    ["table", "--family", "cqu-values", "--qparams", "1/2,2/3", "--at-z", "-5/3", "--range", "0:6"],
)
GOLDEN_EVAL = "0eecd8c7505330203f8fd30176bcf0eec2cf0813b6823373331f1cd62f656fde"


def test_printed_and_evaluated_laurent_outputs_match_their_recorded_digest():
    digest = hashlib.sha256()
    for argv in GOLDEN_EVAL_ARGVS:
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_EVAL


def test_float_line_of_a_laurent_polynomial_has_the_shape_of_the_exact_line():
    # the same signs, powers of z and left-out unit magnitudes: no "+ -",
    # no z^1 and no z^0
    def shape(line):
        return re.sub(r"[0-9][0-9./e+-]*|inf", "#", line.split(": ", 1)[1])

    argvs = GOLDEN_EVAL_ARGVS[:3] + (["eval", "--family", "cqu", "--n", "0", "--qparams", "1/2,2/3"],
                                     ["eval", "--family", "cqu", "--n", "1", "--qparams", "1/2,1"])
    for argv in argvs:
        code, out, _ = run_cli(argv)
        exact, flt = out.splitlines()
        assert code == 0 and shape(exact) == shape(flt)
        assert "+ -" not in flt and "z^1 " not in flt + " " and "z^0" not in flt
    assert out == "exact: 2/5 z + 2/5 z^-1\nfloat: 0.40000000000000002 z + 0.40000000000000002 z^-1\n"


def test_float_output_of_values_outside_the_double_range_is_infinite():
    code, out, _ = run_cli(["eval", "--family", "jacobi", "--n", "2", "--alpha", "1/2",
                            "--beta", "1/3", "--at", "1e400"])
    assert code == 0 and out.splitlines()[1] == "float: inf"
    code, out, _ = run_cli(["eval", "--family", "jacobi", "--n", "1", "--alpha", "1/2",
                            "--beta", "1/3", "--at=-1e400"])
    assert code == 0 and out.splitlines()[1] == "float: -inf"
    code, out, _ = run_cli(["eval", "--family", "cqu", "--n", "2", "--qparams", "1/2,2/3",
                            "--at-z", "1e-400"])
    assert code == 0 and out.splitlines()[1] == "float: inf"
    code, out, _ = run_cli(["eval", "--family", "cqu", "--n", "1", "--qparams", "1/2,2/3",
                            "--at-z=-1e-400"])
    assert code == 0 and out.splitlines()[1] == "float: -inf"
    code, out, _ = run_cli(["table", "--family", "ultraspherical-values", "--alpha", "0",
                            "--at=-1e400", "--range", "0:3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[2] for row in rows] == ["1.0", "-inf", "inf", "-inf"]
    assert rows[1][1] == "-1" + "0" * 400


def digit_limit():
    """The interpreter's int-to-str digit limit; None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_exact_values_past_the_int_to_str_digit_limit_print_in_full():
    # start from CPython's default limit, which each command must restore
    previous = digit_limit()
    expected = None if previous is None else 4300
    if expected:
        sys.set_int_max_str_digits(expected)
    try:
        code, out, _ = run_cli(["eval", "--family", "jacobi", "--n", "1", "--alpha", "0",
                                "--beta", "0", "--at", "1e5000"])
        assert code == 0 and out.splitlines() == ["exact: 1" + "0" * 5000, "float: inf"]
        assert digit_limit() == expected
        code, out, _ = run_cli(["verify", "--suite", "weight-recurrence", "--alpha", "1e-5000"])
        assert code == 0 and json.loads(out)["grid"]["alphas"] == ["1/1" + "0" * 5000]
        assert digit_limit() == expected
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def test_eval_covers_every_family_id():
    argv_by_family = {
        "jacobi": ["--alpha", "1/2", "--beta", "1/3", "--at", "2/5"],
        "ultraspherical": ["--alpha", "1/2", "--at", "2/5"],
        "krawtchouk": ["--x", "1", "--p", "1/3", "--N", "3"],
        "hahn": ["--x", "1", "--alpha", "1/2", "--beta", "1/3", "--N", "3"],
        "dual-hahn": ["--x", "1", "--alpha", "1/2", "--beta", "1/3", "--N", "3"],
        "racah": ["--x", "1", "--alpha", "1/2", "--beta", "1/3", "--delta", "1/5", "--N", "3"],
        "wilson-dual": ["--m", "2", "--a", "1", "--b", "3/2", "--c", "2", "--d", "5/2"],
        "askey-wilson": ["--a", "1/3", "--b", "1/12", "--c=-1/3", "--d=-1/12",
                         "--qbase", "1/16", "--at-z", "7/5"],
        "cqu": ["--qparams", "1/2,2/3", "--at-z", "7/5"],
        "cqu-alt": ["--qparams", "1/2,2/3", "--at-z", "7/5"],
        "q-racah": ["--x", "1", "--alpha", "16/9", "--beta", "16/9",
                    "--delta", "589824/9", "--N", "3", "--qparams", "1/2,2/3"],
    }
    assert set(argv_by_family) == set(EVAL_FAMILIES)
    values = {}
    for family, extra in argv_by_family.items():
        code, out, err = run_cli(["eval", "--family", family, "--n", "2"] + extra)
        assert code == 0, (family, err)
        assert out.startswith("exact: "), family
        values[family] = out.splitlines()[0]
    # the two series representations of the same family agree
    assert values["cqu"] == values["cqu-alt"]


# Command lines that no other test runs as they stand, run through `main` so
# that every Python version of the CI matrix runs them; CI runs only the
# three that need the installed entry point.
@pytest.mark.parametrize("argv", [
    "eval --family cqu --n 2 --qparams 1/2,2/3",
    "eval --family cqu-alt --n 3 --qparams 1/2,2/3",
    "eval --family askey-wilson --n 2 --a 1/2 --b 1/3 --c 1/4 --d 1/5 --qbase 1/2",
    "verify --suite backward-shift --format text",
    "verify --suite limits --format text",
    "verify --suite addition --format text",
    "verify --suite numeric-orthogonality --format text",
    "verify --suite duality --format text",
])
def test_command_lines_exit_zero(argv):
    code, out, err = run_cli(argv.split())
    assert (code, err) == (0, "") and out, argv


def test_eval_errors():
    code, _, err = run_cli(["eval", "--family", "nosuch", "--n", "1"])
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(["eval", "--family", "ultraspherical", "--n", "1"])
    assert code == 2 and "--alpha" in err
    code, out, err = run_cli(["eval", "--family", "askey-wilson", "--n", "2", "--a", "1/3",
                              "--b", "1/12", "--c=-1/3", "--d=-1/12", "--qbase", "1/16",
                              "--at-z", "0"])
    assert code == 2 and out == "" and "z = 0" in err
    code, out, err = run_cli(["eval", "--family", "cqu", "--n", "-1", "--qparams", "1/2,2/3"])
    assert code == 2 and out == "" and "degree" in err


AW_VANISHING = "--family askey-wilson --n 3 --a 1 --b 2 --c 1/3 --d 1/5 --qbase 1/2"


@pytest.mark.parametrize("argv,message", [
    ("--family jacobi --n -1 --alpha 1/2 --beta 1/3 --at 2/5",
     "termination index must be a natural number"),
    ("--family racah --n 3 --x 2 --alpha -2 --beta 1/3 --delta 1/5 --N 4",
     "vanishing denominator at index 2 ((b)_k factor with b=-1)"),
    ("--family wilson-dual --n 2 --m 2 --a 0 --b 0 --c 1 --d 1",
     "vanishing denominator at index 1 ((b)_k factor with b=0)"),
    (AW_VANISHING + " --at-z 7/5", "vanishing denominator at index 2 ((b; q)_k factor with b=2)"),
    (AW_VANISHING, "vanishing denominator at index 2 (Laurent q-series denominator)"),
])
def test_eval_series_errors_name_their_factor(argv, message):
    assert run_cli(["eval", *argv.split()]) == (2, "", f"error: {message}\n")


def test_table_errors():
    for bad in ("a:b", "5", "0:4"):
        code, out, err = run_cli(["table", "--family", "krawtchouk-weights", "--p", "1/3",
                                  "--N", "3", "--range", bad])
        assert code == 2 and out == "" and "--range" in err and len(err.splitlines()) == 1


def test_table_qracah_weights():
    qp = QParams(F(1, 2), F(2, 3))
    alpha = qp.beta / qp.qhalf
    delta = 1 / (qp.beta * qp.qhalf * qp.q ** 4)
    code, out, _ = run_cli([
        "table", "--family", "q-racah-weights", "--N", "3",
        "--alpha", str(alpha), "--beta", str(alpha), "--delta", str(delta),
        "--qparams", "1/2,2/3",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "exact", "float"]
    assert len(rows) == 5
    assert rows[1][1] == "1"  # first weight


def test_table_racah_weights_sum_to_total_mass():
    from qaskey.families import racah_h0
    from qaskey.series import parse_rat

    code, out, _ = run_cli(["table", "--family", "racah-weights", "--N", "3",
                            "--alpha", "0", "--beta", "0", "--delta", "-5"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    total = sum(parse_rat(row[1]) for row in rows)
    assert total == racah_h0(RacahParams(F(0), F(0), 3, F(-5)))


@pytest.mark.parametrize("family,p", [
    ("racah-norms", RacahParams(F(0), F(0), 3, F(-5))),
    ("racah-norms", RacahParams(F(1, 2), F(1, 3), 4, F(1, 5))),
    ("q-racah-norms", QRacahParams(F(16, 9), F(16, 9), F(589824, 9), 3,
                                   QParams(F(1, 2), F(2, 3)))),
    ("q-racah-norms", linearization_qracah_params(QParams(F(2, 3), F(1, 2)), 5, 4)),
])
def test_table_norms_are_the_gram_diagonal(family, p):
    # each row is h_n = sum_x w(x) R_n(x)^2 over the lattice 0..N
    q_side = family.startswith("q-")
    weight, poly = (qracah_weight, qracah) if q_side else (racah_weight, racah)
    argv = ["table", "--family", family, f"--alpha={p.alpha}", f"--beta={p.beta}",
            f"--delta={p.delta}", f"--N={p.N}"] + ([f"--qparams={p.qp.t},{p.qp.s}"] if q_side else [])
    code, out, _ = run_cli(argv)
    assert code == 0
    rows = [(int(i), F(h)) for i, h, _ in list(csv.reader(io.StringIO(out)))[1:]]
    assert rows == [(n, sum(weight(x, p) * poly(n, x, p) ** 2 for x in range(p.N + 1)))
                    for n in range(p.N + 1)]


@pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
def test_table_negative_range_bound_names_the_flag(family):
    code, out, err = run_cli(["table", "--family", family, "--p", "1/3", "--N", "3",
                              "--alpha", "0", "--beta", "1/2", "--delta", "1/5",
                              "--qparams", "1/2,2/3", "--at", "1/2", "--at-z", "7/5",
                              "--range", "-1:1"])
    assert (code, out) == (2, "")
    assert err == "error: --range lower bound must be >= 0, got '-1:1'\n"


@pytest.mark.parametrize("family", [f for f in sorted(TABLE_FAMILIES)
                                    if f.endswith(("-weights", "-norms"))])
def test_table_range_past_the_lattice_names_the_flag(family):
    # the norm index 3 of racah-norms on 0..2 was reported as "x=3"
    code, out, err = run_cli(["table", "--family", family, "--p", "1/3", "--N", "2",
                              "--alpha", "1/2", "--beta", "1/3", "--delta", "1/5",
                              "--qparams", "1/2,2/3", "--range", "1:3"])
    assert (code, out) == (2, "")
    assert err == "error: --range upper bound must be <= N = 2, got '1:3'\n"


def test_table_empty_range():
    code, out, _ = run_cli(["table", "--family", "krawtchouk-weights", "--p", "1/3",
                            "--N", "3", "--range", "1:0"])
    assert code == 0
    assert out.splitlines() == ["index,exact,float"]


def test_table_values_families():
    code, out, _ = run_cli(["table", "--family", "ultraspherical-values", "--alpha", "0",
                            "--at", "1/2", "--range", "0:3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[2][1] == "-1/8"
    code, out, _ = run_cli(["table", "--family", "cqu-values", "--qparams", "1/2,2/3",
                            "--at-z", "7/5", "--range", "0:2"])
    assert code == 0
    assert len(out.splitlines()) == 4


# The vocabulary of the fuzz test: every command, family and cheap suite,
# with rationals (0 and negatives among them), bad numbers and bad ranges,
# carriers near q = 1, config files and report paths.
FILES = {
    "grid.cfg": b"lmax=1\nqparams=1/2,2/3\n",
    "bad-line.cfg": b"oops\n",
    "unknown-key.cfg": b"grid-lmax=1\n",
    "negative-lmax.cfg": b"lmax=-1\n",
    "inadmissible-qparams.cfg": b"qparams=2,1\n",
    "unparsable-mmax.cfg": b"mmax=x\n",
    "unparsable-alphas.cfg": b"alphas=0,1/0\n",
    "not-utf8.cfg": b"\xff\xfe\x00",
}
RATIONALS = ("0", "1", "-1", "1/2", "2/3", "-3/4", "5/2", "1e400", "-1e400", "1e-400", "1e5000",
             "1e-5000", "1/0", "abc", "")
INTS = ("-1", "0", "1", "2", "3", "x")
FLAG_VALUES = {
    "--n": INTS, "--m": INTS, "--x": INTS, "--N": INTS,
    "--alpha": RATIONALS, "--beta": RATIONALS, "--delta": RATIONALS, "--p": RATIONALS,
    "--a": RATIONALS, "--b": RATIONALS, "--c": RATIONALS, "--d": RATIONALS,
    "--qbase": RATIONALS, "--at": RATIONALS, "--at-z": RATIONALS,
    "--qparams": ("1/2,2/3", "2/3,1/2", "1/2,1", "99/100,1/2", "0,1", "1/2", "a,b", "1/2,-1"),
    "--range": ("0:2", "1:0", "-1:1", "a:b", "5", ":", "0:x"),
    "--grid-lmax": ("-1", "0", "1"), "--grid-mmax": ("-1", "0", "1"),
    "--format": ("json", "text", "csv", "xml"),
    # @ stands for the directory of FILES; missing.cfg and missing/ are not in it
    "--config": (*(f"@{name}" for name in sorted(FILES)), "@missing.cfg"),
    "--out": ("@report.json", "@missing/x.json", "@."),
}
COMMAND_FLAGS = {
    "verify": ("--qparams", "--alpha", "--grid-mmax", "--format", "--config", "--out"),
    "eval": ("--m", "--x", "--N", "--alpha", "--beta", "--delta", "--p", "--a", "--b", "--c",
             "--d", "--qbase", "--qparams", "--at", "--at-z"),
    "table": ("--alpha", "--beta", "--delta", "--p", "--qparams", "--at", "--at-z", "--N",
              "--range"),
}
CHEAP_SUITES = ("weight-recurrence", "difference", "backward-shift", "theorem-5-1",
                "orthogonality", "product-formula", "numeric-orthogonality", "nonsense")
EXAMPLE_DEADLINE_S = 10


def _flag_value(draw, flag: str) -> list:
    """The flag with a drawn value, as --flag=value or as --flag value."""
    value = draw(st.sampled_from(FLAG_VALUES[flag]))
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(CHEAP_SUITES)), *_flag_value(draw, "--grid-lmax")]
    else:
        names = tuple(EVAL_FAMILIES) if command == "eval" else tuple(TABLE_FAMILIES)
        argv += ["--family", draw(st.sampled_from(names + ("nosuch",)))]
    if command == "eval":
        argv += _flag_value(draw, "--n")
    for flag in COMMAND_FLAGS[command]:
        if draw(st.integers(0, 4)):  # each flag is there four times in five
            argv += _flag_value(draw, flag)
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    path = tmp_path_factory.mktemp("files")
    for name, body in FILES.items():
        (path / name).write_bytes(body)
    return path


class DeadlinePassed(BaseException):
    """Raised into a command that runs past its deadline; not an Exception,
    so no error record or exit code of the command can swallow it."""


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise DeadlinePassed(f"no exit code within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_any_argv_ends_in_an_exit_code(files, argv):
    argv = [arg.replace("@", f"{files}/") for arg in argv]
    try:
        with deadline(EXAMPLE_DEADLINE_S):
            code, _, err = run_cli(argv)
    except SystemExit as exc:  # argparse rejects the command line
        assert exc.code in (0, 2), argv
        return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)


def test_main_leaves_the_collector_unfrozen():
    # main runs in-process (tests, the benchmark's tracer): only the process
    # entry points freeze the heap
    before = gc.get_freeze_count()
    assert run_cli(["verify", "--suite", "weight-recurrence"])[0] == 0
    assert run_cli(["verify", "--suite", "weight-recurrence", "--grid-lmax", "-1"])[0] == 2
    assert gc.get_freeze_count() == before


def test_the_console_entry_freezes_the_heap_after_main_returns(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 1)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.console()
    assert exc.value.code == 1 and events == ["main", "freeze"]


def test_both_process_entry_points_are_the_console_entry():
    root = Path(cli.__file__).parents[2]
    script = re.search(r'^qaskey = "qaskey\.cli:(\w+)"$', (root / "pyproject.toml").read_text(),
                       re.MULTILINE)
    assert script and getattr(cli, script.group(1)) is cli.console
    guard = [node for node in ast.parse(Path(cli.__file__).read_text()).body
             if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in guard[0].body] == ["console()"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, code in ((["verify", "--suite", "weight-recurrence"], 0),
                       (["verify", "--suite", "weight-recurrence", "--grid-lmax", "-1"], 2)):
        proc = subprocess.run([sys.executable, "-m", "qaskey.cli", *argv], env=env,
                              capture_output=True, text=True, check=False)
        expected = run_cli(argv)
        assert (proc.returncode, proc.stderr) == (code, expected[2]) and expected[0] == code
        assert re.sub(r'"wallTimeMs": \d+', "", proc.stdout) == re.sub(r'"wallTimeMs": \d+', "", expected[1])


def test_a_carrier_near_q_one_ends_its_numeric_rows():
    # at t = 99/100 the off-diagonal integrals are about 0 while their
    # integrand reaches about 1e13, so the quadrature settles on the scale
    # of the integral of |f|; on a relative scale of |total| it never did
    with deadline(EXAMPLE_DEADLINE_S):
        code, out, _ = run_cli(["verify", "--suite", "numeric-orthogonality",
                                "--qparams", "99/100,1/2"])
    assert code == 0 and json.loads(out)["summary"] == {"pass": 14, "fail": 0, "error": 0}


# SHA-256 of stdout, the wall-time line removed, recorded before any
# import was deferred: the commands that load `csv` and `numerics` late.
LATE_IMPORT_DIGESTS = {
    ("verify", "--suite", "weight-recurrence", "--format", "csv"):
        "499b5c4d942d6b7d8a7c849375f32489836201b906c17048bc91d507762f13ac",
    ("verify", "--suite", "limits"):
        "43b0fad42152f5e5533882c0a4b5286eb75443fa496cfbf966acc60bc51725b6",
}


def test_importing_the_cli_loads_only_what_every_command_runs():
    # -S: no site module, whose .pth files may import modules of their own
    src = str(Path(cli.__file__).parents[1])
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import qaskey.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src], capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "qaskey.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "csv", "qaskey.numerics"}
    for argv, digest in LATE_IMPORT_DIGESTS.items():
        proc = subprocess.run([sys.executable, "-S", "-m", "qaskey.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              check=True)
        report = re.sub(rb'  "wallTimeMs": \d+\n', b"", proc.stdout)
        assert hashlib.sha256(report).hexdigest() == digest, argv
