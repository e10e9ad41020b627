"""Self-test of the benchmark; it takes about a minute.

    python3 -m pytest bench -q

It proves the correctness gate is not vacuous (a corrupted report counts
as a failed invocation), that the trace wrappers fire (every per-layer
counter reads > 0 on the workloads it is assigned to), that the layer
self times add up to `cli.run_suite.incl_s`, that the tracer's own time is
not charged to the traced code, that times are rescaled by the speed probe,
and that the peak RSS of a call is its own.
"""

from __future__ import annotations

import math
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer


@pytest.fixture(autouse=True)
def work_dir():
    run.WORK.mkdir(exist_ok=True)
    yield
    shutil.rmtree(run.WORK, ignore_errors=True)


@pytest.fixture
def genuine_report(work_dir) -> tuple[bytes, str]:
    argv, index = run.verify_argv("all-l5", 0)
    reference = run.load_reference("all-l5", index)
    inv, raw = run.spawn(run.plain_cmd(argv), reference)
    assert inv.failure is None
    return raw, reference


def _flip_one_verdict(raw: bytes) -> bytes:
    return raw.replace(b'"verdict": "pass"', b'"verdict": "fail"', 1)


def _alter_one_coefficient(raw: bytes) -> bytes:
    """Change the denominator of the first exact rational in the report."""
    match = re.search(rb'"(-?\d+)/(\d+)"', raw)
    bumped = b'"%s/%d"' % (match.group(1), int(match.group(2)) + 2)
    return raw[:match.start()] + bumped + raw[match.end():]


@pytest.mark.parametrize("corrupt", [_flip_one_verdict, _alter_one_coefficient])
def test_corrupted_report_counts_as_failed(genuine_report, corrupt, monkeypatch):
    raw, reference = genuine_report
    bad = corrupt(raw)
    assert bad != raw
    assert run.check_report(raw, reference)[1] is None
    assert run.check_report(bad, reference)[1] is not None
    # Through the whole loop: a child that prints the corrupted report.
    fake = run.WORK / "corrupted.json"
    fake.write_bytes(bad)
    script = f"import sys; sys.stdout.buffer.write(open({str(fake)!r}, 'rb').read())"
    monkeypatch.setattr(run, "plain_cmd", lambda argv: [sys.executable, "-c", script])
    result = run.run("all-l5", 0, 0.1, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] == 0


def test_seed_zero_is_the_default_command():
    assert run.verify_argv("all-l5", 0) == (["verify", "--suite", "all"], 0)
    argvs = {tuple(run.verify_argv("all-l5", seed)[0]) for seed in range(len(run.CARRIER_POOL))}
    assert len(argvs) == len(run.CARRIER_POOL)
    assert run.verify_argv("theorem-5-1-l9", 7) == run.verify_argv("theorem-5-1-l9", 1)


def test_end_to_end_metrics_on_a_correct_program():
    result = run.run("all-l5", 3, 0.1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_probe(monkeypatch):
    # A probe twice as fast as the reference means a machine twice as
    # fast, so its wall times count double.
    call = run.Invocation(wall_s=2.0, cpu_s=1.9, rss_mb=20.0, wall_ms=1500, failure=None)
    monkeypatch.setattr(run, "probe", lambda: run.PROBE_REFERENCE_S / 2)
    monkeypatch.setattr(run, "spawn", lambda cmd, reference: (call, b""))
    metrics = run.run("all-l5", 0, 0.1, trace=False)["metrics"]
    assert metrics["verify_s"]["value"] == pytest.approx(4.0)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["peak_rss_mb"]["value"] == 20.0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_trace_counters_fire_and_self_times_add_up(workload):
    result = run.run(workload, 0, 0.1, trace=True)
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == set(run.PER_LAYER)
    silent = [name for name, (_, workloads) in run.PER_LAYER.items()
              if workload in workloads and not values[name] > 0]
    assert not silent
    parts = sum(values[name] for name in run.SELF_TIME_PARTS)
    assert math.isclose(parts, values["cli.run_suite.incl_s"], rel_tol=1e-9)


def test_wrapper_time_is_not_charged_to_the_caller():
    # A caller that only calls a traced no-op: with the wrapper's own time
    # left in, the caller's self time would exceed the whole wrapper time.
    t = tracer.Tracer()
    inner = t.wrap("series.inner", lambda: None)

    def outer(n):
        for _ in range(n):
            inner()

    t.wrap("series.outer", outer)(200_000)
    summary = t.summary()
    assert summary["functions"]["series.inner"]["calls"] == 200_000
    assert summary["functions"]["series.outer"]["self_s"] < summary["wrapper_s"]


def test_peak_rss_is_the_childs_own():
    # A child forked straight from this process would start from this
    # process's resident size; launch.py must hide it.
    ballast = bytearray(64 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    inv, _ = run.spawn([sys.executable, "-c", "pass"], None)
    assert inv.rss_mb < 40


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "all-l5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == b""
