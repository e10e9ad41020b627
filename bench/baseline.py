#!/usr/bin/env python3
"""Measure a commit and write bench/baseline.json.

    python3 bench/baseline.py

Three parts, all through the same harness as bench/run.py, each run of it
as long as `run_seconds` in BENCHMARK.json:

1. Ten runs of bench/run.py per workload, seeds 0-9, and
   per end-to-end metric the median, the quartiles and the spread
   (interquartile distance over median, from `statistics.quantiles(n=4)`);
   the same for the unscaled wall time and the speed probe.
2. One traced run per workload (seed 0): every per-layer metric.
3. A one-shot scaling sweep, not gated: `verify --suite S --grid-lmax L` for
   S in dual-addition, theorem-5-1, linearization and L in 5, 7, 9, 11, one
   fresh process each, rescaled by one speed probe timed just before it.
   The lmax=11 row is the base of the target "dual-addition at lmax=11 in
   today's lmax=7 time".
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys

import run

RUNS = 10
SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SWEEP_SUITES = ("dual-addition", "theorem-5-1", "linearization")
SWEEP_LMAX = (5, 7, 9, 11)
MACHINE = (
    f"{os.cpu_count()} cores, Python {platform.python_version()}; "
    "wall time from perf_counter around each child, memory and CPU from the "
    "child's own rusage via os.wait4; no /usr/bin/time and no machine-wide counters"
)


UNSCALED = re.compile(r"unscaled: wall_s median (\S+) .*probe_s median (\S+)")


def bench_run(workload: str, seed: int, trace: int) -> dict:
    """The result line of one run; with --trace 0 also its unscaled wall
    time and probe time, as `wall_s` and `probe_s`."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    unscaled = UNSCALED.search(proc.stdout)
    if unscaled:
        result["wall_s"], result["probe_s"] = map(float, unscaled.groups())
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def sweep() -> list[dict]:
    rows = []
    run.WORK.mkdir(exist_ok=True)
    for suite in SWEEP_SUITES:
        for lmax in SWEEP_LMAX:
            argv = ["verify", "--suite", suite, "--grid-lmax", str(lmax)]
            probe_s = run.probe()
            inv, raw = run.spawn(run.plain_cmd(argv), None)
            checks = len(json.loads(raw)["checks"]) if inv.failure is None else 0
            verify_s = inv.wall_s * run.PROBE_REFERENCE_S / probe_s
            rows.append({"suite": suite, "lmax": lmax, "verify_s": verify_s,
                         "wall_s": inv.wall_s, "probe_s": probe_s,
                         "wallTimeMs": inv.wall_ms, "checks": checks,
                         "peak_rss_mb": inv.rss_mb, "failure": inv.failure})
            print(f"sweep {suite} lmax={lmax}: {verify_s:.2f} s ({inv.wall_s:.2f} s unscaled), "
                  f"{checks} checks", flush=True)
    (run.WORK / "stderr.txt").unlink(missing_ok=True)
    run.WORK.rmdir()
    return rows


def main() -> int:
    doc = {"machine": MACHINE, "runs": RUNS, "seconds": SECONDS,
           "end_to_end": {}, "per_layer": {}}
    for workload in run.WORKLOADS:
        results = [bench_run(workload, seed, 0) for seed in range(RUNS)]
        metrics = {}
        for name, unit in run.END_TO_END.items():
            metrics[name] = spread([r["metrics"][name]["value"] for r in results])
            print(f"{workload} {name}: median {metrics[name]['median']:.6g} {unit}, "
                  f"spread {metrics[name]['spread']:.4f}", flush=True)
        for name in ("wall_s", "probe_s"):
            metrics[name] = spread([r[name] for r in results])
            print(f"{workload} unscaled {name}: median {metrics[name]['median']:.6g} s, "
                  f"spread {metrics[name]['spread']:.4f}", flush=True)
        metrics["failed"] = sum(r["failed"] for r in results)
        metrics["attempted"] = sum(r["attempted"] for r in results)
        print(f"{workload} failed_ratio: {metrics['failed'] / metrics['attempted']:.6g} ratio "
              f"({metrics['failed']} of {metrics['attempted']} invocations)", flush=True)
        doc["end_to_end"][workload] = metrics
    for workload in run.WORKLOADS:
        traced = bench_run(workload, 0, 1)
        doc["per_layer"][workload] = {k: m["value"] for k, m in traced["metrics"].items()}
    doc["sweep"] = sweep()
    (run.BENCH / "baseline.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
