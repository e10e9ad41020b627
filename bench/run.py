#!/usr/bin/env python3
"""Closed-loop benchmark of `qaskey verify`, one fresh interpreter per call.

    python3 bench/run.py --workload all-l5 --seed 0 --seconds 42 --trace 0

One client runs `python -m qaskey.cli verify ...` (with `PYTHONPATH` set to
this checkout's `src`), waits for it to exit, and starts the next one, until
the next call would end after `--seconds`.  Each call is started by
`bench/launch.py`, which times it from fork to exit with `perf_counter` and
reads its memory and CPU time from its own rusage (`os.wait4`).  Its
report is checked: exit code 0, every verdict `pass`, and the bytes, with
the `wallTimeMs` line removed, equal to the stored reference.

Before the first call and after every call the benchmark times a speed
probe, a fixed amount of exact rational arithmetic that does not use
qaskey.  Each call's times are rescaled by the mean of the probes just
before and just after it, to seconds of a machine on which the probe
takes `PROBE_REFERENCE_S`: a shared host changes speed by up to half over
seconds to minutes, and the probes around a call move with it (see
bench/NOTES.md).

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates an
untraced call with a traced one (`bench/tracer.py`, spans around the public
functions of every layer) and prints the per-layer metrics.  The last line
of stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

Every call is a new process on purpose: the package's unbounded
`lru_cache`s (`cqu_r`, `cqu_r_alt`, `qracah`, `ultraspherical_coeffs`,
`_x_power`) would make in-process repeats 10-37% faster than what a user
running the command sees.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

WORKLOADS = {
    "dual-addition-l9": ("--suite", "dual-addition", "--grid-lmax", "9"),
    "theorem-5-1-l9": ("--suite", "theorem-5-1", "--grid-lmax", "9"),
    "all-l5": ("--suite", "all"),
}

# Seed n runs the carrier ordering CARRIER_POOL[n % 6]; ordering 0 is the
# default grid and is run without --qparams.  Only orderings of the default
# triple are pooled: other admissible carriers cost 20-60% more per
# carrier, which would make the seed, not the program, set the spread.
DEFAULT_CARRIERS = ("1/2,2/3", "2/3,1/2", "1/2,1/3")
CARRIER_POOL = tuple(itertools.permutations(DEFAULT_CARRIERS))

WALL_TIME_LINE = re.compile(rb'^  "wallTimeMs": (\d+)\n', re.MULTILINE)

# Seconds the probe takes on the machine whose seconds verify_s and setup_s
# are given in; on the 2-core sandbox of the baseline its median over a run
# was 0.89-1.14 s.  A probe of about a second averages over the host's
# swings of speed, which last a few seconds.
PROBE_REFERENCE_S = 1.0

END_TO_END = {  # name -> unit
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# Per-layer metric -> (unit, workloads on which it must read > 0).
DA, TH, ALL = "dual-addition-l9", "theorem-5-1-l9", "all-l5"
FUNCTION_STATS = {
    "identities.dual_projection_sum": ("calls", "distinct_ratio", "incl_s"),
    "families.cqu_r": ("calls", "distinct_ratio", "incl_s"),
    "laurent.mul": ("calls", "self_s"),
    "laurent.add": ("calls", "self_s"),
    "laurent.x_embed": ("self_s",),
    "families.qracah_weight": ("calls", "distinct_ratio", "incl_s"),
    "families.qracah": ("calls",),
    "families.qracah_norms": ("incl_s",),
    "series.qpochhammer": ("calls", "self_s"),
    "series.qhyper_sum": ("calls", "self_s"),
    "families.askey_wilson_r": ("self_s",),
    "series.hyper_sum": ("self_s",),
    "series.pochhammer": ("self_s",),
    "cli.run_suite": ("incl_s",),
}
FUNCTION_WORKLOADS = {
    "identities.dual_projection_sum": (DA,),
    "families.cqu_r": (DA,),
    "laurent.mul": (DA, TH, ALL),
    "laurent.add": (DA, TH, ALL),
    "laurent.x_embed": (DA, ALL),
    "families.qracah_weight": (TH,),
    "families.qracah": (TH,),
    "families.qracah_norms": (DA,),  # theorem-5-1 never takes a norm
    "series.qpochhammer": (TH,),
    "series.qhyper_sum": (TH,),
    "families.askey_wilson_r": (ALL,),
    "series.hyper_sum": (ALL,),
    "series.pochhammer": (ALL,),
    "cli.run_suite": (DA, TH, ALL),
}
UNITS = {"calls": "count", "distinct_ratio": "ratio", "incl_s": "s", "self_s": "s"}
PER_LAYER = {
    f"{fn}.{stat}": (UNITS[stat], FUNCTION_WORKLOADS[fn])
    for fn, stats in FUNCTION_STATS.items() for stat in stats
}
PER_LAYER.update({
    "laurent.mul.out_terms": ("count", (DA, TH, ALL)),
    "laurent.max_den_bits": ("bits", (DA, TH, ALL)),
    "identities.checks": ("count", (DA, TH)),
    "identities.max_check_s": ("s", (DA, TH)),
    "identities.check.self_s": ("s", (DA, TH)),
    "cli.runner.self_s": ("s", (ALL,)),
    "cli.render.incl_s": ("s", (ALL,)),
    "cli.cpu_s": ("s", (ALL,)),
    "numerics.calls": ("count", (ALL,)),
    "numerics.incl_s": ("s", (ALL,)),
    "series.self_s": ("s", (DA, TH, ALL)),
    "laurent.self_s": ("s", (DA, TH, ALL)),
    "families.self_s": ("s", (DA, TH, ALL)),
    "identities.self_s": ("s", (DA, TH, ALL)),
    "numerics.self_s": ("s", (ALL,)),
    "trace.overhead_ratio": ("ratio", (DA, TH, ALL)),
    "trace.wrapper_s": ("s", (DA, TH, ALL)),
})
# Layers whose self time inside cli.run_suite adds up to its inclusive time.
SELF_TIME_PARTS = ("series.self_s", "laurent.self_s", "families.self_s",
                   "identities.self_s", "numerics.self_s", "cli.runner.self_s")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source tree, no reference)."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    wall_ms: int | None  # the report's own wallTimeMs
    failure: str | None

    @property
    def setup_s(self) -> float | None:
        return None if self.wall_ms is None else self.wall_s - self.wall_ms / 1000


def verify_argv(workload: str, seed: int) -> tuple[list[str], int]:
    """The qaskey argv for a workload and seed, and the carrier-pool index."""
    index = seed % len(CARRIER_POOL)
    argv = ["verify", *WORKLOADS[workload]]
    if index:
        for carrier in CARRIER_POOL[index]:
            argv += ["--qparams", carrier]
    return argv, index


def report_digest(raw: bytes) -> str:
    """SHA-256 of the report bytes with the wallTimeMs line removed."""
    return hashlib.sha256(WALL_TIME_LINE.sub(b"", raw)).hexdigest()


def check_report(raw: bytes, reference: str | None) -> tuple[int | None, str | None]:
    """(the report's wallTimeMs, why the report is wrong or None)."""
    found = WALL_TIME_LINE.findall(raw)
    if len(found) != 1:
        return None, "report has no single wallTimeMs line"
    wall_ms = int(found[0])
    try:
        checks = json.loads(raw)["checks"]
    except (ValueError, KeyError, TypeError):
        return wall_ms, "report is not a verify document"
    bad = sum(1 for c in checks if c.get("verdict") != "pass")
    if bad or not checks:
        return wall_ms, f"{bad} of {len(checks)} checks did not pass"
    if reference is not None and report_digest(raw) != reference:
        return wall_ms, "report differs from the reference"
    return wall_ms, None


def spawn(cmd: list[str], reference: str | None) -> tuple[Invocation, bytes]:
    """Run one child to completion through launch.py, which times it and
    reads its own rusage, and check its report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    read_fd, write_fd = os.pipe()
    with open(WORK / "stderr.txt", "wb") as err, os.fdopen(read_fd, "rb") as measured:
        try:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", str(BENCH / "launch.py"), str(write_fd), *cmd],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=err, pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        with proc.stdout:
            raw = proc.stdout.read()
        proc.wait()
        fields = measured.read().split()
    if proc.returncode != 0 or len(fields) != 4:
        raise RuntimeError(f"launch.py failed with exit code {proc.returncode}: {' '.join(cmd)}")
    status, wall_s, cpu_s, maxrss_kb = int(fields[0]), float(fields[1]), float(fields[2]), int(fields[3])
    returncode = os.waitstatus_to_exitcode(status)
    wall_ms, failure = check_report(raw, reference)
    if returncode != 0:
        failure = f"exit code {returncode}"
    if failure:
        tail = (WORK / "stderr.txt").read_bytes()[-2000:].decode(errors="replace")
        print(f"failed invocation ({failure}): {' '.join(cmd)}\n{tail}", file=sys.stderr)
    return Invocation(wall_s, cpu_s, maxrss_kb / 1024, wall_ms, failure), raw


def probe() -> float:
    """Seconds this process takes for a fixed amount of exact rational
    arithmetic of the two kinds qaskey spends its time on, done without
    qaskey: q-shifted factorial sums, and products of Laurent polynomials
    kept as dicts from exponent to coefficient."""
    started = time.perf_counter()
    total = Fraction(0)
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)):
        for n in range(80):
            term = Fraction(1)
            for k in range(n):
                term *= (1 - q ** (n - k)) / (1 - q ** (k + 1)) * q
                total += term
        poly = {0: Fraction(1)}
        for k in range(1, 28):
            factor = {k: -q ** k, 0: Fraction(1), -k: q ** (2 * k) / (1 + q ** k)}
            product = {}
            for i, x in poly.items():
                for j, y in factor.items():
                    product[i + j] = product.get(i + j, 0) + x * y
            poly = product
    return time.perf_counter() - started


def plain_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "qaskey.cli", *argv]


def closed_loop(seconds: float, step) -> list:
    """Call `step` back to back until the next call would end after `seconds`
    (judged by the longest call so far); always at least once."""
    results = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        results.append(step())
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - started + longest > seconds:
            return results


def layer_values(summary: dict, plain: Invocation, traced: Invocation) -> dict:
    """Every per-layer metric from one traced call and its untraced partner."""
    funcs, layers = summary["functions"], summary["layers"]
    values = {}
    for fn, stats in FUNCTION_STATS.items():
        for stat in stats:
            values[f"{fn}.{stat}"] = funcs.get(fn, {}).get(stat, 0)
    for layer in ("series", "laurent", "families", "identities", "numerics"):
        values[f"{layer}.self_s"] = layers[layer]["self_in_run_suite_s"]
    values.update({
        "laurent.mul.out_terms": summary["mul_out_terms"],
        "laurent.max_den_bits": summary["max_den_bits"],
        "identities.checks": summary["checks"],
        "identities.max_check_s": summary["max_check_s"],
        "identities.check.self_s": summary["check_self_s"],
        "cli.runner.self_s": layers["cli"]["self_in_run_suite_s"],
        "cli.render.incl_s": sum(f["incl_s"] for name, f in funcs.items()
                                 if name.startswith("cli.render_")),
        "cli.cpu_s": plain.cpu_s,
        "numerics.calls": layers["numerics"]["calls"],
        "numerics.incl_s": layers["numerics"]["incl_s"],
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        "trace.wrapper_s": summary["wrapper_s"],
    })
    return values


def load_reference(workload: str, index: int) -> str:
    if not (SRC / "qaskey" / "cli.py").is_file():
        raise SetupError(f"no qaskey source tree at {SRC}")
    try:
        refs = json.loads(REFERENCES.read_text())
        return refs["digests"][workload][index]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise SetupError(f"no reference report for {workload} ordering {index}: {exc!r}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv, index = verify_argv(workload, seed)
    reference = load_reference(workload, index)
    # Bytecode is cached for users too.  A separate process keeps this one
    # small (see launch.py).
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    WORK.mkdir(exist_ok=True)
    try:
        if trace:
            summary_path = WORK / "trace.json"

            def step():
                plain, _ = spawn(plain_cmd(argv), reference)
                summary_path.unlink(missing_ok=True)
                traced, _ = spawn([sys.executable, str(BENCH / "tracer.py"), str(summary_path), *argv],
                                  reference)
                summary = json.loads(summary_path.read_text()) if traced.failure is None else None
                return plain, traced, summary

            pairs = closed_loop(seconds, step)
            calls = [inv for plain, traced, _ in pairs for inv in (plain, traced)]
            # All layer values come from one traced call, the one with the
            # median cli.run_suite.incl_s, so that its self times add up.
            traced = sorted((layer_values(s, p, t) for p, t, s in pairs if s is not None),
                            key=lambda values: values["cli.run_suite.incl_s"])
            samples = [traced[(len(traced) - 1) // 2]] if traced else []
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            probes = [probe()]

            def step() -> Invocation:
                inv, _ = spawn(plain_cmd(argv), reference)
                probes.append(probe())
                return inv

            calls = closed_loop(seconds, step)
            scales = [2 * PROBE_REFERENCE_S / (before + after)
                      for before, after in zip(probes, probes[1:])]
            samples = [{
                "verify_s": inv.wall_s * scale,
                "setup_s": inv.setup_s * scale,
                "peak_rss_mb": inv.rss_mb,
            } for inv, scale in zip(calls, scales) if inv.setup_s is not None]
            units = END_TO_END
            walls = [inv.wall_s for inv in calls]
            print(f"{workload} unscaled: wall_s median {statistics.median(walls):.6g} "
                  f"(min {min(walls):.6g}, max {max(walls):.6g}), "
                  f"probe_s median {statistics.median(probes):.6g} over {len(probes)} probes")
    finally:
        for leftover in ("stderr.txt", "trace.json"):
            (WORK / leftover).unlink(missing_ok=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    failed = sum(1 for inv in calls if inv.failure is not None)
    metrics = {}
    for name, unit in units.items():
        if name == "pass_ratio":
            value = (len(calls) - failed) / len(calls)
        else:
            value = statistics.median(s[name] for s in samples) if samples else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} invocations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
