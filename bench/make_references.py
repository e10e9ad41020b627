#!/usr/bin/env python3
"""Record the reference report digest of every workload and carrier ordering.

    python3 bench/make_references.py

Runs each workload once per ordering in CARRIER_POOL, in a fresh process,
and writes bench/references.json.  It refuses to write if any call exits
non-zero or any check does not pass, so every pooled ordering is known to
pass every suite (`all-l5` runs all of them) at the commit it was run on.
Run it only when the reports are meant to change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    digests = {}
    for workload in run.WORKLOADS:
        digests[workload] = []
        for index in range(len(run.CARRIER_POOL)):
            argv, _ = run.verify_argv(workload, index)
            inv, raw = run.spawn(run.plain_cmd(argv), None)
            if inv.failure:
                print(f"{workload} ordering {index}: {inv.failure}", file=sys.stderr)
                return 1
            digests[workload].append(run.report_digest(raw))
            print(f"{workload} ordering {index}: {inv.wall_s:.2f} s", flush=True)
    (run.WORK / "stderr.txt").unlink(missing_ok=True)
    run.WORK.rmdir()
    doc = {"carriers": [list(c) for c in run.CARRIER_POOL], "digests": digests}
    run.REFERENCES.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
