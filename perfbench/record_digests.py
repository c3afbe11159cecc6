#!/usr/bin/env python3
"""Record each workload's pre-pass and the output digest of every pool input.

    python3 perfbench/record_digests.py

Draws each workload's candidates from POOL_SEED, keeps the first pool_size
distinct ones that pass the pre-pass, runs every one of them untimed, checks
each output independently, and writes perfbench/recorded.json.  Re-record only
when the benchmark's inputs change on purpose; a program change that alters a
digest is an output change, which ``run.py`` reports as a failed check.
"""

from __future__ import annotations

import json
import sys

from run import Run
from workloads import RECORDED_FILE, WORKLOADS, load_pool, prepass


def main() -> int:
    table = {}
    for name, wl in WORKLOADS.items():
        accepted = prepass(wl, wl.pool_size)
        run = Run(wl, load_pool(wl, accepted), None)
        for k in range(wl.pool_size):
            run.op(k)
        if run.check_errors or len(run.digests) < wl.pool_size:
            print(f"{name}: {run.check_errors or run.failures}", file=sys.stderr)
            return 1
        table[name] = {"accepted": accepted,
                       "outputs": [run.digests[k] for k in range(wl.pool_size)]}
        print(f"{name}: {wl.pool_size} inputs recorded", file=sys.stderr)
    with open(RECORDED_FILE, "w") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
