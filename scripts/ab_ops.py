#!/usr/bin/env python3
"""Per-op CPU time of one benchmark workload on two checkouts, interleaved.

    python3 scripts/ab_ops.py --workload census --other ../parent --inputs 2000

A diagnostic for sizing a change, not a benchmark: performance claims come
from ``perfbench/run.py``.  One worker process runs per checkout, this one and
``--other`` (for example a ``git worktree`` of the parent commit).  Each
worker imports its own checkout's ``perfbench/workloads.py``, and through it
that checkout's dp1, and runs the workload's ``run_op`` unchanged on plain
inputs.  Both workers get the same chunks of CHUNK inputs from this
checkout's pool, one worker at a time and in alternating order, so that the
host's drifting speed falls on both trees alike.  Prints each tree's mean,
p50 and p90 CPU time per op and their ratio (other / this), then one JSON
line, and exits 1 when an output digest differs between the trees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
CHUNK = 50  # inputs per chunk


def worker(root: str, name: str) -> int:
    """Run chunks of inputs read from stdin, one JSON list per line, and
    answer each with the [CPU seconds, output digest] of every input."""
    sys.path.insert(0, str(Path(root) / "perfbench"))
    import workloads

    wl = workloads.WORKLOADS[name]
    print(json.dumps(str(workloads.dp1_source())), flush=True)
    for line in sys.stdin:
        out = []
        for inp in json.loads(line):
            start = process_time()
            try:
                text = wl.run_op(inp)
            except Exception as exc:
                text = f"raised {type(exc).__name__}: {exc}"
            out.append([process_time() - start, workloads.digest(text)])
        print(json.dumps(out), flush=True)
    return 0


def summary(times) -> dict:
    deciles = statistics.quantiles(times, n=10)
    return {"mean_ms": 1e3 * statistics.fmean(times), "p50_ms": 1e3 * statistics.median(times),
            "p90_ms": 1e3 * deciles[8]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--other", help="root of the checkout to compare with")
    ap.add_argument("--inputs", type=int, default=1000, help="pool inputs to run (default 1000)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.workload)
    if not args.other:
        ap.error("--other is required")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_pool

    pool = make_pool(WORKLOADS[args.workload])[: args.inputs]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    roots = {"this": ROOT, "other": Path(args.other).resolve()}
    procs = {
        name: subprocess.Popen(
            [sys.executable, __file__, "--workload", args.workload, "--worker", str(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        for name, root in roots.items()
    }
    try:
        sources = {name: json.loads(p.stdout.readline()) for name, p in procs.items()}
        times = {name: [] for name in procs}
        digests = {name: [] for name in procs}
        for k in range(0, len(pool), CHUNK):
            chunk = json.dumps(pool[k:k + CHUNK])
            order = list(procs) if k // CHUNK % 2 == 0 else list(procs)[::-1]
            for name in order:
                procs[name].stdin.write(chunk + "\n")
                procs[name].stdin.flush()
                for cpu, dig in json.loads(procs[name].stdout.readline()):
                    times[name].append(cpu)
                    digests[name].append(dig)
    finally:
        for p in procs.values():
            p.stdin.close()
            p.wait()
    differ = sum(a != b for a, b in zip(digests["this"], digests["other"]))
    stats = {name: summary(t) for name, t in times.items()}
    ratio = {k: stats["other"][k] / stats["this"][k] for k in stats["this"]}
    print(f"{args.workload}: {len(pool)} inputs in chunks of {CHUNK}, "
          f"{differ} output digests differ")
    for name in procs:
        cells = "  ".join(f"{k} {v:.3f}" for k, v in stats[name].items())
        print(f"{name:5}  {cells}  ({sources[name]})")
    print("other/this  " + "  ".join(f"{k} {v:.3f}" for k, v in ratio.items()))
    print(json.dumps({"workload": args.workload, "inputs": len(pool), "differ": differ,
                      "sources": sources, **stats, "ratio": ratio}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
