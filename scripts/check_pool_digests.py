#!/usr/bin/env python3
"""Run every pool input of every benchmark workload once and compare outputs.

    python3 scripts/check_pool_digests.py

Each input of each workload's pool (perfbench/workloads.py) runs once,
untimed.  Its output is checked independently by the workload's own check and
against the digest recorded for it in perfbench/recorded.json.  Prints the
mismatch count per workload, with the first few mismatches, and exits 1 on
any mismatch.  Reads perfbench/ and writes nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, digest, make_pool, recorded  # noqa: E402

SHOWN = 5  # mismatches printed per workload


def mismatch(wl, inp, expected: str):
    """Why the output of one pool input is wrong, or None when it matches."""
    try:
        text = wl.run_op(inp)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    got = digest(text)
    if got != expected:
        return f"output digest {got} != recorded {expected}"
    return wl.check(inp, text)


def main() -> int:
    table = recorded()
    total = 0
    for name, wl in WORKLOADS.items():
        start = process_time()
        pool, outputs = make_pool(wl), table[name]["outputs"]
        bad = 0
        for k, inp in enumerate(pool):
            why = mismatch(wl, inp, outputs[k])
            if why is not None:
                bad += 1
                if bad <= SHOWN:
                    print(f"# {name} pool input {k}: {why}", file=sys.stderr)
        print(f"{name}: {bad} of {len(pool)} outputs mismatch "
              f"({process_time() - start:.1f} s CPU)")
        total += bad
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
