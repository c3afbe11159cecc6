#!/usr/bin/env python3
"""dp1 benchmark: seeded generate and census workloads through the library API.

    python3 perfbench/run.py --workload gen-multiples --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run measures cold-start time, then runs operations in a
closed loop (one at a time, each after the previous finished) over the
workload's input pool, in the seed's order, for ``--seconds`` seconds, and
reports the end-to-end metrics.  Times are CPU time of the process doing the
work (``time.process_time``, and the children's rusage for cold start): the
ops neither sleep nor wait on I/O, and on a virtual machine wall time also
counts the time the hypervisor gave the core to other guests.  They are
reported at a fixed reference speed (see ``reference_s``).  With ``--trace 1`` it runs a fixed number of operations,
each untraced and then traced, and reports per-layer calls and self time.  Every
output is checked outside the timed section, independently and against the
digest recorded for its input; the last line printed is one JSON object, and
the exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

OP_BUDGET_S = 10.0  # an op over this is stopped and counted as failed
MIN_OPS = 100  # so that ten samples lie beyond p90
HARD_CAP_S = 120.0  # the timed loop stops here even below MIN_OPS
SETUP_REPS = 7

# The reference: a product of two degree-9 polynomials with Fraction
# coefficients, the benchmark's own code and the kind of arithmetic dp1 spends
# its time in.  The CPU speed of a shared host drifts by up to 25 % over
# minutes, and the reference's CPU time drifts with it, so a run samples it
# between ops and reports every time at the speed where it takes REF_NOMINAL_S
# (about that of a 2-core Xeon VM at 2 GHz).
REF_A = [Fraction(7 * i - 20, i + 3) for i in range(10)]
REF_B = [Fraction(5 - i * i, 2 * i + 1) for i in range(10)]
REF_NOMINAL_S = 0.00065
SETUP_REF_SAMPLES = 20  # after each cold start


class OpTimeout(BaseException):
    """Raised inside an op that ran over OP_BUDGET_S; not an Exception, so
    no handler inside dp1 can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(op, inp):
    """(output text or None, exception raised or None, CPU seconds)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
    start = process_time()
    try:
        text = op(inp)
        return text, None, process_time() - start
    except (OpTimeout, Exception) as exc:
        return None, exc, process_time() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_s() -> float:
    """CPU time of one run of the reference computation."""
    start = process_time()
    out = [Fraction(0)] * (len(REF_A) + len(REF_B) - 1)
    for i, a in enumerate(REF_A):
        for j, b in enumerate(REF_B):
            out[i + j] += a * b
    return process_time() - start


def to_nominal(refs) -> float:
    """Factor that turns CPU times measured alongside the reference samples
    ``refs`` into times at the nominal reference speed."""
    return REF_NOMINAL_S / statistics.median(refs)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_import_s() -> float:
    """Median CPU time of a fresh interpreter importing dp1 and dp1.cli, at
    the nominal reference speed."""
    cmd = [sys.executable, "-c", "import dp1, dp1.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # an installed CLI imports cached bytecode
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)  # writes .pyc once
    times, refs = [], []
    for _ in range(SETUP_REPS):
        start = _children_cpu_s()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(_children_cpu_s() - start)
        refs += [reference_s() for _ in range(SETUP_REF_SAMPLES)]
    return statistics.median(times) * to_nominal(refs)


class Run:
    """Outcome bookkeeping shared by the timed and the traced run."""

    def __init__(self, workload, pool, outputs):
        self.wl, self.pool = workload, pool
        self.outputs = outputs  # recorded digest per pool input, or None
        self.attempted = 0
        self.failures = []  # (pool index, kind)
        self.check_errors = []  # (pool index, message)
        self.digests = {}  # pool index -> digest of its output

    def op(self, k: int):
        """Run pool input k once and check it untimed: (seconds, succeeded)."""
        from workloads import digest

        text, exc, seconds = run_op(self.wl.run_op, self.pool[k])
        self.attempted += 1
        if isinstance(exc, OpTimeout):
            self.failures.append((k, "timeout"))
            return seconds, False
        if exc is not None:
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            error = self.wl.check(self.pool[k], text)
            got = self.digests[k] = digest(text)
            if error is None and self.outputs is not None and got != self.outputs[k]:
                error = f"output digest {got} != recorded {self.outputs[k]}"
        if error is not None:
            self.check_errors.append((k, error))
            self.failures.append((k, "check" if exc is None else type(exc).__name__))
            return seconds, False
        return seconds, True

    @property
    def failed(self) -> int:
        return len(self.failures)

    def report(self, metrics: dict) -> int:
        for k, kind in self.failures:
            print(f"# failed op on pool input {k}: {kind}", file=sys.stderr)
        for k, msg in self.check_errors:
            print(f"# output check failed (pool input {k}): {msg}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"fail_ratio = {self.failed / max(self.attempted, 1):.6g} ratio "
              f"({self.failed} of {self.attempted})")
        correct = not self.check_errors
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))
        return 0 if correct else 1


def load(wl):
    """The workload's pool and the recorded digest of each input's output."""
    from workloads import make_pool, recorded

    return make_pool(wl), recorded()[wl.name]["outputs"]


def timed_run(wl, seed: int, seconds: float) -> int:
    from workloads import op_order

    setup_s = cold_import_s()
    run = Run(wl, *load(wl))
    order = op_order(wl, seed)
    latencies = []  # CPU seconds of succeeded ops only
    busy = 0.0  # CPU seconds of all ops
    refs = []  # reference samples, one after each op
    start = perf_counter()
    while (perf_counter() - start < seconds or len(latencies) < MIN_OPS) \
            and perf_counter() - start < HARD_CAP_S:
        dt, succeeded = run.op(order[run.attempted % len(order)])
        refs.append(reference_s())
        busy += dt
        if succeeded:
            latencies.append(dt)
    if len(latencies) < MIN_OPS:
        run.check_errors.append((-1, f"only {len(latencies)} ops succeeded in {HARD_CAP_S} s"))
        latencies += [busy] * (2 - len(latencies))  # keeps the quantiles defined
    scale = to_nominal(refs)
    print(f"# reference median {statistics.median(refs) * 1e3:.4f} ms; "
          f"times scaled by {scale:.4f}", file=sys.stderr)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": (run.attempted - run.failed) / (busy * scale),
        "op_p50_ms": 1000 * scale * statistics.median(latencies),
        "op_p90_ms": 1000 * scale * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}
    repeats = max(0, run.attempted - len(order))
    print(f"# {run.attempted} ops over a pool of {len(order)}; {repeats} repeated an input",
          file=sys.stderr)
    return run.report({k: {"value": v, "unit": units[k]} for k, v in metrics.items()})


def traced_run(wl, seed: int) -> int:
    from tracer import Tracer
    from workloads import op_order

    run = Run(wl, *load(wl))
    ops = op_order(wl, seed)[:wl.trace_ops]
    # Each input runs untraced and then traced, so that warm-up and machine
    # drift fall on both sides of the overhead ratio alike.
    tracer = Tracer()
    untraced = traced = 0.0
    for k in ops:
        untraced += run_op(wl.run_op, run.pool[k])[2]
        tracer.op = k
        with tracer:
            traced += run.op(k)[0]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{wl.name}-{seed}.jsonl")
    metrics = {}
    for name, value in tracer.layer_metrics().items():
        suffix = name.rsplit(".", 1)[1]
        unit = {"calls": "count", "self_s": "s", "hit_ratio": "ratio", "certified_ratio": "ratio",
                "den_bits_max": "bits", "roots_per_call": "roots/call"}.get(suffix, "count")
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.untraced_ops_per_s"] = {"value": len(ops) / untraced, "unit": "ops/s"}
    metrics["trace.traced_ops_per_s"] = {"value": len(ops) / traced, "unit": "ops/s"}
    return run.report(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dp1" / "__init__.py").is_file():
        print(f"error: dp1 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, dp1_source

    if dp1_source() != SRC / "dp1":
        print(f"error: dp1 imported from {dp1_source()}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    return traced_run(wl, args.seed) if args.trace else timed_run(wl, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
