"""Spans around calls into dp1's public functions, installed from outside.

The tracer replaces each listed function in every dp1 namespace that bound
it (``engine.smoothness_check`` is the same object as
``surface.smoothness_check``) and each listed class attribute, records one
span per call in memory, and puts the original objects back on exit.  Self
time is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Observer = Callable[[Dict[str, float], tuple, object], None]


def _roots(extra, args, result):
    extra["roots"] += len(result)


def _den_bits(extra, args, result):
    bits = max(Fraction(v).denominator.bit_length() for v in args)
    extra["den_bits_max"] = max(extra["den_bits_max"], bits)


def _sweep(extra, args, result):
    extra["hit_fibers"] += len({t for t, _ in result})


def _oracle(extra, args, result):
    extra["points"] += len(result)


def _census(extra, args, result):
    extra["smooth"] += result["smooth"] == "smooth"
    extra["certified"] += bool(result["certified"])


# (metric name, module, attribute path, observer of each returned call)
TARGETS: List[Tuple[str, str, str, Optional[Observer]]] = [
    ("rational.is_square", "rational", "is_square", None),
    ("poly.UniPoly.mul", "poly", "UniPoly.__mul__", None),
    ("poly.gcd", "poly", "gcd", None),
    ("poly.rational_roots", "poly", "rational_roots", _roots),
    ("poly.is_separable", "poly", "is_separable", None),
    ("elliptic.add", "elliptic", "add", None),
    ("elliptic.torsion_status", "elliptic", "torsion_status", None),
    ("surface.WPoint.from_fractions", "surface", "WPoint.from_fractions", _den_bits),
    ("surface.Surface.membership", "surface", "Surface.membership", None),
    ("surface.Surface.fiber_at", "surface", "Surface.fiber_at", None),
    ("surface.smoothness_check", "surface", "smoothness_check", None),
    ("surface.modp_singular_scan", "surface", "modp_singular_scan", None),
    ("cubic.tangent_plane", "cubic", "tangent_plane", None),
    ("cubic.tangent_point", "cubic", "tangent_point", None),
    ("engine.generate", "engine", "generate", None),
    ("engine.check_hypotheses", "engine", "check_hypotheses", None),
    ("engine.cp_sweep", "engine", "cp_sweep", _sweep),
    ("engine.u_hop", "engine", "u_hop", None),
    ("engine.brute_force_oracle", "engine", "brute_force_oracle", _oracle),
    ("cli.census_row", "cli", "census_row", _census),
]

# Spans of a target that count as steps of their direct parent, a target too:
# (parent, child) -> name of the parent's tally.  cp_sweep takes each fiber it
# scans with Surface.fiber_at, and the oracle tests each box cell with is_square.
CHILD_TALLIES = {
    ("engine.cp_sweep", "surface.Surface.fiber_at"): "fibers_scanned",
    ("engine.brute_force_oracle", "rational.is_square"): "cells",
}

# Metrics derived from the tallies, by target name.
DERIVED = {
    "poly.rational_roots": {"roots_per_call": lambda x, calls: x["roots"] / max(calls, 1)},
    "surface.WPoint.from_fractions": {"den_bits_max": lambda x, calls: x["den_bits_max"]},
    "surface.smoothness_check": {"raised": lambda x, calls: x["raised"]},
    "engine.generate": {"raised": lambda x, calls: x["raised"]},
    "engine.cp_sweep": {
        "fibers_scanned": lambda x, calls: x["fibers_scanned"],
        "hit_ratio": lambda x, calls: x["hit_fibers"] / max(x["fibers_scanned"], 1),
    },
    "engine.brute_force_oracle": {"hit_ratio": lambda x, calls: x["points"] / max(x["cells"], 1)},
    "cli.census_row": {"certified_ratio": lambda x, calls: x["certified"] / max(x["smooth"], 1)},
}


def dp1_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "dp1" or name.startswith("dp1.")]


class Tracer:
    """Context manager: while active, every call to a target adds a span."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        # span: (name index, start, end, parent span index or -1, op id)
        self.spans: List[Tuple[int, float, float, int, int]] = []
        self.extra: Dict[str, Dict[str, float]] = {n: defaultdict(int) for n in self.names}
        self.op = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, observe: Optional[Observer]):
        spans, stack, extra = self.spans, self._stack, self.extra[self.names[idx]]

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[me] = (idx, start, perf_counter(), parent, self.op)
                stack.pop()
                extra["raised"] += 1
                raise
            spans[me] = (idx, start, perf_counter(), parent, self.op)
            stack.pop()
            if observe is not None:
                observe(extra, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = {m.__name__.split(".")[-1]: m for m in dp1_modules()}
        for idx, (_name, mod_name, path, observe) in enumerate(TARGETS):
            owner = modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                wrapped = self._wrap(idx, raw.__func__ if is_static else raw, observe)
                self._replace(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(idx, original, observe)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        return self

    def _replace(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def layer_metrics(self) -> Dict[str, float]:
        """calls and self_s per target, plus each target's derived metrics."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        extra = {name: defaultdict(int, x) for name, x in self.extra.items()}
        tallies = {(self.names.index(p), self.names.index(c)): (p, tally)
                   for (p, c), tally in CHILD_TALLIES.items()}
        for idx, start, end, parent, _op in self.spans:
            calls[idx] += 1
            if parent >= 0:
                child[parent] += end - start
                tally = tallies.get((self.spans[parent][0], idx))
                if tally is not None:
                    extra[tally[0]][tally[1]] += 1
        for i, (idx, start, end, _parent, _op) in enumerate(self.spans):
            total[idx] += end - start - child[i]
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = total[i]
            for suffix, fn in DERIVED.get(name, {}).items():
                out[f"{name}.{suffix}"] = fn(extra[name], calls[i])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for idx, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": self.names[idx], "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
