"""Seeded inputs, operations and output checks of the dp1 benchmark.

Inputs are drawn here, with no dp1 helper: a later change to dp1's own
samplers cannot change what the benchmark feeds it.  Each workload has one
pool of inputs, drawn from POOL_SEED; a run's ``--seed`` picks the order in
which it visits them, and so which inputs a run of fixed length reaches.  Each operation
receives only plain inputs (surface parameters as JSON strings, the seed as a
string), builds its own objects the way ``dp1 generate`` does, and returns the
JSON text the CLI would print.  The output checks recompute the surface
equation with ``Fraction`` and never call ``Surface.membership``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dp1 import cli, engine, surface  # noqa: E402
from dp1.engine import GenerationConfig  # noqa: E402
from dp1.surface import (  # noqa: E402
    DegenerateSurfaceError,
    OracleDisagreementError,
    Surface,
    SurfaceParams,
    WPoint,
)

PARAM_KEYS = ("a", "b", "c", "d", "e")

# The gen-* family: integer parameters and seed coordinates in [-1, 1], and
# gen-multiples stops at [13]P.  The cost of lifting is integer factoring,
# whose time has a heavy tail once denominators reach about 100 bits: with
# height-2 draws at n 9, or height-1 draws at n 14, single ops took up to
# 3.6 s and ops_per_s moved by 30-70 % between seeds.  At height 1 and n 13
# the slowest of 1,200 ops took 0.13 s and lifting is still a top layer.
GEN_HEIGHT = 1
GEN_MULTIPLES_N = 13
CENSUS_HEIGHT = 5
CENSUS_PRIMES = (7, 11, 13)
CENSUS_BOX = (5, 1, 2, 2)
# A pool holds about twice the ops of a 50 s run on a 2-core VM, so no input
# repeats within a run and a cache across ops gains nothing that a single CLI
# call could not.  RECORDED_FILE holds, per workload, the stream positions of
# the candidates that passed the pre-pass (about 24 ms a candidate on gen-*,
# too slow to redo in every run) and the digest of each pool input's output.
POOL_SEED = 0
RECORDED_FILE = Path(__file__).resolve().parent / "recorded.json"

Input = dict


# -- seeded inputs ------------------------------------------------------


def _params_json(vals: List[Fraction]) -> dict:
    a, b, c, d, e, f0, f1, f2, f3 = (str(v) for v in vals)
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": [f0, f1, f2, f3]}


def gen_candidate(rng: random.Random) -> Input:
    """A surface with parameter height <= GEN_HEIGHT through a drawn point.

    e is solved from y0² = x0³ + A(t0)·x0 + B(t0), so the seed lies on the
    surface by construction.
    """
    h = GEN_HEIGHT
    a, b, c, d, f0, f1, f2 = (rng.randint(-h, h) for _ in range(7))
    f3 = rng.choice([v for v in range(-h, h + 1) if v])
    t0, x0 = rng.randint(-h, h), rng.randint(-h, h)
    y0 = rng.choice([v for v in range(-h, h + 1) if v])
    u0 = f0 + f1 * t0 + f2 * t0 ** 2 + f3 * t0 ** 3
    e = y0 * y0 - x0 ** 3 - (a * u0 + b) * x0 - (c * u0 + d) * u0
    vals = [Fraction(v) for v in (a, b, c, d, e, f0, f1, f2, f3)]
    return {"params": _params_json(vals), "seed": f"[{x0}:{y0}:{t0}:1]"}


def certified(inp: Input) -> bool:
    """Pre-pass filter: the seed passes every generation hypothesis."""
    try:
        S = Surface(SurfaceParams.from_json(inp["params"]))
        return engine.check_hypotheses(S, WPoint.parse(inp["seed"])).overall
    except ValueError:  # degenerate surface
        return False


def census_candidate(rng: random.Random) -> Input:
    """A tuple of p/q with |p|, q <= CENSUS_HEIGHT and f3 != 0."""
    h = CENSUS_HEIGHT

    def rat() -> Fraction:
        return Fraction(rng.randint(-h, h), rng.randint(1, h))

    vals = [rat() for _ in range(8)]
    f3 = rat()
    while f3 == 0:
        f3 = rat()
    return {"params": _params_json(vals + [f3])}


def candidates(workload: "Workload") -> Iterator[Input]:
    """The workload's endless candidate stream, drawn from POOL_SEED."""
    rng = random.Random(POOL_SEED)
    while True:
        yield workload.draw(rng)


def prepass(workload: "Workload", size: int) -> List[int]:
    """Stream positions of the first ``size`` distinct candidates that pass
    the workload's pre-pass; the objects it builds are thrown away."""
    accepted: List[int] = []
    seen = set()
    for i, inp in enumerate(candidates(workload)):
        if len(accepted) == size:
            break
        key = json.dumps(inp, sort_keys=True)
        if key not in seen and workload.accept(inp):
            seen.add(key)
            accepted.append(i)
    return accepted


def load_pool(workload: "Workload", accepted: Sequence[int]) -> List[Input]:
    """The candidates at the given increasing stream positions, without the
    pre-pass."""
    stream = enumerate(candidates(workload))
    return [next(inp for i, inp in stream if i == k) for k in accepted]


def recorded() -> dict:
    with open(RECORDED_FILE) as fh:
        return json.load(fh)


def op_order(workload: "Workload", seed: int) -> List[int]:
    """Pool indices in the order the run with this seed visits them."""
    order = list(range(workload.pool_size))
    random.Random(seed).shuffle(order)
    return order


# -- operations ---------------------------------------------------------


def _cli_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def generate_op(inp: Input, n: int, t_height: int) -> str:
    """One ``dp1 generate --depth 1`` on plain inputs."""
    S = Surface(SurfaceParams.from_json(inp["params"]))
    P = WPoint.parse(inp["seed"])
    cfg = GenerationConfig(t_height_bound=t_height, multiple_bound=n, depth=1)
    try:
        payload = engine.generate(S, P, cfg).to_json(S, P)
    except engine.HypothesisFailure as exc:
        payload = {"error": str(exc)}
    return _cli_text(payload)


DISAGREEMENT = "OracleDisagreementError"


def oracle_disagreement(exc: OracleDisagreementError) -> bool:
    """The cross-check's known false alarm: a surface smooth over Q with bad
    reduction at every prime of CENSUS_PRIMES (see README).  About 0.3 % of
    census tuples; any other disagreement is a real one and fails the run."""
    return str(exc).startswith("declared smooth but singular mod every prime")


def census_op(inp: Input) -> str:
    """One census tuple: mod-p cross-check, then smoothness and seed search.

    The cross-check's known false alarm (see ``oracle_disagreement``) is the
    cross-check's verdict for that tuple, recorded in the output like any
    other; the tuple's census row is still computed.
    """
    S = Surface(SurfaceParams.from_json(inp["params"]))
    try:
        cross = surface.smoothness_cross_check(S, CENSUS_PRIMES)["mod_p"]
    except DegenerateSurfaceError:
        cross = "degenerate"
    except OracleDisagreementError as exc:
        if not oracle_disagreement(exc):
            raise
        cross = f"{DISAGREEMENT}: {exc}"
    row = cli.census_row(S, CENSUS_BOX)
    return _cli_text({"cross_check": cross, "row": row})


# -- independent output checks ------------------------------------------


def on_surface(params: dict, t: Fraction, x: Fraction, y: Fraction) -> bool:
    """y² = x³ + A(t)·x + B(t), recomputed from the parameters."""
    a, b, c, d, e = (Fraction(params[k]) for k in PARAM_KEYS)
    f0, f1, f2, f3 = (Fraction(v) for v in params["f"])
    u = f0 + t * (f1 + t * (f2 + t * f3))
    return y * y == x ** 3 + (a * u + b) * x + (c * u + d) * u + e


def affine_of(seed: str) -> Optional[Tuple[Fraction, Fraction, Fraction]]:
    """(t, x, y) of a weighted point "[x:y:z:w]" with w != 0, else None."""
    x, y, z, w = (int(v) for v in seed.strip("[]").split(":"))
    if w == 0:
        return None
    return Fraction(z, w), Fraction(x, w * w), Fraction(y, w ** 3)


def check_generate(inp: Input, text: str) -> Optional[str]:
    """Error message for a wrong ``generate`` output, or None."""
    out = json.loads(text)
    if "points" not in out:
        return f"certified seed {inp['seed']} produced no point list: {out}"
    if out["surface"] != inp["params"] or not out["all_verified"]:
        return "surface echo or all_verified flag is wrong"
    points = [tuple(Fraction(p[k]) for k in "txy") for p in out["points"]]
    if not points or points[0] != affine_of(inp["seed"]):
        return f"first point is not the seed {inp['seed']}"
    if len(set(points)) != len(points):
        return "duplicate points"
    for t, x, y in points:
        if not on_surface(inp["params"], t, x, y):
            return f"point t={t} x={x} y={y} is off the surface"
    per_fiber: Dict[str, int] = {}
    for p in out["points"]:
        per_fiber[p["t"]] = per_fiber.get(p["t"], 0) + 1
    if per_fiber != out["fibers"]:
        return "fiber counts disagree with the point list"
    return None


def check_census(inp: Input, text: str) -> Optional[str]:
    out = json.loads(text)
    row = out["row"]
    if row["params"] != inp["params"]:
        return "census row does not echo its parameters"
    if row["smooth"] not in ("smooth", "singular", "degenerate"):
        return f"unknown smoothness verdict {row['smooth']!r}"
    if (out["cross_check"] == "degenerate") != (row["smooth"] == "degenerate"):
        return "cross-check and census disagree on degeneracy"
    if str(out["cross_check"]).startswith(DISAGREEMENT) and row["smooth"] != "smooth":
        return "cross-check reported a smooth verdict the census does not give"
    if row["certified"]:
        if row["smooth"] != "smooth":
            return "certified a surface that is not smooth"
        point = affine_of(row["seed"])
        if point is None or not on_surface(inp["params"], *point):
            return f"certified seed {row['seed']} is off the surface"
    return None


def digest(text: str) -> str:
    """Short digest of one op's output; 48 bits tell outputs apart."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- workloads ----------------------------------------------------------


def always(inp: Input) -> bool:
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random], Input]
    accept: Callable[[Input], bool]  # pre-pass filter of drawn candidates
    run_op: Callable[[Input], str]
    check: Callable[[Input, str], Optional[str]]
    pool_size: int  # distinct inputs; a run visits them in its seed's order
    trace_ops: int  # fixed op count of a traced run, so call counts repeat


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gen-multiples", gen_candidate, certified,
                 lambda i: generate_op(i, GEN_MULTIPLES_N, 1), check_generate,
                 pool_size=5000, trace_ops=150),
        Workload("census", census_candidate, always, census_op, check_census,
                 pool_size=8000, trace_ops=300),
    )
}


def dp1_source() -> Path:
    import dp1

    return Path(dp1.__file__).resolve().parent


def make_pool(workload: Workload) -> List[Input]:
    """The workload's pool, rebuilt from the recorded pre-pass."""
    return load_pool(workload, recorded()[workload.name]["accepted"])
