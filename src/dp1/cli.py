"""Command-line interface: JSON reports over the library operations.

Exit codes: 0 on success, 1 on a mathematical negative (hypotheses fail,
surface singular, identity fails), 2 on input errors, 3 on an internal
invariant failure (an ``InvariantError`` or an ``OracleDisagreementError``
that no command records).
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import cubic, engine, surface as surface_mod
from .engine import GenerationConfig
from .rational import InvariantError, format_pair, format_rational
from .surface import (
    SINGULAR_MOD_EVERY_PRIME,
    DegenerateSurfaceError,
    OracleDisagreementError,
    Surface,
    SurfaceParams,
    WPoint,
    singular_fiber_report,
    singular_witnesses,
    smoothness_check,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_surface(path: str) -> Surface:
    with open(path) as fh:
        return Surface(SurfaceParams.from_json(json.load(fh)))


def _emit(payload: dict, args) -> None:
    """Write payload as JSON, or as CSV rows when asked.  In CSV mode the
    output holds only rows: a payload without points goes to stderr as one
    JSON line, and a truncated run says so on stderr."""
    csv_mode = getattr(args, "format", "json") == "csv"
    if csv_mode and "points" not in payload:
        sys.stderr.write(json.dumps(payload) + "\n")
        return
    if csv_mode:
        import csv  # on first use: no other output needs it
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "x", "y", "provenance"])
        for pt in payload["points"]:
            writer.writerow([pt["t"], pt["x"], pt["y"], pt["provenance"]])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if csv_mode and payload.get("truncated"):
        sys.stderr.write(f"truncated: stopped early, {len(payload['skipped'])} skipped\n")


def _witness_json(S: Surface) -> list:
    return [
        {"chart": chart, "coeffs": [format_rational(c) for c in wp.coeffs]}
        for chart, wp in singular_witnesses(S)
    ]


def cmd_check(args) -> int:
    S = _load_surface(args.surface)
    P = WPoint.parse(args.seed)
    report = engine.check_hypotheses(S, P)
    _emit(report.to_json(), args)
    return EXIT_OK if report.overall else EXIT_NEGATIVE


def cmd_classify(args) -> int:
    S = _load_surface(args.surface)
    if smoothness_check(S) != "smooth":
        _emit({"error": "surface is not smooth", "witnesses": _witness_json(S)}, args)
        return EXIT_NEGATIVE
    _emit(cubic.classify_singularities(S), args)
    return EXIT_OK


def _parse_primes(text: str) -> List[int]:
    primes = [int(p) for p in text.split(",")]
    for p in primes:
        surface_mod.check_prime(p)
    return primes


def cmd_smooth(args) -> int:
    primes = _parse_primes(args.primes) if args.primes else None
    S = _load_surface(args.surface)
    verdict = smoothness_check(S)
    payload = {"verdict": verdict, "witnesses": _witness_json(S)}
    if primes:
        payload["cross_check"] = cross_check_result(S, primes)
    _emit(payload, args)
    return EXIT_OK if verdict == "smooth" else EXIT_NEGATIVE


def cmd_identities(args) -> int:
    S = _load_surface(args.surface)
    ok = cubic.verify_normal_form(S)
    _emit({"identity_verified": ok}, args)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_generate(args) -> int:
    S = _load_surface(args.surface)
    P = WPoint.parse(args.seed)
    cfg = GenerationConfig(
        t_height_bound=args.t_height,
        multiple_bound=args.n,
        depth=args.depth,
        max_points=args.max_points,
        bit_cap=args.bit_cap,
    )
    try:
        report = engine.generate(S, P, cfg)
    except engine.HypothesisFailure as exc:
        _emit({"error": str(exc)}, args)
        return EXIT_NEGATIVE
    _emit(report.to_json(S, P), args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    S = _load_surface(args.surface)
    P = WPoint.parse(args.seed)
    if not S.membership(P):
        raise ValueError(f"{P} is not on the surface")
    if P.w == 0:
        # the tangent plane at a w = 0 point is X3 = 0: it meets no affine fiber
        raise ValueError("tangent construction needs w != 0")
    found = engine.cp_sweep(S, *S.fiber_point(P), args.t_height)
    payload = {
        "surface": S.params.to_json(),
        "seed": str(P),
        "points": [engine.PointRecord(E.t, q, f"sweep({format_pair(E.t)})").to_json()
                   for E, q in found],
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    S = _load_surface(args.surface)
    found = engine.brute_force_oracle(S, args.x_num, args.x_den, args.t_num, args.t_den)
    payload = {
        "surface": S.params.to_json(),
        "points": [engine.PointRecord(t, q, "oracle").to_json() for t, q in found],
    }
    _emit(payload, args)
    return EXIT_OK


def sample_params(rng: random.Random, height: int) -> SurfaceParams:
    """One random parameter tuple with coefficient height ≤ height, f3 ≠ 0."""

    def rand_rat(nonzero: bool = False) -> Fraction:
        while True:
            v = Fraction(rng.randint(-height, height), rng.randint(1, height))
            if not nonzero or v != 0:
                return v

    vals = [rand_rat() for _ in range(8)]
    return SurfaceParams(*vals, rand_rat(nonzero=True))


def cross_check_result(S: Surface, primes: Sequence[int]):
    """The mod-p cross-check of one surface, as it goes into its census row
    or its ``smooth --primes`` report.

    That is the per-prime scan results, "degenerate", or, for the
    cross-check's known false alarm on a surface smooth over Q with bad
    reduction at every prime given, the error's text, so the caller goes on.
    Any other OracleDisagreementError propagates.
    """
    try:
        return surface_mod.smoothness_cross_check(S, primes)["mod_p"]
    except DegenerateSurfaceError:
        return "degenerate"
    except OracleDisagreementError as exc:
        if not str(exc).startswith(SINGULAR_MOD_EVERY_PRIME):
            raise
        return f"OracleDisagreementError: {exc}"


def census_row(S: Surface, seed_box: Tuple[int, int, int, int]) -> dict:
    """Smoothness verdict plus a brute-force seed search for one tuple; a
    certified seed that the lift refuses gets its reason as "seed_error"."""
    row: dict = {"params": S.params.to_json(), "picard_rank": "not computed"}
    try:
        row["smooth"] = smoothness_check(S)
    except DegenerateSurfaceError:
        row["smooth"] = "degenerate"
        row["certified"] = False
        return row
    row["certified"] = False
    row["seed"] = None
    if row["smooth"] != "smooth":
        return row
    for t, q in engine.brute_force_oracle(S, *seed_box):
        if engine.check_fiber_hypotheses(S, S.fiber_at(t), q).overall:
            row["certified"] = True
            try:
                row["seed"] = str(WPoint.from_affine(t, q.x, q.y))
            except ValueError as exc:
                row["seed_error"] = str(exc)
            break
    return row


def search_params(
    tuples: Sequence[SurfaceParams],
    seed_box: Tuple[int, int, int, int],
    primes: Optional[Sequence[int]] = None,
) -> dict:
    """Census over explicit parameter tuples; certification is by finding a
    small seed passing every hypothesis.

    With primes, each row also records its mod-p cross-check
    (``cross_check_result``), decided on the same Surface as the row.
    """
    if not tuples:
        raise ValueError("no parameter tuples to scan")
    rows = []
    for p in tuples:
        S = Surface(p)
        row = census_row(S, seed_box)
        if primes:
            row["cross_check"] = cross_check_result(S, primes)
        rows.append(row)
    summary = {
        "scanned": len(rows),
        "smooth": sum(r["smooth"] == "smooth" for r in rows),
        "certified": sum(bool(r["certified"]) for r in rows),
    }
    if primes:
        summary["cross_checked"] = sum(isinstance(r["cross_check"], dict) for r in rows)
    return {"rows": rows, "summary": summary}


def cmd_search_params(args) -> int:
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    if args.height < 1:
        raise ValueError("height must be >= 1")
    # census_row searches the box only on smooth rows, so check it up front
    engine.check_box(args.x_num, args.x_den, args.t_num, args.t_den)
    rng = random.Random(args.rng_seed)
    tuples = [sample_params(rng, args.height) for _ in range(args.samples)]
    if args.surface:
        with open(args.surface) as fh:
            tuples.insert(0, SurfaceParams.from_json(json.load(fh)))
    primes = _parse_primes(args.primes) if args.primes else None
    payload = search_params(
        tuples, (args.x_num, args.x_den, args.t_num, args.t_den), primes
    )
    _emit(payload, args)
    return EXIT_OK


def cmd_fibers(args) -> int:
    _emit(singular_fiber_report(_load_surface(args.surface)), args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp1",
        description="Exact toolkit for a family of degree-one del Pezzo surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed: bool = False, points: bool = False):
        p.add_argument("--surface", required=True, help="surface JSON file")
        if seed:
            p.add_argument("--seed", required=True, help='point "[x:y:z:w]"')
        p.add_argument("--out", help="write output to this path instead of stdout")
        if points:  # only a point list has a CSV form
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("check", help="verify the seed hypotheses")
    common(p, seed=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="classify the cubic model singularities")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("smooth", help="decide smoothness of the surface")
    common(p)
    p.add_argument("--primes", help='cross-check primes, e.g. "7,11,13"')
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("identities", help="verify the normal-form identities")
    common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("generate", help="generate rational points from a seed")
    common(p, seed=True, points=True)
    defaults = GenerationConfig()
    p.add_argument("--n", type=int, default=defaults.multiple_bound, help="multiple bound")
    p.add_argument("--t-height", type=int, default=defaults.t_height_bound, dest="t_height")
    p.add_argument("--depth", type=int, default=defaults.depth)
    p.add_argument("--max-points", type=int, default=defaults.max_points, dest="max_points")
    p.add_argument("--bit-cap", type=int, default=defaults.bit_cap, dest="bit_cap")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="bounded-height tangent-section sweep")
    common(p, seed=True, points=True)
    p.add_argument("--t-height", type=int, default=10, dest="t_height")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exhaustive box search for points")
    common(p, points=True)
    p.add_argument("--x-num", type=int, default=5, dest="x_num")
    p.add_argument("--x-den", type=int, default=1, dest="x_den")
    p.add_argument("--t-num", type=int, default=1, dest="t_num")
    p.add_argument("--t-den", type=int, default=1, dest="t_den")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("search-params", help="random parameter census")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--height", type=int, default=3, help="parameter height bound")
    p.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    p.add_argument("--surface", help="optionally include this tuple in the scan")
    p.add_argument("--x-num", type=int, default=5, dest="x_num")
    p.add_argument("--x-den", type=int, default=1, dest="x_den")
    p.add_argument("--t-num", type=int, default=2, dest="t_num")
    p.add_argument("--t-den", type=int, default=2, dest="t_den")
    p.add_argument("--primes", help='also cross-check each tuple mod these primes, e.g. "7,11,13"')
    p.add_argument("--out")
    p.set_defaults(func=cmd_search_params)

    p = sub.add_parser("fibers", help="singular fiber report and 12-budget")
    common(p)
    p.set_defaults(func=cmd_fibers)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DegenerateSurfaceError as exc:
        _emit({"verdict": "degenerate", "detail": str(exc)}, args)
        return EXIT_NEGATIVE
    except (InvariantError, OracleDisagreementError) as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
