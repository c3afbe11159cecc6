"""Rational-point generation on the surface, plus the hypothesis checker.

The engine expands a verified seed by four mechanisms, breadth-first over
fibers: group-law multiples on the seed's fiber, the tangent-section point
−[2]P, multisection hops to other fibers sharing the same (x, y), and a
bounded-height sweep of the tangent section across fibers.  Each mechanism
yields the points its maker checked on their fibers, once: the seed by
``check_hypotheses``, the one seed certificate, multiples by
``elliptic.multiples`` and ``elliptic.add``, swept points by ``cp_sweep``,
hops by ``u_hop``; the tangent point is −[2]P from the walk.  Each frontier
point, the seed included, is walked once to [12]P.  ``generate``'s ``emit``
is the one place where a candidate is dropped (over the bit cap) or
deduplicated on its affine (t, x, y); its level loop counts each kept point
against max_points and admits it to the next frontier.

Fibers and points hold their rationals as ``Pair``s, so the sweep, the
hop, the oracle and ``emit``'s keys run on integers; a Fraction is built
only to order the fibers of a report.  The sweep and the hop divide out the
roots they already know instead of searching for them: the double root x0
on the seed's own fiber, and t0 in f − f(t0), whose quadratic cofactor also
decides separability.  A known root that is not one makes the exact
division raise InvariantError.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from . import cubic, elliptic, poly
from .elliptic import ECPoint, FiberCurve
from .rational import (DIGITS_BOUND, MAX_DIGITS, InvariantError, Pair, format_pair, is_square,
                       record, reduced)
from .surface import Surface, WPoint, smoothness_check


@record
class HypothesisReport:
    """The five decidable hypotheses for a candidate seed point."""

    smooth: bool
    w0_nonzero: bool
    slope_condition: bool
    separable: bool
    non_torsion: bool

    overall = property(all)

    def to_json(self) -> dict:
        return {**self._asdict(), "overall": self.overall}


def check_hypotheses(S: Surface, P: WPoint) -> HypothesisReport:
    """Evaluate each seed condition of a weighted point independently.

    When w0 = 0 the fiber-level conditions are reported False rather than
    erroring; otherwise the point is checked on its fiber by
    ``check_fiber_hypotheses``.
    """
    if P.w != 0:
        return check_fiber_hypotheses(S, *S.fiber_point(P))
    if not S.membership(P):
        raise ValueError(f"{P} is not on the surface")
    return HypothesisReport(smoothness_check(S) == "smooth", False, False, False, False)


def check_fiber_hypotheses(S: Surface, E: FiberCurve, Q: ECPoint) -> HypothesisReport:
    """Evaluate each seed condition at the affine point Q of the fiber E.

    Q is checked on E once, by ``torsion_status``, whose OffCurveError names
    the fiber by t.  A singular fiber fails non-torsion.  The slope
    condition 3·z0·f3 + 2·f2·w0 ≠ 0 is checked as 3·t0·f3 + 2·f2 ≠ 0, the
    same condition divided by w0 ≠ 0, and read on integers: times n·td,
    with t0 = tn/td and f = F/n, it is 3·tn·F3 + 2·F2·td ≠ 0.  Separability
    of f − f(t0) is decided on the quadratic left by dividing out t0.
    """
    if Q.is_infinity:
        raise ValueError(f"{Q} is not an affine point of the fiber t={format_pair(E.t)}")
    try:
        non_torsion = elliptic.torsion_status(E, Q) is None
    except elliptic.SingularFiberError:
        non_torsion = False
    smooth = smoothness_check(S) == "smooth"
    tn, td = E.t
    F = S.f.cs
    slope = 3 * tn * F[3] + 2 * F[2] * td != 0
    # f − f(t0) = (t − t0)·q is separable iff q is and q(t0) ≠ 0
    q = _hop_quadratic(S, E.t)
    separable = poly.is_separable(q) and poly.homogeneous_value(q, tn, td) != 0
    return HypothesisReport(smooth, True, slope, separable, non_torsion)


def bounded_height_rationals(height: int) -> Iterator[Pair]:
    """All rationals p/q with max(|p|, q) ≤ height, each exactly once, as
    Pairs.

    Farey-style enumeration: coprime pairs in increasing denominator, both
    signs, zero and the integers included.
    """
    if height < 1:
        raise ValueError("height bound must be >= 1")
    yield 0, 1
    for q in range(1, height + 1):
        for p in range(1, height + 1):
            if math.gcd(p, q) != 1:
                continue
            yield p, q
            yield -p, q


def _divide_out(cs: list[int], p: int, q: int, mult: int) -> list[int]:
    """cs / (q·x − p)^mult, for a root p/q of cs known to have multiplicity
    at least mult; ``poly.int_exact_div`` raises InvariantError when it has
    not."""
    for _ in range(mult):
        cs = poly.int_exact_div(cs, (-p, q))
    return cs


def _hop_quadratic(S: Surface, t0: Pair) -> list[int]:
    """The integer quadratic q with f − f(t0) = (t − t0)·q up to a constant.

    With t0 = p/q0 and f = cs/den, q0³·cs − q0³·cs(t0) has integer
    coefficients and the root t0, which ``_divide_out`` divides out.
    """
    p, q0 = t0
    g = [q0 ** 3 * c for c in S.f.cs]
    g[0] -= S.f.value_ints(p, q0)[0]
    return _divide_out(g, p, q0, 1)


def _quadratic_roots(q: list[int]) -> list[tuple[int, int]]:
    """The distinct rational roots (p, r) of q0 + q1·t + q2·t², q2 ≠ 0, in
    lowest terms with r > 0, sorted: (−q1 ± s)/(2·q2) where s = isqrt(Δ)
    squares to Δ = q1² − 4·q0·q2."""
    c, b, a = q
    disc = b * b - 4 * a * c
    s = math.isqrt(max(disc, 0))
    if s * s != disc:
        return []
    return sorted({reduced(-b - s, 2 * a), reduced(-b + s, 2 * a)})


def u_hop(S: Surface, E: FiberCurve, Q: ECPoint) -> list[tuple[FiberCurve, ECPoint]]:
    """Hop a point Q of the fiber E to other fibers through the multisection
    structure.

    The surface equation sees z only through u = f(z/w), so a fixed (x0, y0)
    lies on every fiber t with c·u² + (a·x0 + d)·u + (b·x0 + e − k) = 0 and
    f(t) = u, where k = y0² − x0³.  Returns each hop with its fiber,
    excluding E's own t0, for each u in increasing order.  The fibers are
    found on integer numerators: for u0 = f(t0), the known root t0 is divided
    out of f − u0 and the quadratic left is solved with one ``math.isqrt``;
    the other u, when c ≠ 0, goes to ``poly.int_roots``.  Each hop is checked
    on its fiber.
    """
    if Q.is_infinity:
        raise ValueError("hop needs an affine point")
    # the hop equation at u0 = f(t0) is Q on the fiber t0
    if not elliptic.on_curve(E, Q):
        raise InvariantError(f"the u-value of fiber t={format_pair(E.t)} does not solve "
                             f"the hop equation of {Q}")
    ts = _quadratic_roots(_hop_quadratic(S, E.t))
    if S.params.c != 0:
        # the second root u1 = −(a·x0 + d)/c − u0 is rational by Vieta; with
        # a, c, d = r1, s2, s1 over one denominator and u0 = fn/fd, it is
        # −((r1·xn + s1·xd)·fd + s2·xd·fn)/(s2·xd·fd)
        (_, r1), (_, s1, s2) = S.alpha, S.beta
        (xn, xd), (fn, fd) = Q.x, S.f.value_ints(*E.t)
        un, ud = reduced(-((r1 * xn + s1 * xd) * fd + s2 * xd * fn), s2 * xd * fd)
        if un * fd != fn * ud:
            g = [ud * c for c in S.f.cs]
            g[0] -= un * S.f.den
            more = poly.int_roots(g)
            ts = more + ts if un * fd < fn * ud else ts + more
    out: list[tuple[FiberCurve, ECPoint]] = []
    for t in ts:
        if t == E.t:
            continue
        Et = S.fiber_at(t)
        if not elliptic.on_curve(Et, Q):
            raise InvariantError(f"hopped point {Q} fails the fiber t={format_pair(t)}")
        out.append((Et, Q))
    return out


def cp_sweep(S: Surface, E: FiberCurve, P: ECPoint, t_height_bound: int
             ) -> list[tuple[FiberCurve, ECPoint]]:
    """Sweep the tangent section at P = (x0, y0) on the fiber E, t = t0,
    across bounded-height fibers.

    P must have order > 2: with y0 = 0 its tangent line is vertical, and
    TwoTorsionSeedError is raised.  Takes the tangent plane at
    (x0, y0, f(t0), 1), restricts it to each fiber t = tn/td as an integer
    line αx + βy + c = 0, β ≠ 0 since y0 ≠ 0, eliminates y into an integer
    cubic in x, solves it for rational points and excludes P itself.  The
    line depends on t only through u = f(t), so on every fiber with
    f(t) = f(t0) it is the line on P's own fiber, tangent at P: the double
    root x0 is divided out, the linear factor left gives the third point,
    and P is a swept point on each such fiber but t0.  Elsewhere
    ``poly.int_roots`` finds the roots.  Each point is checked on its fiber
    and returned with it.
    """
    if P.y[0] == 0:
        raise cubic.TwoTorsionSeedError(
            f"the sweep needs a point of order > 2; {P} on the fiber t={format_pair(E.t)} "
            f"has y = 0, so order 2")
    u0 = un, ud = S.f.value_ints(*E.t)
    al, be, ga, de = cubic.tangent_plane(S, (P.x, P.y, u0, (1, 1)))
    out: list[tuple[FiberCurve, ECPoint]] = []
    for t in bounded_height_rationals(t_height_bound):
        Et = S.fiber_at(t)
        # den·td³ times αx + βy + γ·f(t) + δ
        fn, fd = S.f.value_ints(*t)
        a, b, c = al * fd, be * fd, ga * fn + de * fd
        cub = cubic.line_cubic_ints((a, b, c), Et)
        if fn * ud == un * fd:
            l0, l1 = _divide_out(cub, *P.x, 2)
            xs = sorted({P.x, reduced(-l0, l1)})
        else:
            xs = poly.int_roots(cub)
        for xn, xd in xs:
            R = ECPoint((xn, xd), reduced(-(a * xn + c * xd), b * xd))
            if R == P and t == E.t:
                continue
            if not elliptic.on_curve(Et, R):
                raise InvariantError(f"swept point {R} fails the fiber t={format_pair(t)}")
            out.append((Et, R))
    return out


# The largest bit cap, 14,284: an integer of at most that many bits is below
# DIGITS_BOUND, so it has at most MAX_DIGITS digits and every kept point prints.
MAX_BIT_CAP = DIGITS_BOUND.bit_length() - 1


@record
class GenerationConfig:
    t_height_bound: int = 10
    multiple_bound: int = 10
    depth: int = 1
    max_points: int = 500
    bit_cap: int = 4096

    def __post_init__(self):
        if self.t_height_bound < 1 or self.multiple_bound < 1 or self.max_points < 1:
            raise ValueError("bounds must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.bit_cap < 1:
            raise ValueError("bit cap must be >= 1")
        if self.bit_cap > MAX_BIT_CAP:
            raise ValueError(f"bit cap must be <= {MAX_BIT_CAP}: a point over it may have an "
                             f"integer of more than {MAX_DIGITS} digits, which cannot be printed")


@record
class PointRecord:
    t: Pair
    point: ECPoint
    provenance: str

    def to_json(self) -> dict:
        return {
            "t": format_pair(self.t),
            "x": format_pair(self.point.x),
            "y": format_pair(self.point.y),
            "provenance": self.provenance,
        }


class GenerationReport:
    def __init__(self):
        self.points: list[PointRecord] = []
        # points kept per fiber, keyed on t
        self.fibers: dict[Pair, int] = {}
        self.truncated = False
        self.skipped: list[str] = []

    def to_json(self, S: Surface, seed: WPoint) -> dict:
        return {
            "surface": S.params.to_json(),
            "seed": str(seed),
            "points": [r.to_json() for r in self.points],
            "fibers": {format_pair(t): self.fibers[t]
                       for t in sorted(self.fibers, key=lambda t: Fraction(*t))},
            # every kept point was checked on its fiber where it was made, and
            # a failed check raises InvariantError instead of printing a report
            "all_verified": True,
            "truncated": self.truncated,
            "skipped": self.skipped,
        }


class HypothesisFailure(ValueError):
    """The seed does not satisfy all generation hypotheses."""


def _within_cap(t: Pair, Q: ECPoint, cap: int) -> bool:
    """Whether no integer of the affine (t, x, y) is longer than cap bits."""
    return max(map(int.bit_length, t + Q.x + Q.y)) <= cap


def _candidates(S: Surface, E: FiberCurve, Q: ECPoint, cfg: GenerationConfig,
                skipped: list[str]) -> Iterator[tuple[FiberCurve, ECPoint, str]]:
    """(fiber, point, provenance) for each point the four mechanisms make
    from Q on E, checked on its fiber by its maker.

    Q is walked once, to [12]P.  The multiples stop after the first one
    over the bit cap, yielded so that ``emit`` records the skip; torsion
    skips go to ``skipped``.
    """
    t = E.t
    # group-law multiples on this fiber: one walk to [12]P decides torsion
    # and gives [2]P..[12]P; checked additions go on past it
    walk = elliptic.multiples(E, Q, max(elliptic.MAZUR_ORDERS))
    if elliptic.walk_order(walk) is not None:
        skipped.append(f"torsion point on fiber t={format_pair(t)}")
    else:
        acc = Q
        for n in range(2, cfg.multiple_bound + 1):
            acc = walk[n - 1] if n <= len(walk) else elliptic.add(E, acc, Q)
            yield E, acc, f"multiple({n})"
            if not _within_cap(t, acc, cfg.bit_cap):
                break
    # tangent-section point −[2]P, from the walk, then a bounded-height
    # sweep of the same section; y = 0 has order 2, skipped above
    if Q.y[0] != 0:
        yield E, elliptic.neg(walk[1]), "tangent"
        for Es, Qs in _on_smooth_fibers(cp_sweep(S, E, Q, cfg.t_height_bound)):
            yield Es, Qs, f"sweep({format_pair(Es.t)})"
    # multisection hops
    for Eh, Qh in _on_smooth_fibers(u_hop(S, E, Q)):
        yield Eh, Qh, "hop"


def _on_smooth_fibers(found: list[tuple[FiberCurve, ECPoint]]
                      ) -> Iterator[tuple[FiberCurve, ECPoint]]:
    """The pairs of ``found`` whose fiber is smooth.  ``cp_sweep`` and
    ``u_hop`` return the points of a fiber next to each other, with one
    FiberCurve, so each fiber is decided once."""
    last, smooth = None, False
    for E, Q in found:
        if E is not last:
            last, smooth = E, not E.is_singular()
        if smooth:
            yield E, Q


def generate(S: Surface, seed: WPoint, cfg: GenerationConfig) -> GenerationReport:
    """Breadth-first point generation from a seed that ``check_hypotheses``
    certifies; any other seed is a HypothesisFailure.

    Every candidate of every level passes through ``emit``.  The first level
    expands the seed; each later one, the points that the level before it
    kept on fibers with no point as that level began.  Generation stops as
    soon as max_points points are kept; ``truncated`` is then set when the
    depth asked for any expansion.
    """
    hyp = check_hypotheses(S, seed)
    if not hyp.overall:
        raise HypothesisFailure(f"seed {seed} fails hypotheses: {hyp.to_json()}")
    report = GenerationReport()
    # affine (t, x, y) is canonical: one key per point of the w = 1 chart
    seen: set[tuple[int, ...]] = set()

    def emit(E: FiberCurve, Q: ECPoint, provenance: str) -> bool:
        """Drop Q over the bit cap, else keep it once; whether Q was kept."""
        if not _within_cap(E.t, Q, cfg.bit_cap):
            report.truncated = True
            report.skipped.append(f"bit cap exceeded ({provenance})")
            return False
        key = E.t + Q.x + Q.y
        if key in seen:
            return False
        seen.add(key)
        report.points.append(PointRecord(E.t, Q, provenance))
        report.fibers[E.t] = report.fibers.get(E.t, 0) + 1
        return True

    # the seed is expanded even when it is over the bit cap
    frontier = [S.fiber_point(seed)]
    if emit(*frontier[0], "seed") and cfg.max_points == 1:
        report.truncated = cfg.depth > 0
        return report
    for _level in range(cfg.depth):
        known = set(report.fibers)
        next_frontier: list[tuple[FiberCurve, ECPoint]] = []
        for E, Q in frontier:
            for Ec, Qc, provenance in _candidates(S, E, Q, cfg, report.skipped):
                if not emit(Ec, Qc, provenance):
                    continue
                if len(report.points) == cfg.max_points:
                    report.truncated = True
                    return report
                if Ec.t not in known:
                    next_frontier.append((Ec, Qc))
        frontier = next_frontier
    return report


def brute_force_oracle(
    S: Surface,
    x_num: int,
    x_den: int,
    t_num: int,
    t_den: int,
) -> list[tuple[Pair, ECPoint]]:
    """Exhaustive box search: every fiber t and abscissa x within the bounds,
    keeping (t, (x, ±y)) whenever x³ + A(t)x + B(t) is a rational square.

    Ground truth for engine output; intended for small boxes only (the cost
    is O(t-box · x-box) exact square tests).  The box is walked as coprime
    integer pairs, and each cell is one integer test: with A(t) = an/ad and
    B(t) = bn/bd read by ``value_ints``, L any common multiple of ad and bd
    and x = p/q, x³ + Ax + B = N/(L·q³), where
    N = L·p³ + (L·A)·pq² + (L·B)·q³, is a square exactly when N·L·q is an
    integer square r², and then y = r/(L·q²).
    """
    check_box(x_num, x_den, t_num, t_den)
    out: list[tuple[Pair, ECPoint]] = []
    xs = [(p, q, p ** 3 * q, p * q ** 3, q ** 4) for p, q in _box_pairs(x_num, x_den)]
    for tn, td in _box_pairs(t_num, t_den):
        an, ad = S.A_t.value_ints(tn, td)
        bn, bd = S.B_t.value_ints(tn, td)
        L = math.lcm(ad, bd)
        LL, LLA, LLB = L * L, an * (L // ad) * L, bn * (L // bd) * L
        t = tn, td
        for p, q, p3q, pq3, q4 in xs:
            r = is_square(LL * p3q + LLA * pq3 + LLB * q4)
            if r is None:
                continue
            yn, yd = reduced(r, L * q * q)
            out.append((t, ECPoint((p, q), (yn, yd))))
            if r:
                out.append((t, ECPoint((p, q), (-yn, yd))))
    return out


def check_box(x_num: int, x_den: int, t_num: int, t_den: int) -> None:
    """Reject a box holding no rational, one that a search would find empty."""
    if min(x_num, t_num) < 0 or min(x_den, t_den) < 1:
        raise ValueError(f"box needs numerator bounds >= 0 and denominator bounds >= 1, "
                         f"got x-num {x_num}, x-den {x_den}, t-num {t_num}, t-den {t_den}")


def _box_pairs(num_bound: int, den_bound: int) -> Iterator[tuple[int, int]]:
    """The rationals p/q with |p| ≤ num_bound, 1 ≤ q ≤ den_bound, each once,
    as coprime pairs (p, q).

    Only coprime pairs are kept: any other pair reduces to one already
    yielded at a smaller q, so the order is that of first appearance.
    """
    for q in range(1, den_bound + 1):
        for p in range(-num_bound, num_bound + 1):
            if math.gcd(p, q) == 1:
                yield p, q
