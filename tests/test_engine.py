import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bit_size, off_curve_after, surface_through, time_limit
from dp1 import elliptic, engine, poly
from dp1.cubic import tangent_point, tangent_section
from dp1.elliptic import ECPoint
from dp1.engine import (
    GenerationConfig,
    HypothesisFailure,
    HypothesisReport,
    _box_rationals,
    bounded_height_rationals,
    brute_force_oracle,
    check_hypotheses,
    cp_sweep,
    generate,
    u_hop,
)
from dp1.rational import InvariantError, is_square
from dp1.surface import Surface, SurfaceParams, WPoint


def _by_t(found):
    """(fiber, point) pairs as (t, point) pairs."""
    return [(E.t, Q) for E, Q in found]


def test_hypotheses_worked_seed(worked_surface, worked_seed):
    rep = check_hypotheses(worked_surface, worked_seed)
    assert rep.to_json() == {
        "smooth": True,
        "w0_nonzero": True,
        "slope_condition": True,
        "separable": True,
        "non_torsion": True,
        "overall": True,
    }


def test_hypotheses_degenerate_seed(worked_surface):
    # z0 = 0 on f = t³: slope and separability both fail
    P = WPoint.parse("[1:2:0:1]")
    rep = check_hypotheses(worked_surface, P)
    assert rep.separable is False
    assert rep.slope_condition is False
    assert rep.smooth and rep.w0_nonzero and rep.non_torsion
    assert not rep.overall


def test_hypotheses_second_surface(worked_surface_2):
    rep = check_hypotheses(worked_surface_2, WPoint.parse("[1:2:1:1]"))
    assert rep.overall


def test_hypotheses_w_zero(worked_surface):
    rep = check_hypotheses(worked_surface, WPoint(1, 1, 0, 0))
    assert rep.smooth and not rep.w0_nonzero and not rep.overall


def test_hypotheses_off_surface(worked_surface):
    with pytest.raises(ValueError):
        check_hypotheses(worked_surface, WPoint(1, 1, 1, 1))


def test_bounded_height_enumeration():
    vals = list(bounded_height_rationals(3))
    assert len(vals) == len(set(vals))
    assert set(vals) == {
        Fraction(p, q)
        for p in range(-3, 4)
        for q in range(1, 4)
        if max(abs(p), q) <= 3
    }


def test_u_hop_worked(worked_surface_2):
    hops = u_hop(worked_surface_2, Fraction(1), ECPoint(Fraction(1), Fraction(2)))
    assert (Fraction(-1), ECPoint(Fraction(1), Fraction(2))) in _by_t(hops)


def test_u_hop_no_new_fiber(worked_surface):
    hops = u_hop(worked_surface, Fraction(-1), ECPoint(Fraction(-1), Fraction(1)))
    assert hops == []


def test_u_hop_linear_when_c_zero():
    S = Surface(SurfaceParams(1, 0, 0, 1, 2, 0, 0, 0, 1))
    # (x0,y0)=(1,2) on fiber t with f(t)=u0: solve e.g. t=... just check no crash
    # find a point first via the oracle
    for t, q in brute_force_oracle(S, 3, 1, 2, 1):
        hops = u_hop(S, t, q)
        for Eh, qh in hops:
            assert elliptic.on_curve(S.fiber_at(Eh.t), qh)
        break


def test_cp_sweep_finds_tangent_point(worked_section):
    found = _by_t(cp_sweep(worked_section, 2))
    assert (Fraction(-1), ECPoint(Fraction(17, 4), Fraction(71, 8))) in found


def test_cp_sweep_excludes_seed(worked_section):
    found = _by_t(cp_sweep(worked_section, 2))
    assert (Fraction(-1), ECPoint(Fraction(-1), Fraction(1))) not in found


def test_cp_sweep_no_root_at_zero(worked_section):
    # at t = 0 the cubic 4x³−9x²−30x−13 has no rational root
    found = _by_t(cp_sweep(worked_section, 1))
    assert not any(t == 0 for t, _ in found)


def test_cp_sweep_vertical_section():
    # the seed (−1, 0) on t = −1 has order 2, so its tangent line is x = −1
    # and the section meets every fiber in a vertical line (β = 0): each hit
    # is x = −c0/a with y = ±√(rhs), one point where the root is 0
    S = Surface(SurfaceParams(-1, -1, -1, 1, 0, 0, -2, 0, 2))
    E, Q = S.fiber_point(WPoint.parse("[-1:0:-1:1]"))
    assert Q.y == 0
    found = cp_sweep(tangent_section(S, E, Q), 4)
    assert _by_t(found) == [
        (Fraction(0), ECPoint(Fraction(-1), Fraction(0))),
        (Fraction(1), ECPoint(Fraction(-1), Fraction(0))),
        (Fraction(-2), ECPoint(Fraction(11), Fraction(36))),
        (Fraction(-2), ECPoint(Fraction(11), Fraction(-36))),
    ]
    for Es, Qs in found:
        assert Es == S.fiber_at(Es.t) and elliptic.on_curve(Es, Qs)


def test_sweep_and_hop_points_carry_their_fibers(worked_surface, worked_section, worked_surface_2):
    found = cp_sweep(worked_section, 2)
    hops = u_hop(worked_surface_2, Fraction(1), ECPoint(Fraction(1), Fraction(2)))
    assert found and hops
    for S, pairs in ((worked_surface, found), (worked_surface_2, hops)):
        for E, Q in pairs:
            assert E == S.fiber_at(E.t)


FALSE_ROOT = Fraction(1, 7919)


def with_false_root(S: Surface, makes: str):
    """rational_roots that also reports FALSE_ROOT, a non-root, for the
    polynomials of one maker: f − u in t for "hop", any other (the sweep's
    fiber-line cubics in x) for "sweep"."""
    roots = poly.rational_roots

    def broken(g):
        found = roots(g)
        is_hop = g.coeffs[1:] == S.f.coeffs[1:]
        assert FALSE_ROOT not in dict(found)
        return found + [(FALSE_ROOT, 1)] if is_hop == (makes == "hop") else found

    return broken


def test_sweep_and_hop_certify_what_they_make(worked_surface, worked_section, monkeypatch):
    # no later step checks a swept or hopped point again: a point off its
    # fiber must be caught by the function that made it
    S, (E, Q) = worked_surface, (worked_section.fiber, worked_section.point)
    monkeypatch.setattr(poly, "rational_roots", with_false_root(S, "sweep"))
    with pytest.raises(InvariantError, match="swept point"):
        cp_sweep(worked_section, 1)
    monkeypatch.setattr(poly, "rational_roots", with_false_root(S, "hop"))
    with pytest.raises(InvariantError, match="hopped point"):
        u_hop(S, E.t, Q)


@pytest.mark.parametrize("maker, n, message", [
    ("multiples", 10, r"\[2\]"),
    ("add", 13, r"\) \+ \("),
    ("sweep", 10, "swept point"),
    ("hop", 10, "hopped point"),
], ids=["multiples", "add", "sweep", "hop"])
def test_generate_raises_on_a_point_off_its_fiber(worked_surface, worked_seed, monkeypatch,
                                                  maker, n, message):
    # generate checks no point itself: each maker's own check must stop it.
    # The seed's walk takes 11 chord steps to [12]P; add takes the 12th.
    if maker in ("multiples", "add"):
        calls = 0 if maker == "multiples" else max(elliptic.MAZUR_ORDERS) - 1
        monkeypatch.setattr(elliptic, "_chord_step",
                            off_curve_after(elliptic._chord_step, calls))
    else:
        monkeypatch.setattr(poly, "rational_roots", with_false_root(worked_surface, maker))
    with pytest.raises(InvariantError, match=message):
        generate(worked_surface, worked_seed, GenerationConfig(t_height_bound=1, multiple_bound=n))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_tangent_point_is_the_geometric_route(rng_seed):
    # generate takes −[2]P from its walk; the tangent section's third point on
    # the seed's fiber, which it no longer computes, must be that point
    rng = random.Random(rng_seed)
    S, P = surface_through(rng, height=3)
    while not check_hypotheses(S, P).overall:
        S, P = surface_through(rng, height=3)
    rep = generate(S, P, GenerationConfig(t_height_bound=1, multiple_bound=1))
    E, Q = S.fiber_point(P)
    tangent = [(r.t, r.point) for r in rep.points if r.provenance == "tangent"]
    assert tangent == [tangent_point(tangent_section(S, E, Q))]


def test_generate_worked(worked_surface, worked_seed):
    rep = generate(
        worked_surface,
        worked_seed,
        GenerationConfig(t_height_bound=10, multiple_bound=10, depth=1),
    )
    assert rep.all_verified
    assert len(rep.points) >= 11
    assert rep.fibers[Fraction(-1)] >= 11
    assert any(
        r.point == ECPoint(Fraction(17, 4), Fraction(71, 8)) for r in rep.points
    )
    # multiples of a non-torsion point are pairwise distinct
    mults = [r.point for r in rep.points if r.provenance.startswith("multiple")]
    assert len(mults) == len(set(mults)) == 9


def test_generate_hop_surface(worked_surface_2):
    rep = generate(
        worked_surface_2,
        WPoint.parse("[1:2:1:1]"),
        GenerationConfig(t_height_bound=5, multiple_bound=5, depth=1),
    )
    assert any(r.provenance == "hop" and r.t == Fraction(-1) for r in rep.points)
    assert rep.all_verified


def test_generate_decides_torsion_once(worked_surface_2, monkeypatch):
    # one walk to [12]P per expanded frontier point, the seed's included; the
    # seed's non-torsion hypothesis is decided by the one torsion_status call
    # that check_hypotheses makes, which certifies by reduction and walks
    # nothing
    S, seed = worked_surface_2, WPoint.parse("[1:2:1:1]")
    E0, Q0 = S.fiber_point(seed)
    level_1 = generate(S, seed, GenerationConfig(t_height_bound=2, multiple_bound=3, depth=1))
    walked, torsion_calls = [], []
    multiples, torsion_status = elliptic.multiples, elliptic.torsion_status

    def counting_multiples(E, Q, n):
        if n == max(elliptic.MAZUR_ORDERS):
            walked.append((E.t, Q))
        return multiples(E, Q, n)

    def counting_torsion(E, Q):
        torsion_calls.append((E.t, Q))
        return torsion_status(E, Q)

    monkeypatch.setattr(elliptic, "multiples", counting_multiples)
    monkeypatch.setattr(elliptic, "torsion_status", counting_torsion)
    rep = generate(S, seed, GenerationConfig(t_height_bound=2, multiple_bound=3, depth=2))
    assert len(rep.fibers) == 4  # the second level expanded the hop's fibers
    # the second level expands, in order, every first-level point off the
    # seed's fiber
    expanded = [(E0.t, Q0)] + [(r.t, r.point) for r in level_1.points if r.t != E0.t]
    assert len(expanded) > 1
    assert walked == expanded
    assert torsion_calls == [(E0.t, Q0)]
    # check_hypotheses on the same seed makes the same one call again
    assert check_hypotheses(S, seed) == HypothesisReport(True, True, True, True, True)
    assert torsion_calls == [(E0.t, Q0)] * 2
    assert walked == expanded


@pytest.mark.parametrize("max_points", range(1, 6))
def test_generate_max_points_is_a_cap(worked_surface, worked_seed, max_points):
    # the seed's own fiber alone gives 11 points at n 10, so every cap bites
    cfg = GenerationConfig(t_height_bound=2, multiple_bound=10, depth=1)
    full = generate(worked_surface, worked_seed, cfg)
    rep = generate(worked_surface, worked_seed, dataclasses.replace(cfg, max_points=max_points))
    assert len(rep.points) <= max_points
    assert rep.points == full.points[:max_points]
    assert rep.fibers == {r.t: sum(q.t == r.t for q in rep.points) for r in rep.points}
    assert rep.truncated and rep.all_verified


@pytest.mark.parametrize("max_points", [2, 11, 12, 21])
def test_generate_stops_at_the_cap(worked_surface, worked_seed, monkeypatch, max_points):
    # uncapped, the events run: 11 points on the seed's fiber, a sweep, its
    # point, a hop, then 10 points, a sweep and a hop on the new fiber; the
    # caps fall among the multiples, before the sweep, inside the sweep and
    # on the second level.  Nothing may start once max_points are kept.
    events = []

    def record(name, fn):
        def wrapped(*args):
            events.append(name)
            return fn(*args)
        return wrapped

    for name in ("PointRecord", "cp_sweep", "u_hop"):
        monkeypatch.setattr(engine, name, record(name, getattr(engine, name)))
    cfg = GenerationConfig(t_height_bound=10, multiple_bound=10, depth=2, max_points=max_points)
    rep = generate(worked_surface, worked_seed, cfg)
    assert len(rep.points) == max_points and rep.truncated
    assert events.count("PointRecord") == max_points
    assert events[-1] == "PointRecord"  # the cap's own point is the last event


def test_generate_depth_zero(worked_surface, worked_seed):
    rep = generate(worked_surface, worked_seed, GenerationConfig(depth=0, multiple_bound=1))
    assert [r.provenance for r in rep.points] == ["seed"]


# seeds that fail the hypotheses, one cause each: (parameters, seed, report)
BAD_SEEDS = {
    # z0 = 0 on f = t³: slope and separability both fail
    "slope-separability": ((0, 0, 1, 2, 3, 0, 0, 0, 1), "[1:2:0:1]",
                           (True, True, False, False, True)),
    # (0, 1) has order 3 on the fiber t = -1 of y² = x³ + z⁶ − 2z³w³ − 2w⁶
    "torsion": ((0, 0, 1, -2, -2, 0, 0, 0, 1), "[0:1:-1:1]", (True, True, True, True, False)),
    # w0 = 0 fails the fiber-level conditions too
    "w0-zero": ((0, 0, 1, 2, 3, 0, 0, 0, 1), "[1:1:0:0]", (True, False, False, False, False)),
    # the fiber t = 1 of y² = x³ − u² + u + 2, u = 2t³ − 2t² − t, is y² = x³
    "singular-fiber": ((0, 0, -1, 1, 2, 0, -1, -2, 2), "[1:1:1:1]", (True, True, True, True, False)),
    # y² = x³ + (t³ + 1)² is singular over the roots of t³ + 1
    "singular-surface": ((0, 0, 1, 2, 1, 0, 0, 0, 1), "[-5:62:-4:1]",
                         (False, True, True, True, True)),
}


@pytest.mark.parametrize("cause", BAD_SEEDS)
def test_generate_refuses_what_check_hypotheses_refuses(cause):
    params, text, expected = BAD_SEEDS[cause]
    S, seed = Surface(SurfaceParams(*params)), WPoint.parse(text)
    hyp = check_hypotheses(S, seed)
    assert hyp == HypothesisReport(*expected)
    with pytest.raises(HypothesisFailure) as err:
        generate(S, seed, GenerationConfig())
    assert str(err.value) == f"seed {seed} fails hypotheses: {hyp.to_json()}"


def test_fiber_hypotheses_compute_one_discriminant(monkeypatch, worked_surface, worked_seed):
    # the fiber's Fraction discriminant is computed once per check, by
    # torsion_status, which also decides the singular fiber
    calls = []
    is_singular = elliptic.FiberCurve.is_singular
    monkeypatch.setattr(elliptic.FiberCurve, "is_singular",
                        lambda E: calls.append(E.t) or is_singular(E))
    seeds = [(worked_surface, worked_seed)] + [
        (Surface(SurfaceParams(*BAD_SEEDS[cause][0])), WPoint.parse(BAD_SEEDS[cause][1]))
        for cause in ("torsion", "singular-fiber")]
    for S, seed in seeds:
        E, Q = S.fiber_point(seed)
        calls.clear()
        engine.check_fiber_hypotheses(S, E, Q)
        assert calls == [E.t]


def test_fiber_hypotheses_check_the_point_once(monkeypatch, worked_surface, worked_seed):
    # torsion_status checks Q on E, and nothing else does when reduction
    # decides non-torsion
    calls = []
    on_curve = elliptic.on_curve
    monkeypatch.setattr(elliptic, "on_curve", lambda E, Q: calls.append(Q) or on_curve(E, Q))
    E, Q = worked_surface.fiber_point(worked_seed)
    assert engine.check_fiber_hypotheses(worked_surface, E, Q).non_torsion
    assert calls == [Q]


@pytest.mark.parametrize("cause, point", [
    ("smooth fiber", ECPoint(Fraction(0), Fraction(1))),
    ("smooth fiber", elliptic.O),
    ("singular fiber", ECPoint(Fraction(1), Fraction(2))),
    ("singular fiber", elliptic.O),
])
def test_fiber_hypotheses_refuse_a_point_off_its_fiber(worked_surface, cause, point):
    # the fiber t = 1 of the singular-fiber seed's surface is y² = x³
    if cause == "smooth fiber":
        S, t = worked_surface, Fraction(-1)
    else:
        S, t = Surface(SurfaceParams(*BAD_SEEDS["singular-fiber"][0])), Fraction(1)
    E = S.fiber_at(t)
    assert E.is_singular() == (cause == "singular fiber")
    with pytest.raises(ValueError) as err:
        engine.check_fiber_hypotheses(S, E, point)
    assert type(err.value) is ValueError
    assert str(err.value) == f"{point} is not an affine point of the fiber t={t}"


@pytest.mark.parametrize("k", range(2, 14))
def test_emit_keeps_a_point_at_the_bit_cap(worked_surface, worked_seed, k):
    # [k]P of exactly bit_cap bits is kept; with the cap one bit lower it is
    # dropped and recorded, and the multiples stop there.  [13]P comes from
    # the checked add past the walk.
    E, P = worked_surface.fiber_point(worked_seed)
    walk = elliptic.multiples(E, P, 14)
    bits = [max(bit_size(E.t), bit_size(R.x), bit_size(R.y)) for R in walk]
    assert bits == sorted(set(bits))  # strictly increasing
    cap = bits[k - 1]
    for bit_cap, kept in ((cap, True), (cap - 1, False)):
        cfg = GenerationConfig(t_height_bound=1, multiple_bound=k + 1, bit_cap=bit_cap)
        rep = generate(worked_surface, worked_seed, cfg)
        made = {r.provenance: r.point for r in rep.points}
        assert (f"multiple({k})" in made) == kept
        assert (f"bit cap exceeded (multiple({k}))" in rep.skipped) == (not kept)
        if kept:
            assert made[f"multiple({k})"] == walk[k - 1]
        else:
            assert rep.truncated and f"multiple({k + 1})" not in str(rep.skipped)


def test_generate_bit_cap_flags_truncation(worked_surface, worked_seed):
    rep = generate(
        worked_surface,
        worked_seed,
        GenerationConfig(t_height_bound=2, multiple_bound=10, depth=1, bit_cap=16),
    )
    assert rep.truncated


def test_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(t_height_bound=0)
    with pytest.raises(ValueError):
        GenerationConfig(depth=-1)


def test_oracle_worked(worked_surface):
    pts = brute_force_oracle(worked_surface, 5, 1, 1, 1)
    assert (Fraction(0), ECPoint(Fraction(1), Fraction(2))) in pts
    assert (Fraction(0), ECPoint(Fraction(1), Fraction(-2))) in pts
    assert (Fraction(-1), ECPoint(Fraction(-1), Fraction(1))) in pts
    assert len({t for t, _ in pts}) >= 2


def test_oracle_second_surface(worked_surface_2):
    pts = brute_force_oracle(worked_surface_2, 5, 1, 1, 1)
    for t in (Fraction(1), Fraction(-1)):
        assert (t, ECPoint(Fraction(1), Fraction(2))) in pts


def fraction_oracle(S, x_num, x_den, t_num, t_den):
    """Reference box search: each cell's x³ + A(t)x + B(t) in Fraction
    arithmetic, tested by is_square."""
    out = []
    for t in _box_rationals(t_num, t_den):
        E = S.fiber_at(t)
        for x in _box_rationals(x_num, x_den):
            root = is_square(E.rhs(x))
            if root is not None:
                out.append((t, ECPoint(x, root)))
                if root != 0:
                    out.append((t, ECPoint(x, -root)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2), st.integers(1, 2), st.integers(0, 1),
       st.integers(1, 2))
def test_oracle_matches_fraction_cells(seed, dxn, dxd, dtn, dtd):
    # a box around a planted point, with denominator bounds above 1
    S, P = surface_through(random.Random(seed), height=3)
    t0, (x0, y0) = P.t(), P.affine_xy()
    box = (abs(x0.numerator) + dxn, max(x0.denominator, 2) + dxd - 1,
           abs(t0.numerator) + dtn, max(t0.denominator, 2) + dtd - 1)
    found = brute_force_oracle(S, *box)
    assert found == fraction_oracle(S, *box)
    assert (t0, ECPoint(x0, abs(y0))) in found and (t0, ECPoint(x0, -abs(y0))) in found


def test_oracle_matches_fraction_cells_examples(worked_surface, worked_surface_2):
    # y² = x³ + t⁶ − 1 has y = 0 at x = 0, t = ±1
    two_torsion = Surface(SurfaceParams(0, 0, 1, 0, -1, 0, 0, 0, 1))
    for S in (worked_surface, worked_surface_2, two_torsion):
        for box in ((0, 1, 0, 1), (5, 1, 1, 1), (4, 3, 2, 3), (9, 4, 1, 2)):
            assert brute_force_oracle(S, *box) == fraction_oracle(S, *box)
    found = brute_force_oracle(two_torsion, 2, 2, 1, 2)
    assert found.count((Fraction(1), ECPoint(Fraction(0), Fraction(0)))) == 1


@pytest.mark.parametrize("box", [(-1, 1, 1, 1), (5, 0, 1, 1), (5, 1, -2, 1), (5, 1, 1, 0)])
def test_oracle_rejects_empty_box(worked_surface, box):
    with pytest.raises(ValueError, match="box needs"):
        brute_force_oracle(worked_surface, *box)


def box_rationals_by_set(num_bound, den_bound):
    """Reference box order: every p/q, with later repeats dropped by a set."""
    seen = set()
    out = []
    for q in range(1, den_bound + 1):
        for p in range(-num_bound, num_bound + 1):
            v = Fraction(p, q)
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


@pytest.mark.parametrize("num_bound", range(1, 7))
@pytest.mark.parametrize("den_bound", range(1, 7))
def test_box_rationals_match_set_dedup(num_bound, den_bound):
    assert list(_box_rationals(num_bound, den_bound)) == box_rationals_by_set(
        num_bound, den_bound
    )


def on_surface_by_params(S: Surface, t: Fraction, Q: ECPoint) -> bool:
    """y² = x³ + (a·u + b)·x + c·u² + d·u + e with u = f(t), in Fraction."""
    p = S.params
    u = p.f0 + t * (p.f1 + t * (p.f2 + t * p.f3))
    return Q.y ** 2 == Q.x ** 3 + (p.a * u + p.b) * Q.x + (p.c * u + p.d) * u + p.e


def test_root_finding_tail_on_worked_surface(worked_surface, worked_seed):
    # the tangent sweep at [4]P, whose fiber-line cubics have large constant
    # and leading terms, and generate at depth 2, t-height 20: each took
    # about a minute or more with a divisor-pair root finder
    S = worked_surface
    E, Q = S.fiber_point(worked_seed)
    P4 = elliptic.multiples(E, Q, 4)[3]
    with time_limit(20):
        swept = cp_sweep(tangent_section(S, E, P4), 10)
        rep = generate(S, worked_seed, GenerationConfig(t_height_bound=20, multiple_bound=10, depth=2))
    assert swept and len(rep.points) == 22
    for Es, Qs in swept:
        assert on_surface_by_params(S, Es.t, Qs)
    for r in rep.points:
        assert on_surface_by_params(S, r.t, r.point)


def test_engine_subset_of_oracle(worked_surface, worked_seed):
    rep = generate(
        worked_surface,
        worked_seed,
        GenerationConfig(t_height_bound=2, multiple_bound=10, depth=1),
    )
    oracle = set()
    for t, q in brute_force_oracle(worked_surface, 8, 4, 2, 2):
        oracle.add((t, q.x, q.y))
    for r in rep.points:
        t, x, y = r.t, r.point.x, r.point.y
        in_box = (
            abs(t.numerator) <= 8 and t.denominator <= 2
            and abs(x.numerator) <= 8 and x.denominator <= 4
        )
        if in_box:
            assert (t, x, y) in oracle


def test_every_generated_point_on_surface_random():
    rng = random.Random(29)
    done = 0
    while done < 3:
        S, P = surface_through(rng, height=3)
        rep_h = check_hypotheses(S, P)
        if not rep_h.overall:
            continue
        rep = generate(S, P, GenerationConfig(t_height_bound=3, multiple_bound=3, depth=1, bit_cap=512))
        lifted = [WPoint.from_affine(r.t, r.point.x, r.point.y) for r in rep.points]
        assert len(set(lifted)) == len(lifted)
        for R in lifted:
            assert S.membership(R)
        done += 1
