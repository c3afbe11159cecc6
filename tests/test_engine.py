import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    RefPoly,
    affine,
    bit_size,
    box_rationals,
    cp_sweep_by_fractions,
    derivative,
    fiber_line,
    fraction_oracle,
    off_curve_after,
    random_params,
    replaced,
    surface_through,
    fiber,
    frac,
    pair,
    plane_at,
    point,
    time_limit,
    u_hop_by_fractions,
    value,
    xy,
)
from dp1 import cli, elliptic, engine, poly
from dp1.cubic import SingularImageError, TwoTorsionSeedError, tangent_point
from dp1.elliptic import ECPoint, FiberCurve
from dp1.engine import (
    GenerationConfig,
    HypothesisFailure,
    HypothesisReport,
    _box_pairs,
    bounded_height_rationals,
    brute_force_oracle,
    check_hypotheses,
    cp_sweep,
    generate,
    u_hop,
)
from dp1.rational import InvariantError, is_square
from dp1.surface import (
    DegenerateSurfaceError,
    Surface,
    SurfaceParams,
    WPoint,
    singular_witnesses,
    smoothness_check,
)


def _by_t(found):
    """(fiber, point) pairs as (t, point) pairs, t a Fraction."""
    return [(frac(E.t), Q) for E, Q in found]


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


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_fractions, min_size=9, max_size=9), st.sampled_from(["drawn", "zero", "flat"]),
       st.booleans())
def test_slope_condition_matches_fractions(vals, where, f2_zero):
    # the integer slope 3·tn·F3 + 2·F2·td ≠ 0 against 3·t0·f3 + 2·f2 ≠ 0 in
    # Fractions, at t0 = 0, at the one t0 where it fails, and with f2 = 0
    a, b, c, d, f0, f1, f2, f3, t0 = vals
    f2 = Fraction(0) if f2_zero else f2
    assume(f3 != 0)
    t0 = {"drawn": t0, "zero": Fraction(0), "flat": -2 * f2 / (3 * f3)}[where]
    x0, y0 = Fraction(1), Fraction(2)
    u0 = ((f3 * t0 + f2) * t0 + f1) * t0 + f0
    e = y0 * y0 - x0 ** 3 - (a * u0 + b) * x0 - (c * u0 + d) * u0
    S = Surface(SurfaceParams(a, b, c, d, e, f0, f1, f2, f3))
    try:
        rep = engine.check_fiber_hypotheses(S, fiber(S, t0), point(x0, y0))
    except DegenerateSurfaceError:
        assume(False)
    assert rep.slope_condition == (3 * t0 * f3 + 2 * f2 != 0)
    assert rep.separable == separable_by_fractions(S, t0)


def test_bounded_height_enumeration():
    vals = list(bounded_height_rationals(3))
    assert len(vals) == len(set(vals))
    assert all(v == pair(frac(v)) for v in vals)
    assert set(map(frac, vals)) == {
        Fraction(p, q)
        for p in range(-3, 4)
        for q in range(1, 4)
        if max(abs(p), q) <= 3
    }


def test_u_hop_worked(worked_surface_2):
    hops = u_hop(worked_surface_2, fiber(worked_surface_2, 1), point(1, 2))
    assert (Fraction(-1), point(1, 2)) in _by_t(hops)


def test_u_hop_no_new_fiber(worked_surface):
    hops = u_hop(worked_surface, fiber(worked_surface, -1), point(-1, 1))
    assert hops == []


def test_u_hop_linear_when_c_zero():
    # c = 0 leaves one u-value, u0 = f(t0); with f = t³ − t, f(t) = f(0) = 0
    # also at t = ±1, so each point of the fiber t = 0 hops to both
    S = Surface(SurfaceParams(1, 0, 0, 1, 2, 0, -1, 0, 1))
    found = brute_force_oracle(S, 3, 1, 0, 1)
    assert ((0, 1), point(-1, 1)) in found
    for t, Q in found:
        hops = u_hop(S, S.fiber_at(t), Q)
        assert _by_t(hops) == [(Fraction(-1), Q), (Fraction(1), Q)]
        assert hops == u_hop_by_fractions(S, frac(t), Q)


def test_u_hop_refuses_a_point_off_its_fiber(worked_surface):
    # (−1, 1) lies on the fiber t = −1 of the worked surface, not on t = 0
    with pytest.raises(InvariantError, match=r"^the u-value of fiber t=0 does not solve the hop "
                                             r"equation of \(-1, 1\)$"):
        u_hop(worked_surface, fiber(worked_surface, 0), point(-1, 1))


def test_u_hop_refuses_the_point_at_infinity(worked_section):
    S, E, _ = worked_section
    with pytest.raises(ValueError, match=r"^hop needs an affine point$"):
        u_hop(S, E, ECPoint())


def test_cp_sweep_finds_tangent_point(worked_section):
    found = _by_t(cp_sweep(*worked_section, 2))
    assert (Fraction(-1), point(Fraction(17, 4), Fraction(71, 8))) in found


def test_cp_sweep_excludes_seed(worked_section):
    found = _by_t(cp_sweep(*worked_section, 2))
    assert (Fraction(-1), point(Fraction(-1), Fraction(1))) not in found


def test_cp_sweep_no_root_at_zero(worked_section):
    # at t = 0 the cubic 4x³−9x²−30x−13 has no rational root
    found = _by_t(cp_sweep(*worked_section, 1))
    assert not any(t == 0 for t, _ in found)


def test_cp_sweep_vertical_section():
    # the seed (−1, 0) on t = −1 has order 2, so its tangent line is the
    # vertical x = −1, and the sweep refuses it
    S = Surface(SurfaceParams(-1, -1, -1, 1, 0, 0, -2, 0, 2))
    E, Q = S.fiber_point(WPoint.parse("[-1:0:-1:1]"))
    assert Q.y == (0, 1)
    with pytest.raises(TwoTorsionSeedError, match="order 2"):
        cp_sweep(S, E, Q, 4)


def test_cp_sweep_from_a_singular_point_of_its_fiber():
    # the cusp (0, 0) of y² = x³ on t = 1: a singular point of a fiber has
    # y = 0, so order 2, and the sweep refuses it
    S = Surface(SurfaceParams(0, 0, 1, 0, -1, 0, 0, 0, 1))
    E, Q = S.fiber_point(WPoint.parse("[0:0:1:1]"))
    assert E.is_singular() and Q.y == (0, 1)
    with pytest.raises(TwoTorsionSeedError, match="order 2"):
        cp_sweep(S, E, Q, 3)


def test_generate_drops_points_on_singular_fibers(monkeypatch):
    # the sweep from this seed meets the cuspidal fiber t = 1 in two points,
    # between its own fiber's point and two on the smooth fiber t = −1;
    # generate keeps all but the two on t = 1, and decides each fiber of each
    # maker once: the seed's by torsion_status, then the sweep's 0, 1 and −1
    # and the hop's −1 and 2
    S = Surface(SurfaceParams(0, 0, 1, -1, 0, -1, 2, 1, -1))
    seed = WPoint.parse("[-1:-1:0:1]")
    E, Q = S.fiber_point(seed)
    swept = cp_sweep(S, E, Q, 1)
    assert [(frac(Es.t), Es.is_singular()) for Es, _ in swept] == [
        (0, False), (1, True), (1, True), (-1, False), (-1, False)]
    calls = []
    is_singular = elliptic.FiberCurve.is_singular
    monkeypatch.setattr(elliptic.FiberCurve, "is_singular",
                        lambda E: calls.append(frac(E.t)) or is_singular(E))
    rep = generate(S, seed, GenerationConfig(t_height_bound=1, multiple_bound=2))
    assert calls == [0, 0, 1, -1, -1, 2]
    sweep = [(r.t, r.point) for r in rep.points if r.provenance.startswith("sweep")]
    assert sweep == [(Es.t, Qs) for Es, Qs in swept if Es.t == (-1, 1)]


def test_sweep_and_hop_points_carry_their_fibers(worked_surface, worked_section, worked_surface_2):
    found = cp_sweep(*worked_section, 2)
    hops = u_hop(worked_surface_2, fiber(worked_surface_2, 1), point(1, 2))
    assert found and hops
    for S, pairs in ((worked_surface, found), (worked_surface_2, hops)):
        for E, Q in pairs:
            assert E == S.fiber_at(E.t)


SWEEP_KINDS = ("generic", "vertical", "c=0", "singular", "double")


def sweep_case(rng: random.Random, height: int, kind: str):
    """(S, E, Q, plane): a surface of parameter height ≤ height (before the
    kind's own solving), smooth (for c = 0, over every finite fiber), with an
    affine point Q on its fiber E, whose tangent section exists, of one kind:

    - "vertical": y0 = 0, so Q has order 2 and the sweep refuses it;
    - "c=0": c = 0, so the hop has one u-value;
    - "singular": E is y² = (x − k)²(x + 2k), nodal or (k = 0) cuspidal,
      and Q = (s² − 2k, s(s² − 3k)) a smooth point on it;
    - "double": f = f3·(t − t0)²·(t − r) + k0, so t0 is a double root of
      f − f(t0).
    """
    def rat() -> Fraction:
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    while True:
        a, b, c, d, f0, f1, f2, f3, t0, x0, y0 = (rat() for _ in range(11))
        if f3 == 0:
            continue
        if kind == "vertical":
            y0 = Fraction(0)
        elif kind == "c=0":
            c = Fraction(0)
        elif kind == "double":
            r = rat()
            f0, f1, f2 = f0 - f3 * t0 * t0 * r, f3 * (2 * t0 * r + t0 * t0), -f3 * (r + 2 * t0)
        u0 = f0 + t0 * (f1 + t0 * (f2 + t0 * f3))
        if kind == "singular":
            k, s = rat(), rat()
            b, e = -3 * k * k - a * u0, 2 * k ** 3 - (c * u0 + d) * u0
            x0, y0 = s * s - 2 * k, s * (s * s - 3 * k)
            if y0 == 0:
                continue
        else:
            e = y0 * y0 - x0 ** 3 - (a * u0 + b) * x0 - (c * u0 + d) * u0
        S = Surface(SurfaceParams(a, b, c, d, e, f0, f1, f2, f3))
        try:
            verdict = smoothness_check(S)
        except DegenerateSurfaceError:
            continue
        if not (verdict == "smooth" or c == 0 and all(w[0] != "t" for w in singular_witnesses(S))):
            continue
        E, Q = fiber(S, t0), point(x0, y0)
        try:
            return S, E, Q, plane_at(S, (x0, y0, value(S.f, t0), 1))
        except SingularImageError:
            continue


def separable_by_fractions(S: Surface, t0: Fraction) -> bool:
    """Reference separability of f − f(t0), on the cubic itself: g has no
    repeated root iff gcd(g, g′) is a constant."""
    g = RefPoly.of(S.f) - RefPoly.constant(value(S.f, t0))
    return poly.gcd(g, derivative(g)).degree() == 0


def swept_or_refused(S, E, Q, t_height):
    """cp_sweep's points, or none for a point of order 2 (y = 0), whose
    refusal is checked."""
    if Q.y[0] != 0:
        return cp_sweep(S, E, Q, t_height)
    with pytest.raises(TwoTorsionSeedError, match="order 2"):
        cp_sweep(S, E, Q, t_height)
    return []


def assert_matches_fraction_sweep_and_hop(S, E, Q, t_height):
    found = swept_or_refused(S, E, Q, t_height)
    if Q.y[0] != 0:
        assert found == cp_sweep_by_fractions(S, E, Q, t_height)
    assert u_hop(S, E, Q) == u_hop_by_fractions(S, frac(E.t), Q)
    assert engine.check_fiber_hypotheses(S, E, Q).separable == separable_by_fractions(S, frac(E.t))
    return found


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(SWEEP_KINDS), st.integers(1, 3),
       st.integers(1, 4))
def test_sweep_and_hop_match_fraction_references(rng_seed, kind, height, t_height):
    # the integer sweep and hop return the Fraction versions' fibers and
    # points, in their order; so does the separability test on the quadratic
    S, E, Q, plane = sweep_case(random.Random(rng_seed), height, kind)
    t0 = frac(E.t)
    if kind == "singular":
        # the fiber t0 is swept, and the third point of the tangent line
        # there lies on a singular fiber
        t_height = max(t_height, abs(t0.numerator), t0.denominator)
    found = assert_matches_fraction_sweep_and_hop(S, E, Q, t_height)
    if kind == "vertical":
        assert plane[1] == 0
    elif kind == "singular":
        # the tangent line at Q meets E again at x3, a point unless Q is a flex
        a, b, _c0 = fiber_line(S, E, Q, t0)
        x0 = frac(Q.x)
        x3 = (a / b) ** 2 - 2 * x0
        assert E.is_singular()
        assert any(Es.t == E.t and frac(Qs.x) == x3 for Es, Qs in found) == (x3 != x0)
    elif kind == "double":
        assert derivative(S.f)(t0) == 0


@pytest.mark.parametrize("params, seed", [
    ((0, 0, 1, 2, 3, 0, 0, 0, 1), "[-1:1:-1:1]"),  # the worked seed
    ((0, 0, 1, 0, 2, 0, 0, 0, 1), "[1:2:1:1]"),  # two u-values, a hop to t = −1
    ((0, 0, 1, -2, -2, 0, 0, 0, 1), "[0:1:-1:1]"),  # order 3: the tangent is a flex
    ((0, 0, 1, 2, 3, 0, 0, 0, 1), "[1:2:0:1]"),  # t0 = 0 a triple root of f − f(t0)
    ((0, 0, -1, 1, 2, 0, -1, -2, 2), "[1:1:1:1]"),  # on the cusp y² = x³ at t = 1
    ((-1, -1, -1, 1, 0, 0, -2, 0, 2), "[-1:0:-1:1]"),  # order 2: the sweep refuses it
    ((1, 0, 0, 1, 2, 0, -1, 0, 1), "[-1:1:0:1]"),  # c = 0, hops to t = ±1
    ((1, 0, 1, 0, 2, 0, -2, 1, 1), "[-1:1:0:1]"),  # f(0) = f(1) = f(−2): one line on three
])
@pytest.mark.parametrize("t_height", [1, 4])
def test_sweep_and_hop_match_fraction_references_examples(params, seed, t_height):
    S = Surface(SurfaceParams(*params))
    E, Q = S.fiber_point(WPoint.parse(seed))
    assert_matches_fraction_sweep_and_hop(S, E, Q, t_height)


def assert_reduced(*made):
    """Each fiber's t, A and B, each affine point's x and y, and each Pair
    among ``made`` is in lowest terms with a positive denominator."""
    for v in made:
        if isinstance(v, FiberCurve):
            assert_reduced(*v)
        elif isinstance(v, ECPoint):
            if not v.is_infinity:
                assert_reduced(*v)
        else:
            n, d = v
            assert type(n) is type(d) is int and d > 0 and math.gcd(n, d) == 1, v


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(SWEEP_KINDS), st.integers(1, 3),
       st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-12, 12),
                 st.integers(1, 12)))
def test_fibers_and_points_are_reduced_pairs(rng_seed, kind, height, xyzw):
    # generate's dedup and record equality compare Pairs: every maker of a
    # fiber or a point must return them in lowest terms, d > 0
    S, E, Q, _ = sweep_case(random.Random(rng_seed), height, kind)
    assert_reduced(E, Q, S.fiber_at(E.t))
    # a weighted point whose z and w, or whose w and x, y share factors
    k = xyzw[3]
    assert_reduced(*S.fiber_point(WPoint(xyzw[0] * k * k, xyzw[1] * k ** 3, xyzw[2] * k, k)))
    assert_reduced(*S.fiber_point(WPoint.from_affine(E.t, Q.x, Q.y)))
    walk = elliptic.multiples(E, Q, 6)
    assert_reduced(*walk, elliptic.add(E, Q, walk[1]), elliptic.add(E, walk[2], elliptic.neg(Q)))
    for Es, Qs in swept_or_refused(S, E, Q, 2) + u_hop(S, E, Q):
        assert_reduced(Es, Qs)
    for t, R in brute_force_oracle(S, 4, 3, 2, 2):
        assert_reduced(t, R)


FALSE_ROOT = (1, 7919)  # 1/7919, a root of no polynomial these tests meet


def with_false_root(monkeypatch, S: Surface, makes: str) -> None:
    """Make the integer root finders of one maker also report FALSE_ROOT.

    For "sweep", ``poly.int_roots`` on the fiber-line cubics in x; for
    "hop", ``poly.int_roots`` on f − u (whose coefficients past the constant
    are f's, up to scale) and ``engine._quadratic_roots``, which solves what
    is left of f − f(t0) once t0 is divided out.
    """
    int_roots, quadratic_roots = poly.int_roots, engine._quadratic_roots
    f = S.f.cs

    def is_hop(cs):
        return len(cs) == len(f) and all(c * f[-1] == g * cs[-1] for c, g in zip(cs[1:], f[1:]))

    def broken_int_roots(cs):
        found = int_roots(cs)
        assert FALSE_ROOT not in found
        return found + [FALSE_ROOT] if is_hop(cs) == (makes == "hop") else found

    monkeypatch.setattr(poly, "int_roots", broken_int_roots)
    if makes == "hop":
        monkeypatch.setattr(engine, "_quadratic_roots", lambda q: quadratic_roots(q) + [FALSE_ROOT])


def test_sweep_and_hop_certify_what_they_make(worked_section, worked_surface_2, monkeypatch):
    # no later step checks a swept or hopped point again: a point off its
    # fiber must be caught by the function that made it.  The worked hop has
    # one u-value, the second surface's two.
    S, E, Q = worked_section
    with monkeypatch.context() as m:
        with_false_root(m, S, "sweep")
        with pytest.raises(InvariantError, match="swept point"):
            cp_sweep(S, E, Q, 1)
    for S, E, Q in ((S, E, Q), (worked_surface_2, fiber(worked_surface_2, 1), point(1, 2))):
        with monkeypatch.context() as m:
            with_false_root(m, S, "hop")
            with pytest.raises(InvariantError, match="hopped point"):
                u_hop(S, E, Q)


def wrong_known_root(monkeypatch, mult: int, nth: int = 0) -> None:
    """Make ``engine._divide_out`` divide by the known root plus one, for the
    divisions of multiplicity ``mult``, or for only the nth of them when nth
    is given: 2 is the sweep's double root x0 on each fiber with
    f(t) = f(t0), 1 is t0 in f − f(t0)."""
    divide_out = engine._divide_out
    calls = []

    def broken(cs, p, q, m):
        if m == mult:
            calls.append(cs)
        wrong = m == mult and nth in (0, len(calls))
        return divide_out(cs, p + q if wrong else p, q, m)

    monkeypatch.setattr(engine, "_divide_out", broken)


@pytest.mark.parametrize("division", ["sweep", "hop", "separability"])
def test_a_wrong_known_root_is_refused(worked_seed, worked_section, monkeypatch, division):
    # each root that the sweep and the hop divide out instead of searching
    # for is checked by the exact division itself: a wrong one raises, and
    # the maker returns no point
    S, E, Q = worked_section
    wrong_known_root(monkeypatch, 2 if division == "sweep" else 1)
    make = {
        "sweep": lambda: cp_sweep(S, E, Q, 1),
        "hop": lambda: u_hop(S, E, Q),
        "separability": lambda: engine.check_fiber_hypotheses(S, E, Q),
    }[division]
    with pytest.raises(InvariantError, match="does not divide"):
        make()
    with pytest.raises(InvariantError, match="does not divide"):
        generate(S, worked_seed, GenerationConfig(t_height_bound=1, multiple_bound=2))


# f = t³ + t² − 2t, zero at t = 0, 1 and −2; the seed lies on t = 0
EQUAL_U = SurfaceParams(1, 0, 1, 0, 2, 0, -2, 1, 1)


def test_sweep_divides_the_double_root_on_every_fiber_of_equal_u(monkeypatch):
    # the tangent plane meets each fiber in a line that depends on t only
    # through u = f(t): on the fibers 1 and −2 it is the line tangent at the
    # seed on t = 0, so x0 = −1 is divided out there too, the seed is a swept
    # point of both, and int_roots runs on the other 4 fibers of t-height 2
    S = Surface(EQUAL_U)
    seed = WPoint.parse("[-1:1:0:1]")
    assert smoothness_check(S) == "smooth"
    assert check_hypotheses(S, seed) == HypothesisReport(True, True, True, True, True)
    E, Q = S.fiber_point(seed)
    assert [S.f.value_ints(t, 1)[0] for t in (0, 1, -2)] == [0, 0, 0]
    int_roots, calls = poly.int_roots, []
    monkeypatch.setattr(poly, "int_roots", lambda cs: calls.append(cs) or int_roots(cs))
    found = cp_sweep(S, E, Q, 2)
    assert len(calls) == 4
    assert [(Es.t, Qs.x, Qs.y) for Es, Qs in found] == [
        ((0, 1), (17, 4), (71, 8)),
        ((1, 1), (-1, 1), (1, 1)),
        ((1, 1), (17, 4), (71, 8)),
        ((-1, 1), (1, 1), (3, 1)),
        ((-2, 1), (-1, 1), (1, 1)),
        ((-2, 1), (17, 4), (71, 8)),
    ]
    # the division on the fiber t = 1, the second of multiplicity 2, is
    # checked as exactly as the one on the seed's own fiber
    wrong_known_root(monkeypatch, 2, nth=2)
    with pytest.raises(InvariantError, match="does not divide"):
        cp_sweep(S, E, Q, 2)


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
        with_false_root(monkeypatch, worked_surface, maker)
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
    assert tangent == [tangent_point(S, E, Q)]


def test_generate_worked(worked_surface, worked_seed):
    rep = generate(
        worked_surface,
        worked_seed,
        GenerationConfig(t_height_bound=10, multiple_bound=10, depth=1),
    )
    assert rep.to_json(worked_surface, worked_seed)["all_verified"] is True
    assert len(rep.points) >= 11
    assert rep.fibers[-1, 1] >= 11
    assert any(
        r.point == point(Fraction(17, 4), Fraction(71, 8)) for r in rep.points
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
    assert any(r.provenance == "hop" and r.t == (-1, 1) for r in rep.points)
    assert rep.to_json(worked_surface_2, WPoint.parse("[1:2:1:1]"))["all_verified"] is True


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
    rep = generate(worked_surface, worked_seed, replaced(cfg, max_points=max_points))
    assert len(rep.points) <= max_points
    assert rep.points == full.points[:max_points]
    assert rep.fibers == {r.t: sum(q.t == r.t for q in rep.points) for r in rep.points}
    assert rep.truncated and rep.to_json(worked_surface, worked_seed)["all_verified"] is True


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


@pytest.mark.parametrize("depth", [0, 1])
def test_generate_stops_at_a_kept_seed_when_max_points_is_one(worked_surface, worked_seed,
                                                              monkeypatch, depth):
    # the seed is the max_points-th point, so nothing is expanded; the run is
    # truncated only when the depth asked for an expansion
    sweeps = []
    monkeypatch.setattr(engine, "cp_sweep", lambda *args: sweeps.append(args) or [])
    rep = generate(worked_surface, worked_seed, GenerationConfig(depth=depth, max_points=1))
    assert [r.provenance for r in rep.points] == ["seed"]
    assert rep.truncated is (depth > 0)
    assert sweeps == []


@pytest.mark.parametrize("params, seed, t_height, new_fibers", [
    # the worked seed: one swept point on each of two new fibers
    ((0, 0, 1, 2, 3, 0, 0, 0, 1), "[-1:1:-1:1]", 40, [Fraction(7, 4), Fraction(-4, 21)]),
    # two swept points on the new fiber t = −1, then a hop to t = 2
    ((0, 0, 1, -1, 0, -1, 2, 1, -1), "[-1:-1:0:1]", 1, [-1, -1, 2]),
], ids=["worked", "two-on-one-fiber"])
def test_generate_expands_the_points_of_new_fibers(monkeypatch, params, seed, t_height,
                                                   new_fibers):
    # the second level expands, in order, exactly the first level's points
    # whose fiber had no point when the first level began: every point off
    # the seed's fiber, each of those that share a new fiber included
    S, P = Surface(SurfaceParams(*params)), WPoint.parse(seed)
    E0, Q0 = S.fiber_point(P)
    cfg = GenerationConfig(t_height_bound=t_height, multiple_bound=2, depth=1)
    level_1 = generate(S, P, cfg)
    new = [(r.t, r.point) for r in level_1.points if r.t != E0.t]
    assert [frac(t) for t, _ in new] == new_fibers
    expanded = []
    candidates = engine._candidates

    def recording(S, E, Q, *rest):
        expanded.append((E.t, Q))
        return candidates(S, E, Q, *rest)

    monkeypatch.setattr(engine, "_candidates", recording)
    level_2 = generate(S, P, replaced(cfg, depth=2))
    assert expanded == [(E0.t, Q0)] + new
    assert level_2.points[:len(level_1.points)] == level_1.points
    # the second level keeps points on known fibers only, so a third level
    # has nothing to expand
    assert set(level_2.fibers) == set(level_1.fibers)
    expanded.clear()
    assert generate(S, P, replaced(cfg, depth=3)).points == level_2.points
    assert expanded == [(E0.t, Q0)] + new


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
    ("smooth fiber", point(Fraction(0), Fraction(1))),
    ("smooth fiber", elliptic.O),
    ("singular fiber", point(Fraction(1), Fraction(2))),
    ("singular fiber", elliptic.O),
])
def test_fiber_hypotheses_refuse_a_point_off_its_fiber(worked_surface, cause, point):
    # the fiber t = 1 of the singular-fiber seed's surface is y² = x³
    if cause == "smooth fiber":
        S, t = worked_surface, -1
    else:
        S, t = Surface(SurfaceParams(*BAD_SEEDS["singular-fiber"][0])), 1
    E = fiber(S, t)
    assert E.is_singular() == (cause == "singular fiber")
    with pytest.raises(ValueError) as err:
        engine.check_fiber_hypotheses(S, E, point)
    # O is refused before the curve check, an affine point by it
    assert type(err.value) is (ValueError if point.is_infinity else elliptic.OffCurveError)
    assert str(err.value) == f"{point} is not an affine point of the fiber t={t}"


@pytest.mark.parametrize("k", range(2, 14))
def test_emit_keeps_a_point_at_the_bit_cap(worked_surface, worked_seed, k):
    # [k]P of exactly bit_cap bits is kept; with the cap one bit lower it is
    # dropped and recorded, and the multiples stop there.  [13]P comes from
    # the checked add past the walk.
    E, P = worked_surface.fiber_point(worked_seed)
    walk = elliptic.multiples(E, P, 14)
    bits = [max(bit_size(frac(E.t)), *map(bit_size, xy(R))) for R in walk]
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
    assert ((0, 1), point(1, 2)) in pts
    assert ((0, 1), point(1, -2)) in pts
    assert ((-1, 1), point(-1, 1)) in pts
    assert len({t for t, _ in pts}) >= 2


def test_oracle_second_surface(worked_surface_2):
    pts = brute_force_oracle(worked_surface_2, 5, 1, 1, 1)
    for t in ((1, 1), (-1, 1)):
        assert (t, point(1, 2)) in pts


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2), st.integers(1, 2), st.integers(0, 1),
       st.integers(1, 2))
def test_oracle_matches_fraction_cells(seed, dxn, dxd, dtn, dtd):
    # a box around a planted point, with denominator bounds above 1
    S, P = surface_through(random.Random(seed), height=3)
    t0, x0, y0 = affine(P)
    box = (abs(x0.numerator) + dxn, max(x0.denominator, 2) + dxd - 1,
           abs(t0.numerator) + dtn, max(t0.denominator, 2) + dtd - 1)
    found = brute_force_oracle(S, *box)
    assert found == fraction_oracle(S, *box)
    t0 = pair(t0)
    assert (t0, point(x0, abs(y0))) in found and (t0, point(x0, -abs(y0))) in found


def test_oracle_matches_fraction_cells_examples(worked_surface, worked_surface_2):
    # y² = x³ + t⁶ − 1: A ≡ 0, singular fibers at t = ±1 with y = 0 at x = 0,
    # and (−3, ±6) on t = 2, (1, ±1/8) on t = 1/2
    two_torsion = Surface(SurfaceParams(0, 0, 1, 0, -1, 0, 0, 0, 1))
    # parameters with denominators, so A(t) and B(t) have different ones
    with_dens = Surface(SurfaceParams(Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), 0,
                                      Fraction(5, 6), Fraction(1, 2), 0, -1, 1))
    for S in (worked_surface, worked_surface_2, two_torsion, with_dens):
        for box in ((0, 1, 0, 1), (5, 1, 1, 1), (4, 3, 2, 3), (9, 4, 1, 2), (3, 2, 2, 2)):
            assert brute_force_oracle(S, *box) == fraction_oracle(S, *box)
    found = brute_force_oracle(two_torsion, 2, 2, 1, 2)
    assert found.count(((1, 1), point(0, 0))) == 1
    # what the boxes cover
    found = brute_force_oracle(two_torsion, 3, 2, 2, 2)
    assert two_torsion.A_t.is_zero()
    assert any(fiber(two_torsion, t).is_singular() for t in box_rationals(2, 2))
    assert any(Q.y == (0, 1) for _, Q in found)
    assert any(Q.x[0] < 0 for _, Q in found)
    assert any(t[1] == 2 for t, _ in found)


def counted(fn):
    """fn wrapped to record each call's arguments, and the list they go to."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper, calls


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 5), st.integers(1, 3), st.integers(0, 3),
       st.integers(1, 3))
def test_oracle_tests_each_cell_once(seed, x_num, x_den, t_num, t_den):
    # perfbench counts the oracle's cells as its is_square spans
    S = Surface(random_params(random.Random(seed), height=4))
    cells = len(list(box_rationals(t_num, t_den))) * len(list(box_rationals(x_num, x_den)))
    wrapper, calls = counted(is_square)
    with mock.patch.object(engine, "is_square", wrapper):
        brute_force_oracle(S, x_num, x_den, t_num, t_den)
    assert len(calls) == cells


def test_census_row_searches_the_box_once_per_smooth_row(worked_surface, singular_fixture):
    rng = random.Random(43)
    surfaces = [worked_surface, singular_fixture, Surface(SurfaceParams(0, 0, 0, 0, 0, 0, 0, 0, 1))]
    surfaces += [Surface(random_params(rng, height=3)) for _ in range(12)]
    kinds = set()
    for S in surfaces:
        wrapper, calls = counted(engine.brute_force_oracle)
        with mock.patch.object(engine, "brute_force_oracle", wrapper):
            row = cli.census_row(S, (5, 1, 2, 2))
        assert len(calls) == (row["smooth"] == "smooth")
        kinds.add(row["smooth"])
    assert kinds == {"smooth", "singular", "degenerate"}


def test_oracle_builds_no_fiber_curve(monkeypatch, worked_surface):
    # each cell is an integer test; A(t) and B(t) are read as integers
    expected = fraction_oracle(worked_surface, 5, 2, 2, 2)

    def refuse(*args):
        raise AssertionError("the oracle built a FiberCurve")

    monkeypatch.setattr(Surface, "fiber_at", refuse)
    monkeypatch.setattr(engine, "FiberCurve", refuse)
    assert brute_force_oracle(worked_surface, 5, 2, 2, 2) == expected


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
    reference = box_rationals_by_set(num_bound, den_bound)
    assert list(box_rationals(num_bound, den_bound)) == reference
    assert [Fraction(p, q) for p, q in _box_pairs(num_bound, den_bound)] == reference


def on_surface_by_params(S: Surface, t, Q: ECPoint) -> bool:
    """y² = x³ + (a·u + b)·x + c·u² + d·u + e with u = f(t), in Fraction,
    for the Pair t."""
    p, t, (x, y) = S.params, frac(t), xy(Q)
    u = p.f0 + t * (p.f1 + t * (p.f2 + t * p.f3))
    return y ** 2 == x ** 3 + (p.a * u + p.b) * x + (p.c * u + p.d) * u + p.e


def test_root_finding_tail_on_worked_surface(worked_surface, worked_seed):
    # the tangent sweep at [4]P, whose fiber-line cubics have large constant
    # and leading terms, and generate at depth 2, t-height 20: each took
    # about a minute or more with a divisor-pair root finder
    S = worked_surface
    E, Q = S.fiber_point(worked_seed)
    P4 = elliptic.multiples(E, Q, 4)[3]
    with time_limit(20):
        swept = cp_sweep(S, E, P4, 10)
        rep = generate(S, worked_seed, GenerationConfig(t_height_bound=20, multiple_bound=10, depth=2))
    assert swept and len(rep.points) == 22
    for Es, Qs in swept:
        assert on_surface_by_params(S, Es.t, Qs)
    for r in rep.points:
        assert on_surface_by_params(S, r.t, r.point)


def test_sweep_near_the_digit_limit_ends_at_once():
    # from [1:1:1:W], W = 2·10¹⁴³³, the three fiber-line cubics have no root
    # mod 11, 7 and 13: int_roots proves that before a Newton lift on their
    # 4,300-digit coefficients, which took over 13 s of CPU for this sweep
    W = 2 * 10 ** 1433
    S = Surface(SurfaceParams(0, 0, 1, 0, 0, 1, 0, 0, -W ** 3))
    with time_limit(2):
        assert cp_sweep(S, *S.fiber_point(WPoint.parse(f"[1:1:1:{W}]")), 1) == []


def test_sweep_near_the_digit_limit_at_t_height_3():
    # from the same seed, some fiber-line cubics have a root mod every sieve
    # prime, so their 4,300-digit roots are Newton-lifted: with h′(r)⁻¹
    # carried along each root, not inverted anew at each squaring (about
    # 0.27 s a time), the sweep ends in well under 6 s, against 15 s before
    W = 2 * 10 ** 1433
    S = Surface(SurfaceParams(0, 0, 1, 0, 0, 1, 0, 0, -W ** 3))
    with time_limit(6):
        assert cp_sweep(S, *S.fiber_point(WPoint.parse(f"[1:1:1:{W}]")), 3) == []


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
        in_box = abs(t[0]) <= 8 and t[1] <= 2 and abs(x[0]) <= 8 and x[1] <= 4
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
