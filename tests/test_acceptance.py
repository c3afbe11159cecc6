"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Every check is exact (Fraction arithmetic throughout); there are no numeric
tolerances anywhere in this file.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    affine,
    curve,
    derivative,
    fiber_line,
    fiber_line_cubic,
    frac,
    mul,
    normal_form_by_sympy,
    plane_at,
    point,
    random_params,
    random_smooth_surface,
    surface_through,
    transversality_check,
    xy,
)
from dp1.cubic import (
    SingularImageError,
    classify_singularities,
    tangent_point,
    verify_normal_form,
)
from dp1.elliptic import O, add, neg, torsion_status
from dp1.engine import GenerationConfig, brute_force_oracle, check_hypotheses, generate
from dp1.rational import format_rational
from dp1.surface import (
    DegenerateSurfaceError,
    Surface,
    SurfaceParams,
    WPoint,
    singular_fiber_report,
    smoothness_cross_check,
)

WORKED = Surface(SurfaceParams(0, 0, 1, 2, 3, 0, 0, 0, 1))
WORKED_2 = Surface(SurfaceParams(0, 0, 1, 0, 2, 0, 0, 0, 1))
SINGULAR = Surface(SurfaceParams(0, 0, 1, 2, 1, 0, 0, 0, 1))
SEED = WPoint.parse("[-1:1:-1:1]")


@contextmanager
def verdict_line(capsys, index, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[criterion {index}] {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_singularity_classification(capsys):
    with verdict_line(capsys, 1, "singularity classification"):
        rep = classify_singularities(WORKED)
        assert rep["type"] == "2xA2"
        # the locus is [0:1:1:0] and [0:-1:1:0], where the gradient of F_W vanishes
        assert rep["locus"] == "[0:±1:1:0]"
        for X in ((0, 1, 1, 0), (0, -1, 1, 0)):
            with pytest.raises(SingularImageError):
                plane_at(WORKED, X)
        rep = classify_singularities(Surface(SurfaceParams(1, 0, 0, 1, 1, 0, 0, 0, 1)))
        assert rep["type"] == "A5"
        rep = classify_singularities(Surface(SurfaceParams(0, 0, 0, 1, 1, 0, 0, 0, 1)))
        assert rep["type"] == "E6"

        rng = random.Random(101)
        regimes = {"2xA2": 0, "A5": 0, "E6": 0}
        while min(regimes.values()) < 20:
            if regimes["2xA2"] < 20:
                # generic regime: c ≠ 0, globally smooth
                S = random_smooth_surface(rng, height=3)
            elif regimes["A5"] < 20:
                # c = 0 forces a singular point over t = ∞, so "smooth"
                # means smooth on every finite fiber here
                S = random_smooth_surface(rng, height=3, c=0, finite_only=True)
                while S.params.a == 0:
                    S = random_smooth_surface(rng, height=3, c=0, finite_only=True)
            else:
                S = random_smooth_surface(
                    rng, height=3, a=0, c=0, d_nonzero=True, finite_only=True
                )
            rep = classify_singularities(S)
            assert rep["identity_verified"], S.params
            assert verify_normal_form(S), S.params
            # the normal-form expansion itself, over Q(√c) or Q(√d)
            assert normal_form_by_sympy(S.params), S.params
            regimes[rep["type"]] += 1
        assert all(n >= 20 for n in regimes.values())


def test_criterion_2_smoothness_cross_validation(capsys):
    with verdict_line(capsys, 2, "smoothness cross-validation"):
        primes = (7, 11, 13, 17, 19)
        for S in (WORKED, WORKED_2):
            out = smoothness_cross_check(S, primes)
            assert out["symbolic"] == "smooth"
        out = smoothness_cross_check(SINGULAR, primes)
        assert out["symbolic"] == "singular"

        rng = random.Random(103)
        checked = 0
        while checked < 50:
            S = Surface(random_params(rng, height=5))
            try:
                smoothness_cross_check(S, primes)  # raises on any disagreement
            except DegenerateSurfaceError:
                continue
            checked += 1
        assert checked == 50


def _random_curve_with_point(rng):
    while True:
        x0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        y0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        A = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        B = y0 * y0 - x0 ** 3 - A * x0
        E = curve(0, A, B)
        if not E.is_singular():
            return E, point(x0, y0)


def test_criterion_3_group_law(capsys):
    with verdict_line(capsys, 3, "group law and torsion"):
        rng = random.Random(107)
        for _ in range(100):
            E, P = _random_curve_with_point(rng)
            Q = mul(E, 2, P)
            R = mul(E, 5, P)
            assert add(E, add(E, P, Q), R) == add(E, P, add(E, Q, R))
        for _ in range(5):
            E, P = _random_curve_with_point(rng)
            for m in range(0, 21, 4):
                for n in range(1, 21, 5):
                    assert mul(E, m + n, P) == add(E, mul(E, m, P), mul(E, n, P))
        E4 = curve(0, 0, 4)
        E2 = curve(-1, 0, 2)
        assert torsion_status(E4, point(0, 2)) == 3
        assert torsion_status(E2, point(-1, 1)) is None
        assert torsion_status(E4, O) == 1


def _check_tangent_identity(S, P):
    t0, x0, y0 = affine(P)
    E, P0 = S.fiber_point(P)
    t, Q = tangent_point(S, E, P0)
    assert frac(t) == t0
    assert Q == neg(mul(E, 2, point(x0, y0)))
    line = fiber_line(S, E, P0, t0)
    alpha, beta, c0 = line
    # the restricted line vanishes at Q
    x, y = xy(Q)
    assert alpha * x + beta * y + c0 == 0
    # and the fiber restriction has a double root at x_P
    cub = fiber_line_cubic(E, line)
    assert cub(x0) == 0 and derivative(cub)(x0) == 0
    return Q


def test_criterion_4_tangent_point_identity(capsys):
    with verdict_line(capsys, 4, "tangent-point identity"):
        Q = _check_tangent_identity(WORKED, SEED)
        assert xy(Q) == (Fraction(17, 4), Fraction(71, 8))

        rng = random.Random(109)
        checked = 0
        while checked < 20:
            S, P = surface_through(rng)
            E, _ = S.fiber_point(P)
            if E.is_singular():
                continue
            _check_tangent_identity(S, P)
            checked += 1


def test_criterion_5_hypothesis_checker(capsys):
    with verdict_line(capsys, 5, "hypothesis checker"):
        rep = check_hypotheses(WORKED, SEED)
        assert (rep.smooth, rep.w0_nonzero, rep.slope_condition,
                rep.separable, rep.non_torsion) == (True,) * 5

        rep = check_hypotheses(WORKED, WPoint.parse("[1:2:0:1]"))
        failed = {
            name
            for name in ("smooth", "w0_nonzero", "slope_condition", "separable", "non_torsion")
            if not getattr(rep, name)
        }
        assert failed == {"separable", "slope_condition"}

        rep = check_hypotheses(WORKED_2, WPoint.parse("[1:2:1:1]"))
        assert rep.overall


def test_criterion_6_engine_correctness(capsys):
    with verdict_line(capsys, 6, "engine correctness"):
        rep = generate(
            WORKED, SEED,
            GenerationConfig(t_height_bound=10, multiple_bound=10, depth=1),
        )
        seen = {(frac(r.t), *xy(r.point)) for r in rep.points}
        assert len(seen) == len(rep.points) >= 11
        assert any(
            r.point == point(Fraction(17, 4), Fraction(71, 8)) for r in rep.points
        )
        lifted = [WPoint.from_affine(r.t, r.point.x, r.point.y) for r in rep.points]
        assert len(set(lifted)) == len(lifted)
        assert all(WORKED.membership(R) for R in lifted)

        rep2 = generate(
            WORKED_2, WPoint.parse("[1:2:1:1]"),
            GenerationConfig(t_height_bound=5, multiple_bound=5, depth=1),
        )
        assert any(r.provenance == "hop" and frac(r.t) == -1 for r in rep2.points)

        oracle = {
            (frac(t), *xy(q)) for t, q in brute_force_oracle(WORKED, 8, 4, 2, 2)
        }
        assert len({t for t, _, _ in oracle}) >= 2
        assert (Fraction(0), Fraction(1), Fraction(2)) in oracle
        assert (Fraction(-1), Fraction(-1), Fraction(1)) in oracle
        for t, x, y in seen:
            in_box = (
                abs(t.numerator) <= 8 and t.denominator <= 2
                and abs(x.numerator) <= 8 and x.denominator <= 4
            )
            if in_box:
                assert (t, x, y) in oracle


def test_criterion_7_discriminant_budget(capsys):
    with verdict_line(capsys, 7, "discriminant 12-budget"):
        rng = random.Random(113)
        surfaces = [WORKED, WORKED_2] + [
            random_smooth_surface(rng, height=3) for _ in range(15)
        ]
        for S in surfaces:
            p = S.params
            report = singular_fiber_report(S)
            assert report["z12_coefficient"] == format_rational(-432 * p.c ** 2 * p.f3 ** 4)
            assert report["total_multiplicity"] == 12


def test_criterion_8_transversality(capsys):
    with verdict_line(capsys, 8, "transversality counts"):
        assert transversality_check(WORKED, SEED, SEED) < 3
        rep = generate(
            WORKED, SEED,
            GenerationConfig(t_height_bound=10, multiple_bound=10, depth=1),
        )
        lifted = [WPoint.from_affine(r.t, r.point.x, r.point.y) for r in rep.points]
        assert len(set(lifted)) == len(lifted)
        assert all(WORKED.membership(R) for R in lifted)
        counts = []
        for R in lifted[:25]:
            if R == SEED:
                continue
            counts.append(transversality_check(WORKED, R, SEED))
        assert 3 in counts
