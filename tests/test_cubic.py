import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RefPoly,
    X_SYMBOLS,
    cubic_gradient,
    cubic_value,
    cubic_value_and_gradient_sympy,
    fiber_line,
    fiber_line_cubic,
    affine,
    curve,
    mul,
    normal_form_by_sympy,
    normal_form_residue,
    random_smooth_surface,
    pair,
    plane_at,
    point,
    surface_through,
    theta,
    transversality_check,
    value,
)
from dp1 import elliptic
from dp1.cli import main
from dp1.cubic import (
    SingularImageError,
    TwoTorsionSeedError,
    classify_singularities,
    tangent_plane,
    tangent_point,
    verify_normal_form,
)
from dp1.rational import InvariantError
from dp1.surface import Surface, SurfaceParams, WPoint, smoothness_check


def test_theta_base_point(worked_surface):
    assert theta(worked_surface, WPoint(1, 1, 0, 0)) == (0, 1, 0, 0)


def test_theta_worked_seed(worked_surface, worked_seed):
    assert theta(worked_surface, worked_seed) == (-1, 1, -1, 1)


def test_theta_at_w_zero(worked_surface):
    # [x:y:z:0] maps to [0 : y : f3·z³ : 0]
    assert theta(worked_surface, WPoint(2, 3, 1, 0)) == (0, 3, 1, 0)
    assert theta(worked_surface, WPoint(0, 1, 1, 0)) == (0, 1, 1, 0)
    S = Surface(SurfaceParams(0, 0, 2, 0, 2, 0, 0, 0, 2))  # c·f3² = 8
    assert theta(S, WPoint(1, 3, 1, 0)) == (0, 3, 2, 0)
    assert theta(S, WPoint(2, 4, 1, 0)) == (0, 2, 1, 0)


def test_theta_second_surface(worked_surface_2):
    assert theta(worked_surface_2, WPoint(1, 2, 1, 1)) == (1, 2, 1, 1)


def test_theta_rejects_off_surface(worked_surface):
    with pytest.raises(ValueError):
        theta(worked_surface, WPoint(1, 1, 1, 1))


def test_theta_lands_on_cubic_random():
    rng = random.Random(3)
    for _ in range(15):
        S, P = surface_through(rng)
        pt = theta(S, P)  # theta itself asserts F_W = 0
        assert any(pt)


def test_tangent_plane_worked(worked_surface, worked_seed):
    plane = plane_at(worked_surface, theta(worked_surface, worked_seed))
    assert plane == (3, -2, 0, 5)
    assert 3 * (-1) - 2 * 1 + 0 + 5 * 1 == 0


def test_tangent_plane_at_base_point(worked_surface):
    # the gradient at [0:1:0:0] has last component −1 (scaled): nonzero
    plane = plane_at(worked_surface, theta(worked_surface, WPoint(1, 1, 0, 0)))
    assert plane[3] != 0


def test_euler_relation_random():
    rng = random.Random(5)
    for _ in range(10):
        S, P = surface_through(rng)
        pt = [Fraction(v) for v in theta(S, P)]
        plane = plane_at(S, pt)
        assert sum(c * v for c, v in zip(plane, pt)) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2 ** 32),
    st.fractions(-50, 50, max_denominator=20).filter(lambda v: v != 0),
)
def test_affine_tangent_plane_matches_canonical_theta(seed, lam):
    # the plane at (x, y, f(t), 1) is the plane at the canonical θ(P), and
    # does not depend on the representative of the point
    S, P = surface_through(random.Random(seed))
    t, x, y = affine(P)
    X = (x, y, value(S.f, t), Fraction(1))
    plane = plane_at(S, X)
    assert plane == plane_at(S, theta(S, WPoint.from_affine(*P.affine())))
    assert plane == plane_at(S, [lam * v for v in X])


# differential tests: the written-out F_W and ∇F_W against sympy's F_W and
# its derivatives, and fiber_line_cubic against its RefPoly expression
wide_rat = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6))
nonzero_rat = wide_rat.filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(wide_rat, min_size=5, max_size=5), st.lists(wide_rat, min_size=4, max_size=4),
       st.booleans())
def test_closed_form_cubic_matches_multipoly_off_w(abcde, X, at_infinity):
    S = Surface(SurfaceParams(*abcde, 0, 0, 0, 1))
    if at_infinity:
        X[3] = Fraction(0)
    assert (cubic_value(S, X), cubic_gradient(S, X)) == cubic_value_and_gradient_sympy(S.params, X)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), nonzero_rat, st.booleans())
def test_closed_form_cubic_matches_multipoly_on_w(seed, lam, at_infinity):
    # θ(P) of a random surface point, or a point [0 : X1 : X2 : 0] of W,
    # scaled by λ
    rng = random.Random(seed)
    S, P = surface_through(rng)
    if at_infinity:
        X = [Fraction(v) for v in (0, rng.randint(-9, 9), rng.randint(-9, 9), 0)]
    else:
        X = [Fraction(v) for v in theta(S, P)]
    X = [lam * v for v in X]
    value, grad = cubic_value_and_gradient_sympy(S.params, X)
    assert value == cubic_value(S, X) == 0
    assert grad == cubic_gradient(S, X)


@settings(max_examples=150, deadline=None)
@given(wide_rat, wide_rat, wide_rat, nonzero_rat, wide_rat)
def test_fiber_line_cubic_matches_unipoly_expression(A, B, a, b, c0):
    E = curve(0, A, B)
    expected = RefPoly((B, A, 0, 1)).scale(b * b) - RefPoly((c0, a)) ** 2
    cub = fiber_line_cubic(E, (a, b, c0))
    assert cub == expected and cub.degree() == 3


def test_tangent_plane_rejects_point_off_cubic(worked_surface):
    with pytest.raises(ValueError):
        plane_at(worked_surface, (1, 1, 1, 1))


def test_pullback_and_restriction(worked_surface, worked_seed, worked_section):
    S, E, P = worked_section
    assert fiber_line(S, E, P, Fraction(-1)) == (3, -2, 5)
    assert fiber_line(S, E, P, Fraction(0)) == (3, -2, 5)
    pt = theta(worked_surface, worked_seed)
    plane = tangent_plane(S, (P.x, P.y, S.f.value_ints(*E.t), (1, 1)))
    assert sum(c * v for c, v in zip(plane, pt)) == 0


def test_restricted_cubic_worked(worked_surface, worked_seed):
    E = worked_surface.fiber_at((-1, 1))
    cub = fiber_line_cubic(E, (Fraction(3), Fraction(-2), Fraction(5)))
    assert cub == RefPoly((-17, -30, -9, 4))


def test_tangent_point_worked(worked_section):
    t, Q = tangent_point(*worked_section)
    assert t == (-1, 1)
    assert (Q.x, Q.y) == ((17, 4), (71, 8))


def test_tangent_point_is_minus_double(worked_surface, worked_section):
    t, Q = tangent_point(*worked_section)
    E = worked_surface.fiber_at(t)
    assert Q == elliptic.neg(mul(E, 2, point(-1, 1)))


def test_tangent_point_raises_when_routes_disagree(worked_section, monkeypatch):
    monkeypatch.setattr(elliptic, "multiples", lambda E, P, n: [P] * n)
    with pytest.raises(InvariantError, match="routes disagree"):
        tangent_point(*worked_section)


def test_tangent_point_makes_no_add_call(worked_section, monkeypatch):
    # the group-law route is one step of the walk, not a checked add
    calls = []
    real_add = elliptic.add

    def counting_add(E, P, Q):
        calls.append((P, Q))
        return real_add(E, P, Q)

    monkeypatch.setattr(elliptic, "add", counting_add)
    tangent_point(*worked_section)
    assert calls == []


ROUTES_DISAGREE = """
from dp1 import cubic, elliptic
from dp1.rational import InvariantError
from dp1.surface import Surface, SurfaceParams, WPoint
S = Surface(SurfaceParams(0, 0, 1, 2, 3, 0, 0, 0, 1))
E, P = S.fiber_point(WPoint.parse("[-1:1:-1:1]"))
elliptic.multiples = lambda E, P, n: [P] * n
try:
    cubic.tangent_point(S, E, P)
except InvariantError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_tangent_point_raises_when_routes_disagree_under_O():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", ROUTES_DISAGREE],
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert done.returncode == 0


def test_tangent_point_rejects_two_torsion():
    # y0 = 0 seed: solve for a surface containing (x0, 0) on fiber 0
    S = Surface(SurfaceParams(0, 0, 1, 2, -8, 0, 0, 0, 1))  # B(0) = e = -8... x=2,y=0
    P = WPoint.from_affine((0, 1), (2, 1), (0, 1))
    assert S.membership(P)
    with pytest.raises(TwoTorsionSeedError):
        tangent_point(S, *S.fiber_point(P))


def test_tangent_point_random_pairs():
    rng = random.Random(17)
    checked = 0
    while checked < 10:
        S, P = surface_through(rng)
        E, P0 = S.fiber_point(P)
        if E.is_singular() or P0.y[0] == 0:
            continue
        t, Q = tangent_point(S, *S.fiber_point(P))  # internal cross-checks assert the identity
        assert elliptic.on_curve(E, Q)
        checked += 1


def test_classification_regimes(worked_surface):
    rep = classify_singularities(worked_surface)
    assert rep["type"] == "2xA2"
    # the locus is [0:1:1:0] and [0:-1:1:0], where the gradient of F_W vanishes
    assert rep["locus"] == "[0:±1:1:0]"
    for X in ((0, 1, 1, 0), (0, -1, 1, 0)):
        with pytest.raises(SingularImageError):
            plane_at(worked_surface, X)
    assert rep["identity_verified"]

    rep = classify_singularities(Surface(SurfaceParams(1, 1, 0, 1, 1, 0, 0, 0, 1)))
    assert rep["type"] == "A5"
    assert rep["identity_verified"]

    rep = classify_singularities(Surface(SurfaceParams(0, 1, 0, 1, 1, 0, 0, 0, 1)))
    assert rep["type"] == "E6"
    assert rep["identity_verified"]


def test_classification_json_shape(worked_surface):
    out = classify_singularities(worked_surface)
    assert list(out) == ["locus", "sqrt_c", "type", "identity_verified"]
    assert out["sqrt_c"] == "rational"


def test_classified_locus_misses_a_singular_point_of_the_t_chart(tmp_path, capsys):
    # α = u + 1, β = −(u + 1)² and β′ all vanish at u = −1, so W is singular
    # at [0:0:−1:1] as well as on the locus the report names, and S is
    # singular there: dp1 classify refuses the surface
    params = SurfaceParams(1, 1, -1, -2, -1, 0, 0, 0, 1)
    S = Surface(params)
    assert classify_singularities(S) == {
        "locus": "[0:±√(-1):1:0]", "sqrt_c": "irrational", "type": "2xA2",
        "identity_verified": True,
    }
    with pytest.raises(SingularImageError, match=r"\[0:0:-1:1\] is a singular point of W"):
        plane_at(S, (0, 0, -1, 1))
    assert smoothness_check(S) == "singular"
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(params.to_json()))
    assert main(["classify", "--surface", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "surface is not smooth"


def test_normal_form_irrational_sqrt():
    for params in ((0, 0, 2, 1, 1), (3, 1, 5, 1, 2), (0, 1, 0, 3, 1)):
        S = Surface(SurfaceParams(*params, 0, 0, 0, 1))
        assert verify_normal_form(S)
        assert normal_form_by_sympy(S.params)


def test_normal_form_random_regimes():
    rng = random.Random(19)
    for a, c, d_nonzero in ((None, None, False), (0, None, False), (None, 0, False), (0, 0, True)):
        for _ in range(4):
            S = random_smooth_surface(
                rng, height=3, a=a, c=c, d_nonzero=d_nonzero, finite_only=(c == 0)
            )
            assert verify_normal_form(S), S.params
            assert normal_form_by_sympy(S.params), S.params


def test_normal_form_identities_symbolic():
    # the proof behind verify_normal_form: for symbolic parameters, with
    # c = s² (d = s² for E₆), G is free of X3 and the corank residues are
    # these, nonzero exactly when c ≠ 0, a ≠ 0 or d ≠ 0 in the regime
    a, b, d, e, s = sp.symbols("a b d e s")
    X0, X1, X2, X3 = X_SYMBOLS

    def degree_in_x3(G):
        return sp.Poly(G, X3).degree()

    G = normal_form_residue("2xA2", a, b, s ** 2, d, e, s)
    assert degree_in_x3(G) == 0
    assert sp.cancel(G.subs({X0: 0, X1: 0, X2: 1}) + 8 * s ** 3 / a ** 3) == 0

    G = normal_form_residue("2xA2, a = 0", 0, b, s ** 2, d, e, s)
    assert degree_in_x3(G) == 0
    assert sp.cancel(G.subs({X0: 0, X1: 0, X2: 1})) == 1

    G = normal_form_residue("A5", a, b, 0, d, e, s)
    assert degree_in_x3(G) == 0
    g1 = sp.Poly(G.subs({X0: 0, X2: 1}), X1)
    assert sp.cancel(g1.coeff_monomial(1)) == 0
    assert sp.cancel(g1.coeff_monomial(X1)) == -1
    assert sp.cancel(G.subs({X1: 0, X2: 1}) - X0 ** 3 / a ** 3) == 0

    G = normal_form_residue("E6", 0, b, 0, s ** 2, e, s)
    assert degree_in_x3(G) == 0
    assert sp.cancel(G.subs({X0: 0}) - X2 ** 3) == 0
    # with d = 0 no choice of s clears X3: the E₆ surface is then singular
    assert degree_in_x3(normal_form_residue("E6", 0, b, 0, 0, e, s)) == 1


small_rat = st.fractions(-3, 3, max_denominator=3)
nonzero_small_rat = small_rat.filter(bool)
# a square (rational root) or any rational (root mostly irrational or imaginary)
root_rational_or_not = st.one_of(nonzero_small_rat.map(lambda r: r * r), nonzero_small_rat)


@pytest.mark.parametrize(
    "zeros", list(itertools.product((False, True), repeat=3)),
    ids=lambda zeros: "-".join(v + "0" * z for v, z in zip("acd", zeros)),
)
@settings(max_examples=10, deadline=None)
@given(nonzero_small_rat, small_rat, root_rational_or_not, root_rational_or_not, small_rat)
def test_normal_form_matches_sympy_expansion(zeros, a, b, c, d, e):
    # every pattern of zeros among a, c, d, so every regime and E₆ with
    # d = 0; with c = 0 the surface is singular over t = ∞, and neither
    # check asks for smoothness
    a, c, d = (Fraction(0) if z else v for z, v in zip(zeros, (a, c, d)))
    params = SurfaceParams(a, b, c, d, e, 0, 0, 0, 1)
    assert verify_normal_form(Surface(params)) == normal_form_by_sympy(params)


def test_transversality_self_is_deficient(worked_surface, worked_seed):
    assert transversality_check(worked_surface, worked_seed, worked_seed) < 3


def test_transversality_rejects_off_surface(worked_surface, worked_seed):
    with pytest.raises(ValueError):
        transversality_check(worked_surface, WPoint(1, 1, 1, 1), worked_seed)


def test_transversality_generic_hits_three(worked_surface, worked_seed):
    from dp1 import engine

    rep = engine.generate(
        worked_surface, worked_seed, engine.GenerationConfig(depth=1)
    )
    counts = []
    for rec in rep.points[:25]:
        R = WPoint.from_affine(rec.t, rec.point.x, rec.point.y)
        if R == worked_seed:
            continue
        counts.append(transversality_check(worked_surface, R, worked_seed))
    assert 3 in counts


def test_transversality_degree_three_generic(worked_surface, worked_seed):
    # β ≠ 0 restriction eliminates to an exact cubic
    E = worked_surface.fiber_at((-1, 1))
    cub = fiber_line_cubic(E, (Fraction(3), Fraction(-2), Fraction(5)))
    assert cub.degree() == 3


# differential test: the integer tangent plane against the Fraction gradient
# divided by its content
def plane_by_fractions(S, X):
    grads = cubic_gradient(S, X)
    content = Fraction(math.gcd(*(g.numerator for g in grads)),
                       math.lcm(*(g.denominator for g in grads)))
    return tuple(g / content for g in grads)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32), nonzero_rat, st.sampled_from(["affine", "theta", "X3 = 0"]))
def test_tangent_plane_matches_fraction_gradient(seed, mu, where):
    # random rational surfaces, at a point of W in a representative scaled by
    # μ, negative μ included
    rng = random.Random(seed)
    S, P = surface_through(rng)
    if where == "affine":
        t, x, y = affine(P)
        X = [x, y, value(S.f, t), Fraction(1)]
    elif where == "theta":
        X = [Fraction(v) for v in theta(S, P)]
    else:
        X = [Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(0)]
    X = [mu * v for v in X]
    grads = cubic_gradient(S, X)
    if not any(grads):
        with pytest.raises(SingularImageError):
            plane_at(S, X)
        return
    plane = plane_at(S, X)
    assert plane == plane_by_fractions(S, X)
    assert all(type(v) is int for v in plane)
    assert plane == plane_at(S, [-v for v in X])
    # the coordinates need not be in lowest terms
    assert plane == tangent_plane(S, [(3 * n, 3 * d) for n, d in map(pair, X)])


def test_tangent_plane_refusals_keep_their_text():
    # c = 4: [0:±2:1:0] are the singular points of W; (1, 1, 1, 1) is off W
    S = Surface(SurfaceParams(0, 0, 4, 0, 1, 0, 0, 0, 1))
    with pytest.raises(SingularImageError, match=r"^\[0:-2:1:0\] is a singular point of W$"):
        plane_at(S, (0, -2, 1, 0))
    with pytest.raises(ValueError, match=r"^\[1:1/2:1:1\] is not on the cubic model W$"):
        plane_at(S, (1, Fraction(1, 2), 1, 1))
