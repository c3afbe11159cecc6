import json
import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import nextprime

from conftest import (
    RefPoly,
    affine,
    canonicalize_by_factoring,
    chart_polys_by_refpoly,
    compose,
    curve,
    derivative,
    discriminant_by_refpoly,
    f_poly,
    fiber,
    frac,
    from_fractions_by_factoring,
    point,
    poly_divmod,
    random_params,
    random_smooth_surface,
    replaced,
    s_chart,
    squarefree_factorization_by_fractions,
    surface_through,
    time_limit,
    value,
    xy,
)
from dp1 import poly, surface
from dp1.cli import main
from dp1.elliptic import multiples
from dp1.engine import GenerationConfig, check_hypotheses, generate
from dp1.poly import UniPoly, gcd
from dp1.rational import InvariantError, format_rational
from dp1.surface import (
    DegenerateSurfaceError,
    Surface,
    SurfaceParams,
    WPoint,
    modp_singular_scan,
    singular_fiber_report,
    singular_witnesses,
    smoothness_check,
    smoothness_cross_check,
    _chart_singular_witnesses,
    _critical_value_poly,
    _u_line_singular,
)


def test_params_require_cubic_f():
    with pytest.raises(ValueError):
        SurfaceParams(0, 0, 1, 2, 3, 0, 0, 0, 0)


def test_build_worked_forms(worked_surface):
    # A ≡ 0 and B(t) = t⁶ + 2t³ + 3
    assert worked_surface.A_t.is_zero()
    assert worked_surface.B_t == RefPoly((3, 0, 0, 2, 0, 0, 1))


def test_build_second_surface(worked_surface_2):
    assert worked_surface_2.B_t == RefPoly((2, 0, 0, 0, 0, 0, 1))


def test_dw_family_shape():
    # f = t³, a₄ = 0 gives B = c z⁶ + d z³w³ + e w⁶ in the chart
    S = Surface(SurfaceParams(0, 0, 5, -1, 7, 0, 0, 0, 1))
    assert S.B_t == RefPoly((7, 0, 0, -1, 0, 0, 5))


def test_membership_base_point_always(worked_surface, worked_surface_2):
    O = WPoint(1, 1, 0, 0)
    assert worked_surface.membership(O)
    assert worked_surface_2.membership(O)


def test_membership_worked_examples(worked_surface, worked_seed):
    assert worked_surface.membership(worked_seed)
    assert not worked_surface.membership(WPoint(1, 1, 1, 1))


def on_surface_by_forms(S: Surface, P: WPoint) -> bool:
    """Reference membership: y² = x³ + A(z,w)·x + B(z,w) with the degree-4
    and degree-6 forms read off the chart at t = z/w, or at s = w/z when
    w = 0."""
    x, y, z, w = (Fraction(v) for v in (P.x, P.y, P.z, P.w))
    if z == 0 and w == 0:
        return y * y == x ** 3
    if w != 0:
        A, B = value(S.A_t, z / w) * w ** 4, value(S.B_t, z / w) * w ** 6
    else:
        A_s, B_s = s_chart(S)
        A, B = A_s(w / z) * z ** 4, B_s(w / z) * z ** 6
    return y * y == x ** 3 + A * x + B


def rescaled(P: WPoint, lam: int) -> WPoint:
    """(λ²x, λ³y, λz, λw), left out of canonical form."""
    return WPoint(P.x * lam ** 2, P.y * lam ** 3, P.z * lam, P.w * lam)


def test_membership_rescaling_invariance(worked_surface, worked_seed):
    P = worked_seed
    for lam in (2, 3, -5):
        scaled = rescaled(P, lam)
        assert on_surface_by_forms(worked_surface, scaled)
        assert worked_surface.membership(scaled)
        assert WPoint.from_fractions(scaled.x, scaled.y, scaled.z, scaled.w) == P


small = st.integers(-4, 4)
nonzero = st.integers(-3, 3).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), nonzero, small, small, small, nonzero)
def test_membership_matches_weighted_forms(seed, lam, shift, x, y, z):
    S, P = surface_through(random.Random(seed))
    base = WPoint(lam ** 2, lam ** 3, 0, 0)  # z = w = 0: y² = x³
    assert S.membership(P) and S.membership(base)
    points = [
        P,
        rescaled(P, lam),
        WPoint(P.x + shift, P.y, P.z, P.w),
        WPoint(P.x, P.y + shift, P.z, P.w),
        base,
        WPoint(x, y, z, 0),
        rescaled(WPoint(x, y, z, 0), lam),
    ]
    if (x, y) != (0, 0):
        points.append(WPoint(x, y, 0, 0))
    for Q in points:
        assert S.membership(Q) == on_surface_by_forms(S, Q), Q
    # c solved so that [x:y:z:0] lies on the surface
    c = Fraction(y * y - x ** 3) / (S.params.f3 ** 2 * z ** 6)
    S0 = Surface(replaced(S.params, c=c))
    for Q in (WPoint(x, y, z, 0), rescaled(WPoint(x, y, z, 0), lam)):
        assert S0.membership(Q) and on_surface_by_forms(S0, Q), Q


def test_wpoint_parse_and_canonical():
    assert WPoint.parse("[4:8:2:2]") == WPoint(1, 1, 1, 1)
    assert WPoint.parse("[1:-1:0:0]") == WPoint(1, 1, 0, 0)
    with pytest.raises(ValueError):
        WPoint.from_fractions(0, 0, 0, 0)


# Primes far above the trial-division bound, whose powers sympy's factorint
# (the reference) still factors at once.
LARGE_PRIMES = [1_000_003, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1]
REFUSAL = "trial-division bound 1000"
OFF_FAMILY = "needs y^2 = x^3 != 0"


def canonical_or_refused(coords, expected: WPoint) -> None:
    """from_fractions(*coords) is expected, or refuses by naming the bound;
    a quadruple with z = w = 0 is refused only off y² = x³ ≠ 0, and says so."""
    x, y, z, w = coords
    try:
        got = WPoint.from_fractions(*coords)
    except ValueError as exc:
        if z or w:
            assert REFUSAL in str(exc)
        else:
            assert (x == 0 or y * y != x ** 3) and OFF_FAMILY in str(exc)
        return
    assert got == expected


rational_below_1e6 = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[rational_below_1e6] * 4).filter(any))
def test_lift_matches_factoring_on_rational_quadruples(coords):
    # numerators and denominators are below TRIAL_BOUND² = 10⁶, so trial
    # division and the cofactors below 10⁶ find every prime: the lift must
    # decide every case but z = w = 0, where only y² = x³ ≠ 0 is a point
    x, y, z, w = coords
    P = from_fractions_by_factoring(x, y, z, w)
    if z or w:
        assert WPoint.from_fractions(x, y, z, w) == P
    else:
        canonical_or_refused(coords, P)
    # the scaled integers can hold two unknown primes: from_fractions may
    # refuse them, but never answers wrongly
    canonical_or_refused(P, P)
    canonical_or_refused(rescaled(P, 6), P)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4))
def test_canonicalize_matches_factoring_on_integers(coords):
    # the weighted content divides gcd(z, w) below 10⁶, which has at most
    # one prime above the bound: always decided but z = w = 0
    x, y, z, w = coords
    if coords == (0, 0, 0, 0):
        return
    if z or w:
        assert WPoint.from_fractions(*coords) == canonicalize_by_factoring(*coords)
    else:
        canonical_or_refused(coords, canonicalize_by_factoring(*coords))


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-999, 999)] * 4), st.sampled_from(LARGE_PRIMES),
       st.booleans())
def test_lift_rescaled_by_large_prime(coords, lam, zero_w):
    # trial division finds every prime of the coordinates, so λ's primes
    # are the only unknown ones; w = 0 points are drawn as often as others
    x, y, z, w = coords[:3] + ((0,) if zero_w else coords[3:])
    if x == y == z == w == 0:
        return
    P = canonicalize_by_factoring(x, y, z, w)
    if z == w == 0:  # on every member of the family exactly when y² = x³ ≠ 0
        big = lam * LARGE_PRIMES[0]
        for k in (1, lam, big):
            canonical_or_refused(rescaled(P, k), P)
            canonical_or_refused((Fraction(P.x, k ** 2), Fraction(P.y, k ** 3), 0, 0), P)
        return
    up = rescaled(P, lam)
    assert WPoint.from_fractions(up.x, up.y, up.z, up.w) == P
    down = (Fraction(P.x, lam ** 2), Fraction(P.y, lam ** 3), Fraction(P.z, lam), Fraction(P.w, lam))
    assert WPoint.from_fractions(*down) == from_fractions_by_factoring(*down) == P
    # a composite scale whose factors trial division cannot find
    big = lam * LARGE_PRIMES[0]
    up = rescaled(P, big)
    assert WPoint.from_fractions(up.x, up.y, up.z, up.w) == P
    down = (Fraction(P.x, big ** 2), Fraction(P.y, big ** 3), Fraction(P.z, big), Fraction(P.w, big))
    assert WPoint.from_fractions(*down) == P


# Rescalings of a point that leave its class alone: primes far above the
# trial-division bound, alone and in products.
COMPOSITE_SCALES = [1_000_003, 2 ** 61 - 1, 1009 * 1013, (2 ** 31 - 1) * (2 ** 61 - 1)]


# sympy's factorint, which the lift's oracle runs on the primes of the scale,
# takes up to seconds on a scale of 100 bits or more with two large primes;
# below this size it takes milliseconds.
ORACLE_BITS = 64


def lifts_back_unchanged(P: WPoint) -> None:
    """P, rescaled up and down by each composite scale, parses back to P."""
    for lam in COMPOSITE_SCALES:
        down = [Fraction(v, lam ** k) for v, k in zip(P, (2, 3, 1, 1))]
        for text in (str(rescaled(P, lam)), "[" + ":".join(map(str, down)) + "]"):
            assert WPoint.parse(text) == P, text


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(3, 9),
       st.tuples(nonzero, small, small).filter(lambda zxy: zxy[2] ** 2 != zxy[1] ** 3))
def test_lift_of_generated_points_matches_factoring(seed, height, xyz):
    # every point of a surface whose parameter denominators have no prime
    # above the bound is lifted, never refused, and equals the oracle where
    # its scale (w, or z when w = 0) is small enough to factor at once
    rng = random.Random(seed)
    S, P = surface_through(rng, height=height)
    while not check_hypotheses(S, P).overall:
        S, P = surface_through(rng, height=height)
    rep = generate(S, P, GenerationConfig(t_height_bound=2, multiple_bound=6, depth=2, bit_cap=512))
    for r in rep.points:
        Q = WPoint.from_affine(r.t, r.point.x, r.point.y)
        if Q.w.bit_length() <= ORACLE_BITS:
            assert Q == from_fractions_by_factoring(*xy(r.point), frac(r.t), Fraction(1))
        lifts_back_unchanged(Q)
    # w = 0: c solved so that [x:y:z:0] lies on the surface, and the
    # multiples of (x/z², y/z³) on its fiber at infinity y² = x³ + c·f3²
    z, x, y = xyz
    c = Fraction(y * y - x ** 3) / (S.params.f3 ** 2 * z ** 6)
    S0 = Surface(replaced(S.params, c=c))
    E = curve(0, 0, c * S.params.f3 ** 2)
    for R in multiples(E, point(Fraction(x, z * z), Fraction(y, z ** 3)), 4):
        if R.is_infinity:
            continue
        Q = WPoint.from_fractions(*xy(R), Fraction(1), Fraction(0))
        if Q.z.bit_length() <= ORACLE_BITS:
            assert Q == from_fractions_by_factoring(*xy(R), Fraction(1), Fraction(0))
        assert S0.membership(Q)
        lifts_back_unchanged(Q)


def test_lift_of_semiprime_content_is_immediate():
    # N has two 101-bit prime factors; factoring it would not end, but
    # gcd(N, x) = 1 shows [1:1:N:N] is already canonical
    N = nextprime(2 ** 100) * nextprime(2 ** 100 + 2 ** 60)
    with time_limit(5):
        assert WPoint.parse(f"[1:1:{N}:{N}]") == WPoint(1, 1, N, N)
        assert WPoint.parse(f"[{N * N}:{N ** 3}:{N}:{N}]") == WPoint(1, 1, 1, 1)
        assert WPoint.parse(f"[1/{N * N}:1/{N ** 3}:1/{N}:1]") == WPoint(1, 1, 1, N)


PAST_DIGIT_LIMIT = ("error: the seed's point or its affine (t, x, y) has an integer of more than "
                    "4,300 digits, which cannot be printed\n")


@pytest.mark.parametrize("text", ["[1:1:1:{}]", "[1:1:1/{}:1]"], ids=["affine", "point"])
def test_parse_refuses_integers_past_the_digit_limit(text):
    # W³ has 4,300 digits for W = 2·10¹⁴³³ and 4,301 for W = 3·10¹⁴³³: it is
    # the denominator of the affine y of [1:1:1:W], and the y of the point
    # [W²:W³:1:W] that [1:1:1/W:1] lifts to, whose affine (t, x, y) is (1/W, 1, 1)
    with time_limit(5):
        P = WPoint.parse(text.format(2 * 10 ** 1433))
        assert max(abs(P.y), P.affine()[2][1]) == 8 * 10 ** 4299
        with pytest.raises(ValueError, match="more than 4,300 digits"):
            WPoint.parse(text.format(3 * 10 ** 1433))


@pytest.mark.parametrize("command", ["check", "generate", "sweep"])
def test_seed_lifted_past_the_digit_limit_exit_two(tmp_path, capsys, worked_surface, command):
    # [1:1:N:1/N] lifts to [N²:N³:N²:1], on the fiber t = N²: for N of 3,000
    # digits no output could print it, so every command refuses the seed
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(worked_surface.params.to_json()))
    N = "7" * 3000
    with time_limit(5):
        code = main([command, "--surface", str(path), "--seed", f"[1:1:{N}:1/{N}]"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == PAST_DIGIT_LIMIT


def test_seed_at_the_digit_limit_runs(tmp_path, capsys):
    # f = 1 − W³t³ vanishes at t = 1/W, so [1:1:1:W], whose affine y = 1/W³
    # has 4,300 digits, is on the cusp y² = x³ of y² = x³ + f(t)²: both
    # commands decide its hypotheses, which fail (B = f² is singular)
    W = 2 * 10 ** 1433
    params = {"a": "0", "b": "0", "c": "1", "d": "0", "e": "0", "f": ["1", "0", "0", str(-W ** 3)]}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(params))
    argv = ["--surface", str(path), "--seed", f"[1:1:1:{W}]"]
    with time_limit(5):
        assert main(["check", *argv]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "smooth": False, "w0_nonzero": True, "slope_condition": True, "separable": True,
            "non_torsion": False, "overall": False}
        assert main(["generate", *argv]) == 1
        captured = capsys.readouterr()
    assert "fails hypotheses" in json.loads(captured.out)["error"] and captured.err == ""


@pytest.mark.parametrize("seed", [
    # den x = 1009·1013 is below 1000³: p·q, its own part of λ
    "[1/1022117:1:1:1]",
    "[1:1/1022117:1:1]",
    "[1/1022117:1/1019:1/1009:1]",
    f"[7/{4 * 1009 * 1013}:1/{27 * 1013}:0:1/3]",
    # 1009²·1013 is above 1000³, but 1013 | den y leaves 1009², whose part is 1009
    f"[1/{1009 ** 2 * 1013}:1/1013:1:1]",
    f"[1:1/{1009 ** 2 * 1013}:1/1013:1]",
    # den x = 1009 and den y = 1009³ once (z, w) scales to (1, 1)
    "[1009:1:1009:1009]",
    # on S with f0 = 1/1009 and c = 1 (B(0) = 1/1009²): den x = 1 and den y =
    # 1009 are no e² and e³, as 1009 divides a parameter denominator
    "[0:1/1009:0:1]",
])
def test_lift_decides_squarefree_cofactor(seed):
    coords = [Fraction(v) for v in seed.strip("[]").split(":")]
    with time_limit(5):
        assert WPoint.parse(seed) == from_fractions_by_factoring(*coords)


# primes above the trial bound whose products of two are below 1000³
MEDIUM_PRIMES = [1009, 1013, 1019, 31607]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 999),
                          st.lists(st.sampled_from(MEDIUM_PRIMES), max_size=3)),
                min_size=4, max_size=4))
def test_lift_decides_cofactors_below_cube_of_bound(coords):
    # a cofactor below 1000³ is p, p·q or p², also when a prime of one
    # denominator is found in another, and the lift must decide it but for
    # z = w = 0; above, it may refuse, but never answers wrongly
    fracs = [Fraction(num, small * math.prod(big)) for num, small, big in coords]
    assume(any(fracs))
    expected = from_fractions_by_factoring(*fracs)
    if all(math.prod(big) < 1000 ** 3 for _, _, big in coords) and (fracs[2] or fracs[3]):
        assert WPoint.from_fractions(*fracs) == expected
    else:
        canonical_or_refused(fracs, expected)


@pytest.mark.parametrize("seed", [
    # above 1000³ and not a square: 1009·1013·1019, or p²·q?
    "[1/1041537223:1:1:1]",
    # scaled to (p, q) = (1, 1), x = 1/N and y = 1 leave N, above 1000³
    f"[{1041537223}:{1041537223 ** 2}:{1041537223}:{1041537223}]",
    f"[1:1/{(2 ** 61 - 1) ** 2 * 1009 ** 2}:1:1]",  # den y a square of an unknown, not a cube
])
def test_lift_refuses_what_it_cannot_decide(seed):
    with pytest.raises(ValueError, match="trial-division bound 1000"):
        WPoint.parse(seed)


def test_canonicalize_decides_squarefree_cofactor():
    # 1022117 = 1009·1013 is below TRIAL_BOUND³, so it cannot be p²·q
    N = 1009 * 1013
    assert WPoint.parse(f"[{N}:{N}:{N}:{N}]") == WPoint(N, N, N, N)
    for coords in [(1009 * 1013 ** 2, 1009 ** 3 * 1013 ** 2, N, N),
                   (1009 ** 2 * 1013 ** 2 * 7, 1009 ** 3 * 1013 ** 4, 3 * N, -N),
                   (N, 0, N, 0), (0, N ** 3, 0, N)]:
        assert WPoint.from_fractions(*coords) == canonicalize_by_factoring(*coords)


@st.composite
def squarefree_cofactor_quadruple(draw):
    """(x, y, z, w) whose weighted content has, past the primes below the
    trial-division bound, the part 1, p, q or p·q, for primes p, q above the
    bound with p·q < TRIAL_BOUND³ (p alone may pass TRIAL_BOUND²)."""
    if draw(st.booleans()):
        p = nextprime(draw(st.integers(1000, 30000)))
        q = nextprime(draw(st.integers(1000, 10 ** 9 // p - 300)))
    else:
        p, q = nextprime(draw(st.integers(10 ** 6, 10 ** 9 - 300))), 1
    small = st.integers(-999, 999)

    def coord(max_exp):
        return draw(small) * p ** draw(st.integers(0, max_exp)) * q ** draw(st.integers(0, max_exp))

    x, y = coord(5), coord(7)
    z = draw(small.filter(bool)) * p ** draw(st.integers(0, 2)) * q ** draw(st.integers(0, 2))
    w = coord(2) if draw(st.booleans()) else 0
    # keep p and q at most simple in gcd(z, w)
    assume(all(math.gcd(z, w) % (r * r) for r in {p, q} - {1}))
    return x, y, z, w


@settings(max_examples=300, deadline=None)
@given(squarefree_cofactor_quadruple())
def test_canonicalize_is_right_or_refuses_on_squarefree_cofactor(coords):
    # scaling (z, w) to coprime integers can leave p·q in g² and g³ with
    # other primes, which nothing splits: refused or right
    canonical_or_refused(coords, canonicalize_by_factoring(*coords))


def test_wpoint_affine_roundtrip():
    P = WPoint.from_affine((7, 4), (-53, 16), (-79, 32))
    assert P.affine() == ((7, 4), (-53, 16), (-79, 32))
    assert affine(P) == (Fraction(7, 4), Fraction(-53, 16), Fraction(-79, 32))


def test_smoothness_worked(worked_surface, worked_surface_2):
    assert smoothness_check(worked_surface) == "smooth"
    assert smoothness_check(worked_surface_2) == "smooth"


def test_smoothness_singular_fixture(singular_fixture):
    assert smoothness_check(singular_fixture) == "singular"
    assert singular_witnesses(singular_fixture)


def test_modp_scan_worked(worked_surface, singular_fixture):
    assert modp_singular_scan(worked_surface, 7) == "smooth"
    assert modp_singular_scan(singular_fixture, 7) == "singular"


def test_modp_scan_rejects_bad_characteristic(worked_surface):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    for p in (1, 2, 3, 4, 9, 25, 91, 561, 3215031751):
        with pytest.raises(ValueError, match="prime p >= 5"):
            modp_singular_scan(worked_surface, p)


def test_modp_scan_accepts_prime(worked_surface):
    assert modp_singular_scan(worked_surface, 101) == "smooth"


def test_modp_scan_refuses_a_prime_dividing_a_denominator(worked_surface):
    S = Surface(replaced(worked_surface.params, a=Fraction(1, 5)))
    with pytest.raises(ValueError, match="prime 5 divides a parameter denominator"):
        modp_singular_scan(S, 5)


def modp_singular_points(S: Surface, p: int) -> list:
    """Reference mod-p scan: each Fraction coefficient of A_t, B_t and of
    the chart at infinity reduced with its own inverse, every (t, x) of both
    charts over F_p
    tried.  Returns the singular points as (chart, t, x), or None when
    Δ ≡ 0 at every point (a bad prime)."""
    def reduce(f: UniPoly) -> list:
        return [c.numerator * pow(c.denominator, -1, p) % p for c in f.coeffs]

    def deriv(cs: list) -> list:
        return [i * cs[i] % p for i in range(1, len(cs))]

    def value(cs: list, t: int) -> int:
        return sum(c * t ** i for i, c in enumerate(cs)) % p

    degenerate, points = True, []
    for chart, A, B in (("t", S.A_t, S.B_t), ("s", *s_chart(S))):
        a, b = reduce(A), reduce(B)
        da, db = deriv(a), deriv(b)
        if any((4 * value(a, t) ** 3 + 27 * value(b, t) ** 2) % p for t in range(p)):
            degenerate = False
        for t in range(p):
            at, bt, dat, dbt = (value(u, t) for u in (a, b, da, db))
            for x in range(p):
                if (x ** 3 + at * x + bt) % p == 0 and (3 * x * x + at) % p == 0 \
                        and (dat * x + dbt) % p == 0:
                    points.append((chart, t, x))
    return None if degenerate else points


def modp_scan_per_coefficient(S: Surface, p: int) -> str:
    """The reference's verdict: "bad_prime", "singular" or "smooth"."""
    points = modp_singular_points(S, p)
    if points is None:
        return "bad_prime"
    return "singular" if points else "smooth"


SCAN_PRIMES = [p for p in range(5, 51) if all(p % d for d in range(2, p))]
scan_rat = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 7]))
scan_unit = st.sampled_from([-2, -1, 1, 2])


@st.composite
def scan_params(draw):
    """Random parameters, some planted to meet each case of the scan at a
    prime p up to 50:
    - "scaled": a, …, e all divisible by p (bad reduction there);
    - "A=0"; "c=0" (singular at t = ∞ over Q);
    - "p | c" with c ≠ 0, so Δ ≡ 0 at s = 0;
    - "p | f3", so f drops a degree mod p and s = 0 has Δ ≡ 0 as well;
    - "singular mod p": α(f0) = −3x0², β(f0) = 2x0³ and p | f1, so the fiber
      t = 0 has Δ ≡ 0 and the surface a singular point at x = x0 mod p;
    - "bad prime": a ≡ c ≡ d ≡ 0, b ≡ −3λ² and e ≡ 2λ³ mod p, so α ≡ −3λ²
      and β ≡ 2λ³ are constants with Δ ≡ 0 at every point, a, …, e not all
      divisible by p;
    - "degenerate": a, …, e all zero (degenerate over Q)."""
    vals = [draw(scan_rat) for _ in range(5)]
    f = [draw(scan_rat) for _ in range(3)] + [draw(scan_rat.filter(bool))]
    kind = draw(st.sampled_from(["random", "scaled", "A=0", "c=0", "p | c", "p | f3",
                                 "singular mod p", "bad prime", "degenerate"]))
    p = draw(st.sampled_from(SCAN_PRIMES))
    if kind == "scaled":
        vals = [v * p for v in vals]
    elif kind == "A=0":
        vals[:2] = [0, 0]
    elif kind == "c=0":
        vals[2] = 0
    elif kind == "p | c":
        vals[2] = p * draw(scan_unit)
    elif kind == "p | f3":
        f[3] = p * draw(scan_unit)
    elif kind == "singular mod p":
        x0, (a, _b, c, d, _e) = draw(st.integers(-3, 3)), vals
        vals[1] = -3 * x0 ** 2 - a * f[0]
        vals[4] = 2 * x0 ** 3 - (c * f[0] + d) * f[0]
        f[1] = p * draw(st.integers(-2, 2))
    elif kind == "bad prime":
        lam = draw(st.integers(1, 3))
        vals = [p * draw(scan_rat) for _ in range(5)]
        vals[1] += -3 * lam ** 2
        vals[4] += 2 * lam ** 3
    elif kind == "degenerate":
        vals = [0] * 5
    return SurfaceParams(*vals, *f)


def assert_scans_match(params: SurfaceParams) -> set:
    S = Surface(params)
    dens = [getattr(params, k).denominator for k in ("a", "b", "c", "d", "e", "f0", "f1", "f2", "f3")]
    outcomes = set()
    for p in SCAN_PRIMES:
        if any(d % p == 0 for d in dens):
            continue
        got = modp_singular_scan(S, p)
        assert got == modp_scan_per_coefficient(S, p), (params, p)
        outcomes.add(got)
    return outcomes


@settings(max_examples=40, deadline=None)
@given(scan_params())
def test_modp_scan_matches_per_coefficient_reduction(params):
    assert_scans_match(params)


def test_modp_scan_matches_per_coefficient_reduction_examples(worked_surface, singular_fixture):
    rng = random.Random(71)
    params = [worked_surface.params, singular_fixture.params,
              SurfaceParams(0, 0, 0, 0, 0, 0, 0, 0, 1),
              SurfaceParams(7, 14, Fraction(21, 2), 0, 7, Fraction(1, 3), 0, 2, 1),
              # Δ vanishes at every t in F_5 but not at s = 0: not bad at 5
              SurfaceParams(3, -3, 3, 0, 2, 1, 3, -2, -1)]
    params += [random_params(rng, height=4) for _ in range(12)]
    outcomes = set()
    for p in params:
        outcomes |= assert_scans_match(p)
    assert outcomes == {"smooth", "singular", "bad_prime"}


@pytest.mark.parametrize("params, p, where, verdict", [
    # y² = x³ + t⁶ + 2t³ + 3 is smooth mod 7
    (SurfaceParams(0, 0, 1, 2, 3, 0, 0, 0, 1), 7, set(), "smooth"),
    # α(0) = −3, β(0) = 2 and f = t³ + 5t: x³ − 3x + 2 = (x − 1)²(x + 2) on
    # t = 0, where f′ ≡ 0 mod 5
    (SurfaceParams(0, -3, 1, 0, 2, 0, 5, 0, 1), 5, {"finite t"}, "singular"),
    # 5 | c, so at s = 0 the s chart's B = c·f3² ≡ 0 and B′ = 2c·f2·f3 ≡ 0 at x = 0
    (SurfaceParams(0, 0, 5, 2, 3, 0, 0, 0, 1), 5, {"s = 0"}, "singular"),
    # a ≡ c ≡ d ≡ 0, α ≡ −3 and β ≡ 2 mod 7: Δ ≡ 0 everywhere
    (SurfaceParams(7, -3, 14, -7, 2, 1, 1, 0, 1), 7, None, "bad_prime"),
])
def test_modp_scan_reaches_each_verdict(params, p, where, verdict):
    S = Surface(params)
    points = modp_singular_points(S, p)
    # a point of the chart s with s ≠ 0 is one of the chart t as well
    assert where == (None if points is None else {
        "s = 0" if (chart, t) == ("s", 0) else "finite t" for chart, t, _x in points})
    assert modp_singular_scan(S, p) == verdict


def test_modp_scan_reads_only_alpha_beta_and_f(monkeypatch):
    # each fiber's A, B and their t-derivatives, and the point s = 0, come
    # from the residues of α, β and f: the chart polynomials are never read
    cases = [
        (SurfaceParams(0, 0, 1, 2, 3, 0, 0, 0, 1), 7),
        (SurfaceParams(0, -3, 1, 0, 2, 0, 5, 0, 1), 5),
        (SurfaceParams(0, 0, 5, 2, 3, 0, 0, 0, 1), 5),
        (SurfaceParams(7, -3, 14, -7, 2, 1, 1, 0, 1), 7),
        # the "p | c" and "p | f3" kinds of scan_params: Δ ≡ 0 at s = 0
        (SurfaceParams(1, 2, 14, 3, 4, 1, 1, 2, 1), 7),
        (SurfaceParams(1, -2, 3, 1, 2, 1, 0, 2, 5), 5),
    ]
    surfaces = [(Surface(params), p) for params, p in cases]
    expected = [modp_scan_per_coefficient(S, p) for S, p in surfaces]

    def refuse(S):
        raise AssertionError("the scan read a chart polynomial")

    # a property outranks the instance attribute it shadows
    monkeypatch.setattr(Surface, "A_t", property(refuse), raising=False)
    monkeypatch.setattr(Surface, "B_t", property(refuse), raising=False)
    assert [modp_singular_scan(S, p) for S, p in surfaces] == expected
    assert set(expected) == {"smooth", "singular", "bad_prime"}


def test_modp_scan_shares_no_decision_algebra(monkeypatch, worked_surface, singular_fixture):
    # the oracle must not run the algebra it checks
    def refuse(*args):
        raise AssertionError("the mod-p scan ran the smoothness decision's algebra")

    for name in ("_u_line_singular", "_critical_value_poly", "_chart_singular_witnesses"):
        monkeypatch.setattr(surface, name, refuse)
    monkeypatch.setattr(poly, "int_gcd", refuse)
    verdicts = set()
    for params in (worked_surface.params, singular_fixture.params,
                   SurfaceParams(0, -3, 1, 0, 2, 0, 5, 0, 1), SurfaceParams(0, 0, 5, 2, 3, 0, 0, 0, 1),
                   SurfaceParams(7, -3, 14, -7, 2, 1, 1, 0, 1)):
        verdicts |= {modp_singular_scan(Surface(params), p) for p in (5, 7, 11)}
    assert verdicts == {"smooth", "singular", "bad_prime"}


@pytest.mark.parametrize("f0", [Fraction(1, 4), Fraction(1, 3)])
def test_cross_check_refuses_invalid_primes_on_every_surface(f0):
    # a bad value is refused before a denominator could skip it
    for params in (SurfaceParams(0, 0, 1, 2, 3, f0, 0, 0, 1), SurfaceParams(0, 0, 0, 0, 0, f0, 0, 0, 1)):
        for primes in ((2, 4), (7, 4), (4, 7), (3,), (5, 9)):
            with pytest.raises(ValueError, match="prime p >= 5"):
                smoothness_cross_check(Surface(params), primes)


def chart_witnesses(A: UniPoly, B: UniPoly) -> list:
    """``_chart_singular_witnesses`` on the numerators and denominators of A
    and B, each witness a RefPoly."""
    return [RefPoly.of(w) for w in _chart_singular_witnesses(A.cs, A.den, B.cs, B.den)]


def uncached_verdict(S: Surface) -> tuple:
    """The two-chart decision, made afresh from the chart polynomials: the
    verdict and the witnesses."""
    witnesses = tuple(
        (chart, wpoly)
        for chart, A, B in (("t", S.A_t, S.B_t), ("s", *s_chart(S)))
        for wpoly in chart_witnesses(A, B)
    )
    return ("singular" if witnesses else "smooth"), witnesses


def assert_verdict_matches_two_charts(params: SurfaceParams) -> str:
    """smoothness_check and singular_witnesses against the two-chart
    reference; returns the case: smooth, singular, singular only at infinity,
    or degenerate."""
    S = Surface(params)
    try:
        expected, witnesses = uncached_verdict(S)
    except DegenerateSurfaceError:
        for decide in (smoothness_check, singular_witnesses):
            with pytest.raises(DegenerateSurfaceError):
                decide(S)
        return "degenerate"
    assert smoothness_check(S) == expected, params
    assert singular_witnesses(S) == witnesses, params
    if expected == "smooth":
        return "smooth"
    only_s = {chart for chart, _ in witnesses} == {"s"}
    return "singular only at infinity" if only_s else "singular"


@settings(max_examples=200, deadline=None)
@given(scan_params())
def test_verdict_matches_two_chart_decision(params):
    assert_verdict_matches_two_charts(params)


def test_verdict_matches_two_chart_decision_examples(worked_surface, singular_fixture):
    rng = random.Random(29)
    params = [worked_surface.params, singular_fixture.params,
              replaced(worked_surface.params, c=Fraction(0)),
              SurfaceParams(0, 0, 0, 0, 0, 0, 0, 0, 1)]
    params += [random_params(rng, height=3, c=c) for c in (None, 0) for _ in range(20)]
    outcomes = {assert_verdict_matches_two_charts(p) for p in params}
    assert outcomes == {"smooth", "singular", "singular only at infinity", "degenerate"}


def test_memoized_verdict_matches_uncached_decision(monkeypatch, singular_fixture):
    decided = []
    real = surface._u_line_singular
    monkeypatch.setattr(surface, "_u_line_singular", lambda S: decided.append(S) or real(S))
    rng = random.Random(53)
    surfaces = [singular_fixture] + [Surface(random_params(rng, height=3)) for _ in range(40)]
    kinds = set()
    for S in surfaces:
        expected = uncached_verdict(S)
        n = len(decided)
        assert smoothness_check(S) == smoothness_check(S) == expected[0]
        assert decided[n:] == [S]
        # the witness list runs the u-line again, for a singular surface only,
        # to cross-check the t chart
        assert singular_witnesses(S) == expected[1]
        assert decided[n:] == [S] * (1 + (expected[0] == "singular"))
        # the memo is per instance: a new Surface decides afresh
        T = Surface(S.params)
        assert smoothness_check(T) == expected[0] and decided[-1] is T
        kinds.add(expected[0])
    assert kinds == {"smooth", "singular"}


def fraction_chart_witnesses(A: UniPoly, B: UniPoly) -> list:
    """Reference chart decision in Q[t]: RefPoly products and poly.gcd on
    A and B as they are, with no scaling."""
    A, B = RefPoly.of(A), RefPoly.of(B)
    delta = (A ** 3).scale(4) + (B ** 2).scale(27)
    if delta.is_zero():
        raise DegenerateSurfaceError("discriminant vanishes identically")
    witnesses = []
    g = (A * derivative(B)).scale(2) - (derivative(A) * B).scale(3)
    if not A.is_zero():
        common = delta.monic() if g.is_zero() else gcd(delta, g)
        while True:  # strip every factor sharing a root with A
            shared = gcd(common, A)
            if shared.degree() == 0:
                break
            common = poly_divmod(common, shared)[0]
        if common.degree() >= 1:
            witnesses.append(RefPoly.of(common))
    if A.is_zero():
        cond = gcd(B, derivative(B))
    elif B.is_zero():
        cond = A.monic()
    else:
        cond = gcd(gcd(B, derivative(B)), A)
    if cond.degree() >= 1:
        witnesses.append(RefPoly.of(cond))
    return witnesses


chart_rat = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def chart_poly(max_degree):
    return st.lists(chart_rat, max_size=max_degree + 1).map(RefPoly)


@st.composite
def planted_chart(draw):
    """(A, B) drawn at random, or with a planted singular shape."""
    kind = draw(st.sampled_from(["random", "A=0", "B=0", "repeated", "common"]))
    if kind == "random":
        return draw(chart_poly(4)), draw(chart_poly(6))
    nonzero = chart_poly(2).filter(lambda f: not f.is_zero())
    u, h = draw(nonzero), draw(nonzero)
    root = RefPoly((-draw(chart_rat), 1))
    if kind == "A=0":  # singular where B has a repeated root
        return RefPoly(()), root * root * h
    if kind == "B=0":  # singular over every root of A
        return root * u, RefPoly(())
    if kind == "repeated":  # Δ = 27ε(4u³ + ε) with ε = (t − r)²h
        return (u * u).scale(-3), (u ** 3).scale(2) + root * root * h
    return root * u, root * h  # a common root of A and B


def assert_chart_matches_reference(A, B):
    try:
        expected = fraction_chart_witnesses(A, B)
    except DegenerateSurfaceError:
        with pytest.raises(DegenerateSurfaceError, match="vanishes identically"):
            chart_witnesses(A, B)
        return None
    assert chart_witnesses(A, B) == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(planted_chart())
def test_chart_witnesses_match_fraction_reference(chart):
    assert_chart_matches_reference(*chart)


def test_chart_witnesses_match_fraction_reference_on_surfaces(singular_fixture):
    rng = random.Random(67)
    surfaces = [singular_fixture, Surface(SurfaceParams(0, 0, 0, 0, 0, 0, 0, 0, 1))]
    surfaces += [Surface(random_params(rng, height=5)) for _ in range(150)]
    outcomes = set()
    for S in surfaces:
        for A, B in ((S.A_t, S.B_t), s_chart(S)):
            witnesses = assert_chart_matches_reference(A, B)
            outcomes.add("degenerate" if witnesses is None else bool(witnesses))
    assert outcomes == {"degenerate", True, False}


@st.composite
def trimmed_chart_params(draw):
    """scan_params, with b, e or both set to 0 together with f0 on purpose:
    then A or B has no constant term, and its reversal in the chart at
    infinity ends in zeros."""
    zeros = draw(st.sampled_from([(), ("b", "f0"), ("e", "f0"), ("b", "e", "f0")]))
    return replaced(draw(scan_params()), **{k: Fraction(0) for k in zeros})


def assert_discriminant_and_witnesses_match_refpoly(params: SurfaceParams) -> set:
    """Δ and both charts' witnesses against RefPoly and the Fraction chart
    decision; returns the charts with witnesses, or {"degenerate"}."""
    S = Surface(params)
    assert S.discriminant_t() == discriminant_by_refpoly(S)
    try:
        expected = tuple((chart, w) for chart, (A, B) in (("t", (S.A_t, S.B_t)), ("s", s_chart(S)))
                         for w in fraction_chart_witnesses(A, B))
    except DegenerateSurfaceError:
        with pytest.raises(DegenerateSurfaceError, match="vanishes identically"):
            singular_witnesses(S)
        return {"degenerate"}
    assert singular_witnesses(S) == expected, params
    return {chart for chart, _ in expected}


@settings(max_examples=200, deadline=None)
@given(trimmed_chart_params())
def test_discriminant_and_witnesses_match_refpoly(params):
    assert_discriminant_and_witnesses_match_refpoly(params)


def test_discriminant_and_witnesses_match_refpoly_examples(singular_fixture):
    # b = e = f0 = 0 with witnesses in both charts, then c = 0 with one at s = 0
    params = [SurfaceParams(-1, 0, -1, 0, 0, 0, 1, 2, -1), SurfaceParams(1, -1, 0, 2, 1, 1, 0, -1, 2),
              singular_fixture.params, SurfaceParams(0, 0, 0, 0, 0, 0, 0, 0, 1)]
    found = [assert_discriminant_and_witnesses_match_refpoly(p) for p in params]
    assert found == [{"t", "s"}, {"s"}, {"t", "s"}, {"degenerate"}]


def test_degenerate_surface_raises_on_every_call():
    S = Surface(SurfaceParams(0, 0, 0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(DegenerateSurfaceError):
        uncached_verdict(S)
    for _ in range(3):
        with pytest.raises(DegenerateSurfaceError, match="vanishes identically"):
            smoothness_check(S)


# -- the t chart decided on the u-line -----------------------------------

U_LINE_FAMILIES = (
    "critical, 4α³ + 27β² = 0",
    "critical, α = β = 0",
    "critical, A ≡ 0, β = 0",
    "β double at α's root",
)
U_LINE_KINDS = ("random", "a=0", "c=0", "A=0") + U_LINE_FAMILIES


def u_line_params(kind: str, vals, miss: Fraction, rho_at_u0: bool) -> SurfaceParams:
    """Parameters of one kind from 13 drawn rationals: a, …, e, f0, …, f3,
    then t1, t2, u0 and k (a zero f3 or k is read as 1).

    The families take f = f3·(t − t1)²·(t − t2) + u0, so that u0 is a
    critical value of f, and plant a singular point of the t chart over it:
    α(u0) = −3k² and β(u0) = 2k³ (so 4α³ + 27β² = 0 there), α(u0) = β(u0) = 0,
    or A ≡ 0 and β(u0) = 0.  The last family gives β a double root at α's
    root ρ, which is u0 when rho_at_u0 and k otherwise.  ``miss`` is added to
    the planted β(u0), or to β′(ρ): zero keeps the planted point, and
    anything else gives a nearby surface, most often smooth.
    """
    a, b, c, d, e, f0, f1, f2, f3, t1, t2, u0, k = vals
    f3, k = f3 or 1, k or 1
    if kind == "a=0":
        a = 0
    elif kind == "c=0":
        c = 0
    elif kind == "A=0":
        a = b = 0
    elif kind != "random":
        f = (RefPoly((-t1, 1)) ** 2 * RefPoly((-t2, 1))).scale(f3) + RefPoly.constant(u0)
        f0, f1, f2, f3 = f.coeffs
        if kind == U_LINE_FAMILIES[0]:
            b = -3 * k * k - a * u0
            e = 2 * k ** 3 + miss - c * u0 * u0 - d * u0
        elif kind == U_LINE_FAMILIES[1]:
            b = -a * u0
            e = miss - c * u0 * u0 - d * u0
        elif kind == U_LINE_FAMILIES[2]:
            a = b = 0
            e = miss - c * u0 * u0 - d * u0
        else:  # β = c·(u − ρ)² + miss·(u − ρ)
            rho = u0 if rho_at_u0 else k
            a = a or 1
            b = -a * rho
            d = -2 * c * rho + miss
            e = c * rho * rho - miss * rho
    return SurfaceParams(a, b, c, d, e, f0, f1, f2, f3)


@st.composite
def u_line_surfaces(draw):
    """Parameters of height 1 to 5, each kind equally often."""
    height = draw(st.integers(1, 5))
    rat = st.builds(Fraction, st.integers(-height, height), st.integers(1, height))
    kind = draw(st.sampled_from(U_LINE_KINDS))
    vals = draw(st.lists(rat, min_size=13, max_size=13))
    miss = draw(st.one_of(st.just(Fraction(0)), rat))
    return u_line_params(kind, vals, miss, draw(st.booleans()))


def assert_u_line_matches_t_chart(params: SurfaceParams) -> str:
    """The u-line verdict against the t chart's witnesses; returns smooth,
    singular or degenerate (the t chart's verdict)."""
    S = Surface(params)
    try:
        expected = bool(chart_witnesses(S.A_t, S.B_t))
    except DegenerateSurfaceError:
        with pytest.raises(DegenerateSurfaceError, match="^discriminant vanishes identically$"):
            _u_line_singular(S)
        return "degenerate"
    assert _u_line_singular(S) == expected, params
    return "singular" if expected else "smooth"


@settings(max_examples=400, deadline=None)
@given(u_line_surfaces())
def test_u_line_matches_t_chart(params):
    assert_u_line_matches_t_chart(params)


def test_u_line_matches_t_chart_examples():
    # each planted family reaches both verdicts, exact and missed
    rng = random.Random(83)
    for kind in U_LINE_KINDS:
        outcomes = set()
        for i in range(60):
            h = rng.randint(1, 5)
            vals = [Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(13)]
            miss = Fraction(rng.choice([-1, 1]) * rng.randint(1, h), rng.randint(1, h))
            if i % 2:
                miss = Fraction(0)
            outcomes.add(assert_u_line_matches_t_chart(u_line_params(kind, vals, miss, i % 4 < 2)))
        if kind in U_LINE_FAMILIES:
            assert {"smooth", "singular"} <= outcomes, kind


@pytest.mark.parametrize("k", [Fraction(0), Fraction(1), Fraction(-2, 3)])
def test_u_line_refuses_a_degenerate_surface(k):
    # 4α³ + 27β² ≡ 0 exactly when α = −3k² and β = 2k³ are constants
    S = Surface(SurfaceParams(0, -3 * k * k, 0, 0, 2 * k ** 3, 1, -2, 0, 3))
    for decide in (_u_line_singular, smoothness_check, smoothness_check):
        with pytest.raises(DegenerateSurfaceError, match="^discriminant vanishes identically$"):
            decide(S)
    near = Surface(SurfaceParams(0, -3 * k * k, 0, 0, 2 * k ** 3 + 1, 1, -2, 0, 3))
    assert _u_line_singular(near) is False


@settings(max_examples=100, deadline=None)
@given(st.lists(scan_rat, min_size=3, max_size=3), scan_rat.filter(bool))
def test_critical_value_poly_is_the_discriminant_of_f_minus_u(vals, f3):
    t, u = sp.symbols("t u")
    f = RefPoly((*vals, f3))
    F, n = f.cs, f.den
    D = _critical_value_poly(F, n)
    expected = sp.Poly(sp.discriminant(sum(c * t ** i for i, c in enumerate(F)) - n * u, t), u)
    assert D == [int(c) for c in reversed(expected.all_coeffs())]
    # f's critical values are roots of D
    for root in poly.rational_roots(derivative(f)):
        assert poly.homogeneous_value(D, *f(root).as_integer_ratio()) == 0


def chart_calls(monkeypatch, S: Surface, decide) -> list:
    """The charts, in order, whose witnesses one call of decide on a fresh
    copy of S computes."""
    S = Surface(S.params)
    calls = []
    real = surface._chart_singular_witnesses

    def counted(An, Ad, Bn, Bd):
        # the s chart's numerators are built for the call, so they are told
        # apart by value
        A_s, B_s = s_chart(S)
        calls.append("t" if An is S.A_t.cs and Bn is S.B_t.cs
                     else "s" if (An, Ad, Bn, Bd) == (A_s.cs, A_s.den, B_s.cs, B_s.den)
                     else "other")
        return real(An, Ad, Bn, Bd)

    with monkeypatch.context() as m:
        m.setattr(surface, "_chart_singular_witnesses", counted)
        decide(S)
    return calls


def test_chart_algebra_runs_for_singular_surfaces_only(monkeypatch, worked_surface,
                                                       worked_surface_2, singular_fixture):
    # the verdict never runs the charts; the witness list runs them for a
    # singular surface only
    rng = random.Random(89)
    smooth = [worked_surface, worked_surface_2]
    smooth += [random_smooth_surface(rng, height=4) for _ in range(20)]
    for S in smooth:
        for decide in (smoothness_check, singular_witnesses):
            assert chart_calls(monkeypatch, S, decide) == []
    vals = [Fraction(v) for v in (1, -2, 3, 1, -1, 0, 0, 0, 2, 1, -1, Fraction(1, 2), 2)]
    singular = [
        singular_fixture,  # A ≡ 0, B = (t³ + 1)²
        Surface(replaced(worked_surface.params, c=Fraction(0))),  # only at t = ∞
        Surface(SurfaceParams(0, 0, 0, 1, 0, 0, 0, 0, 1)),  # B = t³, and c = 0
    ] + [Surface(u_line_params(kind, vals, Fraction(0), True)) for kind in U_LINE_FAMILIES]
    for S in singular:
        assert smoothness_check(S) == "singular"
        assert chart_calls(monkeypatch, S, smoothness_check) == []
        assert chart_calls(monkeypatch, S, singular_witnesses) == ["t", "s"]


def test_verdict_runs_the_u_line_once_per_surface(monkeypatch):
    # with c = 0 the verdict does not say what the u-line found, so the
    # witness list runs it once more, for its cross-check with the t chart
    calls = []
    real = surface._u_line_singular
    monkeypatch.setattr(surface, "_u_line_singular", lambda S: calls.append(S) or real(S))
    S = Surface(SurfaceParams(1, 2, 0, 3, 4, 1, 0, 0, 1))
    assert smoothness_check(S) == smoothness_check(S) == "singular"
    assert len(calls) == 1
    assert singular_witnesses(S)
    assert len(calls) == 2


def test_u_line_and_t_chart_must_agree(monkeypatch, worked_surface):
    monkeypatch.setattr(surface, "_u_line_singular", lambda S: True)
    with pytest.raises(InvariantError, match="u-line calls the t chart singular"):
        singular_witnesses(Surface(worked_surface.params))
    # with c = 0 the t chart runs anyway, and must find what the u-line found
    monkeypatch.setattr(surface, "_u_line_singular", lambda S: False)
    with pytest.raises(InvariantError, match="u-line calls the t chart smooth"):
        singular_witnesses(Surface(SurfaceParams(0, 0, 0, 1, 0, 0, 0, 0, 1)))


@settings(max_examples=100, deadline=None)
@given(scan_params())
def test_c_zero_surface_lists_a_witness_at_s_zero(params):
    # the premise of the cross-check's c = 0 shortcut: s = 0 is a rational
    # singular point, so some s witness vanishes at 0
    S = Surface(replaced(params, c=Fraction(0)))
    try:
        witnesses = singular_witnesses(S)
    except DegenerateSurfaceError:
        return
    assert smoothness_check(S) == "singular"
    assert any(chart == "s" and wp.cs[0] == 0 for chart, wp in witnesses), params


def test_c_zero_verdict_and_cross_check_run_no_chart_algebra(monkeypatch, worked_surface):
    def refuse(*args):
        raise AssertionError("the chart algebra ran")

    monkeypatch.setattr(surface, "_chart_singular_witnesses", refuse)
    rng = random.Random(97)
    params = [replaced(worked_surface.params, c=Fraction(0)), SurfaceParams(0, 0, 0, 1, 0, 0, 0, 0, 1)]
    params += [random_params(rng, height=5, c=0) for _ in range(40)]
    for p in params:
        S = Surface(p)
        assert smoothness_check(S) == "singular"
        assert smoothness_cross_check(S, (7, 11, 13))["symbolic"] == "singular"
    with pytest.raises(AssertionError, match="chart algebra ran"):
        singular_witnesses(S)


def test_modp_scan_inverts_two_denominators_and_builds_no_reversal(monkeypatch):
    # 1/ab_den and 1/f.den, once per scan; s = 0 read from the residues of β and
    # f, with none of the padding and trimming that build the s chart
    def refuse(*args):
        raise AssertionError("the scan built a reversal")

    rng = random.Random(101)
    params = [random_params(rng, height=5) for _ in range(10)]
    expected = [modp_scan_per_coefficient(Surface(p), 13) for p in params]
    surfaces = [Surface(p) for p in params]
    calls = []
    monkeypatch.setattr(surface, "pow", lambda *args: calls.append(args) or pow(*args),
                        raising=False)
    monkeypatch.setattr(surface, "_reversal", refuse)
    monkeypatch.setattr(surface, "_trimmed", refuse)
    assert [modp_singular_scan(S, 13) for S in surfaces] == expected
    assert len(calls) == 2 * len(params)


def test_cross_check_on_worked(worked_surface, singular_fixture):
    out = smoothness_cross_check(worked_surface, (7, 11, 13))
    assert out["symbolic"] == "smooth"
    out = smoothness_cross_check(singular_fixture, (7, 11, 13))
    assert out["symbolic"] == "singular"


def test_cross_check_random_tuples():
    rng = random.Random(23)
    for _ in range(10):
        S = Surface(random_params(rng, height=3))
        try:
            smoothness_cross_check(S, (7, 11))
        except DegenerateSurfaceError:
            pass


def test_fiber_at_worked(worked_surface, worked_surface_2):
    E = worked_surface.fiber_at((-1, 1))
    assert (E.t, E.A, E.B) == ((-1, 1), (0, 1), (2, 1))
    assert worked_surface.fiber_at((0, 1)).B == (3, 1)
    Ea = worked_surface_2.fiber_at((1, 1))
    Eb = worked_surface_2.fiber_at((-1, 1))
    assert (Ea.A, Ea.B) == (Eb.A, Eb.B) == ((0, 1), (3, 1))


def test_fiber_matches_composed_polynomials():
    rng = random.Random(31)
    for _ in range(10):
        S = Surface(random_params(rng, height=4))
        for tnum in (-2, 0, 1, 3):
            t = Fraction(tnum, 2)
            E = fiber(S, t)
            u = value(S.f, t)
            assert frac(E.A) == S.params.a * u + S.params.b
            assert frac(E.B) == S.params.c * u * u + S.params.d * u + S.params.e


surface_rat = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(surface_rat, min_size=8, max_size=8), surface_rat.filter(bool), surface_rat)
def test_chart_polynomials_match_composition(vals, f3, t):
    # A_t = a·f + b and B_t = c·f² + d·f + e against RefPoly composition, and
    # each fiber against evaluating them
    p = SurfaceParams(*vals, f3)
    S = Surface(p)
    assert S.A_t == compose(RefPoly((p.b, p.a)), S.f)
    assert S.B_t == compose(RefPoly((p.e, p.d, p.c)), S.f)
    assert fiber(S, t) == curve(t, value(S.A_t, t), value(S.B_t, t))


@settings(max_examples=200, deadline=None)
@given(st.lists(surface_rat, min_size=8, max_size=8), surface_rat.filter(bool))
def test_chart_build_matches_unipoly_reference(vals, f3):
    # the ℤ[t] build from α, β over one denominator against RefPoly arithmetic
    p = SurfaceParams(*vals, f3)
    S = Surface(p)
    assert (S.A_t, S.B_t, *s_chart(S)) == chart_polys_by_refpoly(p)
    assert UniPoly(S.alpha, S.ab_den) == RefPoly((p.b, p.a))
    assert UniPoly(S.beta, S.ab_den) == RefPoly((p.e, p.d, p.c))
    assert (len(S.alpha), len(S.beta)) == (2, 3)
    # f's numerators over the lcm of f0..f3's denominators are in lowest terms
    assert S.f == f_poly(p)
    assert S.f.den == math.lcm(*(v.denominator for v in (p.f0, p.f1, p.f2, p.f3)))
    assert S.params_den == math.lcm(*(v.denominator for v in p))


def test_small_primes_by_sieve():
    # the sieve's list is the trial-division one, below TRIAL_BOUND and below
    # every small n, the squares of primes included
    assert surface._SMALL_PRIMES == [p for p in range(surface.TRIAL_BOUND) if poly.is_prime(p)]
    for n in range(2, 200):
        assert surface._primes_below(n) == [p for p in range(n) if poly.is_prime(p)]


def test_discriminant_form_z12_coefficient():
    rng = random.Random(41)
    for _ in range(15):
        p = random_params(rng, height=4)
        S = Surface(p)
        assert RefPoly.of(S.discriminant_t())[12] == -432 * p.c ** 2 * p.f3 ** 4
        try:
            report = singular_fiber_report(S)
        except DegenerateSurfaceError:
            continue
        assert report["z12_coefficient"] == format_rational(-432 * p.c ** 2 * p.f3 ** 4)


def test_singular_fiber_report_worked(worked_surface, worked_surface_2):
    rep = singular_fiber_report(worked_surface)
    assert list(rep) == ["z12_coefficient", "multiplicity_at_infinity", "total_multiplicity",
                         "factors"]
    assert rep["total_multiplicity"] == 12
    assert rep["multiplicity_at_infinity"] == 0
    # Δ = −432(t⁶+2t³+3)², one squarefree factor of degree 6, multiplicity 2
    assert rep["factors"] == [{"coeffs": ["3", "0", "0", "2", "0", "0", "1"], "degree": 6,
                               "multiplicity": 2, "reduction": "additive"}]
    rep2 = singular_fiber_report(worked_surface_2)
    assert rep2["total_multiplicity"] == 12
    assert [(f["degree"], f["multiplicity"]) for f in rep2["factors"]] == [(6, 2)]


def singular_fiber_report_by_fractions(S: Surface) -> dict:
    """Reference report in Q[t]: the Fraction Yun, monic gcds with A and
    Fraction long division."""
    delta = discriminant_by_refpoly(S)
    if delta.is_zero():
        raise DegenerateSurfaceError("discriminant vanishes identically")
    factors = []

    def factor(g, m, kind):
        coeffs = [format_rational(c) for c in g.coeffs]
        factors.append({"coeffs": coeffs, "degree": g.degree(), "multiplicity": m,
                        "reduction": kind})

    for g, m in squarefree_factorization_by_fractions(delta):
        if S.A_t.is_zero():
            factor(g, m, "additive")
            continue
        g_add = RefPoly.of(gcd(g, S.A_t))
        if g_add.degree() >= 1:
            factor(g_add, m, "additive")
            g = poly_divmod(g, g_add)[0].monic()
        if g.degree() >= 1:
            factor(g, m, "multiplicative")
    at_infinity = 12 - delta.degree()
    return {
        "z12_coefficient": format_rational(delta[12]),
        "multiplicity_at_infinity": at_infinity,
        "total_multiplicity": sum(f["degree"] * f["multiplicity"] for f in factors) + at_infinity,
        "factors": factors,
    }


fiber_rat = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def fiber_params(draw):
    """Random parameters; with A ≡ 0, or with B planted to vanish where A
    does, so that additive factors occur."""
    a, b, c, d, e, f0, f1, f2 = (draw(fiber_rat) for _ in range(8))
    f3 = draw(fiber_rat.filter(bool))
    kind = draw(st.sampled_from(["random", "A=0", "additive"]))
    if kind == "A=0":
        a = b = Fraction(0)
    elif kind == "additive" and a:
        u = -b / a  # A = a·f + b vanishes where f = u; so must B = c·f² + d·f + e
        e = -(c * u * u + d * u)
    return SurfaceParams(a, b, c, d, e, f0, f1, f2, f3)


def assert_report_matches_reference(params: SurfaceParams):
    S = Surface(params)
    try:
        expected = singular_fiber_report_by_fractions(S)
    except DegenerateSurfaceError:
        with pytest.raises(DegenerateSurfaceError, match="vanishes identically"):
            singular_fiber_report(S)
        return None
    assert singular_fiber_report(S) == expected
    return expected


@settings(max_examples=200, deadline=None)
@given(fiber_params())
def test_singular_fiber_report_matches_fraction_reference(params):
    assert_report_matches_reference(params)


def test_singular_fiber_report_matches_fraction_reference_examples(worked_surface, singular_fixture):
    rng = random.Random(73)
    params = [worked_surface.params, singular_fixture.params,
              SurfaceParams(0, 0, 0, 0, 0, 0, 0, 0, 1),
              SurfaceParams(0, 0, 0, 0, 1, 0, 0, 0, 1),
              SurfaceParams(1, -1, 1, -2, 1, 0, 0, 0, 1)]
    params += [random_params(rng, height=4) for _ in range(30)]
    kinds = set()
    for p in params:
        report = assert_report_matches_reference(p)
        kinds |= {"degenerate"} if report is None else {f["reduction"] for f in report["factors"]}
    assert kinds == {"degenerate", "additive", "multiplicative"}


def test_singular_fiber_budget_random():
    rng = random.Random(43)
    for _ in range(10):
        S = random_smooth_surface(rng, height=3)
        assert singular_fiber_report(S)["total_multiplicity"] == 12
