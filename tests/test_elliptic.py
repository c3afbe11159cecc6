import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curve, frac, mul, off_curve_after, pair, point, rhs, xy
from dp1 import elliptic, poly
from dp1.elliptic import (
    O,
    OffCurveError,
    SingularFiberError,
    add,
    multiples,
    neg,
    on_curve,
    torsion_status,
    walk_order,
)
from dp1.rational import InvariantError

E2 = curve(-1, 0, 2)   # y² = x³ + 2
E4 = curve(0, 0, 4)    # y² = x³ + 4


small_rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(small_rational, small_rational, small_rational, st.booleans())
def test_is_singular_matches_fraction_discriminant(A, B, k, singular):
    # the integer test against 4A³ + 27B² in Fractions, on curves made
    # singular as y² = (x − k)²(x + 2k), A = −3k², B = 2k³, and on others
    if singular:
        A, B = -3 * k * k, 2 * k ** 3
    E = curve(0, A, B)
    assert E.is_singular() == (4 * A ** 3 + 27 * B ** 2 == 0)
    assert E.is_singular() or not singular


def test_identity():
    P = point(-1, 1)
    assert add(E2, P, O) == P
    assert add(E2, O, P) == P
    assert multiples(E2, O, 3) == [O] * 3


def test_doubling_worked_example():
    P = point(-1, 1)
    D = add(E2, P, P)
    assert D == point(Fraction(17, 4), Fraction(-71, 8))
    assert on_curve(E2, D)


def test_order_three_point():
    P = point(0, 2)
    assert add(E4, P, P) == point(0, -2)
    assert mul(E4, 3, P) == O


def test_negative_multiple():
    P = point(-1, 1)
    assert mul(E2, -2, P) == point(Fraction(17, 4), Fraction(71, 8))
    assert mul(E2, 1, P) == P


def test_off_curve_rejected():
    with pytest.raises(OffCurveError):
        add(E2, point(0, 1), O)


def test_torsion_status_examples():
    assert torsion_status(E4, O) == 1
    assert torsion_status(E4, point(0, 2)) == 3
    assert torsion_status(E2, point(-1, 1)) is None


def test_torsion_status_stable_under_negation():
    P = point(0, 2)
    assert torsion_status(E4, P) == torsion_status(E4, neg(P))
    Q = point(-1, 1)
    assert torsion_status(E2, Q) == torsion_status(E2, neg(Q))


def test_torsion_on_singular_fiber_rejected():
    E = curve(0, 0, 0)
    with pytest.raises(SingularFiberError):
        torsion_status(E, O)


def _random_curve_with_point(rng):
    """Guarantee a rational point by solving for B."""
    while True:
        x0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        y0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        A = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        B = y0 * y0 - x0 ** 3 - A * x0
        E = curve(0, A, B)
        if not E.is_singular():
            return E, point(x0, y0)


def test_group_axioms_random():
    rng = random.Random(7)
    for _ in range(100):
        E, P = _random_curve_with_point(rng)
        Q = mul(E, 2, P)
        R = mul(E, 3, P)
        assert add(E, P, Q) == add(E, Q, P)
        assert add(E, add(E, P, Q), R) == add(E, P, add(E, Q, R))
        assert add(E, P, neg(P)) == O


def test_mul_consistency_random():
    rng = random.Random(11)
    for _ in range(15):
        E, P = _random_curve_with_point(rng)
        for m, n in ((2, 3), (5, 7), (10, 10), (1, 19)):
            assert mul(E, m + n, P) == add(E, mul(E, m, P), mul(E, n, P))


def test_outputs_on_curve():
    rng = random.Random(13)
    for _ in range(20):
        E, P = _random_curve_with_point(rng)
        for n in range(1, 8):
            assert on_curve(E, mul(E, n, P))


def checked_walk(E, P, n):
    """Reference walk: [P, [2]P, ..., [n]P] by checked additions."""
    walk = [add(E, O, P)]
    while len(walk) < n:
        walk.append(add(E, walk[-1], P))
    return walk


def fraction_chord(E, P, Q):
    """Reference chord-tangent sum in Fraction arithmetic, O as origin."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    (x1, y1), (x2, y2) = xy(P), xy(Q)
    if x1 == x2:
        if y1 == -y2:
            return O
        lam = (3 * x1 * x1 + frac(E.A)) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return point(x3, lam * (x1 - x3) - y1)


def fraction_walk(E, P, n):
    """Reference walk [P, [2]P, ..., [n]P] by the Fraction chord; it starts
    again at P after O, as the chord with O does."""
    walk = [P]
    while len(walk) < n:
        walk.append(fraction_chord(E, walk[-1], P))
    return walk


coord = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(coord, coord, coord, st.integers(1, 14))
def test_multiples_match_checked_walk(x0, y0, A, n):
    # B is solved so that (x0, y0) lies on the curve
    E = curve(0, A, y0 * y0 - x0 ** 3 - A * x0)
    if E.is_singular():
        return
    P = point(x0, y0)
    assert multiples(E, P, n) == checked_walk(E, P, n) == fraction_walk(E, P, n)


@pytest.mark.parametrize("make", [
    lambda P: multiples(E2, P, 3),
    lambda P: add(E2, P, P),
], ids=["multiples", "add"])
def test_group_law_certifies_what_it_makes(monkeypatch, make):
    # no later step checks a multiple or a sum again: a chord step that lands
    # off the curve must be caught by the function that took it
    monkeypatch.setattr(elliptic, "_chord_step", off_curve_after(elliptic._chord_step))
    with pytest.raises(InvariantError, match=r"is not on the fiber t=-1$"):
        make(point(-1, 1))


def test_multiples_reject_off_curve_start():
    with pytest.raises(OffCurveError, match=r"^\(0, 1\) is not an affine point of the fiber t=-1$"):
        multiples(E2, point(0, 1), 5)
    with pytest.raises(ValueError):
        multiples(E2, point(-1, 1), 0)


# (A, B, x, y, order).  Orders 4-12: Kubert's Tate normal forms
# y² + (1−c)xy − by = x³ − bx² at parameter 2, in short Weierstrass form, with
# (0, 0) sent to (3·b2, 108·(−b)), b2 = (1−c)² − 4b.
KNOWN_TORSION = [
    (-1, 0, 0, 0, 2),
    (0, 4, 0, 2, 3),
    (-2619, 918, -21, -216, 4),
    (-27, 55350, -21, -216, 5),
    (-10395, 31158, -69, -648, 6),
    (-3483, 121014, -45, -432, 7),
    (Fraction(-44091, 16), Fraction(1652427, 32), Fraction(-141, 4), -324, 8),
    (-17739, 1205766, -117, -1296, 9),
    (-58347, 3954150, -213, -2592, 10),
    (-33339627, 73697852646, 3027, -22680, 12),
]


@pytest.mark.parametrize("A, B, x, y, order", KNOWN_TORSION)
def test_torsion_status_known_orders(A, B, x, y, order):
    E = curve(0, Fraction(A), Fraction(B))
    P = point(Fraction(x), Fraction(y))
    walk = checked_walk(E, P, order)
    assert walk[-1] == O and O not in walk[:-1]
    # the walk goes on past O: [order + k]P = [k]P, as in the Fraction walk
    assert multiples(E, P, order + 2) == walk + walk[:2]
    assert multiples(E, P, 2 * order + 1) == fraction_walk(E, P, 2 * order + 1)
    assert torsion_status(E, P) == order
    assert torsion_status(E, neg(P)) == order
    for Q in (P, neg(P)):
        assert torsion_status(E, Q) == walk_order(multiples(E, Q, 12))
        # a genuine torsion point is never certified non-torsion
        for p in CERTIFICATE_PRIMES:
            assert not elliptic._nontorsion_mod(E, Q, p)


# primes above the Mazur orders for the reduction certificate
CERTIFICATE_PRIMES = (13, 17, 101, elliptic.REDUCTION_PRIME)


@settings(max_examples=200, deadline=None)
@given(coord, coord, coord, st.sampled_from(CERTIFICATE_PRIMES))
def test_torsion_status_matches_walk(x0, y0, A, p):
    # differential test: the certificate mod p against the exact walk
    E = curve(0, A, y0 * y0 - x0 ** 3 - A * x0)
    if E.is_singular():
        return
    for P in (point(x0, y0), point(x0, -y0)):
        order = walk_order(multiples(E, P, 12))
        assert torsion_status(E, P) == order
        if elliptic._nontorsion_mod(E, P, p):
            assert order is None


# (curve, point, prime) at which reduction certifies nothing
FALLBACKS = {
    "O": (E2, O, elliptic.REDUCTION_PRIME),
    "p | den A": (curve(0, Fraction(1, 13), 1),
                  point(0, 1), 13),
    # [4](−1, 1) has x = 66113/80656, and 80656 = 2⁴·71²
    "p | den x": (E2, multiples(E2, point(-1, 1), 4)[3], 71),
    # 4A³ + 27B² = 23, and mod 23 no [n]P̃ with n ≤ 12 is Õ
    "p | disc": (curve(0, -1, 1),
                 point(0, 1), 23),
}


@pytest.mark.parametrize("case", FALLBACKS)
def test_torsion_status_falls_back_to_the_walk(monkeypatch, case):
    E, P, p = FALLBACKS[case]
    assert not elliptic._nontorsion_mod(E, P, p)
    walks = []
    monkeypatch.setattr(elliptic, "REDUCTION_PRIME", p)
    monkeypatch.setattr(elliptic, "multiples", lambda *args: walks.append(args) or multiples(*args))
    assert torsion_status(E, P) == walk_order(multiples(E, P, 12))
    assert walks, "the exact walk did not run"


def test_torsion_status_certifies_without_the_walk(monkeypatch):
    P = point(-1, 1)
    monkeypatch.setattr(elliptic, "multiples", None)  # any walk would raise
    assert torsion_status(E2, P) is None
    assert torsion_status(E2, neg(P)) is None


# differential test: the integer on_curve against the Fraction equation
big_rat = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30))


@settings(max_examples=300, deadline=None)
@given(big_rat, big_rat, big_rat, big_rat, st.sampled_from(["random", "on", "near"]),
       st.integers(1, 10 ** 30))
def test_on_curve_matches_fraction_equation(A, B, x, y, kind, eps_den):
    if kind != "random":  # solve for B so that (x, y) lies on the curve
        B = y * y - x ** 3 - A * x
    if kind == "near":
        B += Fraction(1, eps_den)
    E, P = curve(0, A, B), point(x, y)
    assert on_curve(E, P) == (y * y == rhs(E, x))
    if kind != "random":
        assert on_curve(E, P) == (kind == "on")


def test_on_curve_on_walks_and_their_negatives():
    seeds = ((E2, point(-1, 1)), (E4, point(0, 2)))
    for E, P in seeds:
        for R in multiples(E, P, 12):
            assert on_curve(E, R) and on_curve(E, neg(R))
            if not R.is_infinity:
                assert not on_curve(E, point(frac(R.x), frac(R.y) + 1))


# differential test: the integer chord step against the Fraction chord it
# replaces
def assert_lowest_terms(R):
    (xn, xd), (yn, yd) = R
    assert xd > 0 and yd > 0
    assert math.gcd(xn, xd) == 1 and math.gcd(yn, yd) == 1


@settings(max_examples=200, deadline=None)
@given(big_rat, big_rat, big_rat, big_rat, big_rat,
       st.sampled_from(["chord", "double", "negation"]))
def test_chord_step_matches_fraction_chord(x0, y0, x1, y1, A, kind):
    # a curve through P = (x0, y0), and through Q = (x1, y1) for a chord
    if kind == "chord":
        if x1 == x0:
            return
        A = (y1 * y1 - x1 ** 3 - y0 * y0 + x0 ** 3) / (x1 - x0)
    E = curve(0, A, y0 * y0 - x0 ** 3 - A * x0)
    P = point(x0, y0)
    Q = {"chord": point(x1, y1), "double": P, "negation": neg(P)}[kind]
    assert on_curve(E, P) and on_curve(E, Q)
    expected = fraction_chord(E, P, Q)
    R = elliptic._chord_step(pair(A), P, Q)
    if not expected.is_infinity:
        assert_lowest_terms(R)
    assert R == expected
    assert add(E, P, Q) == expected


def test_reduction_prime_is_the_one_of_int_gcd_and_torsion_status(monkeypatch):
    p = poly.REDUCTION_PRIME
    # the largest prime below 2³⁰
    assert poly.is_prime(p) and not any(map(poly.is_prime, range(p + 1, 2 ** 30)))
    assert elliptic.REDUCTION_PRIME is p
    primes = []
    real = elliptic._nontorsion_mod
    monkeypatch.setattr(elliptic, "_nontorsion_mod", lambda E, P, q: primes.append(q) or real(E, P, q))
    assert torsion_status(E2, point(-1, 1)) is None
    assert primes == [p]


@pytest.mark.parametrize("x, y, t", [
    (Fraction(-17, 4), Fraction(-71, 8), Fraction(-3, 2)),
    (Fraction(5), Fraction(-3), Fraction(7)),
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(-1), Fraction(1, 9), Fraction(-1)),
])
def test_point_and_fiber_texts_match_fraction_text(x, y, t):
    # a point prints as the Fractions of its coordinates did, and so does
    # the fiber's t in the off-curve refusal
    P = point(x, y)
    assert repr(P) == str(P) == f"({x}, {y})"
    E = curve(t, 1, y * y - x ** 3 - x + 1)  # x³ + x + B = y² + 1: P is off E
    with pytest.raises(OffCurveError) as caught:
        add(E, P, O)
    assert str(caught.value) == f"({x}, {y}) is not an affine point of the fiber t={t}"
    assert repr(O) == "O"
