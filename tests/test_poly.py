import itertools
import math
from fractions import Fraction
from typing import Iterable, List

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import divisor_count, divisors, nextprime

from conftest import (
    RefPoly,
    compose,
    derivative,
    frac_add,
    frac_derivative,
    frac_gcd,
    frac_monic,
    frac_mul,
    frac_pow,
    frac_reverse,
    frac_scale,
    frac_sub,
    frac_trim,
    frac_value,
    int_gcd_by_prs,
    leading_coefficient,
    poly_divmod,
    squarefree_factorization_by_fractions,
    squarefree_part,
)
from dp1 import poly
from dp1.poly import (
    REDUCTION_PRIME,
    UniPoly,
    gcd,
    int_exact_div,
    int_gcd,
    int_mul,
    int_roots,
    is_separable,
    rational_roots,
    squarefree_factorization,
)
from dp1.rational import InvariantError


def P(*coeffs) -> UniPoly:
    return RefPoly(coeffs)


# Resultant and discriminant are oracles for gcd and is_separable: a route
# to "common root" and "repeated root" that shares no code with the PRS gcd.
def resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Reference resultant: exact Gaussian elimination on the Sylvester matrix."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = f.degree(), g.degree()
    if m == 0:
        return leading_coefficient(f) ** n
    if n == 0:
        return leading_coefficient(g) ** m
    size = m + n
    rows: List[List[Fraction]] = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] * inv
            for cidx in range(col, size):
                rows[r][cidx] -= factor * rows[col][cidx]
    return det


def discriminant(f: UniPoly) -> Fraction:
    """Reference discriminant (−1)^(n(n−1)/2) · Res(f, f′) / lc(f)."""
    if f.degree() < 1:
        raise ValueError("discriminant needs degree >= 1")
    n = f.degree()
    fp = derivative(f)
    if fp.is_zero():
        return Fraction(0)
    res = resultant(f, fp)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / leading_coefficient(f)


def test_basic_arithmetic():
    assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)
    assert compose(P(0, 0, 1), P(1, 1)) == P(1, 2, 1)
    assert (P(0, 0, 0, 1) + P(0, 0, 0, -1)).is_zero()


def test_degree_of_product():
    f, g = P(1, 2, 3), P(-1, 0, 0, 5)
    assert (f * g).degree() == f.degree() + g.degree()


def test_zero_degree_sentinel():
    assert UniPoly(()).degree() == -1


def test_gcd_examples():
    assert gcd(P(0, 0, 0, 1), P(0, 0, 3)) == P(0, 0, 1)
    assert gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)
    f = P(3, 0, 0, 2, 0, 0, 1)       # t^6 + 2t^3 + 3
    g = P(0, 0, 6, 0, 0, 6)          # 6t^5 + 6t^2
    assert gcd(f, g).degree() == 0
    assert resultant(f, g) != 0


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError):
        gcd(UniPoly(()), UniPoly(()))


def test_resultant_examples():
    assert resultant(P(-1, 1), P(1, 1)) == 2
    assert resultant(P(1, 0, 1), P(0, 1)) == 1
    assert resultant(P(-2, 0, 1), P(-2, 0, 1)) == 0


def test_discriminant_examples():
    assert discriminant(P(1, 1, 1)) == -3
    assert discriminant(P(0, 0, 0, 1)) == 0
    # brute-force route: disc = (-1)^3 Res(f, f') / lc
    f = P(1, 0, 0, 1)
    assert discriminant(f) == -resultant(f, derivative(f))
    assert discriminant(f) == -27


def test_discriminant_constant_rejected():
    with pytest.raises(ValueError):
        discriminant(P(3))


def test_separability():
    # (c, b, a) for c + b·t + a·t²
    assert is_separable((-2, 0, 1))
    assert not is_separable((1, 2, 1))
    assert not is_separable((0, 0, -3))
    assert is_separable((0, 1, 1))


def test_rational_roots_worked_examples():
    # (x + 1)²(4x − 17): the double root −1 comes back once
    f = P(-17, -30, -9, 4)
    assert rational_roots(f) == [Fraction(-1), Fraction(17, 4)]
    assert rational_roots(P(1, 0, 0, 1)) == [Fraction(-1)]
    assert rational_roots(P(2, 0, 0, 1)) == []


def test_rational_roots_zero_constant():
    # t²(t − 1): the double root 0 comes back once
    assert rational_roots(P(0, 0, -1, 1)) == [Fraction(0), Fraction(1)]


def test_squarefree_part():
    assert squarefree_part(P(0, 0, 1)) == P(0, 1)
    f = P(-1, 1) * P(-1, 1) * P(2, 1)
    assert squarefree_part(f) == (P(-1, 1) * P(2, 1)).monic()
    g = P(2, 0, 0, 0, 0, 0, 1)
    assert squarefree_part(g) == g.monic()


def test_squarefree_factorization_budget():
    f = (P(-1, 1) ** 3) * (P(1, 1) ** 2) * P(5, 1)
    parts = squarefree_factorization(f)
    assert sum(g.degree() * m for g, m in parts) == f.degree()
    rebuilt = RefPoly.constant(1)
    for g, m in parts:
        rebuilt = rebuilt * RefPoly.of(g) ** m
    assert rebuilt == f.monic()


def squarefree_part_by_fractions(f: UniPoly) -> UniPoly:
    """Reference squarefree part in Q[t]: f / gcd(f, f′), made monic."""
    if f.degree() == 0:
        return RefPoly.constant(1)
    q, r = poly_divmod(f, gcd(f, derivative(f)))
    assert r.is_zero()
    return q.monic()


factor_rat = st.fractions(min_value=-9, max_value=9, max_denominator=8)


@st.composite
def planted_powers(draw):
    """c·∏ hᵢ^eᵢ for up to four random factors of degree 1 to 3 and
    exponents 1 to 4, so repeated and shared factors are common."""
    f = RefPoly.constant(draw(factor_rat.filter(bool)))
    for _ in range(draw(st.integers(0, 4))):
        h = draw(st.lists(factor_rat, min_size=2, max_size=4).map(RefPoly))
        if h.degree() >= 1:
            f = f * h ** draw(st.integers(1, 4))
    return f


@settings(max_examples=300, deadline=None)
@given(planted_powers())
def test_squarefree_matches_fraction_reference(f):
    assert squarefree_factorization(f) == squarefree_factorization_by_fractions(f)
    assert squarefree_part(f) == squarefree_part_by_fractions(f)


def test_squarefree_matches_fraction_reference_examples():
    cases = [
        P(7),
        P(Fraction(-2, 3), 1),
        P(0, 0, 0, 0, 1),
        (P(-1, 1) ** 4) * (P(1, 1) ** 4) * P(0, 1),
        (P(Fraction(1, 2), 0, 3) ** 3) * (P(-5, 2) ** 2) * P(Fraction(-1, 7), 0, 0, 1),
        P(3, 0, 0, 2, 0, 0, 1) ** 2,
    ]
    for f in cases:
        assert squarefree_factorization(f) == squarefree_factorization_by_fractions(f)
        assert squarefree_part(f) == squarefree_part_by_fractions(f)


int_coeffs = st.lists(st.integers(-50, 50), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(int_coeffs, int_coeffs.filter(lambda g: g[-1] != 0 and math.gcd(*g) == 1), int_coeffs)
def test_int_exact_div_raises_on_non_divisor(q, g, r):
    f = int_mul(q, g)
    assert int_exact_div(f, g) == q
    r = r[:len(g) - 1]  # a remainder of degree below g's
    if any(r):
        f = [a + b for a, b in zip(f, r + [0] * (len(f) - len(r)))]
        with pytest.raises(InvariantError, match="does not divide"):
            int_exact_div(f, g)


def test_int_exact_div_examples():
    assert int_exact_div([-1, 0, 1], [-1, 1]) == [1, 1]
    assert int_exact_div([], [2, 1]) == []
    for f, g in (([1, 0, 1], [-1, 1]), ([1, 2], [0, 3]), ([1, 1], [1, 1, 1]), ([3], [2])):
        with pytest.raises(InvariantError):
            int_exact_div(f, g)


small_rat = st.fractions(min_value=-5, max_value=5, max_denominator=3)
small_poly = st.lists(small_rat, min_size=1, max_size=4).map(RefPoly)


def schoolbook_product(f: UniPoly, g: UniPoly) -> UniPoly:
    """Reference product: one Fraction multiply-add per coefficient pair."""
    if f.is_zero() or g.is_zero():
        return RefPoly(())
    out = [Fraction(0)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return RefPoly(out)


# zero coefficients, negative values and denominators up to 2^64
wide_rat = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10 ** 9, max_value=10 ** 9, max_denominator=2 ** 64),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(wide_rat, max_size=8).map(RefPoly), st.lists(wide_rat, max_size=8).map(RefPoly))
def test_product_matches_schoolbook(f, g):
    assert f * g == schoolbook_product(f, g)


def fraction_horner(f: UniPoly, t) -> Fraction:
    """Reference evaluation: Horner's rule in Fraction arithmetic."""
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * t + c
    return acc


@settings(max_examples=200, deadline=None)
@given(st.lists(wide_rat, max_size=8).map(RefPoly),
       st.one_of(st.integers(-10 ** 12, 10 ** 12), wide_rat))
def test_call_matches_fraction_horner(f, t):
    got = f(t)
    assert type(got) is Fraction and got == fraction_horner(f, t)


def test_call_matches_fraction_horner_examples():
    big = Fraction(-(3 ** 80), 2 ** 127 - 1)
    polys = [RefPoly(()), P(7), P(Fraction(-2, 3)), P(0, 0, 0, 1),
             P(Fraction(1, 2), 0, Fraction(-5, 7), 3), P(big, Fraction(1, 2 ** 61 - 1))]
    points = [0, 1, -1, -3, Fraction(-1, 2), Fraction(7, 2 ** 64 + 1), big]
    for f in polys:
        for t in points:
            got = f(t)
            assert type(got) is Fraction and got == fraction_horner(f, t)


def test_product_matches_schoolbook_examples():
    big = Fraction(-(3 ** 80), 2 ** 127 - 1)
    cases = [
        (RefPoly(()), P(1, 2)),
        (P(0, 0, 5), RefPoly(())),
        (P(0, Fraction(1, 3), 0, -2), P(Fraction(-7, 6), 0, 0, Fraction(1, 10 ** 30))),
        (P(big, 0, Fraction(5, 2 ** 61 - 1)), P(Fraction(1, 2 ** 89 - 1), -big)),
        (P(Fraction(1, 2), Fraction(1, 2)), P(2, -2)),
    ]
    for f, g in cases:
        assert f * g == schoolbook_product(f, g)
        assert g * f == schoolbook_product(f, g)


@settings(max_examples=40, deadline=None)
@given(small_poly, st.integers(0, 6))
def test_power_is_repeated_product(f, n):
    expected = RefPoly.constant(1)
    for _ in range(n):
        expected = expected * f
    assert f ** n == expected


@settings(max_examples=40, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_gcd_divides_both(f, g, h):
    # build pairs with a known common factor h
    a, b = f * h, g * h
    if a.is_zero() and b.is_zero():
        return
    d = gcd(a, b)
    for p in (a, b):
        if not p.is_zero():
            assert poly_divmod(p, d)[1].is_zero()
    if not h.is_zero() and h.degree() >= 1 and not a.is_zero() and not b.is_zero():
        assert poly_divmod(d, h.monic())[1].is_zero()


@settings(max_examples=40, deadline=None)
@given(small_poly, small_poly)
def test_resultant_vanishes_iff_common_root(f, g):
    if f.is_zero() or g.is_zero() or f.degree() < 1 or g.degree() < 1:
        return
    assert (resultant(f, g) == 0) == (gcd(f, g).degree() >= 1)


@settings(max_examples=30, deadline=None)
@given(small_poly)
def test_rational_roots_verify_by_substitution(f):
    if f.is_zero():
        return
    roots = rational_roots(f)
    assert len(set(roots)) == len(roots)
    for r in roots:
        assert f(r) == 0


def by_root_key(roots: Iterable[Fraction]) -> List[Fraction]:
    """The distinct roots, sorted by (numerator, denominator)."""
    return sorted(set(roots), key=lambda r: (r.numerator, r.denominator))


def rational_roots_by_fractions(f: UniPoly) -> List[Fraction]:
    """Reference root finder: 0 when t divides f, and every divisor
    candidate ±p/q of what is left, evaluated in Fraction."""
    f = RefPoly.of(f)
    roots = set()
    while f[0] == 0 and f.degree() >= 1:
        f = RefPoly(f.coeffs[1:])
        roots.add(Fraction(0))
    if f.degree() >= 1:
        den = math.lcm(*(c.denominator for c in f.coeffs))
        ics = [int(c * den) for c in f.coeffs]
        roots |= {cand for p in divisors(abs(ics[0])) for q in divisors(abs(ics[-1]))
                  for cand in (Fraction(p, q), Fraction(-p, q)) if f(cand) == 0}
    return by_root_key(roots)


planted_root = st.fractions(min_value=-5, max_value=5, max_denominator=3)
wide_root = st.builds(Fraction, st.integers(-2 ** 32, 2 ** 32), st.integers(1, 2 ** 32))
nonzero_scale = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(planted_root, wide_root), st.integers(1, 3)), max_size=4),
    st.integers(0, 2),
    small_poly.filter(lambda g: not g.is_zero()),
    nonzero_scale,
)
def test_rational_roots_match_fraction_oracle(planted, zero_mult, cofactor, scale):
    # planted simple and repeated roots, small or with numerator and
    # denominator up to 2³², a root at 0 of multiplicity zero_mult, and a
    # cofactor that may add roots of its own, up to degree 12.  The roots of f
    # are the planted ones and the cofactor's, which has few divisor pairs;
    # each comes back once.
    f = cofactor.scale(scale) * P(0, 1) ** zero_mult
    for r, m in planted:
        f = f * P(-r, 1) ** m
    assume(f.degree() <= 12)
    planted_roots = [r for r, _ in planted] + [Fraction(0)] * (zero_mult > 0)
    assert rational_roots(f) == by_root_key(rational_roots_by_fractions(cofactor) + planted_roots)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(planted_root, st.integers(1, 3)), max_size=4),
    st.integers(0, 2),
    st.lists(st.integers(-30, 30), min_size=1, max_size=6).filter(any),
    st.integers(-6, 6).filter(bool),
)
def test_int_roots_match_fraction_oracle(planted, zero_mult, cofactor, scale):
    # the integer kernel on integer polynomials that need not be primitive:
    # planted roots p/q as factors (q·x − p)^m, a root at 0 of multiplicity
    # zero_mult, and a cofactor that may add roots of its own; each distinct
    # root comes back once
    cs = [scale * c for c in cofactor]
    while cs[-1] == 0:
        cs.pop()
    for r, m in planted:
        for _ in range(m):
            cs = int_mul(cs, [-r.numerator, r.denominator])
    cs = [0] * zero_mult + cs
    assume(len(cs) <= 13)
    expected = rational_roots_by_fractions(RefPoly(cs))
    assert int_roots(cs) == [(r.numerator, r.denominator) for r in expected]
    assert rational_roots(UniPoly(cs)) == expected


def test_int_roots_lifts_nothing_without_residue_roots(monkeypatch):
    # x² − 2 and x² + x + 1 have no root mod 5, and x³ − 2 (a root mod 5)
    # none mod 7: each is decided with no lift, which begins by taking the
    # squarefree part; a root at 0 is kept, once
    def refuse(*args):
        raise AssertionError("int_roots looked for roots to lift")

    monkeypatch.setattr(poly, "squarefree_split", refuse)
    assert int_roots([-2, 0, 1]) == int_roots([1, 1, 1]) == int_roots([-2, 0, 0, 1]) == []
    assert int_roots([0, 0, -2, 0, 1]) == [(0, 1)]
    assert int_roots([0, 5, 0, 0, 7 * 13 ** 3]) == [(0, 1)]
    assert poly.SIEVE_PRIMES == (5, 7, 11, 13, 17, 19, 23)


def test_depressed_root_tables_match_every_monic_cubic():
    # every monic cubic g = x³ + g₂x² + g₁x + g₀ mod every sieve prime
    # (Σℓ³ = 27,935 cubics), read as int_roots reads it: with s = g₂/3, the
    # entry of y³ + p·y + q, p = g₁ − g₂·s, q = g₀ − g₁·s + 2s³, holds the
    # roots r + s of g, and it is negative exactly when some root is multiple
    for ell in poly.SIEVE_PRIMES:
        masks, third = poly._depressed_roots(ell)
        assert len(masks) == ell * ell and 3 * third % ell == 1
        for g2, g1, g0 in itertools.product(range(ell), repeat=3):
            g = [g0, g1, g2, 1]
            s = g2 * third % ell
            mask = masks[(g1 - g2 * s) % ell * ell + (g0 - g1 * s + 2 * s ** 3) % ell]
            roots = [r for r in range(ell) if poly.eval_mod(g, r, ell) == 0]
            assert abs(mask) == sum(1 << (r + s) % ell for r in roots)
            assert (mask >= 0) == all(poly.eval_mod(poly.deriv(g), r, ell) for r in roots)


def test_int_roots_lifts_a_cubic_from_its_table_residues(monkeypatch):
    # (x − 1)(x − 2)(x + 3) has a double root mod 5 and three simple roots
    # mod 7, which the lift takes from the table; (x − 1)²(x + 2) has a
    # double root mod every prime, so its squarefree part is lifted
    splits = []
    squarefree_split = poly.squarefree_split
    monkeypatch.setattr(poly, "squarefree_split",
                        lambda cs: splits.append(cs) or squarefree_split(cs))
    assert int_roots(int_mul(int_mul([-1, 1], [-2, 1]), [3, 1])) == [(-3, 1), (1, 1), (2, 1)]
    assert splits == []
    assert int_roots(int_mul(int_mul([-1, 1], [-1, 1]), [2, 1])) == [(-2, 1), (1, 1)]
    assert splits == [[2, -3, 0, 1]]


wide = st.integers(-2 ** 64, 2 ** 64)
small = st.integers(-2 ** 5, 2 ** 5)


@st.composite
def cubics(draw):
    """Integer cubics with a leading coefficient other than ±1: four
    coefficients drawn up to 2⁶⁴, the first of them 0 for a root at 0; or
    a product of linear factors a·x + b, two with |a|, |b| ≤ 2⁵ and one with
    |b| ≤ 2⁶⁴, where the first repeats as a planted double or triple root.
    The oracle tries every divisor pair of the lowest and leading nonzero
    coefficients, so cubics with more than 20,000 pairs are left out."""
    shape = draw(st.sampled_from(["wide", "zero", "simple", "double", "triple"]))
    if shape in ("wide", "zero"):
        cs = [0 if shape == "zero" else draw(wide), draw(wide), draw(wide), draw(wide)]
    else:
        first = draw(st.tuples(small.filter(bool), small))
        factors = [first, first if shape != "simple" else draw(st.tuples(small.filter(bool), small)),
                   first if shape == "triple" else draw(st.tuples(small.filter(bool), wide))]
        cs = [1]
        for a, b in factors:
            cs = int_mul(cs, [b, a])
    assume(cs[-1] not in (0, 1, -1))
    low = next(c for c in cs if c)
    assume(divisor_count(abs(low)) * divisor_count(abs(cs[-1])) <= 20000)
    return cs


@settings(max_examples=200, deadline=None)
@given(cubics())
def test_int_roots_of_cubics_match_fraction_oracle(cs):
    # the cubics go through the residue tables: each distinct root comes
    # back once, including a multiple root lifted from a squarefree part
    expected = rational_roots_by_fractions(RefPoly(cs))
    assert int_roots(cs) == [(r.numerator, r.denominator) for r in expected]


def test_int_roots_inverts_once_per_root_mod_ell(monkeypatch):
    # (x − 3)²(7x + 2)(x − 10³⁰ − 1): the lift starts at ℓ = 5, where the
    # squarefree part has three simple roots, and squares the modulus past
    # 2B, B > 10⁶⁰.  Each root carries h′(r)⁻¹ through the squarings, so the
    # only inverses are one per root mod 5, besides the one mod
    # REDUCTION_PRIME of the squarefree part's gcd.
    big = 10 ** 30 + 1
    cs = int_mul(int_mul([-3, 1], [-3, 1]), int_mul([2, 7], [-big, 1]))
    moduli = []
    monkeypatch.setattr(poly, "pow", lambda *args: moduli.append(args[2]) or pow(*args),
                        raising=False)
    assert int_roots(cs) == [(-2, 7), (3, 1), (big, 1)]
    assert sorted(moduli) == [5, 5, 5] + [REDUCTION_PRIME] * (len(moduli) - 3)


def test_int_roots_refuses_zero():
    with pytest.raises(ValueError, match="zero polynomial"):
        int_roots([])
    with pytest.raises(ValueError, match="zero polynomial"):
        rational_roots(UniPoly(()))


thirty_bit_prime = st.integers(2 ** 29, 2 ** 30 - 2 ** 10).map(nextprime)


@settings(max_examples=40, deadline=None)
@given(
    thirty_bit_prime,
    thirty_bit_prime,
    st.lists(st.integers(-50, 50), max_size=10),
    st.integers(1, 60),
    st.one_of(st.none(), st.integers(1, 12)),
)
def test_rational_roots_semiprime_constant_term(p1, p2, middle, lc, den):
    # constant term ±p1·p2, both 30-bit primes, up to degree 12; with den
    # given, p1/den is a planted root
    if den is None:
        f = RefPoly([p1 * p2] + middle + [lc])
    else:
        f = RefPoly([p2] + middle + [lc]) * P(-p1, den)
    assert rational_roots(f) == rational_roots_by_fractions(f)
    if den is not None:
        assert Fraction(p1, den) in rational_roots(f)


def test_rational_roots_match_fraction_oracle_examples():
    cases = [
        P(-17, -30, -9, 4),
        P(0, 0, 0, 5),
        P(Fraction(1, 6), Fraction(-5, 6), 1),
        (P(Fraction(-2, 3), 1) ** 3) * (P(Fraction(5, 4), 1) ** 2) * P(7, 1) * P(0, 1),
        P(2 ** 61 - 1, 0, -(3 ** 20)),
    ]
    for f in cases:
        assert rational_roots(f) == rational_roots_by_fractions(f)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rat, min_size=3, max_size=3).map(RefPoly))
def test_separable_iff_discriminant_nonzero(f):
    if f.degree() < 2:
        return
    assert is_separable(f.cs) == (discriminant(f) != 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(1, 50), st.integers(-50, 50).filter(bool),
       st.integers(-50, 50), st.booleans())
def test_quadratic_separability_matches_int_gcd(p, q, k, m, planted):
    # b² ≠ 4ac against the gcd route, on k·(q·t − p)² (a planted double root)
    # or k·(q·t − p)·(t − m), k of either sign
    root = [-p, q]
    cs = int_mul([k * c for c in root], root if planted else [-m, 1])
    assert is_separable(cs) == (len(int_gcd(cs, poly.deriv(cs))) == 1)
    assert is_separable(cs) == (not planted and m * q != p)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        P(1, 1) ** -1


def assert_normalised(f: UniPoly) -> None:
    """f is held as integer numerators over one positive denominator, in
    lowest terms, with no trailing zero, and its Fractions rebuild it."""
    assert all(type(c) is int for c in f.cs) and type(f.den) is int
    assert f.den >= 1 and math.gcd(f.den, *f.cs) == 1
    assert not f.cs or f.cs[-1] != 0
    assert RefPoly(f.coeffs) == f


# zeros, trailing zeros included, and a spread of denominators
diff_rat = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4),
)
diff_coeffs = st.lists(diff_rat, max_size=6)


@settings(max_examples=300, deadline=None)
@given(diff_coeffs, diff_coeffs, diff_rat, st.integers(-12, 12).filter(bool),
       st.integers(0, 4), st.integers(0, 3), st.one_of(st.integers(-99, 99), diff_rat))
def test_unipoly_matches_fraction_tuples(a, b, c, den, n, pad, t):
    fa, fb = frac_trim(a), frac_trim(b)
    f, g = RefPoly(a), RefPoly(b)
    cases = [
        (f, fa),
        (RefPoly(a, den), frac_scale(fa, Fraction(1, den))),
        (f + g, frac_add(fa, fb)),
        (f - g, frac_sub(fa, fb)),
        (f * g, frac_mul(fa, fb)),
        (f.scale(c), frac_scale(fa, c)),
        (f ** n, frac_pow(fa, n)),
        (derivative(f), frac_derivative(fa)),
        (f.monic(), frac_monic(fa)),
        (f.reverse(), frac_reverse(fa, len(fa) - 1)),
        (f.reverse(f.degree() + pad), frac_reverse(fa, len(fa) - 1 + pad)),
    ]
    if fa or fb:
        cases.append((gcd(f, g), frac_gcd(fa, fb)))
    for got, want in cases:
        assert_normalised(got)
        assert got.coeffs == want
    assert f(t) == frac_value(fa, Fraction(t))


# -- int_gcd: coprimality certified mod REDUCTION_PRIME, else the PRS ----------

PRIME = REDUCTION_PRIME


def trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def up_to_sign(f: list, g: list) -> bool:
    return f == g or f == [-c for c in g]


# small, up to 2⁶⁴, and near multiples of p = REDUCTION_PRIME, so that
# residues collide and p divides some leading coefficients
gcd_coeff = st.one_of(
    st.integers(-9, 9),
    st.integers(-2 ** 64, 2 ** 64),
    st.builds(lambda k, r: k * PRIME + r, st.integers(-3, 3), st.integers(-2, 2)),
)
gcd_poly = st.lists(gcd_coeff, max_size=5).map(trim)


@st.composite
def gcd_pairs(draw):
    """Trimmed (a, b), each t^k·u·h: a planted common factor h, planted
    powers of t, a constant or a zero operand, or none of these."""
    kind = draw(st.sampled_from(["random", "common", "t powers", "common and t powers",
                                 "constant", "zero"]))
    a, b = draw(gcd_poly), draw(gcd_poly)
    if "common" in kind:
        h = draw(gcd_poly.filter(lambda h: len(h) > 1))
        a, b = int_mul(a, h), int_mul(b, h)
    if "t powers" in kind:
        a = [0] * draw(st.integers(0, 4)) + a if a else a
        b = [0] * draw(st.integers(0, 4)) + b if b else b
    if kind == "constant":
        a = [draw(gcd_coeff.filter(bool))]
    elif kind == "zero":
        a = []
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=400, deadline=None)
@given(gcd_pairs())
def test_int_gcd_matches_prs(pair):
    a, b = pair
    assert up_to_sign(int_gcd(a, b), int_gcd_by_prs(a, b))


def pseudo_remainders(monkeypatch) -> list:
    """A list that gets one entry per _int_prem call from now on."""
    calls = []
    real = poly._int_prem
    monkeypatch.setattr(poly, "_int_prem", lambda f, g: calls.append(1) or real(f, g))
    return calls


@pytest.mark.parametrize("a, b, expected", [
    ([1, 1], [1 + PRIME, 1], [1]),  # t + 1 and t + 1 + p: coprime, equal mod p
    ([1, 0, PRIME], [1, 1], [1]),  # p divides the leading coefficient of p·t² + 1
    ([0, 1, 1], [1 + PRIME, 1], [1]),  # t(t + 1) and t + 1 + p: t-free parts equal mod p
    # (p·t + 1)(t + 2) and (p·t + 1)(t + 3): coprime mod p, where the common
    # factor drops to 1, so only the leading-coefficient test keeps it
    ([2, 2 * PRIME + 1, PRIME], [3, 3 * PRIME + 1, PRIME], [1, PRIME]),
    ([2, 3, 1], [-3, -2, 1], [1, 1]),  # (t + 1)(t + 2) and (t + 1)(t − 3)
])
def test_int_gcd_falls_back_to_prs(monkeypatch, a, b, expected):
    calls = pseudo_remainders(monkeypatch)
    assert up_to_sign(int_gcd(a, b), expected)
    assert calls, "the pseudo-remainder sequence did not run"


@pytest.mark.parametrize("a, b, expected", [
    ([0, 1], [PRIME, 1], [1]),  # t and t + p share t mod p, but stripping t leaves 1
    ([0, 0, 1, 1], [0, 2, 0, 5], [0, 1]),  # t²(t + 1) and t(5t² + 2)
    ([0, 0, 0, 7], [0, 0, 4], [0, 0, 1]),  # 7t³ and 4t²
    ([3], [1, 2, 3], [1]),
    ([5, 0, 0, 1], [0, 0, 3], [1]),  # t³ + 5 and its derivative
    ([2 ** 64 + 1, 3, 2 ** 63], [1, -(2 ** 62), 7], [1]),
])
def test_coprime_pairs_take_no_pseudo_remainder(monkeypatch, a, b, expected):
    calls = pseudo_remainders(monkeypatch)
    assert int_gcd(a, b) == expected
    assert calls == []
    assert up_to_sign(int_gcd_by_prs(a, b), expected)
