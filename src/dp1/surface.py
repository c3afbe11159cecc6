"""The degree-one del Pezzo family y² = x³ + a₄(f(z/w))·x·w⁴ + a₆(f(z/w))·w⁶.

Covers construction from the nine rational parameters, the lift of a
rational point to a canonical weighted point by its Weierstrass denominators,
membership, the exact smoothness decision for the branch sextic, a mod-p
exhaustive oracle cross-checking it over the points of P¹(F_p), and the
degree-12 discriminant bookkeeping for singular fibers.

A = α(f) and B = β(f) for α = a·u + b and β = c·u² + d·u + e, so the
surface is the base change along u = f(t) of a rational elliptic surface
over the u-line.  Smoothness of the t chart is decided there, on
polynomials of degree at most 4 in u; the point at infinity s = 0 is
singular iff c = 0.  The t and s charts' gcds in ℤ[t] run only where a
singular surface's witnesses are read (``singular_witnesses``); the s
chart's A and B are the t chart's integer numerators, padded to degrees 4
and 6 and reversed, and Δ is built on the same numerators.  The mod-p
oracle shares with the decision only the evaluation A = α(f), B = β(f): it
reduces α, β and f mod p once and scans P¹(F_p) point by point, taking each
fiber's A, B and their t-derivatives from those residues, with none of the
u-line's δ, γ, D or gcds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import poly
from .elliptic import ECPoint, FiberCurve, on_curve
from .poly import UniPoly
from .rational import (MAX_DIGITS, InvariantError, Pair, format_rational, parse_rational, record,
                       reduced)


class DegenerateSurfaceError(ValueError):
    """The discriminant form vanishes identically (degenerate family member)."""


@record
class SurfaceParams:
    """The nine rational parameters (a,b,c,d,e,f0..f3) of the family."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f0: Fraction
    f1: Fraction
    f2: Fraction
    f3: Fraction

    def __post_init__(self):
        if not all(isinstance(v, Fraction) for v in self):
            return type(self)(*map(Fraction, self))
        if self.f3 == 0:
            raise ValueError("f3 must be nonzero (f must be a cubic)")

    @staticmethod
    def from_json(obj) -> "SurfaceParams":
        """Read {"a": .., "e": .., "f": [f0, f1, f2, f3]}, every value a
        rational string such as "-3/2"; JSON numbers are refused, since a
        JSON float is binary floating point."""
        if not isinstance(obj, dict):
            raise ValueError("surface file must hold a JSON object")
        f = obj.get("f")
        if not isinstance(f, list) or len(f) != 4:
            raise ValueError("surface file must list f as [f0,f1,f2,f3]")
        vals = [obj.get(k) for k in ("a", "b", "c", "d", "e")] + f
        if not all(isinstance(v, str) for v in vals):
            raise ValueError('surface parameters a..e and f0..f3 must be strings such as "-3/2"')
        return SurfaceParams(*map(parse_rational, vals))

    def to_json(self) -> dict:
        out = {k: format_rational(getattr(self, k)) for k in ("a", "b", "c", "d", "e")}
        out["f"] = [format_rational(getattr(self, k)) for k in ("f0", "f1", "f2", "f3")]
        return out


def _primes_below(n: int) -> List[int]:
    """The primes below n ≥ 2, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


# Lifting finds the primes of a denominator by trial division below this bound.
TRIAL_BOUND = 1000
_SMALL_PRIMES = _primes_below(TRIAL_BOUND)
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _iroot(n: int, k: int) -> int:
    """⌊n^(1/k)⌋ for n ≥ 1 and k = 2 or 3."""
    if k == 2:
        return math.isqrt(n)
    r = 1 << -(-n.bit_length() // 3)  # integer Newton from above
    while (s := (2 * r + n // (r * r)) // 3) < r:
        r = s
    return r


def _large_base(n: int) -> int:
    """What is left of n ≥ 1 past its primes below TRIAL_BOUND, taken to its
    exact square or cube root while it has one; below TRIAL_BOUND² that is
    1 or a prime."""
    while (g := math.gcd(n, _PRIMORIAL)) > 1:
        n //= g
    while n > 1 and ((r := _iroot(n, 2)) ** 2 == n or (r := _iroot(n, 3)) ** 3 == n):
        n = r
    return n


def _lift_scale(dx: int, dy: int, *near: int) -> int:
    """The least λ ≥ 1 with dx | λ² and dy | λ³; the numbers ``near`` may
    share primes with dx and dy.

    Each prime found goes into λ as often as its valuations in dx and dy
    need.  Trial division finds the primes below TRIAL_BOUND.  Past them, a
    _large_base below TRIAL_BOUND² of dx, dy or a number of ``near`` is a
    prime.  What is then left of dx and dy, as n with k = 2 and 3, is 1, p
    or p·q below TRIAL_BOUND³ and needs n in λ; above, it needs n's exact
    k-th root, where there is one.  Each of these divides λ, so their lcm c
    is λ's last part when it clears both, and the lift is refused
    otherwise.  On a point of the family what is left is c² and c³ at every
    prime where the Weierstrass coefficients are integral (Silverman, AEC
    VII.1), so only primes ≥ TRIAL_BOUND of parameter denominators can
    refuse it.
    """
    lam, primes = 1, iter(_SMALL_PRIMES)
    while dx > 1 or dy > 1:
        p = next(primes, 0) or next((b for b in map(_large_base, (dx, dy) + near)
                                     if 1 < b < TRIAL_BOUND ** 2 and (dx % b == 0 or dy % b == 0)), 0)
        if not p:
            break
        while dx % p == 0 or dy % p == 0:  # one more p in λ
            lam *= p
            dx //= math.gcd(dx, p * p)
            dy //= math.gcd(dy, p ** 3)
    c = 1
    for n, k in ((dx, 2), (dy, 3)):
        if n < TRIAL_BOUND ** 3:
            c = math.lcm(c, n)
        elif (r := _iroot(n, k)) ** k == n:
            c = math.lcm(c, r)
    if (c * c) % dx or c ** 3 % dy:
        raise ValueError(f"cannot lift to a weighted point: past the primes below the trial-division "
                         f"bound {TRIAL_BOUND}, exact roots do not decide the least scale for the "
                         f"scaled denominators {dx} of x and {dy} of y")
    return lam * c


# the least integer of more than MAX_DIGITS digits, which str() refuses
_DIGITS_BOUND = 10 ** MAX_DIGITS


@record
class WPoint:
    """A point of P(2,3,1,1) in canonical integer form (weights 2,3,1,1).

    Canonical means no prime λ divides (x,y,z,w) as (λ²,λ³,λ,λ), and the
    sign is fixed so that the first nonzero of (w, z) is positive, else y.
    ``from_fractions`` lifts a rational quadruple by its Weierstrass
    denominators, and is exact wherever it answers.
    """

    x: int
    y: int
    z: int
    w: int

    @staticmethod
    def from_fractions(x: Fraction, y: Fraction, z: Fraction, w: Fraction) -> "WPoint":
        """Scale a rational quadruple into canonical integer form.

        (z, w) scales to the coprime (p, q) with t = z/w = p/q and q > 0, or
        to (1, 0) when w = 0, and (x, y) with it to (X, Y).  With λ the least
        integer that makes λ²X and λ³Y integral (``_lift_scale``),
        [λ²X : λ³Y : λp : λq] is canonical: a weighted content r divides λ,
        and λ/r would be a smaller such integer.  λ is found for every point
        of every surface whose parameter denominators have no prime ≥
        TRIAL_BOUND.  Past that, a point of a surface with such a prime, or
        a quadruple, may be refused with a ValueError where the primes of
        den X and den Y that trial division leaves are not decided.  When
        z = w = 0, every member of the family has y² = x³, and the point is
        [1:1:0:0].
        """
        if not (z or w):
            if x and y * y == x ** 3:
                return WPoint(1, 1, 0, 0)
            raise ValueError(f"[{x}:{y}:0:0] is on no member of the family, "
                             "where z = w = 0 needs y^2 = x^3 != 0")
        zn, zd, wn, wd = z.numerator, z.denominator, w.numerator, w.denominator
        # k/g scales (z, w) to (P/g, Q/g): coprime, and the first nonzero of Q, P positive
        P, Q, k = zn * wd, zd * wn, zd * wd
        g = math.gcd(P, Q)
        if (wn or zn) < 0:
            g = -g
        X = Fraction(x.numerator * k * k, x.denominator * g * g)
        Y = Fraction(y.numerator * k ** 3, y.denominator * g ** 3)
        lam = _lift_scale(X.denominator, Y.denominator, x.denominator, y.denominator, zd, wd, abs(g))
        return WPoint(X.numerator * (lam * lam // X.denominator),
                      Y.numerator * (lam ** 3 // Y.denominator), lam * P // g, lam * Q // g)

    @staticmethod
    def from_affine(t: Pair, x: Pair, y: Pair) -> "WPoint":
        """Lift a Weierstrass point (x, y) on fiber t, all Pairs, into
        P(2,3,1,1).

        The affine model lives in the w = 1 chart, so the rational quadruple
        is (x, y, t, 1) before weighted scaling.
        """
        return WPoint.from_fractions(Fraction(*x), Fraction(*y), Fraction(*t), Fraction(1))

    @staticmethod
    def parse(s: str) -> "WPoint":
        """The canonical point of the text "[x:y:z:w]", refused when it or its
        affine (t, x, y) has an integer of more than MAX_DIGITS digits, which
        no output could print."""
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"expected [x:y:z:w], got {s!r}")
        parts = s[1:-1].split(":")
        if len(parts) != 4:
            raise ValueError(f"expected four coordinates, got {s!r}")
        P = WPoint.from_fractions(*map(parse_rational, parts))
        ints = [P.x, P.y, P.z, P.w]
        if P.w:
            for v in P.affine():
                ints += v
        if any(abs(v) >= _DIGITS_BOUND for v in ints):
            raise ValueError(f"the seed's point or its affine (t, x, y) has an integer of more than "
                             f"{MAX_DIGITS:,} digits, which cannot be printed")
        return P

    def __str__(self) -> str:
        return f"[{self.x}:{self.y}:{self.z}:{self.w}]"

    def affine(self) -> Tuple[Pair, Pair, Pair]:
        """(t, x, y) = (z/w, x/w², y/w³) as Pairs."""
        w = self.w
        if w == 0:
            raise ValueError("affine coordinates undefined for w = 0")
        return reduced(self.z, w), reduced(self.x, w * w), reduced(self.y, w ** 3)


def _trimmed(cs: Sequence[int]) -> Tuple[int, ...]:
    """cs without its trailing zeros."""
    k = len(cs)
    while k and cs[k - 1] == 0:
        k -= 1
    return tuple(cs[:k])


class Surface:
    """An immutable member of the family, with its chart polynomials.

    alpha = (r0, r1) and beta = (s0, s1, s2) are the integer numerators,
    over the one denominator ab_den, of α = a·u + b and β = c·u² + d·u + e;
    params_den is the lcm of the nine parameter denominators.
    A_t = α(f) and B_t = β(f) are the Weierstrass coefficients
    as polynomials in t = z/w.  Their counterparts in the chart at infinity
    s = w/z are the reversals of their numerators padded to degrees 4 and 6,
    which ``singular_witnesses`` reads for a singular surface.
    """

    def __init__(self, params: SurfaceParams):
        p = self.params = params
        # f = F/n with n the lcm of f0..f3's denominators, in lowest terms: a
        # prime's whole power in n is that of some fi's denominator, and
        # prime to that Fi
        n = math.lcm(p.f0.denominator, p.f1.denominator, p.f2.denominator, p.f3.denominator)
        F0, F1, F2, F3 = F = [v.numerator * (n // v.denominator) for v in (p.f0, p.f1, p.f2, p.f3)]
        self.f = UniPoly(F, n)
        # α(u) = a·u + b and β(u) = c·u² + d·u + e as integer numerators over
        # one denominator m; A = α(f) and B = β(f) are
        # (r0·n + r1·F)/(m·n) and (s0·n² + s1·n·F + s2·F²)/(m·n²) in ℤ[t]
        m = self.ab_den = math.lcm(*(v.denominator for v in (p.a, p.b, p.c, p.d, p.e)))
        # the lcm of all nine parameter denominators
        self.params_den = math.lcm(m, n)
        r0, r1, s0, s1, s2 = (v.numerator * (m // v.denominator) for v in (p.b, p.a, p.e, p.d, p.c))
        self.alpha, self.beta = (r0, r1), (s0, s1, s2)
        self.A_t = UniPoly((r0 * n + r1 * F0, r1 * F1, r1 * F2, r1 * F3), m * n)
        # F² = (F0², 2F0F1, F1² + 2F0F2, 2F0F3 + 2F1F2, F2² + 2F1F3, 2F2F3, F3²);
        # k = s1·n + 2·s2·F0 collects the terms of B's t¹..t³ coefficients in Fi
        k = s1 * n + 2 * s2 * F0
        self.B_t = UniPoly((n * (s0 * n + s1 * F0) + s2 * F0 * F0, F1 * k, F2 * k + s2 * F1 * F1,
                            F3 * k + 2 * s2 * F1 * F2, s2 * (F2 * F2 + 2 * F1 * F3), 2 * s2 * F2 * F3,
                            s2 * F3 * F3), m * n * n)
        # smoothness_check's verdict ("smooth", "singular" or "degenerate")
        # once decided
        self._smoothness = None

    # -- point operations --------------------------------------------
    def membership(self, P: WPoint) -> bool:
        """P on the surface: on its fiber when w != 0, else on the fiber at
        infinity y² = x³ + c·f3²·z⁶, since A(z, 0) = 0 and B(z, 0) = c·f3²·z⁶
        by the family shape (z = w = 0 leaves y² = x³)."""
        if P.w != 0:
            return on_curve(*self.fiber_point(P))
        return P.y ** 2 == P.x ** 3 + self.params.c * self.params.f3 ** 2 * P.z ** 6

    def fiber_at(self, t: Pair) -> FiberCurve:
        """The fiber at the Pair t, with A(t) and B(t) reduced."""
        tn, td = t
        return FiberCurve(t, reduced(*self.A_t.value_ints(tn, td)),
                          reduced(*self.B_t.value_ints(tn, td)))

    def fiber_point(self, P: WPoint) -> Tuple[FiberCurve, ECPoint]:
        """The fiber through P (w != 0) and P as an affine point on it."""
        t, x, y = P.affine()
        return self.fiber_at(t), ECPoint(x, y)

    def discriminant_t(self) -> UniPoly:
        """Δ(t) = −16(4A(t)³ + 27B(t)²), the w=1 chart of the degree-12 form:
        the coefficient of t^i is that of z^i w^(12−i)."""
        A, B = self.A_t, self.B_t
        _, _, mu, delta = _weierstrass_ints(A.cs, A.den, B.cs, B.den)
        return UniPoly([-16 * c for c in delta], mu ** 6)


def _weierstrass_ints(An: Sequence[int], Ad: int, Bn: Sequence[int], Bd: int):
    """(a, b, μ, δ) for A = An/Ad and B = Bn/Bd: with μ = lcm(Ad, Bd), the
    integer polynomials a = μ²A and b = μ³B, and δ = 4a³ + 27b², which is
    μ⁶(4A³ + 27B²)."""
    mu = math.lcm(Ad, Bd)
    a = [c * (mu // Ad) * mu for c in An]
    b = [c * (mu // Bd) * mu ** 2 for c in Bn]
    return a, b, mu, poly.combination(4, poly.int_mul(a, poly.int_mul(a, a)), 27, poly.int_mul(b, b))


# -- smoothness of the branch sextic ----------------------------------

def _chart_singular_witnesses(An: Sequence[int], Ad: int, Bn: Sequence[int], Bd: int
                              ) -> List[UniPoly]:
    """Nontrivial witness factors for singular points of x³ + A(t)x + B(t),
    for A = An/Ad and B = Bn/Bd with An and Bn trimmed.

    Eliminating x = −3B/(2A) reduces F = F_x = F_t = 0 over A ≠ 0 to
    Δ(t) = 0 and 2AB' − 3A'B = 0; over A = 0 the conditions are
    B = B' = 0 (forcing x = 0).

    The weighted scaling (A, B) → (μ²A, μ³B) of ``_weierstrass_ints``
    multiplies Δ by μ⁶ and 2AB' − 3A'B by μ⁵ and keeps the roots of A and
    gcd(B, B'), so it all runs in ℤ[t]; the witnesses are monic.
    """
    a, b, _, delta = _weierstrass_ints(An, Ad, Bn, Bd)
    if not delta:
        raise DegenerateSurfaceError("discriminant vanishes identically")
    da, db = poly.deriv(a), poly.deriv(b)
    common: List[int] = []
    if a:
        g = poly.combination(2, poly.int_mul(a, db), -3, poly.int_mul(da, b))
        common = poly.int_gcd(delta, g)
        shared = poly.int_gcd(common, a)
        while len(shared) > 1:  # strip every factor sharing a root with A
            common = poly.int_exact_div(common, shared)
            shared = poly.int_gcd(common, a)
    # singular points over roots of A: gcd(B, B') if A ≡ 0, A if B ≡ 0
    cond = poly.int_gcd(poly.int_gcd(b, db), a)
    return [UniPoly(w).monic() for w in (common, cond) if len(w) > 1]


def smoothness_check(S: Surface) -> str:
    """Decide smoothness of the branch sextic over every point of P¹:
    "smooth" or "singular" (``singular_witnesses`` lists where).

    The u-line decides the t chart.  The s chart's points with s ≠ 0 are the
    t chart's at t = 1/s, and at s = 0 the s chart's A is 0 and its B is
    c·f3² with f3 ≠ 0, so the point at infinity is singular iff c = 0.  No chart
    algebra runs.  The decision is made once per Surface: later calls return
    the same verdict, or raise DegenerateSurfaceError again.
    """
    if S._smoothness is None:
        try:
            S._smoothness = "singular" if _u_line_singular(S) or S.params.c == 0 else "smooth"
        except DegenerateSurfaceError:
            S._smoothness = "degenerate"
    if S._smoothness == "degenerate":
        raise DegenerateSurfaceError("discriminant vanishes identically")
    return S._smoothness


def _critical_value_poly(F: Sequence[int], n: int) -> List[int]:
    """D(u) = disc_t(F(t) − n·u) for the integer cubic F, a quadratic in u
    whose roots are the critical values of f = F/n: the u over which f′ = 0."""
    f0, f1, f2, f3 = F
    k1, k2 = 18 * f3 * f2 * f1 - 4 * f2 ** 3, -27 * f3 * f3
    return [f2 * f2 * f1 * f1 - 4 * f3 * f1 ** 3 + (k1 + k2 * f0) * f0,
            -n * (k1 + 2 * k2 * f0), k2 * n * n]


def _u_line_singular(S: Surface) -> bool:
    """Whether the t chart has a singular point, decided on the u-line.

    A = α(f) and B = β(f), so Δ(t) = −16·δ(f) with δ = 4α³ + 27β², and
    2AB′ − 3A′B = f′·γ(f) with γ = 2αβ′ − 3α′β; also B′ = f′·β′(f).  Every
    u has a preimage t, and f′ vanishes over u exactly when D(u) = 0 (see
    ``_critical_value_poly``).  So the conditions of
    ``_chart_singular_witnesses`` on t become conditions on u: a root of
    gcd(δ, γ·D) that is not a root of α, or a common root of α, β and β′·D
    (of β and β′·D when α ≡ 0).  On the numerators r, s of α, β over m,
    δ·m³ = 4r³ + 27m·s² and γ·m² = 2rs′ − 3r′s, both written out from
    r = r0 + r1·u and s = s0 + s1·u + s2·u².  α has degree ≤ 1, so its root
    is rational when it has one.
    """
    (r0, r1), (s0, s1, s2), m27 = S.alpha, S.beta, 27 * S.ab_den
    delta = _trimmed((4 * r0 ** 3 + m27 * s0 * s0, 12 * r0 * r0 * r1 + 2 * m27 * s0 * s1,
                      12 * r0 * r1 * r1 + m27 * (s1 * s1 + 2 * s0 * s2),
                      4 * r1 ** 3 + 2 * m27 * s1 * s2, m27 * s2 * s2))
    if not delta:
        raise DegenerateSurfaceError("discriminant vanishes identically")
    D = _critical_value_poly(S.f.cs, S.f.den)
    s = _trimmed(S.beta)  # the gcds take trimmed polynomials
    ds = poly.deriv(s)
    if not (r0 or r1):  # A ≡ 0
        return len(poly.int_gcd(s, poly.int_mul(ds, D))) > 1
    gamma = _trimmed((2 * r0 * s1 - 3 * r1 * s0, 4 * r0 * s2 - r1 * s1, r1 * s2))
    common = poly.int_gcd(delta, poly.int_mul(gamma, D))
    if not r1:  # α is a nonzero constant
        return len(common) > 1
    p, q = -r0, r1

    def at_root(cs) -> bool:
        return not cs or poly.homogeneous_value(cs, p, q) == 0

    root = [c // math.gcd(r0, r1) for c in (r0, r1)]
    while len(common) > 1 and at_root(common):  # strip α's root
        common = poly.int_exact_div(common, root)
    return len(common) > 1 or (at_root(s) and (at_root(ds) or at_root(D)))


def singular_witnesses(S: Surface) -> Tuple[Tuple[str, UniPoly], ...]:
    """The witnesses of a singular surface, () for a smooth one: (chart,
    monic factor) for each nontrivial gcd factor whose roots carry singular
    points, the t chart's then the s chart's.  The t chart's must agree with
    the u-line (InvariantError otherwise)."""
    if smoothness_check(S) != "singular":
        return ()
    A, B = S.A_t, S.B_t
    witnesses = [("t", w) for w in _chart_singular_witnesses(A.cs, A.den, B.cs, B.den)]
    t_singular = _u_line_singular(S)
    if bool(witnesses) != t_singular:
        raise InvariantError(
            f"the u-line calls the t chart {'singular' if t_singular else 'smooth'}, "
            f"but its witnesses are {[list(map(str, w.coeffs)) for _, w in witnesses]}"
        )
    # the chart s = w/z: s⁴·A(1/s) and s⁶·B(1/s), over the same denominators
    witnesses += [("s", w) for w in _chart_singular_witnesses(
        _reversal(A.cs, 5), A.den, _reversal(B.cs, 7), B.den)]
    return tuple(witnesses)


def _reversal(cs: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """s^(n−1)·c(1/s) for c = cs of degree < n, trailing zeros trimmed."""
    return _trimmed((cs + (0,) * (n - len(cs)))[::-1])


# -- mod-p exhaustive oracle ------------------------------------------

def modp_singular_scan(S: Surface, p: int) -> str:
    """Exhaustive singular-point scan of the branch sextic over F_p.

    Returns "smooth", "singular", or "bad_prime" (Δ ≡ 0 at every point of
    P¹(F_p)).  The t chart over t ∈ F_p and the s chart at s = 0 cover every
    point of P¹(F_p), since the s chart's points with s ≠ 0 are the t chart's
    at t = 1/s.  A fiber with 4A³ + 27B² ≢ 0 has a cubic with distinct roots
    (p ≥ 5), so no singular point; on every other fiber the three partials
    are checked directly at each x.

    α, β and f are reduced mod p once, and each fiber t ∈ F_p takes
    A(t) = α(f(t)) and B(t) = β(f(t)) from those residues; so do the
    t-derivatives of the rare Δ ≡ 0 fibers, A′ = a·f′(t) and
    B′ = (d + 2c·u)·f′(t) with u = f(t).  In the chart s = w/z the
    coefficients are s⁴·A(1/s) and s⁶·B(1/s), which are 0 and c·f3² at s = 0,
    as ``membership`` uses; so that point is singular (at x = 0, where the
    s-derivative 2c·f2·f3 of s⁶·B(1/s) vanishes too) exactly when c·f3 ≡ 0.
    Independent of the symbolic criterion: no δ, γ, D or gcd of the u-line
    decision is used.
    """
    check_prime(p)
    if S.params_den % p == 0:
        raise ValueError(f"prime {p} divides a parameter denominator")
    # p ∤ params_den, so m and n are units mod p, inverted once each
    im, i_n = pow(S.ab_den, -1, p), pow(S.f.den, -1, p)
    r0, r1 = _residues(S.alpha, im, p)
    s0, s1, s2 = _residues(S.beta, im, p)
    f0, f1, f2, f3 = _residues(S.f.cs, i_n, p)
    degenerate = singular = s2 * f3 % p == 0  # s = 0
    for t in range(p):
        u = (((f3 * t + f2) * t + f1) * t + f0) % p
        at = (r0 + r1 * u) % p
        bt = (s0 + (s1 + s2 * u) * u) % p
        if (4 * at * at * at + 27 * bt * bt) % p:
            degenerate = False
        elif not singular:
            df = (3 * f3 * t + 2 * f2) * t + f1
            singular = _singular_on_fiber(at, bt, r1 * df, (s1 + 2 * s2 * u) * df, p)
    if degenerate:
        return "bad_prime"
    return "singular" if singular else "smooth"


def _residues(cs: Sequence[int], inv: int, p: int) -> List[int]:
    """The coefficients of cs·inv mod p."""
    return [c * inv % p for c in cs]


def _singular_on_fiber(a: int, b: int, da: int, db: int, p: int) -> bool:
    """Whether x³ + a·x + b has a point over F_p where all three partials
    vanish: the cubic, 3x² + a, and da·x + db (the t-derivative)."""
    return any(
        (x * x * x + a * x + b) % p == 0 and (3 * x * x + a) % p == 0 and (da * x + db) % p == 0
        for x in range(p)
    )


def check_prime(p: int) -> None:
    """Refuse a scan prime unless it is a prime ≥ 5; trial division is exact,
    and cheap beside the scan of p + 1 fibers."""
    if p < 5 or not poly.is_prime(p):
        raise ValueError(f"scan needs a prime p >= 5, got {p}")


class OracleDisagreementError(RuntimeError):
    """Mod-p oracle contradicts the symbolic smoothness verdict."""


# Start of the message raised when a surface declared smooth is singular mod
# every usable prime.  Bad reduction at all the primes given does this to a
# few surfaces that are smooth over Q, so the census records it and goes on.
SINGULAR_MOD_EVERY_PRIME = "declared smooth but singular mod every prime"


def smoothness_cross_check(S: Surface, primes: Sequence[int]) -> dict:
    """Compare the symbolic verdict with the mod-p oracle at several primes.

    A surface smooth over Q may be singular mod p (bad reduction), but must
    be smooth mod at least one prime in the set.  A surface singular with a
    rational witness must reduce to a singular curve at every usable prime;
    any such disagreement aborts with diagnostics, since it can only mean a
    criterion bug.  Every prime is checked before anything is scanned, so a
    value that is no prime ≥ 5 is refused whatever the surface.
    """
    for p in primes:
        check_prime(p)
    verdict = smoothness_check(S)
    # with c = 0, s = 0 is a rational singular point: s divides s⁴·A(1/s),
    # s⁶·B(1/s) and the latter's s-derivative, since deg A, deg B ≤ 3
    has_rational_witness = verdict == "singular" and (S.params.c == 0 or any(
        poly.rational_roots(wp) for _, wp in singular_witnesses(S)
    ))
    per_prime: Dict[int, str] = {}
    for p in primes:
        if S.params_den % p == 0:
            per_prime[p] = "skipped"
            continue
        per_prime[p] = modp_singular_scan(S, p)
    usable = {p: v for p, v in per_prime.items() if v in ("smooth", "singular")}
    if verdict == "smooth":
        if usable and all(v == "singular" for v in usable.values()):
            raise OracleDisagreementError(
                f"{SINGULAR_MOD_EVERY_PRIME}: {per_prime}"
            )
    elif has_rational_witness:
        bad = [p for p, v in usable.items() if v == "smooth"]
        if bad:
            raise OracleDisagreementError(
                f"rational singular witness does not reduce mod {bad}: {per_prime}"
            )
    return {"symbolic": verdict, "mod_p": per_prime}


# -- discriminant form and singular fibers ----------------------------

def singular_fiber_report(S: Surface) -> dict:
    """Squarefree factorization of Δ(t) with the multiplicity-12 budget, as
    ``dp1 fibers`` prints it.

    Δ is built once.  The multiplicity at infinity is 12 − deg Δ(t), and the
    total is Σ degree·multiplicity over the factors plus it.  Each factor is
    split by whether A vanishes at its roots (additive reduction) or not
    (multiplicative), and printed monic.
    """
    delta = S.discriminant_t()
    if delta.is_zero():
        raise DegenerateSurfaceError("discriminant vanishes identically")
    factors = []
    for g, m in poly.squarefree_factorization(delta):
        shared = poly.int_gcd(g.cs, S.A_t.cs)  # all of g when A ≡ 0
        for h, kind in ((shared, "additive"), (poly.int_exact_div(g.cs, shared), "multiplicative")):
            if len(h) > 1:
                factors.append({"coeffs": [format_rational(c) for c in UniPoly(h).monic().coeffs],
                                "degree": len(h) - 1, "multiplicity": m, "reduction": kind})
    at_infinity = 12 - delta.degree()
    return {
        # of the degree-12 form: Δ's t¹² coefficient
        "z12_coefficient": format_rational(delta.coeffs[12] if at_infinity == 0 else Fraction(0)),
        "multiplicity_at_infinity": at_infinity,
        "total_multiplicity": sum(f["degree"] * f["multiplicity"] for f in factors) + at_infinity,
        "factors": factors,
    }
