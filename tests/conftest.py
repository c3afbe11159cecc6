import itertools
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Tuple

import pytest
import sympy as sp
from sympy import factorint

from dp1 import poly
from dp1.cubic import line_cubic_ints, tangent_plane
from dp1.elliptic import O, ECPoint, FiberCurve, OffCurveError, add, neg, on_curve
from dp1.engine import bounded_height_rationals
from dp1.poly import UniPoly, gcd
from dp1.rational import InvariantError, is_square
from dp1.surface import Surface, SurfaceParams, WPoint, singular_witnesses, smoothness_check


# -- fibers and points, whose rationals are Pairs ---------------------------
# The package holds t, A, B, x and y as (numerator, denominator > 0) in
# lowest terms; the tests build and read them as Fractions through these.

def pair(v) -> Tuple[int, int]:
    """The rational v (an int, a Fraction or a text) as a Pair."""
    return Fraction(v).as_integer_ratio()


def frac(v: Tuple[int, int]) -> Fraction:
    """The Pair v as a Fraction."""
    return Fraction(*v)


def point(x, y) -> ECPoint:
    """The affine point (x, y), for rationals x and y."""
    return ECPoint(pair(x), pair(y))


def xy(P: ECPoint) -> Optional[Tuple[Fraction, Fraction]]:
    """P's (x, y) as Fractions, None for O."""
    return None if P.is_infinity else (frac(P.x), frac(P.y))


def curve(t, A, B) -> FiberCurve:
    """The fiber y² = x³ + A·x + B at t, for rationals t, A and B."""
    return FiberCurve(pair(t), pair(A), pair(B))


def fiber(S: Surface, t) -> FiberCurve:
    """S's fiber at the rational t."""
    return S.fiber_at(pair(t))


def affine(P: WPoint) -> Tuple[Fraction, Fraction, Fraction]:
    """(t, x, y) of P, w ≠ 0, as Fractions."""
    return tuple(map(frac, P.affine()))


def value(f: UniPoly, t) -> Fraction:
    """f(t) for the rational t, from ``value_ints``."""
    return Fraction(*f.value_ints(*pair(t)))


def rhs(E: FiberCurve, x) -> Fraction:
    """x³ + A·x + B on the fiber E, in Fractions."""
    x = Fraction(x)
    return x ** 3 + frac(E.A) * x + frac(E.B)


def plane_at(S: Surface, X):
    """``tangent_plane`` at the point X of P³, given by rationals."""
    return tangent_plane(S, [pair(v) for v in X])


def replaced(obj, **changes):
    """A copy of the record obj with some fields changed, built through its
    constructor so that the record's own checks run on the result (a
    namedtuple's ``_replace`` would skip them)."""
    return type(obj)(**{**obj._asdict(), **changes})


class RefPoly(UniPoly):
    """A UniPoly with the algebra that the package does not run, the
    reference of the tests: Fraction coefficients, equality and hashing by
    value, indexing, +, −, scale, ** and reversal, each result a RefPoly.

    A UniPoly of the package equals the RefPoly of the same polynomial:
    ``==`` tries a subclass's method first, from either side.
    """

    __slots__ = ()

    def __init__(self, coeffs=(), den: int = 1):
        """Σ coeffs[i]·tⁱ / den for ints or Fractions coeffs, over the lcm of
        their denominators."""
        fs = [Fraction(c) for c in coeffs]
        m = math.lcm(*(c.denominator for c in fs))
        super().__init__([c.numerator * (m // c.denominator) for c in fs], den * m)

    @classmethod
    def of(cls, f: UniPoly) -> "RefPoly":
        return cls(f.cs, f.den)

    @staticmethod
    def constant(c) -> "RefPoly":
        return RefPoly((c,))

    def __call__(self, t) -> Fraction:
        return value(self, t)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.cs[i], self.den) if 0 <= i < len(self.cs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.cs == other.cs and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.cs, self.den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "RefPoly(0)"
        return "RefPoly(" + " + ".join(f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c) + ")"

    def __add__(self, other: UniPoly) -> "RefPoly":
        return self._combine(1, other)

    def __sub__(self, other: UniPoly) -> "RefPoly":
        return self._combine(-1, other)

    def _combine(self, sign: int, other: UniPoly) -> "RefPoly":
        """self + sign·other, over the lcm of the two denominators."""
        den = math.lcm(self.den, other.den)
        x, y = den // self.den, sign * (den // other.den)
        return RefPoly(poly.combination(x, self.cs, y, other.cs), den)

    def __mul__(self, other: UniPoly) -> "RefPoly":
        return RefPoly.of(UniPoly.__mul__(self, other))

    def scale(self, c) -> "RefPoly":
        c = Fraction(c)
        return RefPoly([a * c.numerator for a in self.cs], self.den * c.denominator)

    def __pow__(self, n: int) -> "RefPoly":
        """self**n by square-and-multiply."""
        if n < 0:
            raise ValueError("negative power")
        result, base = RefPoly.constant(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monic(self) -> "RefPoly":
        return RefPoly.of(UniPoly.monic(self))

    def reverse(self, n: Optional[int] = None) -> "RefPoly":
        """Coefficient reversal t^n · f(1/t), n defaulting to deg f: the
        move between the two affine charts of P¹."""
        if n is None:
            n = self.degree()
        if n < self.degree():
            raise ValueError("reversal order below degree")
        return RefPoly([0] * (n - self.degree()) + list(reversed(self.cs)), self.den)


def derivative(f: UniPoly) -> RefPoly:
    """f′, by ``poly.deriv`` on f's integer numerators over the same
    denominator."""
    return RefPoly(poly.deriv(f.cs), f.den)


def leading_coefficient(f: UniPoly) -> Fraction:
    """The leading coefficient of a non-zero f."""
    return Fraction(f.cs[-1], f.den)


def compose(outer: UniPoly, inner: UniPoly) -> RefPoly:
    """Reference composition outer(inner(t)), by Horner evaluation in
    RefPoly; the oracle for Surface's A_t = a·f + b and B_t = c·f² + d·f + e."""
    result = RefPoly(())
    for c in reversed(outer.coeffs):
        result = result * inner + RefPoly.constant(c)
    return result


def poly_divmod(f: UniPoly, g: UniPoly):
    """Reference long division in Q[t]: (q, r) with f = q·g + r and
    deg r < deg g, one Fraction per step."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, f.degree() - g.degree() + 1)
    rem = list(f.coeffs)
    gd = g.degree()
    while len(rem) - 1 >= gd and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < gd:
            break
        k = len(rem) - 1 - gd
        factor = rem[-1] / leading_coefficient(g)
        q[k] = factor
        for i in range(gd + 1):
            rem[k + i] -= factor * g.coeffs[i]
        rem.pop()
    return RefPoly(q), RefPoly(rem)


# -- Fraction-tuple arithmetic ------------------------------------------
# Polynomials as tuples of Fraction coefficients, indexed by degree, with no
# trailing zero: one Fraction operation per coefficient, the reference that
# UniPoly's integer numerators over one denominator are tested against.

def frac_trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def frac_add(f: tuple, g: tuple) -> tuple:
    n = max(len(f), len(g))
    return frac_trim((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n))


def frac_scale(f: tuple, c) -> tuple:
    return frac_trim(a * c for a in f)


def frac_sub(f: tuple, g: tuple) -> tuple:
    return frac_add(f, frac_scale(g, -1))


def frac_mul(f: tuple, g: tuple) -> tuple:
    out = [Fraction(0)] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return frac_trim(out)


def frac_pow(f: tuple, n: int) -> tuple:
    out = (Fraction(1),)
    for _ in range(n):
        out = frac_mul(out, f)
    return out


def frac_derivative(f: tuple) -> tuple:
    return frac_trim(i * f[i] for i in range(1, len(f)))


def frac_monic(f: tuple) -> tuple:
    return frac_scale(f, 1 / f[-1]) if f else f


def frac_reverse(f: tuple, n: int) -> tuple:
    cs = [Fraction(0)] * (n + 1)
    for i, c in enumerate(f):
        cs[n - i] = c
    return frac_trim(cs)


def frac_value(f: tuple, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * t + c
    return acc


def frac_gcd(f: tuple, g: tuple) -> tuple:
    """Monic gcd by Euclid's algorithm with Fraction long division."""
    while g:
        rem = list(f)
        while len(rem) >= len(g):
            k, q = len(rem) - len(g), rem[-1] / g[-1]
            for i, c in enumerate(g):
                rem[k + i] -= q * c
            rem = list(frac_trim(rem))
        f, g = g, tuple(rem)
    return frac_monic(f)


def int_gcd_by_prs(a, b) -> list:
    """Reference integer gcd, up to sign: a primitive pseudo-remainder
    sequence on every pair, with no modular shortcut."""
    a, b = poly._primitive(a), poly._primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = poly._int_prem(a, b)
        a, b = b, poly._primitive(r) if r else []
    return a


def squarefree_factorization_by_fractions(f: UniPoly):
    """Reference Yun's algorithm in Q[t]: monic gcds and Fraction long
    division; the oracle for poly.squarefree_factorization."""
    if f.is_zero():
        raise ValueError("cannot factor zero")
    f = f.monic()
    if f.degree() == 0:
        return []
    out = []
    fp = derivative(f)
    a = gcd(f, fp)
    b = poly_divmod(f, a)[0]
    c = poly_divmod(fp, a)[0]
    d = c - derivative(b)
    i = 1
    while b.degree() > 0:
        g = gcd(b, d)
        if g.degree() > 0:
            out.append((RefPoly.of(g), i))
        b = poly_divmod(b, g)[0]
        c = poly_divmod(d, g)[0]
        d = c - derivative(b)
        i += 1
    return out


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError when the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _vp(n: int, p: int):
    """p-adic valuation; None stands for +infinity (n == 0)."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def canonicalize_by_factoring(x: int, y: int, z: int, w: int) -> WPoint:
    """Reference canonical form: the weighted content found by factoring
    with sympy; the oracle for WPoint.from_fractions on integers."""
    if x == y == z == w == 0:
        raise ValueError("all four coordinates are zero")
    if z or w:
        base = math.gcd(z, w)
    elif x and y:
        base = math.gcd(x, y)
    else:
        base = abs(x or y)
    for p in factorint(base):
        exps = [
            v for v in (
                _vp(z, p),
                _vp(w, p),
                None if x == 0 else _vp(x, p) // 2,
                None if y == 0 else _vp(y, p) // 3,
            )
            if v is not None
        ]
        e = min(exps) if exps else 0
        if e > 0:
            x //= p ** (2 * e)
            y //= p ** (3 * e)
            z //= p ** e
            w //= p ** e
    if w < 0 or (w == 0 and z < 0) or (w == z == 0 and y < 0):
        y, z, w = -y, -z, -w
    return WPoint(x, y, z, w)


def from_fractions_by_factoring(x: Fraction, y: Fraction, z: Fraction, w: Fraction) -> WPoint:
    """Reference lift: the least integral scale found by factoring each
    denominator with sympy; the oracle for WPoint.from_fractions."""
    lam = 1
    dens = {2: x.denominator, 3: y.denominator, 1: math.lcm(z.denominator, w.denominator)}
    need = {}
    for weight, den in dens.items():
        for p, v in factorint(den).items():
            need[p] = max(need.get(p, 0), -(-v // weight))
    for p, v in need.items():
        lam *= p ** v
    return canonicalize_by_factoring(
        int(x * lam ** 2), int(y * lam ** 3), int(z * lam), int(w * lam)
    )


def mul(E: FiberCurve, n: int, P: ECPoint) -> ECPoint:
    """Reference scalar multiple [n]P by double-and-add of checked
    additions; negative n negates."""
    if not on_curve(E, P):
        raise OffCurveError(f"{P} is not on y^2 = x^3 + {frac(E.A)}x + {frac(E.B)}")
    if n < 0:
        return neg(mul(E, -n, P))
    result = O
    base = P
    while n:
        if n & 1:
            result = add(E, result, base)
        n >>= 1
        if n:
            base = add(E, base, base)
    return result


def off_curve_after(step, calls: int = 0):
    """The integer chord step ``step`` (``elliptic._chord_step``), broken
    after its first ``calls`` calls: each later affine result has its y
    doubled, so it leaves the curve whenever y ≠ 0.  Stands in for a group
    law gone wrong, which only the check of the function making the point
    can catch."""
    made = itertools.count(1)

    def broken(A, P, Q):
        R = step(A, P, Q)
        if next(made) <= calls or R.is_infinity:
            return R
        yn, yd = R.y
        return ECPoint(R.x, (2 * yn, yd))

    return broken


def f_poly(params: SurfaceParams) -> RefPoly:
    """f = f0 + f1·t + f2·t² + f3·t³ from the Fraction parameters; the
    reference for Surface's f, read there as numerators over one lcm."""
    return RefPoly((params.f0, params.f1, params.f2, params.f3))


def chart_polys_by_refpoly(params: SurfaceParams):
    """Reference chart polynomials (A_t, B_t, A_s, B_s): A_t = a·f + b and
    B_t = c·f² + d·f + e by RefPoly arithmetic, and their degree-4 and
    degree-6 reversals; the oracle for Surface's build in ℤ[t]."""
    p = params
    f = f_poly(p)
    A_t = f.scale(p.a) + RefPoly.constant(p.b)
    B_t = (f * f).scale(p.c) + f.scale(p.d) + RefPoly.constant(p.e)
    return A_t, B_t, A_t.reverse(4), B_t.reverse(6)


def s_chart(S: Surface):
    """Reference chart at infinity (A_s, B_s) in s = w/z: the degree-4 and
    degree-6 reversals of S.A_t and S.B_t."""
    return RefPoly.of(S.A_t).reverse(4), RefPoly.of(S.B_t).reverse(6)


def discriminant_by_refpoly(S: Surface) -> RefPoly:
    """Reference Δ(t) = −16(4A³ + 27B²) by RefPoly arithmetic on S.A_t and
    S.B_t; the oracle for Surface.discriminant_t."""
    A, B = RefPoly.of(S.A_t), RefPoly.of(S.B_t)
    return ((A ** 3).scale(4) + (B ** 2).scale(27)).scale(-16)


# -- the cubic model W and its tangent sections ----------------------------
# The map θ, the cubic form F_W, the elimination on a fiber in Fractions and
# the plane's restriction to a fiber: references for cubic.py and the sweep.

def cubic_value(S: Surface, X) -> Fraction:
    """F_W(X), the cubic form at a point of P³ in any representative."""
    p = S.params
    x0, x1, x2, x3 = X
    quad = p.a * x0 * x2 + p.b * x0 * x3 + p.c * x2 * x2 + p.d * x2 * x3 + p.e * x3 * x3
    return x0 * x0 * x0 + x3 * (quad - x1 * x1)


def _canonical_p3(coords):
    """Scale a rational quadruple to coprime integers, last nonzero positive."""
    den = math.lcm(*(c.denominator for c in coords))
    ints = [int(c * den) for c in coords]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g == 0:
        raise ValueError("zero vector is not a projective point")
    ints = [v // g for v in ints]
    last = next(v for v in reversed(ints) if v != 0)
    if last < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def theta(S: Surface, P: WPoint):
    """Image [xw : y : f_hom(z,w) : w³] of P on the cubic W, canonicalized."""
    if not S.membership(P):
        raise ValueError(f"{P} is not on the surface")
    x, y, z, w = (Fraction(v) for v in (P.x, P.y, P.z, P.w))
    f_hom = value(S.f, z / w) * w ** 3 if w else S.params.f3 * z ** 3
    img = (x * w, y, f_hom, w ** 3)
    pt = _canonical_p3(img)
    if cubic_value(S, pt) != 0:
        raise InvariantError(f"theta({P}) = {pt} is not on the cubic model W")
    return pt


def fiber_line_cubic(E: FiberCurve, line) -> RefPoly:
    """Eliminate y from αx + βy + c0 = 0 on E: β²(x³ + Ax + B) − (αx + c0)².

    Requires β ≠ 0; the result is a genuine cubic in x.  The line times the
    lcm L of its denominators goes to ``line_cubic_ints``, whose result is
    put over L²·Ad·Bd.
    """
    if line[1] == 0:
        raise ValueError("vertical line has no eliminated cubic")
    L = math.lcm(*(v.denominator for v in line))
    return RefPoly(line_cubic_ints([v.numerator * (L // v.denominator) for v in line], E),
                   L * L * E.A[1] * E.B[1])


def fiber_line(S: Surface, E: FiberCurve, Q: ECPoint, t):
    """(α, β, γ·f(t) + δ): the tangent plane at the point Q of the fiber E,
    taken at (x, y, f(E.t), 1), restricted to the fiber t as the line
    αx + βy + c0 = 0, in Fractions."""
    al, be, ga, de = plane_at(S, (*xy(Q), value(S.f, frac(E.t)), 1))
    return Fraction(al), Fraction(be), ga * value(S.f, t) + de


# -- transversality of a tangent section ---------------------------------

class DegenerateRestrictionError(ValueError):
    """A plane restricts to the zero form on the requested fiber."""


def squarefree_part(f: UniPoly) -> RefPoly:
    """The squarefree part f / gcd(f, f′), monic, from poly.squarefree_split."""
    if f.is_zero():
        raise ValueError("squarefree part of zero is undefined")
    return RefPoly(poly.squarefree_split(f.cs)[1]).monic()


def transversality_check(S: Surface, R: WPoint, P: WPoint) -> int:
    """Number of distinct points (over the closure) cut on P's fiber by the
    tangent section at R, via the squarefree degree of the eliminated cubic."""
    if R.w == 0 or P.w == 0:
        raise ValueError("transversality check needs w != 0 for both points")
    E, _ = S.fiber_point(P)
    if E.is_singular():
        raise ValueError("fiber of P is singular")
    a, b, c0 = fiber_line(S, *S.fiber_point(R), frac(E.t))
    if a == 0 and b == 0:
        if c0 == 0:
            raise DegenerateRestrictionError("plane restricts to zero on the fiber")
        return 1  # the section cuts 3·O
    if b == 0:
        x0 = -c0 / a
        return 2 if rhs(E, x0) != 0 else 1
    return squarefree_part(fiber_line_cubic(E, (a, b, c0))).degree()


# -- the sweep and the hop in Fraction arithmetic -------------------------
# The reference that the integer cp_sweep and u_hop are tested against: the
# same steps, one Fraction per coefficient, every root searched for.

def cp_sweep_by_fractions(S: Surface, E0: FiberCurve, P: ECPoint, t_height_bound: int):
    """Reference sweep from a point P of order > 2, so β ≠ 0: each fiber's
    line and cubic β²(x³ + Ax + B) − (αx + c0)² in Fractions, every root from
    ``poly.rational_roots``, y = −(αx + c0)/β, P itself left out and each
    point checked by ``on_curve``."""
    p_t = frac(E0.t)
    out = []
    for t in map(frac, bounded_height_rationals(t_height_bound)):
        a, b, c0 = fiber_line(S, E0, P, t)
        E = fiber(S, t)
        cub = RefPoly((frac(E.B), frac(E.A), 0, 1)).scale(b * b) - RefPoly((c0, a)) ** 2
        for x in poly.rational_roots(cub):
            Q = point(x, -(a * x + c0) / b)
            if t == p_t and Q == P:
                continue
            if not on_curve(E, Q):
                raise InvariantError(f"swept point {Q} fails the fiber t={t}")
            out.append((E, Q))
    return out


def u_hop_by_fractions(S: Surface, t0: Fraction, Q: ECPoint):
    """Reference hop: the u-values solving c·u² + (a·x0 + d)·u + b·x0 + e − k
    = 0 with k = y0² − x0³, in increasing order, and for each the roots of
    f − u from ``poly.rational_roots``, t0 left out."""
    p = S.params
    x0, y0 = xy(Q)
    k = y0 * y0 - x0 ** 3
    u0 = value(S.f, t0)
    u_quad = RefPoly((p.b * x0 + p.e - k, p.a * x0 + p.d, p.c))
    if u_quad(u0) != 0:
        raise InvariantError(f"the u-value {u0} of fiber t={t0} does not solve the hop equation")
    u_values = {u0}
    if p.c != 0:
        u_values.add(-(p.a * x0 + p.d) / p.c - u0)
    out = []
    for u in sorted(u_values):
        for t in poly.rational_roots(RefPoly.of(S.f) - RefPoly.constant(u)):
            if t == t0:
                continue
            E = fiber(S, t)
            if not on_curve(E, Q):
                raise InvariantError(f"hopped point {Q} fails the fiber t={t}")
            out.append((E, Q))
    return out


# -- the box oracle in Fraction arithmetic --------------------------------
# The reference that the integer brute_force_oracle is tested against: the
# box as Fractions, each cell's x³ + A(t)x + B(t) in Fraction arithmetic.

def box_rationals(num_bound: int, den_bound: int):
    """Rationals p/q with |p| ≤ num_bound, 1 ≤ q ≤ den_bound, each once.

    Only coprime pairs are kept: any other pair reduces to one already
    yielded at a smaller q, so the order is that of first appearance.
    """
    for q in range(1, den_bound + 1):
        for p in range(-num_bound, num_bound + 1):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)


def fraction_oracle(S: Surface, x_num: int, x_den: int, t_num: int, t_den: int):
    """Reference box search: each cell's x³ + A(t)x + B(t) in Fraction
    arithmetic, tested by is_square."""
    out = []
    for t in box_rationals(t_num, t_den):
        E = fiber(S, t)
        for x in box_rationals(x_num, x_den):
            root = is_square(rhs(E, x))
            if root is not None:
                out.append((pair(t), point(x, root)))
                if root != 0:
                    out.append((pair(t), point(x, -root)))
    return out


# -- F_W and its normal forms, in sympy --------------------------------

X_SYMBOLS = sp.symbols("X0:4")


def cubic_form_sympy(a, b, c, d, e, X=X_SYMBOLS) -> sp.Expr:
    """Reference F_W = X0³ + aX0X2X3 + bX0X3² + cX2²X3 + dX2X3² + eX3³ − X1²X3,
    unexpanded, at X (default X_SYMBOLS); the oracle for cubic_value and
    cubic_gradient."""
    X0, X1, X2, X3 = X
    return (X0 ** 3 + a * X0 * X2 * X3 + b * X0 * X3 ** 2 + c * X2 ** 2 * X3
            + d * X2 * X3 ** 2 + e * X3 ** 3 - X1 ** 2 * X3)


_A_TO_E = sp.symbols("a b c d e")
_F_W = cubic_form_sympy(*_A_TO_E)
# F_W and its four partials as generated Python: exact on Fraction inputs
_value_and_gradient = sp.lambdify(
    [*_A_TO_E, *X_SYMBOLS], [_F_W] + [sp.diff(_F_W, Xi) for Xi in X_SYMBOLS], modules=[{}]
)


def cubic_value_and_gradient_sympy(params: SurfaceParams, X):
    """F_W(X) and ∇F_W(X), differentiated by sympy."""
    value, *grad = _value_and_gradient(
        params.a, params.b, params.c, params.d, params.e, *(Fraction(v) for v in X)
    )
    return value, grad


def cubic_gradient(S: Surface, X) -> list:
    """Reference ∇F_W(X): the four partials of the cubic form, written out
    in Fractions; the oracle for cubic.tangent_plane."""
    p = S.params
    x0, x1, x2, x3 = (Fraction(v) for v in X)
    return [
        3 * x0 * x0 + (p.a * x2 + p.b * x3) * x3,
        -2 * x1 * x3,
        (p.a * x0 + 2 * p.c * x2 + p.d * x3) * x3,
        p.a * x0 * x2 + 2 * p.b * x0 * x3 + p.c * x2 * x2 + 2 * p.d * x2 * x3
        + 3 * p.e * x3 * x3 - x1 * x1,
    ]


def bit_size(x: Fraction) -> int:
    """Reference size of a rational: the larger bit length of its numerator
    and denominator, the measure of engine.GenerationConfig's bit cap."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def normal_form_residue(regime: str, a, b, c, d, e, s) -> sp.Expr:
    """G = F_W(coordinate change) − normal form, expanded, for one regime
    ("2xA2", "2xA2, a = 0", "A5" or "E6"); s is the square root the change
    uses, √c for 2×A₂ and √d for E₆ (Bruce and Wall, 1979)."""
    X0, X1, X2, X3 = X_SYMBOLS
    half = sp.Rational(1, 2)
    if regime == "2xA2":
        change = [2 * s / a * (X0 - d / (2 * s) * X1 - X2), half * (X3 - X2),
                  (X2 + X3) / (2 * s), X1]
    elif regime == "2xA2, a = 0":
        change = [X2, half * (-X0 + d / (2 * s) * X1 + X3),
                  (X0 - d / (2 * s) * X1 + X3) / (2 * s), X1]
    elif regime == "A5":
        change = [(X0 - d * X1) / a, X2, X3, X1]
    else:
        change = [X2, X1, X3, X0 / s]
    normal = X3 * X0 ** 2 if regime == "E6" else X0 * X1 * X3
    return sp.expand(cubic_form_sympy(a, b, c, d, e, change) - normal)


def normal_form_by_sympy(params: SurfaceParams) -> bool:
    """Reference normal-form check: expand the regime's coordinate change
    over Q(√c) or Q(√d) (sympy's sqrt is exact), require G free of X3, and
    apply the corank test that pins the type; the oracle for
    cubic.verify_normal_form."""
    X0, X1, X2, X3 = X_SYMBOLS
    a, b, c, d, e = (sp.Rational(v.numerator, v.denominator)
                     for v in (params.a, params.b, params.c, params.d, params.e))
    if c != 0:
        regime, s = ("2xA2" if a != 0 else "2xA2, a = 0"), sp.sqrt(c)
    elif a != 0:
        regime, s = "A5", None
    elif d != 0:
        regime, s = "E6", sp.sqrt(d)
    else:
        return False  # X3 ↦ X0/√d needs d ≠ 0
    G = sp.Poly(normal_form_residue(regime, a, b, c, d, e, s), *X_SYMBOLS)
    if G.degree(X3) > 0:
        return False
    # G is a cubic form, so each restriction below is read off its terms
    coeff = G.as_dict().get
    if regime == "A5":
        # order 1 in X1 and order 3 in X0 on the line through [0:0:1:0]
        return (not coeff((0, 0, 3, 0)) and bool(coeff((0, 1, 2, 0)))
                and not coeff((1, 0, 2, 0)) and not coeff((2, 0, 1, 0))
                and bool(coeff((3, 0, 0, 0))))
    if regime == "E6":
        # G(0, X1, X2, 0) = X2³
        return [coeff((0, k, 3 - k, 0), 0) for k in range(4)] == [1, 0, 0, 0]
    return bool(coeff((0, 0, 3, 0)))  # G(0, 0, 1, 0) ≠ 0


@pytest.fixture
def worked_surface() -> Surface:
    """y² = x³ + z⁶ + 2z³w³ + 3w⁶, the primary worked example."""
    return Surface(SurfaceParams(0, 0, 1, 2, 3, 0, 0, 0, 1))


@pytest.fixture
def worked_surface_2() -> Surface:
    """y² = x³ + z⁶ + 2w⁶, the second worked example."""
    return Surface(SurfaceParams(0, 0, 1, 0, 2, 0, 0, 0, 1))


@pytest.fixture
def worked_seed() -> WPoint:
    return WPoint.parse("[-1:1:-1:1]")


@pytest.fixture
def worked_section(worked_surface, worked_seed):
    """(S, E, P): the worked surface, the seed's fiber t = -1 and the seed on
    it, which give the tangent section to cp_sweep and tangent_point."""
    return (worked_surface, *worked_surface.fiber_point(worked_seed))


@pytest.fixture
def singular_fixture() -> Surface:
    """A ≡ 0, B = (t³+1)²: branch sextic singular over the roots of t³+1."""
    return Surface(SurfaceParams(0, 0, 1, 2, 1, 0, 0, 0, 1))


def random_params(
    rng: random.Random,
    height: int = 5,
    a=None,
    c=None,
) -> SurfaceParams:
    """Random parameter tuple with |coefficients| of height ≤ height.

    a and c may be pinned to hit a specific singularity regime.
    """

    def rat() -> Fraction:
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def rat_nonzero() -> Fraction:
        while True:
            v = rat()
            if v != 0:
                return v

    return SurfaceParams(
        rat() if a is None else Fraction(a),
        rat(),
        rat() if c is None else Fraction(c),
        rat(),
        rat(),
        rat(),
        rat(),
        rat(),
        rat_nonzero(),
    )


def random_smooth_surface(
    rng: random.Random,
    height: int = 5,
    a=None,
    c=None,
    d_nonzero=False,
    finite_only=False,
) -> Surface:
    """Rejection-sample until the smoothness check passes.

    With c pinned to 0 no member of the family is smooth over t = ∞, so the
    c = 0 regimes must be sampled with finite_only=True: smooth over every
    finite fiber, that is no witness in the chart t = z/w.
    """
    while True:
        p = random_params(rng, height, a=a, c=c)
        if d_nonzero and p.d == 0:
            continue
        S = Surface(p)
        try:
            verdict = smoothness_check(S)
            witnesses = singular_witnesses(S) if finite_only else ()
        except Exception:
            continue
        if finite_only:
            if all(chart != "t" for chart, _ in witnesses):
                return S
        elif verdict == "smooth":
            return S


def surface_through(rng: random.Random, height: int = 4):
    """A random surface with a guaranteed rational point.

    Picks everything but e at random, then solves the surface equation for e
    so that (x0, y0) lies on fiber t0.  Returns (surface, point).
    """

    def rat() -> Fraction:
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    while True:
        a, b, c, d = rat(), rat(), rat(), rat()
        f0, f1, f2 = rat(), rat(), rat()
        f3 = rat()
        if f3 == 0:
            continue
        t0, x0, y0 = rat(), rat(), rat()
        if y0 == 0:
            continue
        f = f_poly(SurfaceParams(a, b, c, d, 0, f0, f1, f2, f3))
        u0 = f(t0)
        e = y0 * y0 - x0 ** 3 - (a * u0 + b) * x0 - c * u0 ** 2 - d * u0
        params = SurfaceParams(a, b, c, d, e, f0, f1, f2, f3)
        S = Surface(params)
        P = WPoint.from_affine(pair(t0), pair(x0), pair(y0))
        if not S.membership(P):
            continue
        return S, P
