import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from sympy import factorint

from dp1.cubic import tangent_section
from dp1.elliptic import O, ECPoint, FiberCurve, OffCurveError, add, neg, on_curve
from dp1.poly import UniPoly, gcd
from dp1.surface import Surface, SurfaceParams, WPoint, smoothness_check


def compose(outer: UniPoly, inner: UniPoly) -> UniPoly:
    """Reference composition outer(inner(t)), by Horner evaluation in
    UniPoly; the oracle for Surface's A_t = a·f + b and B_t = c·f² + d·f + e."""
    result = UniPoly.zero()
    for c in reversed(outer.coeffs):
        result = result * inner + UniPoly.constant(c)
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
        factor = rem[-1] / g.lc()
        q[k] = factor
        for i in range(gd + 1):
            rem[k + i] -= factor * g.coeffs[i]
        rem.pop()
    return UniPoly(q), UniPoly(rem)


def squarefree_factorization_by_fractions(f: UniPoly):
    """Reference Yun's algorithm in Q[t]: monic gcds and Fraction long
    division; the oracle for poly.squarefree_factorization."""
    if f.is_zero():
        raise ValueError("cannot factor zero")
    f = f.monic()
    if f.degree() == 0:
        return []
    out = []
    fp = f.derivative()
    a = gcd(f, fp)
    b = poly_divmod(f, a)[0]
    c = poly_divmod(fp, a)[0]
    d = c - b.derivative()
    i = 1
    while b.degree() > 0:
        g = gcd(b, d)
        if g.degree() > 0:
            out.append((g.monic(), i))
        b = poly_divmod(b, g)[0]
        c = poly_divmod(d, g)[0]
        d = c - b.derivative()
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
    with sympy; the oracle for WPoint.canonicalize."""
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
        raise OffCurveError(f"{P} is not on y^2 = x^3 + {E.A}x + {E.B}")
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
    """The tangent section at the worked seed, on its fiber t = -1."""
    return tangent_section(worked_surface, *worked_surface.fiber_point(worked_seed))


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
        except Exception:
            continue
        if finite_only:
            if all(chart != "t" for chart, _ in verdict.witnesses):
                return S
        elif verdict.smooth:
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
        f = SurfaceParams(a, b, c, d, 0, f0, f1, f2, f3).f_poly()
        u0 = f(t0)
        e = y0 * y0 - x0 ** 3 - (a * u0 + b) * x0 - c * u0 ** 2 - d * u0
        params = SurfaceParams(a, b, c, d, e, f0, f1, f2, f3)
        S = Surface(params)
        P = WPoint.from_affine(t0, x0, y0)
        if not S.membership(P):
            continue
        return S, P
