"""Short-Weierstrass group law over Q and the Mazur-bound torsion test.

Curves and points hold Fractions at the interface.  The chord-tangent step
and the curve check work on integer numerators and denominators: a point is
the reduced quadruple (xn, xd, yn, yd), and ``multiples`` carries its walk in
that form, building Fractions only for the points it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .poly import REDUCTION_PRIME  # the prime of torsion_status's reduction test
from .rational import InvariantError, record

# Over Q a torsion point has order in {1,...,10,12} (Mazur), so walking the
# multiples up to [12]P decides torsion exactly.
MAZUR_ORDERS = tuple(list(range(1, 11)) + [12])


class OffCurveError(ValueError):
    """A point fed to the group law does not satisfy the curve equation."""


class SingularFiberError(ValueError):
    """Operation requires a nonsingular Weierstrass curve."""


@record
class FiberCurve:
    """A Weierstrass fiber y² = x³ + A·x + B at fibration parameter t."""

    t: Fraction
    A: Fraction
    B: Fraction

    def is_singular(self) -> bool:
        """Whether 4A³ + 27B² = 0, in integers: with A = an/ad and B = bn/bd,
        4·an³·bd² + 27·bn²·ad³ = 0."""
        an, ad, bn, bd = _curve_ints(self)
        return 4 * an ** 3 * bd * bd + 27 * bn * bn * ad ** 3 == 0

    def rhs(self, x: Fraction) -> Fraction:
        return x ** 3 + self.A * x + self.B


@record
class ECPoint:
    """Affine point (x, y), or the point at infinity (x = y = None)."""

    x: Optional[Fraction] = None
    y: Optional[Fraction] = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        return "O" if self.is_infinity else f"({self.x}, {self.y})"


O = ECPoint()


# Two rationals as integers in lowest terms, (n1, d1, n2, d2) with d1, d2 > 0:
# an affine point (x, y) or a curve's (A, B)
Quad = Tuple[int, int, int, int]


def _ints(P: ECPoint) -> Quad:
    return P.x.as_integer_ratio() + P.y.as_integer_ratio()


def _point(R: Quad) -> ECPoint:
    return ECPoint(Fraction(R[0], R[1]), Fraction(R[2], R[3]))


def _curve_ints(E: FiberCurve) -> Quad:
    """(an, ad, bn, bd) with A = an/ad and B = bn/bd."""
    return E.A.as_integer_ratio() + E.B.as_integer_ratio()


def _on_curve_ints(curve: Quad, R: Quad) -> bool:
    """y² = x³ + Ax + B, in integers: with x = xn/xd, y = yn/yd, A = an/ad
    and B = bn/bd, both sides times yd²·xd³·ad·bd.  Holds for any nonzero
    denominators, in lowest terms or not."""
    an, ad, bn, bd = curve
    xn, xd, yn, yd = R
    xd3 = xd * xd * xd
    rhs = (xn * xn * xn * ad + an * xn * xd * xd) * bd + bn * ad * xd3
    return yn * yn * xd3 * ad * bd == yd * yd * rhs


def on_curve(E: FiberCurve, P: ECPoint) -> bool:
    """Whether P lies on E, by ``_on_curve_ints``."""
    return P.is_infinity or _on_curve_ints(_curve_ints(E), _ints(P))


def _require_on_curve(E: FiberCurve, P: ECPoint) -> None:
    if not on_curve(E, P):
        raise OffCurveError(f"{P} is not an affine point of the fiber t={E.t}")


def neg(P: ECPoint) -> ECPoint:
    if P.is_infinity:
        return P
    return ECPoint(P.x, -P.y)


def _reduced(n: int, d: int) -> Tuple[int, int]:
    """n/d in lowest terms with d > 0, for d ≠ 0."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _chord_step(an: int, ad: int, P: Quad, Q: Quad) -> Optional[Quad]:
    """P + Q for affine P and Q on y² = x³ + (an/ad)·x + B, which the caller
    has checked; None for O.  One gcd each for λ, x3 and y3."""
    x1n, x1d, y1n, y1d = P
    x2n, x2d, y2n, y2d = Q
    if x1n == x2n and x1d == x2d:
        if y1n == -y2n and y1d == y2d:
            return None
        # doubling (P == Q, y != 0): λ = (3x² + A)/(2y)
        ln, ld = _reduced((3 * x1n * x1n * ad + an * x1d * x1d) * y1d, 2 * y1n * x1d * x1d * ad)
    else:
        ln, ld = _reduced((y2n * y1d - y1n * y2d) * x1d * x2d, (x2n * x1d - x1n * x2d) * y1d * y2d)
    # x3 = λ² − x1 − x2, y3 = λ(x1 − x3) − y1
    ld2 = ld * ld
    x3n, x3d = _reduced(ln * ln * x1d * x2d - (x1n * x2d + x2n * x1d) * ld2, ld2 * x1d * x2d)
    y3n, y3d = _reduced(ln * (x1n * x3d - x3n * x1d) * y1d - y1n * ld * x1d * x3d,
                        ld * x1d * x3d * y1d)
    return x3n, x3d, y3n, y3d


def _chord(E: FiberCurve, P: ECPoint, Q: ECPoint) -> ECPoint:
    """Chord-tangent addition with the point at infinity as origin; the
    caller has checked P and Q on E."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    R = _chord_step(*E.A.as_integer_ratio(), _ints(P), _ints(Q))
    return O if R is None else _point(R)


def add(E: FiberCurve, P: ECPoint, Q: ECPoint) -> ECPoint:
    """P + Q on E: an input off E is an OffCurveError, a sum off E an InvariantError."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    R = _chord(E, P, Q)
    if not on_curve(E, R):
        raise InvariantError(f"{P} + {Q} = {R} is not on the fiber t={E.t}")
    return R


def multiples(E: FiberCurve, P: ECPoint, n: int) -> List[ECPoint]:
    """[P, [2]P, ..., [n]P], one chord step each; after [k]P = O the walk
    starts again at [k + 1]P = P.

    P and each new multiple are checked on E once: P off E is an
    OffCurveError, a multiple off E an InvariantError.
    """
    if n < 1:
        raise ValueError("the walk needs n >= 1")
    _require_on_curve(E, P)
    if P.is_infinity:
        return [O] * n
    curve, p = _curve_ints(E), _ints(P)
    an, ad = curve[:2]
    walk, acc = [P], p
    for k in range(2, n + 1):
        acc = p if acc is None else _chord_step(an, ad, acc, p)
        if acc is None:
            walk.append(O)
        elif not _on_curve_ints(curve, acc):
            raise InvariantError(f"[{k}]{P} = {_point(acc)} is not on the fiber t={E.t}")
        else:
            walk.append(_point(acc))
    return walk


def walk_order(walk: List[ECPoint]) -> Optional[int]:
    """The first n with [n]P = O in the walk [P, [2]P, ...], else None."""
    return next((n for n, R in enumerate(walk, 1) if R.is_infinity), None)


def _nontorsion_mod(E: FiberCurve, P: ECPoint, p: int) -> bool:
    """Whether reduction mod the prime p > 12 certifies that P on E has
    infinite order: p divides no denominator of A, B, x and y and not
    4A³ + 27B², and no [n]P̃ with n ≤ 12 is Õ.

    At such a p the model has good reduction, and torsion of E(Q) of order
    prime to p injects into Ẽ(F_p) (Silverman, AEC VII.3.1), so a torsion P
    of order n ≤ 12 (Mazur) has [n]P̃ = Õ.  False decides nothing.
    """
    if P.is_infinity:
        return False
    vals = []
    for v in (E.A, E.B, P.x, P.y):
        if v.denominator % p == 0:
            return False
        vals.append(v.numerator * pow(v.denominator, -1, p) % p)
    a, b, x0, y0 = vals
    if (4 * a ** 3 + 27 * b ** 2) % p == 0:
        return False
    x, y = x0, y0
    for n in range(2, max(MAZUR_ORDERS) + 1):  # (x, y) = [n − 1]P̃ ≠ Õ
        if x == x0:
            if (y + y0) % p == 0:
                return False  # [n]P̃ = Õ
            lam = (3 * x0 * x0 + a) * pow(2 * y0, -1, p) % p
        else:
            lam = (y - y0) * pow(x - x0, -1, p) % p
        x3 = (lam * lam - x - x0) % p
        x, y = x3, (lam * (x0 - x3) - y0) % p
    return True


def torsion_status(E: FiberCurve, P: ECPoint) -> Optional[int]:
    """Exact order of P if torsion (in the Mazur set), else None.

    P is checked on E first, then E for singularity.  Reduction mod
    REDUCTION_PRIME then certifies infinite order in 11 steps over F_p
    (Silverman, AEC VII.3.1: torsion injects under good reduction at
    p > 12); when it cannot, the order is the first O among [1]P, ..., [12]P
    of the exact walk.
    """
    _require_on_curve(E, P)
    if E.is_singular():
        raise SingularFiberError("torsion test requires a nonsingular fiber")
    if _nontorsion_mod(E, P, REDUCTION_PRIME):
        return None
    return walk_order(multiples(E, P, max(MAZUR_ORDERS)))
