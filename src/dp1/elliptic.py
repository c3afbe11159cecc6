"""Short-Weierstrass group law over Q and the Mazur-bound torsion test."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Over Q a torsion point has order in {1,...,10,12} (Mazur), so checking
# multiples up to 12 decides torsion exactly.
MAZUR_ORDERS = tuple(list(range(1, 11)) + [12])


class OffCurveError(ValueError):
    """A point fed to the group law does not satisfy the curve equation."""


class SingularFiberError(ValueError):
    """Operation requires a nonsingular Weierstrass curve."""


@dataclass(frozen=True)
class FiberCurve:
    """A Weierstrass fiber y² = x³ + A·x + B at fibration parameter t."""

    t: Fraction
    A: Fraction
    B: Fraction

    def discriminant(self) -> Fraction:
        return -16 * (4 * self.A ** 3 + 27 * self.B ** 2)

    def is_singular(self) -> bool:
        return 4 * self.A ** 3 + 27 * self.B ** 2 == 0

    def rhs(self, x: Fraction) -> Fraction:
        return x ** 3 + self.A * x + self.B


@dataclass(frozen=True)
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


def on_curve(E: FiberCurve, P: ECPoint) -> bool:
    if P.is_infinity:
        return True
    return P.y * P.y == E.rhs(P.x)


def _require_on_curve(E: FiberCurve, P: ECPoint) -> None:
    if not on_curve(E, P):
        raise OffCurveError(f"{P} is not on y^2 = x^3 + {E.A}x + {E.B}")


def neg(P: ECPoint) -> ECPoint:
    if P.is_infinity:
        return P
    return ECPoint(P.x, -P.y)


def add(E: FiberCurve, P: ECPoint, Q: ECPoint) -> ECPoint:
    """Chord-tangent addition with the point at infinity as origin."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return O
        # doubling (P == Q, y != 0)
        lam = (3 * P.x * P.x + E.A) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return ECPoint(x3, y3)


def mul(E: FiberCurve, n: int, P: ECPoint) -> ECPoint:
    """Scalar multiple [n]P by double-and-add; negative n negates."""
    _require_on_curve(E, P)
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


def torsion_status(E: FiberCurve, P: ECPoint) -> Optional[int]:
    """Exact order of P if torsion (in the Mazur set), else None.

    Walks successive multiples; any rational torsion point has order at
    most 12, so 12 additions decide.
    """
    if E.is_singular():
        raise SingularFiberError("torsion test requires a nonsingular fiber")
    _require_on_curve(E, P)
    acc = P
    for n in range(1, 13):
        # acc == [n]P at this point
        if acc.is_infinity:
            return n
        acc = add(E, acc, P)
    return None
