"""Short-Weierstrass group law over Q and the Mazur-bound torsion test.

A fiber holds t, A and B, and an affine point x and y, as ``Pair``s: a
rational in lowest terms as (numerator, denominator > 0).  The chord-tangent
step, the curve check and the reduction test run on those integers, and no
Fraction is built.
"""

from __future__ import annotations

from typing import List, Optional

from .poly import REDUCTION_PRIME  # the prime of torsion_status's reduction test
from .rational import InvariantError, Pair, format_pair, record, reduced

# Over Q a torsion point has order in {1,...,10,12} (Mazur), so walking the
# multiples up to [12]P decides torsion exactly.
MAZUR_ORDERS = tuple(list(range(1, 11)) + [12])


class OffCurveError(ValueError):
    """A point fed to the group law does not satisfy the curve equation."""


class SingularFiberError(ValueError):
    """Operation requires a nonsingular Weierstrass curve."""


@record
class FiberCurve:
    """A Weierstrass fiber y² = x³ + A·x + B at fibration parameter t, with
    t, A and B as Pairs."""

    t: Pair
    A: Pair
    B: Pair

    def is_singular(self) -> bool:
        """Whether 4A³ + 27B² = 0, in integers: with A = an/ad and B = bn/bd,
        4·an³·bd² + 27·bn²·ad³ = 0."""
        (an, ad), (bn, bd) = self.A, self.B
        return 4 * an ** 3 * bd * bd + 27 * bn * bn * ad ** 3 == 0


@record
class ECPoint:
    """Affine point (x, y) as Pairs, or the point at infinity (x = y = None)."""

    x: Optional[Pair] = None
    y: Optional[Pair] = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        return "O" if self.is_infinity else f"({format_pair(self.x)}, {format_pair(self.y)})"


O = ECPoint()


def on_curve(E: FiberCurve, P: ECPoint) -> bool:
    """Whether P lies on E: y² = x³ + Ax + B, in integers, with x = xn/xd,
    y = yn/yd, A = an/ad and B = bn/bd, both sides times yd²·xd³·ad·bd."""
    if P.is_infinity:
        return True
    (an, ad), (bn, bd) = E.A, E.B
    (xn, xd), (yn, yd) = P
    xd3 = xd * xd * xd
    rhs = (xn * xn * xn * ad + an * xn * xd * xd) * bd + bn * ad * xd3
    return yn * yn * xd3 * ad * bd == yd * yd * rhs


def _require_on_curve(E: FiberCurve, P: ECPoint) -> None:
    if not on_curve(E, P):
        raise OffCurveError(f"{P} is not an affine point of the fiber t={format_pair(E.t)}")


def neg(P: ECPoint) -> ECPoint:
    if P.is_infinity:
        return P
    yn, yd = P.y
    return ECPoint(P.x, (-yn, yd))


def _chord_step(A: Pair, P: ECPoint, Q: ECPoint) -> ECPoint:
    """P + Q for affine P and Q on y² = x³ + A·x + B, which the caller has
    checked.  One gcd each for λ, x3 and y3."""
    an, ad = A
    (x1n, x1d), (y1n, y1d) = P
    (x2n, x2d), (y2n, y2d) = Q
    if P.x == Q.x:
        if y1n == -y2n and y1d == y2d:
            return O
        # doubling (P == Q, y != 0): λ = (3x² + A)/(2y)
        ln, ld = reduced((3 * x1n * x1n * ad + an * x1d * x1d) * y1d, 2 * y1n * x1d * x1d * ad)
    else:
        ln, ld = reduced((y2n * y1d - y1n * y2d) * x1d * x2d, (x2n * x1d - x1n * x2d) * y1d * y2d)
    # x3 = λ² − x1 − x2, y3 = λ(x1 − x3) − y1
    ld2 = ld * ld
    x3n, x3d = x3 = reduced(ln * ln * x1d * x2d - (x1n * x2d + x2n * x1d) * ld2, ld2 * x1d * x2d)
    return ECPoint(x3, reduced(ln * (x1n * x3d - x3n * x1d) * y1d - y1n * ld * x1d * x3d,
                               ld * x1d * x3d * y1d))


def add(E: FiberCurve, P: ECPoint, Q: ECPoint) -> ECPoint:
    """P + Q on E: an input off E is an OffCurveError, a sum off E an InvariantError."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    if P.is_infinity or Q.is_infinity:
        return Q if P.is_infinity else P
    R = _chord_step(E.A, P, Q)
    if not on_curve(E, R):
        raise InvariantError(f"{P} + {Q} = {R} is not on the fiber t={format_pair(E.t)}")
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
    walk, acc = [P], P
    for k in range(2, n + 1):
        acc = P if acc.is_infinity else _chord_step(E.A, acc, P)
        if not on_curve(E, acc):
            raise InvariantError(f"[{k}]{P} = {acc} is not on the fiber t={format_pair(E.t)}")
        walk.append(acc)
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
    for n, d in (E.A, E.B, P.x, P.y):
        if d % p == 0:
            return False
        vals.append(n * pow(d, -1, p) % p)
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
