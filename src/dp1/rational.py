"""Exact scalar arithmetic: rationals and a formal quadratic extension.

Rationals are plain ``fractions.Fraction`` (arbitrary precision, always in
lowest terms with positive denominator, so the canonical-form invariants come
for free).  ``QuadExt`` adjoins a formal square root of a non-square rational
D, which is needed to write down the singular points [0:±√c:1:0] of the cubic
model when c is not a rational square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Rational = Fraction


class InvariantError(RuntimeError):
    """An internal invariant failed: a result the library computed does not
    certify.  A bug, never bad input, so it is not a ValueError."""


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction."""
    return Fraction(s.strip())


def format_rational(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(x)


def bit_size(x: Fraction) -> int:
    """Max bit length of numerator and denominator, used for runaway caps."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def is_square(x: Union[int, Fraction]) -> Optional[Fraction]:
    """Return the non-negative rational square root of x, or None.

    x is an int or a Fraction, and the root is a Fraction either way.  A
    fraction in lowest terms is a square iff numerator and denominator both
    are (as integers); an int is one with denominator 1.
    """
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


Scalar = Union[int, Fraction, "QuadExt"]


class MismatchedExtensionError(ValueError):
    """Arithmetic between QuadExt values living in different extensions."""


@dataclass(frozen=True)
class QuadExt:
    """An element p + q·√D of the quadratic field Q(√D), D a non-square.

    Arithmetic uses (√D)² = D.  Plain ints/Fractions coerce into the
    extension, so mixed expressions work.  Construction with a square D is
    rejected: in that case ordinary Fraction arithmetic must be used instead.
    """

    p: Fraction
    q: Fraction
    D: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "D", Fraction(self.D))
        if is_square(self.D) is not None:
            raise ValueError(f"D={self.D} is a rational square; use Fraction")

    @staticmethod
    def sqrt_of(D: Fraction) -> "QuadExt":
        return QuadExt(Fraction(0), Fraction(1), Fraction(D))

    def _coerce(self, other: Scalar) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.D != self.D:
                raise MismatchedExtensionError(
                    f"cannot mix sqrt({self.D}) with sqrt({other.D})"
                )
            return other
        return QuadExt(Fraction(other), Fraction(0), self.D)

    def __bool__(self) -> bool:
        return bool(self.p) or bool(self.q)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        if isinstance(other, QuadExt):
            if self.q == 0 and other.q == 0:
                return self.p == other.p
            return self.D == other.D and self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.D))

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.p, -self.q, self.D)

    def __add__(self, other: Scalar) -> "QuadExt":
        o = self._coerce(other)
        return QuadExt(self.p + o.p, self.q + o.q, self.D)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "QuadExt":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "QuadExt":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "QuadExt":
        o = self._coerce(other)
        return QuadExt(
            self.p * o.p + self.q * o.q * self.D,
            self.p * o.q + self.q * o.p,
            self.D,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.p, -self.q, self.D)

    def norm(self) -> Fraction:
        """Field norm p² − q²·D; zero iff the element is zero."""
        return self.p * self.p - self.q * self.q * self.D

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        return QuadExt(self.p / n, -self.q / n, self.D)

    def __truediv__(self, other: Scalar) -> "QuadExt":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: Scalar) -> "QuadExt":
        return self._coerce(other) * self.inverse()

    def __repr__(self) -> str:
        return f"({self.p} + {self.q}*sqrt({self.D}))"
