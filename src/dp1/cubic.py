"""The singular cubic model W ⊂ P³ and its tangent-section machinery.

W is the image of the weighted surface under [x:y:z:w] ↦ [xw:y:w³f(z/w):w³];
fibers with equal f-value collapse onto plane sections.  This module builds
the cubic form, computes tangent planes and their weighted pullbacks, cuts
tangent sections down to fiber lines, classifies the ADE singularities of W
by its (a, c) regime, and certifies the classification by expanding the
normal-form coordinate changes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from . import elliptic, poly
from .elliptic import ECPoint, FiberCurve
from .poly import MultiPoly, UniPoly
from .rational import InvariantError, QuadExt, is_square
from .surface import Surface, WPoint


class SingularImageError(ValueError):
    """θ(P) lies in the singular locus of W; no tangent plane exists."""


class TwoTorsionSeedError(ValueError):
    """The tangent construction degenerates for 2-torsion seeds."""


class DegenerateRestrictionError(ValueError):
    """A plane restricts to the zero form on the requested fiber."""


def cubic_form(S: Surface) -> MultiPoly:
    """F_W = X0³ + aX0X2X3 + bX0X3² + cX2²X3 + dX2X3² + eX3³ − X1²X3."""
    p = S.params
    X = [MultiPoly.var(4, i) for i in range(4)]
    return (
        X[0] ** 3
        + (X[0] * X[2] * X[3]).scale(p.a)
        + (X[0] * X[3] ** 2).scale(p.b)
        + (X[2] ** 2 * X[3]).scale(p.c)
        + (X[2] * X[3] ** 2).scale(p.d)
        + (X[3] ** 3).scale(p.e)
        - X[1] ** 2 * X[3]
    )


def cubic_value(S: Surface, X: Sequence[Fraction]) -> Fraction:
    """F_W(X), the cubic form at a point of P³ in any representative."""
    p = S.params
    x0, x1, x2, x3 = X
    quad = p.a * x0 * x2 + p.b * x0 * x3 + p.c * x2 * x2 + p.d * x2 * x3 + p.e * x3 * x3
    return x0 * x0 * x0 + x3 * (quad - x1 * x1)


def cubic_gradient(S: Surface, X: Sequence[Fraction]) -> List[Fraction]:
    """∇F_W(X): the four partials of the cubic form, written out."""
    p = S.params
    x0, x1, x2, x3 = X
    return [
        3 * x0 * x0 + (p.a * x2 + p.b * x3) * x3,
        -2 * x1 * x3,
        (p.a * x0 + 2 * p.c * x2 + p.d * x3) * x3,
        p.a * x0 * x2 + 2 * p.b * x0 * x3 + p.c * x2 * x2 + 2 * p.d * x2 * x3
        + 3 * p.e * x3 * x3 - x1 * x1,
    ]


def _canonical_p3(coords: Sequence[Fraction]) -> Tuple[int, int, int, int]:
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
    return tuple(ints)  # type: ignore[return-value]


def theta(S: Surface, P: WPoint) -> Tuple[int, int, int, int]:
    """Image [xw : y : f_hom(z,w) : w³] of P on the cubic W, canonicalized."""
    if not S.membership(P):
        raise ValueError(f"{P} is not on the surface")
    x, y, z, w = (Fraction(v) for v in (P.x, P.y, P.z, P.w))
    f_hom = S.f(z / w) * w ** 3 if w else S.params.f3 * z ** 3
    img = (x * w, y, f_hom, w ** 3)
    pt = _canonical_p3(img)
    if cubic_value(S, pt) != 0:
        raise InvariantError(f"theta({P}) = {pt} is not on the cubic model W")
    return pt


@dataclass(frozen=True)
class PlaneForm:
    """The hyperplane αX0 + βX1 + γX2 + δX3 = 0 in P³."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction

    def __post_init__(self):
        if not any((self.alpha, self.beta, self.gamma, self.delta)):
            raise ValueError("zero plane form")

    def evaluate(self, pt: Sequence[Fraction]) -> Fraction:
        a, b, g, d = self.alpha, self.beta, self.gamma, self.delta
        return a * pt[0] + b * pt[1] + g * pt[2] + d * pt[3]

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma, self.delta)


def tangent_plane(S: Surface, X: Sequence[Fraction]) -> PlaneForm:
    """Gradient of the cubic form at the point X of W, in any representative.

    The gradient is quadratic, so rescaling X by μ scales it by μ² > 0, and
    dividing by the content leaves one plane per point.  Euler's relation
    X·∇F = 3F(X) makes the plane contain X exactly when X lies on W.
    """
    pt = [Fraction(v) for v in X]
    grads = cubic_gradient(S, pt)
    if not any(grads):
        raise SingularImageError(f"[{':'.join(map(str, pt))}] is a singular point of W")
    # divide by the content only; the gradient's own orientation is kept
    num_gcd = math.gcd(*(gcomp.numerator for gcomp in grads))
    den_lcm = math.lcm(*(gcomp.denominator for gcomp in grads))
    scale = Fraction(num_gcd, den_lcm)
    grads = [gcomp / scale for gcomp in grads]
    plane = PlaneForm(*grads)
    if plane.evaluate(pt) != 0:
        raise ValueError(f"[{':'.join(map(str, pt))}] is not on the cubic model W")
    return plane


@dataclass(frozen=True)
class TangentData:
    """The tangent section at ``point`` on ``fiber``: the tangent plane at
    θ = (x, y, f(t), 1), pulled back to ℓ(x,y,z,w) = αxw + βy + γf_hom(z,w)
    + δw³ (weighted degree 3)."""

    plane: PlaneForm
    surface: Surface
    fiber: FiberCurve
    point: ECPoint

    def restrict_to_fiber(self, t: Fraction) -> Tuple[Fraction, Fraction, Fraction]:
        """Affine line αx + βy + c0 = 0 on the Weierstrass fiber at t."""
        a, b, g, d = self.plane.as_tuple()
        return (a, b, g * self.surface.f(Fraction(t)) + d)


def tangent_section(S: Surface, E: FiberCurve, Q: ECPoint) -> TangentData:
    """The tangent section at the affine point Q of the fiber E of S."""
    theta_q = (Q.x, Q.y, S.f(E.t), Fraction(1))
    return TangentData(tangent_plane(S, theta_q), S, E, Q)


def fiber_line_cubic(E: FiberCurve, line: Tuple[Fraction, Fraction, Fraction]) -> UniPoly:
    """Eliminate y from αx + βy + c0 = 0 on E: β²(x³ + Ax + B) − (αx + c0)².

    Requires β ≠ 0; the result is a genuine cubic in x.
    """
    a, b, c0 = line
    if b == 0:
        raise ValueError("vertical line has no eliminated cubic")
    b2 = b * b
    return UniPoly((b2 * E.B - c0 * c0, b2 * E.A - 2 * a * c0, -a * a, b2))


def tangent_point(ell: TangentData) -> Tuple[Fraction, ECPoint]:
    """Third intersection of the tangent section at P with P's own fiber.

    Geometrically this is the forced extra rational point of the tangent
    section on P's own fiber; it must coincide with −[2]P under the group
    law, and both routes are checked against each other.
    """
    E, P = ell.fiber, ell.point
    t0, x0, y0 = E.t, P.x, P.y
    if y0 == 0:
        raise TwoTorsionSeedError("seed is 2-torsion; the tangent line is vertical")
    a, b, c0 = ell.restrict_to_fiber(t0)
    if b == 0:  # b = -2*y0 up to scaling, nonzero off 2-torsion
        raise InvariantError(f"tangent line at {P} is vertical off 2-torsion")
    # the tangency forces a double root at x0, and the x² coefficient −α²
    # puts the third root at x3: the cubic is β²(x − x0)²(x − x3)
    x3 = (a / b) ** 2 - 2 * x0
    b2 = b * b
    expected = (-b2 * x0 * x0 * x3, b2 * x0 * (x0 + 2 * x3), -b2 * (2 * x0 + x3), b2)
    if fiber_line_cubic(E, (a, b, c0)).coeffs != expected:
        raise InvariantError(
            f"the tangent cubic at {P} is not β²(x − x0)²(x − x3) with x3 = {x3}"
        )
    y3 = -(a * x3 + c0) / b
    Q = ECPoint(x3, y3)
    if not elliptic.on_curve(E, Q):
        raise InvariantError(f"tangent point {Q} fails the fiber t={t0}")
    group_law_route = elliptic.neg(elliptic.multiples(E, P, 2)[1])
    if Q != group_law_route:
        raise InvariantError(
            f"geometric and group-law routes disagree: {Q} != {group_law_route}"
        )
    return t0, Q


# -- singularity classification ---------------------------------------

@dataclass(frozen=True)
class SingularityReport:
    locus: str
    sqrt_c: str  # "rational" | "irrational"
    singularity_type: str  # "2xA2" | "A5" | "E6"
    identity_verified: bool
    locus_points: Tuple[Tuple[int, ...], ...] = ()

    def to_json(self) -> dict:
        return {
            "locus": self.locus,
            "sqrt_c": self.sqrt_c,
            "type": self.singularity_type,
            "identity_verified": self.identity_verified,
        }


def _sqrt_scalar(v: Fraction) -> Union[Fraction, QuadExt]:
    root = is_square(v)
    return root if root is not None else QuadExt.sqrt_of(v)


def _specialize(G: MultiPoly, values: List[Optional[int]]) -> MultiPoly:
    """Substitute constants for the non-None slots, keeping variables else."""
    reps = []
    for idx, v in enumerate(values):
        reps.append(MultiPoly.var(4, idx) if v is None else MultiPoly.constant(4, v))
    return G.substitute(reps)


def verify_normal_form(S: Surface) -> bool:
    """Expand the case-appropriate linear change of coordinates exactly.

    Confirms that the cubic form becomes X0·X1·X3 + G (or X3·X0² + G in the
    c = a = 0 case) with G free of X3, then applies the corank test on G that
    pins the singularity type.  Works over Q(√c) (resp. Q(√d)) when the
    needed square root is irrational.  A failure here can only mean an
    implementation bug, so the checks are hard assertions surfaced as False.
    """
    p = S.params
    F = cubic_form(S)
    X = [MultiPoly.var(4, i) for i in range(4)]
    half = Fraction(1, 2)
    if p.c != 0:
        s = _sqrt_scalar(p.c)
        inv2s = 1 / (2 * s) if isinstance(s, QuadExt) else Fraction(1, 2 * s)
        d_over_2s = p.d * inv2s
        if p.a != 0:
            two_s_over_a = (2 * s) / p.a if isinstance(s, QuadExt) else Fraction(2 * s, 1) / p.a
            e0 = (X[0] - X[1].scale(d_over_2s) - X[2]).scale(two_s_over_a)
            e1 = (X[3] - X[2]).scale(half)
            e2 = (X[2] + X[3]).scale(inv2s)
            e3 = X[1]
        else:
            e0 = X[2]
            e1 = (-X[0] + X[1].scale(d_over_2s) + X[3]).scale(half)
            e2 = (X[0] - X[1].scale(d_over_2s) + X[3]).scale(inv2s)
            e3 = X[1]
        result = F.substitute([e0, e1, e2, e3])
        G = result - X[0] * X[1] * X[3]
        if G.degree_in(3) > 0:
            return False
        # corank test for A2: the cubic term in the residual direction survives
        g001 = G.evaluate([Fraction(0), Fraction(0), Fraction(1), Fraction(0)])
        return bool(g001)
    if p.a != 0:
        # c = 0: single A5 point
        e0 = (X[0] - X[1].scale(p.d)).scale(1 / p.a)
        result = F.substitute([e0, X[2], X[3], X[1]])
        G = result - X[0] * X[1] * X[3]
        if G.degree_in(3) > 0:
            return False
        g1 = _specialize(G, [0, None, 1, 0])
        g0 = _specialize(G, [None, 0, 1, 0])
        order1 = g1.coefficient_of(1, 0).is_zero() and not g1.coefficient_of(1, 1).is_zero()
        order3 = (
            g0.coefficient_of(0, 0).is_zero()
            and g0.coefficient_of(0, 1).is_zero()
            and g0.coefficient_of(0, 2).is_zero()
            and not g0.coefficient_of(0, 3).is_zero()
        )
        return order1 and order3
    # c = a = 0: one E6 point; smoothness forces d != 0
    if p.d == 0:
        return False
    s = _sqrt_scalar(p.d)
    inv_s = 1 / s if isinstance(s, QuadExt) else Fraction(1, 1) / s
    result = F.substitute([X[2], X[1], X[3], X[0].scale(inv_s)])
    G = result - X[3] * X[0] ** 2
    if G.degree_in(3) > 0:
        return False
    g = _specialize(G, [0, None, None, 0])
    return g == MultiPoly(4, {(0, 0, 3, 0): Fraction(1)})


def classify_singularities(S: Surface) -> SingularityReport:
    """Singular locus {[0:±√c:1:0]} and ADE type from the (a, c) regime."""
    p = S.params
    root_c = is_square(p.c)
    sqrt_c = "rational" if root_c is not None else "irrational"
    if root_c is not None:
        if root_c == 0:
            locus = "[0:0:1:0]"
            locus_points: Tuple[Tuple[int, ...], ...] = ((0, 0, 1, 0),)
        else:
            locus = f"[0:±{root_c}:1:0]"
            locus_points = tuple(
                _canonical_p3([Fraction(0), sgn * root_c, Fraction(1), Fraction(0)])
                for sgn in (1, -1)
            )
    else:
        locus = f"[0:±√({p.c}):1:0]"
        locus_points = ()
    if p.c != 0:
        kind = "2xA2"
    elif p.a != 0:
        kind = "A5"
    else:
        kind = "E6"
    verified = verify_normal_form(S)
    return SingularityReport(locus, sqrt_c, kind, verified, locus_points)


def transversality_check(S: Surface, R: WPoint, P: WPoint) -> int:
    """Number of distinct points (over the closure) cut on P's fiber by the
    tangent section at R, via the squarefree degree of the eliminated cubic."""
    if R.w == 0 or P.w == 0:
        raise ValueError("transversality check needs w != 0 for both points")
    E = S.fiber_at(P.t())
    if E.is_singular():
        raise ValueError("fiber of P is singular")
    a, b, c0 = tangent_section(S, *S.fiber_point(R)).restrict_to_fiber(P.t())
    if a == 0 and b == 0:
        if c0 == 0:
            raise DegenerateRestrictionError("plane restricts to zero on the fiber")
        return 1  # the section cuts 3·O
    if b == 0:
        x0 = -c0 / a
        return 2 if E.rhs(x0) != 0 else 1
    cubic = fiber_line_cubic(E, (a, b, c0))
    return poly.squarefree_part(cubic).degree()
