"""The singular cubic model W ⊂ P³ and its tangent-section machinery.

W is the image of the weighted surface under [x:y:z:w] ↦ [xw:y:w³f(z/w):w³];
fibers with equal f-value collapse onto plane sections.  This module builds
the cubic form, computes tangent planes and their weighted pullbacks, cuts
tangent sections down to fiber lines, and classifies the ADE singularities of
W by its (a, c) regime.  The normal-form identities behind the classification
hold for every parameter value, so they are proven once, symbolically, in the
tests; at run time only their residue condition is left.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import elliptic
from .elliptic import ECPoint, FiberCurve
from .poly import UniPoly
from .rational import InvariantError, is_square, record
from .surface import Surface, WPoint


class SingularImageError(ValueError):
    """θ(P) lies in the singular locus of W; no tangent plane exists."""


class TwoTorsionSeedError(ValueError):
    """The tangent construction degenerates for 2-torsion seeds."""


def cubic_value(S: Surface, X: Sequence[Fraction]) -> Fraction:
    """F_W(X), the cubic form at a point of P³ in any representative."""
    p = S.params
    x0, x1, x2, x3 = X
    quad = p.a * x0 * x2 + p.b * x0 * x3 + p.c * x2 * x2 + p.d * x2 * x3 + p.e * x3 * x3
    return x0 * x0 * x0 + x3 * (quad - x1 * x1)


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


@record
class PlaneForm:
    """The hyperplane αX0 + βX1 + γX2 + δX3 = 0 in P³."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction

    def __post_init__(self):
        if not any((self.alpha, self.beta, self.gamma, self.delta)):
            raise ValueError("zero plane form")

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma, self.delta)


def _text(X: Sequence[Fraction]) -> str:
    """A point of P³ as the text [X0:X1:X2:X3] of its refusals."""
    return ":".join(str(Fraction(v)) for v in X)


def tangent_plane(S: Surface, X: Sequence[Fraction]) -> PlaneForm:
    """Gradient of the cubic form at the point X of W, in any representative.

    The gradient is quadratic, so rescaling X by μ scales it by μ² > 0, and
    dividing by the content leaves one plane per point.  It is computed in
    integers: X times the lcm L of its denominators, and the parameters
    a..e times the lcm M of theirs, give M·L²·∇F(X), over ℤ.  Euler's
    relation X·∇F = 3F(X) makes the plane contain X exactly when X lies on W.
    """
    L = math.lcm(*(v.denominator for v in X))
    x0, x1, x2, x3 = (v.numerator * (L // v.denominator) for v in X)
    p = S.params
    M = math.lcm(*(v.denominator for v in (p.a, p.b, p.c, p.d, p.e)))
    a, b, c, d, e = (v.numerator * (M // v.denominator) for v in (p.a, p.b, p.c, p.d, p.e))
    grads = (
        3 * M * x0 * x0 + (a * x2 + b * x3) * x3,
        -2 * M * x1 * x3,
        (a * x0 + 2 * c * x2 + d * x3) * x3,
        a * x0 * x2 + 2 * b * x0 * x3 + c * x2 * x2 + 2 * d * x2 * x3 + 3 * e * x3 * x3
        - M * x1 * x1,
    )
    content = math.gcd(*grads)
    if content == 0:
        raise SingularImageError(f"[{_text(X)}] is a singular point of W")
    # divide by the content only; the gradient's own orientation is kept
    alpha, beta, gamma, delta = (g // content for g in grads)
    if alpha * x0 + beta * x1 + gamma * x2 + delta * x3 != 0:
        raise ValueError(f"[{_text(X)}] is not on the cubic model W")
    return PlaneForm(Fraction(alpha), Fraction(beta), Fraction(gamma), Fraction(delta))


@record
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


def line_cubic_ints(line: Tuple[int, int, int], curve: elliptic.Quad) -> List[int]:
    """β²(x³ + Ax + B) − (αx + c0)², times Ad·Bd, in ℤ[x], for the line
    αx + βy + c0 = 0 given by integers (any common multiple of it) and
    A = An/Ad, B = Bn/Bd given as ``curve`` = (An, Ad, Bn, Bd)."""
    a, b, c = line
    An, Ad, Bn, Bd = curve
    b2, ABd = b * b, Ad * Bd
    return [b2 * Bn * Ad - c * c * ABd, b2 * An * Bd - 2 * a * c * ABd, -a * a * ABd, b2 * ABd]


def fiber_line_cubic(E: FiberCurve, line: Tuple[Fraction, Fraction, Fraction]) -> UniPoly:
    """Eliminate y from αx + βy + c0 = 0 on E: β²(x³ + Ax + B) − (αx + c0)².

    Requires β ≠ 0; the result is a genuine cubic in x.  The line times the
    lcm L of its denominators goes to ``line_cubic_ints``, whose result is
    put over L²·Ad·Bd.
    """
    if line[1] == 0:
        raise ValueError("vertical line has no eliminated cubic")
    L = math.lcm(*(v.denominator for v in line))
    curve = elliptic._curve_ints(E)
    return UniPoly(line_cubic_ints([v.numerator * (L // v.denominator) for v in line], curve),
                   L * L * curve[1] * curve[3])


def tangent_point(ell: TangentData) -> Tuple[Fraction, ECPoint]:
    """Third intersection of the tangent section at P with P's own fiber.

    Geometrically this is the forced extra rational point of the tangent
    section on P's own fiber; it must coincide with −[2]P under the group
    law, and both routes are checked against each other.  ``generate``
    takes −[2]P from its walk and leaves this route to the tests.
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
    Q = ECPoint(x3, -(a * x3 + c0) / b)
    # the walk checked −[2]P on E, so Q equal to it is on E too
    group_law_route = elliptic.neg(elliptic.multiples(E, P, 2)[1])
    if Q != group_law_route:
        raise InvariantError(
            f"geometric and group-law routes disagree: {Q} != {group_law_route}"
        )
    return t0, Q


# -- singularity classification ---------------------------------------

@record
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


def verify_normal_form(S: Surface) -> bool:
    """Whether W's singularity has the normal form of its (a, c) regime.

    Bruce and Wall ("On the classification of cubic surfaces", 1979) take
    F_W by a linear change of coordinates to X0·X1·X3 + G (X3·X0² + G when
    a = c = 0), with G free of X3, and a corank test on G pins the type.
    With s = √c (√d when a = c = 0) the identity holds for every parameter
    value, and the corank test is left with these residues:

    - 2×A₂, a ≠ 0: G(0, 0, 1, 0) = −8s³/a³;
    - 2×A₂, a = 0: G(0, 0, 1, 0) = 1;
    - A₅ (c = 0, a ≠ 0): X1-coefficient −1 of G(0, X1, 1, 0), and
      G(X0, 0, 1, 0) = X0³/a³;
    - E₆ (a = c = 0): G(0, X1, X2, 0) = X2³ when d ≠ 0; with d = 0 no s
      clears X3 from G.

    ``tests/test_cubic.py::test_normal_form_identities_symbolic`` proves
    these for symbolic parameters, and
    ``test_normal_form_matches_sympy_expansion`` checks this function
    against the expansion on random surfaces.  So the identity holds
    exactly when one of c, a, d is nonzero.
    """
    p = S.params
    return p.c != 0 or p.a != 0 or p.d != 0


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
