"""The singular cubic model W ⊂ P³: its tangent planes and singularities.

W is the image of the weighted surface under [x:y:z:w] ↦ [xw:y:w³f(z/w):w³],
which puts the point (x, y) of the fiber t at (x, y, f(t), 1); fibers with
equal f-value collapse onto plane sections.  This module computes the
tangent plane to W at a point as four primitive integers, eliminates y from
its line on a fiber in integers, and classifies the ADE singularities of W
by its (a, c) regime.  The normal-form identities behind the classification
hold for every parameter value, so they are proven once, symbolically, in the
tests; at run time only their residue condition is left.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import elliptic, poly
from .elliptic import ECPoint, FiberCurve
from .rational import InvariantError, Pair, format_pair, is_square, reduced
from .surface import Surface


class SingularImageError(ValueError):
    """θ(P) lies in the singular locus of W; no tangent plane exists."""


class TwoTorsionSeedError(ValueError):
    """The tangent construction degenerates for 2-torsion seeds."""


def tangent_plane(S: Surface, X: Sequence[Tuple[int, int]]) -> Tuple[int, int, int, int]:
    """The tangent plane αX0 + βX1 + γX2 + δX3 = 0 to W at the point X, in
    any representative, as the primitive integer gradient (α, β, γ, δ).

    Each coordinate of X is a rational (numerator, denominator > 0), in
    lowest terms or not.  The gradient is quadratic, so rescaling X by μ
    scales it by μ² > 0, and dividing by the content leaves one plane per
    point.  It is computed in integers: X times the lcm L of its
    denominators, and the parameters a..e times the lcm M of theirs, give
    M·L²·∇F(X), over ℤ.  Euler's relation X·∇F = 3F(X) makes the plane
    contain X exactly when X lies on W.  The numerators of a..e over
    M = ``S.ab_den`` are the surface's α and β.
    """
    L = math.lcm(*(d for _, d in X))
    x0, x1, x2, x3 = (n * (L // d) for n, d in X)
    M, (b, a), (e, d, c) = S.ab_den, S.alpha, S.beta
    grads = (
        3 * M * x0 * x0 + (a * x2 + b * x3) * x3,
        -2 * M * x1 * x3,
        (a * x0 + 2 * c * x2 + d * x3) * x3,
        a * x0 * x2 + 2 * b * x0 * x3 + c * x2 * x2 + 2 * d * x2 * x3 + 3 * e * x3 * x3
        - M * x1 * x1,
    )
    content = math.gcd(*grads)
    if content:
        # divide by the content only; the gradient's own orientation is kept
        alpha, beta, gamma, delta = (g // content for g in grads)
        if alpha * x0 + beta * x1 + gamma * x2 + delta * x3 == 0:
            return alpha, beta, gamma, delta
    text = f"[{':'.join(str(Fraction(n, d)) for n, d in X)}]"
    if content == 0:
        raise SingularImageError(f"{text} is a singular point of W")
    raise ValueError(f"{text} is not on the cubic model W")


def line_cubic_ints(line: Tuple[int, int, int], E: FiberCurve) -> List[int]:
    """β²(x³ + Ax + B) − (αx + c0)², times Ad·Bd, in ℤ[x], for the line
    αx + βy + c0 = 0 given by integers (any common multiple of it) on the
    fiber E, with A = An/Ad and B = Bn/Bd."""
    a, b, c = line
    (An, Ad), (Bn, Bd) = E.A, E.B
    b2, ABd = b * b, Ad * Bd
    return [b2 * Bn * Ad - c * c * ABd, b2 * An * Bd - 2 * a * c * ABd, -a * a * ABd, b2 * ABd]


def tangent_point(S: Surface, E: FiberCurve, P: ECPoint) -> Tuple[Pair, ECPoint]:
    """Third intersection of the tangent section at P with P's own fiber E.

    Geometrically this is the forced extra rational point of the tangent
    section on P's own fiber; it must coincide with −[2]P under the group
    law, and both routes are checked against each other.  ``generate``
    takes −[2]P from its walk and leaves this route to the tests.
    """
    (p, q), (yn, _) = P.x, P.y
    if yn == 0:
        raise TwoTorsionSeedError("seed is 2-torsion; the tangent line is vertical")
    fn, fd = S.f.value_ints(*E.t)
    al, be, ga, de = tangent_plane(S, (P.x, P.y, (fn, fd), (1, 1)))
    # the tangent line αx + βy + γ·f(t0) + δ = 0 on E, times fd
    a, b, c0 = al * fd, be * fd, ga * fn + de * fd
    if b == 0:  # b = -2*y0 up to scaling, nonzero off 2-torsion
        raise InvariantError(f"tangent line at {P} is vertical off 2-torsion")
    # the tangency forces a double root at x0 = p/q, and the x² coefficient
    # −α² puts the third root at x3 = (α/β)² − 2·x0 = r/s: the cubic is
    # β²(x − x0)²(x − x3), and q²·s times it is β²·(qx − p)²·(sx − r)
    r, s = x3 = reduced(a * a * q - 2 * p * b * b, b * b * q)
    (_, Ad), (_, Bd) = E.A, E.B
    lhs = [q * q * s * v for v in line_cubic_ints((a, b, c0), E)]
    if lhs != [b * b * Ad * Bd * v for v in poly.int_mul(poly.int_mul((-p, q), (-p, q)), (-r, s))]:
        raise InvariantError(
            f"the tangent cubic at {P} is not β²(x − x0)²(x − x3) with x3 = {format_pair(x3)}"
        )
    Q = ECPoint(x3, reduced(-(a * r + c0 * s), b * s))
    # the walk checked −[2]P on E, so Q equal to it is on E too
    group_law_route = elliptic.neg(elliptic.multiples(E, P, 2)[1])
    if Q != group_law_route:
        raise InvariantError(
            f"geometric and group-law routes disagree: {Q} != {group_law_route}"
        )
    return E.t, Q


# -- singularity classification ---------------------------------------

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


def classify_singularities(S: Surface) -> dict:
    """W's singular points [0:±√c:1:0] and their ADE type from the (a, c)
    regime, as ``dp1 classify`` prints them: ``locus``, ``sqrt_c``
    ("rational" or "irrational"), ``type`` ("2xA2", "A5" or "E6") and
    ``identity_verified``.

    The locus is all of W's singular locus only when the u-line finds no
    singular point of the t chart: W is also singular at each singular
    point (x0, 0, u0, 1) of y² = x³ + α(u)x + β(u), which the report does
    not list.  So where α, β and β′ share a root u0, as u0 = −1 does for
    (a, b, c, d, e) = (1, 1, −1, −2, −1), W is singular at [0:0:u0:1] too;
    ``dp1 classify`` refuses such a surface.
    """
    p = S.params
    root_c = is_square(p.c)
    if root_c is None:
        locus = f"[0:±√({p.c}):1:0]"
    elif root_c == 0:
        locus = "[0:0:1:0]"
    else:
        locus = f"[0:±{root_c}:1:0]"
    if p.c != 0:
        kind = "2xA2"
    elif p.a != 0:
        kind = "A5"
    else:
        kind = "E6"
    return {
        "locus": locus,
        "sqrt_c": "irrational" if root_c is None else "rational",
        "type": kind,
        "identity_verified": verify_normal_form(S),
    }
