"""Exact polynomial algebra over the rationals.

A univariate polynomial is held as integer numerators over one positive
denominator, and every algorithm runs in ℤ[t] on those numerators; Fractions
appear only where a coefficient or a value is read out.  Everything is exact;
there is no floating point anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from collections.abc import Iterable, Sequence

from .rational import InvariantError, reduced


class UniPoly:
    """Dense univariate polynomial over Q, coefficients indexed by degree.

    Held as integer numerators ``cs`` over one positive denominator ``den``,
    f = Σ cs[i]·tⁱ / den, normalised so that gcd(den, *cs) == 1 and cs has
    no trailing zero: each polynomial has one representation, the one the
    ℤ[t] kernels below compute in.  ``coeffs`` is the Fraction tuple, for
    output.  The zero polynomial has cs == (), den == 1 and degree() == -1
    (documented sentinel).
    """

    __slots__ = ("cs", "den")

    def __init__(self, coeffs: Iterable[int] = (), den: int = 1):
        """The polynomial Σ coeffs[i]·tⁱ / den, for integers coeffs and den."""
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if not den:
            raise ZeroDivisionError("UniPoly with denominator 0")
        if den < 0:
            cs, den = [-c for c in cs], -den
        g = math.gcd(den, *cs)
        if g > 1:
            cs, den = [c // g for c in cs], den // g
        self.cs: tuple[int, ...] = tuple(cs)
        self.den: int = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.cs)

    def degree(self) -> int:
        return len(self.cs) - 1

    def is_zero(self) -> bool:
        return not self.cs

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        """Product by convolving the integer numerators."""
        return UniPoly(int_mul(self.cs, other.cs), self.den * other.den)

    def value_ints(self, p: int, q: int) -> tuple[int, int]:
        """f(p/q), q > 0, for f of degree n: the integer qⁿ·cs(p/q), by
        homogeneous Horner, and den·qⁿ, not reduced."""
        if not self.cs:
            return 0, 1
        return homogeneous_value(self.cs, p, q), self.den * q ** (len(self.cs) - 1)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly(self.cs, self.cs[-1])


# -- integer-polynomial helpers (gcd via primitive PRS) ----------------

def _primitive(cs: Sequence[int]) -> list[int]:
    g = math.gcd(*cs) or 1
    return [c // g for c in cs]


def _int_prem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials (prem), trailing zeros trimmed."""
    f = list(f)
    dg = len(g) - 1
    glc = g[-1]
    while len(f) - 1 >= dg:
        k = len(f) - 1 - dg
        flc = f[-1]
        f = [c * glc for c in f]
        for i in range(dg + 1):
            f[k + i] -= flc * g[i]
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return f


def int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer polynomials, by convolution."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def deriv(cs: Sequence) -> list:
    """The coefficients of the derivative of Σ cs[i]·tⁱ."""
    return [i * cs[i] for i in range(1, len(cs))]


def combination(x: int, u: Sequence[int], y: int, v: Sequence[int]) -> list[int]:
    """x·u + y·v for integer polynomials, trailing zeros trimmed."""
    out = [x * c for c in u] + [0] * (len(v) - len(u))
    for i, c in enumerate(v):
        out[i] += y * c
    while out and out[-1] == 0:
        out.pop()
    return out


# 2³⁰ − 35, the prime of int_gcd's coprimality test and torsion_status's
# reduction test: far above the Mazur orders, dividing almost no coefficient or
# discriminant, and with one-digit CPython ints as residues, inverted cheaply.
REDUCTION_PRIME = 1073741789


def _coprime_mod(f: Sequence[int], g: Sequence[int], p: int) -> bool:
    """Whether f and g have a unit gcd mod p, p ∤ f's leading coefficient:
    Euclid over F_p."""
    f, g = [c % p for c in f], [c % p for c in g]
    while g and g[-1] == 0:
        g.pop()
    while g:
        inv, dg = pow(g[-1], -1, p), len(g) - 1
        while len(f) > dg:
            q, k = f[-1] * inv % p, len(f) - 1 - dg
            for i in range(dg):
                f[k + i] = (f[k + i] - q * g[i]) % p
            f.pop()
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    return len(f) == 1


def int_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd, up to sign, of trimmed integer polynomials (zero for two
    zeros).

    With a = t^va·a′ and b = t^vb·b′, t dividing neither a′ nor b′, the gcd is
    t^min(va, vb)·gcd(a′, b′).  When p = REDUCTION_PRIME does not divide a′'s
    leading coefficient and a′, b′ are coprime mod p, that is t^min(va, vb):
    by Gauss's lemma an integer gcd of degree d divides a′ in ℤ[t], so it
    keeps degree d mod p and divides both residues.  Otherwise a primitive
    remainder sequence decides, each pseudo-remainder made primitive to curb
    coefficient growth."""
    if a and b:
        va, vb = (next(i for i, c in enumerate(x) if c) for x in (a, b))
        if a[-1] % REDUCTION_PRIME and _coprime_mod(a[va:], b[vb:], REDUCTION_PRIME):
            return [0] * min(va, vb) + [1]
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_prem(a, b)
        a, b = b, _primitive(r) if r else []
    return a


def gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over Q via a primitive remainder sequence over Z."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return UniPoly(int_gcd(f.cs, g.cs)).monic()


def is_separable(q: Sequence[int]) -> bool:
    """Whether the quadratic c + b·t + a·t², given as its integers (c, b, a)
    with a ≠ 0, has no repeated root: b² ≠ 4ac."""
    c, b, a = q
    return b * b != 4 * a * c


def squarefree_split(cs: Sequence[int]) -> tuple[list[int], list[int]]:
    """(h, cs / h) for the integer polynomial cs and h = gcd(cs, cs′),
    primitive: cs / h is the squarefree part of cs, up to a constant."""
    h = int_gcd(cs, deriv(cs))
    return h, int_exact_div(cs, h)


def squarefree_factorization(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm in ℤ[t]: return [(g_i, i)] with f = lc · ∏ g_i^i, g_i
    monic.  Each step divides b and c by the same primitive gcd, so they stay
    integral (Gauss's lemma) and d = c − b′ keeps its meaning."""
    if f.is_zero():
        raise ValueError("cannot factor zero")
    out: list[tuple[UniPoly, int]] = []
    cs = f.cs
    a, b = squarefree_split(cs)
    c = int_exact_div(deriv(cs), a)
    for i in range(1, len(cs)):  # no multiplicity exceeds deg f
        if len(b) == 1:
            break
        d = combination(1, c, -1, deriv(b))
        g = int_gcd(b, d)
        if len(g) > 1:
            out.append((UniPoly(g).monic(), i))
        b, c = int_exact_div(b, g), int_exact_div(d, g)
    return out


def homogeneous_value(cs: Sequence[int], p: int, q: int) -> int:
    """qⁿ·f(p/q) for the integer polynomial f = Σ cs[i]·xⁱ of degree n,
    by homogeneous Horner."""
    acc = cs[-1]
    qk = 1
    for c in reversed(cs[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def int_exact_div(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g for integer polynomials, g primitive and dividing f over Q: by
    Gauss's lemma the quotient is integral, so long division is exact.  A
    remainder, which only a g not dividing f leaves, raises InvariantError."""
    rem = list(f)
    dg = len(g) - 1
    out = [0] * (len(f) - dg)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = rem[k + dg] // g[-1]
        if c:
            for i in range(dg + 1):
                rem[k + i] -= c * g[i]
    if any(rem):
        raise InvariantError(f"{list(g)} does not divide {list(f)} in Z[t]")
    return out


def eval_mod(cs: Sequence[int], t: int, p: int) -> int:
    """The integer polynomial Σ cs[i]·tⁱ at t, mod p, by Horner."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * t + c) % p
    return acc


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division."""
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


# the primes at which int_roots looks for a residue root before it lifts
SIEVE_PRIMES = (5, 7, 11, 13, 17, 19, 23)


@functools.cache
def _depressed_roots(ell: int) -> tuple[list[int], int]:
    """The roots mod ℓ of every y³ + p·y + q, and 3⁻¹ mod ℓ: at index
    p·ℓ + q, the bitmask of its roots y, negated when 4p³ + 27q² ≡ 0 (a
    multiple root, which a cubic mod ℓ can only have in F_ℓ)."""
    masks = [0] * (ell * ell)
    for y in range(ell):
        for p in range(ell):
            masks[p * ell + -(y ** 3 + p * y) % ell] |= 1 << y
    return [m if (4 * (i // ell) ** 3 + 27 * (i % ell) ** 2) % ell else -m
            for i, m in enumerate(masks)], pow(3, -1, ell)


def int_roots(cs: Sequence[int]) -> list[tuple[int, int]]:
    """The distinct rational roots p/q of the nonzero, trimmed integer
    polynomial cs, as (p, q) with q > 0 and gcd(p, q) = 1, sorted; by p-adic
    lifting (Loos).

    Powers of t give the root 0.  The rest is made a primitive polynomial of
    degree n with leading coefficient lc, and g(X) = lcⁿ⁻¹·f(X/lc) is monic:
    the rational roots of f are m/lc for the integer roots m of g, and
    |m| ≤ B = 1 + max|gᵢ|.  When g has no root mod one of SIEVE_PRIMES it
    has no integer root, and f no rational root but 0.  A cubic
    g = x³ + g₂x² + g₁x + g₀ is sieved by table: with s = g₂/3 mod ℓ, its
    roots are y − s for the roots y of y³ + p·y + q, p = g₁ − g₂·s and
    q = g₀ − g₁·s + 2s³, looked up in ``_depressed_roots(ℓ)``; the first
    sieve prime with only simple roots gives the lift its ℓ and residues.
    Otherwise g's squarefree part h, which has g's roots and leading
    coefficient ±1, has a nonzero discriminant, so some prime ℓ ≥ 5 has
    only simple roots of h, found by trying every residue.  Those roots are
    Newton-lifted to a modulus past 2B, each carrying h′(r)⁻¹
    (inv ← inv·(2 − h′(r)·inv) mod m²), so the one inverse taken is mod ℓ.
    Each symmetric residue is a candidate, tested exactly by homogeneous
    Horner.
    """
    if not cs:
        raise ValueError("rational roots of the zero polynomial")
    k = 0
    while cs[k] == 0:
        k += 1
    roots = [(0, 1)] if k else []
    ics = _primitive(cs[k:])
    if len(ics) < 2:
        return roots
    n, lc = len(ics) - 1, ics[-1]
    g = [c * lc ** (n - 1 - i) for i, c in enumerate(ics[:-1])] + [1]
    # an integer root of g is one mod every prime: a prime at which g has
    # no root leaves f no root but 0, and nothing to lift
    lift = None  # (ℓ, the polynomial lifted, its roots mod ℓ)
    for ell in SIEVE_PRIMES:
        if n == 3:
            masks, third = _depressed_roots(ell)
            g2, g1 = g[2] % ell, g[1] % ell
            s = g2 * third % ell
            mask = masks[(g1 - g2 * s) % ell * ell + (g[0] - g1 * s + 2 * s ** 3) % ell]
            if not mask:
                return roots
            if mask > 0 and lift is None:
                lift = ell, g, [(y - s) % ell for y in range(ell) if mask >> y & 1]
        else:
            gm = [c % ell for c in g]
            if all(eval_mod(gm, r, ell) for r in range(ell)):
                return roots
    if lift is None:
        h = squarefree_split(g)[1]
        for ell in filter(is_prime, itertools.count(5)):
            hm, dm = [c % ell for c in h], [c % ell for c in deriv(h)]
            found = [r for r in range(ell) if eval_mod(hm, r, ell) == 0]
            if all(eval_mod(dm, r, ell) for r in found):
                lift = ell, h, found
                break
    ell, h, found = lift
    bound = 1 + max(abs(c) for c in g[:-1])
    dh = deriv(h)
    for r in found:
        m, inv = ell, pow(eval_mod(dh, r, ell), -1, ell)
        while m <= 2 * bound:  # Newton: a simple root mod m is one mod m²
            if m > ell:  # h′(r)⁻¹ mod m from the inverse mod √m
                inv = inv * (2 - eval_mod(dh, r, m) * inv) % m
            m *= m
            r = (r - eval_mod(h, r, m) * inv) % m
        p, q = reduced(r - m if 2 * r > m else r, lc)
        if homogeneous_value(ics, p, q) == 0:
            roots.append((p, q))
    roots.sort()
    return roots


def rational_roots(f: UniPoly) -> list[Fraction]:
    """The distinct rational roots of f, sorted by (numerator, denominator):
    ``int_roots`` on f's numerators."""
    return [Fraction(p, q) for p, q in int_roots(f.cs)]
