"""Exact scalar arithmetic on rationals.

Parsed values are plain ``fractions.Fraction``s; the fibers and points of
the group law are ``Pair``s, a rational n/d as the integers (n, d) in lowest
terms with d > 0, which ``reduced`` builds.  This module parses and prints
both, and decides which rationals are squares.  It also holds ``record``, the
package's value-class decorator.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Tuple, Union

# a rational n/d as (n, d) in lowest terms with d > 0
Pair = Tuple[int, int]


class InvariantError(RuntimeError):
    """An internal invariant failed: a result the library computed does not
    certify.  A bug, never bad input, so it is not a ValueError."""


def _record_eq(a, b):
    if type(b) is type(a):
        return tuple.__eq__(a, b)
    # NotImplemented would let tuple's own == compare a plain tuple's fields
    return False if isinstance(b, tuple) else NotImplemented


def record(cls):
    """The annotated class body ``cls`` as an immutable value class: a
    ``namedtuple`` subclass whose fields are the annotations, with the class
    values as their defaults.  ``__post_init__``, if defined, checks each new
    instance inside ``__new__`` and may return a converted one instead.  A
    record equals only a record of its own class, and hashes as its fields'
    tuple."""
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    names = list(cls.__annotations__)
    base = namedtuple(cls.__name__, names, defaults=[body.pop(n) for n in names if n in body],
                      module=cls.__module__)
    check = body.pop("__post_init__", None)
    if check is not None:
        def __new__(klass, *args, **kwargs):
            self = base.__new__(klass, *args, **kwargs)
            return check(self) or self
        body["__new__"] = __new__
    # object.__ne__ negates __eq__, where tuple.__ne__ would compare across classes
    body.update(__slots__=(), __eq__=_record_eq, __ne__=object.__ne__, __hash__=tuple.__hash__)
    return type(cls.__name__, (base,), body)


# The largest decimal exponent parse_rational reads: 10**MAX_EXPONENT has
# 3,322 bits, where the power of ten of "1e100000000" would have 332 million.
MAX_EXPONENT = 1000
# a trailing decimal exponent, as Fraction's parser reads one; compiled on
# first use, by re's cache, so that a cold start does not pay for it
_EXPONENT = r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z"
# CPython's default limit on the digits of an int converted from or to a
# string (sys.get_int_max_str_digits()), which guards against quadratic-time
# conversion: parse_rational refuses longer integers with its own message.
MAX_DIGITS = 4300


def _refuse_long_integers(s: str) -> None:
    """Refuse s when one of its integers, underscores aside, has more than
    MAX_DIGITS digits, before ``int`` refuses it with CPython's message."""
    if len(s) > MAX_DIGITS:  # no shorter text holds a longer integer
        for run in re.findall(r"\d+(?:_\d+)*", s):
            if (size := len(run) - run.count("_")) > MAX_DIGITS:
                raise ValueError(f"a rational text holds an integer of {size:,} digits, "
                                 f"over the limit of {MAX_DIGITS:,}")


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction; bad text or q = 0 is a ValueError.

    An ASCII "-?digits" or "-?digits/digits" is read with ``int``; every
    other text goes to ``Fraction``'s own parser, which gives the same value
    and refuses the same texts, except that a text ending in a decimal
    exponent ("1.5e2") beyond ±MAX_EXPONENT is refused before ``Fraction``
    builds its power of ten.  An integer of more than MAX_DIGITS digits,
    which ``int`` refuses, is refused with a message that says so.
    """
    num, slash, den = s.partition("/")
    if s.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
        _refuse_long_integers(s)
        n, d = int(num), int(den) if slash else 1
        if d:
            return Fraction(n, d)
        raise ValueError(f"zero denominator in {s!r}")
    if (exp := re.search(_EXPONENT, s)) is not None:
        size = 0
        for digit in exp[1].replace("_", ""):  # one digit at a time: no huge int
            size = min(10 * size + int(digit), MAX_EXPONENT + 1)
        if size > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond ±{MAX_EXPONENT} in {s.strip()!r}")
    _refuse_long_integers(s)
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s.strip()!r}") from None


def format_rational(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(x)


def reduced(n: int, d: int) -> Pair:
    """n/d in lowest terms with d > 0, for d ≠ 0."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def format_pair(v: Pair) -> str:
    """The Pair v as ``format_rational`` prints its Fraction: "n/d", or "n"
    when d = 1."""
    n, d = v
    return f"{n}/{d}" if d != 1 else str(n)


def is_square(x: Union[int, Fraction]) -> Union[int, Fraction, None]:
    """Return the non-negative rational square root of x, or None.

    For an int x the root is an int; for a Fraction it is a Fraction, since
    a fraction in lowest terms is a square iff numerator and denominator
    both are (as integers).
    """
    if x < 0:
        return None
    if isinstance(x, int):
        r = math.isqrt(x)
        return r if r * r == x else None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None
