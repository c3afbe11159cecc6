import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import bit_size, time_limit
from dp1.engine import MAX_BIT_CAP
from dp1.rational import (
    MAX_DIGITS,
    MAX_EXPONENT,
    format_rational,
    is_square,
    parse_rational,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_fraction_canonical_form():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(7, 7) == Fraction(1, 1)
    assert Fraction(-2, 4) * Fraction(2, 3) == Fraction(-1, 3)
    assert Fraction(0, 5).denominator == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_parse_and_format_roundtrip():
    for s in ("1/2", "-3", "0", "17/4", "-71/8"):
        assert format_rational(parse_rational(s)) == s


def test_is_square_examples():
    assert is_square(Fraction(4, 9)) == Fraction(2, 3)
    assert is_square(Fraction(2)) is None
    assert is_square(Fraction(0)) == 0
    assert is_square(Fraction(-4)) is None


@given(rationals)
def test_is_square_of_square(x):
    assert is_square(x * x) == abs(x)


def test_is_square_of_int():
    for n, root in ((0, 0), (1, 1), (49, 7), (10 ** 40, 10 ** 20), ((3 ** 41) ** 2, 3 ** 41)):
        got = is_square(n)
        assert type(got) is int and got == root
    for n in (-1, -4, -(10 ** 40), 2, 3, 50, 10 ** 40 + 1, (3 ** 41) ** 2 - 1):
        assert is_square(n) is None


@given(st.integers(-(10 ** 30), 10 ** 30))
def test_is_square_of_int_matches_fraction(n):
    assert is_square(n) == is_square(Fraction(n))


def test_bit_size():
    assert bit_size(Fraction(0)) == 1
    assert bit_size(Fraction(255, 7)) == 8


def parse_by_fraction(s: str) -> Fraction:
    """The parser without its fast path: Fraction's own, with q = 0 a
    ValueError of the same text."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s.strip()!r}") from None


def parsed(parse, s: str):
    """("value", v) or ("error", message) for one parser on one text."""
    try:
        v = parse(s)
    except ValueError as exc:
        return "error", str(exc)
    assert type(v) is Fraction
    return "value", v


# signs, spaces, "/", "_", ".", "e", an Arabic-Indic and a superscript digit
RATIONAL_ALPHABET = "0123456789-+/ _.e\u0663\u00b2"
rational_texts = st.one_of(
    st.text(st.sampled_from(RATIONAL_ALPHABET), max_size=9),
    st.builds("{}{}{}".format, st.sampled_from(["", "-", "+", " ", "--"]),
              st.integers(0, 10 ** 30),
              st.sampled_from(["", "/"]).flatmap(
                  lambda slash: st.integers(0, 10 ** 30).map(lambda d: slash + str(d))
                  if slash else st.just(""))),
)


@given(rational_texts)
@example("3/0")
@example("-0")
@example("")
@example("/")
@example("0/0")
@example(" 3 / 4 ")
@example("1_000/3")
@example("1.5e2")
@example("\u0663/4")
@example("\u00b2")
@example("-3/-4")
def test_parse_rational_matches_fraction_parser(s):
    # a text whose decimal exponent is past the bound is refused unread
    exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z", s)
    if exponent and int(exponent[1]) > MAX_EXPONENT:
        with pytest.raises(ValueError, match="decimal exponent beyond"):
            parse_rational(s)
    else:
        assert parsed(parse_rational, s) == parsed(parse_by_fraction, s)


@pytest.mark.parametrize("s", ["1e1000", "-7.5E-1000", "2e+1_000", "3e0999", "1e\u0663"])
def test_parse_rational_reads_exponents_up_to_the_bound(s):
    assert parse_rational(s) == Fraction(s)


@pytest.mark.parametrize("s", ["1e100000000", "0e1000000", "1e1001", "-2.5e-1001", " 1E1_001 ",
                               "1e" + "0" * 5000 + "1001", "1e\u0661\u0660\u0660\u0661"])
def test_parse_rational_refuses_huge_exponents(s):
    # refused before Fraction builds 10**exponent, in well under a second
    with time_limit(1), pytest.raises(ValueError, match=r"decimal exponent beyond ±1000"):
        parse_rational(s)


@pytest.mark.parametrize("s, size", [
    ("1" * 5000, "5,000"), ("-1/" + "3" * 5000, "5,000"), ("0." + "1" * 5000, "5,000"),
    ("1e" + "0" * 5000 + "1", "5,001"), ("1" * 4301, "4,301"), ("1_" * 4300 + "1", "4,301"),
    ("\u0661" * 4301 + "/3", "4,301"),
])
def test_parse_rational_refuses_long_integers(s, size):
    # refused with a message that names the input, not CPython's setting
    with pytest.raises(ValueError, match=f"integer of {size} digits, over the limit of 4,300"):
        parse_rational(s)


@pytest.mark.parametrize("s", ["1" * 4300, "-1/" + "3" * 4300, "1_" * 4299 + "1",
                               "1" * 3000 + "." + "1" * 3000, " " * 5000 + "7/2"])
def test_parse_rational_reads_integers_up_to_the_limit(s):
    assert parse_rational(s) == Fraction(s)


def test_max_bit_cap_prints_every_integer_under_it():
    # every integer of at most MAX_BIT_CAP bits has at most MAX_DIGITS
    # digits, and one more bit can have more
    assert 2 ** MAX_BIT_CAP < 10 ** MAX_DIGITS < 2 ** (MAX_BIT_CAP + 1)
    assert len(str(-(2 ** MAX_BIT_CAP - 1))) == MAX_DIGITS + 1


def test_parse_rational_examples():
    assert parse_rational("-12/8") == Fraction(-3, 2)
    assert parse_rational(" 7 ") == 7
    assert parse_rational("\u0663") == 3
    for s in ("3/0", "-0/0"):
        with pytest.raises(ValueError, match=f"zero denominator in '{s}'"):
            parse_rational(s)
    for s in ("", "/", "3/", "/4", "3/-4", "--3", "\u00b2"):
        with pytest.raises(ValueError, match="Invalid literal"):
            parse_rational(s)
