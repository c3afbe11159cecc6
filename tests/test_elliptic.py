import random
from fractions import Fraction

import pytest

from dp1 import elliptic
from dp1.elliptic import (
    ECPoint,
    FiberCurve,
    O,
    OffCurveError,
    SingularFiberError,
    add,
    mul,
    neg,
    on_curve,
    torsion_status,
)

E2 = FiberCurve(Fraction(-1), Fraction(0), Fraction(2))   # y² = x³ + 2
E4 = FiberCurve(Fraction(0), Fraction(0), Fraction(4))    # y² = x³ + 4


def test_identity():
    P = ECPoint(Fraction(-1), Fraction(1))
    assert add(E2, P, O) == P
    assert add(E2, O, P) == P


def test_doubling_worked_example():
    P = ECPoint(Fraction(-1), Fraction(1))
    D = add(E2, P, P)
    assert D == ECPoint(Fraction(17, 4), Fraction(-71, 8))
    assert on_curve(E2, D)


def test_order_three_point():
    P = ECPoint(Fraction(0), Fraction(2))
    assert add(E4, P, P) == ECPoint(Fraction(0), Fraction(-2))
    assert mul(E4, 3, P) == O


def test_negative_multiple():
    P = ECPoint(Fraction(-1), Fraction(1))
    assert mul(E2, -2, P) == ECPoint(Fraction(17, 4), Fraction(71, 8))
    assert mul(E2, 1, P) == P


def test_off_curve_rejected():
    with pytest.raises(OffCurveError):
        add(E2, ECPoint(Fraction(0), Fraction(1)), O)


def test_torsion_status_examples():
    assert torsion_status(E4, O) == 1
    assert torsion_status(E4, ECPoint(Fraction(0), Fraction(2))) == 3
    assert torsion_status(E2, ECPoint(Fraction(-1), Fraction(1))) is None


def test_torsion_status_stable_under_negation():
    P = ECPoint(Fraction(0), Fraction(2))
    assert torsion_status(E4, P) == torsion_status(E4, neg(P))
    Q = ECPoint(Fraction(-1), Fraction(1))
    assert torsion_status(E2, Q) == torsion_status(E2, neg(Q))


def test_torsion_on_singular_fiber_rejected():
    E = FiberCurve(Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(SingularFiberError):
        torsion_status(E, O)


def _random_curve_with_point(rng):
    """Guarantee a rational point by solving for B."""
    while True:
        x0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        y0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        A = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        B = y0 * y0 - x0 ** 3 - A * x0
        E = FiberCurve(Fraction(0), A, B)
        if not E.is_singular():
            return E, ECPoint(x0, y0)


def test_group_axioms_random():
    rng = random.Random(7)
    for _ in range(100):
        E, P = _random_curve_with_point(rng)
        Q = mul(E, 2, P)
        R = mul(E, 3, P)
        assert add(E, P, Q) == add(E, Q, P)
        assert add(E, add(E, P, Q), R) == add(E, P, add(E, Q, R))
        assert add(E, P, neg(P)) == O


def test_mul_consistency_random():
    rng = random.Random(11)
    for _ in range(15):
        E, P = _random_curve_with_point(rng)
        for m, n in ((2, 3), (5, 7), (10, 10), (1, 19)):
            assert mul(E, m + n, P) == add(E, mul(E, m, P), mul(E, n, P))


def test_outputs_on_curve():
    rng = random.Random(13)
    for _ in range(20):
        E, P = _random_curve_with_point(rng)
        for n in range(1, 8):
            assert on_curve(E, mul(E, n, P))


def test_mul_adds_only_up_to_the_last_bit(monkeypatch):
    # double-and-add: one addition per set bit, one doubling per bit after
    # the first, and no doubling past the last bit
    P = ECPoint(Fraction(-1), Fraction(1))
    multiples = [O]
    for _ in range(16):
        multiples.append(add(E2, multiples[-1], P))
    calls = []

    def counting_add(E, P, Q):
        calls.append(1)
        return add(E, P, Q)

    monkeypatch.setattr(elliptic, "add", counting_add)
    for n in range(1, 17):
        calls.clear()
        assert mul(E2, n, P) == multiples[n]
        assert len(calls) == bin(n).count("1") + n.bit_length() - 1, n
