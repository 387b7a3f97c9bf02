import random
from fractions import Fraction

import pytest

from roversweep.exact import (
    INFINITY,
    decimal_str,
    format_number,
    parse_number,
    simplify,
)


def test_parse_decimal_and_ratio():
    assert parse_number("0.5") == Fraction(1, 2)
    assert parse_number("3/4") == Fraction(3, 4)
    assert parse_number("2") == 2
    assert isinstance(parse_number("4/2"), int)


def test_format_round_trip():
    for text in ["0", "7", "1/3", "22/7", "0.125"]:
        value = parse_number(text)
        assert parse_number(format_number(value)) == value


def test_infinity_ordering():
    values = [0, 1, Fraction(7, 2), 10**30]
    for v in values:
        assert v < INFINITY
        assert INFINITY > v
        assert not INFINITY <= v
        assert min(v, INFINITY) == v
        assert max(v, INFINITY) is INFINITY
    assert INFINITY == INFINITY
    assert not INFINITY < INFINITY
    assert INFINITY <= INFINITY


def test_infinity_arithmetic():
    assert INFINITY + 5 is INFINITY
    assert Fraction(1, 2) + INFINITY is INFINITY
    assert INFINITY - 3 is INFINITY
    with pytest.raises(ArithmeticError):
        INFINITY - INFINITY
    with pytest.raises(ArithmeticError):
        3 - INFINITY


def test_decimal_str():
    assert decimal_str(Fraction(1, 3)).startswith("0.333")
    assert decimal_str(INFINITY) == "inf"
    assert decimal_str(10**400) == str(10**400)


def test_arithmetic_matches_big_integer_reference():
    # cross-multiplied integer arithmetic is the independent reference
    rng = random.Random(2024)
    for _ in range(10_000):
        p1, q1 = rng.randint(0, 10**6), rng.randint(1, 10**6)
        p2, q2 = rng.randint(0, 10**6), rng.randint(1, 10**6)
        a = simplify(Fraction(p1, q1))
        b = simplify(Fraction(p2, q2))
        s = a + b
        assert s == Fraction(p1 * q2 + p2 * q1, q1 * q2)
        d = a - b if a >= b else b - a
        assert d == Fraction(abs(p1 * q2 - p2 * q1), q1 * q2)
        assert (a < b) == (p1 * q2 < p2 * q1)
        assert min(a, b) == (a if p1 * q2 <= p2 * q1 else b)
        assert max(a, b) == (b if p1 * q2 <= p2 * q1 else a)
