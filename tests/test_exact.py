import random
from fractions import Fraction

import pytest

from roversweep.exact import (
    INFINITY,
    decimal_str,
    format_number,
    parse_ratio,
    scale,
    simplify,
)


def test_parse_decimal_and_ratio():
    assert parse_ratio("0.5") == (1, 2)
    assert parse_ratio("3/4") == (3, 4)
    assert parse_ratio("2") == (2, 1)
    assert parse_ratio("4/2") == (2, 1)


def _outcome(parse, text):
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return type(value), value


def _fraction_pair(text):
    x = Fraction(text.strip())
    return x.numerator, x.denominator


@pytest.mark.parametrize("text", [
    " 12 ", "007", "0", "-3", "+4", "12.0", "3/4", "\u0663", "", "1/0",
    "6/3", "0/5", "03/04", " 3/4 ", "3/-4", "+3/4", "3 / 4", "1_000/3", "\u0663/\u0664", "0.5",
])
def test_digit_fast_path_parses_as_the_fraction_path(text):
    # plain ASCII digits, alone or as p/q, skip Fraction's string parser;
    # every input must parse (or fail) as before
    assert _outcome(parse_ratio, text) == _outcome(_fraction_pair, text)


@pytest.mark.parametrize("text", [
    " 12 ", "007", "0", "-3", "+4", "12.0", "3/4", "\u0663", "", "1/0", "0/0", "-0/5",
    "6/3", "0/5", "03/04", " 3/4 ", "3/-4", "+3/4", "3 / 4", "1_000/3", "\u0663/\u0664", "0.5",
    "10/4", "1e3", "-7/21",
])
def test_ratio_is_the_fraction_in_lowest_terms(text):
    got, want = _outcome(parse_ratio, text), _outcome(_fraction_pair, text)
    assert got == want
    if isinstance(got, tuple):
        p, q = got[1]
        assert type(p) is int and type(q) is int and q >= 1


def test_digit_fast_path_keeps_values_types_and_errors():
    assert parse_ratio("007") == (7, 1)
    assert parse_ratio("-3") == (-3, 1)
    assert parse_ratio("12.0") == (12, 1)
    assert parse_ratio("6/4") == (3, 2)
    assert _outcome(parse_ratio, "") is ValueError
    assert _outcome(parse_ratio, "1/0") is ZeroDivisionError
    assert parse_ratio(" 12 ") == (12, 1)
    assert parse_ratio("\u0663") == (3, 1)


def test_scale_matches_the_fraction_product():
    values = [0, 7, 10**30, Fraction(1, 3), Fraction(5, 6), Fraction(7, 4), Fraction(9, 3), INFINITY]
    factors = [1, 3, 6, 12, 10**20, Fraction(1, 3), Fraction(3, 2), Fraction(6, 1)]
    for x in values:
        for c in factors:
            expected = simplify(x * c)
            got = scale(x, c)
            assert (type(got), got) == (type(expected), expected), (x, c)


def test_format_round_trip():
    for text in ["0", "7", "1/3", "22/7", "0.125"]:
        p, q = parse_ratio(text)
        assert parse_ratio(format_number(simplify(Fraction(p, q)))) == (p, q)


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
