import json
import math
import random
from fractions import Fraction

import pytest

from roversweep import multi_line, oracle, reductions
from roversweep.exact import (
    INFINITY,
    decimal_str,
    format_number,
    parse_ratio,
    scale,
    simplify,
)
from roversweep.instance import (
    FIXED,
    FREE,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
    read_instance,
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


def test_every_infinity_the_package_makes_is_the_one_object():
    # INFINITY is math.inf; arithmetic on it makes a new float, so every
    # infinity the package stores must be this object for `is INFINITY`
    assert INFINITY is math.inf
    docs = [  # two null deadlines each, and c > 1
        {"topology": "line", "coordinates": ["0", "1/2", "3"], "deadlines": [None, "5/3", None]},
        {"topology": "ring", "edge_weights": ["1/2", "1", "1/3"], "deadlines": [None, None, "2"]},
        {"topology": "star", "leaf_weights": ["1/2", "3"], "deadlines": [None, "7/5"], "center_deadline": None},
    ]
    for doc in docs:
        doc.update(robots={"mode": "free", "count": 2}, faults=0, delta=None)
        spec, c = read_instance(json.dumps(doc))
        assert c > 1
        top = spec.topology
        for made in (top, top.capped(INFINITY), spec.scaled(Fraction(1, c)).topology, spec.scaled(5).topology):
            infinite = [d for d in made.deadlines if d == INFINITY]
            assert len(infinite) == 2 and all(d is INFINITY for d in infinite), made
    for factor in (1, 3, Fraction(1, 3), Fraction(6, 1)):
        assert scale(INFINITY, factor) is INFINITY
    assert ProblemSpec(LineInstance((0,), (INFINITY,)), RobotPlacement(FREE, count=1), 0, INFINITY).bound is None

    # infeasible: the far node's deadline passes before any robot arrives
    line = LineInstance((0, 10), (INFINITY, 1))
    ends = LineInstance((0, 10, 20), (1, INFINITY, 1))
    ring = RingInstance((10, 10, 10), (1, INFINITY, 1))
    star = StarInstance((10, 10), (1, 1), 1)
    verdicts = [
        multi_line.solve_fixed(line, (0,)),
        multi_line.solve_fixed(ring, (1,)),
        multi_line.solve_free(ends, 1),
        multi_line.solve_free(ring, 1),
        reductions.star_exact(star, RobotPlacement(FIXED, positions=(2,)), 1),
        reductions.star_exact(star, RobotPlacement(FREE, count=2), 2, 1),
        oracle.brute_solve(ProblemSpec(line, RobotPlacement(FIXED, positions=(0,)))),
        oracle.brute_solve(ProblemSpec(ring, RobotPlacement(FREE, count=1))),
    ]
    for verdict in verdicts:
        assert not verdict.feasible and verdict.optimum is INFINITY, verdict


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
