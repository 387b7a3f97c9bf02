"""Exact arithmetic for weights, times and deadlines.

Finite values are plain ints or ``fractions.Fraction``, never floats:
the solvers compare sums of weights for equality, and a float tie would
make feasibility verdicts platform-dependent.  ``INFINITY`` is
``math.inf``, the one float: Python compares it exactly with ints and
Fractions, above every finite value.  It doubles as "no deadline" and
"unreachable".  The package makes no other infinity object for a value
it tests by identity (``x is INFINITY``, the cheapest test in the DP
loops): arithmetic on INFINITY makes a new float, so code that may add
to it or scale it keeps INFINITY itself, as ``scale`` does, or only
compares the result.

Integral values are kept as ints where convenient.  ``Fraction``
interoperates exactly with ints, so the library solvers take either.
The solvers only add, subtract and compare numbers (and count whole
laps, floor(x / circumference)), so multiplying all numbers of an
instance by c > 0 multiplies every time in the answer by c and changes
nothing else, ties included.  The CLI uses that: every command reads
its documents as (numerator, denominator) pairs (``parse_ratio``),
multiplies every number by their least common denominator, runs in
ints, which are several times faster than Fractions in the DP loops,
and divides back exactly the numbers it prints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


INFINITY = math.inf

#: A non-negative exact rational, or INFINITY.
ExactNumber = int | Fraction | float


def simplify(x: ExactNumber) -> ExactNumber:
    """Collapse integral Fractions to plain ints (value-preserving)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def parse_ratio(text: str) -> tuple:
    """The exact value of a decimal string ("2", "0.5") or a ratio string
    ("3/4") as a pair (p, q) of ints in lowest terms with q >= 1.

    Plain ASCII digits, alone or on both sides of one "/", are read as
    ints, which gives the value ``Fraction(text)`` would give, sooner;
    anything else (signs, decimal points, exponents, underscores, inner
    spaces, other scripts' digits) goes to ``Fraction(text)``, and so do
    its errors: ValueError, or ZeroDivisionError for a zero denominator.
    """
    text = text.strip()
    p, slash, q = text.partition("/")
    if p.isascii() and p.isdecimal():
        if not slash:
            return int(p), 1
        if q.isascii() and q.isdecimal():
            p, q = int(p), int(q)
            if q:
                g = math.gcd(p, q)
                return p // g, q // g
    x = Fraction(text)
    return x.numerator, x.denominator


def format_number(x: ExactNumber) -> str:
    """Render exactly: ints as "p", proper fractions as "p/q", INFINITY as "inf"."""
    if x is INFINITY:
        return "inf"
    x = simplify(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: ExactNumber) -> str:
    """Human-readable decimal approximation to 6 significant digits
    (display only, never computed with)."""
    if x is INFINITY:
        return "inf"
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        return str(int(x))  # magnitude beyond float range: integer digits suffice


def scale(x: ExactNumber, factor: Union[int, Fraction]) -> ExactNumber:
    """x times a positive factor; INFINITY stays INFINITY.  An int factor
    that x's denominator divides gives an int without building a Fraction."""
    if x is INFINITY:
        return INFINITY
    if isinstance(factor, int) and factor % x.denominator == 0:
        return x.numerator * (factor // x.denominator)
    return simplify(x * factor)
