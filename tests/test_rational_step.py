"""The rational recurrence step against the same step in plain Fraction arithmetic.

``recurrence._rational_step`` is the one kernel of ``f_numeric`` and
``gr_terms``: it sums coeff * v1 * v2 over its terms and divides exactly by
the diagonal value, all over (numerator, denominator) int pairs.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from cuberec.recurrence import _rational_step


def pair(x) -> tuple[int, int]:
    x = Fraction(x)
    return (x.numerator, x.denominator)


def fraction_step(terms, den) -> Fraction:
    """The reference: each operation a normalising Fraction operation."""
    total = Fraction(0)
    for coeff, v1, v2 in terms:
        total += Fraction(*coeff) * Fraction(*v1) * Fraction(*v2)
    return total / Fraction(*den)


def check_step(terms, den) -> tuple[int, int]:
    n, d = got = _rational_step(terms, den)
    assert d > 0 and gcd(n, d) == 1, got
    assert Fraction(n, d) == fraction_step(terms, den)
    return got


def random_value(rng: random.Random, kind: str = "any"):
    """A signed int or a signed Fraction, either one possibly large.

    kind "int" draws only ints, and "shared" only Fractions whose
    denominators, before reduction, are multiples of 6.
    """
    top = rng.choice((9, 10**6, 10**30))
    n = rng.randint(-top, top)
    if kind == "int" or kind == "any" and rng.random() < 0.5:
        return n
    return Fraction(n, rng.randint(1, top) * (6 if kind == "shared" else 1))


def random_terms(rng: random.Random, kind: str = "any") -> list:
    terms = []
    for _ in range(rng.randint(0, 3)):
        coeff = pair(0 if rng.random() < 0.25 else random_value(rng, kind))
        if coeff[0] and rng.random() < 0.3:
            # f_numeric's weight gives a negative value under a negative
            # exponent as such a pair: the denominator carries the sign.
            coeff = (-coeff[0], -coeff[1])
        terms.append((coeff, pair(random_value(rng, kind)), pair(random_value(rng, kind))))
    return terms


def shares_factor(terms) -> bool:
    """Whether a term's denominator shares a factor with the product of those before it."""
    before = 1
    for (_, cd), (_, d1), (_, d2) in terms:
        td = cd * d1 * d2
        if gcd(before, td) > 1:
            return True
        before *= td
    return False


def test_rational_step_matches_fraction_arithmetic():
    rng = random.Random(2002)
    seen = {"zero coefficient": 0, "zero sum": 0, "negative den": 0,
            "integer quotient": 0, "fractional quotient": 0,
            "negative coefficient den": 0, "shared factor": 0, "unit dens": 0}
    for _ in range(5000):
        shape = rng.randrange(5)
        kind = {3: "int", 4: "shared"}.get(shape, "any")
        terms = random_terms(rng, kind)
        if shape == 1 and terms:
            # Cancel the sum with the negated first term.
            coeff, v1, v2 = terms[0]
            terms.append(((-coeff[0], coeff[1]), v1, v2))
        total = fraction_step(terms, (1, 1))
        if shape == 2 and total:
            # A diagonal value that divides the sum an integer number of times.
            den = total / rng.choice((-3, -1, 1, 2, 7))
        else:
            den = Fraction(random_value(rng, kind) or 1)
        n, d = check_step(terms, pair(den))
        seen["zero coefficient"] += any(not coeff[0] for coeff, _, _ in terms)
        seen["zero sum"] += not total
        seen["negative den"] += den < 0
        seen["integer quotient"] += d == 1 and n != 0
        seen["fractional quotient"] += d > 1
        seen["negative coefficient den"] += any(coeff[1] < 0 for coeff, _, _ in terms)
        seen["shared factor"] += shares_factor(terms)
        seen["unit dens"] += bool(terms) and all(
            coeff[1] == d1 == d2 == 1 for coeff, (_, d1), (_, d2) in terms)
    assert min(seen.values()) > 100, seen


def test_rational_step_examples():
    one = (1, 1)
    # The shift-octa coefficients (1, 1, 0): the third term drops out.
    terms = [(one, (2, 1), (3, 1)), (one, (5, 1), (1, 2)), ((0, 1), (7, 1), (9, 1))]
    assert check_step(terms, (-17, 2)) == (-1, 1)
    assert check_step(terms, (3, 1)) == (17, 6)
    # A sum that cancels to zero gives the reduced zero.
    assert check_step([(one, (1, 2), (1, 3)), ((-1, 1), (1, 3), (1, 2))], (-5, 7)) == (0, 1)
    # No terms at all: every coefficient vanished.
    assert check_step([], (4, 9)) == (0, 1)
    # A coefficient pair with a negative denominator: -1/2 as (1, -2).
    assert check_step([((1, -2), (3, 1), (5, 1)), (one, (1, 2), (1, 1))], (1, 1)) == (-7, 1)
    # Denominators 6, 4 and 10 share factors; their least common multiple is 60.
    terms = [(one, (1, 2), (1, 3)), ((3, 4), one, one), ((-1, 5), (1, 2), one)]
    assert check_step(terms, (1, 1)) == (49, 60)
    # All-unit denominators: an integer sum and an exact quotient.
    assert check_step([(one, (6, 1), (7, 1)), ((2, 1), (-3, 1), (4, 1))], (9, 1)) == (2, 1)


def test_rational_step_rejects_a_zero_diagonal_value():
    with pytest.raises(ZeroDivisionError):
        _rational_step([((1, 1), (1, 1), (1, 1))], (0, 1))
    with pytest.raises(ZeroDivisionError):
        _rational_step([], (0, 1))
