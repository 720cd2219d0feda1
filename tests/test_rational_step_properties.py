"""The rational recurrence step as a hypothesis property.

Skipped when hypothesis is not installed; ``test_rational_step.py`` checks
the same law on seeded draws and fixed examples.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from test_rational_step import check_step, pair  # noqa: E402

ints = st.integers(-(10**20), 10**20)
# Denominators that are multiples of 6 share factors with one another.
sixths = st.builds(lambda n, k: Fraction(n, 6 * k), ints, st.integers(1, 10**12))
values = st.one_of(ints, st.fractions(max_denominator=10**12), sixths, st.just(0))
pairs = values.map(pair)
# A negative value under a negative exponent: the denominator carries the sign.
signed_pairs = pairs.filter(lambda p: p[0]).map(lambda p: (-p[0], -p[1]))
coeffs = st.one_of(pairs, signed_pairs)
terms = st.lists(st.tuples(coeffs, pairs, pairs), max_size=3)
dens = values.filter(bool).map(pair)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@SETTINGS
@given(terms, dens)
@example([((1, 1), (1, 2), (1, 3)), ((-1, 1), (1, 3), (1, 2))], (-5, 7))
@example([((1, 1), (2, 1), (3, 1)), ((1, 1), (5, 1), (1, 2)), ((0, 1), (7, 1), (9, 1))],
         (-17, 2))
@example([((1, 1), (2, 1), (3, 1)), ((1, 1), (5, 1), (1, 2)), ((0, 1), (7, 1), (9, 1))],
         (3, 1))
@example([((1, -2), (3, 1), (5, 1)), ((1, 1), (1, 2), (1, 1))], (1, 1))
@example([((1, 1), (1, 2), (1, 3)), ((3, 4), (1, 1), (1, 1)), ((-1, 5), (1, 2), (1, 1))],
         (1, 1))
@example([((1, 1), (6, 1), (7, 1)), ((2, 1), (-3, 1), (4, 1))], (9, 1))
@example([((1, 1), (1, 2), (1, 1)), ((1, 1), (3, 1), (1, 1))], (1, 1))
def test_rational_step_matches_fraction_arithmetic(terms, den):
    check_step(terms, den)

