"""Groves against the recurrence, the oracle and the window laws, as hypothesis properties.

Skipped when hypothesis is not installed; the seeded random-ideal tests in
``test_groves.py`` and ``test_recurrence.py`` check the same laws on fixed draws.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import balanced_grove_sum, up_closure  # noqa: E402
from cuberec import groves, laurent, recurrence  # noqa: E402
from cuberec.lattice import InitialConditions  # noqa: E402

# Unions of box closures of up to three points, as conftest.random_ic draws
# them, each corner at most four steps deep so that brute force stays quick.
corners = st.tuples(*[st.integers(-2, 0)] * 3).filter(lambda p: sum(p) >= -4)
ideals = st.lists(corners, max_size=3).map(
    lambda ps: InitialConditions({q for p in ps for q in up_closure(p)}))

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@SETTINGS
@given(ideals, st.randoms(use_true_random=False))
def test_routes_to_the_polynomial_agree(ic, rng):
    f = recurrence.f_symbolic(ic)
    gs = groves.enumerate_local_moves(ic)
    assert f == recurrence.f_via_substitution(ic)
    assert f == groves.grove_sum(gs)
    point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in f.variables()}
    assert recurrence.f_numeric(ic, point) == laurent.evaluate(f, point)
    # The two-term specialization reads a subset of the points the full walk reads.
    octa = recurrence.f_symbolic(ic, recurrence.MODE_SHIFT_OCTA)
    assert octa == recurrence.f_via_substitution(ic, recurrence.MODE_SHIFT_OCTA)
    assert octa == balanced_grove_sum(ic, gs)
    x_point = {v: x for v, x in point.items() if v[0] == laurent.TAG_X}
    assert (recurrence.f_numeric(ic, x_point, recurrence.MODE_SHIFT_OCTA)
            == laurent.evaluate(octa, x_point))


@SETTINGS
@given(ideals)
def test_local_moves_match_the_oracle_at_two_cutoffs(ic):
    local = groves.enumerate_local_moves(ic)
    for N in (ic.min_cutoff, ic.min_cutoff + 1):
        assert groves.enumerate_bruteforce(ic, N, cap=10**6) == local, N


@SETTINGS
@given(ideals)
def test_window_laws_hold(ic):
    assert groves._window(ic, ic.min_cutoff).quadrant_fault is None
    _, edges, _, _ = groves._window(ic, ic.min_odd_cutoff).even_tables
    assert len(set(edges)) == len(edges)
