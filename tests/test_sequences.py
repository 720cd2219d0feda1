"""Gale-Robinson terms, certificates, and the symbolic reduction."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuberec import laurent
from cuberec.laurent import ALPHA, BETA, GAMMA, LaurentPoly, div_exact, yvar
from cuberec.sequences import (
    SOMOS6,
    SOMOS7,
    GaleRobinsonSpec,
    gr_certificate,
    gr_renamed_cube_poly,
    gr_symbolic,
    gr_terms,
    is_integral,
)

SOMOS6_TERMS = [1, 1, 1, 1, 1, 1, 3, 5, 9, 23, 75, 421]
SOMOS7_TERMS = [1, 1, 1, 1, 1, 1, 1, 3, 5, 9, 17, 41]


def test_somos_terms():
    assert gr_terms(SOMOS6, 12) == SOMOS6_TERMS
    assert gr_terms(SOMOS7, 12) == SOMOS7_TERMS


def test_short_counts_return_initials():
    assert gr_terms(SOMOS7, 5) == [1, 1, 1, 1, 1]
    assert gr_terms(SOMOS6, 0) == []


def test_custom_initials_and_zero_division():
    spec = GaleRobinsonSpec(1, 1, 1)
    terms = gr_terms(spec, 5, initial=[1, 2, 1])
    # all three numerator products are y1*y2 when p = q = r = 1
    assert terms[3] == Fraction(3 * 2 * 1, 1)
    with pytest.raises(ZeroDivisionError):
        gr_terms(spec, 4, initial=[0, 1, 1])
    with pytest.raises(ValueError):
        gr_terms(spec, 4, initial=[1, 1])


def reference_terms(spec, initial, count):
    """The first count terms of the recurrence in plain Fractions, from n initial ones."""
    n, p, q, r = spec.n, spec.p, spec.q, spec.r
    y = list(initial[:count])
    for m in range(n, count):
        l = m - n
        y.append((spec.alpha * y[l + p] * y[m - p] + spec.beta * y[l + q] * y[m - q]
                  + spec.gamma * y[l + r] * y[m - r]) / y[l])
    return y


def test_terms_and_expansions_match_a_fraction_reference():
    # The reference shares no code with the walk: neither its loop nor a kernel.
    rng = random.Random(29)

    def nonzero():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    for p, q, r in itertools.product((1, 2, 3), repeat=3):
        spec = GaleRobinsonSpec(p, q, r, nonzero(), nonzero(), nonzero())
        n = spec.n
        initial = [nonzero() for _ in range(n)]
        expected = reference_terms(spec, initial, 20)
        for count in (0, n - 1, n, n + 1, 20):
            assert gr_terms(spec, count, initial) == expected[:count], (spec, count)
        point = {yvar(m): y for m, y in enumerate(initial)}
        point.update({ALPHA: spec.alpha, BETA: spec.beta, GAMMA: spec.gamma})
        for l in range(n + 7):
            assert laurent.evaluate(gr_symbolic(spec, l), point) == expected[l], (spec, l)


def test_integrality():
    for spec in (SOMOS6, SOMOS7):
        assert all(is_integral(t) for t in gr_terms(spec, 15))


def test_certificate_trivial_below_order():
    cert = gr_certificate(SOMOS7, 3)
    assert cert.grove_count == 1 and cert.recursion_value == 1 and cert.count_match


def test_certificates_somos7():
    for l, expected in [(7, 3), (8, 5), (11, 41)]:
        cert = gr_certificate(SOMOS7, l)
        assert cert.count_match and cert.grove_count == expected


def test_certificates_somos6():
    for l, expected in [(6, 3), (7, 5), (8, 9)]:
        cert = gr_certificate(SOMOS6, l)
        assert cert.count_match and cert.grove_count == expected


def test_certificates_count_masks_up_to_somos7_l16():
    counts = {}
    for spec, ls in ((SOMOS7, range(12, 17)), (SOMOS6, range(11, 14))):
        terms = gr_terms(spec, ls[-1] + 1)
        for l in ls:
            cert = gr_certificate(spec, l)
            assert cert.count_match and cert.grove_count == terms[l], (spec, l)
            counts[spec, l] = cert.grove_count
    assert counts[SOMOS7, 16] == 34081 and counts[SOMOS6, 13] == 5047


def test_symbolic_first_nontrivial_term():
    spec = GaleRobinsonSpec(1, 1, 1)
    y0, y1, y2 = (LaurentPoly.variable(yvar(m)) for m in range(3))
    coeff_sum = (
        LaurentPoly.variable(ALPHA)
        + LaurentPoly.variable(BETA)
        + LaurentPoly.variable(GAMMA)
    )
    expected = div_exact(coeff_sum * y1 * y2, y0)
    assert gr_symbolic(spec, 3) == expected


def test_symbolic_matches_renamed_cube_polynomial():
    for l in (5, 7, 8, 9):
        assert gr_renamed_cube_poly(SOMOS7, l) == gr_symbolic(SOMOS7, l)
    for l in (6, 7):
        assert gr_renamed_cube_poly(SOMOS6, l) == gr_symbolic(SOMOS6, l)


def test_symbolic_coefficients_nonnegative_polynomials():
    for spec, max_l in ((SOMOS7, 9), (SOMOS6, 9)):
        for l in range(max_l + 1):
            poly = gr_symbolic(spec, l)
            assert all(c > 0 for c in poly.coefficients())
            for tag in (laurent.TAG_ALPHA, laurent.TAG_BETA, laurent.TAG_GAMMA):
                rng = poly.exponent_range(tag)
                assert rng is None or rng[0] >= 0


def test_symbolic_evaluates_to_term():
    assign = {yvar(m): 1 for m in range(7)}
    assign.update({ALPHA: 1, BETA: 1, GAMMA: 1})
    for l in (7, 9, 11):
        poly = gr_symbolic(SOMOS7, l)
        assert laurent.evaluate(poly, assign) == SOMOS7_TERMS[l]


def test_spec_validation():
    with pytest.raises(ValueError):
        GaleRobinsonSpec(0, 1, 1)
    with pytest.raises(ValueError):
        gr_symbolic(GaleRobinsonSpec(1, 1, 1), -2)
    for l in (-1, -3):
        with pytest.raises(ValueError, match=f"^l must be >= 0, not {l}$"):
            gr_certificate(SOMOS7, l)
    assert SOMOS7.n == 7


def test_computed_zero_term_raises():
    # Unit start and gamma = -2: y_6 = (1 + 1 - 2) / 1 = 0, and y_12 divides by it.
    spec = GaleRobinsonSpec(1, 2, 3, gamma=Fraction(-2))
    assert gr_terms(spec, 7)[6] == 0
    assert gr_terms(spec, 12)[6:] == [0, -1, -3, -4, -6, -14]
    with pytest.raises(ZeroDivisionError) as err:
        gr_terms(spec, 13)
    assert str(err.value) == "term y_6 is zero"


def test_computed_zero_term_exits_2_from_the_command_line():
    src = str(Path(laurent.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "cuberec", "sequence", "--gr", "1,2,3", "--gamma", "-2",
         "--count", "13"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: sequence: term y_6 is zero\n"
