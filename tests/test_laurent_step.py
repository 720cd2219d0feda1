"""The Laurent recurrence step against the same step built from general operators.

``laurent.quotient_of_products`` is the one kernel of ``f_symbolic`` and
``gr_symbolic``: it sums coeff * v1 * v2 over its terms into one dict and
divides exactly by the diagonal value.  The reference multiplies each product
out from decoded exponent maps (``reference_product``, which shares no loop
with the product kernel) and divides with ``div_exact``.  Both must give equal
polynomials, or the same NonzeroRemainder, counted once.
"""

import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cuberec import lattice, laurent, recurrence
from cuberec.laurent import (
    ALPHA,
    BETA,
    T,
    DivisionByZero,
    LaurentPoly,
    NonzeroRemainder,
    avar,
    div_exact,
    quotient_of_products,
    xvar,
    yvar,
)
from test_product_reference import reference_product

POOL = [xvar(0, 0, 0), xvar(-1, 0, 0), avar(0, -1), T, ALPHA, BETA]


def unfused_step(terms, den):
    """The reference: the products multiplied out as exponent maps, then ``div_exact``."""
    # Adding to zero makes an int coeff a constant polynomial.
    scaled = [(reference_product([(LaurentPoly.zero() + coeff, v1)]), v2)
              for coeff, v1, v2 in terms]
    return div_exact(reference_product(scaled), den)


def outcome(step, terms, den):
    """The step's result, or the text of its NonzeroRemainder and how often that counted."""
    before = laurent.nonzero_remainder_count
    try:
        return step(terms, den)
    except NonzeroRemainder as exc:
        return ("raised", str(exc), laurent.nonzero_remainder_count - before)


def poly(rng, size, span=3, coeffs=(-3, -2, -1, 1, 2, 3)):
    return LaurentPoly(
        (rng.choice(coeffs),
         [(rng.choice(POOL), rng.randint(-span, span)) for _ in range(rng.randint(0, 3))])
        for _ in range(size)
    )


def monomial(rng, coeff):
    return LaurentPoly.monomial(coeff, [(rng.choice(POOL), rng.randint(-3, 3))
                                        for _ in range(rng.randint(0, 3))])


def coefficient(rng):
    return rng.choice([1, -1, 2, monomial(rng, 1), monomial(rng, -2), poly(rng, 2)])


def random_terms(rng, den=None):
    """Up to three terms; with ``den`` given, each first factor is a multiple of it."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        v1, v2 = poly(rng, rng.randint(1, 6)), poly(rng, rng.randint(1, 6))
        if den is not None:
            v1 = v1 * den
        terms.append((coefficient(rng), v1, v2))
    return terms


def cases(rng):
    for _ in range(60):
        for c in (1, -1):
            yield "unit monomial diagonal", random_terms(rng), monomial(rng, c)
        d = poly(rng, rng.randint(2, 4))
        if d:
            yield "polynomial diagonal", random_terms(rng, d), d
        d2 = monomial(rng, 2)
        yield "coefficient-2 diagonal, a multiple", random_terms(rng, d2), d2
        terms = random_terms(rng, d2)
        v = monomial(rng, 1)
        yield "coefficient-2 diagonal, not a multiple", terms + [(1, v, v)], d2
        coeff, v1, v2 = random_terms(rng)[0]
        for d in (monomial(rng, 1), monomial(rng, 2), d2 + monomial(rng, 1)):
            yield "cancels to zero", [(coeff, v1, v2), (-coeff, v2, v1)], d


def test_step_matches_the_unfused_reference():
    rng = random.Random(2026)
    kinds = set()
    for kind, terms, den in cases(rng):
        want = outcome(unfused_step, terms, den)
        got = outcome(quotient_of_products, terms, den)
        assert got == want and hash(got) == hash(want), (kind, terms, den)
        if kind == "cancels to zero":
            assert got == 0
        if kind.endswith("not a multiple"):
            assert got[0] == "raised" and got[2] == 1, kind
        kinds.add((kind, isinstance(got, tuple)))
    assert kinds == {
        ("unit monomial diagonal", False), ("polynomial diagonal", False),
        ("coefficient-2 diagonal, a multiple", False),
        ("coefficient-2 diagonal, not a multiple", True), ("cancels to zero", False),
    }


def assert_same(terms, den):
    got, want = quotient_of_products(terms, den), unfused_step(terms, den)
    assert got == want and hash(got) == hash(want)
    assert laurent.to_json(got) == laurent.to_json(want)


def test_operands_at_16_and_32_bits():
    rng = random.Random(2027)
    x, t = xvar(0, 0, 0), T
    # Two 8-bit factors whose product's exponent, 126, is stored at 16 bits.
    t63 = LaurentPoly.variable(t, 63)
    for den in (LaurentPoly.one(), LaurentPoly.constant(2), LaurentPoly.variable(x, -1)):
        assert_same([(2, t63, t63)], den)
    wide = [LaurentPoly.variable(x, 100), LaurentPoly.variable(t, -20000),
            LaurentPoly.monomial(3, [(x, 63), (t, -64)]), LaurentPoly.variable(t, 63)]
    assert {p._w for p in wide} == {8, 16, 32}
    for _ in range(40):
        terms = [(rng.choice([1, rng.choice(wide)]), rng.choice(wide) + poly(rng, 2),
                  rng.choice(wide) * poly(rng, 2)) for _ in range(3)]
        # -64 is stored at 8 bits and dividing by it adds 64, which 8 bits do not hold.
        for den in (LaurentPoly.variable(x, -64), LaurentPoly.variable(t, 20000, -1),
                    LaurentPoly.variable(x, 63) + 1, LaurentPoly.variable(t, 100, 2)):
            unit = len(den) == 1 and den.coefficients()[0] in (1, -1)
            exact = terms if unit else [(c, v1 * den, v2) for c, v1, v2 in terms]
            assert_same(exact, den)


def test_a_zero_diagonal_is_named_by_the_walk():
    x = LaurentPoly.variable(xvar(0, 0, 0))
    with pytest.raises(DivisionByZero):
        quotient_of_products([(1, x, x)], LaurentPoly.zero())
    diagonal, ic = (-1, -1, -1), lattice.standard(2)
    with pytest.raises(recurrence.DivisionByZeroDuringRecursion) as info:
        recurrence._walk(
            ic.peel_sequence(), recurrence._neighbor_scheme,
            lambda p: LaurentPoly.zero() if p == diagonal else LaurentPoly.variable(xvar(*p)),
            lambda w: recurrence._coeffs(w, recurrence.MODE_EDGE_VARS, LaurentPoly.variable),
            quotient_of_products,
        )
    assert info.value.point == diagonal


@pytest.mark.parametrize("exp", [-65, -64, 63, 64, 0])
@pytest.mark.parametrize("coeff", [0, 1, -1, 3])
def test_variable_builds_what_the_general_path_builds(exp, coeff):
    for v in (xvar(0, 0, 0), T, yvar(12345)):
        fast, general = LaurentPoly.variable(v, exp, coeff), LaurentPoly([(coeff, [(v, exp)])])
        assert fast == general and hash(fast) == hash(general)
        assert laurent.to_json(fast) == laurent.to_json(general)
        assert pickle.dumps(fast) == pickle.dumps(general)
        assert pickle.loads(pickle.dumps(fast)) == general


def test_outputs_do_not_depend_on_thousands_of_interned_variables():
    # Keys at high field indices: 3000 variables are interned before the
    # walk's, so every key the step builds spans thousands of fields.
    script = (
        "import json, sys\n"
        "from cuberec import lattice, laurent, recurrence, sequences\n"
        "for m in range(int(sys.argv[1])):\n"
        "    laurent.LaurentPoly.variable(laurent.yvar(-1 - m))\n"
        "polys = [recurrence.f_symbolic(lattice.standard(4)),\n"
        "         sequences.gr_symbolic(sequences.SOMOS7, 12)]\n"
        "print(json.dumps([laurent.to_json(p) for p in polys]))\n"
    )
    src = str(Path(laurent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    fresh, crowded = (
        subprocess.run([sys.executable, "-c", script, str(n)], env=env,
                       capture_output=True, check=True).stdout
        for n in (0, 3000)
    )
    assert crowded == fresh and json.loads(fresh)[1]["terms"]
