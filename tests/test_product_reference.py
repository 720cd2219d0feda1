"""Products of Laurent polynomials against a product that adds no packed key.

Every product in ``laurent`` goes through one kernel, ``_sum_of_products``,
which adds packed keys into one dict.  The reference here multiplies decoded
exponent maps (``terms()``) and builds the sum with the ``LaurentPoly``
constructor, so it shares neither the kernel nor its width check.  ``*`` and
the kernel must both equal it in ``==``, ``hash`` and JSON bytes; where sympy
is installed, ``sympy.expand`` of the same products must agree too.
"""

import itertools
import random

import pytest

from cuberec import laurent
from cuberec.laurent import ALPHA, T, LaurentPoly, avar, xvar

POOL = [xvar(0, 0, 0), xvar(-1, 0, 0), avar(0, -1), T, ALPHA]
SPANS = (3, 100, 20000)  # stored at 8, 16 and 32 bits


def reference_product(pairs):
    """The sum of a * b over the (a, b) pairs, multiplied term by term as exponent maps."""
    return LaurentPoly(
        (ma.coeff * mb.coeff, ma.exps + mb.exps)
        for a, b in pairs for ma in a.terms() for mb in b.terms()
    )


def poly(rng, size, span):
    """A polynomial of up to ``size`` terms with one exponent of magnitude ``span``."""
    terms = [(rng.choice([-3, -2, -1, 1, 2, 3]),
              [(rng.choice(POOL), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))])
             for _ in range(size)]
    terms.append((rng.choice([-1, 1]), [(rng.choice(POOL), rng.choice([span, -span]))]))
    return LaurentPoly(terms)


def factor(rng, kind):
    if kind == "zero":
        return LaurentPoly.zero()
    span = rng.choice(SPANS)
    if kind == "one term":
        return poly(rng, 0, span)
    return poly(rng, rng.randint(1, 5), span)


def pair_lists(rng):
    """(kind, pairs) cases; every kind the docstring names occurs."""
    yield "no pairs", []
    for _ in range(150):
        kinds = rng.choices(["general", "one term", "zero"], weights=[6, 2, 1], k=2)
        a, b = (factor(rng, kind) for kind in kinds)
        yield "one pair: " + " by ".join(kinds), [(a, b)]
        pairs = [(factor(rng, "general"), factor(rng, "general"))
                 for _ in range(rng.randint(2, 4))]
        yield "several pairs", pairs
        a, b, c = (factor(rng, "general") for _ in range(3))
        # a*b - a*(c*b) + (a*(c-1))*b is zero, and no product is.
        yield "cancels across pairs", [(a, b), (-a, c * b), (a * (c - 1), b)]
        yield "cancels in part", pairs + [(-pairs[0][0], pairs[0][1])]
    t63 = LaurentPoly.variable(T, 63)
    # Two 8-bit factors whose product's exponent, 126, is stored at 16 bits.
    yield "8-bit factors, 16-bit product", [(t63 + 1, t63 - 1)]


def test_products_match_the_decoded_reference():
    rng = random.Random(4242)
    kinds, widths, mixed = set(), set(), 0
    for kind, pairs in pair_lists(rng):
        want = reference_product(pairs)
        results = [laurent._sum_of_products(pairs)]
        if len(pairs) == 1:
            ((a, b),) = pairs
            results += [a * b, b * a]
        for got in results:
            assert got == want and hash(got) == hash(want), (kind, pairs)
            assert laurent.to_json(got) == laurent.to_json(want), (kind, pairs)
            # Every stored exponent lies in the range of the stored width.
            exponents = (x for m in got.terms() for _, x in m.exps)
            assert laurent._width_for(exponents) <= got._w, (kind, pairs)
        if kind.startswith("cancels across"):
            assert want == 0 and all(a * b != 0 for a, b in pairs)
        kinds.add(kind)
        stored = {p._w for pair in pairs for p in pair}
        widths |= stored
        mixed = max(mixed, len(stored))
    assert {"no pairs", "cancels across pairs", "one pair: general by zero",
            "one pair: one term by general", "one pair: general by one term",
            "8-bit factors, 16-bit product"} <= kinds
    assert widths == {8, 16, 32} and mixed == 3  # some call mixes all three


def test_products_match_sympy():
    sympy = pytest.importorskip("sympy")
    symbols = {var: sympy.Symbol(f"s{i}") for i, var in enumerate(POOL)}

    def to_sympy(p):
        return sum((m.coeff * sympy.Mul(*(symbols[var] ** x for var, x in m.exps))
                    for m in p.terms()), sympy.Integer(0))

    rng = random.Random(4243)
    for kind, pairs in itertools.islice(pair_lists(rng), 80):
        expected = sympy.expand(sum((to_sympy(a) * to_sympy(b) for a, b in pairs),
                                    sympy.Integer(0)))
        for got in (laurent._sum_of_products(pairs), reference_product(pairs)):
            assert sympy.expand(to_sympy(got) - expected) == 0, kind
