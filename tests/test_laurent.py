"""Exact polynomial arithmetic: spec examples, ring axioms, serialization."""

import random
from fractions import Fraction

import pytest

from cuberec import laurent
from cuberec.laurent import (
    ALPHA,
    T,
    LaurentPoly,
    NonzeroRemainder,
    UnassignedVariable,
    ZeroToNegativePower,
    avar,
    div_exact,
    evaluate,
    parse_var,
    substitute,
    var_name,
    xvar,
)

X = xvar(0, 0, 0)
Y = xvar(1, 1, 1)


def v(key, exp=1, coeff=1):
    return LaurentPoly.variable(key, exp, coeff)


def test_add_identity_and_cancellation():
    x = v(X)
    assert x + LaurentPoly.zero() == x
    assert x + v(X, coeff=-1) == LaurentPoly.zero()
    assert v(avar(0, 0)) + v(avar(0, 0)) == v(avar(0, 0), coeff=2)


def test_mul_examples():
    assert v(X) * v(X, -1) == LaurentPoly.one()
    x, y = v(X), v(Y)
    assert (x + y) * (x - y) == v(X, 2) - v(Y, 2)
    assert v(X, coeff=2) * v(X, -2, coeff=3) == v(X, -1, coeff=6)


def test_div_exact_examples():
    x, y = v(X), v(Y)
    assert div_exact(v(X, 2) - v(Y, 2), x - y) == x + y
    p = x + v(Y, -3, coeff=7)
    assert div_exact(p, LaurentPoly.one()) == p
    with pytest.raises(NonzeroRemainder):
        div_exact(x + y, x - y)
    with pytest.raises(laurent.DivisionByZero):
        div_exact(x, LaurentPoly.zero())


def test_div_exact_by_pure_monomials():
    # Monomials are units: dividing by them must always succeed.
    x = v(X)
    assert div_exact(x, v(X, 2)) == v(X, -1)
    assert div_exact(x + v(X, 2), v(X, 3, coeff=1)) == v(X, -2) + v(X, -1)


def test_substitute_examples():
    assert substitute(v(X) * v(Y), X, LaurentPoly.constant(3)) == v(Y, coeff=3)
    assert substitute(v(X, -1), X, v(T, 2)) == v(T, -2)
    with pytest.raises(NonzeroRemainder):
        substitute(v(X) + v(X, -1), X, v(Y) + 1)


def test_substitute_by_laurent_polynomials():
    # value = unit monomial * P.  A part under v**-e is a multiple of P**e, so
    # the result is a Laurent polynomial and must agree with p at rational
    # points.  (A coefficient other than +-1 would leave fractions.)
    rng = random.Random(5)
    Z = avar(0, 0)
    for _ in range(30):
        P = _random_poly(rng, [Y, Z, ALPHA])
        if not P:
            continue
        value = LaurentPoly.monomial(rng.choice([-1, 1]), [(Y, rng.randint(-2, 2))]) * P
        p = sum(
            (_random_poly(rng, [Y, Z, T]) * P ** max(0, -e) * v(X, e) for e in range(-2, 3)),
            LaurentPoly.zero(),
        )
        result = substitute(p, X, value)
        assert X not in result.variables()
        for _ in range(3):
            a = {var: Fraction(rng.randint(1, 7), rng.randint(1, 5)) for var in (Y, Z, T, ALPHA)}
            at_value = evaluate(value, a)
            if at_value == 0:
                continue
            assert evaluate(result, a) == evaluate(p, a | {X: at_value})


def test_substitute_zero_under_negative_power():
    assert substitute(v(X, 2) + v(Y), X, 0) == v(Y)
    with pytest.raises(laurent.DivisionByZero):
        substitute(v(X, -1) + v(Y), X, 0)


def test_evaluate_examples():
    three_terms = v(avar(0, 0)) + v(avar(0, 1)) + v(avar(1, 1))
    ones = {avar(0, 0): 1, avar(0, 1): 1, avar(1, 1): 1}
    assert evaluate(three_terms, ones) == 3
    assert evaluate(v(X, -1), {X: 2}) == Fraction(1, 2)
    with pytest.raises(ZeroToNegativePower):
        evaluate(v(X, -1), {X: 0})
    with pytest.raises(UnassignedVariable):
        evaluate(v(X), {})
    assert evaluate(v(X, 3), {X: 0}) == 0


def _random_poly(rng, pool, max_terms=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        size = rng.randint(0, 3)
        items = [(var, rng.randint(-2, 2)) for var in rng.sample(pool, size)]
        terms.append((rng.randint(-4, 4), items))
    return LaurentPoly(terms)


def test_ring_axioms_randomized():
    rng = random.Random(111)
    pool = [X, Y, avar(0, 0), T, ALPHA]
    for _ in range(200):
        p, q, r = (_random_poly(rng, pool) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_div_exact_inverts_mul_randomized():
    rng = random.Random(222)
    pool = [X, Y, avar(0, 0), T]
    checked = 0
    while checked < 150:
        q = _random_poly(rng, pool)
        d = _random_poly(rng, pool)
        if d.is_zero():
            continue
        assert div_exact(q * d, d) == q
        checked += 1


def test_pow():
    p = v(X) + 1
    assert p**0 == LaurentPoly.one()
    assert p**3 == p * p * p


def test_var_name_roundtrip():
    for key in (X, avar(-1, -2), ALPHA, T, laurent.yvar(7), laurent.bvar(0, -3)):
        assert parse_var(var_name(key)) == key
    with pytest.raises(ValueError):
        parse_var("q(1)")
    with pytest.raises(ValueError):
        parse_var("x(1,2)")


def test_json_roundtrip_randomized():
    rng = random.Random(333)
    pool = [X, Y, avar(0, 0), laurent.cvar(-1, 0), ALPHA]
    for _ in range(100):
        p = _random_poly(rng, pool)
        assert laurent.from_json(laurent.to_json(p)) == p


def test_json_canonical_order():
    p = v(X) + v(X, 2) + LaurentPoly.one()
    obj = laurent.to_json(p)
    assert [t["coeff"] for t in obj["terms"]] == ["1", "1", "1"]
    degrees = [sum(t["exps"].values()) for t in obj["terms"]]
    assert degrees == sorted(degrees, reverse=True)


def test_rename_and_drop():
    p = v(X) * v(avar(0, 0)) + v(Y)
    renamed = laurent.rename_variables(p, {X: Y})
    assert renamed == v(Y) * v(avar(0, 0)) + v(Y)
    dropped = laurent.drop_variables(p, (laurent.TAG_A,))
    assert dropped == v(X) + v(Y)
    # merging renames collect coefficients
    assert laurent.rename_variables(v(X) + v(Y), {X: Y}) == v(Y, coeff=2)


def test_div_exact_wide_exponents_many_variables():
    # Twelve variables with exponents in +-1000: shifted total degrees reach
    # the tens of thousands, and every packed field must stay apart from its
    # neighbours.
    rng = random.Random(444)
    pool = [xvar(i, -i, 0) for i in range(6)] + [avar(i, 1) for i in range(4)] + [T, ALPHA]

    def wide_poly(n_terms):
        return LaurentPoly(
            (rng.choice([-3, -2, -1, 1, 2, 5]),
             [(var, rng.randint(-1000, 1000)) for var in rng.sample(pool, rng.randint(1, 12))])
            for _ in range(n_terms)
        )

    for _ in range(20):
        q, d = wide_poly(rng.randint(1, 6)), wide_poly(rng.randint(1, 5))
        assert div_exact(q * d, d) == q
        assert div_exact(q * d, q) == d


def test_div_exact_at_field_width_boundaries():
    # q*d reaches total degree 2**3, 2**7 and 2**15, where the packed fields
    # gain a bit; the total degree must not overflow into its guard bit.
    x, y = v(X), v(Y)
    for degree in (6, 7, 126, 127, 128, 32766, 32767, 32768):
        q = v(X, degree - 1) * y + v(Y, degree) - 1
        d = x - y
        assert div_exact(q * d, d) == q
        with pytest.raises(NonzeroRemainder):
            div_exact(q * d + v(Y, degree + 1), d)


def test_div_exact_non_multiples_count_once():
    x, y = v(X), v(Y)
    three = LaurentPoly.constant(3)
    cases = [
        (y, x + 1),                  # the leading exponents do not divide
        (2 * x + 2, three),          # the leading coefficients do not divide
        (x * x + y, x + 1),          # stuck after one quotient term
    ]
    for p, d in cases:
        before = laurent.nonzero_remainder_count
        with pytest.raises(NonzeroRemainder):
            div_exact(p, d)
        assert laurent.nonzero_remainder_count == before + 1, (p, d)


def test_canonical_term_order_is_graded_lex():
    rng = random.Random(555)
    pool = [X, Y, avar(0, 0), T, ALPHA]
    index = {var: i for i, var in enumerate(sorted(pool))}
    for _ in range(50):
        p = _random_poly(rng, pool, max_terms=8)
        order = laurent.canonical_term_order(p._terms)

        def grlex(e):
            vec = [0] * len(pool)
            for var, x in e:
                vec[index[var]] = x
            return (sum(vec), vec)

        assert [grlex(e) for e in order] == sorted(map(grlex, p._terms), reverse=True)


def test_div_exact_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(666)
    pool = [X, Y, avar(0, 0), T]
    symbols = {var: sympy.Symbol(f"s{i}") for i, var in enumerate(pool)}

    def to_sympy(p):
        return sum((m.coeff * sympy.Mul(*(symbols[var] ** x for var, x in m.exps))
                    for m in p.terms()), sympy.Integer(0))

    checked = multiples = 0
    while checked < 60:
        d = _random_poly(rng, pool)
        if d.is_zero():
            continue
        p = _random_poly(rng, pool) * d if checked % 2 else _random_poly(rng, pool)
        # p/d is a Laurent polynomial over the integers exactly when its
        # reduced denominator is a monomial and its expansion has integer
        # coefficients.
        num, den = sympy.fraction(sympy.cancel(to_sympy(p) / to_sympy(d)))
        quotient = sympy.expand(num / den)
        if len(sympy.Add.make_args(sympy.expand(den))) == 1 and all(
            c.is_integer for c in quotient.as_coefficients_dict().values()
        ):
            assert sympy.expand(to_sympy(div_exact(p, d)) - quotient) == 0, (p, d)
            multiples += 1
        else:
            with pytest.raises(NonzeroRemainder):
                div_exact(p, d)
        checked += 1
    assert 30 <= multiples < checked
