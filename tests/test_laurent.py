"""Exact polynomial arithmetic: spec examples, ring axioms, serialization."""

import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuberec import laurent
from cuberec.laurent import (
    ALPHA,
    T,
    LaurentPoly,
    Monomial,
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


def test_constants_hash_like_their_ints():
    for c in (0, 1, -7):
        p = LaurentPoly.constant(c)
        assert p == c and hash(p) == hash(c), c
        assert len({p, c}) == 1, c
    assert len({v(X), v(Y), LaurentPoly.one()}) == 3


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


def test_substitute_sums_every_exponent_group_at_once():
    # The parts of every exponent of X meet in one sum, where they may cancel.
    x, y, z = v(X), v(Y), v(avar(0, 0))
    assert substitute((x - y) ** 2, X, y) == 0
    assert substitute((x - y) * z * v(X, -1), X, y) == 0
    # value = unit monomial * P, and the part under X**e for e < 0 is a
    # multiple of P**-e, so the result is a Laurent polynomial.
    rng = random.Random(27)
    pool = [Y, avar(0, 0), T]
    P = y + v(T, 2) - 1
    value = v(Y, -1) * P
    for _ in range(10):
        parts = {e: LaurentPoly.zero() for e in range(-2, 4)}
        for e in parts:
            while not parts[e]:
                parts[e] = _random_poly(rng, pool) * P ** max(0, -e)
        p = sum((part * v(X, e) for e, part in parts.items()), LaurentPoly.zero())
        assert {dict(m.exps).get(X, 0) for m in p.terms()} == set(parts)
        result = substitute(p, X, value)
        for _ in range(3):
            a = {var: Fraction(rng.randint(1, 7), rng.randint(1, 5)) for var in pool}
            at_value = evaluate(value, a)
            if at_value:
                assert evaluate(result, a) == evaluate(p, a | {X: at_value})


def test_substitute_zero_under_negative_power():
    assert substitute(v(X, 2) + v(Y), X, 0) == v(Y)
    with pytest.raises(laurent.DivisionByZero):
        substitute(v(X, -1) + v(Y), X, 0)


def _recorded_products(monkeypatch):
    """Patch ``*`` to record the operands of every product it takes."""
    products = []
    multiply = LaurentPoly.__mul__

    def recorded(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", recorded)
    monkeypatch.setattr(LaurentPoly, "__rmul__", recorded)
    return products


def _forbidden(monkeypatch, *names):
    """Patch the named LaurentPoly operators to fail the test if called."""
    def fail(*args):
        raise AssertionError("operator called")

    for name in names:
        monkeypatch.setattr(LaurentPoly, name, fail)


@pytest.mark.parametrize("exponents", [
    "new variable", "interned, exponent 0 only", (1, 2, 3), (-3, -2, -1), (-2, -1), (-1, 2),
])
def test_substitute_across_exponent_groups(exponents, monkeypatch):
    # value = unit monomial * P, and the part under X**e for e < 0 is a
    # multiple of P**-e, so the result is a Laurent polynomial.
    rng = random.Random(str(exponents))
    pool = [Y, avar(0, 0), T]
    P = v(Y) + v(T, 2) - 1
    value = v(Y, -1) * P
    target = X
    if exponents == "new variable":  # no polynomial has had it yet
        target = laurent.yvar(10**6 + len(laurent._variables))
        assert target not in laurent._field
    for _ in range(8):
        if isinstance(exponents, str):
            parts = {0: _random_poly(rng, pool) + 1}
        else:
            parts = {e: LaurentPoly.zero() for e in exponents}
            for e in parts:
                while not parts[e]:
                    parts[e] = _random_poly(rng, pool) * P ** max(0, -e)
        p = sum((part * v(X, e) for e, part in parts.items()), LaurentPoly.zero())
        assert {dict(m.exps).get(X, 0) for m in p.terms()} == set(parts)
        # Each power of the value is made once, by one product with the value.
        top = max(0, -min(parts)) + max(0, *parts)
        products = _recorded_products(monkeypatch)
        _forbidden(monkeypatch, "__add__", "__radd__", "__pow__")
        result = substitute(p, target, value)
        monkeypatch.undo()
        assert [b for _, b in products] == [value] * max(0, top - 1)
        assert len({a for a, _ in products}) == len(products)
        if isinstance(exponents, str):
            assert result == p
        for _ in range(3):
            a = {var: Fraction(rng.randint(1, 7), rng.randint(1, 5)) for var in pool}
            at_value = evaluate(value, a)
            if at_value:
                assert evaluate(result, a) == evaluate(p, a | {X: at_value, target: at_value})
    if min(parts) < 0:
        for zero in (0, LaurentPoly.zero()):
            with pytest.raises(laurent.DivisionByZero):
                substitute(p, target, zero)


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


def test_pow_is_binary_powering_from_the_base(monkeypatch):
    p = v(X) - 2 * v(Y, -1) + 3
    repeated = {0: LaurentPoly.one(), 1: p, 2: p * p, 5: p * p * p * p * p}
    for n, expected in repeated.items():
        products = _recorded_products(monkeypatch)
        power = p**n
        monkeypatch.undo()
        assert power == expected
        assert len(products) == {0: 0, 1: 0, 2: 1, 5: 3}[n]
        assert not any(a == 1 or b == 1 for a, b in products)
    with pytest.raises(ValueError):
        p ** -1


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
    # Fresh variables, first used in this order, so s leads r and t leads s
    # in the stored order.  Quotient terms chosen by that order alone would
    # run on (s/r, -s/r**2, ...) until an exponent outgrew its field; each
    # division must stop at its first term outside the exponent box.
    r, s, t = (v(xvar(90 + i, 0, 0)) for i in range(3))
    cases = [
        (y, x + 1, None),            # the leading exponents do not divide
        (2 * x + 2, three, None),    # the leading coefficients do not divide
        (x * x + y, x + 1, None),    # stuck after one quotient term
        (s + 1, r + 1, "x(91,0,0)"),          # s/r would need r**-1
        (t * r + s + 1, r + 1, "-x(92,0,0)"),  # stuck after the quotient term t
    ]
    for p, d, stuck in cases:
        before = laurent.nonzero_remainder_count
        with pytest.raises(NonzeroRemainder) as err:
            div_exact(p, d)
        assert laurent.nonzero_remainder_count == before + 1, (p, d)
        if stuck:
            assert str(err.value).endswith(f"(stuck at term {stuck})"), err.value


def test_canonical_term_order_is_graded_lex():
    rng = random.Random(555)
    pool = [X, Y, avar(0, 0), T, ALPHA]
    index = {var: i for i, var in enumerate(sorted(pool))}
    for _ in range(50):
        p = _random_poly(rng, pool, max_terms=8)
        exps = [m.exps for m in p.terms()]
        shuffled = rng.sample(exps, len(exps))
        order = laurent.canonical_term_order(shuffled)

        def grlex(e):
            vec = [0] * len(pool)
            for var, x in e:
                vec[index[var]] = x
            return (sum(vec), vec)

        assert [grlex(e) for e in order] == sorted(map(grlex, shuffled), reverse=True)
        assert order == exps


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


# A width w stores exponents in [-2**(w-2), 2**(w-2)) and starts at 8 bits;
# past 64 bits the fields are read by shifts instead of as machine ints.
WIDTH_BOUNDARIES = (2**6, 2**14, 2**30, 2**62, 2**126)


def test_products_and_powers_across_width_boundaries():
    x, y = v(X), v(Y)
    for h in WIDTH_BOUNDARIES:
        assert v(X, h - 1)._w < v(X, h)._w == v(X, -h - 1)._w
        assert v(X, -h)._w == v(X, h - 1)._w
        for e in (h - 1, -h):  # the last exponents of a width, each side
            step = 1 if e > 0 else -1
            grown = v(X, e) * v(X, step)
            assert grown._w > v(X, e)._w
            assert grown.terms() == [Monomial(1, ((X, e + step),))]
            assert grown * v(X, -step) == v(X, e)
            p = (v(X, e) + y) * (x - y)
            assert p == LaurentPoly([(1, [(X, e + 1)]), (-1, [(X, e), (Y, 1)]),
                                     (1, [(X, 1), (Y, 1)]), (-1, [(Y, 2)])])
        half = v(X, h // 2)
        assert half**2 == v(X, h) and (half * x) ** 2 == v(X, h + 2)
        assert (half + y) ** 2 == v(X, h) + 2 * half * y + v(Y, 2)
        assert (v(X, -h // 2) - 1) ** 2 == v(X, -h) - 2 * v(X, -h // 2) + 1


def test_substitute_and_div_exact_across_width_boundaries():
    x, y = v(X), v(Y)
    for h in WIDTH_BOUNDARIES:
        assert substitute(v(X, 2) * y, X, v(Y, h // 2)) == v(Y, h + 1)
        assert substitute(v(X, -1) + y, X, v(Y, h)) == v(Y, -h) + y
        value = y + v(T, h // 2)
        assert substitute(v(X, 2), X, value) == v(Y, 2) + 2 * y * v(T, h // 2) + v(T, h)
        assert substitute(v(X, -2) * value**2, X, value) == 1
        with pytest.raises(NonzeroRemainder):
            substitute(v(X, -1), X, value)
        for e in (h - 1, h, -h, -h - 1):
            q = v(X, e) * y + v(Y, e) - 1
            d = x - y
            assert div_exact(q * d, d) == q
            assert div_exact(q * d, q) == d
            assert div_exact(q * v(X, -e), v(X, -e)) == q
            # t/x or t/y leaves the box of exact quotient exponents at once.
            # (y**(e+1)/d would stop too, but only after about e quotient terms.)
            with pytest.raises(NonzeroRemainder):
                div_exact(q * d + v(T, e), d)


def test_equal_polynomials_hash_alike_across_widths():
    x, y = v(X), v(Y)
    wide_x = v(X, 64) * v(X, -63)
    assert wide_x._w > x._w
    assert wide_x == x and x == wide_x and hash(wide_x) == hash(x)
    assert len({wide_x, x}) == 1
    wide_one = v(X, 64) * v(X, -64)
    assert wide_one._w > x._w
    assert wide_one == 1 and hash(wide_one) == hash(1) == hash(LaurentPoly.one())
    p = x * v(Y, -3) + 2 * y - 5
    big = v(T, 2**40)
    wide_p = p * big * v(T, -(2**40))
    assert wide_p._w > p._w
    assert wide_p == p and hash(wide_p) == hash(p) and len({p, wide_p}) == 1
    assert wide_p != p + 1 and wide_p != p * big
    assert wide_p - p == 0 and not (wide_p - p)


def test_polynomials_two_doublings_wide_hash_like_their_narrow_equals():
    # The narrowest width comes from each field's least and greatest exponents;
    # a boundary exponent in either direction decides it.
    h = 2**14  # 16-bit fields hold [-h, h)
    cases = [
        (v(X, -h) + 3 * v(Y, 5) * v(X, 5) - 1, 16, 2**40),
        (v(X, h) * v(Y, -2) - v(Y, 7), 32, 2**70),
    ]
    for narrow, width, e in cases:
        assert narrow._w == width
        wide = narrow * v(T, e) * v(T, -e)
        assert wide._w == 4 * width
        assert wide == narrow and hash(wide) == hash(narrow) and len({wide, narrow}) == 1
        # The constructor stores decoded terms at their narrowest width.
        rebuilt = LaurentPoly((m.coeff, m.exps) for m in wide.terms())
        assert rebuilt._w == width and hash(wide) == hash(frozenset(rebuilt._terms.items()))


def test_json_bytes_and_pickles_do_not_depend_on_interning_order():
    from cuberec import lattice, recurrence

    ic = lattice.standard(3)
    p = recurrence.f_symbolic(ic) + v(X, -70) * v(T, 3)
    names = [var_name(var) for var in p.variables()]
    expected = json.dumps(laurent.to_json(p))
    script = (
        "import json, pickle, sys\n"
        "from cuberec import lattice, laurent, recurrence\n"
        "names = json.loads(sys.argv[1])\n"
        "for name in names:\n"
        "    laurent.LaurentPoly.variable(laurent.parse_var(name))\n"
        "assert [laurent.var_name(var) for var in laurent._variables] == names\n"
        "p = recurrence.f_symbolic(lattice.standard(3))\n"
        "x, t = laurent.xvar(0, 0, 0), laurent.T\n"
        "p = p + laurent.LaurentPoly.monomial(1, [(x, -70), (t, 3)])\n"
        "assert pickle.loads(bytes.fromhex(sys.argv[2])) == p\n"
        "print(json.dumps(laurent.to_json(p)))\n"
    )
    src = str(Path(laurent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    pickled = pickle.dumps(p).hex()
    unrelated = [var_name(laurent.yvar(m)) for m in range(2000)]
    for order in (names[::-1], names, unrelated + names):
        out = subprocess.run([sys.executable, "-c", script, json.dumps(order), pickled],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == expected
