"""Exact division against the heap division it replaced.

div_exact divides by a monomial term by term, and by any other polynomial
over the dividend's keys sorted once, with a side heap for the keys that
products create outside the dividend's support.  The reference here is the
earlier loop: a max-heap of every remainder key.  It also records which
paths a case took, so that each kind of case below is counted, not assumed.
Both must give equal JSON, or the same NonzeroRemainder text; the failure
count must move by exactly one on each failure and not at all otherwise.
"""

import heapq
import random
from collections import Counter

import pytest

from cuberec import laurent
from cuberec.laurent import ALPHA, T, LaurentPoly, NonzeroRemainder, avar, div_exact, xvar

POOL = [xvar(0, 0, 0), xvar(-1, 0, 0), avar(0, -1), T, ALPHA]


def fieldwise(p, w, pick):
    """The key at width w of p's least or greatest exponent of every variable, 0 where absent."""
    exps = [dict(e) for e, _ in p._decoded()]
    return LaurentPoly._key([(v, pick(e.get(v, 0) for e in exps)) for v in set().union(*exps)], w)


def reference_div_exact(p, d, seen):
    """The heap division over every remainder key; adds the paths it takes to ``seen``.

    Its box comes from decoded exponents, not from laurent._extremes.
    """
    w = max(p._w, d._w)
    R, D = dict(p._at(w)), d._at(w)
    support = set(R)
    _, guards = laurent._masks(w)
    lo = fieldwise(p, w, min) - fieldwise(d, w, min)
    hi = fieldwise(p, w, max) - fieldwise(d, w, max)
    (lt_d, c_d), *rest = sorted(D.items(), reverse=True)
    heap = [-k for k in R]
    heapq.heapify(heap)
    Q = {}
    while heap:
        lt_r = -heapq.heappop(heap)
        c_r = R.pop(lt_r, 0)
        if not c_r:
            continue
        mono = lt_r - lt_d
        outside = ((mono - lo) | (hi - mono)) & guards
        if outside or c_r % c_d != 0:
            if not Q:
                seen.add("outside the box at the first term" if outside else "stuck at once")
            elif len(Q) >= 2:
                seen.add("stuck after several quotient terms")
            raise NonzeroRemainder(
                "dividend is not an exact multiple (stuck at term "
                f"{laurent.Monomial(c_r, laurent._exps_of(lt_r, w))})"
            )
        cq = c_r // c_d
        Q[mono] = cq
        for vec, c in rest:
            k = mono + vec
            s = R.get(k)
            if s is None:
                R[k] = -cq * c
                heapq.heappush(heap, -k)
                # A key of p not on R was cancelled: it has not been reached yet.
                seen.add("cancelled key returns" if k in support else "outside p's support")
            elif s != cq * c:
                R[k] = s - cq * c
            else:
                del R[k]
    return laurent._checked(Q, w)


def outcome(divide, p, d):
    try:
        return "quotient", laurent.to_json(divide(p, d))
    except NonzeroRemainder as err:
        return "remainder", str(err)


def random_poly(rng, terms, span, coeffs=(-3, 3), pool=POOL):
    out = LaurentPoly.zero()
    while len(out) < terms:
        chosen = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        exps = [(v, rng.randint(-span, span)) for v in chosen]
        coeff = rng.choice([c for c in range(coeffs[0], coeffs[1] + 1) if c])
        out = out + LaurentPoly.monomial(coeff, exps)
    return out


def monomial(rng, coeff, span=4):
    return random_poly(rng, 1, span, (coeff, coeff))


def cases():
    """(category, dividend, divisor), seeded."""
    rng = random.Random(2020)
    for _ in range(80):
        q = random_poly(rng, rng.randint(1, 8), 5)
        for c in (1, -1):
            m = monomial(rng, c)
            yield "monomial divisor, coefficient ±1", q * m, m
        k = rng.choice([2, 3, 5, -2, -3, -7])
        m = monomial(rng, k)
        yield "monomial divisor, coefficient ±k", q * m, m
        # Some coefficient of p is not a multiple of k.
        yield "monomial divisor, coefficient does not divide", q * m + monomial(rng, 1), m
    for _ in range(300):
        q = random_poly(rng, rng.randint(2, 6), 3)
        d = random_poly(rng, rng.randint(2, 5), 2)
        yield "polynomial divisor, mixed signs", q * d, d
        # Over two variables of low degree, products meet often enough to
        # cancel a key of p that a later product brings back.
        q = random_poly(rng, rng.randint(4, 7), 1, pool=POOL[:2])
        d = random_poly(rng, rng.randint(3, 5), 1, pool=POOL[:2])
        yield "polynomial divisor, dense", q * d, d
        r = random_poly(rng, rng.randint(1, 2), 3)
        yield "polynomial divisor, non-multiple", q * d + r, d
        # A term far above q*d: its quotient term often falls outside the box at once.
        far = LaurentPoly.variable(POOL[rng.randrange(len(POOL))], 20)
        yield "polynomial divisor, non-multiple", q * d + far, d
        # A constant is a unit, so no multiple of a divisor with two terms.
        yield "polynomial divisor, non-multiple", q * d * 2 + d.terms()[-1].coeff, d * 2
    for _ in range(60):
        # Exponents near the 8-bit field's edge: the quotient needs 16 bits.
        e = rng.randint(40, 63)
        v = POOL[rng.randrange(len(POOL))]
        q = LaurentPoly.variable(v, e, coeff=rng.choice([1, -2, 3]))
        m = LaurentPoly.variable(v, -e, coeff=rng.choice([1, -1]))
        yield "wide quotient", q, m
        d = m + LaurentPoly.variable(POOL[(POOL.index(v) + 1) % len(POOL)], rng.randint(-60, 60))
        yield "wide quotient", q * d + LaurentPoly.variable(v, e), d
        yield "wide quotient", LaurentPoly.variable(v, -e) * d, d


def test_div_exact_matches_the_heap_division():
    seen = Counter()
    for category, p, d in cases():
        paths = set()
        expected = outcome(lambda p, d: reference_div_exact(p, d, paths), p, d)
        before = laurent.nonzero_remainder_count
        got = outcome(div_exact, p, d)
        assert got == expected, (category, str(p), str(d))
        failed = expected[0] == "remainder"
        assert laurent.nonzero_remainder_count == before + failed, (category, str(p), str(d))
        seen[category, expected[0]] += 1
        seen.update(paths)
        if not failed and laurent.from_json(expected[1])._w > max(p._w, d._w):
            seen["quotient at twice the width"] += 1
    kinds = [
        ("monomial divisor, coefficient ±1", "quotient"),
        ("monomial divisor, coefficient ±k", "quotient"),
        ("monomial divisor, coefficient does not divide", "remainder"),
        "outside p's support",
        "cancelled key returns",
        "outside the box at the first term",
        "stuck after several quotient terms",
        "quotient at twice the width",
    ]
    for kind in kinds:
        assert seen[kind] >= 50, (kind, seen)


def test_monomial_divisor_names_the_greatest_failing_key():
    # A monomial that does not divide one coefficient names the greatest such key.
    x, y = (LaurentPoly.variable(v) for v in POOL[:2])
    p = 2 * x * x + 3 * x * y + 5 * y
    with pytest.raises(NonzeroRemainder) as err:
        div_exact(p, 2 * x)
    assert str(err.value) == outcome(lambda p, d: reference_div_exact(p, d, set()), p, 2 * x)[1]


def test_extremes_are_the_fieldwise_least_and_greatest_exponents():
    rng = random.Random(2021)
    for span in (2, 63, 64, 5000, 2**20, 2**40, 2**70):
        for _ in range(40):
            p = random_poly(rng, rng.randint(1, 12), span)
            lo, hi = fieldwise(p, p._w, min), fieldwise(p, p._w, max)
            assert laurent._extremes(p._terms, p._w) == (lo, hi), str(p)
