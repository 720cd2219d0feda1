"""Reference arithmetic the benchmark checks `cuberec` against.

Nothing here imports `cuberec`.  Variables are named by plain tuples:
``("x", i, j, k)`` for a lattice point, ``("a", j, k)``, ``("b", i, k)``,
``("c", i, j)`` for edge variables, ``("alpha",)``, ``("beta",)``,
``("gamma",)`` for the abc coefficients and ``("y", m)`` for sequence terms.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _steps(w):
    i, j, k = w
    pairs = (
        ((i - 1, j, k), (i, j - 1, k - 1)),
        ((i, j - 1, k), (i - 1, j, k - 1)),
        ((i, j, k - 1), (i - 1, j - 1, k)),
    )
    return pairs, (i - 1, j - 1, k - 1)


def cube_values(u_fin, weight=None, abc=False) -> dict:
    """Values of the cube recurrence at every point of ``u_fin``.

    ``weight(name)`` gives each variable's value; without it every variable
    is 1 and each value is the grove count of the ideal shifted to that point.
    """
    u = set(map(tuple, u_fin))
    one = weight is None
    weight = weight or (lambda name: 1)
    values = {}

    def f(p):
        return values[p] if p in u else weight(("x",) + p)

    for w in sorted(u, key=lambda p: (sum(p), p)):
        i, j, k = w
        if abc:
            coeffs = (weight(("alpha",)), weight(("beta",)), weight(("gamma",)))
        else:
            a, b, c = weight(("a", j, k)), weight(("b", i, k)), weight(("c", i, j))
            coeffs = (b * c, c * a, a * b)
        pairs, d = _steps(w)
        num = sum(co * f(p1) * f(p2) for co, (p1, p2) in zip(coeffs, pairs))
        if one:
            q, rem = divmod(num, f(d))
            if rem:
                raise ArithmeticError(f"all-ones value at {w} is not an integer")
            values[w] = q
        else:
            values[w] = Fraction(num) / f(d)
    return values


def grove_count(u_fin) -> int:
    """Number of groves on the ideal: the all-ones value at the origin."""
    return cube_values(u_fin).get((0, 0, 0), 1)


def recurrence_variables(u_fin, abc=False) -> set:
    """Every variable the cube recurrence reads on ``u_fin``."""
    u = set(map(tuple, u_fin))
    names = {("alpha",), ("beta",), ("gamma",)} if abc and u else set()
    for w in u:
        i, j, k = w
        if not abc:
            names.update({("a", j, k), ("b", i, k), ("c", i, j)})
        pairs, d = _steps(w)
        for p in (d, *(p for pair in pairs for p in pair)):
            if p not in u:
                names.add(("x",) + p)
    return names or {("x", 0, 0, 0)}


def gr_values(p, q, r, count, start=None, coeffs=(1, 1, 1)) -> list:
    """First ``count`` terms of the (p,q,r) Gale-Robinson recurrence."""
    n = p + q + r
    al, be, ga = coeffs
    ys = [Fraction(v) for v in (start if start is not None else [1] * n)]
    while len(ys) < count:
        m = len(ys)
        l = m - n
        ys.append(
            (al * ys[l + p] * ys[m - p] + be * ys[l + q] * ys[m - q]
             + ga * ys[l + r] * ys[m - r]) / ys[l]
        )
    return ys[:count]


def rational_point(seed: int, names) -> dict:
    """Seeded positive rationals with numerator and denominator in 1..9."""
    rng = random.Random(seed)
    return {name: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for name in sorted(names)}
