"""Cube-recurrence evaluation over order-ideal initial conditions.

The value at an initial point is its lattice variable; at any other point of
the cone it is the three-term bilinear combination of the values one step
down, divided exactly by the value at the diagonal predecessor:

    f[i,j,k] * f[i-1,j-1,k-1] =
          B*C * f[i-1,j,k]   * f[i,j-1,k-1]
        + C*A * f[i,j-1,k]   * f[i-1,j,k-1]
        + A*B * f[i,j,k-1]   * f[i-1,j-1,k]

where the coefficient system depends on the mode:

    edge-vars   A,B,C are the edge variables a(j,k), b(i,k), c(i,j)
    abc         coefficients alpha, beta, gamma in place of B*C, C*A, A*B
                (each edge variable maps to a square root of a coefficient
                ratio, so the products map to the coefficients themselves)
    shift-octa  the third term is dropped (the degenerate two-term recurrence)

f_numeric with no assignment sets every variable to 1; that is the CLI's
all-ones value, the grove count, and no mode of its own.

Three evaluators are provided.  f_symbolic and f_numeric share one walk up
the peel sequence (_walk); only the ring's step differs.  It is the one walk
of the three-term recurrence in the package: all five evaluators that walk
run through it, f_symbolic, f_numeric, octahedron_check's direct side (the
walk in shift-octa mode), and the one-dimensional Gale-Robinson recursion in
``sequences`` (gr_terms, gr_symbolic), which walks its term indices with its
own neighbours and initial values.  They differ in the points, neighbours,
initial values, coefficients and step they pass, and the walk never asks
which caller it serves.  In every mode, abc included, the walk runs in the
ring the answer lives in: abc mode walks with alpha, beta and gamma, never
through the edge variables.  A step sums the coefficient-weighted neighbour
products and divides exactly by the diagonal value, with one kernel per
ring.  Over Laurent polynomials it is ``laurent.quotient_of_products``: the
three products go into one dict through ``laurent``'s one product loop, the
loop ``*`` runs too, and ``div_exact`` divides the sum once.  Over rationals
it is a kernel on reduced (numerator, denominator) int pairs
(_rational_step), which sums over the least common denominator, needs one
``divmod`` per step and a ``gcd`` only when that leaves a remainder.
f_numeric converts each assigned value to a pair once and the origin value
back to a Fraction at the end.
f_via_substitution is kept independent of that walk, so it checks
f_symbolic: it starts from the trivial ideal and, along the reversed peel
sequence, replaces each restored point's variable by its recurrence step
with one ``laurent.substitute``.  The step, the sum of
coeff * x(p1) * x(p2) / x(d), is one call of ``laurent``'s product loop on
the pairs (coeff, x(p1) * x(p2) * x(d)**-1), and substitute makes each power
of the step once, each from the last by one ``*``, so the route adds no
polynomials and takes no ``**``.  By the Laurent phenomenon every
intermediate result is a Laurent polynomial, so the exact division inside
each substitution never leaves a remainder.  The two routes share
``laurent``'s product loop and ``div_exact``, but neither the walk nor its
step; the grove sum and f_numeric check the walk's polynomial without
either.  In abc mode it substitutes with edge variables and collapses them
with abc_from_edge_vars at the end, so the direct abc walk is checked by a
route that shares neither its coefficients nor its walk.  f_numeric is
checked by evaluating f_symbolic's polynomial, which shares no rational step
with it: Laurent arithmetic, then ``laurent.evaluate``'s sum over one common
denominator; that polynomial in turn equals the grove sum and substitution,
which share no walk.  On Gale-Robinson ideals it equals gr_terms, which
shares both its walk and its kernel, and which the tests check against the
recursion in plain Fractions.  The two-term specialization, the octahedron
recurrence in the coordinates (i+j, i-k, j-k), is the walk in shift-octa
mode; octahedron_check compares it with substitution in the same mode.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping

from . import laurent
from .laurent import (
    ALPHA,
    BETA,
    GAMMA,
    TAG_A,
    TAG_B,
    TAG_C,
    LaurentPoly,
    VarKey,
    avar,
    bvar,
    cvar,
    xvar,
)
from .lattice import InitialConditions, Point3

MODE_EDGE_VARS = "edge-vars"
MODE_ABC = "abc"
MODE_SHIFT_OCTA = "shift-octa"


class HalfIntegerExponent(ArithmeticError):
    """A coefficient exponent came out odd before halving; must never happen."""


class DivisionByZeroDuringRecursion(ZeroDivisionError):
    def __init__(self, point: Point3):
        self.point = point
        super().__init__(f"recurrence value vanished at {point}")


def _neighbor_scheme(w: Point3):
    i, j, k = w
    pairs = (
        ((i - 1, j, k), (i, j - 1, k - 1)),
        ((i, j - 1, k), (i - 1, j, k - 1)),
        ((i, j, k - 1), (i - 1, j - 1, k)),
    )
    return pairs, (i - 1, j - 1, k - 1)


def _coeffs(w: Point3, mode, weight, mul=operator.mul, one=1) -> tuple:
    """The three coefficients at w, in the ring of ``weight``.

    ``weight(v)`` is the variable v in that ring, ``mul`` its product and
    ``one`` its unit.  A vanishing coefficient is falsy in either ring, so
    the walk reads no value it would multiply by zero.  Each evaluator checks
    its mode on entry (_check_mode), so any other mode is edge-vars.
    """
    if mode == MODE_SHIFT_OCTA:
        return (one, one, 0)
    if mode == MODE_ABC:
        return (weight(ALPHA), weight(BETA), weight(GAMMA))
    i, j, k = w
    a, b, c = weight(avar(j, k)), weight(bvar(i, k)), weight(cvar(i, j))
    return (mul(b, c), mul(c, a), mul(a, b))


def _check_mode(mode) -> None:
    """ValueError unless mode is edge-vars, abc or shift-octa."""
    if mode not in (MODE_EDGE_VARS, MODE_ABC, MODE_SHIFT_OCTA):
        raise ValueError(f"unsupported mode {mode!r}")


def _rational_step(terms, den: tuple[int, int]) -> tuple[int, int]:
    """The same step over rationals held as (numerator, denominator) int pairs.

    Every value is in lowest terms with a positive denominator, and so is the
    result; a coefficient need only have a nonzero denominator, of either
    sign.  The terms are summed over the least common multiple of their
    denominators, up to sign, as it grows (TAOCP Vol. 2, 4.5.1): each new
    denominator is divided by its gcd with the running one before the two
    multiply, and where either is 1 no gcd is taken, so sums of integers
    cost none.  The sum is multiplied by the reciprocal of ``den`` and the
    sign goes to the numerator.  From an integer start the quotient is an integer by the
    Laurent phenomenon, so one ``divmod`` settles it; only a remainder costs
    a ``gcd``, of the remainder and the denominator.  A zero ``den`` raises
    ZeroDivisionError.
    """
    dn, dd = den
    if not dn:
        raise ZeroDivisionError("division by zero")
    num, d = 0, 1
    for (cn, cd), (n1, d1), (n2, d2) in terms:
        tn, td = cn * n1 * n2, cd * d1 * d2
        if d == 1:
            num, d = num * td + tn, td
        elif td == 1:
            num += tn * d
        else:
            g = gcd(d, td)
            td //= g
            num, d = num * td + tn * (d // g), d * td
    num, d = num * dd, d * dn
    if d < 0:
        num, d = -num, -d
    q, r = divmod(num, d)
    if not r:
        return (q, 1)
    g = gcd(r, d)
    return (num // g, d // g)


def _as_pair(x: Fraction | int) -> tuple[int, int]:
    """A rational as the reduced (numerator, denominator) pair _rational_step takes."""
    if not isinstance(x, (int, Fraction)):  # an int or Fraction is already reduced
        x = Fraction(x)
    return (x.numerator, x.denominator)


def _walk(points, scheme, leaf, coeffs, step):
    """The value function of a three-term recurrence, in any ring.

    Each point w of ``points`` is visited in order: ``scheme(w)`` gives its
    three neighbour pairs and its diagonal predecessor d, ``coeffs(w)`` the
    three coefficients, and ``step(terms, den)`` the sum of
    ``coeff * v1 * v2`` over the (coeff, v1, v2) ``terms`` divided exactly by
    ``den``, raising ZeroDivisionError when ``den`` is zero, which comes out
    as DivisionByZeroDuringRecursion(d).  A point read before it is visited
    is initial, and ``leaf(p)`` is its value, read once.  The cube recurrence
    walks the peel sequence of an ideal with _neighbor_scheme; upward closure,
    checked when the ideal is built, puts every neighbour and the diagonal of
    a peeled point either earlier in the sequence or among the initial
    points.  The Gale-Robinson recursion walks the indices n, n+1, ... of its
    terms (``sequences``), whose neighbours all lie below the index.  The
    returned function gives the value at any visited or initial point.
    """
    memo = {}

    def value(p):
        got = memo.get(p)
        if got is None:
            got = memo[p] = leaf(p)
        return got

    for w in points:
        pairs, d = scheme(w)
        terms = [
            (coeff, value(p1), value(p2))
            for coeff, (p1, p2) in zip(coeffs(w), pairs)
            if coeff
        ]
        den = value(d)
        try:
            memo[w] = step(terms, den)
        except ZeroDivisionError:
            raise DivisionByZeroDuringRecursion(d) from None

    return value


def f_symbolic(ic: InitialConditions, mode=MODE_EDGE_VARS) -> LaurentPoly:
    """The exact Laurent polynomial at the origin for the given mode.

    In abc mode the walk's coefficients are alpha, beta and gamma themselves,
    the images of B*C, C*A and A*B under abc_from_edge_vars, so it gives the
    polynomial that abc_from_edge_vars makes of the edge-vars one.
    """
    _check_mode(mode)
    return _walk(
        ic.peel_sequence(), _neighbor_scheme,
        lambda p: LaurentPoly.variable(xvar(*p)),
        lambda w: _coeffs(w, mode, LaurentPoly.variable),
        laurent.quotient_of_products,
    )((0, 0, 0))


def f_via_substitution(ic: InitialConditions, mode=MODE_EDGE_VARS) -> LaurentPoly:
    """Second evaluator: substitution along the reversed peel sequence.

    Starts from the single variable at the origin (the fully peeled ideal) and,
    for each restored point, replaces that point's variable by the recurrence
    step with ``laurent.substitute``.  The step is one call of the product
    loop: each nonzero coefficient times the monomial x(p1) * x(p2) over the
    diagonal predecessor's variable.  Shift-octa's coefficients are the
    polynomial one, so that the loop multiplies polynomials only.  Upward
    closure, checked when the ideal is built, makes every point a step reads
    one that is restored later or stays initial.
    """
    _check_mode(mode)
    if mode == MODE_ABC:
        return abc_from_edge_vars(f_via_substitution(ic, MODE_EDGE_VARS))

    one = LaurentPoly.one()
    poly = LaurentPoly.variable(xvar(0, 0, 0))
    for w in reversed(ic.peel_sequence()):
        pairs, d = _neighbor_scheme(w)
        step = laurent._sum_of_products(
            (coeff, LaurentPoly.monomial(
                1, [(xvar(*p1), 1), (xvar(*p2), 1), (xvar(*d), -1)]))
            for coeff, (p1, p2) in zip(_coeffs(w, mode, LaurentPoly.variable, one=one), pairs)
            if coeff
        )
        poly = laurent.substitute(poly, xvar(*w), step)
    return poly


def abc_from_edge_vars(p: LaurentPoly) -> LaurentPoly:
    """Map each edge variable to the square-root coefficient ratio of its axis.

    Every a maps to sqrt(beta*gamma/alpha), b to sqrt(gamma*alpha/beta) and c
    to sqrt(alpha*beta/gamma).  Doubled exponents are tracked as integers and
    halved at the end; odd parity raises HalfIntegerExponent.
    """

    def halved(degrees):
        na, nb, nc = degrees
        doubled = (nb + nc - na, nc + na - nb, na + nb - nc)
        for d in doubled:
            if d % 2 != 0:
                raise HalfIntegerExponent(
                    f"odd doubled exponent {doubled} from edge-variable degrees {degrees}"
                )
        return [(var, d // 2) for var, d in zip((ALPHA, BETA, GAMMA), doubled) if d]

    return laurent.collapse_tags(p, (TAG_A, TAG_B, TAG_C), halved)


def f_numeric(
    ic: InitialConditions,
    assign: Mapping[VarKey, Fraction | int] | None = None,
    mode=MODE_EDGE_VARS,
) -> Fraction:
    """Exact rational value at the origin, without symbolic expansion.

    With no assignment every variable is 1 (the grove count in edge-vars
    mode, which the CLI prints as the all-ones value); otherwise every
    variable read must be assigned.
    """
    _check_mode(mode)
    # A coefficient variable recurs at many points; each converts once.  The
    # walk reads each initial point's value once.
    coefficient_values: dict[VarKey, tuple[int, int] | int] = {}

    def lookup(v: VarKey) -> tuple[int, int]:
        if assign is None:
            return (1, 1)
        if v not in assign:
            raise laurent.UnassignedVariable(laurent.var_name(v))
        return _as_pair(assign[v])

    def weight(v: VarKey):
        # A pair, or 0 when its numerator is 0, so that _coeffs' test sees it.
        x = coefficient_values.get(v)
        if x is None:
            n, d = lookup(v)
            x = coefficient_values[v] = (n, d) if n else 0
        return x

    def mul(x, y):
        return (x[0] * y[0], x[1] * y[1]) if x and y else 0

    n, d = _walk(
        ic.peel_sequence(), _neighbor_scheme,
        lambda p: lookup(xvar(*p)),
        lambda w: _coeffs(w, mode, weight, mul, (1, 1)),
        _rational_step,
    )((0, 0, 0))
    return Fraction(n, d)


@dataclass(frozen=True)
class OctahedronReport:
    direct: LaurentPoly
    substituted: LaurentPoly

    @property
    def equal(self) -> bool:
        return self.direct == self.substituted


def octahedron_check(ic: InitialConditions) -> OctahedronReport:
    """Compute the two-term specialization two ways and compare.

    ``direct`` is the walk in shift-octa mode, ``substituted`` the
    substitution route in the same mode, which shares neither the walk's
    driver nor its memo.  In coordinates (x, y, z) = (i+j, i-k, j-k) the
    two-term recurrence is the octahedron recurrence (Speyer), whose five
    neighbours are the first two pairs and the diagonal of _neighbor_scheme.
    """
    return OctahedronReport(
        direct=f_symbolic(ic, MODE_SHIFT_OCTA),
        substituted=f_via_substitution(ic, MODE_SHIFT_OCTA),
    )
