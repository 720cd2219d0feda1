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
    all-ones    every variable is 1; numeric evaluation only
    custom      A,B,C are fixed monomials in the indeterminate t

Three evaluators are provided.  f_symbolic and f_numeric share one walk up
the peel sequence (_walk); only the ring's step differs.  In every mode, abc
included, the walk runs in the ring the answer lives in: abc mode walks with
alpha, beta and gamma, never through the edge variables.  A step sums the
coefficient-weighted neighbour products and divides exactly by the diagonal
value: over Laurent polynomials with products, sums and ``div_exact``
(_laurent_step), over rationals with one kernel on reduced (numerator,
denominator) int pairs (_rational_step), which sums over the least common
denominator, needs one ``divmod`` per step and a ``gcd`` only when that
leaves a remainder.  f_numeric converts each assigned value to a pair once
and the origin value back to a Fraction at the end.  The one-dimensional
Gale-Robinson recursion in ``sequences`` takes the same two steps.
f_via_substitution is kept independent of that walk, so it checks
f_symbolic: it starts from the trivial ideal and, along the reversed peel
sequence, replaces each restored point's variable by its recurrence step,
the three-term numerator over the diagonal predecessor's variable, with one
``laurent.substitute``.  By the Laurent phenomenon every intermediate result
is a Laurent polynomial, so the exact division inside each substitution
never leaves a remainder.  In abc mode it substitutes with edge variables
and collapses them with abc_from_edge_vars at the end, so the direct abc
walk is checked by a route that shares neither its coefficients nor its
walk.  f_numeric is checked by the Gale-Robinson recursion, which shares its
rational kernel but not its walk, and by evaluating f_symbolic's polynomial,
which shares no rational step with it: Laurent arithmetic, then
``laurent.evaluate``'s sum over one common denominator.  The two-term
specialization, the octahedron recurrence in the coordinates (i+j, i-k,
j-k), is the walk in shift-octa mode; octahedron_check compares it with
substitution in the same mode.
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
    T,
    TAG_A,
    TAG_B,
    TAG_C,
    LaurentPoly,
    VarKey,
    avar,
    bvar,
    cvar,
    div_exact,
    xvar,
)
from .lattice import InitialConditions, Point3

MODE_EDGE_VARS = "edge-vars"
MODE_ABC = "abc"
MODE_ALL_ONES = "all-ones"
MODE_SHIFT_OCTA = "shift-octa"


@dataclass(frozen=True)
class CustomMode:
    """Per-axis edge-variable specialization to monomials coeff * t**exp."""

    a: tuple[int, int] = (1, 0)
    b: tuple[int, int] = (1, 0)
    c: tuple[int, int] = (1, 0)


class HalfIntegerExponent(ArithmeticError):
    """A coefficient exponent came out odd before halving; must never happen."""


class DivisionByZeroDuringRecursion(ZeroDivisionError):
    def __init__(self, point: Point3):
        self.point = point
        super().__init__(f"recurrence value vanished at {point}")


class RecursionEscaped(ValueError):
    """The recursion needed a point that is neither computed nor initial.

    Only initial conditions built with ``validate=False`` can get here.
    """

    def __init__(self, point: Point3):
        self.point = point
        super().__init__(f"recursion escaped the initial conditions at {point}")


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

    ``weight(v, exp, coeff)`` is coeff * v**exp in that ring, ``mul`` its
    product and ``one`` its unit.  A vanishing coefficient is falsy in either
    ring, so the walk reads no value it would multiply by zero.
    """
    if mode == MODE_SHIFT_OCTA:
        return (one, one, 0)
    if mode == MODE_ABC:
        return (weight(ALPHA), weight(BETA), weight(GAMMA))
    i, j, k = w
    if mode == MODE_EDGE_VARS:
        a, b, c = weight(avar(j, k)), weight(bvar(i, k)), weight(cvar(i, j))
    else:  # a CustomMode; each evaluator checks its mode on entry (_check_mode)
        a, b, c = (weight(T, exp, coeff) for coeff, exp in (mode.a, mode.b, mode.c))
    return (mul(b, c), mul(c, a), mul(a, b))


def _check_mode(mode, *extra) -> None:
    """ValueError unless mode is a symbolic mode, a CustomMode or one of extra."""
    if not (mode in (MODE_EDGE_VARS, MODE_ABC, MODE_SHIFT_OCTA, *extra)
            or isinstance(mode, CustomMode)):
        raise ValueError(f"unsupported mode {mode!r}")


def _laurent_step(terms, den: LaurentPoly) -> LaurentPoly:
    """The sum of ``coeff * v1 * v2`` over ``terms``, divided exactly by ``den``.

    A zero ``den`` raises ZeroDivisionError, which the callers name.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    num = 0
    for coeff, v1, v2 in terms:
        product = coeff * v1 * v2
        # The sum starts at the first product; adding that to 0 would copy it.
        num = num + product if num else product
    return div_exact(num, den) if num else LaurentPoly.zero()


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


def _walk(ic: InitialConditions, leaf, coeffs, step):
    """The origin value of the cube recurrence, in any ring.

    ``leaf(p)`` is the value at an initial point p, read once, ``coeffs(w)``
    the three coefficients at w and ``step(terms, den)`` the sum of
    ``coeff * v1 * v2`` over the (coeff, v1, v2) ``terms`` divided exactly by
    ``den``, raising ZeroDivisionError when ``den`` is zero.  Points of u_fin
    are visited in peel order, so the eight values below each one are known
    or initial.
    """
    memo = {}

    def value(p: Point3):
        got = memo.get(p)
        if got is None:
            if not ic.in_I(p):
                raise RecursionEscaped(p)
            got = memo[p] = leaf(p)
        return got

    for w in ic.peel_sequence():
        pairs, d = _neighbor_scheme(w)
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

    return value((0, 0, 0))


def f_symbolic(ic: InitialConditions, mode=MODE_EDGE_VARS) -> LaurentPoly:
    """The exact Laurent polynomial at the origin for the given mode.

    In abc mode the walk's coefficients are alpha, beta and gamma themselves,
    the images of B*C, C*A and A*B under abc_from_edge_vars, so it gives the
    polynomial that abc_from_edge_vars makes of the edge-vars one.
    """
    _check_mode(mode)
    return _walk(
        ic,
        lambda p: LaurentPoly.variable(xvar(*p)),
        lambda w: _coeffs(w, mode, LaurentPoly.variable),
        _laurent_step,
    )


def f_via_substitution(ic: InitialConditions, mode=MODE_EDGE_VARS) -> LaurentPoly:
    """Second evaluator: substitution along the reversed peel sequence.

    Starts from the single variable at the origin (the fully peeled ideal) and,
    for each restored point, replaces that point's variable by the recurrence
    step, a Laurent polynomial over the diagonal predecessor's variable, with
    ``laurent.substitute``.
    """
    _check_mode(mode)
    if mode == MODE_ABC:
        return abc_from_edge_vars(f_via_substitution(ic, MODE_EDGE_VARS))

    def checked_xvar(p: Point3) -> VarKey:
        # Each point the step reads is restored later or stays initial.
        if p not in ic.u_fin and not ic.in_I(p):
            raise RecursionEscaped(p)
        return xvar(*p)

    poly = LaurentPoly.variable(xvar(0, 0, 0))
    for w in reversed(ic.peel_sequence()):
        pairs, d = _neighbor_scheme(w)
        numerator = LaurentPoly.zero()
        for coeff, (p1, p2) in zip(_coeffs(w, mode, LaurentPoly.variable), pairs):
            if coeff:
                numerator = numerator + coeff * LaurentPoly.monomial(
                    1, [(checked_xvar(p1), 1), (checked_xvar(p2), 1)]
                )
        step = numerator * LaurentPoly.variable(checked_xvar(d), -1)
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
    mode); otherwise every variable read must be assigned.  In all-ones mode
    every variable is 1, and an assignment raises ValueError.
    """
    _check_mode(mode, MODE_ALL_ONES)
    if mode == MODE_ALL_ONES:
        if assign is not None:
            raise ValueError("all-ones mode sets every variable to 1; it takes no assignment")
        mode = MODE_EDGE_VARS  # the ones come from ``assign`` being None
    # A coefficient variable recurs at many points; each converts once.  The
    # walk reads each initial point's value once.
    coefficient_values: dict[VarKey, tuple[int, int]] = {}

    def lookup(v: VarKey) -> tuple[int, int]:
        if assign is None:
            return (1, 1)
        if v not in assign:
            raise laurent.UnassignedVariable(laurent.var_name(v))
        return _as_pair(assign[v])

    def weight(v: VarKey, exp: int = 1, coeff: int = 1):
        # A pair, or 0 when the weight vanishes, so that _coeffs' test sees it.
        x = coefficient_values.get(v)
        if x is None:
            x = coefficient_values[v] = lookup(v)
        n, d = x
        if exp < 0:
            if not n:
                raise laurent.ZeroToNegativePower(laurent.var_name(v))
            n, d, exp = d, n, -exp
        n = coeff * n**exp
        return (n, d**exp) if n else 0

    def mul(x, y):
        return (x[0] * y[0], x[1] * y[1]) if x and y else 0

    n, d = _walk(
        ic,
        lambda p: lookup(xvar(*p)),
        lambda w: _coeffs(w, mode, weight, mul, (1, 1)),
        _rational_step,
    )
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
