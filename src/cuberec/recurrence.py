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
    abc         coefficients alpha, beta, gamma; realised by transforming the
                edge-vars result (each edge variable maps to a square root of
                a coefficient ratio, tracked as doubled integer exponents)
    shift-octa  the third term is dropped (the degenerate two-term recurrence)
    all-ones    every variable is 1; numeric evaluation only
    custom      A,B,C are fixed monomials in the indeterminate t

Three evaluators are provided.  f_symbolic and f_numeric share one walk up
the peel sequence (_walk), over Laurent polynomials with exact division and
over rationals respectively; only the ring differs.  f_via_substitution is
kept independent of that walk, so it checks f_symbolic: it starts from the
trivial ideal and, along the reversed peel sequence, replaces each restored
point's variable by its recurrence step, the three-term numerator over the
diagonal predecessor's variable, with one ``laurent.substitute``.  By the
Laurent phenomenon every intermediate result is a Laurent polynomial, so the
exact division inside each substitution never leaves a remainder.  f_numeric
is checked independently by the one-dimensional Gale-Robinson recursion in
``sequences`` and by evaluating f_symbolic's polynomial.  The two-term
specialization is checked against its own index-transformed recurrence
(_g_transform_poly), which also stays off the walk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
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


def _coeffs(w: Point3, mode, weight) -> tuple:
    """The three coefficients at w, in the ring of ``weight``.

    ``weight(v, exp, coeff)`` is coeff * v**exp in that ring.  Shift-octa
    coefficients are plain integers, which act in either ring.
    """
    if mode == MODE_SHIFT_OCTA:
        return (1, 1, 0)
    if mode == MODE_ABC:
        return (weight(ALPHA), weight(BETA), weight(GAMMA))
    i, j, k = w
    if mode == MODE_EDGE_VARS:
        a, b, c = weight(avar(j, k)), weight(bvar(i, k)), weight(cvar(i, j))
    elif isinstance(mode, CustomMode):
        a, b, c = (weight(T, exp, coeff) for coeff, exp in (mode.a, mode.b, mode.c))
    else:
        raise ValueError(f"unsupported mode {mode!r}")
    return (b * c, c * a, a * b)


def _walk(ic: InitialConditions, leaf, coeffs, divide):
    """The origin value of the cube recurrence, in any ring.

    ``leaf(p)`` is the value at an initial point p, ``coeffs(w)`` the three
    coefficients at w and ``divide(num, den)`` the exact quotient.  Points of
    u_fin are visited in peel order, so the eight values below each one are
    known or initial.
    """
    memo = {}

    def value(p: Point3):
        got = memo.get(p)
        if got is not None:
            return got
        if not ic.in_I(p):
            raise RecursionEscaped(p)
        return leaf(p)

    for w in ic.peel_sequence():
        pairs, d = _neighbor_scheme(w)
        num = 0
        for coeff, (p1, p2) in zip(coeffs(w), pairs):
            if coeff:
                num = num + coeff * value(p1) * value(p2)
        den = value(d)
        if not den:
            raise DivisionByZeroDuringRecursion(d)
        # A zero num may still be the integer 0, if every coefficient vanished.
        memo[w] = divide(num, den) if num else 0 * den

    return value((0, 0, 0))


def f_symbolic(ic: InitialConditions, mode=MODE_EDGE_VARS) -> LaurentPoly:
    """The exact Laurent polynomial at the origin for the given mode."""
    if mode == MODE_ABC:
        return abc_from_edge_vars(f_symbolic(ic, MODE_EDGE_VARS))
    return _walk(
        ic,
        lambda p: LaurentPoly.variable(xvar(*p)),
        lambda w: _coeffs(w, mode, LaurentPoly.variable),
        div_exact,
    )


def f_via_substitution(ic: InitialConditions, mode=MODE_EDGE_VARS) -> LaurentPoly:
    """Second evaluator: substitution along the reversed peel sequence.

    Starts from the single variable at the origin (the fully peeled ideal) and,
    for each restored point, replaces that point's variable by the recurrence
    step, a Laurent polynomial over the diagonal predecessor's variable, with
    ``laurent.substitute``.
    """
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
    mode); otherwise every variable read must be assigned.
    """
    if mode == MODE_ALL_ONES:
        mode = MODE_EDGE_VARS  # the ones come from ``assign`` being None

    def lookup(v: VarKey) -> Fraction:
        if assign is None:
            return Fraction(1)
        if v in assign:
            return Fraction(assign[v])
        raise laurent.UnassignedVariable(laurent.var_name(v))

    def weight(v: VarKey, exp: int = 1, coeff: int = 1) -> Fraction:
        x = lookup(v)
        return x if exp == 1 and coeff == 1 else coeff * x**exp

    return _walk(
        ic,
        lambda p: lookup(xvar(*p)),
        lambda w: _coeffs(w, mode, weight),
        operator.truediv,
    )


@dataclass(frozen=True)
class OctahedronReport:
    direct: LaurentPoly
    transformed: LaurentPoly

    @property
    def equal(self) -> bool:
        return self.direct == self.transformed


def octahedron_check(ic: InitialConditions) -> OctahedronReport:
    """Compute the two-term specialization two ways and compare.

    The direct route runs the degenerate recurrence on lattice points; the
    second runs the index-transformed recurrence g[x,y,z] with
    (x,y,z) = (i+j, i-k, j-k) and compares at the origin.
    """
    direct = f_symbolic(ic, MODE_SHIFT_OCTA)
    transformed = _g_transform_poly(ic)
    return OctahedronReport(direct=direct, transformed=transformed)


def _g_transform_poly(ic: InitialConditions) -> LaurentPoly:
    memo: dict[Point3, LaurentPoly] = {}

    # Every step below changes x+y+z by 0 or -2, so from the origin it stays
    # even and the halving is exact.
    def to_lattice(g: Point3) -> Point3:
        x, y, z = g
        return ((x + y - z) // 2, (x - y + z) // 2, (x - y - z) // 2)

    def children(g: Point3):
        x, y, z = g
        return (
            ((x - 1, y - 1, z), (x - 1, y + 1, z)),
            ((x - 1, y, z - 1), (x - 1, y, z + 1)),
            (x - 2, y, z),
        )

    stack = [(0, 0, 0)]
    while stack:
        g = stack[-1]
        if g in memo:
            stack.pop()
            continue
        p = to_lattice(g)
        if ic.in_I(p):
            memo[g] = LaurentPoly.variable(xvar(*p))
            stack.pop()
            continue
        if not (ic.in_cone(p) and ic.in_U(p)):
            raise RecursionEscaped(p)
        (pair1, pair2, below) = children(g)
        pending = [c for c in (*pair1, *pair2, below) if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        num = memo[pair1[0]] * memo[pair1[1]] + memo[pair2[0]] * memo[pair2[1]]
        memo[g] = div_exact(num, memo[below])
        stack.pop()
    return memo[(0, 0, 0)]
