"""Gale-Robinson and Somos sequences with grove-count certificates.

A (p,q,r) specification defines the order-n recurrence, n = p+q+r:

    y[l+n] * y[l] = alpha * y[l+p] * y[l+n-p]
                  + beta  * y[l+q] * y[l+n-q]
                  + gamma * y[l+r] * y[l+n-r]

Somos-6 is (1,2,3) and Somos-7 is (4,1,2), both with unit coefficients.
Terms are computed by exact rational recursion; the certificate for a term
independently enumerates the groves of the matching initial conditions and
compares the count.  The term's full Laurent expansion (gr_symbolic) is the
independent reference for the renamed cube-recurrence polynomial
(gr_renamed_cube_poly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import groves, lattice, recurrence
from .laurent import (
    ALPHA,
    BETA,
    GAMMA,
    TAG_X,
    LaurentPoly,
    rename_variables,
    yvar,
)


@dataclass(frozen=True)
class GaleRobinsonSpec:
    p: int
    q: int
    r: int
    alpha: Fraction = Fraction(1)
    beta: Fraction = Fraction(1)
    gamma: Fraction = Fraction(1)

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 1:
            raise ValueError("p, q, r must be positive")

    @property
    def n(self) -> int:
        return self.p + self.q + self.r


SOMOS6 = GaleRobinsonSpec(1, 2, 3)
SOMOS7 = GaleRobinsonSpec(4, 1, 2)


def _gr_extend(spec: GaleRobinsonSpec, terms: list, coeffs, count: int, step) -> list:
    """Extend the n initial ``terms`` in place to ``count`` terms of the recurrence.

    ``coeffs`` are alpha, beta, gamma in the ring of the terms and ``step`` is
    that ring's recurrence step (``recurrence._laurent_step`` or
    ``recurrence._rational_step``); a ``count`` below n keeps the first
    ``count`` initial terms.
    """
    n, p, q, r = spec.n, spec.p, spec.q, spec.r
    alpha, beta, gamma = coeffs
    del terms[count:]
    while len(terms) < count:
        m = len(terms)
        l = m - n
        products = (
            (alpha, terms[l + p], terms[m - p]),
            (beta, terms[l + q], terms[m - q]),
            (gamma, terms[l + r], terms[m - r]),
        )
        try:
            terms.append(step(products, terms[l]))
        except ZeroDivisionError:
            raise ZeroDivisionError(f"term y_{l} is zero") from None
    return terms


def gr_terms(
    spec: GaleRobinsonSpec, count: int, initial: list[Fraction] | None = None
) -> list[Fraction]:
    """First ``count`` terms by exact rational recursion (default all-ones start).

    The terms are carried as reduced (numerator, denominator) int pairs and
    become ``Fraction``s on the way out.
    """
    n = spec.n
    terms = [recurrence._as_pair(v) for v in (initial if initial is not None else [1] * n)]
    if len(terms) != n:
        raise ValueError(f"need exactly {n} initial terms")
    if count < 0:
        raise ValueError(f"count must be >= 0, not {count}")
    coeffs = [recurrence._as_pair(c) for c in (spec.alpha, spec.beta, spec.gamma)]
    _gr_extend(spec, terms, coeffs, count, recurrence._rational_step)
    return [Fraction(num, den) for num, den in terms]


def gr_symbolic(spec: GaleRobinsonSpec, l: int) -> LaurentPoly:
    """Term y_l as an exact Laurent polynomial in y_0..y_{n-1}, alpha, beta, gamma.

    Runs the one-dimensional recurrence directly with exact division; this is
    the independent oracle for the cube-recurrence reduction.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, not {l}")
    terms = [LaurentPoly.variable(yvar(m)) for m in range(spec.n)]
    coeffs = tuple(LaurentPoly.variable(v) for v in (ALPHA, BETA, GAMMA))
    return _gr_extend(spec, terms, coeffs, l + 1, recurrence._laurent_step)[l]


def gr_renamed_cube_poly(spec: GaleRobinsonSpec, l: int) -> LaurentPoly:
    """The cube-recurrence polynomial with lattice variables renamed to y-terms."""
    ic = lattice.gale_robinson(spec.p, spec.q, spec.r, l)
    poly = recurrence.f_symbolic(ic, recurrence.MODE_ABC)
    mapping = {}
    for v in poly.variables():
        if v[0] == TAG_X:
            _, i, j, k = v
            mapping[v] = yvar(spec.p * i + spec.q * j + spec.r * k + l)
    return rename_variables(poly, mapping)


@dataclass(frozen=True)
class GrCertificate:
    l: int
    recursion_value: Fraction
    grove_count: int
    count_match: bool


# Certificates enumerate at most this many groves.
_MAX_GROVES = 200_000


def gr_certificate(spec: GaleRobinsonSpec, l: int) -> GrCertificate:
    """Certify term y_l: grove count equals the recursion value.

    The counting side always uses the all-ones specialization (unit
    coefficients and unit initial terms), which is where terms count groves,
    so ``spec.alpha`` etc. play no part.  The groves are counted as local-move
    masks, and no Grove is built.  The term itself, which the groves should
    number, bounds the enumeration: a term beyond ``_MAX_GROVES`` raises
    TooLarge before any grove is counted.
    """
    value = gr_terms(GaleRobinsonSpec(spec.p, spec.q, spec.r), l + 1)[l]
    if value > _MAX_GROVES:
        raise groves.TooLarge(
            f"term y_{l} counts {value} groves, above the {_MAX_GROVES} bound"
        )
    ic = lattice.gale_robinson(spec.p, spec.q, spec.r, l)
    count = groves.count_local_moves(ic)
    return GrCertificate(
        l=l,
        recursion_value=value,
        grove_count=count,
        count_match=(value == count),
    )


def is_integral(x: Fraction) -> bool:
    return x.denominator == 1
