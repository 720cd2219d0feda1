"""Exact cube-recurrence polynomials, grove enumeration, and sequence certificates."""

from .laurent import (
    ALPHA,
    BETA,
    GAMMA,
    T,
    LaurentPoly,
    Monomial,
    avar,
    bvar,
    cvar,
    div_exact,
    evaluate,
    substitute,
    xvar,
    yvar,
)
from .lattice import (
    InitialConditions,
    PlanePoint,
    Rhombus,
    explicit,
    gale_robinson,
    kleber,
    project,
    standard,
)
from .recurrence import (
    MODE_ABC,
    MODE_EDGE_VARS,
    MODE_SHIFT_OCTA,
    f_numeric,
    f_symbolic,
    f_via_substitution,
    octahedron_check,
)
from .groves import (
    Grove,
    GroveStats,
    SimplifiedGrove,
    asm_triangle,
    base_grove,
    check_grove,
    coeffone_sums,
    enumerate_bruteforce,
    enumerate_local_moves,
    from_simplified,
    grove_from_monomial,
    is_acyclic,
    monomial_of,
    stats,
    to_simplified,
)
from .sequences import SOMOS6, SOMOS7, GaleRobinsonSpec, gr_certificate, gr_terms

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
