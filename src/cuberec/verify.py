"""The verify property suite: identities between the origin polynomial and its groves.

Each property takes a Context, which holds one ideal (``ctx.ic``) and what
the properties share about it, and returns None when it found no
counterexample, a witness string when it found one, or Skipped when it could
not run.  Groves are masks, in no order.  A witness names the first failing
grove in enumerate's order (groves.grove_order) as a --grove-file line, so
only a failing run sorts, and only the masks that fail.

    main-theorem  f_symbolic equals f_via_substitution, and the groves'
                  monomials sum to it (Carroll-Speyer's main theorem)
    oracle        local moves and brute force find the same masks; skipped
                  when the brute-force window has more free rhombi than
                  brute_cap
    acyclic       every grove is a forest on the minimal window
    triineq       each grove's axis counts (n_a, n_b, n_c) obey the triangle
                  inequalities with an even sum, and abc_from_edge_vars
                  halves every doubled exponent of the polynomial
    coeffone      every coefficient of the polynomial is 1, and the quadrant
                  law holds: each rhombus's quadrant sum of degree - 2 is -1
                  exactly when its long edge is used
    degrees       lattice-variable exponents lie in [-1, 4], and every
                  window vertex degree in [1, 6]
    injectivity   no two groves share a degree table
    rhombcount    window point and rhombus counts equal their closed forms
                  at five radii from the least cutoff
    simplified    each simplified grove at min_odd_cutoff has (3N+5)/2
                  components
    octahedron    the two-term specialization by the walk, by substitution
                  and by the balanced groves (n_a + n_b = n_c, edge
                  variables dropped)

The quadrant sum is linear in the set of long edges, so coeffone checks the
law once per window, for every set at once.  A long edge changes the sum by
-1 at the rhombi that carry its edge variable and by 0 elsewhere, an
identity of the coordinates; so the law holds for every set exactly when
the base grove's sums are all 0 and no two window rhombi carry one
variable.  coeffone checks those two facts, builds no grove, and fails,
naming the rhombi, only on a window where the law itself fails.  The round
trip through simplified groves is the identity for every grove, as an even
edge fixes its rhombus, so simplified only counts each grove's components.
acyclic, degrees and simplified check the groves themselves.

run gives the report ``cuberec verify`` prints: one result per property and
ideal, with its status (pass, fail or skipped), its witness and, for a skip,
its reason.  Properties are called through the one PROPERTIES dict, and the
functions they test through their modules, each looked up on every call, so
that a patched name takes effect.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Collection, Iterable, NamedTuple, Sequence

from . import groves, lattice, laurent, recurrence


class Skipped(NamedTuple):
    reason: str


class UnknownProperties(ValueError):
    """run was asked for properties that PROPERTIES does not hold."""


def _prop_main_theorem(ctx):
    f_sym = ctx.f_sym
    f_sub = recurrence.f_via_substitution(ctx.ic)
    total = groves.mask_sum(ctx.window, ctx.masks)
    if f_sym != f_sub:
        return "symbolic and substitution evaluators disagree"
    if total != f_sym:
        return "grove monomials do not sum to the polynomial"
    return None


def _prop_oracle(ctx):
    try:
        brute = {g.mask for g in groves.enumerate_bruteforce(ctx.ic, cap=ctx.brute_cap)}
    except groves.TooLarge as exc:
        return Skipped(f"{exc} (--brute-cap)")
    mine = set(ctx.masks)
    if mine != brute:
        m = min(mine ^ brute, key=groves.grove_order)
        return (f"local moves found {len(mine)} groves, brute force {len(brute)}; only "
                f"{'local moves' if m in mine else 'brute force'} found grove {ctx.named(m)}")
    return None


def _prop_acyclic(ctx):
    window = ctx.window
    m = ctx.first(lambda m: not window.forest(m))
    return None if m is None else f"cyclic grove {ctx.named(m)}"


def _prop_triineq(ctx):
    window = ctx.window

    def broken(m):
        a, b, c = window.axis_counts(m)
        return a + b < c or b + c < a or c + a < b or (a + b + c) % 2

    m = ctx.first(broken)
    if m is not None:
        return ("axis counts (%d,%d,%d) break the parity law in grove " % window.axis_counts(m)
                + ctx.named(m))
    try:
        recurrence.abc_from_edge_vars(ctx.f_sym)
    except recurrence.HalfIntegerExponent as exc:
        return str(exc)
    return None


def _prop_coeffone(ctx):
    """Coefficient one: the polynomial's coefficients, then the quadrant law on the window.

    The polynomial half catches a coefficient other than 1, such as a grove
    monomial counted twice.  The grove half (each rhombus's quadrant sum of
    degree - 2 is minus its bit) is linear in the mask, so it is checked once
    on the minimal window, for every set of long edges: the base grove's sums
    are 0, and no two rhombi carry one edge variable, which is all a long
    edge's change depends on (_Window.quadrant_fault).  No grove is built.
    ``acyclic``, ``degrees`` and ``simplified`` check the groves themselves.
    """
    bad = [c for c in ctx.f_sym.coefficients() if c != 1]
    if bad:
        return f"non-unit coefficients {bad[:5]}"
    return ctx.window.quadrant_fault


def _prop_degrees(ctx):
    rng = ctx.f_sym.exponent_range(laurent.TAG_X)
    if rng and (rng[0] < -1 or rng[1] > 4):
        return f"lattice-variable exponents {rng} outside [-1, 4]"
    window = ctx.window
    m = ctx.first(lambda m: not window.degrees_within(window.degree_vector(m), 1, 6))
    if m is None:
        return None
    degs = window.degree_bytes(m)
    return f"vertex degree range [{min(degs)},{max(degs)}] outside [1, 6] in grove {ctx.named(m)}"


def _prop_injectivity(ctx):
    """No two groves share a degree table; on a repeat, the least pair in enumerate's order."""
    window, masks, seen = ctx.window, ctx.masks, {}
    if len(set(map(window.degree_vector, masks))) == len(masks):
        return None
    for m in sorted(masks, key=groves.grove_order):
        key = window.degree_vector(m)
        if key in seen:
            return f"groves {ctx.named(seen[key])} and {ctx.named(m)} share a degree table"
        seen[key] = m
    return None


def _prop_rhombcount(ctx):
    ic = ctx.ic
    for N in range(ic.min_cutoff, ic.min_cutoff + 5):
        if len(ic.points_in_J(N)) != groves.window_point_count(N):
            return f"window point count off at N={N}"
        if len(ic.rhombi_in_J(N)) != groves.window_rhombus_count(N):
            return f"window rhombus count off at N={N}"
    return None


def _prop_simplified(ctx):
    """Each simplified grove at min_odd_cutoff has (3N+5)/2 components.

    The round trip through simplified groves needs no check: an even edge
    fixes its rhombus, so from_simplified inverts to_simplified on every mask
    (_Window.even_tables).  Each grove's components are counted over
    window-index pairs (_Window.even_components); no simplified grove is
    built.
    """
    N = ctx.ic.min_odd_cutoff
    window = groves._window(ctx.ic, N)
    want = (3 * N + 5) // 2
    m = ctx.first(lambda m: window.even_components(m) != want)
    if m is None:
        return None
    return (f"simplified grove has {window.even_components(m)} components, expected {want}, "
            f"in grove {ctx.named(m)}")


def _prop_octahedron(ctx):
    """The two-term specialization by three routes: walk, substitution, balanced groves.

    octahedron_check compares the walk in shift-octa mode with substitution
    in that mode; the sum over the groves with n_a + n_b = n_c, edge
    variables dropped, must then equal the walk's polynomial.
    """
    report = recurrence.octahedron_check(ctx.ic)
    if not report.equal:
        return "substitution disagrees with the walk in shift-octa mode"

    window = ctx.window

    def balanced(m):
        a, b, c = window.axis_counts(m)
        return a + b == c

    filtered = laurent.drop_variables(
        groves.mask_sum(window, filter(balanced, ctx.masks)),
        (laurent.TAG_A, laurent.TAG_B, laurent.TAG_C),
    )
    if filtered != report.direct:
        return "grove filter does not match the two-term specialization"
    return None


PROPERTIES = {
    "main-theorem": _prop_main_theorem,
    "oracle": _prop_oracle,
    "acyclic": _prop_acyclic,
    "triineq": _prop_triineq,
    "coeffone": _prop_coeffone,
    "degrees": _prop_degrees,
    "injectivity": _prop_injectivity,
    "rhombcount": _prop_rhombcount,
    "simplified": _prop_simplified,
    "octahedron": _prop_octahedron,
}


class Context:
    """What the properties share about one ic; masks and f_sym are built on first use."""

    def __init__(self, ic: lattice.InitialConditions, brute_cap: int):
        self.ic, self.brute_cap = ic, brute_cap

    @cached_property
    def masks(self) -> Collection[int]:
        """Every grove's mask, in no order."""
        return groves._local_move_masks(self.ic)

    @cached_property
    def f_sym(self) -> laurent.LaurentPoly:
        return recurrence.f_symbolic(self.ic)

    @property
    def window(self):  # groves._window keeps it per ideal
        return groves._window(self.ic, self.ic.min_cutoff)

    def first(self, fails) -> int | None:
        """The first mask in enumerate's order for which fails is true; None if none is."""
        return min(filter(fails, self.masks), key=groves.grove_order, default=None)

    def named(self, mask: int) -> str:
        """The grove of mask as a --grove-file line, which render grove reads back."""
        return json.dumps({"long_edges": groves.long_edge_list(self.ic, mask)})


def run(ics: Iterable[lattice.InitialConditions], props: Sequence[str] | None,
        brute_cap: int) -> dict:
    """Each property of props (every one when None) on each ideal: the verify report.

    The report is {"pass": ..., "results": [...]}, one result per ideal and
    property in that order.  A skipped property passes.  UnknownProperties,
    a ValueError, names any property not in PROPERTIES before anything runs,
    and a negative brute_cap raises ValueError there too.
    """
    props = list(PROPERTIES) if props is None else list(props)
    unknown = [p for p in props if p not in PROPERTIES]
    if unknown:
        raise UnknownProperties(f"unknown properties {unknown}")
    if brute_cap < 0:
        raise ValueError(f"brute_cap must be >= 0, not {brute_cap}")
    results = []
    ok = True
    for ic in ics:
        ctx = Context(ic, brute_cap)
        for name in props:
            outcome = PROPERTIES[name](ctx)
            skipped = isinstance(outcome, Skipped)
            witness = None if skipped else outcome
            ok = ok and witness is None
            result = {"property": name, "ic": lattice.to_json(ic),
                      "status": "skipped" if skipped else "pass" if witness is None else "fail",
                      "pass": witness is None, "witness": witness}
            if skipped:
                result["reason"] = outcome.reason
            results.append(result)
    return {"pass": ok, "results": results}
