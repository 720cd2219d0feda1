"""Grove representation, verification, and enumeration.

A grove is stored as an int mask: bit t is set when it uses the long edge of
the t-th rhombus of the minimal window, in sorted order; every other rhombus
contributes its short edge.  The groves of an ideal are fixed by any cutoff
window (Carroll-Speyer), so no grove has a long edge beyond the minimal one,
and both enumerations refuse one they find there (_check_within).  That
finite choice determines the whole infinite subgraph, and the associated
monomial (product of long-edge variables times x**(degree-2) over all
vertices) determines the grove in turn.  The rhombi are decoded only on
request.

Verification works on the finite window of radius N: the window has
3*C(N+3,2)+1 vertices and 3*C(N+2,2) rhombi, each contributing exactly one
edge, and a choice of edges extends to a grove exactly when the resulting
graph is a forest whose components pair up one-to-one with the 3N+7 boundary
classes.  What all groves of one ideal share at one radius is built once
(_window): int tables indexed by bit, which every per-grove view reads the
mask through.  Each bit's long and short edge are pairs of window-point
indices, behind acyclicity, connectivity, simplified groves and pictures.
A long edge in place of a short one changes the degrees by fixed amounts,
so the base grove's degrees packed one byte per point, plus the packed
changes of the set bits (summed eight bits at a time from subset tables),
give a grove's degree table as one int (Knuth, TAOCP 4A 7.1.3).  Axis counts
are popcounts.  The same holds for the monomial: it is the base grove's times
a fixed step per set bit, held in one form only, as packed LaurentPoly keys
that mask_sum adds; monomial_of is the single term of mask_sum over one
mask, and coeffone_sums sums its x-exponents.  The tests check the monomial
against a degree count read from the rhombi themselves and against the edge
variables of the decoded long edges, neither of which reads the key tables.

The coefficient-one law is linear in the mask, so it is checked once per
window, not per grove (_Window.quadrant_fault).  Half of it is an identity of
the coordinates: a long edge changes only the quadrant sums of the rhombi
that carry its edge variable.  What the ideal decides is the rest: the base
grove's quadrant sums, and that no two window rhombi carry one variable.
The injectivity of simplified groves needs no check at all: an even edge
fixes its rhombus, so the even edges are distinct, and _Window.even_tables
maps them back to positions.

Enumeration comes in two independent flavours:

* enumerate_local_moves builds all groves constructively.  Walking the
  reversed peel sequence, restoring a point u splits/merges groves through
  the three rhombi at u: a grove using all three short edges there (degree 3)
  yields three successors, one long edge (degree 2) yields one successor with
  the long edge reattached on the same axis below, and the three two-long
  configurations (degree 1) collapse to the single all-short successor.  The
  sum of grove monomials then transforms exactly like the recurrence
  substitution, which is what ties the enumeration to the polynomial.  A
  mask bit stands for an edge variable, at the position of the rhombus that
  carries it in ic.  A long edge that moves down its axis keeps its
  variable, so a degree-2 mask stays as it is, and each step edits one set
  in place: it takes out the masks of degree 3 or 1 at u (one AND and a set
  lookup per mask), and puts in their successors.  The final masks are the
  groves, which count_local_moves only counts.

* enumerate_bruteforce searches every long/short choice over the window
  rhombi and keeps those passing the connectivity check; it exists purely as
  an oracle for the constructive enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import comb
from operator import or_
from typing import Collection, Iterable

from .laurent import (
    TAG_A,
    TAG_B,
    TAG_C,
    TAG_X,
    LaurentPoly,
    Monomial,
    var_name,
    xvar,
)
from .lattice import (
    _AXIS,
    _UNIT,
    AXES,
    CutoffNotOdd,
    InitialConditions,
    NoSuchRhombus,
    Point3,
    Rhombus,
    _sub,
    as_point,
    standard,
)


class CorrespondenceMismatch(RuntimeError):
    """A local configuration outside the case table; impossible for groves."""


class RoundTripMismatch(ValueError):
    """The monomial does not round-trip through a grove."""


class TooLarge(RuntimeError):
    pass


def _check_contained(ic: InitialConditions, rhombi: Collection[Rhombus]) -> None:
    """ValueError unless every rhombus is contained in ic."""
    for r in rhombi:
        if not ic.contains_rhombus(r):
            raise ValueError(f"rhombus {r} is not contained in the initial conditions")


class Grove:
    """A grove of ic as the mask of its long edges in the minimal window.

    Grove(ic, long_edges) raises ValueError for a rhombus outside that window.
    The hash leaves out the ideal, which one set seldom mixes.  Never mutate.
    """

    __slots__ = ("ic", "mask", "__dict__")

    def __init__(self, ic: InitialConditions, long_edges: Collection[Rhombus]):
        pos, longs = _window(ic, ic.min_cutoff).pos, set(long_edges)
        for r in longs:
            if r not in pos:
                _check_contained(ic, [r])
                raise ValueError(f"rhombus {r} lies beyond the minimal window")
        self.ic, self.mask = ic, sum(1 << pos[r] for r in longs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grove):
            return NotImplemented
        return self.mask == other.mask and (self.ic is other.ic or self.ic == other.ic)

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Grove({self.ic!r}, {self.sorted_long_edges()!r})"

    @cached_property
    def long_edges(self) -> frozenset:
        """The rhombi whose long edge the grove uses, decoded from the mask."""
        return frozenset(self.sorted_long_edges())

    def sorted_long_edges(self) -> list[Rhombus]:
        return _at_bits(_min_window(self).rhombi, self.mask)

    @cached_property
    def _monomial(self) -> Monomial:
        """The single term of mask_sum over the grove's mask."""
        return mask_sum(_min_window(self), [self.mask]).terms()[0]


def _grove(ic: InitialConditions, mask: int) -> Grove:
    """The grove of a mask already in the window's bit order; nothing is checked."""
    g = object.__new__(Grove)
    g.ic, g.mask = ic, mask
    return g


def _at_bits(seq, mask: int) -> list:
    """seq[t] for each set bit t of mask, lowest bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(seq[low.bit_length() - 1])
        mask ^= low
    return out


@dataclass(frozen=True)
class GroveStats:
    n_a: int
    n_b: int
    n_c: int
    degree: dict = field(hash=False)  # initial points with degree != 2 only


@dataclass(frozen=True)
class SimplifiedGrove:
    ic: InitialConditions
    N: int
    edges: frozenset  # unordered pairs of even vertices, stored sorted


@dataclass(frozen=True)
class GroveViolation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def base_grove(ic: InitialConditions) -> Grove:
    return Grove(ic, frozenset())


def boundary_classes(N: int) -> list[tuple[Point3, ...]]:
    """The 3N+7 vertex classes that index window components, sorted."""
    classes: list[tuple[Point3, ...]] = []
    for s in (-N - 1, -N - 2):
        for p in range(-1, s // 2, -1):  # p > q
            q = s - p
            classes += [((0, p, q), (p, 0, q)), ((p, q, 0), (0, q, p)), ((q, p, 0), (q, 0, p))]
        if s % 2 == 0:
            h = s // 2
            classes.append(((0, h, h), (h, 0, h), (h, h, 0)))
        classes += [((0, 0, s),), ((0, s, 0),), ((s, 0, 0),)]
    if len(classes) != 3 * N + 7:
        raise RuntimeError(f"{len(classes)} boundary classes, expected {3 * N + 7}")
    return sorted(classes)


class FieldOverflow(ValueError):
    """A value does not fit the packed field that holds it."""


def _pack(values: Iterable[int], width: int, lo: int, hi: int) -> int:
    """The sum of values[i] << width*i; FieldOverflow unless lo <= every value < hi."""
    total = 0
    for i, v in enumerate(values):
        if not lo <= v < hi:
            raise FieldOverflow(f"{v} in field {i} lies outside [{lo}, {hi})")
        total += v << width * i
    return total


def _subset_sums(values: list, zero=0) -> list[list]:
    """For each run of eight positions, the sum of values over every subset, indexed by its bits.

    The values may be ints, or tuples summed by concatenation from zero=().
    """
    tables = []
    for start in range(0, len(values), 8):
        table = [zero]
        for v in values[start:start + 8]:
            table += [x + v for x in table]
        tables.append(table)
    return tables


def _sum_at(tables: list[list], mask: int, total=0):
    """total plus the _subset_sums values at the set bits of mask; a list total grows in place."""
    for table in tables:
        total += table[mask & 255]
        mask >>= 8
    return total


def _union(size: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Union-find over index pairs: the parent list, and how many pairs joined two components.

    The pairs close a cycle exactly when fewer of them join than there are.
    """
    parent = list(range(size))
    merges = 0
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            merges += 1
    return parent, merges


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


# Degree fields are bytes.  A vertex lies on at most 12 rhombi (top, bottom or
# a middle vertex of four per axis), each giving it at most one edge, so a
# degree is 0..12; the build checks that no mask can leave 0..127, which keeps
# bit 7 of each field free for the range test of _Window.degrees_within.
_DEGREE_BITS = 8
_DEGREE_LIMIT = 1 << _DEGREE_BITS - 1


class _Window:
    """What every grove of one ideal shares at radius N, built once; never mutate.

    Position t stands for rhombi[t].  The minimal window's rhombi come first,
    in sorted order, so positions below `bits` are the bits of a grove's mask,
    and a grove's mask is its set of positions in every window; the rest of
    this window's rhombi follow, sorted.  Only points, rhombi and bits are
    built with the window, which is all the local-move walk reads.  Every
    other table is built on its first read: the point index, the positions,
    the boundary classes, and the tables indexed by position that hold
    window-point indices, through which every view of a grove reads its mask.
    """

    def __init__(self, ic: InitialConditions, N: int):
        self.ic, self.N = ic, N
        self.points = ic.points_in_J(N)  # sorted; point i has index i
        own = ic.rhombi_in_J(N)
        if N == ic.min_cutoff:
            self.rhombi, self.bits = own, len(own)
        else:
            inner = _window(ic, ic.min_cutoff).rhombi
            known = set(inner)
            self.rhombi = inner + tuple(r for r in own if r not in known)
            self.bits = len(inner)

    @cached_property
    def index(self) -> dict[Point3, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def pos(self) -> dict[Rhombus, int]:
        return {r: t for t, r in enumerate(self.rhombi)}

    @cached_property
    def long_ends(self) -> list[tuple[int, int]]:
        index = self.index
        return [(index[a], index[b]) for a, b in map(Rhombus.long_edge, self.rhombi)]

    @cached_property
    def short_ends(self) -> list[tuple[int, int]]:
        index = self.index
        return [(index[a], index[b]) for a, b in map(Rhombus.short_edge, self.rhombi)]

    @cached_property
    def classes(self) -> list[tuple[Point3, ...]]:
        return boundary_classes(self.N)

    def edges(self, m: int) -> list[tuple[int, int]]:
        """The edge used on each window rhombus, by position: the long one where m has a bit."""
        ends, longs = self.short_ends.copy(), self.long_ends
        while m:
            low = m & -m
            t = low.bit_length() - 1
            ends[t] = longs[t]
            m ^= low
        return ends

    def forest(self, m: int) -> bool:
        """Whether the edges at positions m close no cycle in the window."""
        ends = self.edges(m)
        return _union(len(self.points), ends)[1] == len(ends)

    @cached_property
    def axis_masks(self) -> dict[str, int]:
        """The bits of each axis's rhombi."""
        return {a: sum(1 << t for t, r in enumerate(self.rhombi[:self.bits]) if r.axis == a)
                for a in AXES}

    def axis_counts(self, mask: int) -> tuple[int, int, int]:
        """How many long edges the grove with this mask has on each axis, as popcounts."""
        masks = self.axis_masks
        return tuple((mask & masks[a]).bit_count() for a in AXES)

    @cached_property
    def base_degrees(self) -> list[int]:
        """Each window point's degree in the base grove, which uses every short edge.

        At the window points that covers the forced short edges below the
        window too, which meet it only at their tops.
        """
        degrees = [0] * len(self.points)
        for a, b in self.short_ends:
            degrees[a] += 1
            degrees[b] += 1
        for r in self.ic.rhombi_touching_J(self.N):
            if sum(r.top) < -self.N:
                degrees[self.index[r.top]] += 1
        return degrees

    @cached_property
    def base_key(self) -> int:
        """The base grove's monomial, x(p)**(degree-2) over the window points, as a key."""
        pairs = zip(self.points, self.base_degrees)
        return LaurentPoly._key((xvar(*p), d - 2) for p, d in pairs if d != 2)

    @cached_property
    def step_keys(self) -> list[int]:
        """The key of what the long edge at each position multiplies the base monomial by."""
        x = [xvar(*p) for p in self.points]
        return [LaurentPoly._key(((r.variable(), 1), (x[a], 1), (x[b], 1), (x[c], -1), (x[d], -1)))
                for r, (a, b), (c, d) in zip(self.rhombi, self.long_ends, self.short_ends)]

    @cached_property
    def degree_tables(self) -> tuple[int, list[list[int]]]:
        """The base degrees packed one byte per point, and the bits' degree changes as subset sums.

        A long edge in place of the short one adds 1 at the long edge's ends
        and takes 1 from the short edge's.
        """
        base, n = self.base_degrees, self.bits
        lo, hi = base.copy(), base.copy()
        steps = []
        for (a, b), (c, d) in zip(self.long_ends[:n], self.short_ends[:n]):
            hi[a] += 1
            hi[b] += 1
            lo[c] -= 1
            lo[d] -= 1
            steps.append((1 << _DEGREE_BITS * a) + (1 << _DEGREE_BITS * b)
                         - (1 << _DEGREE_BITS * c) - (1 << _DEGREE_BITS * d))
        for bound in (lo, hi):  # what any set of bits can reach
            _pack(bound, _DEGREE_BITS, 0, _DEGREE_LIMIT)
        return _pack(base, _DEGREE_BITS, 0, _DEGREE_LIMIT), _subset_sums(steps)

    def degree_vector(self, mask: int) -> int:
        """The degrees of the grove with this mask, one byte per window point."""
        base, tables = self.degree_tables
        return base + _sum_at(tables, mask)

    def degree_bytes(self, mask: int) -> bytes:
        """The degrees of the grove with this mask, by window point."""
        return self.degree_vector(mask).to_bytes(len(self.points), "little")

    def degrees_within(self, degrees: int, lo: int, hi: int) -> bool:
        """Whether every byte of a degree_vector lies in lo..hi (0 <= lo <= hi < 128).

        Adding 128 - lo to a byte sets its bit 7 exactly when the byte is at
        least lo, and adding 127 - hi exactly when it exceeds hi (TAOCP 4A
        7.1.3); no byte carries, as each stays below 128 + 128.
        """
        ones = self.byte_ones
        high = ones * _DEGREE_LIMIT
        return ((degrees + (_DEGREE_LIMIT - lo) * ones) & high == high
                and (degrees + (_DEGREE_LIMIT - 1 - hi) * ones) & high == 0)

    @cached_property
    def byte_ones(self) -> int:
        return int.from_bytes(b"\x01" * len(self.points), "little")

    @cached_property
    def quadrant_fault(self) -> str | None:
        """Where the coefficient-one law fails for some set of long edges; None when it never does.

        The law: for each rhombus t of the minimal window, the sum of
        (degree - 2) over the window points strictly below t's top on its two
        long-edge coordinates x and y (coeffone_sums) is minus bit t.  The sum
        is linear in the mask, so the law holds for every mask exactly when
        the base grove's sums are all 0 and each bit u changes the sum at t by
        -[t = u].  The long edge at u adds 1 at its two ends and takes 1 from
        the short edge's.  When u's axis is not t's, the four ends project to
        the same two points on (x, y) and cancel.  On t's axis the change is
        -1 when u's top equals t's on x and y, that is, when u carries t's
        edge variable, and 0 otherwise.  So the change needs no check, and
        what the ideal decides is checked instead: the base sums, in position
        order, from per-axis prefix sums of degree - 2 over a grid of the
        window points, then that no two rhombi carry one edge variable.
        """
        rhombi, lo = self.rhombi[:self.bits], -self.N - 2
        size = 2 - lo  # grid index c - lo + 1 holds coordinate c; index 0 stays 0
        below = {}
        for axis in AXES:
            _, x, y = _AXIS[axis]
            grid = [[0] * size for _ in range(size)]
            for p, d in zip(self.points, self.base_degrees):
                grid[p[x] - lo + 1][p[y] - lo + 1] += d - 2
            for X in range(1, size):  # grid[X][Y]: the points with p[x] < X + lo, p[y] < Y + lo
                row, prev, run = grid[X], grid[X - 1], 0
                for Y in range(1, size):
                    run += row[Y]
                    row[Y] = run + prev[Y]
            below[axis] = grid
        for r in rhombi:
            _, x, y = _AXIS[r.axis]
            s = below[r.axis][r.top[x] - lo][r.top[y] - lo]
            if s:
                return f"quadrant sum {s} at {r} in the base grove, expected 0"
        seen: dict = {}
        for t, r in enumerate(rhombi):
            v = r.variable()
            u = seen.setdefault(v, t)
            if u != t:
                return f"rhombi {rhombi[u]} and {r} carry one edge variable {var_name(v)}"
        return None

    @cached_property
    def even_tables(self) -> tuple[int, list[tuple], dict[tuple, int], list[int]]:
        """What simplified groves read: flip, each position's even edge, its bit, the even points.

        Long edges join two points of sum s-1 and short edges the sums s and
        s-2, s the top's sum, so a rhombus's even edge is its long edge when s
        is odd.  A grove uses it exactly where its positions differ from flip,
        the positions with s even.  The even edges are pairwise distinct, as
        an edge fixes its rhombus: a short edge's ends differ in sum by 2,
        and the top is the higher one; a long edge's ends have one sum, and
        the top is their coordinatewise maximum; the axis is the coordinate
        on which the ends agree.  So the bit table inverts the edges, and
        from_simplified(to_simplified(g)) is g for every g.
        """
        flip, edges = 0, []
        points = self.points
        for t, (r, long, short) in enumerate(zip(self.rhombi, self.long_ends, self.short_ends)):
            even_top = sum(r.top) % 2 == 0
            flip |= even_top << t
            a, b = short if even_top else long
            edges.append((points[a], points[b]))
        even = [i for i, p in enumerate(points) if sum(p) % 2 == 0]
        return flip, edges, {e: 1 << t for t, e in enumerate(edges)}, even

    @cached_property
    def even_pair_tables(self) -> list[list[tuple]]:
        """even_tables' edges as window-index pairs, in _subset_sums tables of eight positions."""
        index = self.index
        return _subset_sums([((index[a], index[b]),) for a, b in self.even_tables[1]], ())

    def even_components(self, mask: int) -> int:
        """How many components the even edges of the grove with this mask leave on the even points.

        Its even edges are the index pairs at the positions where mask
        differs from flip, and each pair that joins two components takes one
        away from the even points' count (to_simplified and
        simplified_components count the same from point pairs).
        """
        flip, _, _, even = self.even_tables
        pairs = _sum_at(self.even_pair_tables, mask ^ flip, [])
        return len(even) - _union(len(self.points), pairs)[1]


def _window(ic: InitialConditions, N: int) -> _Window:
    """The radius-N window of ic, built once per (ic, N); NotACutoff unless N is one."""
    return ic.memo(("window", N), lambda: _Window(ic, N))


def _min_window(g: Grove) -> _Window:
    return _window(g.ic, g.ic.min_cutoff)


def check_grove(g: Grove, N: int | None = None) -> GroveViolation | None:
    """Verify connectivity within radius N; None means valid."""
    ic = g.ic
    N = ic.min_cutoff if N is None else N
    window = _window(ic, N)
    parent, _ = _union(len(window.points), window.edges(g.mask))
    index = window.index
    owner: dict[int, tuple] = {}
    for cls in window.classes:
        roots = {_root(parent, index[p]) for p in cls}
        if len(roots) > 1:
            return GroveViolation("class-split", f"class {cls} spans several components")
        root = roots.pop()
        if root in owner:
            shared = f"classes {owner[root]} and {cls} share a component"
            return GroveViolation("class-shared", shared)
        owner[root] = cls
    components = sum(parent[t] == t for t in range(len(parent)))
    if components != 3 * N + 7:
        return GroveViolation("component-count", f"{components} components, expected {3 * N + 7}")
    return None


def is_acyclic(g: Grove) -> bool:
    """Cycle detection on the minimal window graph; the forced chains outside are paths."""
    return _min_window(g).forest(g.mask)


def grove_degrees(g: Grove) -> dict[Point3, int]:
    """Vertex degrees on the minimal window; every vertex beyond it has degree 2."""
    window = _min_window(g)
    return dict(zip(window.points, window.degree_bytes(g.mask)))


def stats(g: Grove) -> GroveStats:
    window = _min_window(g)
    degree = {p: d for p, d in zip(window.points, window.degree_bytes(g.mask)) if d != 2}
    return GroveStats(*window.axis_counts(g.mask), degree=degree)


def monomial_of(g: Grove) -> Monomial:
    """The grove monomial: long-edge variables times x**(degree-2)."""
    return g._monomial


def grove_from_monomial(ic: InitialConditions, m: Monomial) -> Grove:
    """Invert monomial_of; the round trip is always re-checked."""
    if m.coeff != 1:
        raise RoundTripMismatch(f"grove monomials have coefficient 1, got {m.coeff}")
    pos, mask = _window(ic, ic.min_cutoff).pos, 0
    for v, e in m.exps:
        if v[0] in (TAG_A, TAG_B, TAG_C):
            if e != 1:
                raise RoundTripMismatch(f"edge variable {v} has exponent {e}")
            try:
                r = ic.variable_rhombus(v)
            except NoSuchRhombus as exc:
                raise RoundTripMismatch(str(exc)) from exc
            if r not in pos:
                raise RoundTripMismatch(f"edge variable {v} lies on {r}, beyond the minimal window")
            mask |= 1 << pos[r]
    g = _grove(ic, mask)
    if monomial_of(g) != m:
        raise RoundTripMismatch(f"{m} does not come from a grove")
    return g


def mask_sum(window: _Window, masks: Iterable[int]) -> LaurentPoly:
    """Sum of the monomials of the groves with these masks, window the minimal one.

    It adds up packed keys: the base key plus the set bits' step keys.
    """
    base, steps = window.base_key, window.step_keys
    return LaurentPoly._from_keys(dict(Counter(base + sum(_at_bits(steps, m)) for m in masks)))


def grove_sum(groves: Iterable[Grove]) -> LaurentPoly:
    """Sum of grove monomials: mask_sum over each ideal's masks."""
    masks: dict[InitialConditions, list[int]] = {}
    for g in groves:
        masks.setdefault(g.ic, []).append(g.mask)
    return sum((mask_sum(_window(ic, ic.min_cutoff), ms) for ic, ms in masks.items()),
               LaurentPoly.zero())


def coeffone_sums(g: Grove, r: Rhombus) -> int:
    """Sum of (degree-2) over the quadrant strictly below r's two long-edge axes.

    Equals -1 exactly when the long edge of r appears in the grove, else 0.
    """
    _, x, y = _AXIS[r.axis]
    tx, ty = r.top[x], r.top[y]
    # The key of x(p) is (TAG_X, *p); read in place, as this runs per (grove, rhombus).
    return sum(e for v, e in g._monomial.exps
               if v[0] == TAG_X and v[1 + x] < tx and v[1 + y] < ty)


def _check_within(ic: InitialConditions, rhombi, bits: int, masks: Iterable[int]) -> None:
    """Where the masks set positions of rhombi past bits: ValueError for a rhombus
    not contained in ic, else CorrespondenceMismatch, as no grove reaches there."""
    beyond = _at_bits(rhombi, reduce(or_, masks, 0) >> bits << bits)
    _check_contained(ic, beyond)
    if beyond:
        raise CorrespondenceMismatch(f"long edges {beyond} lie beyond the minimal window")


def _local_move_masks(ic: InitialConditions) -> set[int]:
    """Every grove's mask (Grove.mask), by local moves over edge-variable bits.

    Bit t stands for the edge variable of rhombi[t], which is the rhombus
    that carries it in ic.  A variable first met beyond the minimal window
    gets a bit past the window's, standing for the lowest rhombus met for
    it, and _check_within refuses the masks if any sets one.
    """
    window = _window(ic, ic.min_cutoff)
    rhombi = list(window.rhombi)
    bits = {r.variable(): 1 << t for t, r in enumerate(rhombi)}
    known = len(rhombi)

    def bit(axis: str, u: Point3) -> int:
        # Rhombus(axis, u) and the one below it on the axis's free coordinate
        # carry the same variable; the walk meets the lower ones later.
        t, x, y = _AXIS[axis]
        v = (TAG_A + t, u[x], u[y])
        b = bits.get(v)
        if b is None:
            b = bits[v] = 1 << len(rhombi)
            rhombi.append(None)
        if b >> known:
            rhombi[b.bit_length() - 1] = Rhombus(axis, _sub(u, _UNIT[t]))
        return b

    masks = {0}
    for u in reversed(ic.peel_sequence()):
        # Restoring u moves each long edge at u one step down its axis's free
        # coordinate, which keeps its variable: only masks without exactly
        # one long edge at u change.
        a, b, c = bit("a", u), bit("b", u), bit("c", u)
        old, one = a | b | c, {a, b, c}
        changed = [m for m in masks if m & old not in one]
        masks.difference_update(changed)
        for m in changed:
            o = m & old
            if not o:
                masks.update((m | b | c, m | a | c, m | a | b))
            elif o == old:
                raise CorrespondenceMismatch(f"all three long edges present at {u}")
            else:
                masks.add(m ^ o)
    _check_within(ic, rhombi, window.bits, masks)
    return masks


def enumerate_local_moves(ic: InitialConditions) -> set[Grove]:
    """All groves, built by local moves along the reversed peel sequence.

    Each Grove is made in place, as _grove makes it, with no call per grove.
    """
    out, new = set(), object.__new__
    for m in _local_move_masks(ic):
        g = new(Grove)
        g.ic = ic
        g.mask = m
        out.add(g)
    return out


def count_local_moves(ic: InitialConditions) -> int:
    """len(enumerate_local_moves(ic)), counted as masks without building a Grove."""
    return len(_local_move_masks(ic))


def enumerate_bruteforce(
    ic: InitialConditions, N: int | None = None, cap: int = 18
) -> set[Grove]:
    """Oracle enumeration: depth-first search over all long/short choices.

    Every rhombus of the window contributes one edge either way, so a valid
    choice is exactly a forest in which no two boundary classes meet and every
    class stays connected.  Both conditions prune the search.  Like local
    moves, it refuses a grove with a long edge beyond the minimal window.
    A window of more than cap rhombi raises TooLarge; a negative cap,
    ValueError.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, not {cap}")
    N = ic.min_cutoff if N is None else N
    window = _window(ic, N)
    index, classes = window.index, window.classes
    if len(window.rhombi) > cap:
        raise TooLarge(f"{len(window.rhombi)} free rhombi exceed cap {cap}")

    comp_class = [-1] * len(index)  # class owned by each root's component, -1 if none
    for ci, cls in enumerate(classes):
        for p in cls:
            comp_class[index[p]] = ci

    edges = [  # in sorted rhombus order
        (1 << t, window.long_ends[t], window.short_ends[t]) for _, t in sorted(window.pos.items())
    ]

    parent = list(range(len(index)))  # no ranks or path compression: a link is undone in place
    found: list[int] = []

    def rec(t: int, mask: int) -> None:
        if t == len(edges):
            # Forest with compatible merges; classes must each be whole.
            for cls in classes:
                if len({_root(parent, index[p]) for p in cls}) > 1:
                    return
            found.append(mask)
            return
        bit, long, short = edges[t]
        for (u, v), m in ((short, mask), (long, mask | bit)):
            ru, rv = _root(parent, u), _root(parent, v)
            cu, cv = comp_class[ru], comp_class[rv]
            if ru == rv or (cu >= 0 and cv >= 0 and cu != cv):
                continue  # a cycle, or two boundary classes merged: never a grove again
            parent[rv] = ru
            comp_class[ru] = cu if cu >= 0 else cv
            rec(t + 1, m)
            parent[rv] = rv
            comp_class[ru] = cu

    rec(0, 0)
    _check_within(ic, window.rhombi, window.bits, found)
    return {_grove(ic, mask) for mask in found}


def to_simplified(g: Grove, N: int | None = None) -> SimplifiedGrove:
    """The induced subgraph on even vertices within radius N (N odd)."""
    ic = g.ic
    N = ic.min_odd_cutoff if N is None else N
    if N % 2 == 0:
        raise CutoffNotOdd(str(N))
    window = _window(ic, N)
    flip, even_edges, _, _ = window.even_tables
    edges = frozenset(_at_bits(even_edges, g.mask ^ flip))
    return SimplifiedGrove(ic=ic, N=N, edges=edges)


def from_simplified(s: SimplifiedGrove) -> Grove:
    """Reconstruct the unique grove inducing a simplified grove.

    ValueError for an edge that is not an even edge of the window, for a
    long edge it calls for beyond the minimal window, and for an edge set
    that no grove induces: the result must pass check_grove.  It gives back
    s.edges through to_simplified, as the even edges are pairwise distinct
    (_Window.even_tables), so the mask holds exactly their bits.
    """
    ic = s.ic
    if s.N % 2 == 0:
        raise CutoffNotOdd(str(s.N))
    window = _window(ic, s.N)
    flip, _, even_bit, _ = window.even_tables
    m = flip
    for e in s.edges:
        if e not in even_bit:
            raise ValueError(f"edge {e} is not an even edge of the radius-{s.N} window")
        m ^= even_bit[e]
    g = Grove(ic, _at_bits(window.rhombi, m))
    violation = check_grove(g)
    if violation is not None:
        raise ValueError(f"no grove induces these even edges ({violation})")
    return g


def simplified_components(s: SimplifiedGrove) -> int:
    """Components over the even window vertices; the window reaches sum -N-2, odd for odd N."""
    window = _window(s.ic, s.N)
    index = window.index
    parent, _ = _union(len(index), ((index[u], index[v]) for u, v in s.edges))
    return len({_root(parent, t) for t in window.even_tables[3]})


def asm_triangle(g: Grove) -> list[list[int]]:
    """The triangular array of exponents (degree-2) on the deepest full layer.

    Only defined over the standard order-n initial conditions; entries always
    lie in {-1, 0, 1} because each layer point belongs to exactly three rhombi.
    """
    n = g.ic.min_cutoff + 1
    if g.ic != standard(n):
        raise ValueError("alternating-sign triangles require standard initial conditions")
    degrees = grove_degrees(g)
    # Row r is the points (-r, j, 1-n+r-j) of the layer, j = 0, -1, ..., r-n+1.
    return [[degrees.get((-r, j, 1 - n + r - j), 2) - 2 for j in range(0, r - n, -1)]
            for r in range(n)]


def window_point_count(N: int) -> int:
    return 3 * comb(N + 3, 2) + 1


def window_rhombus_count(N: int) -> int:
    return 3 * comb(N + 2, 2)


_FLIP = str.maketrans("01", "10")


def grove_order(mask: int) -> str:
    """A key that orders masks as the lists of their set bits, lowest first: enumerate's order.

    Bit 0 up to the highest set bit, "0" for a set bit and "1" for a clear
    one.  At the first difference the list with the lesser bit has "0"; a
    list that extends another has a key that extends the other's.  This is
    the order of the groves' sorted long-edge lists.
    """
    return bin(mask)[:1:-1].translate(_FLIP) if mask else ""


def long_edge_list(ic: InitialConditions, mask: int) -> list[list]:
    """Each long edge of mask as [axis, i, j, k], lowest bit first: a grove line's long_edges."""
    return [[r.axis, *r.top] for r in _at_bits(_window(ic, ic.min_cutoff).rhombi, mask)]


def grove_to_json(g: Grove) -> dict:
    st = stats(g)
    return {
        "long_edges": long_edge_list(g.ic, g.mask),
        "n": [st.n_a, st.n_b, st.n_c],
        "degrees": {"(%d,%d,%d)" % p: d for p, d in sorted(st.degree.items())},
    }


def grove_from_json(ic: InitialConditions, obj: dict) -> Grove:
    """Parse grove_to_json output; ValueError on a malformed or foreign edge."""
    edges = obj.get("long_edges") if isinstance(obj, dict) else None
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and e and e[0] in AXES for e in edges
    ):
        raise ValueError(f"long_edges must be a list of [axis, i, j, k]: {obj!r}")
    return Grove(ic, frozenset(Rhombus(e[0], as_point(e[1:])) for e in edges))
