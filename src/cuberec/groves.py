"""Grove representation, verification, and enumeration.

A grove is stored as an int mask: bit t is set when it uses the long edge of
the t-th rhombus of the minimal window, in sorted order; every other rhombus
contributes its short edge, and long edges beyond the window (only a
hand-built grove has them) sit in a frozenset beside the mask.  That finite
choice determines the whole infinite subgraph, and the associated monomial
(product of long-edge variables times x**(degree-2) over all vertices)
determines the grove in turn.  The rhombi are decoded only on request.

Verification works on the finite window of radius N: the window has
3*C(N+3,2)+1 vertices and 3*C(N+2,2) rhombi, each contributing exactly one
edge (the one rule _window_edges, behind every view of the window), and a
choice of edges extends to a grove exactly when the resulting graph is a
forest whose components pair up one-to-one with the 3N+7 boundary classes.
What all groves of one ideal share at one radius is built once (_window).
A long edge in place of a short one multiplies the monomial by a fixed step,
so a grove's monomial is the base grove's times the steps of its set bits.

Enumeration comes in two independent flavours:

* enumerate_local_moves builds all groves constructively.  Walking the
  reversed peel sequence, restoring a point u splits/merges groves through
  the three rhombi at u: a grove using all three short edges there (degree 3)
  yields three successors, one long edge (degree 2) yields one successor with
  the long edge reattached on the same axis below, and the three two-long
  configurations (degree 1) collapse to the single all-short successor.  The
  sum of grove monomials then transforms exactly like the recurrence
  substitution, which is what ties the enumeration to the polynomial.  Each
  step is a table lookup and two bit operations per mask, and the final
  masks are the groves, which count_local_moves only counts.

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
from typing import Collection, Iterable, Iterator, NamedTuple

from .laurent import (
    TAG_A,
    TAG_B,
    TAG_C,
    TAG_X,
    LaurentPoly,
    Monomial,
    exps_from_items,
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
    """ValueError unless every rhombus, one beyond the minimal window, is contained in ic."""
    for r in rhombi:
        if not ic.contains_rhombus(r):
            raise ValueError(f"rhombus {r} is not contained in the initial conditions")


class _DisjointSet:
    """Array union-find with union by rank; optional operation log for undo."""

    __slots__ = ("parent", "rank", "log")

    def __init__(self, n: int, keep_log: bool = False):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.log = [] if keep_log else None

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        bumped = self.rank[rx] == self.rank[ry]
        self.rank[rx] += bumped
        if self.log is not None:
            self.log.append((ry, rx, bumped))
        return True

    def undo(self) -> None:
        ry, rx, bumped = self.log.pop()
        self.parent[ry] = ry
        self.rank[rx] -= bumped


class Grove:
    """A grove of ic as the mask of its long edges in the minimal window, and those outside.

    Grove(ic, long_edges) raises ValueError for a rhombus not contained in ic.
    The hash leaves out the ideal, which one set seldom mixes.  Never mutate.
    """

    __slots__ = ("ic", "mask", "outside", "__dict__")

    def __init__(self, ic: InitialConditions, long_edges: Collection[Rhombus]):
        edges = _window(ic, ic.min_cutoff).edges
        longs = set(long_edges)
        outside = frozenset(r for r in longs if r not in edges)
        _check_contained(ic, outside)
        self.ic, self.mask, self.outside = ic, sum(edges[r][2] for r in longs - outside), outside

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grove):
            return NotImplemented
        return self.mask == other.mask and self.outside == other.outside and self.ic == other.ic

    def __hash__(self) -> int:
        return hash((self.mask, self.outside))

    def __repr__(self) -> str:
        return f"Grove({self.ic!r}, {self.sorted_long_edges()!r})"

    @cached_property
    def long_edges(self) -> frozenset:
        """The rhombi whose long edge the grove uses, decoded from the mask."""
        return frozenset(self.sorted_long_edges())

    def sorted_long_edges(self) -> list[Rhombus]:
        longs = _at_bits(_window(self.ic, self.ic.min_cutoff).rhombi, self.mask)
        return sorted(longs + [*self.outside]) if self.outside else longs

    @cached_property
    def _monomial(self) -> Monomial:
        """The base monomial times each set bit's step, and each variable beyond the window."""
        window = _window(self.ic, self.ic.min_cutoff)
        items = [*window.base.exps, *((r.variable(), 1) for r in self.outside)]
        for step in _at_bits(window.steps, self.mask):
            items += step
        return Monomial(1, exps_from_items(items))


def _grove(ic: InitialConditions, mask: int, outside: frozenset = frozenset()) -> Grove:
    """The grove of a mask already in the window's bit order; nothing is checked."""
    g = object.__new__(Grove)
    g.ic, g.mask, g.outside = ic, mask, outside
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


class _Window(NamedTuple):
    """What every grove of one ideal shares at radius N; never mutate.

    The fields from rhombi on are the minimal window's; bit 0 marks a rhombus beyond it.
    """

    index: dict[Point3, int]  # the window points, sorted, to 0..n-1
    edges: dict[Rhombus, tuple[tuple, tuple, int]]  # (long, short, bit) of each, sorted
    classes: list[tuple[Point3, ...]]
    rhombi: tuple[Rhombus, ...]  # bit t stands for rhombi[t]
    base: Monomial  # the base grove's, which uses every short edge
    steps: list[tuple]  # what bit t's long edge multiplies it by
    base_key: int  # base and steps packed as LaurentPoly keys
    step_keys: list[int]
    axis_masks: dict[str, int]  # the bits of each axis's rhombi


def _window(ic: InitialConditions, N: int) -> _Window:
    """The radius-N window of ic, built once per (ic, N); NotACutoff unless N is one."""

    def build():
        points = ic.points_in_J(N)
        index = {p: t for t, p in enumerate(points)}
        minimal = _window(ic, ic.min_cutoff) if N != ic.min_cutoff else None
        rhombi = minimal.rhombi if minimal else ic.rhombi_in_J(N)
        bit = {r: 1 << t for t, r in enumerate(rhombi)}.get
        edges = {r: (r.long_edge(), r.short_edge(), bit(r, 0)) for r in ic.rhombi_in_J(N)}
        if minimal:
            return minimal._replace(index=index, edges=edges, classes=boundary_classes(N))
        # Every short edge adds 1 at its ends; at the window points that covers
        # the forced short edges below it, which meet it only at their tops.
        degrees = Counter(p for r in ic.rhombi_touching_J(N) for p in r.short_edge())
        x = {p: xvar(*p) for p in points}
        base = Monomial(1, tuple((x[p], degrees[p] - 2) for p in points if degrees[p] != 2))
        steps = [
            ((r.variable(), 1), *((x[p], 1) for p in long), *((x[p], -1) for p in short))
            for r, (long, short, _) in edges.items()
        ]
        axis_masks = {a: sum(1 << t for t, r in enumerate(rhombi) if r.axis == a) for a in AXES}
        key = LaurentPoly._key
        return _Window(index, edges, boundary_classes(N), rhombi, base, steps,
                       key(base.exps), [key(step) for step in steps], axis_masks)

    return ic.memo(("window", N), build)


def _window_edges(g: Grove, window: _Window) -> Iterator[tuple[int, tuple]]:
    """The edge g uses on each window rhombus, paired with a true value if it is the long one."""
    mask, outside = g.mask, g.outside
    for r, (long_edge, short_edge, bit) in window.edges.items():
        long = mask & bit if bit else r in outside
        yield long, long_edge if long else short_edge


def _window_forest(g: Grove, window: _Window):
    """Union g's window edges; the second value is False when a union closed a cycle."""
    index = window.index
    dsu = _DisjointSet(len(index))
    merged = sum(dsu.union(index[u], index[v]) for _, (u, v) in _window_edges(g, window))
    return dsu, merged == len(window.edges)


def check_grove(g: Grove, N: int | None = None) -> GroveViolation | None:
    """Verify compactness and connectivity within radius N; None means valid."""
    ic = g.ic
    N = ic.min_cutoff if N is None else N
    window = _window(ic, N)
    for r in g.outside:  # the minimal window's rhombi lie within every cutoff
        if sum(r.top) < -N:
            return GroveViolation("compactness", f"long edge of deep rhombus {r}")

    dsu, _ = _window_forest(g, window)
    index = window.index
    owner: dict[int, tuple] = {}
    for cls in window.classes:
        roots = {dsu.find(index[p]) for p in cls}
        if len(roots) > 1:
            return GroveViolation("class-split", f"class {cls} spans several components")
        root = roots.pop()
        if root in owner:
            shared = f"classes {owner[root]} and {cls} share a component"
            return GroveViolation("class-shared", shared)
        owner[root] = cls
    components = len({dsu.find(t) for t in range(len(index))})
    if components != 3 * N + 7:
        return GroveViolation("component-count", f"{components} components, expected {3 * N + 7}")
    return None


def is_acyclic(g: Grove) -> bool:
    """Cycle detection on the minimal window graph; the forced chains outside are paths."""
    return _window_forest(g, _window(g.ic, g.ic.min_cutoff))[1]


def _x_part(g: Grove) -> dict[Point3, int]:
    """Each window point's degree minus 2, where not 0, read off g's monomial."""
    return {v[1:]: e for v, e in g._monomial.exps if v[0] == TAG_X}


def grove_degrees(g: Grove) -> dict[Point3, int]:
    """Vertex degrees on the minimal window; every vertex beyond it has degree 2."""
    x = _x_part(g)
    return {p: 2 + x.get(p, 0) for p in _window(g.ic, g.ic.min_cutoff).index}


def stats(g: Grove) -> GroveStats:
    masks = _window(g.ic, g.ic.min_cutoff).axis_masks
    beyond = [r.axis for r in g.outside]
    counts = ((g.mask & masks[a]).bit_count() + beyond.count(a) for a in AXES)
    return GroveStats(*counts, degree={p: e + 2 for p, e in _x_part(g).items()})


def monomial_of(g: Grove) -> Monomial:
    """The grove monomial: long-edge variables times x**(degree-2)."""
    return g._monomial


def grove_from_monomial(ic: InitialConditions, m: Monomial) -> Grove:
    """Invert monomial_of; the round trip is always re-checked."""
    if m.coeff != 1:
        raise RoundTripMismatch(f"grove monomials have coefficient 1, got {m.coeff}")
    longs = []
    for v, e in m.exps:
        if v[0] in (TAG_A, TAG_B, TAG_C):
            if e != 1:
                raise RoundTripMismatch(f"edge variable {v} has exponent {e}")
            try:
                longs.append(ic.variable_rhombus(v))
            except NoSuchRhombus as exc:
                raise RoundTripMismatch(str(exc)) from exc
    g = Grove(ic, frozenset(longs))
    if monomial_of(g) != m:
        raise RoundTripMismatch(f"{m} does not come from a grove")
    return g


def grove_sum(groves: Iterable[Grove]) -> LaurentPoly:
    """Sum of grove monomials, added up as packed keys: the base key plus set bits' step keys."""
    keys = Counter()
    for g in groves:
        window = _window(g.ic, g.ic.min_cutoff)
        beyond = LaurentPoly._key((r.variable(), 1) for r in g.outside)
        keys[window.base_key + sum(_at_bits(window.step_keys, g.mask)) + beyond] += 1
    return LaurentPoly._from_keys(dict(keys))


def coeffone_sums(g: Grove, r: Rhombus) -> int:
    """Sum of (degree-2) over the quadrant strictly below r's two long-edge axes.

    Equals -1 exactly when the long edge of r appears in the grove, else 0.
    """
    _, x, y = _AXIS[r.axis]
    tx, ty = r.top[x], r.top[y]
    # The key of x(p) is (TAG_X, *p); read in place, as this runs per (grove, rhombus).
    return sum(e for v, e in g._monomial.exps
               if v[0] == TAG_X and v[1 + x] < tx and v[1 + y] < ty)


def quadrant_sums(g: Grove) -> dict[Rhombus, int]:
    """coeffone_sums(g, r) for every rhombus r of the minimal window, in bit order, in one pass.

    Per axis, the degree-2 excesses of g's monomial go into a grid over the
    window's two long-edge coordinates, -N-2..0, and a 2-D prefix sum over it
    answers every rhombus's quadrant at once.
    """
    window = _window(g.ic, g.ic.min_cutoff)
    x = _x_part(g)
    size = g.ic.min_cutoff + 3  # coordinate c sits in row/column c + size, from 1 to size
    below = {}
    for axis, (_, i, j) in _AXIS.items():
        grid = [[0] * (size + 1) for _ in range(size + 1)]
        for p, e in x.items():
            grid[p[i] + size][p[j] + size] += e
        for a in range(1, size + 1):  # grid[a][b]: the sum over rows <= a, columns <= b
            row, prev, run = grid[a], grid[a - 1], 0
            for b in range(1, size + 1):
                run += row[b]
                row[b] = run + prev[b]
        below[axis] = (grid, i, j)
    out = {}
    for r in window.edges:
        grid, i, j = below[r.axis]
        out[r] = grid[r.top[i] + size - 1][r.top[j] + size - 1]
    return out


def _local_move_masks(ic: InitialConditions) -> set[int]:
    """Every grove's mask (Grove.mask), by local moves.

    A rhombus beyond the minimal window gets a bit past the window's when it
    is first met.  Only those bits need a containment check, once, on the
    union of the masks; a contained rhombus there would break compactness.
    """
    rhombi = list(_window(ic, ic.min_cutoff).rhombi)
    n = len(rhombi)
    bits = {r: 1 << t for t, r in enumerate(rhombi)}

    def bit(r: Rhombus) -> int:
        b = bits.get(r)
        if b is None:
            b = bits[r] = 1 << len(rhombi)
            rhombi.append(r)
        return b

    masks = {0}
    for u in reversed(ic.peel_sequence()):
        # The rhombi at u and where each one's long edge moves: one step down
        # its axis's free coordinate, which keeps its edge variable.
        (ha, da), (hb, db), (hc, dc) = (
            (bit(Rhombus(axis, u)), bit(Rhombus(axis, _sub(u, _UNIT[t]))))
            for axis, (t, _, _) in _AXIS.items()
        )
        old = ha | hb | hc
        successors = {
            0: (db | dc, da | dc, da | db),
            ha: (da,), hb: (db,), hc: (dc,),
            ha | hb: (0,), ha | hc: (0,), hb | hc: (0,),
        }
        keep = ~old
        try:
            masks = {(m & keep) | d for m in masks for d in successors[m & old]}
        except KeyError:
            raise CorrespondenceMismatch(f"all three long edges present at {u}") from None
    beyond = _at_bits(rhombi, reduce(or_, masks) >> n << n)
    _check_contained(ic, beyond)
    if beyond:
        raise CorrespondenceMismatch(f"long edges {beyond} lie beyond the window")
    return masks


def enumerate_local_moves(ic: InitialConditions) -> set[Grove]:
    """All groves, built by local moves along the reversed peel sequence."""
    return {_grove(ic, m) for m in _local_move_masks(ic)}


def count_local_moves(ic: InitialConditions) -> int:
    """len(enumerate_local_moves(ic)), counted as masks without building a Grove."""
    return len(_local_move_masks(ic))


def enumerate_bruteforce(
    ic: InitialConditions, N: int | None = None, cap: int = 18
) -> set[Grove]:
    """Oracle enumeration: depth-first search over all long/short choices.

    Every rhombus of the window contributes one edge either way, so a valid
    choice is exactly a forest in which no two boundary classes meet and every
    class stays connected.  Both conditions prune the search.
    """
    N = ic.min_cutoff if N is None else N
    window = _window(ic, N)
    index, classes = window.index, window.classes
    if len(window.edges) > cap:
        raise TooLarge(f"{len(window.edges)} free rhombi exceed cap {cap}")

    comp_class = [-1] * len(index)  # class owned by each root's component, -1 if none
    for ci, cls in enumerate(classes):
        for p in cls:
            comp_class[index[p]] = ci

    edges = [
        (r, bit, (index[lu], index[lv]), (index[su], index[sv]))
        for r, ((lu, lv), (su, sv), bit) in window.edges.items()
    ]

    dsu = _DisjointSet(len(index), keep_log=True)
    found: list[tuple[int, tuple]] = []

    def attach(u: int, v: int) -> tuple | None:
        """Union u,v; return an undo token, or None when the move is illegal."""
        ru, rv = dsu.find(u), dsu.find(v)
        if ru == rv:
            return None  # would close a cycle: never a forest again
        cu, cv = comp_class[ru], comp_class[rv]
        if cu >= 0 and cv >= 0 and cu != cv:
            return None  # would merge two distinct boundary classes
        dsu.union(ru, rv)
        root = dsu.find(ru)
        old = comp_class[root]
        comp_class[root] = cu if cu >= 0 else cv
        return (root, old)

    def detach(token: tuple) -> None:
        root, old = token
        comp_class[root] = old
        dsu.undo()

    def rec(t: int, mask: int, beyond: tuple) -> None:  # beyond: long edges past the mask
        if t == len(edges):
            # Forest with compatible merges; classes must each be whole.
            for cls in classes:
                roots = {dsu.find(index[p]) for p in cls}
                if len(roots) > 1:
                    return
            found.append((mask, beyond))
            return
        r, bit, long, short = edges[t]
        for (u, v), m, b in ((short, mask, beyond),
                             (long, mask | bit, beyond if bit else (*beyond, r))):
            token = attach(u, v)
            if token is not None:
                rec(t + 1, m, b)
                detach(token)

    rec(0, 0, ())
    return {_grove(ic, mask, frozenset(beyond)) for mask, beyond in found}


def to_simplified(g: Grove, N: int | None = None) -> SimplifiedGrove:
    """The induced subgraph on even vertices within radius N (N odd)."""
    ic = g.ic
    N = ic.min_odd_cutoff if N is None else N
    if N % 2 == 0:
        raise CutoffNotOdd(str(N))
    # Both ends of an edge share the parity of their coordinate sum.
    edges = frozenset(e for _, e in _window_edges(g, _window(ic, N)) if sum(e[0]) % 2 == 0)
    return SimplifiedGrove(ic=ic, N=N, edges=edges)


def from_simplified(s: SimplifiedGrove) -> Grove:
    """Reconstruct the unique grove inducing a simplified grove."""
    ic = s.ic
    if s.N % 2 == 0:
        raise CutoffNotOdd(str(s.N))
    # Long edges join the two sum s-1 vertices, short edges the sums s and
    # s-2, so the even edge of r is its long edge exactly when s is odd.
    chosen = [(r, bit) for r, (long, short, bit) in _window(ic, s.N).edges.items()
              if (long in s.edges if sum(r.top) % 2 else short not in s.edges)]
    return _grove(ic, sum(b for _, b in chosen), frozenset(r for r, b in chosen if not b))


def simplified_components(s: SimplifiedGrove) -> int:
    """Components over the even window vertices; the window reaches sum -N-2, odd for odd N."""
    index = _window(s.ic, s.N).index
    dsu = _DisjointSet(len(index))
    for u, v in s.edges:
        dsu.union(index[u], index[v])
    return len({dsu.find(t) for p, t in index.items() if sum(p) % 2 == 0})


def asm_triangle(g: Grove) -> list[list[int]]:
    """The triangular array of exponents (degree-2) on the deepest full layer.

    Only defined over the standard order-n initial conditions; entries always
    lie in {-1, 0, 1} because each layer point belongs to exactly three rhombi.
    """
    n = g.ic.min_cutoff + 1
    if g.ic != standard(n):
        raise ValueError("alternating-sign triangles require standard initial conditions")
    x = _x_part(g)
    # Row r is the points (-r, j, 1-n+r-j) of the layer, j = 0, -1, ..., r-n+1.
    return [[x.get((-r, j, 1 - n + r - j), 0) for j in range(0, r - n, -1)] for r in range(n)]


def window_point_count(N: int) -> int:
    return 3 * comb(N + 3, 2) + 1


def window_rhombus_count(N: int) -> int:
    return 3 * comb(N + 2, 2)


def grove_to_json(g: Grove) -> dict:
    st = stats(g)
    return {
        "long_edges": [[r.axis, *r.top] for r in g.sorted_long_edges()],
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
