"""Grove representation, verification, and enumeration.

A grove is stored as the set of rhombi whose long edge it uses; every other
rhombus of the initial conditions contributes its short edge.  That finite
set determines the whole infinite subgraph, and the associated monomial
(product of long-edge variables times x**(degree-2) over all vertices)
determines the grove in turn.

Verification works on the finite window of radius N: the window has
3*C(N+3,2)+1 vertices and 3*C(N+2,2) rhombi, each contributing exactly one
edge (the one rule _window_edges, behind every view of the window), and a
choice of edges extends to a grove exactly when the resulting graph is a
forest whose components pair up one-to-one with the 3N+7 boundary classes.

Enumeration comes in two independent flavours:

* enumerate_local_moves builds all groves constructively.  Walking the
  reversed peel sequence, restoring a point u splits/merges groves through
  the three rhombi at u: a grove using all three short edges there (degree 3)
  yields three successors, one long edge (degree 2) yields one successor with
  the long edge reattached on the same axis below, and the three two-long
  configurations (degree 1) collapse to the single all-short successor.  The
  sum of grove monomials then transforms exactly like the recurrence
  substitution, which is what ties the enumeration to the polynomial.

* enumerate_bruteforce searches every long/short choice over the window
  rhombi and keeps those passing the connectivity check; it exists purely as
  an oracle for the constructive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Iterable, Iterator

from .laurent import (
    TAG_A,
    TAG_B,
    TAG_C,
    LaurentPoly,
    Monomial,
    exps_from_items,
    xvar,
)
from .lattice import (
    AXES,
    CutoffNotOdd,
    InitialConditions,
    NoSuchRhombus,
    NotACutoff,
    Point3,
    Rhombus,
    as_point,
    standard,
)


class CorrespondenceMismatch(RuntimeError):
    """A local configuration outside the case table; impossible for groves."""


class RoundTripMismatch(ValueError):
    """The monomial does not round-trip through a grove."""


class TooLarge(RuntimeError):
    pass


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
        bumped = False
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
            bumped = True
        if self.log is not None:
            self.log.append((ry, rx, bumped))
        return True

    def undo(self) -> None:
        ry, rx, bumped = self.log.pop()
        self.parent[ry] = ry
        if bumped:
            self.rank[rx] -= 1


@dataclass(frozen=True)
class Grove:
    ic: InitialConditions
    long_edges: frozenset

    def __post_init__(self):
        for r in self.long_edges:
            if not self.ic.contains_rhombus(r):
                raise ValueError(f"rhombus {r} is not contained in the initial conditions")

    def sorted_long_edges(self) -> list[Rhombus]:
        return sorted(self.long_edges)

    @cached_property
    def _degrees(self) -> dict[Point3, int]:
        """The window degree table, built on first use; shared, never mutate.

        Rhombi below the window are forced to their short edge, which meets
        the window only at the rhombus top, so tops at depth -N-1 and -N-2
        pick up one forced increment each.
        """
        ic = self.ic
        N = ic.min_cutoff
        deg = dict.fromkeys(ic.points_in_J(N), 0)
        for u, v in _window_edges(self, ic.rhombi_in_J(N)):
            deg[u] += 1
            deg[v] += 1
        for r in ic.rhombi_touching_J(N):
            if sum(r.top) < -N:
                deg[r.top] += 1
        return deg


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
        p = -1
        while True:
            q = s - p
            if p <= q:
                break
            classes.append(((0, p, q), (p, 0, q)))
            classes.append(((p, q, 0), (0, q, p)))
            classes.append(((q, p, 0), (q, 0, p)))
            p -= 1
        if s % 2 == 0:
            h = s // 2
            classes.append(((0, h, h), (h, 0, h), (h, h, 0)))
        classes.append(((0, 0, s),))
        classes.append(((0, s, 0),))
        classes.append(((s, 0, 0),))
    if len(classes) != 3 * N + 7:
        raise RuntimeError(f"{len(classes)} boundary classes, expected {3 * N + 7}")
    return sorted(classes)


def _window(ic: InitialConditions, N: int):
    points = ic.points_in_J(N)
    index = {p: t for t, p in enumerate(points)}
    rhombi = ic.rhombi_in_J(N)
    return points, index, rhombi


def _window_edges(g: Grove, rhombi: Iterable[Rhombus]) -> Iterator[tuple[Point3, Point3]]:
    """The edge g uses on each rhombus: its long edge if chosen, else its short edge."""
    longs = g.long_edges
    for r in rhombi:
        yield r.long_edge() if r in longs else r.short_edge()


def _window_forest(g: Grove, N: int):
    """Union g's window edges; the third value is False once a union closed a cycle."""
    points, index, rhombi = _window(g.ic, N)
    dsu = _DisjointSet(len(points))
    acyclic = True
    for u, v in _window_edges(g, rhombi):
        if not dsu.union(index[u], index[v]):
            acyclic = False
    return dsu, index, acyclic


def check_grove(g: Grove, N: int | None = None) -> GroveViolation | None:
    """Verify compactness and connectivity within radius N; None means valid."""
    ic = g.ic
    N = ic.min_cutoff if N is None else N
    if not ic.is_cutoff(N):
        raise NotACutoff(str(N))
    for r in g.long_edges:
        if sum(r.top) < -N:
            return GroveViolation("compactness", f"long edge of deep rhombus {r}")

    dsu, index, _ = _window_forest(g, N)
    classes = boundary_classes(N)
    owner: dict[int, tuple] = {}
    for cls in classes:
        roots = {dsu.find(index[p]) for p in cls}
        if len(roots) > 1:
            return GroveViolation("class-split", f"class {cls} spans several components")
        root = roots.pop()
        if root in owner:
            return GroveViolation(
                "class-shared", f"classes {owner[root]} and {cls} share a component"
            )
        owner[root] = cls
    components = len({dsu.find(t) for t in range(len(index))})
    if components != 3 * N + 7:
        return GroveViolation(
            "component-count", f"{components} components, expected {3 * N + 7}"
        )
    return None


def is_acyclic(g: Grove) -> bool:
    """Cycle detection on the minimal window graph; the forced chains outside are paths."""
    return _window_forest(g, g.ic.min_cutoff)[2]


def grove_degrees(g: Grove) -> dict[Point3, int]:
    """Vertex degrees on the minimal window; every vertex beyond it has degree 2."""
    return dict(g._degrees)


def stats(g: Grove) -> GroveStats:
    axes = [r.axis for r in g.long_edges]
    degree = {p: d for p, d in g._degrees.items() if d != 2}
    return GroveStats(*(axes.count(a) for a in AXES), degree=degree)


def monomial_of(g: Grove) -> Monomial:
    """The grove monomial: long-edge variables times x**(degree-2)."""
    items = [(r.variable(), 1) for r in g.long_edges]
    items += [(xvar(*p), d - 2) for p, d in g._degrees.items() if d != 2]
    return Monomial(1, exps_from_items(items))


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
    """Sum of grove monomials as a polynomial."""
    return LaurentPoly(monomial_of(g) for g in groves)


def coeffone_sums(g: Grove, r: Rhombus) -> int:
    """Sum of (degree-2) over the quadrant strictly below r's two long-edge axes.

    Equals -1 exactly when the long edge of r appears in the grove, else 0.
    """
    x, y = {"a": (1, 2), "b": (0, 2), "c": (0, 1)}[r.axis]
    tx, ty = r.top[x], r.top[y]
    return sum(d - 2 for p, d in g._degrees.items() if p[x] < tx and p[y] < ty)


def _local_step(u: Point3, configs: set[frozenset]) -> set[frozenset]:
    """Apply the three-rhombus correspondence at the restored point u."""
    i, j, k = u
    old = {axis: Rhombus(axis, u) for axis in "abc"}
    new = {
        "a": Rhombus("a", (i - 1, j, k)),
        "b": Rhombus("b", (i, j - 1, k)),
        "c": Rhombus("c", (i, j, k - 1)),
    }
    out: set[frozenset] = set()
    old_set = frozenset(old.values())
    for cfg in configs:
        present = sorted(r.axis for r in cfg & old_set)
        rest = cfg - old_set
        if len(present) == 0:
            for short_axis in "abc":
                out.add(rest | {new[ax] for ax in "abc" if ax != short_axis})
        elif len(present) == 1:
            out.add(rest | {new[present[0]]})
        elif len(present) == 2:
            out.add(rest)
        else:
            raise CorrespondenceMismatch(f"all three long edges present at {u}")
    return out


def enumerate_local_moves(ic: InitialConditions) -> set[Grove]:
    """All groves, built by local moves along the reversed peel sequence."""
    configs: set[frozenset] = {frozenset()}
    for u in reversed(ic.peel_sequence()):
        configs = _local_step(u, configs)
    return {Grove(ic, cfg) for cfg in configs}


def enumerate_bruteforce(
    ic: InitialConditions, N: int | None = None, cap: int = 18
) -> set[Grove]:
    """Oracle enumeration: depth-first search over all long/short choices.

    Every rhombus of the window contributes one edge either way, so a valid
    choice is exactly a forest in which no two boundary classes meet and every
    class stays connected.  Both conditions prune the search.
    """
    N = ic.min_cutoff if N is None else N
    if not ic.is_cutoff(N):
        raise NotACutoff(str(N))
    points, index, rhombi = _window(ic, N)
    if len(rhombi) > cap:
        raise TooLarge(f"{len(rhombi)} free rhombi exceed cap {cap}")

    classes = boundary_classes(N)
    class_of = [-1] * len(points)
    for ci, cls in enumerate(classes):
        for p in cls:
            class_of[index[p]] = ci

    edges = []
    for r in rhombi:
        lu, lv = r.long_edge()
        su, sv = r.short_edge()
        edges.append(((index[lu], index[lv]), (index[su], index[sv])))

    dsu = _DisjointSet(len(points), keep_log=True)
    comp_class = class_of[:]  # class owned by each root's component, -1 if none
    found: list[frozenset] = []
    chosen: list[Rhombus] = []

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

    def rec(t: int) -> None:
        if t == len(rhombi):
            # Forest with compatible merges; classes must each be whole.
            for cls in classes:
                roots = {dsu.find(index[p]) for p in cls}
                if len(roots) > 1:
                    return
            found.append(frozenset(chosen))
            return
        (lu, lv), (su, sv) = edges[t]
        token = attach(su, sv)
        if token is not None:
            rec(t + 1)
            detach(token)
        token = attach(lu, lv)
        if token is not None:
            chosen.append(rhombi[t])
            rec(t + 1)
            chosen.pop()
            detach(token)

    rec(0)
    return {Grove(ic, cfg) for cfg in found}


def to_simplified(g: Grove, N: int | None = None) -> SimplifiedGrove:
    """The induced subgraph on even vertices within radius N (N odd)."""
    ic = g.ic
    N = ic.min_odd_cutoff if N is None else N
    if not ic.is_cutoff(N):
        raise NotACutoff(str(N))
    if N % 2 == 0:
        raise CutoffNotOdd(str(N))
    # Both ends of an edge share the parity of their coordinate sum.
    edges = frozenset(e for e in _window_edges(g, ic.rhombi_in_J(N)) if sum(e[0]) % 2 == 0)
    return SimplifiedGrove(ic=ic, N=N, edges=edges)


def from_simplified(s: SimplifiedGrove) -> Grove:
    """Reconstruct the unique grove inducing a simplified grove."""
    ic = s.ic
    if not ic.is_cutoff(s.N):
        raise NotACutoff(str(s.N))
    if s.N % 2 == 0:
        raise CutoffNotOdd(str(s.N))
    # Long edges join the two sum s-1 vertices, short edges the sums s and
    # s-2, so the even edge of r is its long edge exactly when s is odd.
    longs = [
        r
        for r in ic.rhombi_in_J(s.N)
        if (r.long_edge() in s.edges if sum(r.top) % 2 else r.short_edge() not in s.edges)
    ]
    return Grove(ic, frozenset(longs))


def simplified_vertices(s: SimplifiedGrove) -> tuple[Point3, ...]:
    return tuple(
        p
        for p in s.ic.points_in_J(s.N)
        if sum(p) % 2 == 0 and sum(p) >= -s.N - 1
    )


def simplified_components(s: SimplifiedGrove) -> int:
    points = simplified_vertices(s)
    index = {p: t for t, p in enumerate(points)}
    dsu = _DisjointSet(len(points))
    for u, v in s.edges:
        dsu.union(index[u], index[v])
    return len({dsu.find(t) for t in range(len(points))})


def asm_triangle(g: Grove) -> list[list[int]]:
    """The triangular array of exponents (degree-2) on the deepest full layer.

    Only defined over the standard order-n initial conditions; entries always
    lie in {-1, 0, 1} because each layer point belongs to exactly three rhombi.
    """
    n = g.ic.min_cutoff + 1
    if g.ic != standard(n):
        raise ValueError("alternating-sign triangles require standard initial conditions")
    deg = g._degrees
    rows = []
    for r in range(n):
        i = -r
        row = []
        for j in range(0, r - n, -1):
            k = 1 - n - i - j
            row.append(deg.get((i, j, k), 2) - 2)
        rows.append(row)
    return rows


def window_point_count(N: int) -> int:
    return 3 * comb(N + 3, 2) + 1


def window_rhombus_count(N: int) -> int:
    return 3 * comb(N + 2, 2)


def grove_to_json(g: Grove) -> dict:
    st = stats(g)
    return {
        "long_edges": [[r.axis, *r.top] for r in g.sorted_long_edges()],
        "n": [st.n_a, st.n_b, st.n_c],
        "degrees": {
            "(%d,%d,%d)" % p: d for p, d in sorted(st.degree.items())
        },
    }


def grove_from_json(ic: InitialConditions, obj: dict) -> Grove:
    """Parse grove_to_json output; ValueError on a malformed or foreign edge."""
    edges = obj.get("long_edges") if isinstance(obj, dict) else None
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and e and e[0] in AXES for e in edges
    ):
        raise ValueError(f"long_edges must be a list of [axis, i, j, k]: {obj!r}")
    return Grove(ic, frozenset(Rhombus(e[0], as_point(e[1:])) for e in edges))
