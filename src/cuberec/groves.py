"""Grove representation, verification, and enumeration.

A grove is stored as the set of rhombi whose long edge it uses; every other
rhombus of the initial conditions contributes its short edge.  That finite
set determines the whole infinite subgraph, and the associated monomial
(product of long-edge variables times x**(degree-2) over all vertices)
determines the grove in turn.

Verification works on the finite window of radius N: the window has
3*C(N+3,2)+1 vertices and 3*C(N+2,2) rhombi, each contributing exactly one
edge, and a choice of edges extends to a grove exactly when the resulting
graph is a forest whose components pair up one-to-one with the 3N+7 boundary
classes.

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
from functools import lru_cache
from math import comb
from typing import Iterable

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
    CutoffNotOdd,
    InitialConditions,
    NoSuchRhombus,
    NotACutoff,
    Point3,
    Rhombus,
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
    assert len(classes) == 3 * N + 7
    return sorted(classes)


def _window(ic: InitialConditions, N: int):
    points = ic.points_in_J(N)
    index = {p: t for t, p in enumerate(points)}
    rhombi = ic.rhombi_in_J(N)
    return points, index, rhombi


def check_grove(g: Grove, N: int | None = None) -> GroveViolation | None:
    """Verify compactness and connectivity within radius N; None means valid."""
    ic = g.ic
    N = ic.min_cutoff if N is None else N
    if not ic.is_cutoff(N):
        raise NotACutoff(str(N))
    for r in g.long_edges:
        if sum(r.top) < -N:
            return GroveViolation("compactness", f"long edge of deep rhombus {r}")

    points, index, rhombi = _window(ic, N)
    dsu = _DisjointSet(len(points))
    for r in rhombi:
        u, v = r.long_edge() if r in g.long_edges else r.short_edge()
        dsu.union(index[u], index[v])

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
    components = len({dsu.find(t) for t in range(len(points))})
    if components != 3 * N + 7:
        return GroveViolation(
            "component-count", f"{components} components, expected {3 * N + 7}"
        )
    return None


def is_acyclic(g: Grove, N: int | None = None) -> bool:
    """Cycle detection on the window graph; the forced chains outside are paths."""
    ic = g.ic
    N = ic.min_cutoff if N is None else N
    points, index, rhombi = _window(ic, N)
    dsu = _DisjointSet(len(points))
    for r in rhombi:
        u, v = r.long_edge() if r in g.long_edges else r.short_edge()
        if not dsu.union(index[u], index[v]):
            return False
    return True


def grove_degrees(g: Grove, N: int | None = None) -> dict[Point3, int]:
    """Vertex degrees on the window; every vertex beyond it has degree 2.

    Rhombi below the window are forced to their short edge, which meets the
    window only at the rhombus top, so tops at depth -N-1 and -N-2 pick up one
    forced increment each.
    """
    return dict(_grove_degree_items(g, g.ic.min_cutoff if N is None else N))


@lru_cache(maxsize=65536)
def _grove_degree_items(g: Grove, N: int) -> tuple:
    ic = g.ic
    deg = {p: 0 for p in ic.points_in_J(N)}
    for r in ic.rhombi_touching_J(N):
        if sum(r.top) >= -N:
            u, v = r.long_edge() if r in g.long_edges else r.short_edge()
            deg[u] += 1
            deg[v] += 1
        else:
            deg[r.top] += 1
    return tuple(deg.items())


def stats(g: Grove) -> GroveStats:
    n = {"a": 0, "b": 0, "c": 0}
    for r in g.long_edges:
        n[r.axis] += 1
    degree = {p: d for p, d in grove_degrees(g).items() if d != 2}
    return GroveStats(n_a=n["a"], n_b=n["b"], n_c=n["c"], degree=degree)


def monomial_of(g: Grove) -> Monomial:
    """The grove monomial: long-edge variables times x**(degree-2)."""
    items = [(r.variable(), 1) for r in g.long_edges]
    for p, d in grove_degrees(g).items():
        if d != 2:
            items.append((xvar(*p), d - 2))
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
    i0, j0, k0 = r.top
    if r.axis == "a":
        sel = lambda p: p[1] < j0 and p[2] < k0
    elif r.axis == "b":
        sel = lambda p: p[0] < i0 and p[2] < k0
    else:
        sel = lambda p: p[0] < i0 and p[1] < j0
    return sum(d - 2 for p, d in grove_degrees(g).items() if sel(p))


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
        raise TooLarge(f"{len(rhombi)} free rhombi exceeds cap {cap}")

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


def _even_edge(r: Rhombus) -> tuple[Point3, Point3]:
    # Long edges join the two sum s-1 vertices, short edges the sums s and s-2.
    return r.long_edge() if sum(r.top) % 2 != 0 else r.short_edge()


def to_simplified(g: Grove, N: int | None = None) -> SimplifiedGrove:
    """The induced subgraph on even vertices within radius N (N odd)."""
    ic = g.ic
    N = ic.min_odd_cutoff if N is None else N
    if not ic.is_cutoff(N):
        raise NotACutoff(str(N))
    if N % 2 == 0:
        raise CutoffNotOdd(str(N))
    edges = set()
    for r in ic.rhombi_in_J(N):
        long_chosen = r in g.long_edges
        if long_chosen == (sum(r.top) % 2 != 0):
            edges.add(_even_edge(r))
    return SimplifiedGrove(ic=ic, N=N, edges=frozenset(edges))


def from_simplified(s: SimplifiedGrove) -> Grove:
    """Reconstruct the unique grove inducing a simplified grove."""
    ic = s.ic
    if not ic.is_cutoff(s.N):
        raise NotACutoff(str(s.N))
    if s.N % 2 == 0:
        raise CutoffNotOdd(str(s.N))
    longs = []
    for r in ic.rhombi_in_J(s.N):
        has_even = _even_edge(r) in s.edges
        if has_even == (sum(r.top) % 2 != 0):
            longs.append(r)
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
    from . import lattice

    n = g.ic.min_cutoff + 1
    if g.ic != lattice.standard(n):
        raise ValueError("alternating-sign triangles require standard initial conditions")
    deg = grove_degrees(g)
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
    longs = frozenset(Rhombus(e[0], tuple(e[1:4])) for e in obj["long_edges"])
    return Grove(ic, longs)
