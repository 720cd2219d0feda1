"""Order-ideal initial conditions on the Z^3 lattice.

An initial-conditions object stores ``u_fin``, the finite part of the upper
set inside the lower cone of the origin (all coordinates <= 0).  Everything
else is derived from it:

    in_I(p)   p is an initial point: p lies in the order ideal (in the cone,
              not in u_fin) and p + (1,1,1) does not

The two stored invariants are that u_fin sits inside the cone and that it is
upward closed within the cone.  A cutoff N bounds the region where the
initial points deviate from the coordinate-wall pattern; the minimal cutoff
is max(0, 1 - min coordinate sum over u_fin).

Upward closure puts exactly one initial point on each (1,1,1) line of the
cone: walking down from the line's wall point (max coordinate 0), the points
in u_fin come first, and the first point past them is the initial one.  So
the line's depth, how many points of u_fin lie on it, places that point; one
pass over u_fin counts every line's depth, keyed by its wall point, and
height() and points_in_J read the count.  At a cutoff N, the window J(N) is
the initial points with coordinate sum >= -N-2, one per wall point of that
sum or more, 3*C(N+3,2)+1 in all.

A contained rhombus has its top at an initial point, so the contained rhombi
fall into bands by their top's coordinate sum, and one band rule serves both
rhombus queries: rhombi_in_J(N) is the bands of sum >= -N, and
rhombi_touching_J(N) adds the two of sum -N-1 and -N-2, whose edges reach
J(N) from below.  Each band goes through contains_rhombus once per ideal,
whichever query asks for it first.  Both rules rest on upward closure,
which every ideal is checked for when it is built.

Rhombi come in three axes by one rule: axis t of AXES is free in coordinate
t.  Its rhombus steps down from the top vertex along the other two
coordinates, and its edge variable has tag TAG_A + t, indexed by the top's
coordinates there; moving the top along t keeps it.  For a top (i,j,k):

    axis a: {(i,j,k), (i,j-1,k), (i,j,k-1), (i,j-1,k-1)}   variable a(j,k)
    axis b: {(i,j,k), (i-1,j,k), (i,j,k-1), (i-1,j,k-1)}   variable b(i,k)
    axis c: {(i,j,k), (i-1,j,k), (i,j-1,k), (i-1,j-1,k)}   variable c(i,j)

The long edge joins the two middle vertices, the short edge joins top to
bottom.  Projection onto the plane orthogonal to (1,1,1) sends a unit step in
k to (0,1), in i to (-s,-1/2) and in j to (s,-1/2), where s stands for
sqrt(3)/2; plane points are stored exactly as integer pairs (m, n) meaning
(m*s, n/2).
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .laurent import TAG_A, VarKey

Point3 = tuple


class NotInCone(ValueError):
    def __init__(self, point: Point3):
        self.point = point
        super().__init__(f"point {point} lies outside the lower cone of the origin")


class NotUpwardClosed(ValueError):
    def __init__(self, point: Point3, missing: Point3):
        self.point = point
        self.missing = missing
        super().__init__(f"{missing} is missing above {point}")


class NoSuchRhombus(LookupError):
    pass


class NotACutoff(ValueError):
    pass


class CutoffNotOdd(ValueError):
    pass


AXES = ("a", "b", "c")

# The axis rule of the module docstring: axis -> (t, x, y), where t is its
# free coordinate and x < y are the other two.
_AXIS = {axis: (t, *(c for c in range(3) if c != t)) for t, axis in enumerate(AXES)}

_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# Unit steps subtracted from the top vertex, per axis.
_AXIS_STEPS = {axis: (_UNIT[x], _UNIT[y]) for axis, (_, x, y) in _AXIS.items()}

# What each vertex of a rhombus lies below its top by, per axis, in the order of vertices().
_CORNER_STEPS = {
    axis: ((0, 0, 0), u, v, tuple(a + b for a, b in zip(u, v)))
    for axis, (u, v) in _AXIS_STEPS.items()
}


def _sub(p: Point3, q: Point3) -> Point3:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


class PlanePoint(NamedTuple):
    """Exact plane coordinates: x = xs * sqrt(3)/2, y = y2 / 2."""

    xs: int
    y2: int


def project(p: Point3) -> PlanePoint:
    """Linear projection killing the (1,1,1) direction; injective on initial points."""
    i, j, k = p
    return PlanePoint(j - i, 2 * k - i - j)


class Rhombus(NamedTuple):
    axis: str
    top: Point3

    def vertices(self) -> tuple[Point3, Point3, Point3, Point3]:
        u, v = _AXIS_STEPS[self.axis]
        t = self.top
        return (t, _sub(t, u), _sub(t, v), _sub(_sub(t, u), v))

    def bottom(self) -> Point3:
        u, v = _AXIS_STEPS[self.axis]
        return _sub(_sub(self.top, u), v)

    def long_edge(self) -> tuple[Point3, Point3]:
        u, v = _AXIS_STEPS[self.axis]
        a, b = _sub(self.top, u), _sub(self.top, v)
        return (a, b) if a <= b else (b, a)

    def short_edge(self) -> tuple[Point3, Point3]:
        a, b = self.top, self.bottom()
        return (a, b) if a <= b else (b, a)

    def variable(self) -> VarKey:
        t, x, y = _AXIS[self.axis]
        return (TAG_A + t, self.top[x], self.top[y])

    def corners(self) -> tuple[PlanePoint, PlanePoint, PlanePoint, PlanePoint]:
        """Projected vertices in cyclic order around the quadrilateral."""
        u, v = _AXIS_STEPS[self.axis]
        t = self.top
        return (
            project(t),
            project(_sub(t, u)),
            project(self.bottom()),
            project(_sub(t, v)),
        )


class InitialConditions:
    """Initial conditions induced by an order ideal inside the origin cone."""

    __slots__ = ("u_fin", "_min_cutoff", "_windows")

    def __init__(self, u_fin: Iterable[Point3] = ()):
        self.u_fin = frozenset(tuple(p) for p in u_fin)
        self._min_cutoff = None
        self._windows = {}
        self.validate()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InitialConditions):
            return NotImplemented
        return self.u_fin == other.u_fin

    def __hash__(self) -> int:
        return hash(self.u_fin)

    def __repr__(self) -> str:
        return f"InitialConditions({sorted(self.u_fin)})"

    @staticmethod
    def in_cone(p: Point3) -> bool:
        return p[0] <= 0 and p[1] <= 0 and p[2] <= 0

    def validate(self) -> None:
        """Check cone membership and upward closure; raise naming the witness."""
        for p in self.u_fin:
            if not self.in_cone(p):
                raise NotInCone(p)
        for p in sorted(self.u_fin):
            i, j, k = p
            for w in ((i + 1, j, k), (i, j + 1, k), (i, j, k + 1)):
                if self.in_cone(w) and w not in self.u_fin:
                    raise NotUpwardClosed(p, w)

    def in_I(self, p: Point3) -> bool:
        # p + (1,1,1) leaves the cone, and so the ideal, exactly when a
        # coordinate of p is 0.
        i, j, k = p
        if i > 0 or j > 0 or k > 0 or p in self.u_fin:
            return False
        return i == 0 or j == 0 or k == 0 or (i + 1, j + 1, k + 1) in self.u_fin

    def is_cutoff(self, N: int) -> bool:
        """Both cutoff properties, checked directly against u_fin."""
        if N < 0:
            return False
        for v in self.u_fin:
            if v[0] + v[1] + v[2] <= -N:
                # (i): a wall point this deep must be an initial point.
                if max(v) == 0:
                    return False
                # (ii): otherwise (v - (1,1,1)) would be a too-deep interior
                # initial point unless it is itself in u_fin.
                if (v[0] - 1, v[1] - 1, v[2] - 1) not in self.u_fin:
                    return False
        return True

    @property
    def min_cutoff(self) -> int:
        if self._min_cutoff is None:
            if not self.u_fin:
                n = 0
            else:
                n = max(0, 1 - min(p[0] + p[1] + p[2] for p in self.u_fin))
            if not self.is_cutoff(n):
                raise NotACutoff(f"computed cutoff {n} fails the direct check")
            self._min_cutoff = n
        return self._min_cutoff

    @property
    def min_odd_cutoff(self) -> int:
        n = self.min_cutoff
        return n if n % 2 == 1 else n + 1

    def memo(self, key, build):
        """The value stored under key, from build() on the first call that succeeds."""
        value = self._windows.get(key)
        if value is None:
            value = self._windows[key] = build()
        return value

    def _depths(self) -> dict[Point3, int]:
        """How many points of u_fin lie on each (1,1,1) line that meets it, keyed by its wall point."""

        def build():
            depths: dict[Point3, int] = {}
            for i, j, k in self.u_fin:
                m = max(i, j, k)
                wall = (i - m, j - m, k - m)
                depths[wall] = depths.get(wall, 0) + 1
            return depths

        return self.memo("depths", build)

    def points_in_J(self, N: int | None = None) -> tuple[Point3, ...]:
        """All initial points with coordinate sum >= -N-2, sorted; NotACutoff unless N is one.

        One per (1,1,1) line, its wall point lowered by the line's depth, for
        each wall point of sum >= -N-2.  At a cutoff every point of u_fin has
        sum > -N (one of sum <= -N would need its diagonal predecessor in
        u_fin too, and so on without end), so each of those initial points
        lies within the window, and no other can.
        """
        N = self.min_cutoff if N is None else N

        def build():
            if not self.is_cutoff(N):
                raise NotACutoff(str(N))
            depth, lo, found = self._depths().get, -N - 2, []
            for i in range(lo, 1):
                for j in range(lo - i, 1):
                    # The wall points (max coordinate 0) with these first two coordinates.
                    for k in range(lo - i - j, 1) if i == 0 or j == 0 else (0,):
                        h = depth((i, j, k), 0)
                        found.append((i - h, j - h, k - h))
            return tuple(sorted(found))

        return self.memo(("points", N), build)

    def contains_rhombus(self, r: Rhombus) -> bool:
        """in_I at each vertex, inline: the vertices lie at or below the top."""
        i, j, k = r.top
        if i > 0 or j > 0 or k > 0:
            return False
        u_fin = self.u_fin
        for a, b, c in _CORNER_STEPS[r.axis]:
            p = (i - a, j - b, k - c)
            if p in u_fin or not (p[0] == 0 or p[1] == 0 or p[2] == 0
                                  or (p[0] + 1, p[1] + 1, p[2] + 1) in u_fin):
                return False
        return True

    def rhombi_in_J(self, N: int | None = None) -> tuple[Rhombus, ...]:
        """All rhombi whose four vertices lie in the radius-N window: the bands of top sum >= -N."""
        N = self.min_cutoff if N is None else N
        return self.memo(("rhombi_in", N), lambda: self._banded(N, -N))

    def rhombi_touching_J(self, N: int | None = None) -> tuple[Rhombus, ...]:
        """All contained rhombi with top-vertex sum >= -N-2, sorted; their edges can reach J(N)."""
        N = self.min_cutoff if N is None else N
        return self.memo(("rhombi", N), lambda: self._banded(N, -N - 2))

    def _banded(self, N: int, lowest: int) -> tuple[Rhombus, ...]:
        """The contained rhombi with top sum from 0 down to lowest >= -N-2, sorted.

        J(N) holds every initial point of those sums, so its points are the
        tops of the bands not yet built; NotACutoff unless N is a cutoff.
        """
        points = self.points_in_J(N)
        bands = self.memo("bands", dict)
        tops = {s: [] for s in range(lowest, 1) if s not in bands}
        if tops:
            for p in points:  # sorted, and so is each band's share
                band = tops.get(p[0] + p[1] + p[2])
                if band is not None:
                    band.append(p)
            for s, band in tops.items():
                bands[s] = self._contained(band)
        return tuple(sorted(itertools.chain.from_iterable(bands[s] for s in range(lowest, 1))))

    def _contained(self, tops: list[Point3]) -> tuple[Rhombus, ...]:
        """The contained rhombi over the sorted tops, in sorted order: axis first, then top."""
        rhombi = (Rhombus(axis, p) for axis in AXES for p in tops)
        return tuple(r for r in rhombi if self.contains_rhombus(r))

    def variable_rhombus(self, v: VarKey) -> Rhombus:
        """The unique rhombus carrying edge variable v, if it exists.

        Only the free index is unknown.  If no vertex of the rhombus has its
        diagonal successor inside u_fin, the bottom vertex pins the free index
        to 0; otherwise the successor's level determines it.  That makes
        {0} union {u-1 levels over u_fin} a complete candidate set.
        """
        t = v[0] - TAG_A
        if not 0 <= t < len(AXES):
            raise NoSuchRhombus(f"{v} is not an edge variable")
        # The top vertex is v's two indices with the free index put in at position t.
        cands = sorted({0} | {u[t] - 1 for u in self.u_fin})
        rhombi = [Rhombus(AXES[t], v[1:1 + t] + (f,) + v[1 + t:]) for f in cands]
        found = [r for r in rhombi if self.contains_rhombus(r)]
        if not found:
            raise NoSuchRhombus(f"no rhombus carries {v}")
        if len(found) > 1:  # impossible for valid initial conditions
            raise AssertionError(f"edge variable {v} is ambiguous: {found}")
        return found[0]

    def peel_sequence(self) -> list[Point3]:
        """u_fin ordered so each prefix-removal peels a local minimum.

        Sorted by coordinate sum ascending, ties lexicographic; any order that
        always removes a minimal point of the remaining upper set is valid.
        """
        return sorted(self.u_fin, key=lambda p: (p[0] + p[1] + p[2], p))

    def height(self, p: Point3) -> int:
        """The unique h with p + (h,h,h) an initial point: the line's wall point, lowered by its depth."""
        m = max(p)
        return -m - self._depths().get((p[0] - m, p[1] - m, p[2] - m), 0)


def standard(n: int) -> InitialConditions:
    """Initial conditions whose groves are the standard groves of order n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    lo = 2 - n
    pts = [
        p
        for p in itertools.product(range(lo, 1), repeat=3)
        if p[0] + p[1] + p[2] >= lo
    ]
    return InitialConditions(pts)


def kleber(i: int, j: int, k: int) -> InitialConditions:
    """The box complement: u_fin is the i*j*k box of points nearest the origin."""
    if min(i, j, k) < 1:
        raise ValueError("box sides must be >= 1")
    pts = itertools.product(range(1 - i, 1), range(1 - j, 1), range(1 - k, 1))
    return InitialConditions(pts)


def gale_robinson(p: int, q: int, r: int, l: int) -> InitialConditions:
    """Initial conditions for term y_l of the (p,q,r) Gale-Robinson recurrence."""
    if min(p, q, r) < 1 or l < 0:
        raise ValueError("need p,q,r >= 1 and l >= 0")
    n = p + q + r
    if n - l > 0:
        return InitialConditions(())
    lo_i = -((l - n) // p)
    lo_j = -((l - n) // q)
    lo_k = -((l - n) // r)
    pts = [
        v
        for v in itertools.product(range(lo_i, 1), range(lo_j, 1), range(lo_k, 1))
        if p * v[0] + q * v[1] + r * v[2] >= n - l
    ]
    return InitialConditions(pts)


# Each preset's constructor and the names of its arguments, in order, which are
# also its JSON fields: --preset kind:a,b,... and {"preset": kind, ...}.
PRESETS = {
    "standard": (standard, ("n",)),
    "kleber": (kleber, ("i", "j", "k")),
    "gale-robinson": (gale_robinson, ("p", "q", "r", "l")),
}
PRESETS["gale_robinson"] = PRESETS["gale-robinson"]


def explicit(u_fin: Iterable[Point3]) -> InitialConditions:
    return InitialConditions(u_fin)


def as_point(p) -> Point3:
    """The JSON list p as a point; ValueError unless it holds three integers."""
    if not (isinstance(p, list) and len(p) == 3 and all(type(c) is int for c in p)):
        raise ValueError(f"{p!r} is not a point [i, j, k] of three integers")
    return tuple(p)


def from_json(obj: dict) -> InitialConditions:
    """Parse the initial-conditions JSON forms."""
    if not isinstance(obj, dict):
        raise ValueError(f"initial conditions must be a JSON object, not {obj!r}")
    if "explicit" in obj:
        u_fin = obj["explicit"]["u_fin"] if isinstance(obj["explicit"], dict) else None
        if not isinstance(u_fin, list):
            raise ValueError(f"explicit initial conditions need a u_fin list: {obj!r}")
        return explicit(as_point(p) for p in u_fin)
    kind = obj.get("preset")
    if isinstance(kind, str) and kind in PRESETS:
        build, names = PRESETS[kind]
        return build(*_int_fields(obj, *names))
    raise ValueError(f"unrecognized initial-conditions object: {obj!r}")


def _int_fields(obj: dict, *names: str) -> list[int]:
    """The named preset fields; ValueError unless each is an integer
    (KeyError when one is missing)."""
    values = [obj[name] for name in names]
    for name, x in zip(names, values):
        if type(x) is not int:
            raise ValueError(f"preset field {name!r} must be an integer, not {x!r}")
    return values


def to_json(ic: InitialConditions) -> dict:
    return {"explicit": {"u_fin": [list(p) for p in sorted(ic.u_fin)]}}
