"""Shared helpers: seeded random initial conditions, the balanced-grove sum and exact plane geometry."""

from __future__ import annotations

import itertools
import random

from cuberec import groves, laurent
from cuberec.lattice import InitialConditions, PlanePoint


def up_closure(p):
    """All cone points componentwise between p and the origin."""
    return itertools.product(range(p[0], 1), range(p[1], 1), range(p[2], 1))


def random_ic(rng: random.Random, depth: int = 2, boxes: int = 3) -> InitialConditions:
    """A random upward-closed u_fin: a union of box closures of random points."""
    pts = set()
    for _ in range(rng.randint(0, boxes)):
        p = tuple(rng.randint(-depth, 0) for _ in range(3))
        pts.update(up_closure(p))
    return InitialConditions(pts)


def balanced_grove_sum(ic: InitialConditions, gs) -> laurent.LaurentPoly:
    """The sum over the groves gs of ic with n_a + n_b = n_c, edge variables dropped."""
    window = groves._window(ic, ic.min_cutoff)

    def balanced(g):
        a, b, c = window.axis_counts(g.mask)
        return a + b == c

    return laurent.drop_variables(groves.grove_sum(filter(balanced, gs)),
                                  (laurent.TAG_A, laurent.TAG_B, laurent.TAG_C))


def small_cutoff_family() -> list[InitialConditions]:
    """Every upward-closed u_fin with minimal cutoff <= 2 (there are nine)."""
    o = (0, 0, 0)
    singles = [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    family = [InitialConditions(())]
    for mask in range(8):
        pts = {o} | {s for t, s in enumerate(singles) if mask >> t & 1}
        family.append(InitialConditions(pts))
    return family


def _cross(o: PlanePoint, a: PlanePoint, b: PlanePoint) -> int:
    return (a.xs - o.xs) * (b.y2 - o.y2) - (a.y2 - o.y2) * (b.xs - o.xs)


def convex_interiors_disjoint(A, B) -> bool:
    """Exact separating-axis test; shared boundary points are allowed."""

    def separated_by(P, Q):
        n = len(P)
        for i in range(n):
            a, b = P[i], P[(i + 1) % n]
            inner = 0
            for p in P:
                c = _cross(a, b, p)
                if c:
                    inner = 1 if c > 0 else -1
                    break
            if inner == 0:
                continue
            if all(_cross(a, b, q) * inner <= 0 for q in Q):
                return True
        return False

    return separated_by(A, B) or separated_by(B, A)


def grove_key(g):
    return tuple(g.sorted_long_edges())
