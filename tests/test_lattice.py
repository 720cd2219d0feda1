"""Initial conditions, windows, rhombi, peel order, and projection."""

import random

import pytest

from conftest import convex_interiors_disjoint, random_ic
from cuberec import lattice
from cuberec.laurent import avar, bvar, cvar
from cuberec.lattice import (
    InitialConditions,
    NoSuchRhombus,
    NotInCone,
    NotUpwardClosed,
    Rhombus,
    project,
)


def test_validate_examples():
    InitialConditions(())
    InitialConditions([(0, 0, 0)])
    with pytest.raises(NotUpwardClosed) as err:
        InitialConditions([(-1, 0, 0)])
    assert err.value.missing == (0, 0, 0)
    # Six points lie between these two; the first one above the lowest is named.
    with pytest.raises(NotUpwardClosed) as err:
        InitialConditions([(0, 0, 0), (-1, -1, -1)])
    assert (err.value.point, err.value.missing) == ((-1, -1, -1), (0, -1, -1))
    with pytest.raises(NotInCone):
        InitialConditions([(1, 0, 0)])


def test_min_cutoff():
    assert InitialConditions(()).min_cutoff == 0
    assert InitialConditions([(0, 0, 0)]).min_cutoff == 1
    for n in range(1, 7):
        assert lattice.standard(n).min_cutoff == n - 1
    assert InitialConditions(()).min_odd_cutoff == 1
    assert lattice.standard(4).min_odd_cutoff == 3
    assert lattice.standard(6).min_odd_cutoff == 5


def test_is_cutoff_thresholds():
    ic = lattice.standard(4)
    assert not ic.is_cutoff(ic.min_cutoff - 1)
    assert ic.is_cutoff(ic.min_cutoff)
    assert ic.is_cutoff(ic.min_cutoff + 3)


def test_points_in_J_counts():
    empty = InitialConditions(())
    assert len(empty.points_in_J(1)) == 19
    assert len(empty.points_in_J(3)) == 46
    # the count is independent of the initial conditions
    assert len(lattice.standard(2).points_in_J(3)) == 46
    assert len(lattice.kleber(2, 2, 2).points_in_J(4)) == 64


def test_rhombi_in_J_counts_and_membership():
    empty = InitialConditions(())
    assert len(empty.rhombi_in_J(1)) == 9
    assert len(empty.rhombi_in_J(3)) == 30
    one = InitialConditions([(0, 0, 0)])
    rhombi = one.rhombi_in_J(1)
    assert len(rhombi) == 9
    assert Rhombus("a", (-1, 0, 0)) in rhombi
    assert Rhombus("c", (0, 0, -1)) in rhombi
    assert Rhombus("a", (0, 0, 0)) not in rhombi
    # built once per radius: later calls return the same tuple
    assert one.rhombi_in_J(1) is rhombi and one.rhombi_in_J(2) is not rhombi


def test_edge_variable_and_inverse():
    i, j, k = 0, -1, -2
    assert Rhombus("a", (i, j, k)).variable() == avar(j, k)
    assert Rhombus("b", (i, j, k)).variable() == bvar(i, k)
    assert Rhombus("c", (i, j, k)).variable() == cvar(i, j)
    # one step down the free coordinate keeps the edge variable
    down = {"a": (i - 1, j, k), "b": (i, j - 1, k), "c": (i, j, k - 1)}
    for axis, p in down.items():
        assert Rhombus(axis, p).variable() == Rhombus(axis, (i, j, k)).variable(), axis
    one = InitialConditions([(0, 0, 0)])
    assert one.variable_rhombus(cvar(0, 0)) == Rhombus("c", (0, 0, -1))
    with pytest.raises(NoSuchRhombus):
        InitialConditions(()).variable_rhombus(avar(1, 1))
    # inverse on every window rhombus
    for ic in (one, lattice.standard(3), lattice.kleber(2, 2, 2)):
        for r in ic.rhombi_in_J(ic.min_cutoff + 1):
            assert ic.variable_rhombus(r.variable()) == r


def test_rhombus_edges():
    r = Rhombus("a", (0, 0, 0))
    assert set(r.vertices()) == {(0, 0, 0), (0, -1, 0), (0, 0, -1), (0, -1, -1)}
    assert r.long_edge() == ((0, -1, 0), (0, 0, -1))
    assert r.short_edge() == ((0, -1, -1), (0, 0, 0))


def _lower_neighbors(p):
    i, j, k = p
    return [
        (i - 1, j, k), (i, j - 1, k), (i, j, k - 1),
        (i, j - 1, k - 1), (i - 1, j, k - 1), (i - 1, j - 1, k),
        (i - 1, j - 1, k - 1),
    ]


def test_peel_sequence_examples():
    assert InitialConditions(()).peel_sequence() == []
    assert InitialConditions([(0, 0, 0)]).peel_sequence() == [(0, 0, 0)]
    assert lattice.standard(3).peel_sequence() == [
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 0),
    ]


def test_peel_sequence_local_minimum_property():
    rng = random.Random(17)
    ics = [lattice.standard(4), lattice.kleber(2, 3, 2)]
    ics += [random_ic(rng) for _ in range(10)]
    for ic in ics:
        seq = ic.peel_sequence()
        for t, u in enumerate(seq):
            current = InitialConditions(seq[t:])
            assert all(current.in_I(w) for w in _lower_neighbors(u)), (u, t)


def test_project():
    assert project((0, 0, 0)) == (0, 0)
    for h in (-3, -1, 2):
        assert project((h, h, h)) == (0, 0)
    p1, p2 = project((0, -1, -1)), project((-1, 0, -1))
    assert p1 != p2
    # both at unit distance from the origin: x^2+y^2 = 3/4*xs^2 + y2^2/4
    for p in (p1, p2):
        assert 3 * p.xs**2 + p.y2**2 == 4


def test_projection_injective_on_window():
    for ic in (InitialConditions(()), lattice.standard(4), lattice.kleber(2, 2, 2)):
        pts = ic.points_in_J(ic.min_cutoff + 2)
        assert len({project(p) for p in pts}) == len(pts)


def test_height_function_property():
    rng = random.Random(23)
    for ic in [lattice.standard(3)] + [random_ic(rng) for _ in range(8)]:
        for i in range(-3, 1):
            for j in range(-3, 1):
                for k in range(-3, 1):
                    if not -1 <= i + j + k <= 1:
                        continue
                    h = ic.height((i, j, k))
                    hits = [
                        d for d in range(h - 4, h + 5)
                        if ic.in_I((i + d, j + d, k + d))
                    ]
                    assert hits == [h]


def test_presets():
    assert lattice.standard(1).u_fin == frozenset()
    assert lattice.standard(2).u_fin == frozenset({(0, 0, 0)})
    assert lattice.gale_robinson(4, 1, 2, 0).u_fin == frozenset()
    assert len(lattice.kleber(2, 3, 2).u_fin) == 12
    assert len(lattice.gale_robinson(4, 1, 2, 11).u_fin) == 10
    with pytest.raises(ValueError):
        lattice.standard(0)
    with pytest.raises(ValueError):
        lattice.kleber(0, 1, 1)
    with pytest.raises(ValueError):
        lattice.gale_robinson(1, 1, 1, -1)


def test_window_formulas_on_random_ics():
    from math import comb

    rng = random.Random(29)
    for _ in range(12):
        ic = random_ic(rng)
        for N in range(ic.min_cutoff, ic.min_cutoff + 4):
            assert len(ic.points_in_J(N)) == 3 * comb(N + 3, 2) + 1
            assert len(ic.rhombi_in_J(N)) == 3 * comb(N + 2, 2)


def test_projected_rhombi_disjoint_interiors():
    rng = random.Random(31)
    ics = [InitialConditions(()), lattice.standard(4)] + [random_ic(rng) for _ in range(6)]
    for ic in ics:
        rhombi = ic.rhombi_in_J(ic.min_cutoff + 1)
        corners = [r.corners() for r in rhombi]
        for s in range(len(corners)):
            for t in range(s + 1, len(corners)):
                assert convex_interiors_disjoint(corners[s], corners[t])


def test_json_forms():
    assert lattice.from_json({"preset": "standard", "n": 5}) == lattice.standard(5)
    assert lattice.from_json({"preset": "kleber", "i": 2, "j": 3, "k": 2}) == lattice.kleber(2, 3, 2)
    assert lattice.from_json(
        {"preset": "gale_robinson", "p": 4, "q": 1, "r": 2, "l": 11}
    ) == lattice.gale_robinson(4, 1, 2, 11)
    ic = lattice.standard(3)
    assert lattice.from_json(lattice.to_json(ic)) == ic
    with pytest.raises(ValueError):
        lattice.from_json({"preset": "diamond"})
