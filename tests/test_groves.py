"""Grove axioms, monomials, enumeration, simplified groves, sign triangles."""

import copy
import dataclasses
import random
import re

import pytest

from conftest import grove_key, random_ic
from cuberec import groves, lattice, recurrence, render
from cuberec.groves import (
    CorrespondenceMismatch,
    Grove,
    RoundTripMismatch,
    TooLarge,
    asm_triangle,
    base_grove,
    boundary_classes,
    check_grove,
    coeffone_sums,
    count_local_moves,
    enumerate_bruteforce,
    enumerate_local_moves,
    from_simplified,
    grove_degrees,
    grove_from_monomial,
    grove_sum,
    is_acyclic,
    monomial_of,
    simplified_components,
    stats,
    to_simplified,
)
from cuberec.laurent import (
    TAG_X,
    LaurentPoly,
    Monomial,
    avar,
    bvar,
    cvar,
    exps_from_items,
    var_name,
    xvar,
)
from cuberec.lattice import CutoffNotOdd, InitialConditions, NotACutoff, Rhombus
from cuberec.sequences import SOMOS7, gr_certificate

EMPTY = InitialConditions(())
ONE_STEP = InitialConditions([(0, 0, 0)])
ONE_STEP_GROVE = Grove(
    ONE_STEP, frozenset({Rhombus("a", (-1, 0, 0)), Rhombus("c", (0, 0, -1))})
)


def test_monomial_of_base_grove():
    assert monomial_of(base_grove(EMPTY)) == Monomial(1, ((xvar(0, 0, 0), 1),))


def test_monomial_of_one_step_grove():
    expected = Monomial(1, exps_from_items([
        (avar(0, 0), 1), (cvar(0, 0), 1),
        (xvar(0, -1, 0), 1), (xvar(-1, 0, -1), 1), (xvar(-1, -1, -1), -1),
    ]))
    assert monomial_of(ONE_STEP_GROVE) == expected


def test_monomial_coefficient_is_one():
    for g in enumerate_local_moves(lattice.standard(3)):
        assert monomial_of(g).coeff == 1


def test_grove_from_monomial_roundtrip():
    for ic in (ONE_STEP, lattice.standard(3)):
        for g in enumerate_local_moves(ic):
            m = monomial_of(g)
            assert grove_from_monomial(ic, m) == g
    assert grove_from_monomial(EMPTY, Monomial(1, ((xvar(0, 0, 0), 1),))) == base_grove(EMPTY)


def test_grove_from_monomial_rejects_non_grove():
    with pytest.raises(RoundTripMismatch):
        grove_from_monomial(ONE_STEP, Monomial(1, ((avar(0, 0), 1),)))
    with pytest.raises(RoundTripMismatch):
        grove_from_monomial(ONE_STEP, Monomial(2, ((xvar(0, 0, 0), 1),)))
    with pytest.raises(RoundTripMismatch):
        # no rhombus carries this edge variable here
        grove_from_monomial(EMPTY, Monomial(1, ((avar(1, 1), 1),)))
    # a contained rhombus beyond the minimal window carries this one; no grove uses it
    deep = exps_from_items([*monomial_of(base_grove(EMPTY)).exps, (avar(-2, -2), 1)])
    with pytest.raises(RoundTripMismatch, match=re.escape(f"edge variable {avar(-2, -2)}")):
        grove_from_monomial(EMPTY, Monomial(1, deep))


def test_check_grove():
    assert check_grove(base_grove(EMPTY), 0) is None
    assert check_grove(ONE_STEP_GROVE, 1) is None
    bad = Grove(ONE_STEP, frozenset({Rhombus("a", (-1, 0, 0))}))
    violation = check_grove(bad, 1)
    assert violation is not None
    assert violation.kind in ("class-split", "class-shared", "component-count")


def test_check_grove_compactness():
    # A grove is fixed by its minimal window: each one checks clean at every
    # larger cutoff, and a long edge beyond that window is refused.
    for ic in (EMPTY, ONE_STEP):
        for g in enumerate_local_moves(ic):
            for N in range(ic.min_cutoff, 4):
                if ic.is_cutoff(N):
                    assert check_grove(g, N) is None, (ic, g, N)
    # contained, but beyond EMPTY's minimal window (radius 0): deep below it,
    # and one whose ends lie in it
    for r in (Rhombus("a", (0, -2, -2)), Rhombus("a", (0, 0, -1))):
        assert EMPTY.contains_rhombus(r)
        with pytest.raises(ValueError, match=re.escape(f"{r} lies beyond the minimal window")):
            Grove(EMPTY, [Rhombus("b", (0, 0, 0)), r])


def test_boundary_class_counts():
    for N in range(0, 7):
        assert len(boundary_classes(N)) == 3 * N + 7


def test_grove_rejects_rhombus_outside():
    # (0,0,0) is not an initial point once it joins the upper set
    with pytest.raises(ValueError):
        Grove(ONE_STEP, frozenset({Rhombus("a", (0, 0, 0))}))
    # below the window, where no window rhombus vouches for it
    with pytest.raises(ValueError):
        Grove(EMPTY, frozenset({Rhombus("a", (-3, -3, -3))}))


def test_local_move_groves_hash_apart():
    # A grove hashes as its mask; as frozensets of rhombi these 11 883 groves
    # had only 618 distinct hashes.
    gs = enumerate_local_moves(lattice.kleber(3, 3, 3))
    assert len(gs) == 11883
    assert len({hash(g) for g in gs}) >= 11000


def test_grove_identity_on_random_ics():
    # A grove built from its rhombi, also over an equal but separate ideal, is
    # the enumerated one.
    rng = random.Random(1121)
    for _ in range(12):
        ic = random_ic(rng, depth=1, boxes=4)
        twin = InitialConditions(sorted(ic.u_fin))
        assert twin == ic and twin is not ic
        for g in enumerate_local_moves(ic):
            assert g.sorted_long_edges() == sorted(g.long_edges)
            for same in (Grove(ic, g.long_edges), Grove(twin, g.long_edges)):
                assert same == g and hash(same) == hash(g), (ic, g)
                assert same.mask == g.mask


def test_hand_built_grove_round_trip():
    # EMPTY's minimal window is radius 0, and here is one of its rhombi.
    here = Rhombus("b", (0, 0, 0))
    g = Grove(EMPTY, [here])
    assert g.mask.bit_count() == 1
    assert g.long_edges == {here} and g.sorted_long_edges() == [here]
    same = Grove(EMPTY, g.long_edges)
    assert same == g and hash(same) == hash(g)
    assert g != base_grove(EMPTY)
    m = monomial_of(g)
    assert m == Monomial(1, exps_from_items([
        (bvar(0, 0), 1), (xvar(-1, 0, 0), 1), (xvar(0, 0, -1), 1), (xvar(-1, 0, -1), -1),
    ]))
    assert grove_sum([g]) == LaurentPoly.monomial(1, m.exps)
    assert grove_from_monomial(EMPTY, m) == g
    assert check_grove(base_grove(EMPTY), 1) is None
    st = stats(g)
    assert (st.n_a, st.n_b, st.n_c) == (0, 1, 0)


def test_enumerations_refuse_a_long_edge_beyond_the_window(monkeypatch):
    # A window copy that counts fewer of its rhombi as bits: the groves that
    # use the others reach past the bits, as no grove may.
    ic = lattice.standard(3)
    low = copy.copy(groves._window(ic, ic.min_cutoff))
    low.bits -= 3
    monkeypatch.setattr(groves, "_window", lambda ic, N: low)
    for enumerate_groves in (enumerate_local_moves, count_local_moves, enumerate_bruteforce):
        with pytest.raises(CorrespondenceMismatch, match="beyond the minimal window") as err:
            enumerate_groves(ic)
        named = [t for t, r in enumerate(low.rhombi) if str(r) in str(err.value)]
        assert named and min(named) >= low.bits, enumerate_groves


def test_enumeration_checks_containment_once_per_ideal(monkeypatch):
    # Enumerated long edges lie in the window, whose build is the only check.
    calls = 0
    contains = InitialConditions.contains_rhombus

    def counted(self, r):
        nonlocal calls
        calls += 1
        return contains(self, r)

    monkeypatch.setattr(InitialConditions, "contains_rhombus", counted)
    ic = lattice.standard(5)
    assert len(enumerate_local_moves(ic)) == 729
    assert calls <= 3 * len(ic.points_in_J()) == 192


def test_local_moves_check_containment_of_every_used_rhombus(monkeypatch):
    # One rhombus that groves use counts as outside the initial conditions.
    # Fresh ideals build their windows without it, so both enumeration (each
    # Grove) and counting (the union of the masks) must refuse it.
    gs = enumerate_local_moves(lattice.gale_robinson(4, 1, 2, 11))
    outside = min(set().union(*(g.long_edges for g in gs)))
    contains = InitialConditions.contains_rhombus
    monkeypatch.setattr(InitialConditions, "contains_rhombus",
                        lambda self, r: r != outside and contains(self, r))
    with pytest.raises(ValueError, match="not contained"):
        enumerate_local_moves(lattice.gale_robinson(4, 1, 2, 11))
    with pytest.raises(ValueError, match="not contained"):
        count_local_moves(lattice.gale_robinson(4, 1, 2, 11))
    with pytest.raises(ValueError, match="not contained"):
        gr_certificate(SOMOS7, 11)


def test_local_moves_name_the_rhombus_that_carries_a_refused_variable(monkeypatch):
    # A variable the walk meets beyond the window stands for the lowest
    # rhombus met for it, the one that carries it in the ideal: counted as
    # outside, that rhombus, and no other, is named.
    used = set().union(*(g.long_edges for g in enumerate_local_moves(lattice.standard(4))))
    contains = InitialConditions.contains_rhombus
    for outside in sorted(used):
        monkeypatch.setattr(InitialConditions, "contains_rhombus",
                            lambda self, r: r != outside and contains(self, r))
        with pytest.raises(ValueError, match=re.escape(f"rhombus {outside} is not contained")):
            count_local_moves(lattice.standard(4))


def test_grove_views_read_the_window_tables(monkeypatch):
    # Once the windows' edge tables are read, no per-grove view recomputes a
    # rhombus's edges.  The tables are built on their first read, so they are
    # read here, before the edges are counted.
    ic = lattice.standard(4)
    gs = enumerate_local_moves(ic)
    for N in (ic.min_cutoff, ic.min_odd_cutoff):
        window = groves._window(ic, N)
        window.long_ends, window.short_ends
    calls = 0

    def counting(method):
        def counted(self):
            nonlocal calls
            calls += 1
            return method(self)
        return counted

    for name in ("long_edge", "short_edge"):
        monkeypatch.setattr(Rhombus, name, counting(getattr(Rhombus, name)))
    for g in gs:
        assert is_acyclic(g) and check_grove(g) is None
        assert from_simplified(to_simplified(g)) == g
        monomial_of(g), stats(g), grove_degrees(g)
    render.render_grove(min(gs, key=grove_key))
    assert calls == 0


LAZY_WINDOW_TABLES = {"index", "pos", "long_ends", "short_ends", "classes"}


@pytest.mark.parametrize("walk", [count_local_moves, enumerate_local_moves])
def test_local_moves_build_only_what_the_walk_reads(walk):
    # The walk reads the minimal window's rhombi and bit count.  The tables
    # that verify and render read wait for their first read, and the rhombi
    # touching the window, two bands past it, are never asked for.
    ic = lattice.kleber(2, 3, 2)
    walk(ic)
    window = groves._window(ic, ic.min_cutoff)
    assert LAZY_WINDOW_TABLES.isdisjoint(vars(window))
    assert ("rhombi", ic.min_cutoff) not in ic._windows
    assert window.long_ends == [
        (window.index[a], window.index[b]) for a, b in map(Rhombus.long_edge, window.rhombi)]
    assert {"index", "long_ends"} <= vars(window).keys()


# Six long edges forming a closed hexagon inside the bulk of standard(4).
HEXAGON = frozenset({
    Rhombus("a", (-1, -1, -1)),
    Rhombus("c", (-1, 0, -2)),
    Rhombus("b", (-2, 0, -1)),
    Rhombus("a", (-3, 0, 0)),
    Rhombus("c", (-2, -1, 0)),
    Rhombus("b", (-1, -2, 0)),
})


def test_is_acyclic():
    assert is_acyclic(base_grove(EMPTY))
    assert is_acyclic(ONE_STEP_GROVE)
    hexagon = Grove(lattice.standard(4), HEXAGON)
    assert not is_acyclic(hexagon)
    assert check_grove(hexagon) is not None


def test_enumeration_counts():
    assert len(enumerate_local_moves(EMPTY)) == 1
    assert len(enumerate_local_moves(ONE_STEP)) == 3
    assert len(enumerate_local_moves(lattice.standard(4))) == 81


def test_all_enumerated_groves_pass_checks():
    for ic in (ONE_STEP, lattice.standard(3), lattice.kleber(2, 2, 2)):
        for g in enumerate_local_moves(ic):
            assert check_grove(g) is None
            assert is_acyclic(g)


def test_stepwise_monomial_sums_match_polynomial():
    # every prefix of the reversed peel sequence is itself a valid upper set,
    # and the running grove family must track the polynomial exactly
    ic = lattice.standard(3)
    order = list(reversed(ic.peel_sequence()))
    for t in range(len(order) + 1):
        prefix = InitialConditions(order[:t])
        total = grove_sum(enumerate_local_moves(prefix))
        assert total == recurrence.f_symbolic(prefix), f"prefix {t}"


def test_bruteforce_oracle():
    assert len(enumerate_bruteforce(EMPTY, N=1)) == 1
    assert len(enumerate_bruteforce(ONE_STEP, N=1)) == 3
    brute = enumerate_bruteforce(lattice.standard(3), N=2)
    local = enumerate_local_moves(lattice.standard(3))
    assert {g.long_edges for g in brute} == {g.long_edges for g in local}
    assert len(brute) == 9
    with pytest.raises(TooLarge):
        enumerate_bruteforce(lattice.standard(4))
    with pytest.raises(ValueError, match="cap must be >= 0, not -1"):
        enumerate_bruteforce(lattice.standard(2), cap=-1)


def test_bruteforce_oracle_random_ics():
    rng = random.Random(47)
    for _ in range(6):
        ic = random_ic(rng, depth=1)
        brute = enumerate_bruteforce(ic, cap=80)
        local = enumerate_local_moves(ic)
        assert {g.long_edges for g in brute} == {g.long_edges for g in local}


def test_local_moves_match_bruteforce_or_count_on_random_ics():
    rng = random.Random(10)
    checked = counted = 0
    for _ in range(16):
        ic = random_ic(rng)
        local = enumerate_local_moves(ic)
        assert count_local_moves(ic) == len(local)
        try:
            brute = enumerate_bruteforce(ic, cap=45)
        except TooLarge:
            assert len(local) == recurrence.f_numeric(ic), ic
            counted += 1
            continue
        assert {g.long_edges for g in brute} == {g.long_edges for g in local}, ic
        checked += 1
    assert checked and counted


def _rhombi(*specs):
    return frozenset(Rhombus(axis, top) for axis, top in specs)


def test_local_move_cases():
    # standard(2) is ONE_STEP: all three short edges at the origin give three
    # successors, each with two of the three long edges moved down.
    a, b, c = ("a", (-1, 0, 0)), ("b", (0, -1, 0)), ("c", (0, 0, -1))
    one_step = {_rhombi(b, c), _rhombi(a, c), _rhombi(a, b)}
    assert lattice.standard(2) == ONE_STEP
    assert {g.long_edges for g in enumerate_local_moves(ONE_STEP)} == one_step
    # Restoring (-1,0,0): a long edge there moves down its free coordinate,
    # and the grove with none there splits in three.
    two = InitialConditions([(0, 0, 0), (-1, 0, 0)])
    a2, b2, c2 = ("a", (-2, 0, 0)), ("b", (-1, -1, 0)), ("c", (-1, 0, -1))
    assert {g.long_edges for g in enumerate_local_moves(two)} == {
        _rhombi(a2, c), _rhombi(a2, b),
        _rhombi(b, c, b2, c2), _rhombi(b, c, a2, c2), _rhombi(b, c, a2, b2),
    }


def _successors(u, long_edges):
    """The case table at u, on rhombus sets."""
    here = {Rhombus(axis, u) for axis in "abc"}
    moved = {Rhombus(axis, u): Rhombus(axis, tuple(x - (t == i) for i, x in enumerate(u)))
             for t, axis in enumerate("abc")}
    present, rest = long_edges & here, long_edges - here
    if not present:
        return [rest | {moved[r] for r in here if r != short} for short in here]
    if len(present) == 1:
        return [rest | {moved[r] for r in present}]
    assert len(present) == 2
    return [rest]


def test_local_moves_follow_the_case_table_on_kleber_222():
    # The last point, (-1,-1,-1), is the first where two long edges meet and
    # collapse to the all-short successor, so there 81 successors are 65 groves.
    ic = lattice.kleber(2, 2, 2)
    order = list(reversed(ic.peel_sequence()))
    before = {frozenset()}
    for t, u in enumerate(order, 1):
        after = {g.long_edges for g in enumerate_local_moves(InitialConditions(order[:t]))}
        succ = [s for cfg in before for s in _successors(u, cfg)]
        assert set(succ) == after, u
        before = after
    assert u == (-1, -1, -1) and (len(succ), len(after)) == (81, 65)


def test_window_views_agree_on_random_ics():
    rng = random.Random(2004)
    for _ in range(16):
        ic = random_ic(rng, depth=1, boxes=4)
        N = ic.min_cutoff
        touching = ic.rhombi_touching_J(N)
        gs = enumerate_local_moves(ic)
        for g in gs:
            assert check_grove(g) is None and is_acyclic(g), (ic, g)
            # Direct count: a window rhombus adds 1 at both ends of the edge g
            # uses on it, a rhombus below the window 1 at its top.
            count = dict.fromkeys(ic.points_in_J(N), 0)
            for r in touching:
                if sum(r.top) < -N:
                    count[r.top] += 1
                    continue
                for p in r.long_edge() if r in g.long_edges else r.short_edge():
                    count[p] += 1
            assert grove_degrees(g) == count, (ic, g)
            x_part = {v[1:]: e for v, e in monomial_of(g).exps if v[0] == TAG_X}
            assert x_part == {p: d - 2 for p, d in count.items() if d != 2}, (ic, g)
            assert _edge_exponents(g) == {r.variable(): 1 for r in g.long_edges}, (ic, g)
            s = to_simplified(g)
            assert from_simplified(s) == g
            assert simplified_components(s) == (3 * s.N + 5) // 2
            degrees = grove_degrees(g)
            assert stats(g).degree == {p: d for p, d in degrees.items() if d != 2}
            m = monomial_of(g)
            degrees.update((p, d + 1) for p, d in degrees.items())
            assert monomial_of(g) == m and grove_degrees(g) != degrees
        assert grove_sum(gs) == recurrence.f_symbolic(ic), ic


def test_cutoff_independence():
    # the same long-edge sets arise at different valid odd cutoffs
    for ic in (ONE_STEP, lattice.standard(3)):
        base_sets = {g.long_edges for g in enumerate_local_moves(ic)}
        for N in (ic.min_odd_cutoff, ic.min_odd_cutoff + 2):
            brute = enumerate_bruteforce(ic, N=N, cap=64)
            assert {g.long_edges for g in brute} == base_sets, f"N={N}"


def test_check_grove_at_larger_cutoffs():
    for N in (1, 2, 3, 5):
        assert check_grove(ONE_STEP_GROVE, N) is None, N
    for g in enumerate_local_moves(lattice.standard(3)):
        assert check_grove(g, 4) is None


def test_stats():
    st = stats(base_grove(EMPTY))
    assert (st.n_a, st.n_b, st.n_c) == (0, 0, 0)
    st = stats(ONE_STEP_GROVE)
    assert (st.n_a, st.n_b, st.n_c) == (1, 0, 1)
    assert st.n_a + st.n_b - st.n_c == 0
    assert st.degree == {(0, -1, 0): 3, (-1, 0, -1): 3, (-1, -1, -1): 1}


def test_degree_bounds_standard5():
    for g in enumerate_local_moves(lattice.standard(5)):
        st = stats(g)
        for v in (st.n_a + st.n_b - st.n_c, st.n_b + st.n_c - st.n_a,
                  st.n_c + st.n_a - st.n_b):
            assert v >= 0 and v % 2 == 0


def test_coeffone_sums():
    for r in EMPTY.rhombi_in_J(1):
        assert coeffone_sums(base_grove(EMPTY), r) == 0
    assert coeffone_sums(ONE_STEP_GROVE, Rhombus("a", (-1, 0, 0))) == -1
    for g in enumerate_local_moves(lattice.standard(4)):
        for r in lattice.standard(4).rhombi_in_J():
            expected = -1 if r in g.long_edges else 0
            assert coeffone_sums(g, r) == expected


def test_coeffone_sums_beyond_window():
    # rhombi too deep to carry a long edge still satisfy the quadrant law
    deep = [r for r in ONE_STEP.rhombi_touching_J(3) if sum(r.top) < -1]
    assert deep
    for g in enumerate_local_moves(ONE_STEP):
        for r in deep:
            assert coeffone_sums(g, r) == 0


def test_quadrant_sums_agree_with_coeffone_sums_on_random_ics():
    # The window check of the coefficient-one law passes, and the monomial
    # route agrees: the quadrant sum at each rhombus is minus its bit, on
    # groves and on random masks alike, as the law is linear in the mask.
    rng = random.Random(4711)
    checked = 0
    for ic in [random_ic(rng, depth=1, boxes=4) for _ in range(12)] + [lattice.kleber(2, 3, 2)]:
        window = groves._window(ic, ic.min_cutoff)
        assert window.quadrant_fault is None, ic
        rhombi = window.rhombi
        masks = [g.mask for g in enumerate_local_moves(ic)]
        masks += [rng.getrandbits(len(rhombi)) for _ in range(len(masks))]
        for mask in masks:
            g = groves._grove(ic, mask)
            for t, r in enumerate(rhombi):
                assert coeffone_sums(g, r) == -(mask >> t & 1), (ic, g, r)
            checked += len(rhombi)
    assert checked > 1000


def test_quadrant_fault_names_the_rhombi_of_a_corrupted_window():
    ic = lattice.standard(3)
    assert groves._window(ic, ic.min_cutoff).quadrant_fault is None
    window = groves._Window(ic, ic.min_cutoff)  # fresh copies, not the memoised window
    r = window.rhombi[0]
    _, x, y = lattice._AXIS[r.axis]
    p = next(i for i, q in enumerate(window.points) if q[x] < r.top[x] and q[y] < r.top[y])
    window.base_degrees = window.base_degrees.copy()
    window.base_degrees[p] += 1
    assert window.quadrant_fault == f"quadrant sum 1 at {r} in the base grove, expected 0"
    # Position 1 carries position 0's variable: its top moved one step down
    # the free coordinate, after the base degrees were built from the sound rhombi.
    window = groves._Window(ic, ic.min_cutoff)
    window.base_degrees = window.base_degrees.copy()
    s = Rhombus(r.axis, lattice._sub(r.top, lattice._UNIT[lattice._AXIS[r.axis][0]]))
    window.rhombi = (r, s, *window.rhombi[2:])
    assert window.quadrant_fault == (
        f"rhombi {r} and {s} carry one edge variable {var_name(r.variable())}")


def test_simplified_roundtrip_and_components():
    g = base_grove(EMPTY)
    s = to_simplified(g, 1)
    assert from_simplified(s) == g
    # edges that call for a long edge beyond the minimal window (radius 0) are refused
    window = groves._window(EMPTY, 1)
    t = window.bits
    flipped = s.edges ^ {window.even_tables[1][t]}
    with pytest.raises(ValueError, match=re.escape(f"{window.rhombi[t]} lies beyond")):
        from_simplified(dataclasses.replace(s, edges=flipped))
    # and so is an edge foreign to the window, not ignored
    s = to_simplified(base_grove(lattice.standard(3)))
    foreign = ((0, 0, 0), (-9, -9, -9))
    with pytest.raises(ValueError, match=re.escape(str(foreign))):
        from_simplified(dataclasses.replace(s, edges=s.edges | {foreign}))
    ic = lattice.standard(4)
    for g in enumerate_local_moves(ic):
        s = to_simplified(g, 3)
        assert from_simplified(s) == g
        assert simplified_components(s) == 7


def test_from_simplified_refuses_edges_no_grove_induces():
    # Flipping one even edge of a grove inside the minimal window calls for a
    # long-edge set that is no grove; each of the 18 flips must be refused.
    ic = lattice.standard(3)
    s = to_simplified(base_grove(ic))
    even_edges = groves._window(ic, s.N).even_tables[1]
    flips = [even_edges[t] for t in range(groves._window(ic, ic.min_cutoff).bits)]
    assert len(flips) == 18
    for e in flips:
        flipped = dataclasses.replace(s, edges=s.edges ^ {e})
        with pytest.raises(ValueError, match="no grove induces"):
            from_simplified(flipped)


def test_from_simplified_gives_back_the_edges_it_was_given():
    # The even edges are pairwise distinct, so the grove from_simplified
    # returns has a bit for exactly each given edge: to_simplified gives them back.
    rng = random.Random(30)
    returned = 0
    for ic in (lattice.standard(3), lattice.standard(4)):
        for N in (ic.min_odd_cutoff, ic.min_odd_cutoff + 2):
            base = to_simplified(base_grove(ic), N)
            even_edges = groves._window(ic, N).even_tables[1]
            sets = [to_simplified(g, N).edges for g in enumerate_local_moves(ic)]
            sets += [s ^ {e} for s in sets[:8] for e in even_edges]
            sets += [s ^ set(rng.sample(even_edges, 2)) for s in sets[:40] for _ in range(8)]
            sets += [frozenset(e for e in even_edges if rng.random() < 0.5) for _ in range(40)]
            for edges in sets:
                try:
                    g = from_simplified(dataclasses.replace(base, edges=edges))
                except ValueError:
                    continue
                assert to_simplified(g, N).edges == edges, (ic, N)
                returned += 1
    assert returned > 2 * (9 + 81)  # more than the groves' own edge sets


def test_simplified_cutoff_validation():
    g = base_grove(lattice.standard(4))
    with pytest.raises(CutoffNotOdd):
        to_simplified(g, 4)
    with pytest.raises(NotACutoff):
        to_simplified(g, 1)


def test_simplified_edges_are_even_and_within_radius():
    ic = lattice.standard(4)
    for g in list(enumerate_local_moves(ic))[:10]:
        s = to_simplified(g, 3)
        for u, v in s.edges:
            assert sum(u) % 2 == 0 and sum(v) % 2 == 0
            assert sum(u) >= -4 and sum(v) >= -4


def test_asm_triangle():
    groves2 = sorted(enumerate_local_moves(lattice.standard(2)), key=grove_key)
    triangles = [asm_triangle(g) for g in groves2]
    for tri in triangles:
        assert [len(row) for row in tri] == [2, 1]
        assert all(e in (-1, 0, 1) for row in tri for e in row)
    key = grove_key(ONE_STEP_GROVE)
    match = [t for g, t in zip(groves2, triangles) if grove_key(g) == key]
    assert match == [[[0, 1], [0]]]
    # order 1: the single base grove has the one-entry triangle [[1]]
    assert asm_triangle(base_grove(lattice.standard(1))) == [[1]]
    for g in enumerate_local_moves(lattice.standard(4)):
        tri = asm_triangle(g)
        assert [len(row) for row in tri] == [4, 3, 2, 1]
        assert all(e in (-1, 0, 1) for row in tri for e in row)


def test_asm_requires_standard_ic():
    with pytest.raises(ValueError):
        asm_triangle(base_grove(lattice.kleber(2, 2, 2)))


def test_degree_table_injective():
    for ic in (lattice.standard(4), lattice.kleber(2, 2, 2)):
        tables = set()
        gs = enumerate_local_moves(ic)
        for g in gs:
            tables.add(tuple(sorted(stats(g).degree.items())))
        assert len(tables) == len(gs)


def test_grove_json():
    obj = groves.grove_to_json(ONE_STEP_GROVE)
    assert obj["long_edges"] == [["a", -1, 0, 0], ["c", 0, 0, -1]]
    assert obj["n"] == [1, 0, 1]
    assert obj["degrees"] == {"(-1,-1,-1)": 1, "(-1,0,-1)": 3, "(0,-1,0)": 3}
    assert groves.grove_from_json(ONE_STEP, obj) == ONE_STEP_GROVE


def test_shift_octa_grove_filter():
    gs = enumerate_local_moves(ONE_STEP)
    kept = [g for g in gs if (lambda s: s.n_a + s.n_b == s.n_c)(stats(g))]
    assert len(kept) == 2


def _x_exponents(g):
    return {v[1:]: e for v, e in monomial_of(g).exps if v[0] == TAG_X}


def _edge_exponents(g):
    """Every other variable of the monomial, which must be the long edges' edge variables."""
    return {v: e for v, e in monomial_of(g).exps if v[0] != TAG_X}


def test_packed_tables_agree_with_the_monomial():
    # The degree tables, the coefficient-one law and the decoded long edges against
    # the monomial route, on a hand-built grove, enumerated groves and masks with a
    # bit flipped.
    rng = random.Random(1203)
    cases = [(EMPTY, [Grove(EMPTY, [Rhombus("b", (0, 0, 0))])])]
    for ic in [random_ic(rng, depth=1, boxes=4) for _ in range(8)] + [lattice.kleber(2, 2, 2)]:
        gs = sorted(enumerate_local_moves(ic), key=grove_key)[:20]
        n = len(groves._window(ic, ic.min_cutoff).rhombi)
        flipped = [groves._grove(ic, g.mask ^ 1 << rng.randrange(n)) for g in gs]
        cases.append((ic, gs + flipped))
    for ic, gs in cases:
        points = ic.points_in_J(ic.min_cutoff)
        for g in gs:
            x = _x_exponents(g)
            assert grove_degrees(g) == {p: 2 + x.get(p, 0) for p in points}, (ic, g)
            assert _edge_exponents(g) == {r.variable(): 1 for r in g.long_edges}, (ic, g)
            for r in ic.rhombi_in_J(ic.min_cutoff):
                assert coeffone_sums(g, r) == -(r in g.long_edges), (ic, g, r)


def test_packed_fields_refuse_values_outside_them():
    assert groves._pack([3, -1, 2], 4, -8, 8) == 3 - (1 << 4) + (2 << 8)
    for values in ([8], [0, -9], [128]):
        with pytest.raises(groves.FieldOverflow):
            groves._pack(values, 4, -8, 8)
    assert issubclass(groves.FieldOverflow, ValueError)
    # Degree bytes hold 0..127; bit 7 stays free for the range test.
    window = groves._window(lattice.standard(3), 2)
    base, _ = window.degree_tables
    assert window.degrees_within(base, 0, 127)
    with pytest.raises(groves.FieldOverflow):
        groves._pack([groves._DEGREE_LIMIT], groves._DEGREE_BITS, 0, groves._DEGREE_LIMIT)
