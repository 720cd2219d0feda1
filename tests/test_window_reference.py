"""The window layer against its definitions.

points_in_J reads one initial point off each (1,1,1) line, at the line's
depth, and rhombi_in_J and rhombi_touching_J join bands of tops, each band
built once by whichever asks first.  The reference here is the definition
instead: every point of the cube through in_I, and every (axis, point) of
the window through contains_rhombus.  Both must give equal tuples, order
included, in either order of asking.  height() reads the same depths; its
reference is the walk down the line while the point is in u_fin.

The coefficient-one window check reads only the base sums and the edge
variables; the ordered scan over every rhombus and every long edge's change
is the reference, on windows corrupted at random.  The half it leaves out
is an identity, tested here on the window tables: a long edge changes the
quadrant sum at t by -1 when it carries t's variable, else 0.  So is the
distinctness of even edges.  The simplified property counts components over
window-index pairs; to_simplified and simplified_components are the
reference.
"""

import itertools
import math
import random

import pytest

from conftest import random_ic, small_cutoff_family
from cuberec import groves, lattice
from cuberec.lattice import _AXIS, AXES, NotACutoff, Rhombus


def reference_windows(ic, N):
    """points_in_J, rhombi_touching_J and rhombi_in_J at radius N, by their definition."""
    lo = -N - 2
    cube = itertools.product(range(lo, 1), repeat=3)  # in sorted order
    points = tuple(p for p in cube if sum(p) >= lo and ic.in_I(p))
    rhombi = (Rhombus(axis, p) for axis in AXES for p in points)
    touching = tuple(r for r in rhombi if ic.contains_rhombus(r))
    return points, touching, tuple(r for r in touching if sum(r.top) >= -N)


def fixed_ideals():
    """Named ideals: the small-cutoff family, then the presets."""
    named = {f"small{t}": ic for t, ic in enumerate(small_cutoff_family())}
    named.update({f"standard{n}": lattice.standard(n) for n in range(1, 8)})
    named["kleber333"] = lattice.kleber(3, 3, 3)
    named.update({f"gr412-{l}": lattice.gale_robinson(4, 1, 2, l) for l in range(13, 17)})
    return named


def random_ideals():
    rng = random.Random(1717)
    return [random_ic(rng, depth) for depth in (2, 3) for _ in range(80)]


def assert_windows_match(ic, radii, inner_first=False):
    """Each radius against the definition; rhombi_in_J asked first when inner_first."""
    for N in radii:
        if inner_first:
            inner = ic.rhombi_in_J(N)
            built = ic.points_in_J(N), ic.rhombi_touching_J(N), inner
        else:
            built = ic.points_in_J(N), ic.rhombi_touching_J(N), ic.rhombi_in_J(N)
        assert built == reference_windows(ic, N), (ic, N)


@pytest.mark.parametrize("name", fixed_ideals())
def test_windows_match_the_definition_on_fixed_ideals(name):
    ic = fixed_ideals()[name]
    least = ic.min_cutoff
    assert_windows_match(ic, range(least, least + 6))


def test_windows_match_the_definition_on_random_ideals():
    ideals = random_ideals()
    assert len(ideals) >= 150
    for ic in ideals:
        least = ic.min_cutoff
        assert_windows_match(ic, range(least, least + 6))


def test_windows_asked_first_far_above_the_least_cutoff():
    # A fresh ideal builds every radius up to the one asked for, with no
    # recursion; the radii below then read back what was built.
    ic = lattice.kleber(2, 3, 2)
    far = ic.min_cutoff + 40
    assert_windows_match(ic, [far])
    assert_windows_match(ic, [ic.min_cutoff, far - 1])


def test_windows_in_any_order_of_radii():
    rng = random.Random(17)
    for ic in random_ideals()[:20]:
        radii = list(range(ic.min_cutoff, ic.min_cutoff + 6))
        rng.shuffle(radii)
        assert_windows_match(ic, radii)


@pytest.mark.parametrize("name", fixed_ideals())
def test_windows_with_the_inner_rhombi_asked_first_on_fixed_ideals(name):
    # Fresh ideals: rhombi_in_J builds the bands down to -N, and
    # rhombi_touching_J then adds the two below them.
    ic = fixed_ideals()[name]
    least = ic.min_cutoff
    assert_windows_match(ic, range(least, least + 6), inner_first=True)


def test_windows_with_the_inner_rhombi_asked_first_on_random_ideals():
    rng = random.Random(19)
    for ic in random_ideals():
        radii = list(range(ic.min_cutoff, ic.min_cutoff + 6))
        rng.shuffle(radii)
        assert_windows_match(ic, radii, inner_first=True)


def reference_height(ic, p):
    """The h with p + (h,h,h) initial, walking down from the line's wall point."""
    h = -max(p)
    while (p[0] + h, p[1] + h, p[2] + h) in ic.u_fin:
        h -= 1
    return h


def test_height_reads_the_line_depths():
    ideals = list(fixed_ideals().values()) + random_ideals()
    for ic in ideals:
        lo = -ic.min_cutoff - 4
        for p in itertools.product(range(lo, 2), repeat=3):
            assert ic.height(p) == reference_height(ic, p), (ic, p)


def test_window_below_the_least_cutoff_is_refused():
    ic = lattice.standard(4)
    for build in (ic.points_in_J, ic.rhombi_touching_J, ic.rhombi_in_J):
        with pytest.raises(NotACutoff):
            build(ic.min_cutoff - 1)


def quadrant_scan(window):
    """The coefficient-one window check as an ordered scan over t, then u."""
    n, points, base = window.bits, window.points, window.base_degrees
    rhombi, ends = window.rhombi[:n], list(zip(window.long_ends[:n], window.short_ends[:n]))
    for t, r in enumerate(rhombi):
        _, x, y = _AXIS[r.axis]
        tx, ty = r.top[x], r.top[y]
        inside = [p[x] < tx and p[y] < ty for p in points]
        s = sum(d - 2 for d, q in zip(base, inside) if q)
        if s:
            return f"quadrant sum {s} at {r} in the base grove, expected 0"
        for u, ((a, b), (c, d)) in enumerate(ends):
            change = inside[a] + inside[b] - inside[c] - inside[d]
            if change != -(t == u):
                return (f"the long edge of {rhombi[u]} changes the quadrant sum at {r} "
                        f"by {change}, expected {-(t == u)}")
    return None


def corrupt(window, rng):
    """Change one or two base degrees of a window at random."""
    size = len(window.points)
    for _ in range(rng.randint(1, 2)):
        degrees = window.base_degrees.copy()
        degrees[rng.randrange(size)] = rng.choice([0, 1, 3, 4, 6, 12, 40, 300])
        window.base_degrees = degrees


def test_coeffone_window_check_names_what_the_scan_names():
    rng = random.Random(2024)
    ideals = [lattice.standard(n) for n in range(1, 6)] + [lattice.kleber(2, 3, 2)]
    ideals += [random_ic(rng, depth) for depth in (2, 3) for _ in range(10)]
    kinds = set()
    for ic in ideals:
        assert groves._Window(ic, ic.min_cutoff).quadrant_fault is None
        for _ in range(12):
            window = groves._Window(ic, ic.min_cutoff)
            if window.bits == 0:
                continue
            corrupt(window, rng)
            want = quadrant_scan(window)
            assert window.quadrant_fault == want, ic
            kinds.add(want.split()[0] if want else None)
    assert kinds == {"quadrant", None}


def test_coeffone_window_check_passes_sound_windows_by_itself():
    rng = random.Random(2027)
    ideals = list(fixed_ideals().values()) + [random_ic(rng, depth) for depth in (2, 3, 4)
                                              for _ in range(20)]
    for ic in ideals:
        for N in (ic.min_cutoff, ic.min_odd_cutoff):
            assert groves._Window(ic, N).quadrant_fault is None, (ic, N)


def test_coeffone_window_check_is_exact_where_narrow_fields_would_cancel():
    # Base degrees changed at two points by amounts whose quadrant sums,
    # packed v bits wide, cancel: a check that packed the sums into fields
    # that narrow would pass these windows, which the scan finds at fault.
    rng = random.Random(2026)
    for ic in (lattice.standard(4), lattice.kleber(2, 3, 2), lattice.gale_robinson(4, 1, 2, 13)):
        for v in (1, 2, 3, 4):
            window = groves._Window(ic, ic.min_cutoff)
            fields = [0] * len(window.points)
            for t, r in enumerate(window.rhombi[:window.bits]):
                _, x, y = _AXIS[r.axis]
                for i, p in enumerate(window.points):
                    if p[x] < r.top[x] and p[y] < r.top[y]:
                        fields[i] += 1 << v * t
            a, b = rng.sample([i for i, f in enumerate(fields) if f], 2)
            while fields[a] == fields[b]:
                a, b = rng.sample([i for i, f in enumerate(fields) if f], 2)
            g = math.gcd(fields[a], fields[b])
            degrees = window.base_degrees.copy()
            degrees[a] += fields[b] // g
            degrees[b] -= fields[a] // g
            window.base_degrees = degrees
            want = quadrant_scan(window)
            assert want is not None and window.quadrant_fault == want


def quadrant_identity_holds(window):
    """Every pair (t, u) of window positions: the long edge at u changes the
    quadrant sum at t by -1 when the two carry one edge variable, else 0."""
    points, rhombi = window.points, window.rhombi
    ends = list(zip(window.long_ends, window.short_ends))
    for r in rhombi:
        _, x, y = _AXIS[r.axis]
        inside = [p[x] < r.top[x] and p[y] < r.top[y] for p in points]
        v = r.variable()
        for s, ((a, b), (c, d)) in zip(rhombi, ends):
            if inside[a] + inside[b] - inside[c] - inside[d] != -(s.variable() == v):
                return False
    return True


@pytest.mark.parametrize("name", fixed_ideals())
def test_a_long_edge_changes_only_the_quadrant_sums_of_its_variable_on_fixed_ideals(name):
    ic = fixed_ideals()[name]
    for N in (ic.min_cutoff, ic.min_cutoff + 2):
        assert quadrant_identity_holds(groves._window(ic, N)), N


def test_a_long_edge_changes_only_the_quadrant_sums_of_its_variable_on_random_ideals():
    for ic in random_ideals():
        for N in (ic.min_cutoff, ic.min_cutoff + 2):
            assert quadrant_identity_holds(groves._window(ic, N)), (ic, N)


def test_even_edges_are_distinct():
    # An even edge fixes its rhombus, so no two rhombi share one, in the
    # cube of tops and in the windows the simplified property reads.
    cube = itertools.product(range(-7, 1), repeat=3)
    rhombi = [Rhombus(axis, top) for top in cube for axis in AXES]
    edges = {r.short_edge() if sum(r.top) % 2 == 0 else r.long_edge() for r in rhombi}
    assert len(edges) == len(rhombi) == 1536
    for ic in fixed_ideals().values():
        _, edges, even_bit, _ = groves._window(ic, ic.min_odd_cutoff).even_tables
        assert len(even_bit) == len(edges), ic


def test_simplified_property_counts_what_simplified_components_counts():
    rng = random.Random(2025)
    ideals = [lattice.standard(n) for n in (3, 4, 5)] + [lattice.kleber(2, 3, 2)]
    ideals += [random_ic(rng) for _ in range(20)]
    counts = set()
    for ic in ideals:
        window = groves._window(ic, ic.min_odd_cutoff)
        masks = sorted(groves._local_move_masks(ic))
        # Masks with a flipped bit are mostly not groves, with other counts.
        flipped = [m ^ 1 << rng.randrange(len(window.rhombi))
                   for m in rng.sample(masks, min(len(masks), 3))]
        for mask in masks + flipped:
            g = groves._grove(ic, mask)
            want = groves.simplified_components(groves.to_simplified(g))
            assert window.even_components(mask) == want, (ic, g)
            counts.add(want - (3 * window.N + 5) // 2)
    assert len(counts) > 1


def test_no_grove_has_an_even_edge_past_the_minimal_window():
    # At the least odd cutoff N the positions past `bits` are the band of top
    # sum -N, which is odd, so each one's even edge is its long edge; no grove
    # sets those bits, so flip has none of them and every grove's even edges
    # lie below `bits`.
    rng = random.Random(2026)
    ideals = list(fixed_ideals().values()) + [random_ic(rng, depth=3) for _ in range(60)]
    extended = 0
    for ic in ideals:
        window = groves._window(ic, ic.min_odd_cutoff)
        assert all(sum(r.top) == -window.N for r in window.rhombi[window.bits:]), ic
        assert window.even_tables[0] >> window.bits == 0, ic
        extended += len(window.rhombi) > window.bits
    assert extended > 10, extended
