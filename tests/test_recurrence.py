"""Recurrence evaluators: symbolic, substitution, numeric, and specializations."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import balanced_grove_sum, random_ic
from cuberec import groves, lattice, laurent
from cuberec.laurent import (
    ALPHA,
    BETA,
    GAMMA,
    LaurentPoly,
    avar,
    bvar,
    cvar,
    evaluate,
    xvar,
    yvar,
)
from cuberec.lattice import InitialConditions
from cuberec.recurrence import (
    MODE_ABC,
    MODE_EDGE_VARS,
    MODE_SHIFT_OCTA,
    DivisionByZeroDuringRecursion,
    _neighbor_scheme,
    _walk,
    abc_from_edge_vars,
    f_numeric,
    f_symbolic,
    f_via_substitution,
    octahedron_check,
)
from cuberec.sequences import SOMOS6, SOMOS7, GaleRobinsonSpec, _gr_walk, gr_symbolic, gr_terms


def mono(*items):
    return LaurentPoly.monomial(1, items)


ONE_STEP = InitialConditions([(0, 0, 0)])

ONE_STEP_POLY = (
    mono((bvar(0, 0), 1), (cvar(0, 0), 1), (xvar(-1, 0, 0), 1),
         (xvar(0, -1, -1), 1), (xvar(-1, -1, -1), -1))
    + mono((cvar(0, 0), 1), (avar(0, 0), 1), (xvar(0, -1, 0), 1),
           (xvar(-1, 0, -1), 1), (xvar(-1, -1, -1), -1))
    + mono((avar(0, 0), 1), (bvar(0, 0), 1), (xvar(0, 0, -1), 1),
           (xvar(-1, -1, 0), 1), (xvar(-1, -1, -1), -1))
)


def test_base_case():
    assert f_symbolic(InitialConditions(())) == mono((xvar(0, 0, 0), 1))


def test_one_step_polynomial():
    assert f_symbolic(ONE_STEP) == ONE_STEP_POLY


def test_substitution_evaluator_matches():
    assert f_via_substitution(InitialConditions(())) == mono((xvar(0, 0, 0), 1))
    assert f_via_substitution(ONE_STEP) == ONE_STEP_POLY
    for ic in (lattice.standard(3), lattice.standard(4), lattice.kleber(2, 2, 2)):
        assert f_via_substitution(ic) == f_symbolic(ic)


def test_symbolic_matches_grove_sum_on_kleber_233():
    # 1165 groves; long divisions at every point make it a division stress test.
    ic = lattice.kleber(2, 3, 3)
    poly = f_symbolic(ic)
    assert len(poly) == 1165
    assert poly == groves.grove_sum(groves.enumerate_local_moves(ic))


def test_substitution_evaluator_matches_random():
    rng = random.Random(41)
    modes = (MODE_EDGE_VARS, MODE_ABC, MODE_SHIFT_OCTA)
    for _ in range(8):
        ic = random_ic(rng, depth=1)
        for mode in modes:
            assert f_via_substitution(ic, mode) == f_symbolic(ic, mode), (ic, mode)


def test_numeric_examples():
    assert f_numeric(InitialConditions(())) == 1
    assert f_numeric(lattice.standard(6)) == 19683
    assert f_numeric(lattice.gale_robinson(4, 1, 2, 11)) == 41
    # The Gale-Robinson reduction: x(i,j,k) -> y_{4i+j+2k+l} turns the cube
    # recurrence in abc mode into the one-dimensional (4,1,2) recursion.
    rng = random.Random(47)
    for l in range(7, 14):
        y = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(7)]
        alpha, beta, gamma = (
            Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(3)
        )
        assign = {ALPHA: alpha, BETA: beta, GAMMA: gamma}
        for p in itertools.product(range(-l, 1), repeat=3):
            m = 4 * p[0] + p[1] + 2 * p[2] + l
            if 0 <= m < 7:
                assign[xvar(*p)] = y[m]
        spec = GaleRobinsonSpec(4, 1, 2, alpha=alpha, beta=beta, gamma=gamma)
        expected = gr_terms(spec, l + 1, initial=y)[l]
        assert f_numeric(lattice.gale_robinson(4, 1, 2, l), assign, MODE_ABC) == expected


def test_numeric_matches_symbolic_on_random_assignments():
    rng = random.Random(43)
    for ic in (ONE_STEP, lattice.standard(3), lattice.kleber(2, 2, 2)):
        poly = f_symbolic(ic)
        for _ in range(5):
            assign = {
                v: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                for v in poly.variables()
            }
            assert evaluate(poly, assign) == f_numeric(ic, assign)


def test_symbolic_standard6_counts_groves_and_matches_numeric():
    # 3**9 groves, each a distinct term of coefficient 1.
    ic = lattice.standard(6)
    poly = f_symbolic(ic)
    assert len(poly) == 3**9
    assert set(poly.coefficients()) == {1}
    rng = random.Random(6)
    assign = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in poly.variables()}
    assert evaluate(poly, assign) == f_numeric(ic, assign)


def test_numeric_division_by_zero_reports_point():
    assign = {v: 1 for v in ONE_STEP_POLY.variables()} | {xvar(-1, -1, -1): 0}
    with pytest.raises(DivisionByZeroDuringRecursion) as err:
        f_numeric(ONE_STEP, assign)
    assert err.value.point == (-1, -1, -1)


def test_substitution_steps_are_one_kernel_call_each(monkeypatch):
    # No +, no ** and one product kernel call per restored point for its step,
    # plus one inside its substitute.
    ic = lattice.standard(4)
    expected = f_symbolic(ic)
    calls = []
    kernel = laurent._sum_of_products

    def counted(pairs):
        calls.append(1)
        return kernel(pairs)

    def fail(*args):
        raise AssertionError("operator called")

    monkeypatch.setattr(laurent, "_sum_of_products", counted)
    for name in ("__add__", "__radd__", "__pow__"):
        monkeypatch.setattr(LaurentPoly, name, fail)
    got = f_via_substitution(ic)
    monkeypatch.undo()
    assert got == expected
    assert len(calls) == 2 * len(ic.peel_sequence())


def test_every_point_read_is_visited_before_or_initial():
    # Upward closure, checked when an ideal is built, is what keeps each walk
    # inside its initial conditions: a neighbour or the diagonal of a peeled
    # point is peeled before it or initial.  In substitution's reversed order,
    # that is restored after it or initial.  So the walk's leaf sees only
    # initial points, each once.
    rng = random.Random(30)
    ideals = [random_ic(rng, depth=rng.randint(1, 4)) for _ in range(300)]
    ideals += [lattice.standard(n) for n in range(1, 6)]
    ideals += [lattice.kleber(2, 3, 2), lattice.kleber(3, 3, 3)]
    ideals += [lattice.gale_robinson(4, 1, 2, l) for l in range(7, 17)]
    ideals += [lattice.gale_robinson(1, 2, 3, l) for l in range(6, 15)]
    reads = 0
    for ic in ideals:
        peeled = set()
        for w in ic.peel_sequence():
            pairs, d = _neighbor_scheme(w)
            for p in (*itertools.chain.from_iterable(pairs), d):
                assert p in peeled or ic.in_I(p), (ic, w, p)
                reads += 1
            peeled.add(w)
        leaves = []
        value = _walk(ic.peel_sequence(), _neighbor_scheme, lambda p: leaves.append(p) or 1,
                      lambda w: (1, 1, 1), lambda terms, den: 1)
        assert value((0, 0, 0)) == 1
        assert all(map(ic.in_I, leaves)) and len(set(leaves)) == len(leaves), ic
    assert reads > 30_000
    # The Gale-Robinson recursion reads only indices below the one it computes.
    for spec in (SOMOS6, SOMOS7, GaleRobinsonSpec(2, 3, 5)):
        leaves = []
        _gr_walk(spec, 60, lambda m: leaves.append(m) or 1, (1, 1, 1), lambda terms, den: 1)
        assert sorted(leaves) == list(range(spec.n)), spec


def test_abc_mode():
    for ic in (ONE_STEP, lattice.standard(3), lattice.standard(4)):
        poly = f_symbolic(ic, MODE_ABC)
        for tag in (laurent.TAG_ALPHA, laurent.TAG_BETA, laurent.TAG_GAMMA):
            rng = poly.exponent_range(tag)
            assert rng is None or rng[0] >= 0
        # all-ones value is preserved by the transform
        ones = {v: 1 for v in poly.variables()}
        assert evaluate(poly, ones) == f_numeric(ic)
    one_step_abc = f_symbolic(ONE_STEP, MODE_ABC)
    assert one_step_abc == (
        mono((laurent.ALPHA, 1), (xvar(-1, 0, 0), 1), (xvar(0, -1, -1), 1),
             (xvar(-1, -1, -1), -1))
        + mono((laurent.BETA, 1), (xvar(0, -1, 0), 1), (xvar(-1, 0, -1), 1),
               (xvar(-1, -1, -1), -1))
        + mono((laurent.GAMMA, 1), (xvar(0, 0, -1), 1), (xvar(-1, -1, 0), 1),
               (xvar(-1, -1, -1), -1))
    )


def test_abc_walk_matches_both_edge_vars_routes():
    # The direct walk in alpha, beta, gamma against abc_from_edge_vars of the
    # edge-vars walk and of the substitution polynomial.
    rng = random.Random(2018)
    ideals = [lattice.standard(n) for n in range(1, 6)]
    ideals += [lattice.kleber(2, 3, 2), lattice.gale_robinson(4, 1, 2, 12)]
    draws = (random_ic(rng, depth=rng.choice((2, 3))) for _ in itertools.count())
    # Some depth-3 ideals have a million groves.
    ideals += itertools.islice((ic for ic in draws if 1 < f_numeric(ic) <= 800), 20)
    for ic in ideals:
        direct = f_symbolic(ic, MODE_ABC)
        via_walk = abc_from_edge_vars(f_symbolic(ic))
        assert direct == via_walk, ic
        assert laurent.to_json(direct) == laurent.to_json(via_walk), ic
        assert direct == f_via_substitution(ic, MODE_ABC), ic


def test_shift_octa_examples():
    assert f_symbolic(InitialConditions(()), MODE_SHIFT_OCTA) == mono((xvar(0, 0, 0), 1))
    expected = (
        mono((xvar(-1, 0, 0), 1), (xvar(0, -1, -1), 1), (xvar(-1, -1, -1), -1))
        + mono((xvar(0, -1, 0), 1), (xvar(-1, 0, -1), 1), (xvar(-1, -1, -1), -1))
    )
    assert f_symbolic(ONE_STEP, MODE_SHIFT_OCTA) == expected


def test_octahedron_check():
    for ic in (InitialConditions(()), ONE_STEP, lattice.standard(3), lattice.standard(4)):
        report = octahedron_check(ic)
        assert report.equal, f"walk and substitution differ for {ic}"
    assert octahedron_check(InitialConditions(())).direct == mono((xvar(0, 0, 0), 1))


def test_shift_octa_is_the_octahedron_recurrence():
    # In (x, y, z) = (i+j, i-k, j-k) the two-term recurrence is the octahedron
    # recurrence g[x,y,z] g[x-2,y,z] = g[x-1,y-1,z] g[x-1,y+1,z] + g[x-1,y,z-1] g[x-1,y,z+1]
    # (Speyer): its five neighbours are the walk's first two pairs and its diagonal.
    def to_lattice(g):
        x, y, z = g
        assert (x + y + z) % 2 == 0, g
        return ((x + y - z) // 2, (x - y + z) // 2, (x - y - z) // 2)

    for w in itertools.product(range(-6, 1), repeat=3):
        i, j, k = w
        x, y, z = i + j, i - k, j - k
        assert to_lattice((x, y, z)) == w
        g_pairs = (((x - 1, y - 1, z), (x - 1, y + 1, z)),
                   ((x - 1, y, z - 1), (x - 1, y, z + 1)))
        pairs, d = _neighbor_scheme(w)
        assert tuple(tuple(map(to_lattice, pair)) for pair in g_pairs) == pairs[:2], w
        assert to_lattice((x - 2, y, z)) == d, w


def test_two_term_routes_agree_on_random_ideals():
    # Walk, substitution and balanced groves; f_numeric at a positive point,
    # where no two-term value vanishes.
    rng = random.Random(2007)
    draws = (random_ic(rng, depth=rng.choice((2, 3))) for _ in itertools.count())
    # Some depth-3 ideals have a million groves.
    ideals = itertools.islice((ic for ic in draws if 1 < f_numeric(ic) <= 800), 30)
    for ic in ideals:
        walk = f_symbolic(ic, MODE_SHIFT_OCTA)
        assert walk == f_via_substitution(ic, MODE_SHIFT_OCTA), ic
        assert walk == balanced_grove_sum(ic, groves.enumerate_local_moves(ic)), ic
        # Every point the walk reads lies within one step of u_fin, inside [-4, 0]^3.
        point = {xvar(*p): Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for p in itertools.product(range(-4, 1), repeat=3)}
        assert f_numeric(ic, point, MODE_SHIFT_OCTA) == evaluate(walk, point), ic


def test_symbolic_modes_reject_numeric_mode():
    with pytest.raises(ValueError):
        f_symbolic(ONE_STEP, "all-ones")


def test_all_ones_sets_every_variable_to_one():
    # An assignment would have been read in edge-vars mode: 24 with every variable 2.
    ic = lattice.standard(2)
    every_two = {v: 2 for v in f_symbolic(ic).variables()}
    assert f_numeric(ic, every_two) == 24
    assert f_numeric(ic) == 3
    # All ones is no assignment, not a library mode; the CLI's all-ones mode calls f_numeric(ic).
    with pytest.raises(ValueError, match="unsupported mode 'all-ones'"):
        f_numeric(ic, None, "all-ones")


def test_an_unsupported_mode_is_refused_where_no_point_is_walked():
    # The empty ideal walks no point, so only a check on entry sees the mode.
    empty = InitialConditions(())
    for evaluate_in in (f_symbolic, f_via_substitution,
                        lambda ic, mode: f_numeric(ic, None, mode)):
        with pytest.raises(ValueError, match="unsupported mode 'bogus'"):
            evaluate_in(empty, "bogus")


def test_x_exponent_range():
    for ic in (ONE_STEP, lattice.standard(4), lattice.kleber(2, 2, 2)):
        lo, hi = f_symbolic(ic).exponent_range(laurent.TAG_X)
        assert lo >= -1 and hi <= 4


def test_exponent_range_counts_a_missing_variable_as_zero():
    # Some term of the abc polynomial has no alpha, so alpha's range reaches 0.
    assert f_symbolic(lattice.standard(4), MODE_ABC).exponent_range(laurent.TAG_ALPHA) == (0, 4)
    poly = mono((xvar(0, 0, 0), 2), (yvar(1), 1)) + mono((xvar(0, 0, 0), 2))
    assert poly.exponent_range(laurent.TAG_X) == (2, 2)
    assert poly.exponent_range(laurent.TAG_Y) == (0, 1)
    assert poly.exponent_range(laurent.TAG_ALPHA) is None
    assert LaurentPoly.zero().exponent_range(laurent.TAG_X) is None


class RandomPoint(dict):
    """Every variable is assigned: a seeded nonzero rational of either sign, drawn on first read."""

    def __init__(self, rng: random.Random):
        super().__init__()
        self.rng = rng

    def __contains__(self, v):
        return True

    def __missing__(self, v):
        x = self[v] = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 3),
                               self.rng.randint(1, 2))
        return x


def test_numeric_matches_symbolic_across_modes_and_signs():
    rng = random.Random(2004)
    modes = (MODE_EDGE_VARS, MODE_ABC, MODE_SHIFT_OCTA)
    agreed = vanished = 0
    for _ in range(40):
        ic = random_ic(rng, depth=1)
        for mode in modes:
            poly = f_symbolic(ic, mode)
            for _ in range(6):
                point = RandomPoint(rng)
                try:
                    value = f_numeric(ic, point, mode)
                except DivisionByZeroDuringRecursion as err:
                    # Every assigned value is nonzero, so a computed one vanished.
                    assert err.point in ic.u_fin
                    vanished += 1
                    continue
                assert value == evaluate(poly, point), (ic, mode)
                agreed += 1
    assert vanished > 0 and agreed > 20 * vanished, (agreed, vanished)


def test_gr_terms_match_symbolic_terms_at_signed_points():
    rng = random.Random(2005)
    agreed = 0
    for p, q, r, top in ((1, 2, 3, 13), (4, 1, 2, 13), (2, 3, 5, 16)):
        n = p + q + r
        for _ in range(4):
            coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
            coeffs[rng.randrange(3)] *= -1
            initial = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                       for _ in range(n)]
            spec = GaleRobinsonSpec(p, q, r, *coeffs)
            point = {yvar(m): initial[m] for m in range(n)}
            point.update(zip((ALPHA, BETA, GAMMA), coeffs))
            terms = gr_terms(spec, top + 1, initial)
            for l in range(top + 1):
                assert terms[l] == evaluate(gr_symbolic(spec, l), point), (spec, l)
                agreed += 1
    assert agreed == 4 * (14 + 14 + 17)


def test_computed_zero_diagonal_value_reports_point():
    # With every other variable 1, the value computed at (-1,-1,-1) is
    # (1 + 1 - 2) / 1 = 0, and (0,0,0) divides by it.
    ic = lattice.standard(5)
    assign = {v: 1 for v in f_symbolic(ic).variables()} | {xvar(-2, -2, -1): -2}
    with pytest.raises(DivisionByZeroDuringRecursion) as err:
        f_numeric(ic, assign)
    assert err.value.point == (-1, -1, -1)
    assert str(err.value) == "recurrence value vanished at (-1, -1, -1)"


def test_unassigned_variable_only_when_read():
    step = dict.fromkeys(ONE_STEP_POLY.variables(), Fraction(2))
    for missing in ONE_STEP_POLY.variables():
        with pytest.raises(laurent.UnassignedVariable) as err:
            f_numeric(ONE_STEP, {v: x for v, x in step.items() if v != missing})
        assert err.value.args == (laurent.var_name(missing),)
    # A zero a(0,0) kills the second and third terms, whose four points are then never read.
    unread = {xvar(0, -1, 0), xvar(-1, 0, -1), xvar(0, 0, -1), xvar(-1, -1, 0)}
    assign = {v: x for v, x in step.items() if v not in unread} | {avar(0, 0): 0}
    assert f_numeric(ONE_STEP, assign) == 8  # b*c * x(-1,0,0) * x(0,-1,-1) / x(-1,-1,-1)
    # Shift-octa reads no edge variable.
    octa = {v: x for v, x in step.items() if v[0] == laurent.TAG_X}
    assert f_numeric(ONE_STEP, octa, MODE_SHIFT_OCTA) == 4  # (2*2 + 2*2) / 2


def test_numeric_standard_grove_counts_to_order_30():
    for n in range(7, 31):
        assert f_numeric(lattice.standard(n)) == 3 ** (n * n // 4), f"order {n}"
