"""Recurrence evaluators: symbolic, substitution, numeric, and specializations."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_ic
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
)
from cuberec.lattice import InitialConditions
from cuberec.recurrence import (
    MODE_ABC,
    MODE_EDGE_VARS,
    MODE_SHIFT_OCTA,
    CustomMode,
    DivisionByZeroDuringRecursion,
    RecursionEscaped,
    f_numeric,
    f_symbolic,
    f_via_substitution,
    octahedron_check,
)
from cuberec.sequences import GaleRobinsonSpec, gr_terms


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
    custom = CustomMode(a=(1, 1), b=(1, 1), c=(1, -1))
    modes = (MODE_EDGE_VARS, MODE_ABC, MODE_SHIFT_OCTA, custom)
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


def test_numeric_division_by_zero_reports_point():
    assign = {v: 1 for v in ONE_STEP_POLY.variables()} | {xvar(-1, -1, -1): 0}
    with pytest.raises(DivisionByZeroDuringRecursion) as err:
        f_numeric(ONE_STEP, assign)
    assert err.value.point == (-1, -1, -1)


def test_escaped_recursion_raises():
    # Not upward closed: (-1,0,0) lies between the two points, so the step at
    # (-1,-1,-1) needs (-2,-1,-1), which is neither computed nor initial.
    ic = InitialConditions([(0, 0, 0), (-1, -1, -1)], validate=False)
    remainders = laurent.nonzero_remainder_count
    for evaluate_origin in (f_symbolic, f_numeric, f_via_substitution):
        with pytest.raises(RecursionEscaped) as err:
            evaluate_origin(ic)
        assert err.value.point == (-2, -1, -1)
    assert laurent.nonzero_remainder_count == remainders


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


def test_custom_mode_t_parity():
    # a,b -> t and c -> 1/t: the t-exponent of each term is a nonnegative
    # even integer (the long-edge axis count combination).
    mode = CustomMode(a=(1, 1), b=(1, 1), c=(1, -1))
    for ic in (ONE_STEP, lattice.standard(3), lattice.standard(4)):
        poly = f_symbolic(ic, mode)
        rng = poly.exponent_range(laurent.TAG_T)
        if rng is not None:
            assert rng[0] >= 0
        for m in poly.terms():
            t_exp = sum(e for v, e in m.exps if v[0] == laurent.TAG_T)
            assert t_exp >= 0 and t_exp % 2 == 0


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
        assert report.equal, f"transform mismatch for {ic}"
    assert octahedron_check(InitialConditions(())).direct == mono((xvar(0, 0, 0), 1))


def test_symbolic_modes_reject_numeric_mode():
    with pytest.raises(ValueError):
        f_symbolic(ONE_STEP, "all-ones")


def test_x_exponent_range():
    for ic in (ONE_STEP, lattice.standard(4), lattice.kleber(2, 2, 2)):
        lo, hi = f_symbolic(ic).exponent_range(laurent.TAG_X)
        assert lo >= -1 and hi <= 4
