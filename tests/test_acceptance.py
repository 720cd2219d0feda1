"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line once its assertions hold (visible with
``pytest -s`` or via the captured-output sections of a failing run).
"""

import random
from functools import lru_cache

import pytest

from conftest import small_cutoff_family
from cuberec import laurent, lattice, recurrence, sequences
from cuberec import groves as gv
from cuberec.lattice import InitialConditions


@pytest.fixture(scope="module", autouse=True)
def division_failure_baseline():
    # Laurent unit tests exercise the error path on purpose; only divisions
    # performed by this suite count for the stress criterion.
    return laurent.nonzero_remainder_count


def _sample_small_ics(count: int = 10) -> list[InitialConditions]:
    rng = random.Random(20020)
    family = small_cutoff_family()
    return [rng.choice(family) for _ in range(count)]


def _criterion_2_ics() -> list[InitialConditions]:
    fixed = [
        InitialConditions(()),
        InitialConditions([(0, 0, 0)]),
        lattice.standard(2),
        lattice.standard(3),
    ]
    return fixed + _sample_small_ics()


def _criterion_3_ics() -> list[InitialConditions]:
    return [lattice.standard(n) for n in range(1, 6)] + [
        lattice.kleber(2, 2, 2),
        lattice.kleber(2, 3, 2),
    ]


@lru_cache(maxsize=None)
def _groves_of(ic: InitialConditions) -> tuple:
    return tuple(sorted(gv.enumerate_local_moves(ic), key=lambda g: g.sorted_long_edges()))


@lru_cache(maxsize=None)
def _f_of(ic: InitialConditions):
    return recurrence.f_symbolic(ic)


def _all_tested_ics() -> list[InitialConditions]:
    seen = []
    for ic in _criterion_2_ics() + _criterion_3_ics():
        if ic not in seen:
            seen.append(ic)
    return seen


def test_criterion_01_standard_grove_counts():
    for n in range(2, 7):
        expected = 3 ** (n * n // 4)
        assert recurrence.f_numeric(lattice.standard(n)) == expected, f"order {n}"
    print("criterion 1: PASS - all-ones values for orders 2..6 are 3, 9, 81, 729, 19683")


def test_criterion_02_oracle_equivalence():
    tested = 0
    for ic in _criterion_2_ics():
        local = _groves_of(ic)
        brute = gv.enumerate_bruteforce(ic, cap=18)
        assert {g.long_edges for g in local} == {g.long_edges for g in brute}, ic
        f_sym = _f_of(ic)
        assert gv.grove_sum(local) == f_sym, ic
        assert recurrence.f_via_substitution(ic) == f_sym, ic
        tested += 1
    assert tested >= 14
    print(f"criterion 2: PASS - brute force and local moves agree on {tested} ideals")


def test_criterion_03_coefficient_one_and_injectivity():
    for ic in _criterion_3_ics():
        f = _f_of(ic)
        assert set(f.coefficients()) == {1}, ic
        tables = {
            tuple(sorted(gv.stats(g).degree.items())) for g in _groves_of(ic)
        }
        assert len(tables) == len(_groves_of(ic)), ic
    print("criterion 3: PASS - unit coefficients and injective degree tables")


def test_criterion_04_exponent_and_degree_bounds():
    for ic in _all_tested_ics():
        rng = _f_of(ic).exponent_range(laurent.TAG_X)
        assert rng is not None and rng[0] >= -1 and rng[1] <= 4, ic
        for g in _groves_of(ic):
            degrees = gv.grove_degrees(g).values()
            assert min(degrees) >= 1 and max(degrees) <= 6, ic
    print("criterion 4: PASS - exponents within [-1,4], degrees within [1,6]")


def test_criterion_05_triangle_inequality_and_parity():
    for ic in _all_tested_ics():
        for g in _groves_of(ic):
            st = gv.stats(g)
            for v in (st.n_a + st.n_b - st.n_c, st.n_b + st.n_c - st.n_a,
                      st.n_c + st.n_a - st.n_b):
                assert v >= 0 and v % 2 == 0, ic
        recurrence.abc_from_edge_vars(_f_of(ic))  # must not raise
    print("criterion 5: PASS - axis-count combinations nonnegative and even; "
          "coefficient exponents integral")


def test_criterion_06_acyclicity():
    for ic in _all_tested_ics():
        for g in _groves_of(ic):
            assert gv.is_acyclic(g), ic
    print("criterion 6: PASS - every enumerated grove is acyclic")


def test_criterion_07_window_counting():
    rng = random.Random(20021)
    ics = [InitialConditions(())]
    while len(ics) < 11:
        pts = set()
        for _ in range(rng.randint(0, 3)):
            p = tuple(rng.randint(-2, 0) for _ in range(3))
            pts.update(
                (a, b, c)
                for a in range(p[0], 1)
                for b in range(p[1], 1)
                for c in range(p[2], 1)
            )
        ics.append(InitialConditions(pts))
    for ic in ics:
        for N in range(0, 9):
            if not ic.is_cutoff(N):
                continue
            assert len(ic.points_in_J(N)) == gv.window_point_count(N)
            assert len(ic.rhombi_in_J(N)) == gv.window_rhombus_count(N)
    print("criterion 7: PASS - window point and rhombus counts match the "
          "formulas for N = 0..8 on 11 ideals")


def test_criterion_08_simplified_grove_bijection():
    ic = lattice.standard(4)
    for g in _groves_of(ic):
        s = gv.to_simplified(g, 3)
        assert gv.from_simplified(s) == g
        assert gv.simplified_components(s) == 7
    print("criterion 8: PASS - simplified-grove round trip and 7 components "
          "for all 81 groves")


def test_criterion_09_gale_robinson():
    for spec in (sequences.SOMOS6, sequences.SOMOS7):
        assert all(sequences.is_integral(t) for t in sequences.gr_terms(spec, 15))
    expected = {7: 3, 8: 5, 9: 9, 10: 17, 11: 41}
    for l, value in expected.items():
        cert = sequences.gr_certificate(sequences.SOMOS7, l)
        assert cert.count_match and cert.grove_count == value, l
    for l in range(10):
        poly = sequences.gr_symbolic(sequences.SOMOS7, l)
        assert all(c > 0 for c in poly.coefficients()), l
        for tag in (laurent.TAG_ALPHA, laurent.TAG_BETA, laurent.TAG_GAMMA):
            rng = poly.exponent_range(tag)
            assert rng is None or rng[0] >= 0, l
        assert poly == sequences.gr_renamed_cube_poly(sequences.SOMOS7, l), l
    print("criterion 9: PASS - integral Somos terms, grove counts 3,5,9,17,41 "
          "for l=7..11, nonnegative symbolic coefficients for l<=9")


def test_criterion_10_octahedron_specialization():
    for n in range(1, 5):
        ic = lattice.standard(n)
        report = recurrence.octahedron_check(ic)
        assert report.equal, n
        filtered = laurent.LaurentPoly.zero()
        for g in _groves_of(ic):
            st = gv.stats(g)
            if st.n_a + st.n_b == st.n_c:
                m = gv.monomial_of(g)
                filtered = filtered + laurent.drop_variables(
                    laurent.LaurentPoly.monomial(m.coeff, m.exps),
                    (laurent.TAG_A, laurent.TAG_B, laurent.TAG_C),
                )
        assert filtered == report.direct, n
    print("criterion 10: PASS - two-term specialization matches the substitution "
          "route and the filtered grove sum for orders 1..4")


def test_criterion_11_exact_division_never_failed(division_failure_baseline):
    # Re-exercise representative division-heavy paths, then confirm that no
    # exact division performed by this suite saw a nonzero remainder.
    recurrence.f_symbolic(lattice.standard(3))
    recurrence.f_via_substitution(lattice.standard(3))
    recurrence.octahedron_check(lattice.standard(3))
    sequences.gr_symbolic(sequences.SOMOS7, 8)
    assert laurent.nonzero_remainder_count == division_failure_baseline
    print("criterion 11: PASS - no exact division reported a nonzero remainder")
