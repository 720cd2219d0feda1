"""Ring laws of the Laurent arithmetic as hypothesis properties.

Skipped when hypothesis is not installed; the seeded tests in
``test_laurent.py`` cover the same laws on fixed examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cuberec import laurent  # noqa: E402
from cuberec.laurent import ALPHA, T, LaurentPoly, avar, div_exact, xvar  # noqa: E402

POOL = [xvar(0, 0, 0), xvar(-1, 0, 0), avar(0, -1), T, ALPHA]

exponent_maps = st.lists(
    st.tuples(st.sampled_from(POOL), st.integers(-40, 40)), max_size=4
)
polys = st.builds(
    LaurentPoly,
    st.lists(st.tuples(st.integers(-50, 50), exponent_maps), max_size=5),
)
nonzero_polys = polys.filter(bool)
nonzero_coeffs = st.integers(-9, 9).filter(bool)
monomials = st.builds(LaurentPoly.monomial, nonzero_coeffs, exponent_maps)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@SETTINGS
@given(polys, nonzero_polys)
def test_div_exact_inverts_mul(p, q):
    assert div_exact(p * q, q) == p


@SETTINGS
@given(polys, monomials)
def test_div_exact_by_a_monomial_inverts_mul(p, m):
    assert div_exact(p * m, m) == p


@SETTINGS
@given(polys, monomials, monomials)
def test_div_exact_by_a_monomial_refuses_a_non_multiple(p, m, r):
    # The coefficient of p*m + r at r's key is r's plus a multiple of m's.
    (c_m,) = m.coefficients()
    (c_r,) = r.coefficients()
    assume(c_r % c_m != 0)
    before = laurent.nonzero_remainder_count
    with pytest.raises(laurent.NonzeroRemainder):
        div_exact(p * m + r, m)
    assert laurent.nonzero_remainder_count == before + 1


@SETTINGS
@given(polys, polys, polys)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@SETTINGS
@given(polys)
def test_json_round_trip(p):
    assert laurent.from_json(laurent.to_json(p)) == p
