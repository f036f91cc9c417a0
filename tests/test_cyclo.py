from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivlk.cyclo import (CycloNumber, _power_table, cyclotomic_poly,
                          euler_phi, zeta)


def test_euler_phi():
    assert [euler_phi(n) for n in [1, 2, 3, 4, 6, 12, 30]] == [1, 1, 2, 2, 2, 4, 8]


def test_cyclotomic_polys():
    assert list(cyclotomic_poly(1)) == [-1, 1]
    assert list(cyclotomic_poly(4)) == [1, 0, 1]
    assert list(cyclotomic_poly(6)) == [1, -1, 1]
    # Phi_12 = x^4 - x^2 + 1
    assert list(cyclotomic_poly(12)) == [1, 0, -1, 0, 1]


def test_i_squared():
    i = zeta(4)
    assert (i * i).to_fraction() == Fraction(-1)


def test_zeta3_sum():
    z = zeta(3)
    assert (z + z * z).to_fraction() == Fraction(-1)


def test_cross_conductor_equality():
    assert zeta(6) ** 2 == zeta(3)
    assert zeta(8) ** 2 == zeta(4)
    assert zeta(5) ** 5 == CycloNumber.one()


def test_inverse():
    x = zeta(5) + 1
    assert x * x.inverse() == CycloNumber.one()
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero().inverse()


def test_zeta_closed_form_matches_generic_normalization():
    for n in range(1, 121):
        for k in range(n):
            z = CycloNumber.zeta(n, k)
            generic = CycloNumber(n, _power_table(n)[k])
            assert (z.n, z.coeffs) == (generic.n, generic.coeffs), (n, k)


def test_galois_and_conjugate():
    z = zeta(7)
    assert z.galois(3) == zeta(7, 3)
    assert z.conjugate() == zeta(7, 6)
    x = zeta(7) + zeta(7, 6)
    assert x.conjugate() == x  # real


def test_rational_normalization():
    # an expression that collapses to a rational must land at conductor 1
    x = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert x.is_rational and x.to_fraction() == Fraction(-1)


def test_json_roundtrip():
    x = zeta(12) * Fraction(3, 7) - Fraction(2, 5)
    assert CycloNumber.from_json(x.to_json()) == x


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cyclos(draw, n=12):
    coeffs = draw(st.lists(small_rationals, min_size=euler_phi(n),
                           max_size=euler_phi(n)))
    return CycloNumber(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(cyclos())
def test_inverse_hypothesis(a):
    if not a.is_zero:
        assert a * a.inverse() == CycloNumber.one()
