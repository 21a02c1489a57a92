"""Exact scalar arithmetic and polynomial ring checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holriem.scalars import CPoly, ONE, ZERO, gr

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.builds(gr, small_fractions, small_fractions)
nonzero_scalars = scalars.filter(bool)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@settings(max_examples=60, deadline=None)
@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == ONE
    assert (ONE / a) * a == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_powers():
    assert gr(0, 1) ** 2 == gr(-1)
    assert gr(2) ** -1 == gr(Fraction(1, 2))
    assert gr(1, 1) ** 0 == ONE


def test_canonical_rendering():
    assert str(gr(0)) == "0"
    assert str(gr(Fraction(-3, 2))) == "-3/2"
    assert str(gr(0, 1)) == "i"
    assert str(gr(0, -1)) == "-i"
    assert str(gr(0, Fraction(3, 4))) == "3/4 i"
    assert str(gr(Fraction(1, 2), 1)) == "1/2 + i"
    assert str(gr(Fraction(1, 2), Fraction(-3, 4))) == "1/2 - 3/4 i"


def test_maxabs_zero_iff_zero():
    assert gr(0).maxabs() == 0
    assert gr(Fraction(-1, 3), 2).maxabs() == 2


# -- polynomials -------------------------------------------------------------


def test_poly_basic_arithmetic():
    t = CPoly.x()
    p = t * t - 1
    assert p(gr(2)) == gr(3)
    assert p(gr(0, 1)) == gr(-2)
    assert (p + 1)(gr(5)) == gr(25)
    assert (-p).coeffs == tuple(-c for c in p.coeffs)


def test_poly_trailing_zeros_stripped():
    p = CPoly((gr(1), gr(0), gr(0)))
    assert p.degree == 0
    assert CPoly(()).is_zero()
    assert CPoly(()).degree == -1


def test_poly_divmod_and_gcd():
    t = CPoly.x()
    p = (t - 1) * (t - 1) * (t + 2)
    q, r = divmod(p, t - 1)
    assert r.is_zero()
    assert q == (t - 1) * (t + 2)
    g = CPoly.gcd(p, p.derivative())
    assert g == t - 1  # the repeated root survives in the gcd


@settings(max_examples=40, deadline=None)
@given(
    st.lists(scalars, min_size=0, max_size=4),
    st.lists(scalars, min_size=1, max_size=4),
)
def test_poly_division_law(num_coeffs, den_coeffs):
    numerator = CPoly(num_coeffs)
    denominator = CPoly(den_coeffs)
    if denominator.is_zero():
        return
    q, r = divmod(numerator, denominator)
    assert q * denominator + r == numerator
    assert r.is_zero() or r.degree < denominator.degree


def test_poly_derivative():
    t = CPoly.x()
    p = t * t * t - 2 * t
    assert p.derivative() == 3 * t * t - 2
