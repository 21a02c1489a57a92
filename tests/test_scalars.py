"""Exact scalar arithmetic: the field Q(i) and its canonical representation."""

import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from holriem.scalars import ONE, ZERO, addmul, gr, submul

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


@dataclass(frozen=True)
class TwoFractions:
    """Reference semantics: ``re + im*i`` with two Fraction components."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        return TwoFractions(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return TwoFractions(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return TwoFractions(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return TwoFractions(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        result = TwoFractions(Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            result = result * self
        return result.inverse() if k < 0 else result

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        imag = "i" if abs(im) == 1 else f"{abs(im)} i"
        if re == 0:
            return imag if im > 0 else f"-{imag}"
        return f"{re} {'+' if im > 0 else '-'} {imag}"


def _agrees(value, ref: TwoFractions) -> None:
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert (value.re, value.im) == (ref.re, ref.im)
    assert str(value) == str(ref)
    assert bool(value) == bool(ref.re or ref.im)
    # The stored triple (a + b*i)/d is canonical.
    assert gcd(value._a, value._b, value._d) == 1 and value._d > 0


wide_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=36)


@settings(max_examples=150, deadline=None)
@given(wide_fractions, wide_fractions, wide_fractions, wide_fractions, st.integers(-4, 4))
def test_agrees_with_two_fraction_reference(a, b, c, d, k):
    x, y = gr(a, b), gr(c, d)
    rx, ry = TwoFractions(a, b), TwoFractions(c, d)
    ra, rc = TwoFractions(a, Fraction(0)), TwoFractions(c, Fraction(0))
    _agrees(x, rx)
    for op in (operator.add, operator.sub, operator.mul):
        _agrees(op(x, y), op(rx, ry))
        _agrees(op(x, c), op(rx, rc))  # Fraction on the right
        _agrees(op(c, x), op(rc, rx))  # Fraction on the left
        _agrees(op(x, 3), op(rx, TwoFractions(Fraction(3), Fraction(0))))
        _agrees(op(-2, x), op(TwoFractions(Fraction(-2), Fraction(0)), rx))
    _agrees(-x, TwoFractions(-a, -b))
    if y:
        _agrees(x / y, rx / ry)
        _agrees(y.inverse(), ry.inverse())
        _agrees(a / y, ra / ry)
        _agrees(y ** k, ry ** k)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if c:
        _agrees(x / c, rx / rc)
    assert (x == y) == (rx == ry)
    assert gr(a) == a and a == gr(a)
    assert gr(a.numerator) == a.numerator and a.numerator == gr(a.numerator)
    assert (x == a) == (b == 0)
    assert (x == 0.5) is False
    # Equal values hash equally, however they were reached; a real value
    # hashes like the Fraction it equals.
    same = (x * y - y * x) + x
    assert same == x and hash(same) == hash(x)
    assert hash(gr(a)) == hash(a)
    assert hash(gr(3)) == hash(3)


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


@pytest.mark.parametrize("denominators", [(1,), (1, 2, 3, 4, 6, 9)], ids=["integers", "fractions"])
def test_fused_steps_equal_the_dunders(denominators):
    """``addmul(s, x, y)`` and ``submul(s, x, y)`` give the triple of ``s + x * y``
    and ``s - x * y``, on seeded Q(i) values: s is ZERO, ±x·y (the result cancels
    to ZERO) or another value, with the denominator of s equal to or unlike that
    of the unreduced product; with integers every denominator is 1."""
    rng = random.Random(24)

    def value():
        return gr(*(Fraction(rng.randint(-9, 9), rng.choice(denominators)) for _ in "ab"))

    seen = Counter()
    for _ in range(3000):
        x, y = value(), value()
        s = rng.choice((ZERO, x * y, -(x * y), value()))
        for fused, reference in ((addmul, s + x * y), (submul, s - x * y)):
            result = fused(s, x, y)
            assert (result._a, result._b, result._d) == (reference._a, reference._b, reference._d)
            if not reference:
                assert result is ZERO
                seen["cancels"] += 1
        seen["s is ZERO" if not s else "s nonzero"] += 1
        seen["same d" if s._d == x._d * y._d else "other d"] += 1
    expected = {"cancels", "s is ZERO", "s nonzero", "same d"}
    assert set(seen) == expected | ({"other d"} if max(denominators) > 1 else set())
