"""Exact scalars: Gaussian rationals and univariate polynomials over them.

Every structure constant and metric coefficient handled by this package
lies in Q(i), so curvature and invariance claims reduce to exact zero
tests.  The package's only floating-point code is the numeric Moebius
check in ``catalog``, which uses plain ``complex`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, slots=True, init=False)
class GaussianRational:
    """An element ``re + im*i`` of Q(i) with exact Fraction components."""

    re: Fraction
    im: Fraction

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    # -- ring structure -------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GaussianRational(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "GaussianRational":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    # -- structure and predicates ---------------------------------------

    def norm_sq(self) -> Fraction:
        """``re**2 + im**2``; zero exactly when the value is zero."""
        return self.re * self.re + self.im * self.im

    def maxabs(self) -> Fraction:
        """Exact magnitude proxy ``max(|re|, |im|)``; zero iff the value is zero."""
        return max(abs(self.re), abs(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = "i" if abs(self.im) == 1 else f"{abs(self.im)} i"
        if self.re == 0:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self})"


def _coerce(value) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def as_gr(value) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to a GaussianRational."""
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return coerced


def gr(re: int | Fraction = 0, im: int | Fraction = 0) -> GaussianRational:
    return GaussianRational(re, im)


ZERO = gr(0)
ONE = gr(1)
I = gr(0, 1)


@dataclass(frozen=True, slots=True, init=False)
class CPoly:
    """Univariate polynomial over Q(i), coefficients in ascending degree.

    Trailing zero coefficients are stripped; the zero polynomial is the
    empty coefficient tuple and has degree -1.
    """

    coeffs: tuple[GaussianRational, ...]

    def __init__(self, coeffs=()):
        normalized = [as_gr(c) for c in coeffs]
        while normalized and not normalized[-1]:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    @classmethod
    def constant(cls, value) -> "CPoly":
        return cls((as_gr(value),))

    @classmethod
    def x(cls) -> "CPoly":
        return cls((ZERO, ONE))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "CPoly":
        other = _poly_coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return CPoly(
            tuple(self._coeff(k) + other._coeff(k) for k in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other) -> "CPoly":
        other = _poly_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CPoly":
        other = _poly_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "CPoly":
        return CPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "CPoly":
        other = _poly_coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(other.coeffs):
                out[a + b] = out[a + b] + ca * cb
        return CPoly(tuple(out))

    __rmul__ = __mul__

    def _coeff(self, k: int) -> GaussianRational:
        return self.coeffs[k] if k < len(self.coeffs) else ZERO

    def __call__(self, value):
        """Evaluate at an exact point by Horner's rule."""
        point = as_gr(value)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "CPoly":
        return CPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def monic(self) -> "CPoly":
        if self.is_zero():
            return self
        lead = self.leading
        return CPoly(tuple(c / lead for c in self.coeffs))

    def __divmod__(self, other) -> tuple["CPoly", "CPoly"]:
        other = _poly_coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [ZERO] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rest = list(self.coeffs)
        lead = other.leading
        while len(rest) >= len(other.coeffs) and any(rest):
            while rest and not rest[-1]:
                rest.pop()
            if len(rest) < len(other.coeffs):
                break
            factor = rest[-1] / lead
            shift = len(rest) - len(other.coeffs)
            quotient[shift] = factor
            for k, c in enumerate(other.coeffs):
                rest[shift + k] = rest[shift + k] - factor * c
        return CPoly(tuple(quotient)), CPoly(tuple(rest))

    @staticmethod
    def gcd(a: "CPoly", b: "CPoly") -> "CPoly":
        """Monic greatest common divisor via the Euclidean algorithm."""
        while not b.is_zero():
            _, r = divmod(a, b)
            a, b = b, r
        return a.monic()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                power = "t" if k == 1 else f"t^{k}"
                coeff = "" if c == ONE else f"({c})*"
                parts.append(f"{coeff}{power}")
        return " + ".join(parts)


def _poly_coerce(value) -> CPoly | None:
    if isinstance(value, CPoly):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return CPoly((as_gr(value),))
    return None
