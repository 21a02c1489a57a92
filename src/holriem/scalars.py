"""Exact scalars: the Gaussian rationals Q(i), the package's one number type.

Every structure constant and metric coefficient handled by this package
lies in Q(i), so curvature and invariance claims reduce to exact zero
tests.  A ``GaussianRational`` is ``(a + b*i)/d`` held as three ints in
lowest terms, so each sum, product or quotient costs one ``math.gcd``
(none when the denominator is 1), and its text is rendered from the triple.
The kernels accumulate ``s + x*y`` and ``s - x*y`` through ``addmul`` and
``submul``, which compute on the integer triples and reduce once, where the
dunders would reduce twice and make two objects (Knuth, *TAOCP* vol. 2,
section 4.5.1).  ``_make`` builds every arithmetic result.  ``Fraction``
appears only where inputs are coerced and in the ``re``/``im`` views.
Every arithmetic zero is the one object ``ZERO``, so a zero vector equals
``(ZERO,) * n`` by identity, in C.  That is speed only: equality decides
every test, and no code asks ``is ZERO``.  The package has no
floating-point code and no second number type: a polynomial is a tuple of
its coefficients, and the unipotent flow exp(tN) is a ``CMatrix`` summed from
the powers of N (``linalg.exp_nilpotent``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter


class Record:
    """Immutable ``__slots__`` value: equality, hash and repr read only the
    fields named in ``_fields``, so derived slots stay out.  ``__init__``
    sets each slot with ``object.__setattr__``; any later assignment raises."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)  # a value for one field, a tuple for more

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle call __init__, which takes the fields in order
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _ratio(value: int | Fraction) -> tuple[int, int]:
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class GaussianRational:
    """An element ``re + im*i`` of Q(i), stored as ``(a + b*i)/d``.

    The triple is canonical: ``gcd(a, b, d) == 1`` and ``d > 0``, so
    equal values have equal triples.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        a, b, d = p * s, r * q, q * s
        g = gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- ring structure -------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._a - other._a, self._b - other._b, d)
        return _make(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _make(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _divide(self, other)

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _divide(other, self)

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "GaussianRational":
        return _divide(ONE, self)

    # -- structure and predicates ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # A real value hashes like the int or Fraction it equals.
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self.re)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        return _render(self._a, self._b, self._d)

    def __repr__(self) -> str:
        return f"GaussianRational({self})"


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i)/d`` for ``d > 0``, reduced by one gcd, none for ``d = 1``;
    every zero is ``ZERO``."""
    if not (a or b):
        return ZERO
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def addmul(s: GaussianRational, x: GaussianRational, y: GaussianRational) -> GaussianRational:
    """``s + x*y`` from the integer triples, reduced once by ``_make``."""
    a, b, c, e = x._a, x._b, y._a, y._b
    p, q, d, f = a * c - b * e, a * e + b * c, x._d * y._d, s._d
    if d == f:
        return _make(s._a + p, s._b + q, d)
    return _make(s._a * d + p * f, s._b * d + q * f, d * f)


def submul(s: GaussianRational, x: GaussianRational, y: GaussianRational) -> GaussianRational:
    """``s - x*y`` from the integer triples, reduced once by ``_make``."""
    a, b, c, e = x._a, x._b, y._a, y._b
    p, q, d, f = a * c - b * e, a * e + b * c, x._d * y._d, s._d
    if d == f:
        return _make(s._a - p, s._b - q, d)
    return _make(s._a * d - p * f, s._b * d - q * f, d * f)


def _ratio_str(n: int, d: int) -> str:  # as str(Fraction(n, d)) prints it
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _render(a: int, b: int, d: int) -> str:
    """``(a + b*i)/d`` as ``re``, ``im i`` or ``re +/- im i``; ``i`` alone for ``|im| = 1``."""
    if not b:
        return _ratio_str(a, d)
    imag = "i" if abs(b) == d else f"{_ratio_str(abs(b), d)} i"
    if not a:
        return imag if b > 0 else f"-{imag}"
    return f"{_ratio_str(a, d)} {'+' if b > 0 else '-'} {imag}"


def _divide(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    """``x / y = x * conj(y) * e / (c**2 + f**2)`` for ``y = (c + f*i)/e``."""
    c, f, e = y._a, y._b, y._d
    n = c * c + f * f
    if not n:
        raise ZeroDivisionError("division by zero Gaussian rational")
    a, b = x._a, x._b
    return _make((a * c + b * f) * e, (b * c - a * f) * e, x._d * n)


def _coerce(value) -> GaussianRational | None:
    if type(value) is GaussianRational:
        return value
    if isinstance(value, (int, Fraction)):
        return _make(value.numerator, 0, value.denominator)
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
