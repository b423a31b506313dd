"""Gaussian-rational scalars for exact-mode matrices.

A :class:`QQi` is a complex number whose real and imaginary parts are
``fractions.Fraction`` values, so all exact-mode arithmetic is free of
rounding.  ``Fraction`` already normalizes to lowest terms with a positive
denominator, which gives us the canonical form for free.
"""

import re
from fractions import Fraction
from numbers import Rational

from .errors import MalformedInput

# the one string form of an exact part: an integer or "p/q", ASCII digits
# only (no spaces, underscores, decimal points or exponents)
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"bad rational literal {x!r}") from exc
    raise MalformedInput(f"cannot build an exact rational from {x!r}")


class QQi:
    """An exact complex number re + im*i with rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, QQi):
            return x
        if isinstance(x, complex):
            raise MalformedInput("float complex cannot enter exact mode")
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return QQi(x[0], x[1])
        return QQi(x)

    def __add__(self, other):
        other = QQi.coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        other = QQi.coerce(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = QQi.coerce(other)
        return QQi(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = QQi.coerce(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QQi.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return QQi.coerce(other) / self

    def conjugate(self):
        return QQi(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (QQi, int, Fraction)):
            other = QQi.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


QQI_ZERO = QQi(0)


def frac_str(f: Fraction) -> str:
    """Serialize a Fraction as the canonical 'p/q' wire form."""
    return f"{f.numerator}/{f.denominator}"
