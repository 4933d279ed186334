"""Exact complex numbers with rational real and imaginary parts.

Edge weights are Gaussian rationals: values a + b*i where a and b are
arbitrary-precision rationals.  They form a field, so sums over perfect
matchings, cancellation checks and the reduction formulas can all be
evaluated with zero rounding error.  Floats are deliberately rejected by the
constructor; inexact input must go through :meth:`GaussianRational.from_float`
so that every rationalization step is explicit.
"""

from __future__ import annotations

import sys
from fractions import Fraction

_HASH_IMAG = sys.hash_info.imag


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected int, str or Fraction, got {type(x).__name__}")


class GaussianRational:
    """Immutable exact complex number Fraction + Fraction*i."""

    __slots__ = ("_re", "_im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "_re", _as_fraction(re))
        object.__setattr__(self, "_im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as slot setting is refused
        return (GaussianRational, (self._re, self._im))

    @classmethod
    def from_parts(cls, re_num: int, re_den: int, im_num: int = 0, im_den: int = 1):
        """Build from four integers (numerators and denominators)."""
        return cls(Fraction(re_num, re_den), Fraction(im_num, im_den))

    @classmethod
    def from_float(cls, re: float, im: float = 0.0, max_denominator: int = 10**6):
        """Nearest Gaussian rational with bounded denominators."""
        return cls(
            Fraction(re).limit_denominator(max_denominator),
            Fraction(im).limit_denominator(max_denominator),
        )

    # -- field accessors ---------------------------------------------------

    @property
    def re(self) -> Fraction:
        return self._re

    @property
    def im(self) -> Fraction:
        return self._im

    @property
    def re_num(self) -> int:
        return self._re.numerator

    @property
    def re_den(self) -> int:
        return self._re.denominator

    @property
    def im_num(self) -> int:
        return self._im.numerator

    @property
    def im_den(self) -> int:
        return self._im.denominator

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self._re, -self._im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self._re - other._re, self._im - other._im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self._re, self._im, other._re, other._im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c, d = other._re, other._im
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b = self._re, self._im
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (GaussianRational(1) / self) ** (-exponent)
        out = GaussianRational(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self._re, -self._im)

    # -- comparisons and conversions --------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self):
        # Mirrors the numeric hash of complex so x == int(x) implies equal
        # hashes for real values.
        return hash(self._re) + _HASH_IMAG * hash(self._im)

    def __bool__(self):
        return bool(self._re) or bool(self._im)

    def __complex__(self):
        return complex(self._re) + 1j * complex(self._im)

    def __repr__(self):
        return f"GaussianRational({self._re}, {self._im})"

    def __str__(self):
        if not self._im:
            return str(self._re)
        sign = "+" if self._im > 0 else "-"
        return f"{self._re} {sign} {abs(self._im)}*i"
