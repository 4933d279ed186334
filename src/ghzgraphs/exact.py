"""Exact complex numbers with rational real and imaginary parts.

Edge weights are Gaussian rationals: values a + b*i where a and b are
arbitrary-precision rationals.  They form a field, so sums over perfect
matchings, cancellation checks and the reduction formulas can all be
evaluated with zero rounding error.  Floats are deliberately rejected by the
constructor; inexact input must go through :meth:`GaussianRational.from_float`
so that every rationalization step is explicit.

A value is one Gaussian integer over one positive int denominator,
(re + im*i) / den, never reduced by arithmetic: a product multiplies parts
and denominators, a sum over different denominators rescales both to their
lcm.  Lowest terms appear only when a value is read (``re``, ``im``, ``str``,
``repr``, ``hash``, pickling), through ``Fraction(re, den)``.
Equality cross-multiplies, and ``complex()`` divides ints, which rounds
correctly, so neither depends on the denominator a value carries.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

_HASH_IMAG = sys.hash_info.imag
_MAX_DENOMINATOR = 10**6  # from_float's bound, the rounding exactify certifies with


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected int, str or Fraction, got {type(x).__name__}")


class GaussianRational:
    """Immutable exact complex number (re + im*i) / den, ints re, im, den > 0."""

    __slots__ = ("_v",)

    def __init__(self, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        p, q = re.denominator, im.denominator
        den = p // gcd(p, q) * q
        _set_v(self, (re.numerator * (den // p), im.numerator * (den // q), den))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as slot setting is refused
        return (GaussianRational, (self.re, self.im))

    @classmethod
    def from_parts(cls, re_num: int, re_den: int, im_num: int = 0, im_den: int = 1):
        """Build from four integers (numerators and denominators)."""
        return cls(Fraction(re_num, re_den), Fraction(im_num, im_den))

    @classmethod
    def from_float(cls, re: float, im: float = 0.0):
        """Nearest Gaussian rational with denominators up to 10**6."""
        return cls(
            Fraction(re).limit_denominator(_MAX_DENOMINATOR),
            Fraction(im).limit_denominator(_MAX_DENOMINATOR),
        )

    # -- field accessors, in lowest terms ----------------------------------

    @property
    def re(self) -> Fraction:
        re, _, den = self._v
        return Fraction(re, den)

    @property
    def im(self) -> Fraction:
        _, im, den = self._v
        return Fraction(im, den)

    # -- arithmetic --------------------------------------------------------

    # + and * read a GaussianRational operand's parts directly and build the
    # result without helper calls.  The weight kernel's DP writes these two
    # rules out on raw triples; their hot callers are reduction._project and
    # the sums over table values.

    def __add__(self, other):
        if type(other) is GaussianRational:
            c, d, q = other._v
        else:
            other = _parts(other)
            if other is None:
                return NotImplemented
            c, d, q = other
        a, b, p = self._v
        out = _new(GaussianRational)
        if p == q:
            _set_v(out, (a + c, b + d, p))
        else:
            k = gcd(p, q)
            s, t = q // k, p // k  # p * s == q * t == lcm(p, q)
            _set_v(out, (a * s + c * t, b * s + d * t, p * s))
        return out

    __radd__ = __add__

    def __neg__(self):
        re, im, den = self._v
        return _make((-re, -im, den))

    def __sub__(self, other):
        other = _parts(other)
        if other is None:
            return NotImplemented
        re, im, den = other
        return self + _make((-re, -im, den))

    def __rsub__(self, other):
        other = _parts(other)
        if other is None:
            return NotImplemented
        return _make(other) + -self

    def __mul__(self, other):
        if type(other) is GaussianRational:
            c, d, q = other._v
        else:
            other = _parts(other)
            if other is None:
                return NotImplemented
            c, d, q = other
        a, b, p = self._v
        out = _new(GaussianRational)
        _set_v(out, (a * c - b * d, a * d + b * c, p * q))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _parts(other)
        if other is None:
            return NotImplemented
        a, b, p = self._v
        c, d, q = other
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a + b*i)/p / ((c + d*i)/q) = (a + b*i)(c - d*i) q / (p (c^2 + d^2))
        return _make(((a * c + b * d) * q, (b * c - a * d) * q, p * norm))

    def __rtruediv__(self, other):
        other = _parts(other)
        if other is None:
            return NotImplemented
        return _make(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (1 / self) ** (-exponent)
        out, base = _make((1, 0, 1)), self
        while exponent:
            if exponent & 1:
                out = out * base
            base, exponent = base * base, exponent >> 1
        return out

    def conjugate(self) -> "GaussianRational":
        re, im, den = self._v
        return _make((re, -im, den))

    # -- comparisons and conversions --------------------------------------

    def __eq__(self, other):
        other = _parts(other)
        if other is None:
            return NotImplemented
        a, b, p = self._v
        c, d, q = other
        if p == q:
            return a == c and b == d
        return a * q == c * p and b * q == d * p

    def __hash__(self):
        # Mirrors the numeric hash of complex so x == int(x) implies equal
        # hashes for real values.
        return hash(self.re) + _HASH_IMAG * hash(self.im)

    def __bool__(self):
        re, im, _ = self._v
        return re != 0 or im != 0

    def __complex__(self):
        re, im, den = self._v
        return complex(re / den, im / den)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        sign = "+" if im > 0 else "-"
        return f"{re} {sign} {abs(im)}*i"


_new = object.__new__
_set_v = GaussianRational._v.__set__  # writes the slot past the immutability guard


def _make(v: tuple[int, int, int]) -> GaussianRational:
    g = _new(GaussianRational)
    _set_v(g, v)
    return g


def _parts(x):
    """x as (re, im, den), or None when x is not an exact number."""
    if isinstance(x, GaussianRational):
        return x._v
    if isinstance(x, (int, Fraction)):
        return (x.numerator, 0, x.denominator)
    return None
