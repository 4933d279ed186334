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
lcm.  Lowest terms appear only where a value is built from a ratio or read.
``from_parts`` and ``io.weight_to_strings`` reduce the ints with
``math.gcd``; ``re``, ``im``, ``str``, ``repr``, ``hash`` and pickling go
through ``Fraction(re, den)``.  Equality cross-multiplies, and ``complex()``
divides ints, which rounds correctly, so neither depends on the denominator
a value carries.

Each operation has one path: it reads the other operand through ``_parts``
and builds its result with ``_make``.  A branch for an operand of the exact
type or for equal denominators would not pay: the weight kernel runs the
product and sum rules inline on raw triples, so the operators serve only
``reduce``'s projections and sums over tables, a few hundred calls a pass.

``fractions`` (with ``decimal`` and ``numbers``) loads on the first of those
``Fraction`` readers, ``from_float`` or string argument, so a CLI command
that only parses, computes and prints exact weights never imports it.  An
argument is tested for ``Fraction`` only once ``fractions`` is loaded: no
instance can exist before.

Every integer argument of the library -- an index, count, colour, size,
dimension, seed, budget, ``from_parts`` part or power's exponent -- is read
here, by ``_as_index`` (or ``_refuse_non_int``, its ``ValueError`` form):
numpy's integers convert to plain ints, and a bool or a value without
``__index__`` is refused.  Every tolerance argument -- ``verify``'s epsilon
and ``search``'s tol -- is read here too, by ``_as_tolerance``.  This is
the lowest module every reader imports.
"""

from __future__ import annotations

import sys
from math import gcd
from operator import index

_HASH_IMAG = sys.hash_info.imag
_MAX_DENOMINATOR = 10**6  # from_float's bound, the rounding exactify certifies with


def _Fraction(*args):
    """``fractions.Fraction(*args)``.  The first call imports ``fractions`` and
    rebinds this name to the class, so later calls cost no import."""
    global _Fraction
    from fractions import Fraction as _Fraction

    return _Fraction(*args)


def _is_fraction(x) -> bool:
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _ratio(x) -> tuple[int, int]:
    """x as (numerator, denominator > 0), in lowest terms."""
    if isinstance(x, int):
        return x.numerator, 1
    if isinstance(x, str):
        x = _Fraction(x)
    elif not _is_fraction(x):
        raise TypeError(f"expected int, str or Fraction, got {type(x).__name__}")
    return x.numerator, x.denominator


def _as_index(value, name: str) -> int:
    """value as a plain int, for an integer argument: numpy's integers
    convert, while a bool or a value without ``__index__`` (a float, a str,
    None) is refused, as a graph document refuses them."""
    if value.__class__ is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an int, got {value!r}")


def _refuse_non_int(value, name: str) -> int:
    """value as a plain int by ``_as_index``'s rule, refused with
    ``ValueError``: the form for every integer argument outside ``Edge``,
    ``Multigraph``'s count and ``from_parts``."""
    try:
        return _as_index(value, name)
    except TypeError as error:
        raise ValueError(str(error)) from None


def _as_tolerance(value, name: str):
    """value, for a tolerance argument (``verify``'s epsilon, ``search``'s
    tol): a number with no dimensions that is at least 0 -- an int, float,
    ``Fraction``, ``Decimal``, numpy scalar or 0-d array -- refused with
    ``ValueError`` otherwise.  The test is duck-typed, so it loads no
    module: a bool (numpy's by its dtype), an array with dimensions, NaN
    (it compares false) and a value that does not compare with 0 (None, a
    str, a complex, a decimal NaN) are refused."""
    try:
        valid = (not isinstance(value, bool) and getattr(getattr(value, "dtype", None), "kind", "") != "b"
                 and not getattr(value, "ndim", 0) and bool(value >= 0))
    except (TypeError, ValueError, ArithmeticError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be a non-negative number, got {value!r}")
    return value


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with den > 0, as ``Fraction(num, den)`` gives."""
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _over(a: int, p: int, b: int, q: int) -> tuple[int, int, int]:
    """The triple of a/p + (b/q)*i on the lcm of p and q."""
    den = p // gcd(p, q) * q
    return a * (den // p), b * (den // q), den


class GaussianRational:
    """Immutable exact complex number (re + im*i) / den, ints re, im, den > 0."""

    __slots__ = ("_v",)

    def __init__(self, re=0, im=0):
        _set_v(self, _over(*_ratio(re), *_ratio(im)))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as slot setting is refused
        return (GaussianRational, (self.re, self.im))

    @classmethod
    def from_parts(cls, re_num: int, re_den: int, im_num: int = 0, im_den: int = 1):
        """Build from four integers (numerators and denominators), each read
        by ``_as_index``."""
        re_num, re_den = _as_index(re_num, "re_num"), _as_index(re_den, "re_den")
        im_num, im_den = _as_index(im_num, "im_num"), _as_index(im_den, "im_den")
        return _make(_over(*_lowest(re_num, re_den), *_lowest(im_num, im_den)))

    @classmethod
    def from_float(cls, re: float, im: float = 0.0):
        """Nearest Gaussian rational with denominators up to 10**6."""
        return cls(
            _Fraction(re).limit_denominator(_MAX_DENOMINATOR),
            _Fraction(im).limit_denominator(_MAX_DENOMINATOR),
        )

    # -- field accessors, as Fractions in lowest terms ---------------------

    @property
    def re(self):
        re, _, den = self._v
        return _Fraction(re, den)

    @property
    def im(self):
        _, im, den = self._v
        return _Fraction(im, den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _parts(other)
        if other is None:
            return NotImplemented
        (a, b, p), (c, d, q) = self._v, other
        k = gcd(p, q)
        s, t = q // k, p // k  # p * s == q * t == lcm(p, q)
        return _make((a * s + c * t, b * s + d * t, p * s))

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
        other = _parts(other)
        if other is None:
            return NotImplemented
        (a, b, p), (c, d, q) = self._v, other
        return _make((a * c - b * d, a * d + b * c, p * q))

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
        try:
            exponent = _as_index(exponent, "exponent")
        except TypeError:
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
        (a, b, p), (c, d, q) = self._v, other
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
    if isinstance(x, int) or _is_fraction(x):
        return (x.numerator, 0, x.denominator)
    return None
