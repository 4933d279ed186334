"""Field axioms and conversions for the exact complex rationals."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzgraphs import GaussianRational


def gaussians(nonzero=False):
    num = st.integers(min_value=-50, max_value=50)
    den = st.integers(min_value=1, max_value=20)
    base = st.builds(
        lambda a, b, c, d: GaussianRational(Fraction(a, b), Fraction(c, d)),
        num, den, num, den,
    )
    if nonzero:
        return base.filter(bool)
    return base


@given(gaussians(), gaussians(), gaussians())
def test_addition_associates_and_commutes(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(gaussians(), gaussians(), gaussians())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(gaussians(nonzero=True))
def test_division_inverts(a):
    assert a / a == GaussianRational(1)
    assert (GaussianRational(1) / a) * a == 1


@given(gaussians(), gaussians(nonzero=True))
def test_mul_div_roundtrip(a, b):
    assert (a * b) / b == a
    assert (a / b) * b == a


@given(gaussians())
def test_additive_inverse(a):
    assert a + (-a) == GaussianRational(0)
    assert a - a == 0


@given(gaussians(), gaussians())
def test_conjugate_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


@given(gaussians(nonzero=True), st.integers(min_value=-6, max_value=6))
def test_integer_powers(a, k):
    expected = GaussianRational(1)
    base = a if k >= 0 else GaussianRational(1) / a
    for _ in range(abs(k)):
        expected = expected * base
    assert a ** k == expected


@given(gaussians())
def test_complex_conversion_tracks_parts(a):
    z = complex(a)
    assert z.real == pytest.approx(float(a.re))
    assert z.imag == pytest.approx(float(a.im))


def test_constructor_accepts_int_str_fraction():
    assert GaussianRational(2) == GaussianRational("2")
    assert GaussianRational("3/4") == GaussianRational(Fraction(3, 4))
    assert GaussianRational(1, Fraction(1, 2)).im == Fraction(1, 2)


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.25)


def test_from_parts_and_accessors():
    w = GaussianRational.from_parts(3, 6, -2, 4)
    assert (w.re_num, w.re_den, w.im_num, w.im_den) == (1, 2, -1, 2)


def test_from_float_rounds_to_small_denominators():
    w = GaussianRational.from_float(0.5, -0.25)
    assert w == GaussianRational(Fraction(1, 2), Fraction(-1, 4))
    near = GaussianRational.from_float(1.0 + 4e-13)
    assert near == 1


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@given(gaussians())
def test_equality_and_hash_agree_with_python_numbers(a):
    if not a.im:
        if a.re.denominator == 1:
            n = a.re.numerator
            assert a == n and hash(a) == hash(n)
        assert a == a.re and hash(a) == hash(a.re)
    assert a == GaussianRational(a.re, a.im)
    assert hash(a) == hash(GaussianRational(a.re, a.im))


def test_mixed_arithmetic_with_ints_and_fractions():
    a = GaussianRational(Fraction(1, 2), 1)
    assert 1 + a == GaussianRational(Fraction(3, 2), 1)
    assert 2 * a == GaussianRational(1, 2)
    assert a - Fraction(1, 2) == GaussianRational(0, 1)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_bool_and_str():
    assert not GaussianRational(0)
    assert GaussianRational(0, "1/3")
    assert str(GaussianRational(Fraction(1, 2))) == "1/2"
    assert str(GaussianRational(1, -2)) == "1 - 2*i"


def test_immutable_so_its_hash_holds():
    a = GaussianRational(Fraction(1, 2), 3)
    held = {a}
    for name in ("_re", "_im", "re", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, Fraction(5))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == GaussianRational(Fraction(1, 2), 3) and a in held


def test_copies_and_pickles_are_equal_values():
    a = GaussianRational(Fraction(-1, 3), Fraction(7, 2))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
        assert type(b.re) is Fraction and type(b.im) is Fraction
