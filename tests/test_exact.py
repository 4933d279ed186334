"""Field axioms and conversions for the exact complex rationals."""

import copy
import pickle
import sys
import textwrap
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ghzgraphs import GaussianRational
from ghzgraphs.exact import _make, _parts

from conftest import fresh_interpreter, slow_add, slow_eq, slow_from_parts, slow_mul, weight_bits


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


@pytest.mark.parametrize("exponent", [True, False, 2.0, "2", None], ids=repr)
def test_a_power_refuses_an_exponent_that_is_not_an_int(exponent):
    a = GaussianRational(2)
    assert a.__pow__(exponent) is NotImplemented
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*\* or pow\(\)"):
        a ** exponent


def test_a_power_reads_a_numpy_exponent_as_an_int():
    for exponent in (np.int64(3), np.int8(3), np.uint16(3)):
        w = GaussianRational(2) ** exponent
        assert type(w) is GaussianRational and w._v == (8, 0, 1)
    assert GaussianRational(2) ** np.int32(-2) == GaussianRational("1/4")


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
    assert (w.re, w.im) == (Fraction(1, 2), Fraction(-1, 2))


@pytest.mark.parametrize("parts", [
    (np.int64(3), np.int64(4)), (3, np.int64(4)), (np.int32(3), 4, np.uint8(0), np.int64(1)),
], ids=["both", "den", "all-four"])
def test_from_parts_stores_numpy_parts_as_ints(parts):
    """A numpy part kept as it was would overflow silently: the fifth
    square's denominator, 4**32, wraps to 0 in an int64."""
    w = GaussianRational.from_parts(*parts)
    assert w._v == (3, 0, 4) and all(x.__class__ is int for x in w._v)
    for _ in range(5):
        w = w * w
    assert w == GaussianRational.from_parts(3**32, 4**32)
    assert str(w) == f"{3**32}/{4**32}"


@pytest.mark.parametrize("parts, name", [
    ((True, 2), "re_num"), ((1, False), "re_den"), ((1, 2, 1.0), "im_num"), ((1, 2, 0, "1"), "im_den"),
], ids=["re_num=True", "re_den=False", "im_num=1.0", "im_den='1'"])
def test_from_parts_refuses_a_part_that_is_not_an_int(parts, name):
    with pytest.raises(TypeError, match=f"{name} must be an int, got "):
        GaussianRational.from_parts(*parts)


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


# ---------------------------------------------------------------------------
# differential: the class against the Fraction-pair class it replaced


class FractionPair:
    """GaussianRational as it was: a reduced Fraction per part, normalised
    by every operation."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, FractionPair) else FractionPair(other)

    def __add__(self, other):
        other = self._coerce(other)
        return FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionPair(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        c, d = other.re, other.im
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b = self.re, self.im
        return FractionPair((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        out = FractionPair(1)
        for _ in range(abs(k)):
            out = out * self
        return out if k >= 0 else 1 / out

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) + sys.hash_info.imag * hash(self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


#: pairwise coprime, several of them far beyond a machine word once multiplied
COPRIME_DENOMINATORS = [2**31 - 1, 10**9 + 7, 998_244_353, 2**20, 3**13, 5**9, 7, 1]

numerators = st.one_of(st.integers(-50, 50), st.integers(-10**12, 10**12))
denominators = st.one_of(st.integers(1, 20), st.sampled_from(COPRIME_DENOMINATORS))
fractions = st.builds(Fraction, numerators, denominators)


@st.composite
def both(draw, nonzero=False):
    """A GaussianRational and its FractionPair, the former often over a
    denominator far from lowest terms (reached as (x * s) / s)."""
    re, im = draw(fractions), draw(fractions)
    if nonzero and not (re or im):
        re = Fraction(1)
    x = GaussianRational(re, im)
    s = GaussianRational(draw(fractions), draw(fractions))
    if s and draw(st.booleans()):
        x = (x * s) / s
    return x, FractionPair(re, im)


def agree(x, ref):
    assert type(x) is GaussianRational
    assert x.re == ref.re and x.im == ref.im
    assert x == GaussianRational(ref.re, ref.im)


scalars = st.one_of(st.integers(-10**6, 10**6), fractions)


@given(both(), both())
def test_arithmetic_agrees_with_fraction_pairs(x, y):
    (a, A), (b, B) = x, y
    agree(a + b, A + B)
    agree(a - b, A - B)
    agree(a * b, A * B)
    agree(-a, -A)
    agree(a.conjugate(), A.conjugate())
    if B:
        agree(a / b, A / B)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    assert (a == b) == (A == B) and (a != b) == (A != B)
    assert bool(a) == bool(A)


@given(both(), scalars)
def test_mixed_arithmetic_agrees_with_fraction_pairs(x, n):
    a, A = x
    for got, want in ((a + n, A + n), (n + a, n + A), (a - n, A - n), (n - a, n - A),
                      (a * n, A * n), (n * a, n * A)):
        agree(got, want)
    if n:
        agree(a / n, A / n)
    if A:
        agree(n / a, n / A)
    assert (a == n) == (A == n) and (n == a) == (n == A) and (a != n) == (A != n)


@given(both(nonzero=True), st.integers(-4, 5))
def test_powers_agree_with_fraction_pairs(x, k):
    a, A = x
    agree(a ** k, A ** k)


@given(both(), both(nonzero=True))
def test_readings_do_not_depend_on_the_path(x, y):
    (a, A), (b, _) = x, y
    c = (a * b) / b
    assert c == a and hash(c) == hash(a) == hash(A)
    if not A.im and A.re.denominator == 1:
        assert hash(a) == hash(A.re.numerator)
    for v in (a, c):
        z, want = complex(v), complex(A)
        assert z.real == want.real and z.imag == want.imag
        assert str(v) == str(A) and repr(v) == repr(A)
        assert (v.re, v.im) == (A.re, A.im)
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            agree(w, A)
            assert hash(w) == hash(A)


class SubclassedRational(GaussianRational):
    """An operand that is a GaussianRational but not of that exact type."""

    __slots__ = ()


@given(both(), both())
def test_sum_and_product_agree_with_fraction_pairs_for_every_operand_type(x, y):
    """+ and * read every exact operand's parts through ``_parts``: a
    GaussianRational, a subclass of it, a Fraction or an int, on either side,
    gives the Fraction pairs' result as a GaussianRational."""
    (a, A), (b, B) = x, y
    sub = object.__new__(SubclassedRational)
    GaussianRational._v.__set__(sub, b._v)  # b's own parts, often unreduced
    assert sub == b
    operands = [(b, B), (sub, B), (B.re, B.re), (B.re.numerator, B.re.numerator)]
    for o, O in operands:
        for left, right, Left, Right in ((a, o, A, O), (o, a, O, A)):
            agree(left + right, Left + Right)
            agree(left * right, Left * Right)
    agree(sub + sub, B + B)
    agree(sub * sub, B * B)


@pytest.mark.parametrize("other", [1.5, -0.0, float("nan"), 2j, complex(1, 0)])
def test_sum_and_product_leave_floats_and_complexes_to_the_other_operand(other):
    a = GaussianRational(Fraction(1, 2), 3)
    for method in (a.__add__, a.__radd__, a.__mul__, a.__rmul__):
        assert method(other) is NotImplemented
    for op in (lambda: a + other, lambda: other + a, lambda: a * other, lambda: other * a):
        with pytest.raises(TypeError):
            op()


# ---------------------------------------------------------------------------
# differential: one path per operator against the paths it replaced


@st.composite
def related_pairs(draw):
    """A GaussianRational over p and an operand over q, where q equals p, is
    coprime to it or one divides the other; the operand is a GaussianRational
    (at times one of equal value), a Fraction or an int."""
    kind = draw(st.sampled_from(["equal", "coprime", "dividing"]))
    p = draw(denominators)
    if kind == "equal":
        q = p
    elif kind == "coprime":
        p, q = draw(st.permutations(COPRIME_DENOMINATORS))[:2]
    else:
        q = p * draw(st.sampled_from([2, 3, 12, 2**40, 10**9 + 7]))
        if draw(st.booleans()):
            p, q = q, p
    a, b, c, d = (draw(numerators) for _ in range(4))
    x = _make((a, b, p))
    if kind == "dividing" and p < q and draw(st.booleans()):
        return x, _make((a * (q // p), b * (q // p), q))  # x's value on q
    return x, draw(st.sampled_from([_make((c, d, q)), Fraction(c, q), c]))


def slow_sub(left, right):
    """``left - right`` as it was: ``__sub__`` and ``__rsub__`` each added
    the negated subtrahend to the minuend by the old ``__add__``."""
    re, im, den = _parts(right)
    return slow_add(_make(_parts(left)), _make((-re, -im, den)))


def by_the_exact_side(slow, left, right):
    # an int or Fraction on the left leaves the operation to the reflected method
    return slow(left, right) if isinstance(left, GaussianRational) else slow(right, left)


@given(st.one_of(st.tuples(both().map(itemgetter(0)), both().map(itemgetter(0))), related_pairs()))
@example((GaussianRational.from_parts(1, 6), GaussianRational(3) / 18))
@example((_make((1, 2, 4)), _make((1, 2, 4))))
@example((_make((3, -1, 5)), Fraction(3, 5)))
@example((_make((2, 0, 6)), 0))
def test_operators_give_the_triples_of_the_paths_they_replaced(pair):
    """Each operator's one path gives the unreduced triples, and the equality
    verdicts, of the type fast path and the equal-denominator branches it
    replaced, with the exact operand on either side."""
    for a, b in (pair, pair[::-1]):
        assert weight_bits(a + b) == weight_bits(by_the_exact_side(slow_add, a, b))
        assert weight_bits(b + a) == weight_bits(by_the_exact_side(slow_add, b, a))
        assert weight_bits(a - b) == weight_bits(slow_sub(a, b))
        assert weight_bits(a * b) == weight_bits(by_the_exact_side(slow_mul, a, b))
        assert weight_bits(b * a) == weight_bits(by_the_exact_side(slow_mul, b, a))
        assert (a == b) is by_the_exact_side(slow_eq, a, b)
        assert (a != b) is not by_the_exact_side(slow_eq, a, b)


# ---------------------------------------------------------------------------
# differential: lowest terms from math.gcd against the Fraction path

ints = st.one_of(st.integers(-50, 50), st.integers(-10**40, 10**40))


@given(ints, ints.filter(bool), ints, ints.filter(bool))
@example(0, -7, 10**40 + 1, -3)
@example(-(10**40), -(10**20), 0, 10**40)
@example(6, 4, -6, -4)
def test_from_parts_and_int_parts_match_the_fraction_path(a, p, b, q):
    want = weight_bits(slow_from_parts(a, p, b, q))
    assert weight_bits(GaussianRational.from_parts(a, p, b, q)) == want
    assert weight_bits(GaussianRational(Fraction(a, p), Fraction(b, q))) == want
    assert weight_bits(GaussianRational.from_parts(a, p)) == weight_bits(slow_from_parts(a, p))
    assert weight_bits(GaussianRational(a, b)) == weight_bits(slow_from_parts(a, 1, b, 1))
    assert weight_bits(GaussianRational(a)) == weight_bits(slow_from_parts(a, 1))


@pytest.mark.parametrize("args", [(1, 0), (0, 0), (-5, 0, 1, 2), (1, 2, 3, 0), (0, 1, 0, 0)])
def test_a_zero_denominator_raises_as_the_fraction_path_did(args):
    with pytest.raises(ZeroDivisionError) as want:
        slow_from_parts(*args)
    with pytest.raises(ZeroDivisionError) as got:
        GaussianRational.from_parts(*args)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_parts_accepts_ints_and_fractions_and_refuses_floats_and_strings():
    assert _parts(3) == (3, 0, 1)
    assert _parts(True) == (1, 0, 1)
    assert _parts(Fraction(6, -4)) == (-3, 0, 2)
    for x in (1.5, "1", 2j, None):
        assert _parts(x) is None


FRACTIONS_ON_FIRST_USE = textwrap.dedent("""
    import sys
    from ghzgraphs import GaussianRational, build_graph
    from ghzgraphs.io import weight_to_strings
    w = GaussianRational.from_parts(6, -4) + GaussianRational(2, 3)
    assert weight_to_strings(w) == ["1", "2", "3", "1"]
    assert "fractions" not in sys.modules
    assert str(w) == "1/2 + 3*i" and hash(w) == hash(GaussianRational("1/2", 3))
    assert "fractions" in sys.modules
    from fractions import Fraction
    assert w - Fraction(1, 2) == GaussianRational(0, 3) == Fraction(1, 2) * GaussianRational(0, 6)
    assert GaussianRational(Fraction(1, 2)) == w.re
    assert build_graph(2, [(0, 1, 0, 0, Fraction(1, 2))]).edges[0].weight == w.re
""")


def test_fractions_load_on_first_use_and_are_accepted_after():
    proc = fresh_interpreter(FRACTIONS_ON_FIRST_USE)
    assert proc.returncode == 0, proc.stderr
