"""Exact quadratic-surd arithmetic: canonical form, ordering, roots, decimals."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import QuadraticSurd
from curv4.classify import (
    COND_A_MAX_SEC,
    COND_B_DIFF_MAX,
    COND_B_SUM_MIN,
    NONNEG_DIFF_MAX,
    NONNEG_SEC_MAX,
    WEYL_SUM_MAX,
)
from curv4.errors import ExactnessError

RADICANDS = (2, 3, 5, 6, 19, 105)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


def surds(radicand):
    return st.builds(
        lambda a, b: QuadraticSurd.from_fractions(a, b, radicand), rationals, rationals
    )


def test_canonical_form():
    # radicands stay as given, square ones fold into the rational part
    assert QuadraticSurd(0, 1, 12, 2) == QuadraticSurd(0, 1, 3, 1)
    assert QuadraticSurd(0, 1, 12, 2).r == 12
    assert QuadraticSurd(3, 2, 49, 1) == 17 and QuadraticSurd(3, 2, 49, 1).r == 0
    assert QuadraticSurd(1, 5, 1, 2) == Fraction(3)
    assert QuadraticSurd(2, 0, 19, 4) == Fraction(1, 2)
    # negative denominators normalize away
    assert QuadraticSurd(-1, -1, 2, -1) == QuadraticSurd(1, 1, 2, 1)
    assert QuadraticSurd(2, 4, 6, 8) == QuadraticSurd(1, 2, 6, 4)


def test_constructor_errors():
    with pytest.raises(ZeroDivisionError):
        QuadraticSurd(1, 1, 2, 0)
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, -2, 1)


@given(surds(19), surds(19), surds(19))
@settings(max_examples=60, deadline=None)
def test_field_laws_single_radicand(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x and x * y == y * x
    assert (x - y) + y == x
    if y != 0:
        assert (x / y) * y == x


@given(surds(6), rationals)
@settings(max_examples=60, deadline=None)
def test_mixed_rational_arithmetic(x, c):
    assert x + c - c == x
    assert x * c == c * x
    if c != 0:
        assert (x * c) / c == x
    # comparisons agree with floats whenever floats can separate the values
    if abs(float(x) - float(c)) > 1e-9:
        assert (x < c) == (float(x) < float(c))


def test_cross_field_comparison():
    s2 = QuadraticSurd(0, 1, 2, 1)
    s3 = QuadraticSurd(0, 1, 3, 1)
    assert s2 < s3
    assert not s2 == s3
    assert (14 - QuadraticSurd(0, 1, 19, 1)) / 12 > (2 - s3) / 6
    with pytest.raises(ExactnessError):
        s2 + s3  # sqrt2 and sqrt3 generate different fields


@st.composite
def rescaled_pairs(draw):
    """(x, y) with y == x: x over a radicand r of RADICANDS, y over m^2 r, 2 <= m <= 7."""
    r, m = draw(st.sampled_from(RADICANDS)), draw(st.integers(2, 7))
    a, b = draw(rationals), draw(rationals)
    return QuadraticSurd.from_fractions(a, b, r), QuadraticSurd.from_fractions(a, b / m, m * m * r)


@given(rescaled_pairs(), rescaled_pairs(), rationals)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_non_square_free_radicands_agree_with_square_free_ones(xy, zw, c):
    # y and w keep m^2 r as given, and still behave as x and z do
    (x, y), (z, w) = xy, zw
    assert y.q == 0 or y.r > x.r
    assert x == y and y == x and hash(x) == hash(y)
    assert not (x < y or y < x)
    assert (y < c) == (x < c) and (y + c) == (x + c) and hash(y * c) == hash(x * c)
    assert (w < y) == (z < x) and (w == y) == (z == x)
    if math.isqrt(x.r * z.r) ** 2 == x.r * z.r:  # one field
        assert y + w == x + z and y * w == x * z and hash(y - w) == hash(x - z)
        if z != 0:
            assert y / w == x / z
    else:
        with pytest.raises(ExactnessError):
            y + w
    if y >= 0:
        assert (y * y).sqrt() == y and hash((y * y).sqrt()) == hash(x)
        try:
            want = x.sqrt()
        except ExactnessError:
            with pytest.raises(ExactnessError):
                y.sqrt()
        else:
            assert y.sqrt() == want


def test_sqrt_of_a_non_square_free_integer_keeps_its_radicand():
    s3, s12 = QuadraticSurd.sqrt_rational(3), QuadraticSurd.sqrt_rational(12)
    assert s12.expression() == "sqrt(12)"
    assert s12 + s3 == 3 * s3
    assert s12 / s3 == 2 and s12 * s3 == 6
    assert hash(s12) == hash(2 * s3)


def test_float_of_components_beyond_the_float_range():
    # the component formula overflows; the 2^-64 integer enclosure does not
    assert float(QuadraticSurd(0, 1, 2, 1) * Fraction(1, 10**400)) == 0.0
    assert float(QuadraticSurd(0, 10**400, 2, 10**400 + 1)) == math.sqrt(2)
    tiny = QuadraticSurd.sqrt_rational(Fraction(2, 10**401))  # sqrt(20) 10^-201
    assert math.isclose(float(tiny), math.sqrt(20) * 1e-201, rel_tol=1e-15)


def test_rational_surds_hash_like_fractions():
    assert hash(QuadraticSurd(3, 0, 0, 6)) == hash(Fraction(1, 2))
    assert QuadraticSurd(3, 0, 0, 6) == Fraction(1, 2)
    d = {QuadraticSurd(1, 1, 5, 2): "golden"}
    assert d[QuadraticSurd(2, 2, 5, 4)] == "golden"


def test_pow_and_abs():
    x = (1 - QuadraticSurd(0, 1, 19, 1)) / 3
    assert x**0 == 1
    assert x**5 == x * x * x * x * x
    assert abs(x) == -x  # 1 - sqrt19 < 0


def test_sqrt_rational_and_denesting():
    assert QuadraticSurd.sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
    assert QuadraticSurd.sqrt_rational(Fraction(3, 2)) == QuadraticSurd(0, 1, 6, 2)
    s19 = QuadraticSurd(0, 1, 19, 1)
    y = 3 * s19 - 6  # (3 sqrt19 - 6)^2 = 207 - 36 sqrt19
    assert (y * y).sqrt() == y
    with pytest.raises(ExactnessError):
        (1 + QuadraticSurd(0, 1, 2, 1)).sqrt()
    with pytest.raises(ValueError):
        (QuadraticSurd(0, 1, 2, 1) - 2).sqrt()


@given(surds(105))
@settings(max_examples=60, deadline=None)
def test_decimal_is_truncation(x):
    digits = 12
    lo = Fraction(x.decimal(digits))
    assert lo <= x < lo + Fraction(1, 10**digits)
    slo, shi = x.enclosure(digits)
    assert Fraction(slo) <= x <= Fraction(shi)
    assert Fraction(shi) - Fraction(slo) == Fraction(1, 10**digits)


def test_decimal_known_values():
    s19 = QuadraticSurd(0, 1, 19, 1)
    s105 = QuadraticSurd(0, 1, 105, 1)
    assert ((14 - s19) / 12).decimal(10) == "0.8034250880"
    assert ((7 - s105) / 28).decimal(7) == "-0.1159626"
    assert QuadraticSurd.from_rational(Fraction(1, 3)).decimal(5) == "0.33333"
    assert QuadraticSurd.from_rational(Fraction(-1, 3)).decimal(5) == "-0.33334"


@given(surds(19))
@settings(max_examples=60, deadline=None)
def test_float_conversion_close(x):
    assert abs(float(x) - (float(x.rational_part()) + float(x.surd_part()) * math.sqrt(19))) <= 1e-9 * max(
        1.0, abs(float(x))
    )


def test_expression_strings():
    s19 = QuadraticSurd(0, 1, 19, 1)
    assert "sqrt(19)" in ((14 - s19) / 12).expression()
    assert QuadraticSurd.from_rational(Fraction(2, 3)).expression() == "2/3"


# the six thresholds classify compares float rows with, a rational surd and a negative one
BRACKET_SURDS = [
    COND_A_MAX_SEC,
    COND_B_SUM_MIN,
    COND_B_DIFF_MAX,
    NONNEG_SEC_MAX,
    NONNEG_DIFF_MAX,
    WEYL_SUM_MAX,
    QuadraticSurd.from_rational(Fraction(1, 3)),
    (1 - QuadraticSurd(0, 1, 19, 1)) / 4,
]


def _float_comparisons(x, t):
    return (x < t, x <= t, x > t, x >= t, x == t, t < x, t <= x, t > x, t >= x, t == x, t != x)


@pytest.mark.parametrize("t", BRACKET_SURDS, ids=str)
def test_float_comparisons_on_the_bracket_equal_the_exact_ones(t, monkeypatch):
    # a float outside the surd's float bracket is decided in floats, one
    # inside it by the exact comparison; both give the Fraction(x) answer
    t = QuadraticSurd(t.p, t.q, t.r, t.s)  # a fresh surd builds its own bracket
    t < 0.0  # noqa: B015 -- builds the bracket
    lo, hi = t._bracket
    assert Fraction(lo) <= t <= Fraction(hi)
    below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    v = float(t)
    xs = [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf), lo, hi, below, above]
    xs += [0.0, -0.0]
    compare, reached = QuadraticSurd._compare, set()

    def counted(self, other):
        reached.add(float(other))  # other is x as a Fraction or a rational surd
        return compare(self, other)

    monkeypatch.setattr(QuadraticSurd, "_compare", counted)
    got = [_float_comparisons(x, t) for x in xs]
    monkeypatch.undo()
    assert {lo, hi} <= reached
    assert not {below, above} & reached
    assert got == [_float_comparisons(Fraction(x), t) for x in xs]


@pytest.mark.parametrize("t", BRACKET_SURDS[:1] + BRACKET_SURDS[-2:], ids=str)
def test_non_finite_floats_still_refuse_to_compare(t):
    for x, error in ((math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)):
        for compare in (
            lambda: x < t,
            lambda: x <= t,
            lambda: x > t,
            lambda: x >= t,
            lambda: x == t,
            lambda: t != x,
        ):
            with pytest.raises(error):
                compare()


def _fraction_bracket(t):
    """The float bracket of t built from Fraction endpoints of its 2^-64 enclosure."""
    scale = 1 << 64
    root_lo = Fraction(math.isqrt(t.r * scale * scale), scale)
    root_hi = root_lo + Fraction(1, scale)
    lo = (t.p + t.q * (root_lo if t.q >= 0 else root_hi)) / Fraction(t.s)
    hi = (t.p + t.q * (root_hi if t.q >= 0 else root_lo)) / Fraction(t.s)
    return math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf)


def test_integer_built_bracket_equals_the_fraction_built_one():
    # int / int true division rounds correctly, as float(Fraction) does
    rng = random.Random(53)
    checked = 0
    for _ in range(3000):
        p, q = (rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(0, 40)) for _ in range(2))
        r = rng.choice((2, 3, 19, 105, rng.randrange(2, 10**12)))
        t = QuadraticSurd(p, q, r, rng.randrange(1, 10 ** rng.randint(1, 40)))
        t < 0.0  # noqa: B015 -- builds the bracket
        assert t._bracket == _fraction_bracket(t), t
        checked += t.q != 0
    assert checked >= 2000


def _convergents(t, count):
    """The first continued-fraction convergents of an irrational surd t, exactly."""
    x, (h0, h1), (k0, k1) = t, (0, 1), (1, 0)
    out = []
    for _ in range(count):
        a = x._floor_scaled(0)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        out.append(Fraction(h1, k1))
        x = 1 / (x - a)
    return out


def _rational_comparisons(t, x):
    return (t < x, t <= x, t > x, t >= x, t == x, x < t, x <= t, x > t, x >= t, x == t)


def _exact_answers(sign):
    """_rational_comparisons(t, x) for sign = t._compare(x)."""
    return (sign < 0, sign <= 0, sign > 0, sign >= 0, sign == 0) + (
        sign > 0, sign >= 0, sign < 0, sign <= 0, sign == 0
    )


@pytest.mark.parametrize("t", BRACKET_SURDS[:6] + BRACKET_SURDS[-1:], ids=str)
def test_rational_comparisons_on_the_bracket_equal_the_exact_ones(t, monkeypatch):
    # a rational whose float lies beyond the surd's float bracket is decided
    # there; one within it, or too large for a float, falls back to the exact
    # comparison, and both give _compare's answer
    t = QuadraticSurd(t.p, t.q, t.r, t.s)
    v = Fraction(float(t))
    near = Fraction(t._floor_scaled(40), 10**40)
    tiny = Fraction(1, 10**30)
    xs = [v, v - tiny, v + tiny, near, near + tiny, *_convergents(t, 40), 10**400, -(10**400)]
    ints = [math.floor(float(t)) + k for k in range(-2, 3)]
    xs += ints
    want = [_exact_answers(t._compare(x)) for x in xs]
    compare, fallbacks = QuadraticSurd._compare, set()

    def counted(self, other):
        # other is x, or x as a rational surd
        fallbacks.add(other.as_fraction() if isinstance(other, QuadraticSurd) else other)
        return compare(self, other)

    monkeypatch.setattr(QuadraticSurd, "_compare", counted)
    got = [_rational_comparisons(t, x) for x in xs]
    monkeypatch.undo()
    assert got == want
    assert {10**400, near, near + tiny} <= fallbacks
    assert not fallbacks & set(ints)
