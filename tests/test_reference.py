"""Shared code against independent references.

The model table against normal-form extraction from the model operators,
each generic closed form on exact input against the same form on float
input, the Haar sampler against the defining properties of SO(4), and the
sharp constants' decimals against mpmath at 50 digits, and surd square
roots against sympy's denesting.
"""

import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from curv4 import (
    BergerData,
    CurvatureOperator,
    a2a1_gap,
    berger_data,
    berger_to_operator,
    euler_upper_per_vol,
    gbc_integrands,
    kdiff_lower,
    kupper_lower,
    lemma_algebraic2_min,
    lemma_k3k1_bounds,
    model_space,
    sharp_constants,
)
from curv4.bivector import MODEL_BLOCKS, MODEL_NAMES, haar_rotations
from curv4.errors import ExactnessError
from curv4.surd import QuadraticSurd


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_model_table_matches_extraction(name):
    d = berger_data(model_space(name))
    assert (d.a, d.b) == MODEL_BLOCKS[name]
    assert all(type(x) is Fraction for x in (*d.a, *d.b))


def _agree(exact, flt):
    exact = exact if isinstance(exact, tuple) else (exact,)
    flt = flt if isinstance(flt, tuple) else (flt,)
    for e, f in zip(exact, flt, strict=True):
        assert not isinstance(e, float) and isinstance(f, float)
        assert abs(float(e) - f) <= 1e-12 * max(1.0, abs(f))


RATIONAL_GRID = [Fraction(k, 60) for k in range(121)]
THIRD = Fraction(1, 3)
CLOSED_FORMS = [
    (kupper_lower, [(x,) for x in RATIONAL_GRID if THIRD <= x <= 1]),
    (kdiff_lower, [(x,) for x in RATIONAL_GRID if x < 2]),
    (a2a1_gap, [(x,) for x in RATIONAL_GRID if x <= THIRD]),
    (lemma_k3k1_bounds, [(x, y) for x in RATIONAL_GRID[1::7] for y in RATIONAL_GRID[::7]]),
    (lemma_algebraic2_min, [(x, y) for x in RATIONAL_GRID[::6] for y in RATIONAL_GRID[::6]]),
    (
        euler_upper_per_vol,
        [(x, y) for x in RATIONAL_GRID if x <= THIRD for y in RATIONAL_GRID[::5] if y >= THIRD],
    ),
]


@pytest.mark.parametrize("form, args", CLOSED_FORMS, ids=[f.__name__ for f, _ in CLOSED_FORMS])
def test_closed_form_exact_and_float_agree(form, args):
    assert len(args) >= 10
    for xs in args:
        _agree(form(*xs), form(*(float(x) for x in xs)))


def test_gbc_integrands_exact_and_float_agree():
    points = [BergerData(*MODEL_BLOCKS[name]) for name in MODEL_NAMES]
    points.append(
        BergerData(
            a=(Fraction(7, 60), Fraction(7, 60), Fraction(23, 30)),
            b=(Fraction(-13, 60), Fraction(-13, 60), Fraction(13, 30)),
        )
    )
    # a2 = a3 and b2 = b3, with |b2 - b1| = a2 - a1 on the dominance bound
    points += [
        BergerData(a=(x, (1 - x) / 2, (1 - x) / 2), b=(-(1 - 3 * x) / 3, (1 - 3 * x) / 6, (1 - 3 * x) / 6))
        for x in RATIONAL_GRID[:21:4]
    ]
    for d in points:
        exact = berger_to_operator(d)
        flt = CurvatureOperator(exact.matrix, exact.lambda_einstein)
        ge, gf = gbc_integrands(exact), gbc_integrands(flt)
        assert ge.chi_coeff is not None and gf.chi_coeff is None
        for e, f in ((ge.chi_density, gf.chi_density), (ge.tau_density, gf.tau_density)):
            assert abs(e - f) <= 1e-12 * max(1.0, abs(f))


def test_haar_rotations_are_special_orthogonal():
    q = haar_rotations(2000, seed=3)
    assert q.shape == (2000, 4, 4)
    gram = np.einsum("sji,sjk->sik", q, q)
    assert float(np.abs(gram - np.eye(4)).max()) <= 1e-12
    assert float(np.abs(np.linalg.det(q) - 1.0).max()) <= 1e-12
    assert np.array_equal(q, haar_rotations(2000, seed=3))
    # Haar on SO(4) has mean zero entries; a fixed orientation fix biased
    # toward any column would show here
    assert float(np.abs(q.mean(axis=0)).max()) <= 0.1


def _mp_constants():
    """The sharp constants from their defining formulas, in mpmath."""
    s3, s6, s19, s105 = (mpmath.sqrt(n) for n in (3, 6, 19, 105))
    return {
        "sec_upper_threshold": (14 - s19) / 12,
        "weighted_sum_lower": (s19 - 3) / 4,
        "sec_diff_upper": (7 - s19) / 4,
        "apriori_min_lower": (7 - s105) / 28,
        "nonneg_sec_threshold": s3 / 2,
        "nonneg_diff_threshold": s3 - 1,
        "euler_pinch_alpha": (2 - s3) / 6,
        "cp2_sec_upper": mpmath.mpf(2) / 3,
        "weyl_sum_threshold": s6 / 2,
    }


def test_sharp_constants_agree_with_mpmath():
    # an independent arithmetic: mpmath at 50 digits, not QuadraticSurd
    with mpmath.workdps(50):
        book = sharp_constants()
        reference = _mp_constants()
        assert set(book["constants"]) == set(reference)
        for name, const in book["constants"].items():
            value = reference[name]
            digits = int(mpmath.floor(value * 10**15))
            sign, (whole, frac) = "-" if digits < 0 else "", divmod(abs(digits), 10**15)
            assert const.decimal == f"{sign}{whole}.{frac:015d}", name
            lo, hi = const.enclosure
            assert lo == const.decimal and Fraction(hi) - Fraction(lo) == Fraction(1, 10**15), name
            assert mpmath.mpf(lo) < value < mpmath.mpf(hi), name

        # the two endpoint identities, with kupper_lower and kdiff_lower
        # written out in mpmath
        s3, s6 = mpmath.sqrt(3), mpmath.sqrt(6)
        beta = reference["sec_upper_threshold"]
        beta1 = (15 - 8 * beta - s3 * mpmath.sqrt(96 * beta**2 - 80 * beta + 19)) / 28
        assert abs(4 * (beta - beta1) / s6 - s6 / 2) <= mpmath.mpf("1e-45")
        assert abs(beta - beta1 - mpmath.mpf(3) / 4) <= mpmath.mpf("1e-45")
        d = reference["sec_diff_upper"]
        d1 = (3 - 2 * d - mpmath.sqrt(1 + 8 * d**2 - 4 * d)) / 6
        assert abs((2 + 2 * d - 6 * d1) / s6 - s6 / 2) <= mpmath.mpf("1e-45")
        assert abs(2 + 2 * d - 6 * d1 - 3) <= mpmath.mpf("1e-45")
    assert all(book["identities"].values())


# square-free radicands of the sharp constants' fields, plus 2
DENEST_RADICANDS = (2, 3, 6, 19, 105)


def _denest_cases(r, rng):
    """Positive a + b sqrt(r), b != 0: squares in Q(sqrt r), r times squares,
    squares of sqrt(r1) c + sqrt(r2) d with r = r1 r2, (sqrt r - 1)^2 (for
    r = 2, sqrt(3 - 2 sqrt2) = sqrt2 - 1, whose c > 0 root 1 - sqrt2 is
    negative), and random values."""
    def small():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    roots = [(small(), small()) for _ in range(6)]
    cases = [(c * c + r * d * d, 2 * c * d) for c, d in roots]
    cases += [(r * (c * c + r * d * d), 2 * r * c * d) for c, d in roots[:3]]
    splits = [k for k in range(2, r) if r % k == 0]
    for k in splits[:2]:
        c, d = small(), small()
        cases.append((k * c * c + r // k * d * d, 2 * c * d))
    cases.append((Fraction(r + 1), Fraction(-2)))
    cases += [(Fraction(rng.randint(1, 60), rng.randint(1, 6)), small()) for _ in range(6)]
    return [(a, b) if a + b * mpmath.sqrt(r) > 0 else (-a, -b) for a, b in cases]


def _in_field(expr, r):
    """(c, d) when expr is c + d sqrt(r) with rational c, d; else None."""
    c = d = Fraction(0)
    for term in sympy.Add.make_args(sympy.expand(expr)):
        coeff, rest = term.as_coeff_Mul()
        if not coeff.is_Rational:
            return None
        if rest == 1:
            c += Fraction(int(coeff.p), int(coeff.q))
        elif rest == sympy.sqrt(r):
            d += Fraction(int(coeff.p), int(coeff.q))
        else:
            return None
    return c, d


@pytest.mark.parametrize("r", DENEST_RADICANDS)
def test_surd_sqrt_denests_exactly_when_sympy_does(r):
    # QuadraticSurd.sqrt succeeds exactly when sympy.sqrtdenest writes the
    # root as c + d sqrt(r), and then the two are equal; every other root
    # (still nested, or denested outside Q(sqrt r)) raises ExactnessError
    rng = random.Random(r)
    outcomes = {"denests": 0, "raises": 0}
    for a, b in _denest_cases(r, rng):
        x = QuadraticSurd.from_fractions(a, b, r)
        root = sympy.sqrtdenest(
            sympy.sqrt(sympy.Rational(a.numerator, a.denominator)
                       + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(r))
        )
        want = _in_field(root, r)
        if want is None:
            with pytest.raises(ExactnessError):
                x.sqrt()
            outcomes["raises"] += 1
        else:
            assert x.sqrt() == QuadraticSurd.from_fractions(*want, r), (a, b)
            outcomes["denests"] += 1
    assert outcomes["denests"] >= 9 and outcomes["raises"] >= 6, outcomes
