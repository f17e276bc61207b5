"""Shared code against independent references.

The model table against normal-form extraction from the model operators,
each generic closed form on exact input against the same form on float
input, the Haar sampler against the defining properties of SO(4), and the
sharp constants' decimals against mpmath at 50 digits, and surd square
roots against sympy's.
"""

import random
import time
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
    classify,
    duality_decompose,
    euler_upper_per_vol,
    gbc_integrands,
    kdiff_lower,
    kupper_lower,
    lemma_algebraic2_min,
    lemma_k3k1_bounds,
    model_space,
    sharp_constants,
)
from curv4.bivector import (
    BASIS_PAIRS,
    EINSTEIN_TOL,
    MODEL_BLOCKS,
    MODEL_NAMES,
    _einstein_defect,
    haar_rotations,
    normal_form_rows,
)
from curv4.errors import ExactnessError
from curv4.surd import QuadraticSurd
from test_classify import RIGID_POINT, _assert_rows_match_reference, _lattice_slab
from test_surd import BRACKET_SURDS


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


# -- square roots of integers ------------------------------------------------------


def test_sqrt_rational_agrees_with_sympy():
    # prime squares, products of large primes and square factors: the cases a
    # square-free split of the radicand would have had to factor
    rng = random.Random(41)
    primes = [2, 3, 7, 101, 10007, 1000003]
    cases = list(range(200)) + [rng.randrange(1, 10**12) for _ in range(300)]
    cases += [p * q * k for p in primes for q in primes for k in (1, 2, 12, 49, 1009)]
    cases += [p * p * q * q * q for p in primes[:5] for q in primes[:5]]
    cases += [999999937**2, 2 * 999999937**2]
    for n in cases:
        root = QuadraticSurd.sqrt_rational(n)
        assert root * root == n, n
        error = sympy.Rational(root.decimal(50)) - sympy.sqrt(n)
        assert -sympy.Rational(1, 10**50) < error.evalf(90) <= 0, n


# -- sign, order and decimals of surds ---------------------------------------------

# square-free radicands, then 4, 9 and 100 times some of them
ORDER_RADICANDS = (2, 3, 6, 19, 105, 12, 76, 171, 420, 1900)


def _sympy_value(x):
    if isinstance(x, Fraction):
        return sympy.Rational(x.numerator, x.denominator)
    return (sympy.Integer(x.p) + x.q * sympy.sqrt(x.r)) / x.s


def _sympy_sign(e):
    sign = sympy.sign(e)
    assert sign.is_Integer, e  # sympy decided it
    return int(sign)


def _convergents(t, count):
    """The first continued-fraction convergents of t, from sympy's periodic expansion."""
    *head, period = sympy.continued_fraction_periodic(t.p, t.s, t.r, t.q)
    terms = (head + period * count)[:count]
    return [Fraction(int(c.p), int(c.q)) for c in sympy.continued_fraction_convergents(terms)]


def _near_rationals(t):
    """Rationals within 10^-60 of t: its floor at 10^-70, and that +- 10^-65."""
    near = Fraction(int(sympy.floor(_sympy_value(t) * 10**70)), 10**70)
    return [near, near - Fraction(1, 10**65), near + Fraction(1, 10**65)]


def _random_surd(rng, digits, r=None):
    p, q = (rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(0, digits)) for _ in range(2))
    r = rng.choice(ORDER_RADICANDS) if r is None else r
    return QuadraticSurd(p, q, r, rng.randrange(1, 10 ** rng.randint(1, digits)))


# components of 10^400: values near 1 - sqrt2, sqrt19 - 1/2 and 3 - sqrt420/10,
# sqrt2 10^-400, and one just above the integer 10^400
HUGE_SURDS = [
    QuadraticSurd(10**400 + 1, -(10**400), 2, 10**400 - 3),
    QuadraticSurd(-(10**400) - 7, 10**400 + 11, 76, 2 * 10**400 + 1),
    QuadraticSurd(3 * 10**400, -(10**399) - 1, 420, 10**400 - 1),
    QuadraticSurd(0, 1, 2, 10**400),
    QuadraticSurd(10**400, 1, 105, 1),
]


def test_surd_sign_and_decimals_agree_with_sympy():
    # _sign, decimal(d) and enclosure(d) for d = 0..40 against sympy's exact
    # signs of the value and of value 10^40 - n and n + 1 - value 10^40, for
    # n = _floor_scaled(40).  sympy.floor is no reference: on the random surd
    # (-429364731169925 + 175287417485598 sqrt6)/350574834971196, about
    # -3.3e-30, it puts floor(value 10^40) 7 too low.
    rng = random.Random(71)
    thresholds = BRACKET_SURDS[:6]
    cases = [_random_surd(rng, 30) for _ in range(40)] + HUGE_SURDS + thresholds
    for t in thresholds:  # t - c is tiny: 10^-70 or less for the near rationals
        cases += [t - c for c in _convergents(t, 30)[-3:] + _near_rationals(t)]
    cases += [-x for x in cases[::3]]
    for x in cases:
        value = _sympy_value(x)
        assert x._sign() == _sympy_sign(value), x
        top, scaled = x._floor_scaled(40), value * 10**40
        assert _sympy_sign(scaled - top) >= 0 and _sympy_sign(top + 1 - scaled) > 0, x
        for d in range(41):
            n = top // 10 ** (40 - d)  # floor(value 10^d)
            lo, hi = x.enclosure(d)
            assert x.decimal(d) == lo, (x, d)
            assert (Fraction(lo) * 10**d, Fraction(hi) * 10**d) == (n, n + 1), (x, d)


def test_surd_comparisons_agree_with_sympy():
    # <, > and == on pairs whose difference sympy signs exactly: a threshold
    # against its convergents and rationals within 10^-60, random pairs in one
    # field and across fields, equal values over different radicands, and
    # sqrt2 against a sqrt3-surd within 10^-50 of it
    rng = random.Random(73)
    pairs = []
    for t in BRACKET_SURDS[:6]:
        pairs += [(t, c) for c in _convergents(t, 30) + _near_rationals(t)]
    for _ in range(60):
        x = _random_surd(rng, 20)
        pairs.append((x, _random_surd(rng, 20, x.r if rng.random() < 0.5 else None)))
    pairs += [(x, -y) for x, y in pairs[::5]]
    pairs += [
        (QuadraticSurd(1, 1, 3, 2), QuadraticSurd(2, 1, 12, 4)),
        (QuadraticSurd(0, 10, 19, 3), QuadraticSurd(0, 1, 1900, 3)),
    ]
    pairs += [(h, g) for h in HUGE_SURDS for g in HUGE_SURDS]
    s2_minus_s3 = int(sympy.floor((sympy.sqrt(2) - sympy.sqrt(3)) * 10**50))
    pairs.append((QuadraticSurd(0, 1, 2), QuadraticSurd(s2_minus_s3, 10**50, 3, 10**50)))
    for x, y in pairs:
        want = _sympy_sign(_sympy_value(x) - _sympy_value(y))
        assert ((x < y), (x > y), (x == y), (y < x), (y == x)) == (
            want < 0, want > 0, want == 0, want > 0, want == 0
        ), (x, y)


@pytest.mark.parametrize("k", [14, 30, 100])
def test_exact_closed_forms_of_long_decimals_are_fast(k):
    # x = 0.1025 + 7 10^-k: the radicands carry 10^2k, which a square-free
    # split of each would have had to factor
    x = Fraction(1025, 10**4) + Fraction(7, 10**k)
    with mpmath.workdps(80):
        mx = mpmath.mpf(x.numerator) / x.denominator
        s3 = mpmath.sqrt(3)
        t = 1 - 2 * mx
        cases = [
            (kupper_lower, 1 - 2 * x, (15 - 8 * t - s3 * mpmath.sqrt(96 * t * t - 80 * t + 19)) / 28),
            (kdiff_lower, x, (3 - 2 * mx - mpmath.sqrt(1 + 8 * mx * mx - 4 * mx)) / 6),
            (a2a1_gap, x, 1 - 3 * mx - mpmath.sqrt(3 + 18 * mx * mx - 15 * mx) / 2),
        ]
        for form, arg, want in cases:
            start = time.perf_counter()
            got = form(arg)
            assert time.perf_counter() - start < 0.05, form.__name__
            assert isinstance(got, QuadraticSurd), form.__name__
            assert abs(float(got) - want) <= 1e-15, form.__name__


def test_classify_with_a_large_prime_denominator_is_fast_and_unchanged():
    # a2 = 3/10 + 1/P puts the prime P squared into the radicands of the
    # derived rows, where a square-free split would have to find it
    big = 1000003
    a1, a2 = Fraction(1, 10), Fraction(3, 10) + Fraction(1, big)
    data = BergerData((a1, a2, 1 - a1 - a2), (0, 0, 0))
    start = time.perf_counter()
    got = classify(data)
    assert time.perf_counter() - start < 1.0
    _assert_rows_match_reference(got)
    assert {r.name for r in got.rows} >= {"derived_min_sec", "derived_min_sec_diff"}


# -- exact operators on one common denominator -------------------------------------


def _object_array_decomposition(op):
    """(s, |E|^2, w+, w-, is_einstein) of an exact operator from the Fraction blocks.

    The blocks are (a + b + b^T + c)/2, (a - b - b^T + c)/2 and (a + b^T - b - c)/2
    of the object array of op.exact; the spectra are exact when both Weyl
    blocks are diagonal and come from eigvalsh of the float blocks otherwise.
    """
    ex = np.array(op.exact, dtype=object)
    a, b, c = ex[:3, :3], ex[:3, 3:], ex[3:, 3:]
    rp, rm, cross = (a + b + b.T + c) / 2, (a - b - b.T + c) / 2, (a + b.T - b - c) / 2
    s = 2 * ex.trace()
    e2 = 4 * (cross * cross).sum()
    m = op.matrix
    fa, fb, fc = m[:3, :3], m[:3, 3:], m[3:, 3:]
    if all(x[i, j] == 0 for x in (rp, rm) for i in range(3) for j in range(3) if i != j):
        spectra = [tuple(sorted(x[i, i] - Fraction(s, 12) for i in range(3))) for x in (rp, rm)]
    else:
        float_blocks = ((fa + fb + fb.T + fc) / 2, (fa - fb - fb.T + fc) / 2)
        spectra = [tuple(np.linalg.eigvalsh(x) - float(s) / 12.0) for x in float_blocks]
    scale = max(1.0, float(np.abs(m).max()))
    einstein = _einstein_defect((fa + fb.T - fb - fc) / 2, float(s), float(s) / 4.0, scale)
    return s, e2, *spectra, einstein <= EINSTEIN_TOL


def _assert_decomposition_matches(op):
    d = duality_decompose(op)
    s, e2, wp, wm, einstein = _object_array_decomposition(op)
    assert type(d.s) is type(d.traceless_ricci_norm_sq) is Fraction
    assert (d.s, d.traceless_ricci_norm_sq, d.is_einstein) == (s, e2, einstein)
    for got, want in ((d.w_plus.eigenvalues, wp), (d.w_minus.eigenvalues, wm)):
        assert got == want and list(map(type, got)) == list(map(type, want))
    return isinstance(wp[0], Fraction)


def test_exact_decomposition_matches_the_object_array_formula_on_the_lattice():
    cases = _lattice_slab() + [BergerData(*MODEL_BLOCKS[name]) for name in MODEL_NAMES]
    cases.append(RIGID_POINT)
    ops = [berger_to_operator(d) for d in cases] + [model_space(name) for name in MODEL_NAMES]
    assert len(cases) >= 1353
    assert all([_assert_decomposition_matches(op) for op in ops])


def _random_exact_rows(rng, primes):
    """A symmetric Bianchi 6x6 of Fractions whose entries have the given prime denominators."""
    rows = [[Fraction(rng.randint(-30, 30), rng.choice(primes)) for _ in range(6)] for _ in range(6)]
    rows = [[rows[min(i, j)][max(i, j)] for j in range(6)] for i in range(6)]
    rows[2][5] = rows[5][2] = -rows[0][3] - rows[1][4]
    return rows


def test_exact_decomposition_matches_on_coprime_denominators():
    # an lcm of at least 10^6: the common denominator is not a small number
    rng = random.Random(43)
    primes = [101, 103, 107, 109, 10007, 10009]
    a1 = Fraction(1, 101)
    a2 = a1 + Fraction(1, 103)
    b1, b2 = Fraction(-1, 10007), Fraction(1, 10009)
    a, b = (a1, a2, 1 - a1 - a2), (b1, b2, -b1 - b2)
    ops = [berger_to_operator(BergerData(a, b))]
    # the frame e4, e3, e2, e1 reverses both diagonal blocks, and off-diagonal
    # entries of b + b^T alone make the Weyl blocks non-diagonal
    ops.append(CurvatureOperator.from_exact(normal_form_rows(a[::-1], b[::-1])))
    rows = normal_form_rows(a, b)
    rows[0][4] = rows[4][0] = rows[1][3] = rows[3][1] = Fraction(1, 10007)
    ops.append(CurvatureOperator.from_exact(rows))
    ops += [CurvatureOperator.from_exact(_random_exact_rows(rng, primes)) for _ in range(30)]
    for op in ops:
        assert op._exact_numerators[1] >= 10**6
        _assert_decomposition_matches(op)
    assert not all(duality_decompose(op).is_einstein for op in ops)


def _cayley_rotation(rng):
    """A rational rotation (I - A)(I + A)^-1 of R^4, A skew with small rational entries."""
    a = sympy.zeros(4, 4)
    for i in range(4):
        for j in range(i + 1, 4):
            a[i, j] = sympy.Rational(rng.randint(-3, 3), rng.randint(1, 4))
            a[j, i] = -a[i, j]
    q = (sympy.eye(4) - a) * (sympy.eye(4) + a).inv()
    return np.array([[Fraction(int(x.p), int(x.q)) for x in q.row(i)] for i in range(4)])


def _rotate_exact(rows, q):
    """L^T M L for the bivector action L of a rational rotation q, in Fractions."""
    first, second = (np.array(BASIS_PAIRS) - 1).T
    u, v = q[:, first], q[:, second]
    lift = u[first, :] * v[second, :] - u[second, :] * v[first, :]
    return (lift.T @ np.array(rows, dtype=object) @ lift).tolist()


def test_exact_decomposition_matches_on_cayley_rotated_operators():
    rng = random.Random(47)
    bases = [berger_to_operator(d) for d in _lattice_slab()[::60]] + [model_space("cp2")]
    non_diagonal = 0
    for k in range(60):
        base = bases[k % len(bases)]
        op = CurvatureOperator.from_exact(_rotate_exact(base.exact, _cayley_rotation(rng)))
        non_diagonal += not _assert_decomposition_matches(op)
    assert non_diagonal >= 50
