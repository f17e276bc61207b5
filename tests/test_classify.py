"""Verdict logic, pinch-to-Weyl bounds, discriminant sign condition."""

import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import (
    BergerData,
    QuadraticSurd,
    berger_data,
    berger_to_operator,
    classify,
    conjugate_operator,
    duality_decompose,
    frame_functional_min,
    hamilton_gap,
    kdiff_lower,
    kupper_lower,
    model_space,
    sample_berger_data,
    sharp_constants,
    wpm_discriminant,
    wpm_discriminant_oracle,
)
from curv4.bivector import MODEL_BLOCKS, haar_rotations
from curv4.classify import _floor_row
from curv4.errors import DomainError

S19 = QuadraticSurd(0, 1, 19, 1)
BETA = (14 - S19) / 12
SQRT32 = QuadraticSurd(0, 1, 6, 2)  # sqrt(3/2) = sqrt6/2
THIRD_Q = Fraction(1, 3)

# valid non-model data with strict interior Hamilton slack 13/200: a slide
# along the tight cp2 dominance face
RIGID_POINT = BergerData(
    a=(Fraction(7, 60), Fraction(7, 60), Fraction(23, 30)),
    b=(Fraction(-13, 60), Fraction(-13, 60), Fraction(13, 30)),
)



def _boundary_point(m: Fraction) -> BergerData:
    """The point s = 1/(3 m^2 + 3), t = m s of the tight face a1 = a2 = s, b = (-t, -t, 2t).

    The Hamilton gap there is 3 s^2 + 3 t^2 - s = 0 exactly; m = 1 is cp2, and
    m >= 1 keeps the dominance constraint |b3 - b1| <= a3 - a1.
    """
    s = 1 / (3 * m * m + 3)
    return BergerData((s, s, 1 - 2 * s), (-m * s, -m * s, 2 * m * s))


BOUNDARY_FAMILY = [
    _boundary_point(Fraction(m)) for m in ("1", "9/8", "5/4", "4/3", "11/8", "3/2")
]

CONDITION_ROWS = ("condition_a", "condition_b_sum", "condition_b_diff", "weyl_sum_small")

# the Hamilton-feasible slice a3 <= 0.8: points p = (a1, a2, a3, b1, b2, b3) at
# Einstein constant 1 with hamilton_gap(p[:3], p[3:]) >= 0 and SLICE_ROWS @ p <= SLICE_BOUNDS
# (sorted a, the a3 cap, and +-(b_j - b_i) <= a_j - a_i)
SLICE_A3_MAX = 0.8


def _slice_rows():
    rows = [([1, -1, 0, 0, 0, 0], 0.0), ([0, 1, -1, 0, 0, 0], 0.0)]
    rows.append(([0, 0, 1, 0, 0, 0], SLICE_A3_MAX))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for sign in (1, -1):
            c = [0] * 6
            c[i], c[j], c[3 + i], c[3 + j] = 1, -1, -sign, sign
            rows.append((c, 0.0))
    return np.array([c for c, _ in rows], dtype=float), np.array([e for _, e in rows])


SLICE_ROWS, SLICE_BOUNDS = _slice_rows()
# strictly inside every row, with Hamilton slack 0.0327: RIGID_POINT moved
# off its tight faces a1 = a2, b1 = b2 and |b3 - b1| = a3 - a1
SLICE_START = (0.11, 0.125, 0.765, -0.2, -0.205, 0.405)


def _slice_chord(p, d):
    """The steps s with p + s d in the slice: at most two intervals (lo, hi).

    The rows give one interval.  Along the line the Hamilton gap is the
    quadratic g0 + g1 s + g2 s^2 with g0 >= 0; g2 takes either sign, so its
    nonnegative set is one interval between the roots (g2 < 0), or all s
    outside them (g2 > 0), or everything (no real roots).
    """
    cd, slack = SLICE_ROWS @ d, SLICE_BOUNDS - SLICE_ROWS @ p
    lo = max((slack[cd < 0] / cd[cd < 0]).tolist(), default=-math.inf)
    hi = min((slack[cd > 0] / cd[cd > 0]).tolist(), default=math.inf)
    (a1, a2, a3, b1, b2, b3), (d1, d2, d3, e1, e2, e3) = p, d
    g0 = a1 - (a1 * a1 + b1 * b1 + 2 * (a2 * a3 + b2 * b3))
    g1 = d1 - 2 * (a1 * d1 + b1 * e1 + a2 * d3 + a3 * d2 + b2 * e3 + b3 * e2)
    g2 = -(d1 * d1 + e1 * e1 + 2 * (d2 * d3 + e2 * e3))
    disc = g1 * g1 - 4 * g2 * g0
    if disc <= 0:
        return [(lo, hi)]
    q = -(g1 + math.copysign(math.sqrt(disc), g1)) / 2  # roots q/g2 and g0/q, no cancellation
    r1, r2 = sorted((q / g2, g0 / q))
    if g2 < 0:
        return [(max(lo, r1), min(hi, r2))]
    return [(u, v) for u, v in ((lo, min(hi, r1)), (max(lo, r2), hi)) if u < v]


def hamilton_slice_points(count, seed):
    """`count` seeded hit-and-run points of the Hamilton-feasible slice a3 <= 0.8.

    Hit-and-run (Smith, Operations Research 32, 1984) from SLICE_START: each
    step draws a direction d in the plane sum(a) = sum(b) = 0 and moves to a
    uniform point of the chord through p along d (_slice_chord).  Every
    fifth point is kept, as float BergerData at Einstein constant 1.
    """
    thin = 5
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count * thin, 4))
    uniform = rng.uniform(size=count * thin)
    p = np.array(SLICE_START)
    points = []
    for k, ((x1, x2, y1, y2), u) in enumerate(zip(g.tolist(), uniform.tolist())):
        d = np.array([x1, x2, -x1 - x2, y1, y2, -y1 - y2])
        pieces = _slice_chord(p, d)
        t = u * sum(hi - lo for lo, hi in pieces)
        lo, hi = pieces[0]
        if t > hi - lo and len(pieces) == 2:
            t -= hi - lo
            lo, hi = pieces[1]
        p = p + min(lo + t, hi) * d
        if k % thin == thin - 1:
            points.append(BergerData(tuple(p[:3].tolist()), tuple(p[3:].tolist())))
    return points


def test_verdict_models():
    v = classify(model_space("sphere"))
    assert v.verdict == "model_data"
    assert set(v.candidates) >= {"sphere", "rp4"}  # identical normal forms
    assert all(v.row(name).holds for name in CONDITION_ROWS)

    v = classify(model_space("cp2"))
    assert v.verdict == "model_data" and v.candidates == ("cp2",)
    assert all(v.row(name).holds for name in CONDITION_ROWS)

    v = classify(model_space("s2xs2"))
    assert v.verdict == "model_data" and v.candidates == ("s2xs2",)
    assert not any(v.row(name).holds for name in CONDITION_ROWS)


def test_verdict_rigidity_regime():
    v = classify(RIGID_POINT)
    assert v.verdict == "rigidity_regime"
    assert v.candidates == ("sphere", "rp4", "cp2")
    assert v.row("hamilton").holds and v.row("condition_a").holds
    # dominance is tight for this point, so the Weyl bound is attained
    assert v.row("pinch_weyl_upper").lhs == pytest.approx(
        v.row("pinch_weyl_upper").rhs, abs=1e-12
    )


def test_verdict_inconclusive():
    v = classify(BergerData(a=(-0.2, 0.55, 0.65), b=(0.0, 0.0, 0.0)))
    assert v.verdict == "inconclusive" and v.candidates == ()
    assert v.row("condition_a").holds  # the pinch alone is not enough
    assert not v.row("hamilton").holds
    with pytest.raises(KeyError):
        v.row("no_such_row")
    with pytest.raises(DomainError):
        classify(42)


@pytest.mark.parametrize("kind", ["rotated", "float-lambda-2", "exact"])
def test_classify_normalizes_once(monkeypatch, kind):
    # every row reads the one normalized datum
    if kind == "rotated":
        sample = berger_to_operator(sample_berger_data(1, seed=3)[0])
        source = conjugate_operator(sample, haar_rotations(1, 4)[0])
    elif kind == "float-lambda-2":
        ma, mb = MODEL_BLOCKS["cp2"]
        source = BergerData(tuple(2.0 * x for x in ma), tuple(2.0 * x for x in mb), 2.0)
    else:
        source = RIGID_POINT
    calls, normalized = [], BergerData.normalized

    def count(self):
        calls.append(self)
        return normalized(self)

    monkeypatch.setattr(BergerData, "normalized", count)
    v = classify(source)
    assert len(calls) == 1
    assert v.data.lambda_einstein == 1


def test_verdict_outside_closed_form_domains():
    # spread a3 - a2 >= 2: kdiff_lower has no value there, and a3 > 1 puts
    # kupper_lower out of reach too; both rows are skipped with a reason
    v = classify(BergerData(a=(-1.0, 0.0, 2.0), b=(0, 0, 0)))
    assert v.verdict == "inconclusive" and v.candidates == ()
    assert [name for name, _ in v.skipped] == ["derived_min_sec", "derived_min_sec_diff"]
    with pytest.raises(KeyError):
        v.row("derived_min_sec_diff")

    # a3 > 1 with a small spread: only the kupper row is skipped
    v = classify(BergerData(a=(-1.0, 0.5, 1.5), b=(0, 0, 0)))
    assert [name for name, _ in v.skipped] == ["derived_min_sec"]
    assert "kupper_lower" in v.skipped[0][1]
    assert v.row("derived_min_sec_diff").holds is False
    assert classify(model_space("cp2")).skipped == ()


def test_verdict_exact_data_inside_ordering_tolerance():
    # a3 a hair below 1/3 is valid within the 1e-9 ordering tolerance, and
    # exact data there gets the same verdict as float data
    e = Fraction(4, 10**10)
    exact = classify(BergerData(a=(THIRD_Q + e, THIRD_Q, THIRD_Q - e), b=(0, 0, 0)))
    flt = classify(BergerData(a=(1 / 3 + 4e-10, 1 / 3, 1 / 3 - 4e-10), b=(0.0, 0.0, 0.0)))
    assert exact.verdict == flt.verdict == "model_data"
    assert exact.row("derived_min_sec").holds and flt.row("derived_min_sec").holds


def test_row_str_marks():
    v = classify(model_space("s2xs2"))
    assert "FAIL" in str(v.row("condition_a"))
    assert "ok" in str(v.row("hamilton"))


def test_condition_a_threshold_is_sharp():
    below = BergerData(a=(0.05, 0.15, 0.80), b=(0.0, 0.0, 0.0))
    above = BergerData(a=(0.045, 0.145, 0.81), b=(0.0, 0.0, 0.0))
    v = classify(below)
    assert v.row("condition_a").holds
    assert not classify(above).row("condition_a").holds
    assert v.row("condition_b_sum").holds  # 2 a2 + a1 = 0.35 just clears (sqrt19 - 3)/4
    assert v.row("condition_b_diff").holds
    v = classify(BergerData(a=(0.04, 0.14, 0.82), b=(0.0,) * 3))
    assert not v.row("condition_b_sum").holds  # 0.32 lands under the floor


def test_condition_a_monotone_in_a3():
    # shrinking the top sectional curvature can only help condition (a)
    held = False
    for k in range(40, 0, -1):
        a3 = 0.6 + 0.4 * k / 40.0
        a1 = (1.0 - a3) / 2.0
        row = classify(BergerData(a=(a1, a1, a3), b=(0.0, 0.0, 0.0))).row("condition_a")
        if held:
            assert row.holds
        held = row.holds
    assert held


def test_pinch_modes_agree_when_normalized():
    # the one pinch row writes the bound as 4 (a3 - a1)/sqrt6; on normalized
    # data 2 - 6 a1 + 2 (a3 - a2) is the same number, which is why there is
    # no second row
    for data in sample_berger_data(50, seed=21):
        a1, a2, a3 = (float(x) for x in data.normalized().a)
        row = classify(data).row("pinch_weyl_upper")
        assert row.rhs == pytest.approx(4.0 * (a3 - a1) / math.sqrt(6.0), abs=1e-12)
        assert row.rhs == pytest.approx((2 - 6 * a1 + 2 * (a3 - a2)) / math.sqrt(6.0), abs=1e-12)
        assert row.holds  # bound is a proved upper bound


def test_pinch_bound_exact_at_theorem_endpoint():
    a1 = kupper_lower(BETA)
    endpoint = BergerData(a=(a1, 1 - BETA - a1, BETA), b=(Fraction(0),) * 3)
    row = classify(endpoint).row("pinch_weyl_upper")
    assert row.rhs == float(SQRT32)  # the ℚ(√19) algebra collapses
    assert sharp_constants()["identities"]["upper_pipeline_endpoint"] is True
    # the other form's numerator is 3 as well: 3/sqrt6 = sqrt6/2
    e1, e2, e3 = endpoint.a
    assert 4 * (e3 - e1) == 2 - 6 * e1 + 2 * (e3 - e2) == 3
    assert row.holds


def test_exact_datum_at_the_sharp_threshold_meets_every_condition_with_equality():
    # the Q(sqrt19) datum at a3 = B on the Hamilton boundary, which attains
    # kupper_lower(B); there a3 - a2 = D and 2 a2 + a1 = (sqrt19 - 3)/4 too
    a = ((5 - S19) / 12, (2 * S19 - 7) / 12, BETA)
    b = ((S19 - 5) / 4, Fraction(-1, 4), (6 - S19) / 4)
    d = BergerData(a, b)
    assert d.is_exact and d.lambda_einstein == 1
    assert hamilton_gap(d.a, d.b) == 0
    v = classify(d)
    a1, a2, a3 = v.data.a
    sharp = sharp_constants()["constants"]
    assert a3 == sharp["sec_upper_threshold"].value
    assert 2 * a2 + a1 == sharp["weighted_sum_lower"].value
    assert a3 - a2 == sharp["sec_diff_upper"].value
    assert v.verdict == "rigidity_regime"
    assert v.row("hamilton").holds and v.row("hamilton").lhs == 0
    for name in ("condition_a", "condition_b_sum", "condition_b_diff"):
        assert v.row(name).holds and v.row(name).lhs == v.row(name).rhs
    assert v.row("pinch_weyl_upper").holds


def test_pinch_bound_of_surd_data_outside_the_field_of_sqrt6():
    # a3 - a1 = 14/3 - sqrt19 is irrational, so 4 (a3 - a1)/sqrt6 lies in no
    # quadratic field and the bound is taken in floats
    s = (S19 - 4) / 2
    row = classify(BergerData((s, THIRD_Q, 2 * THIRD_Q - s), (0, 0, 0))).row("pinch_weyl_upper")
    want = 4 * (mpmath.mpf(14) / 3 - mpmath.sqrt(19)) / mpmath.sqrt(6)
    assert row.rhs == pytest.approx(float(want), rel=1e-14)
    assert row.holds


def test_pipeline_soundness_sampled():
    # condition (a) data always lands under the elliptic threshold
    hits = 0
    for data in sample_berger_data(4000, seed=13):
        a1, a3 = float(data.a[0]), float(data.a[2])
        if a3 <= float(BETA) and a1 >= float(kupper_lower(max(a3, 1 / 3))):
            hits += 1
            row = classify(data).row("pinch_weyl_upper")
            assert row.rhs <= float(SQRT32) + 1e-12
            assert row.lhs <= float(SQRT32) + 1e-9
    assert hits > 0


def test_wpm_discriminant_sign():
    assert wpm_discriminant(0.0, 0.7) == 0.0
    assert wpm_discriminant(0.3, 0.0) == 0.0
    assert wpm_discriminant(0.4, 0.4) < 0.0
    with pytest.raises(DomainError):
        wpm_discriminant(-0.1, 0.5)
    # outside the triangle the sign flips: the hypothesis is necessary
    assert wpm_discriminant(1.0, 1.0) > 0.0


@pytest.mark.parametrize(
    "wp, wm",
    [
        (math.nan, 0.5),
        (0.5, math.nan),
        (math.inf, 0.5),
        (0.5, -math.inf),
        ([0.1, math.nan], 0.2),
        (0.3, [0.2, math.inf]),
    ],
)
def test_wpm_discriminant_rejects_non_finite_norms(wp, wm):
    # NaN passes a `w < 0` test, and the discriminant then returns NaN
    with pytest.raises(DomainError, match="finite and nonnegative"):
        wpm_discriminant(wp, wm)


def test_wpm_oracle_max_zero_on_axes():
    report = wpm_discriminant_oracle(resolution=300)
    assert report.sense == "max"
    assert abs(report.extremum) <= 1e-9
    assert min(abs(report.argument[0]), abs(report.argument[1])) == 0.0
    assert report.violation <= 1e-9


def test_wpm_hypothesis_on_models():
    for name, expected in (("sphere", True), ("cp2", True), ("s2xs2", False)):
        row = classify(berger_data(duality_decompose(model_space(name)))).row("weyl_sum_small")
        assert row.holds == expected


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_weyl_sum_predicate_is_scale_free(lam):
    # the hypotheses are stated at Einstein constant 1, so rescaling a model
    # must not move any row across its threshold (cp2 at lambda = 2 used to
    # fail the Weyl row)
    for name, (ma, mb) in MODEL_BLOCKS.items():
        unit = [(r.name, r.holds) for r in classify(BergerData(ma, mb)).rows]
        for scale in (lam, float(lam)):
            data = BergerData(tuple(scale * x for x in ma), tuple(scale * x for x in mb), scale)
            op = berger_to_operator(data)
            expected = name != "s2xs2"
            for source in (berger_data(duality_decompose(op)), data, berger_data(op)):
                v = classify(source)
                assert v.row("weyl_sum_small").holds == expected, (name, scale)
                assert [(r.name, r.holds) for r in v.rows] == unit, (name, scale)


def test_weyl_sum_row_matches_decomposition():
    for name in ("sphere", "cp2", "s2xs2"):
        row = classify(berger_data(model_space(name))).row("weyl_sum_small")
        d = duality_decompose(model_space(name))
        direct = math.sqrt(float(d.w_plus.norm_sq())) + math.sqrt(float(d.w_minus.norm_sq()))
        assert row.lhs == pytest.approx(direct, abs=1e-12)


def test_frame_sampling_never_beats_adapted_reference():
    # adapted frames realize 2 a2 + a1, so the frame minimum 1.5 (lambda - a3)
    # is never above it, and neither is the oracle's extremum
    for i, data in enumerate(sample_berger_data(20, seed=6)):
        op = berger_to_operator(data)
        rep = frame_functional_min(op, samples=20000, seed=100 + i)
        lam, (a1, a2, a3) = float(data.lambda_einstein), map(float, data.a)
        assert rep.bound == pytest.approx(1.5 * (lam - a3), abs=1e-12)
        assert rep.extremum <= 2 * a2 + a1 + 1e-9
        assert rep.violation == pytest.approx(max(0.0, rep.bound - rep.extremum))


def test_frame_sampling_converges_on_certified_data():
    # the models and RIGID_POINT have a1 = a2, the one case where the adapted
    # frame is optimal: 2 a2 + a1 equals the frame minimum 1.5 (a1 + a2)
    for op, seed in ((model_space("sphere"), 1), (model_space("cp2"), 2),
                     (model_space("s2xs2"), 3), (berger_to_operator(RIGID_POINT), 4)):
        rep = frame_functional_min(op, samples=30000, seed=seed)
        assert rep.extremum >= rep.bound - 1e-9
        assert rep.extremum <= rep.bound + 0.05


def test_frame_sampling_generic_frames_beat_adapted_ones():
    # quantifying condition (b) over all frames is strictly stronger than
    # evaluating it on the adapted frame: frozen counterexample with heavy
    # off-diagonal mixing where generic frames undershoot 2 a2 + a1, while
    # nothing undershoots the frame minimum
    data = BergerData(
        a=(0.044501737883951176, 0.09706089100886486, 0.858437371107184),
        b=(0.25527286168248936, 0.24386907429051358, -0.49914193597300294),
    )
    rep = frame_functional_min(berger_to_operator(data), samples=15000, seed=900)
    adapted = 2 * data.a[1] + data.a[0]
    assert rep.extremum < adapted - 0.01
    assert rep.violation <= 1e-9


def test_condition_rows_hold_on_hamilton_feasible_slice():
    # the pointwise inequality plus a3 <= 0.8 puts data in the certified
    # regime: the models, the exact boundary family and 1,000 hit-and-run
    # points of the slice, every one of them checked
    assert all(hamilton_gap(d.a, d.b) == 0 and d.a[2] <= Fraction(4, 5) for d in BOUNDARY_FAMILY)
    sampled = hamilton_slice_points(1000, seed=17)
    assert all(float(d.a[2]) <= SLICE_A3_MAX for d in sampled)
    cases = [berger_data(model_space("sphere")), berger_data(model_space("cp2"))]
    for v in map(classify, cases + BOUNDARY_FAMILY + sampled):
        assert v.row("hamilton").holds
        assert v.row("condition_a").holds
        assert v.row("weyl_sum_small").holds


def test_hamilton_slice_sampler_is_seeded_and_spread():
    first = hamilton_slice_points(200, seed=3)
    assert [(d.a, d.b) for d in first] == [(d.a, d.b) for d in hamilton_slice_points(200, seed=3)]
    a = np.array([[float(x) for x in d.a] for d in first])
    assert len({tuple(row) for row in a}) == 200
    # the chain leaves its start and reaches both the a3 cap and a1 < a2
    assert a[:, 2].max() > 0.79 and (a[:, 1] - a[:, 0]).max() > 0.03
    assert all(hamilton_gap(d.a, d.b) >= 0 for d in first)


def _lattice_slab(denominator=60, stride=8):
    """Rational normal-form points on a 1/denominator lattice with a3 - a2 < 2.

    a1 runs over [-1, 1/3]; each a-point takes b = 0, the widest b along
    (-1, 0, 1) and the widest along (-1, -1, 2), and every stride-th point
    is kept.
    """
    n = denominator
    points = []
    for i in range(-n, n // 3 + 1):
        for j in range(i, (n - i) // 2 + 1):
            k = n - i - j
            if k - j >= 2 * n:
                continue
            t1 = min(j - i, (k - i) // 2, k - j)
            t2 = (k - j) // 3
            a = tuple(Fraction(x, n) for x in (i, j, k))
            for b in sorted({(0, 0, 0), (-t1, 0, t1), (-t2, -t2, 2 * t2)}):
                points.append(BergerData(a, tuple(Fraction(x, n) for x in b)))
    return points[::stride]


def test_exact_and_float_classify_agree_on_a_rational_lattice():
    # float rows are decided on the thresholds' float brackets, exact rows
    # exactly; on rational data both must reach the same certificate
    cases = _lattice_slab() + [BergerData(*MODEL_BLOCKS[name]) for name in MODEL_BLOCKS]
    cases.append(RIGID_POINT)
    assert len(cases) >= 1000
    verdicts = set()
    for data in cases:
        assert data.is_exact
        floats = BergerData(tuple(map(float, data.a)), tuple(map(float, data.b)), 1.0)
        want, got = classify(data), classify(floats)
        assert (got.verdict, got.candidates) == (want.verdict, want.candidates)
        assert [(r.name, r.holds) for r in got.rows] == [(r.name, r.holds) for r in want.rows]
        verdicts.add(want.verdict)
    assert verdicts == {"model_data", "rigidity_regime", "inconclusive"}


# -- exact rows against an independent reference ----------------------------------


def _reference_margins(d: BergerData) -> dict:
    """Each row's margin in mpmath at 80 digits, from the rationals of normalized data d.

    The margin is lhs - rhs of a ">=" row and rhs - lhs of a "<=" row, so a
    row holds iff its margin is >= 0.  The rows are the inequalities classify
    states, slacks included: 1e-12 on the Hamilton gap, 1e-9 on the derived
    floors and on the pinch bound.  The Weyl sum is exact here.
    """
    with mpmath.workdps(80):
        a1, a2, a3, b1, b2, b3 = (mpmath.mpf(x.numerator) / x.denominator for x in (*d.a, *d.b))
        s3, s6, s19 = (mpmath.sqrt(n) for n in (3, 6, 19))
        third = mpmath.mpf(1) / 3
        weyl = sum(
            mpmath.sqrt(sum((x + sign * y - third) ** 2 for x, y in zip((a1, a2, a3), (b1, b2, b3))))
            for sign in (1, -1)
        )
        margins = {
            "hamilton": a1 - (a1 * a1 + b1 * b1 + 2 * (a2 * a3 + b2 * b3)) + mpmath.mpf(10) ** -12,
            "condition_a": (14 - s19) / 12 - a3,
            "condition_b_sum": 2 * a2 + a1 - (s19 - 3) / 4,
            "condition_b_diff": (7 - s19) / 4 - (a3 - a2),
            "nonneg_sec_upper": s3 / 2 - a3,
            "nonneg_sec_diff": s3 - 1 - (a3 - a2),
            "weyl_sum_small": s6 / 2 - weyl,
            "pinch_weyl_upper": 4 * (a3 - a1) / s6 - weyl + mpmath.mpf(10) ** -9,
        }
        top = min(max(a3, third), 1)
        floor = (15 - 8 * top - s3 * mpmath.sqrt(96 * top * top - 80 * top + 19)) / 28
        margins["derived_min_sec"] = a1 - floor + mpmath.mpf(10) ** -9
        spread = max(a3 - a2, 0)
        floor = (3 - 2 * spread - mpmath.sqrt(1 + 8 * spread * spread - 4 * spread)) / 6
        margins["derived_min_sec_diff"] = a1 - floor + mpmath.mpf(10) ** -9
        return margins


# rows whose lhs classify computes in floats even on exact data
FLOAT_LHS_ROWS = ("weyl_sum_small", "pinch_weyl_upper")


def _assert_rows_match_reference(v) -> None:
    margins = _reference_margins(v.data)
    for row in v.rows:
        margin = margins[row.name]
        # a float lhs may sit on the other side of a margin far below its rounding
        if row.name not in FLOAT_LHS_ROWS or abs(margin) > 1e-12:
            assert row.holds == (margin >= 0), (row, margin)


@pytest.mark.parametrize("k", [14, 16, 30])
def test_exact_classify_of_long_decimals_is_fast(k):
    # x = 0.1025 + 7 10^-k; deciding the derived rows through a surd of the
    # data means a square-free split of its radicand, not known to be easier than
    # factoring it, so its cost grew with k far past this budget
    x = Fraction(1025, 10**4) + Fraction(7, 10**k)
    data = BergerData((x, x, 1 - 2 * x), (0, 0, 0))
    start = time.perf_counter()
    v = classify(data)
    assert time.perf_counter() - start < 0.05
    assert {"derived_min_sec", "derived_min_sec_diff"} <= {r.name for r in v.rows}
    _assert_rows_match_reference(v)


def test_exact_classify_of_rational_data_never_factors():
    # no radicand is factored on the way, so no call stalls on how its digits factor
    x = Fraction(1025, 10**4) + Fraction(7, 10**30)
    cases = [BergerData((x, x, 1 - 2 * x), (0, 0, 0)), RIGID_POINT, model_space("cp2")]
    cases += BOUNDARY_FAMILY + _lattice_slab(denominator=12)
    for source in cases:
        start = time.perf_counter()
        classify(source)
        assert time.perf_counter() - start < 0.05, source


def _exact_floor(x) -> int:
    return math.floor(x) if isinstance(x, Fraction) else x._floor_scaled(0)


@pytest.mark.parametrize(
    "name, lemma, closed_form, lo, hi",
    [
        ("derived_min_sec", "kupper", kupper_lower, Fraction(1, 3), 1),
        ("derived_min_sec_diff", "kdiff", kdiff_lower, 0, 2),
    ],
    ids=["kupper", "kdiff"],
)
def test_integer_floor_rows_equal_the_exact_comparison(name, lemma, closed_form, lo, hi):
    # exact data reaches _floor_row as numerators over t = 3 lcm, and the row
    # decides a1 >= lower(X/t) - 1e-9 in integers; at lattice points a1 beside
    # t times the floor, on both sides of it, that verdict must be the exact one
    rng = random.Random(13)
    points = []
    for _ in range(250):
        t = 3 * rng.randrange(1, 10 ** rng.randrange(1, 16))
        points.append((rng.randrange(math.ceil(lo * t), hi * t), t))
    # floors hit exactly: kupper_lower(2/3) = 1/6 and kdiff_lower(0) = 1/3
    points.append((4 * 10**9, 6 * 10**9) if lemma == "kupper" else (0, 3 * 10**9))
    for x, t in points:
        floor = closed_form(Fraction(x, t)) - Fraction(1, 10**9)
        for a1 in range(_exact_floor(floor * t) - 2, _exact_floor(floor * t) + 3):
            row = _floor_row(name, lemma, a1, x, t, "")
            assert row.holds == (Fraction(a1, t) >= floor), (x, a1, t)


def _ascending_triple(draw):
    """An ascending triple summing to 1, from two rational gaps with denominators up to 10^20."""
    g1, g2 = (
        Fraction(draw(st.integers(0, q)), q) for q in (draw(st.integers(1, 10**20)) for _ in "gg")
    )
    x1 = (1 - 2 * g1 - g2) / 3
    return x1, x1 + g1, x1 + g1 + g2


@st.composite
def exact_polytope_points(draw):
    # a = (r+ + r-)/2, b = (r+ - r-)/2 is valid data iff r+ and r- are ascending
    rp, rm = _ascending_triple(draw), _ascending_triple(draw)
    return BergerData(
        tuple((p + m) / 2 for p, m in zip(rp, rm)), tuple((p - m) / 2 for p, m in zip(rp, rm)), 1
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exact_polytope_points())
def test_exact_rows_match_reference_and_float_rows(data):
    v = classify(data)
    _assert_rows_match_reference(v)
    # float classify of the rounded data agrees wherever a row's margin is wide
    floats = classify(BergerData(tuple(map(float, data.a)), tuple(map(float, data.b)), 1.0))
    margins = _reference_margins(v.data)
    for row in floats.rows:
        if abs(margins[row.name]) > 1e-8:
            assert row.holds == v.row(row.name).holds, row
