"""Verdict logic, pinch-to-Weyl bounds, discriminant sign condition."""

import math
from fractions import Fraction

import pytest

from curv4 import (
    BergerData,
    QuadraticSurd,
    berger_data,
    berger_to_operator,
    classify,
    conjugate_operator,
    duality_decompose,
    frame_functional_min,
    kupper_lower,
    model_space,
    sample_berger_data,
    sharp_constants,
    wpm_discriminant,
    wpm_discriminant_oracle,
)
from curv4.bivector import MODEL_BLOCKS, haar_rotations
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

CONDITION_ROWS = ("condition_a", "condition_b_sum", "condition_b_diff", "weyl_sum_small")


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
    # regime; random polytope points rarely satisfy it (the models are
    # extreme), so the models are checked explicitly alongside
    cases = [berger_data(model_space("sphere")), berger_data(model_space("cp2"))]
    cases += [d for d in sample_berger_data(10000, seed=17) if float(d.a[2]) <= 0.8]
    verdicts = [v for v in map(classify, cases) if v.row("hamilton").holds]
    assert len(verdicts) >= 2
    for v in verdicts:
        assert v.row("condition_a").holds
        assert v.row("weyl_sum_small").holds


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
