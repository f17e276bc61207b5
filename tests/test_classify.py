"""Verdict logic, pinch-to-Weyl bounds, discriminant sign condition."""

import math
from fractions import Fraction

import pytest

from curv4 import (
    BergerData,
    QuadraticSurd,
    berger_data,
    berger_to_operator,
    check_condition_a,
    check_condition_b,
    check_weyl_sum,
    check_wpm_hypothesis,
    classify,
    duality_decompose,
    frame_functional_min,
    hamilton_holds,
    kupper_lower,
    model_space,
    pinch_to_weyl_gap,
    sample_berger_data,
    wpm_discriminant,
    wpm_discriminant_oracle,
)
from curv4.bivector import MODEL_BLOCKS
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
    assert check_condition_a(below).holds
    assert not check_condition_a(above).holds
    s, d = check_condition_b(below)
    assert s.holds  # 2 a2 + a1 = 0.35 just clears (sqrt19 - 3)/4
    assert d.holds
    s, _ = check_condition_b(BergerData(a=(0.04, 0.14, 0.82), b=(0.0,) * 3))
    assert not s.holds  # 0.32 lands under the floor


def test_condition_a_monotone_in_a3():
    # shrinking the top sectional curvature can only help condition (a)
    held = False
    for k in range(40, 0, -1):
        a3 = 0.6 + 0.4 * k / 40.0
        a1 = (1.0 - a3) / 2.0
        row = check_condition_a(BergerData(a=(a1, a1, a3), b=(0.0, 0.0, 0.0)))
        if held:
            assert row.holds
        held = row.holds
    assert held


def test_pinch_modes_agree_when_normalized():
    for data in sample_berger_data(50, seed=21):
        up = pinch_to_weyl_gap(data, "upper")
        diff = pinch_to_weyl_gap(data, "diff")
        assert up.bound == pytest.approx(diff.bound, abs=1e-12)
        assert up.weyl_sum == pytest.approx(diff.weyl_sum, abs=1e-12)
        assert up.holds and diff.holds  # bound is a proved upper bound
    with pytest.raises(DomainError):
        pinch_to_weyl_gap(RIGID_POINT, "sideways")


def test_pinch_bound_exact_at_theorem_endpoint():
    a1 = kupper_lower(BETA)
    endpoint = BergerData(a=(a1, 1 - BETA - a1, BETA), b=(Fraction(0),) * 3)
    for mode in ("upper", "diff"):
        rep = pinch_to_weyl_gap(endpoint, mode)
        assert rep.bound_exact == SQRT32  # the ℚ(√19) algebra collapses
        assert rep.holds


def test_pipeline_soundness_sampled():
    # condition (a) data always lands under the elliptic threshold
    hits = 0
    for data in sample_berger_data(4000, seed=13):
        a1, a3 = float(data.a[0]), float(data.a[2])
        if a3 <= float(BETA) and a1 >= float(kupper_lower(max(a3, 1 / 3))):
            hits += 1
            rep = pinch_to_weyl_gap(data)
            assert rep.bound <= float(SQRT32) + 1e-12
            assert rep.weyl_sum <= float(SQRT32) + 1e-9
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
    assert check_wpm_hypothesis(duality_decompose(model_space("sphere")))
    assert check_wpm_hypothesis(duality_decompose(model_space("cp2")))
    assert not check_wpm_hypothesis(duality_decompose(model_space("s2xs2")))


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_weyl_sum_predicate_is_scale_free(lam):
    # the hypothesis is stated at Einstein constant 1, so rescaling a model
    # must not move it across sqrt6/2 (cp2 at lambda = 2 used to fail it)
    for name, (ma, mb) in MODEL_BLOCKS.items():
        for scale in (lam, float(lam)):
            data = BergerData(tuple(scale * x for x in ma), tuple(scale * x for x in mb), scale)
            op = berger_to_operator(data)
            expected = name != "s2xs2"
            assert check_wpm_hypothesis(duality_decompose(op)) == expected, (name, scale)
            assert check_weyl_sum(data).holds == expected, (name, scale)
            assert check_weyl_sum(berger_data(op)).holds == expected, (name, scale)


def test_weyl_sum_row_matches_decomposition():
    for name in ("sphere", "cp2", "s2xs2"):
        row = check_weyl_sum(berger_data(model_space(name)))
        d = duality_decompose(model_space(name))
        direct = math.sqrt(float(d.w_plus.norm_sq())) + math.sqrt(float(d.w_minus.norm_sq()))
        assert row.lhs == pytest.approx(direct, abs=1e-12)


def test_frame_sampling_never_beats_adapted_reference():
    # adapted frames realize 2 a2 + a1, so the true frame minimum is never
    # above it; the sampled minimum can only sit slightly above by sampling
    # error, or below it when generic frames genuinely beat adapted ones
    for i, data in enumerate(sample_berger_data(20, seed=6)):
        op = berger_to_operator(data)
        rep = frame_functional_min(op, samples=20000, seed=100 + i)
        target = 2 * float(data.a[1]) + float(data.a[0])
        assert rep.bound == pytest.approx(target, abs=1e-12)
        assert rep.extremum <= rep.bound + 0.05
        assert rep.violation == pytest.approx(max(0.0, rep.bound - rep.extremum))


def test_frame_sampling_converges_on_certified_data():
    # on model data and on Hamilton-interior data the adapted frame is
    # optimal and the sampled minimum converges to it from above
    for op, seed in ((model_space("sphere"), 1), (model_space("cp2"), 2),
                     (model_space("s2xs2"), 3), (berger_to_operator(RIGID_POINT), 4)):
        rep = frame_functional_min(op, samples=30000, seed=seed)
        assert rep.extremum >= rep.bound - 1e-9
        assert rep.extremum <= rep.bound + 0.05


def test_frame_sampling_generic_frames_beat_adapted_ones():
    # quantifying condition (b) over all frames is strictly stronger than
    # evaluating it on the adapted frame: frozen counterexample with heavy
    # off-diagonal mixing where random frames undershoot 2 a2 + a1
    data = BergerData(
        a=(0.044501737883951176, 0.09706089100886486, 0.858437371107184),
        b=(0.25527286168248936, 0.24386907429051358, -0.49914193597300294),
    )
    rep = frame_functional_min(berger_to_operator(data), samples=15000, seed=900)
    assert rep.violation > 0.01
    assert rep.extremum < rep.bound - 0.01


def test_condition_rows_hold_on_hamilton_feasible_slice():
    # the pointwise inequality plus a3 <= 0.8 puts data in the certified
    # regime; random polytope points rarely satisfy it (the models are
    # extreme), so the models are checked explicitly alongside
    cases = [berger_data(model_space("sphere")), berger_data(model_space("cp2"))]
    cases += [
        d
        for d in sample_berger_data(10000, seed=17)
        if float(d.a[2]) <= 0.8 and hamilton_holds(d)
    ]
    assert len(cases) >= 2
    for d in cases:
        assert check_condition_a(d).holds
        assert check_weyl_sum(d).holds
