"""Closed-form pinching bounds against brute-force grid oracles."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import (
    QuadraticSurd,
    a2a1_gap,
    berger_data,
    hamilton_gap,
    hamilton_holds,
    kdiff_lower,
    kupper_lower,
    lemma_algebraic2_min,
    lemma_algebraic2_oracle,
    lemma_k3k1_bounds,
    lemma_k3k1_oracle,
    model_space,
    pointwise_bound_oracle,
    sharp_constants,
)
from curv4 import cli, estimates
from curv4.errors import DomainError
from curv4.estimates import POINTWISE_LEMMAS

S19 = QuadraticSurd(0, 1, 19, 1)
S3 = QuadraticSurd(0, 1, 3, 1)


# ---------------------------------------------------------------- hamilton


def test_hamilton_exact_on_models():
    for name in ("sphere", "cp2", "s2xs2"):
        g = hamilton_gap(berger_data(model_space(name)))
        assert g == 0 and not isinstance(g, float)
        assert hamilton_holds(berger_data(model_space(name)))


# ---------------------------------------------------------------- k3 vs k1


def test_k3k1_closed_form_exact_values():
    bound, boundary = lemma_k3k1_bounds(Fraction(5, 6), Fraction(1))
    assert bound == QuadraticSurd(0, 1, 6, 3)  # 2/sqrt(6)
    assert boundary == Fraction(2, 3)
    with pytest.raises(DomainError):
        lemma_k3k1_bounds(Fraction(0), Fraction(1))
    with pytest.raises(DomainError):
        lemma_k3k1_bounds(Fraction(5, 6), Fraction(-1))


def test_k3k1_feasibility_boundary_is_sharp():
    # delta <= 6 alpha - 4 exactly; alpha = 3/4 puts the edge at delta = 1/2
    assert lemma_k3k1_oracle(0.75, 0.5, resolution=40).feasible
    assert not lemma_k3k1_oracle(0.75, 0.5 + 1e-9, resolution=40).feasible
    report = lemma_k3k1_oracle(0.75, 0.6, resolution=40)
    assert not report.feasible and report.gap == math.inf


@given(
    st.floats(2 / 3 + 1e-6, 1.5),
    st.floats(0.0, 0.98),
)
@settings(max_examples=25, deadline=None)
def test_k3k1_bound_never_violated(alpha, frac):
    # frac < 1 keeps delta strictly inside the wedge; the exact boundary is
    # exercised separately where float rounding is under control
    delta = frac * (6 * alpha - 4)
    if delta < 0:
        delta = 0.0
    report = lemma_k3k1_oracle(alpha, delta, resolution=60)
    assert report.feasible
    assert report.violation <= 1e-9
    assert report.extremum <= report.bound + 1e-9


def test_k3k1_oracle_converges():
    for res in (60, 120):
        report = lemma_k3k1_oracle(5 / 6, 1.0, resolution=res)
        assert report.sense == "max"
        assert -1e-12 <= report.gap <= 10.0 / res


# ---------------------------------------------------------------- algebraic2


def test_algebraic2_branches_exact():
    # branch split at b = 2a; both expressions meet there at -2 a^2
    a = Fraction(1, 4)
    low = lemma_algebraic2_min(a, 2 * a - Fraction(1, 10**9))
    high = lemma_algebraic2_min(a, 2 * a + Fraction(1, 10**9))
    at = lemma_algebraic2_min(a, 2 * a)
    assert at == -2 * a * a
    assert abs(float(low - at)) < 1e-8 and abs(float(high - at)) < 1e-8
    assert lemma_algebraic2_min(Fraction(1, 2), Fraction(2)) == Fraction(-11, 6)
    assert lemma_algebraic2_min(Fraction(1, 2), Fraction(1, 2)) == Fraction(-1, 8)
    with pytest.raises(DomainError):
        lemma_algebraic2_min(-1, 1)
    with pytest.raises(DomainError):
        lemma_algebraic2_min(1, -1)


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=15, deadline=None)
def test_algebraic2_oracle_respects_bound(a, b):
    report = lemma_algebraic2_oracle(a, b, resolution=200)
    closed = float(lemma_algebraic2_min(a, b))
    assert report.extremum >= closed - 1e-6
    assert report.violation <= 1e-6


def test_algebraic2_degenerate_slice():
    report = lemma_algebraic2_oracle(1.0, 0.0, resolution=50)
    assert report.extremum == 0.0  # only the origin is admissible
    assert report.bound == 0.0


# ------------------------------------------------------ polytope thresholds


def test_threshold_exact_anchors():
    assert kupper_lower(Fraction(2, 3)) == Fraction(1, 6)
    assert kupper_lower(Fraction(1, 3)) == Fraction(1, 3)
    assert kupper_lower(S3 / 2) == 0
    assert kupper_lower((14 - S19) / 12) == (5 - S19) / 12
    assert kupper_lower(1) == (7 - QuadraticSurd(0, 1, 105, 1)) / 28
    assert kdiff_lower(0) == Fraction(1, 3)
    assert kdiff_lower(S3 - 1) == 0
    assert a2a1_gap(0) == (2 - S3) / 2
    assert a2a1_gap(Fraction(1, 6)) == 0
    assert a2a1_gap(Fraction(1, 3)) == 0


def test_threshold_domains():
    for bad in (Fraction(1, 4), Fraction(11, 10), -1):
        with pytest.raises(DomainError):
            kupper_lower(bad)
    for bad in (Fraction(-1, 10), 2, Fraction(5, 2)):
        with pytest.raises(DomainError):
            kdiff_lower(bad)
    for bad in (Fraction(-1, 10), Fraction(2, 5)):
        with pytest.raises(DomainError):
            a2a1_gap(bad)


def test_threshold_monotone_decreasing():
    k_prev = None
    for i in range(1000):
        x = 1 / 3 + (2 / 3) * i / 999
        v = kupper_lower(x)
        if k_prev is not None:
            assert v <= k_prev + 1e-15
        k_prev = v
    k_prev = None
    for i in range(1000):
        v = kdiff_lower(1.9999 * i / 999)
        if k_prev is not None:
            assert v <= k_prev + 1e-15
        k_prev = v


def test_a2a1_gap_negative_inside_window():
    assert float(a2a1_gap(Fraction(1, 4))) < 0
    assert float(a2a1_gap(0.2)) < 0


def test_pointwise_feasibility_pattern():
    # the constrained polytopes are empty for mid-range parameters: the
    # closed forms there certify vacuously and the oracle must say so
    for alpha, feasible in ((1 / 3, True), (0.4, False), (0.5, False),
                            (0.6, False), (2 / 3, True), (0.8, True), (1.0, True)):
        assert pointwise_bound_oracle("kupper", alpha, resolution=24).feasible == feasible
    for p, feasible in ((0.0, True), (0.1, False), (0.25, False), (0.4, False),
                        (0.5, True), (1.0, True), (1.5, True)):
        assert pointwise_bound_oracle("kdiff", p, resolution=24).feasible == feasible
    for t, feasible in ((0.0, True), (0.1, True), (1 / 6, True), (0.2, False),
                        (0.3, False), (1 / 3, True)):
        assert pointwise_bound_oracle("a2a1", t, resolution=24).feasible == feasible
    with pytest.raises(DomainError):
        pointwise_bound_oracle("nope", 0.5)


def test_pointwise_oracles_converge_to_closed_forms():
    anchors = (("kupper", 2 / 3), ("kupper", 0.9), ("kdiff", 0.0),
               ("kdiff", 0.75), ("a2a1", 0.05), ("a2a1", 1 / 6))
    for name, x in anchors:
        for res in (60, 120):
            report = pointwise_bound_oracle(name, x, resolution=res)
            assert report.feasible
            assert report.violation <= 1e-9
            assert report.gap <= 10.0 / res


def test_infeasible_report_gap():
    report = pointwise_bound_oracle("kupper", 0.5, resolution=24)
    assert report.gap == math.inf


# ------------------------------------------------------ the slabbed kernel

CRITERION_5_SWEEPS = {
    "kupper": [0.34, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0],
    "kdiff": [0.0, 0.1, 0.5, 0.75, 1.0, 1.5],
    "a2a1": [0.0, 0.05, 1.0 / 6.0, 0.25, 1.0 / 3.0],
}


def _oracle_outcomes(monkeypatch):
    """(extremum, argument, feasible, violation) of every battery check and sweep point."""
    reports = []

    def recording(oracle):
        def run(*args, **kwargs):
            reports.append(oracle(*args, **kwargs))
            return reports[-1]

        return run

    with monkeypatch.context() as patch:
        for name, row in cli._LEMMAS.items():
            patch.setitem(cli._LEMMAS, name, dataclasses.replace(row, oracle=recording(row.oracle)))
        cli.run_battery()
    for lemma, params in CRITERION_5_SWEEPS.items():
        reports += [pointwise_bound_oracle(lemma, p, resolution=120) for p in params]
    # repr: infeasible reports carry a NaN extremum
    return [(repr(r.extremum), r.argument, r.feasible, r.violation) for r in reports]


def test_slab_size_does_not_change_any_result(monkeypatch):
    # one row per slab puts a slab boundary between every two rows, so ties
    # must still go to the first point in scan order
    default = _oracle_outcomes(monkeypatch)
    assert len(default) == len(cli._BATTERY) + sum(map(len, CRITERION_5_SWEEPS.values()))
    monkeypatch.setattr(estimates, "SLAB_POINTS", 1)
    assert _oracle_outcomes(monkeypatch) == default


def test_grid_extremum_ties_and_empty_grid(monkeypatch):
    values = np.array([[1.0, 3.0], [3.0, 0.0], [3.0, 3.0]])
    feasible = np.array([[True, False], [True, True], [True, True]])

    def evaluate(lo, hi):
        return values[lo:hi], feasible[lo:hi]

    for slab in (estimates.SLAB_POINTS, 1):
        monkeypatch.setattr(estimates, "SLAB_POINTS", slab)
        assert estimates.grid_extremum(evaluate, 3, 2, "max") == (3.0, (1, 0))
        assert estimates.grid_extremum(evaluate, 3, 2, "min") == (0.0, (1, 1))
        assert estimates.grid_extremum(lambda lo, hi: (values[lo:hi], False), 3, 2) is None


def test_polytope_oracle_memory_is_bounded():
    # the whole-grid scan peaked at about 200 MB here and grew as r^3
    tracemalloc.start()
    try:
        report = pointwise_bound_oracle("kupper", 2.0 / 3.0, resolution=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.feasible
    assert peak <= 50e6


@pytest.mark.parametrize("lemma, param", [("kupper", 2.0 / 3.0), ("kdiff", 0.5), ("a2a1", 1.0 / 6.0)])
def test_polytope_oracle_memory_is_flat_in_the_grid(lemma, param):
    # slabs of whole (r + 1)^2 a-rows traced 34.6 MB at r = 1200 and grew as
    # r^2; slabs of (a-row, b1) lines stay near 0.4 MB
    tracemalloc.start()
    try:
        report = pointwise_bound_oracle(lemma, param, resolution=1200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.feasible and report.violation <= 1e-9
    assert peak <= 2e6


# ------------------------------------------------------ the row bound


def _reference_polytope(lemma, p, r):
    """Every point of the oracle's (free a, b1, b2) grid, no row skipped.

    Returns (a, box, objective, sense, feasible): a = (a1, a2, a3) and the
    b-box half-widths box = (bb1, bb2) per row, and `feasible` the (r+1)^3
    mask of the float predicates; None for an empty a-range.
    """
    if lemma == "kupper":
        lo, hi = 1.0 - 2.0 * p, (1.0 - p) / 2.0
        if lo > hi + 1e-15:
            return None
        a1 = np.linspace(lo, hi, r + 1)
        a2, a3 = 1.0 - p - a1, np.full(r + 1, p)
        objective, sense = a1, "min"
    elif lemma == "kdiff":
        a1 = np.linspace(-1.0, (1.0 - p) / 3.0, r + 1)
        a2 = (1.0 - a1 - p) / 2.0
        a3 = a2 + p
        objective, sense = a1, "min"
    else:
        lo, hi = p, min((1.0 + p) / 4.0, (1.0 - p) / 2.0)
        if lo > hi + 1e-15:
            return None
        a2 = np.linspace(lo, hi, r + 1)
        a1, a3 = np.full(r + 1, p), 1.0 - p - a2
        objective, sense = a2 - a1, "max"
    s1, s2, s3 = a2 - a1, a3 - a1, a3 - a2
    bb1, bb2 = (s1 + s2) / 3.0, (s1 + s3) / 3.0
    t = np.linspace(-1.0, 1.0, r + 1)
    b1 = bb1[:, None, None] * t[:, None]
    b2 = bb2[:, None, None] * t
    b3 = -b1 - b2
    x1, x2, x3 = (x[:, None, None] for x in (a1, a2, a3))
    gap = x1 - (x1**2 + b1 * b1 + 2.0 * (a2 * a3)[:, None, None] + 2.0 * b2 * b3)
    feasible = (
        (np.abs(b2 - b1) <= s1[:, None, None] + 1e-12)
        & (np.abs(b3 - b1) <= s2[:, None, None] + 1e-12)
        & (np.abs(b3 - b2) <= s3[:, None, None] + 1e-12)
        & ((a1 <= a2 + 1e-12) & (a2 <= a3 + 1e-12))[:, None, None]
        & (gap >= -1e-12)
    )
    return (a1, a2, a3), (bb1, bb2), objective, sense, feasible


def _reference_oracle(lemma, p, r):
    """(extremum, argument) of the full-grid scan, first point in scan order."""
    grid = _reference_polytope(lemma, p, r)
    if grid is None or not grid[4].any():
        return None
    (a1, a2, a3), (bb1, bb2), objective, sense, feasible = grid
    values = np.broadcast_to(objective[:, None, None], feasible.shape)
    pick, worst = (np.argmin, np.inf) if sense == "min" else (np.argmax, -np.inf)
    i, j, k = np.unravel_index(int(pick(np.where(feasible, values, worst))), feasible.shape)
    t = np.linspace(-1.0, 1.0, r + 1)
    b1, b2 = float(bb1[i] * t[j]), float(bb2[i] * t[k])
    arg = ((float(a1[i]), float(a2[i]), float(a3[i])), (b1, b2, -b1 - b2))
    return float(objective[i]), arg


def _random_params(seed):
    rng = np.random.default_rng(seed)
    return (
        [("kupper", x) for x in rng.uniform(1.0 / 3.0, 1.0, 6)]
        + [("kdiff", x) for x in rng.uniform(0.0, 1.99, 6)]
        + [("a2a1", x) for x in rng.uniform(0.0, 1.0 / 3.0, 6)]
    )


@pytest.mark.parametrize("r", [8, 24, 40, 120])
def test_pruned_oracle_equals_full_grid_scan(r):
    cases = [(lemma, p) for lemma, ps in CRITERION_5_SWEEPS.items() for p in ps]
    for lemma, p in cases + _random_params(r):
        report = pointwise_bound_oracle(lemma, p, resolution=r)
        reference = _reference_oracle(lemma, p, r)
        if reference is None:
            assert not report.feasible, (lemma, p)
        else:
            assert report.feasible, (lemma, p)
            assert (report.extremum, report.argument) == reference, (lemma, p)


def test_grid_extremum_best_first_stops_at_the_first_feasible_slab(monkeypatch):
    # rows 0 and 1 tie; row 1 has the earlier feasible column, row 0 still wins
    values = np.array([[1.0], [1.0], [2.0]])
    feasible = np.array([[False, True], [True, True], [True, True]])
    seen = []

    def evaluate(lo, hi):
        seen.append(lo)
        return values[lo:hi], feasible[lo:hi]

    def nowhere(lo, hi):
        return values[lo:hi], False

    for slab in (estimates.SLAB_POINTS, 1):
        monkeypatch.setattr(estimates, "SLAB_POINTS", slab)
        seen.clear()
        assert estimates.grid_extremum(evaluate, 3, 2, "min", best_first=True) == (1.0, (0, 1))
        assert seen == [0]
        assert estimates.grid_extremum(nowhere, 3, 2, "min", best_first=True) is None


def test_battery_polytope_checks_stop_at_the_first_feasible_row(monkeypatch):
    # rows come best objective first, so the 15 polytope checks of the battery
    # evaluate 42 of their 1,815 a-rows (455 survive the row bound); the
    # kernel sees each a-row as r + 1 lines of fixed b1
    evaluated = []
    kernel = estimates.grid_extremum

    def counting(evaluate, rows, row_points, *args, **kwargs):
        a_rows = set()

        def spy(lo, hi):
            a_rows.update(line // row_points for line in range(lo, hi))
            return evaluate(lo, hi)

        found = kernel(spy, rows, row_points, *args, **kwargs)
        evaluated.append(len(a_rows))
        return found

    monkeypatch.setattr(estimates, "SLAB_POINTS", 1)
    monkeypatch.setattr(estimates, "grid_extremum", counting)
    lemmas = [(lemma, params) for lemma, params in cli._BATTERY if lemma in POINTWISE_LEMMAS]
    reports = [cli.run_verification(lemma, **params) for lemma, params in lemmas]
    assert len(reports) == 15 and all(r["pass"] for r in reports)
    assert sum(evaluated) == 42


@pytest.mark.parametrize("r", [8, 24, 40])
def test_rows_the_bound_removes_hold_no_feasible_point(r):
    removed = 0
    for lemma, p in _random_params(100 + r) + [("kupper", 2.0 / 3.0), ("kdiff", 0.5)]:
        grid = _reference_polytope(lemma, p, r)
        if grid is None:
            continue
        (a1, a2, a3), (bb1, bb2), _, _, feasible = grid
        bound = estimates.hamilton_box_bound(a1, a2, a3, bb1, bb2)
        skipped = bound < -1e-9
        assert not feasible[skipped].any(), (lemma, p)
        removed += int(skipped.sum())
    assert removed > 0


def test_hamilton_box_bound_is_the_least_upper_bound():
    # the gap's maximum over a fine box grid reaches the bound at b1 = m, b2 = bb2
    rng = np.random.default_rng(7)
    t = np.linspace(-1.0, 1.0, 401)
    for _ in range(50):
        a1, a2 = rng.uniform(-1.0, 0.4, 2)
        a3 = 1.0 - a1 - a2
        bb1, bb2 = rng.uniform(0.0, 1.0, 2)
        bound = estimates.hamilton_box_bound(a1, a2, a3, bb1, bb2)
        b1, b2 = bb1 * t[:, None], bb2 * t
        gap = a1 - (a1 * a1 + b1 * b1 + 2.0 * a2 * a3 - 2.0 * b2 * (b1 + b2))
        assert gap.max() <= bound + 1e-12
        m = min(bb1, bb2)
        corner = SimpleNamespace(a=(a1, a2, a3), b=(m, bb2, -m - bb2))
        assert hamilton_gap(corner) == pytest.approx(bound, abs=1e-12)


# ---------------------------------------------------------------- constants


def test_sharp_constants_table():
    table = sharp_constants()
    names = {
        "sec_upper_threshold", "weighted_sum_lower", "sec_diff_upper",
        "apriori_min_lower", "nonneg_sec_threshold", "nonneg_diff_threshold",
        "euler_pinch_alpha", "cp2_sec_upper", "weyl_sum_threshold",
    }
    assert set(table["constants"]) == names
    for const in table["constants"].values():
        lo, hi = const.enclosure
        assert Fraction(lo) <= Fraction(hi)
        assert float(Fraction(lo)) <= float(const.value) <= float(Fraction(hi)) + 1e-12
        assert const.decimal.startswith(lo[:8])
    assert all(table["identities"].values())
    beta = table["constants"]["sec_upper_threshold"].value
    assert beta - kupper_lower(beta) == Fraction(3, 4)
