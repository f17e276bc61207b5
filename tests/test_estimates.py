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
    seen = []

    def evaluate(idx):
        seen.append(idx.tolist())
        return values[idx], feasible[idx]

    for slab in (estimates.SLAB_POINTS, 1):
        monkeypatch.setattr(estimates, "SLAB_POINTS", slab)
        assert estimates.grid_extremum(evaluate, 3, 2, "max") == (3.0, (1, 0))
        assert estimates.grid_extremum(evaluate, 3, 2, "min") == (0.0, (1, 1))
        assert estimates.grid_extremum(lambda idx: (values[idx], False), 3, 2) is None
        # row 2 is visited first and reaches 3; row 1, visited after it but
        # earlier in row-major order, ties and wins; row 0's bound ties the
        # incumbent before row 1, so it is evaluated, but it only reaches 1
        seen.clear()
        bound = np.array([3.0, 4.0, 5.0])
        assert estimates.grid_extremum(evaluate, 3, 2, "max", bound) == (3.0, (1, 0))
        assert seen == ([[0, 1, 2]] if slab > 1 else [[2], [1], [0]])


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


@pytest.mark.parametrize(
    "lemma, param",
    [("kupper", 2.0 / 3.0), ("kdiff", 0.5), ("a2a1", 1.0 / 6.0), ("kupper", 1.0 / 3.0)],
)
def test_polytope_oracle_memory_is_flat_in_the_grid(lemma, param):
    # slabs of whole (r + 1)^2 a-rows traced 34.6 MB at r = 1200 and grew as
    # r^2; slabs of (a-row, b1) lines stay near 0.4 MB.  At kupper 1/3 every
    # a-row survives the row filter, so a bound per (a-row, b1) line would
    # take 1,201^2 floats (11.5 MB)
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
    # constant rows are their own bound; rows 0 and 1 tie, row 1 has the
    # earlier feasible column, row 0 still wins and row 1 is never evaluated
    values = np.array([[1.0], [1.0], [2.0]])
    feasible = np.array([[False, True], [True, True], [True, True]])
    seen = []

    def evaluate(idx):
        seen.append(idx.tolist())
        return values[idx], feasible[idx]

    def nowhere(idx):
        return values[idx], False

    for slab in (estimates.SLAB_POINTS, 1):
        monkeypatch.setattr(estimates, "SLAB_POINTS", slab)
        seen.clear()
        assert estimates.grid_extremum(evaluate, 3, 2, "min", values[:, 0]) == (1.0, (0, 1))
        assert seen == ([[0, 1, 2]] if slab > 1 else [[0]])
        assert estimates.grid_extremum(nowhere, 3, 2, "min", values[:, 0]) is None


def _scans_of(monkeypatch, calls):
    """Run `calls`, recording each grid_extremum call's arguments and evaluated rows.

    Returns (scans, results): one dict per kernel call, with the call's
    evaluate, rows, row_points, sense and bound and the set of rows it
    evaluated, and the calls' own results.
    """
    scans = []
    kernel = estimates.grid_extremum

    def recording(evaluate, rows, row_points, sense="max", bound=None):
        scan = dict(evaluate=evaluate, rows=rows, row_points=row_points, sense=sense, bound=bound)
        scan["evaluated"] = evaluated = set()
        scans.append(scan)

        def spy(idx):
            evaluated.update(idx.tolist())
            return evaluate(idx)

        return kernel(spy, rows, row_points, sense, bound)

    with monkeypatch.context() as patch:
        patch.setattr(estimates, "grid_extremum", recording)
        results = [call() for call in calls]
    return scans, results


def _battery_calls(lemmas):
    return [
        lambda lemma=lemma, params=params: cli.run_verification(lemma, **params)
        for lemma, params in cli._BATTERY
        if lemma in lemmas
    ]


def test_battery_polytope_checks_stop_at_the_first_feasible_row(monkeypatch):
    # a-rows come best objective first, so the 15 polytope checks of the
    # battery evaluate 42 of their 1,815 a-rows (455 survive the row bound);
    # each evaluated a-row is scanned as r + 1 lines of fixed b1
    monkeypatch.setattr(estimates, "SLAB_POINTS", 1)
    scans, reports = _scans_of(monkeypatch, _battery_calls(POINTWISE_LEMMAS))
    assert len(reports) == 15 and all(r["pass"] for r in reports)
    r = cli._LEMMAS["kupper"].grid
    a_rows = [s for s in scans if s["row_points"] == (r + 1) ** 2]
    lines = [s for s in scans if s["row_points"] == r + 1]
    assert len(a_rows) == 15 and sum(len(s["evaluated"]) for s in a_rows) == 42
    assert len(lines) == 42


def test_battery_grid_scans_evaluate_few_rows(monkeypatch):
    # each algebraic2 scan (a coarse grid, then its refinements) and the two
    # k3k1 checks away from the sharp ones evaluate at most 20 of 401 rows;
    # at (5/6, 1) and (2/3, 0) every row's end value reaches the maximum
    scans, reports = _scans_of(monkeypatch, _battery_calls(("k3k1", "algebraic2")))
    assert all(r["pass"] for r in reports)
    assert [r["params"] for r in reports[2:4]] == [
        {"alpha": 1.0, "delta": 0.5},
        {"alpha": 0.9, "delta": 0.4},
    ]
    counts = [len(s["evaluated"]) for s in scans]
    assert len(counts) == 4 + 4 * (1 + estimates.ALGEBRAIC2_REFINEMENTS)
    assert counts[:2] == [401, 401]
    assert max(counts[2:]) <= 20


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


# ------------------------------------------- the k3k1 and algebraic2 row bounds


def _reference_k3k1(alpha, delta, r):
    """(extremum, argument, feasible) of the k3k1 oracle's grid, every row scanned."""
    alpha1 = 2.0 * alpha - 4.0 / 3.0
    if alpha1 < 0.0:
        return repr(math.nan), (), False
    p = np.linspace(0.0, alpha1, r + 1)
    qlo = np.maximum(0.0, delta - 3.0 * (alpha1 - p))
    qhi = np.minimum(delta, 3.0 * p)
    ok = qlo <= qhi
    if not np.any(ok):
        return repr(math.nan), (), False
    p, qlo, qhi = p[ok], qlo[ok], qhi[ok]
    t = np.linspace(0.0, 1.0, r + 1)
    pp = p[:, None]
    q = qlo[:, None] + t * (qhi - qlo)[:, None]
    m, n = alpha1 - pp, delta - q
    values = np.sqrt(3.0 * pp * pp + q * q) / math.sqrt(2.0) + np.sqrt(
        3.0 * m * m + n * n
    ) / math.sqrt(2.0)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    arg = (float(p[i]), float(qlo[i] + t[j] * (qhi[i] - qlo[i])))
    return repr(float(values[i, j])), arg, True


def _reference_algebraic2(a, b, r):
    """(extremum, argument, feasible) of the algebraic2 oracle, every row of each grid scanned."""
    eps = 1e-12 * max(1.0, a * a, b * b)

    def scan(mlo, mhi, nlo, nhi):
        m = np.linspace(mlo, mhi, r + 1)
        n = np.linspace(nlo, nhi, r + 1)
        x = (m[:, None] + n) / 3.0
        y = (m[:, None] - 2.0 * n) / 3.0
        feasible = x * y <= eps
        values = np.where(feasible, 4.0 * x * y + x * x + y * y, np.inf)
        i, j = np.unravel_index(int(np.argmin(values)), values.shape)
        if not feasible[i, j]:
            return None
        return float(values[i, j]), float(m[i]), float(n[j])

    best, mstar, nstar = scan(-a, a, -b, b) or (0.0, 0.0, 0.0)
    cell_m, cell_n = 2.0 * a / r, 2.0 * b / r
    for _ in range(estimates.ALGEBRAIC2_REFINEMENTS):
        half_m, half_n = 3.0 * cell_m, 3.0 * cell_n
        window = scan(
            max(-a, mstar - half_m), min(a, mstar + half_m),
            max(-b, nstar - half_n), min(b, nstar + half_n),
        )
        if window is not None and window[0] < best:
            best, mstar, nstar = window
        cell_m, cell_n = 2.0 * half_m / r, 2.0 * half_n / r
    return repr(best), ((mstar + nstar) / 3.0, (mstar - 2.0 * nstar) / 3.0), True


def _grid_scan_cases():
    """(oracle, reference, x, y, r): battery, criteria 3 and 4, seeded random points."""
    k3k1 = (lemma_k3k1_oracle, _reference_k3k1)
    algebraic2 = (lemma_algebraic2_oracle, _reference_algebraic2)
    lemmas = {"k3k1": k3k1, "algebraic2": algebraic2}
    cases = [
        (*lemmas[lemma], params["alpha"], params["delta"], 400)
        for lemma, params in cli._BATTERY
        if lemma in lemmas
    ]
    # criterion 3: its sharp check (5/6, 1) at r = 400 is a battery check;
    # then the 50 x 50 sweep at r = 120
    cases += [
        (*k3k1, float(alpha), float(delta), 120)
        for alpha in np.linspace(0.5, 1.2, 50)
        for delta in np.linspace(0.0, 1.6, 50)
    ]
    # criterion 4: the 20 x 20 sweep at r = 400
    cases += [
        (*algebraic2, float(a), float(b), 400)
        for a in np.linspace(0.0, 2.0, 20)
        for b in np.linspace(0.0, 2.0, 20)
    ]
    rng = np.random.default_rng(18)
    for r, count in ((8, 40), (40, 40), (400, 8)):
        alphas, deltas = rng.uniform(0.5, 1.3, count), rng.uniform(0.0, 1.8, count)
        cases += [(*k3k1, x, y, r) for x, y in zip(alphas, deltas)]
        a, b = rng.uniform(0.0, 2.5, count), rng.uniform(0.0, 2.5, count)
        cases += [(*algebraic2, x, y, r) for x, y in zip(a, b)]
    return cases


@pytest.fixture(scope="module")
def grid_scan_references():
    cases = _grid_scan_cases()
    return [(oracle, x, y, r, reference(x, y, r)) for oracle, reference, x, y, r in cases]


@pytest.mark.parametrize("slab", ["default", 1])
def test_pruned_grid_scans_equal_full_grid_scans(monkeypatch, grid_scan_references, slab):
    # the references scan every row of every grid, with no row bound, so the
    # pruned kernel must pick the same point bit for bit
    if slab != "default":
        monkeypatch.setattr(estimates, "SLAB_POINTS", slab)
    for oracle, x, y, r, expected in grid_scan_references:
        report = oracle(x, y, resolution=r)
        got = (repr(report.extremum), report.argument, report.feasible)
        assert got == expected, (oracle.__name__, x, y, r)


def _bound_failures(values, bound, sense):
    """Rows where `bound` is not an optimistic bound on every value of the row."""
    if sense == "max":
        return np.flatnonzero(np.any(values > bound[:, None], axis=1))
    return np.flatnonzero(np.any(values < bound[:, None], axis=1))


def _full_grid_scans(monkeypatch):
    """Every row of every k3k1 and algebraic2 kernel call, with its row bound.

    Covers the battery and seeded random parameters at r in {8, 40}; yields
    (name, values, bound, sense) with values the full rows x points grid,
    infeasible points included.
    """
    rng = np.random.default_rng(7)
    calls = _battery_calls(("k3k1", "algebraic2"))
    for r in (8, 40):
        for x, y in zip(rng.uniform(0.5, 1.3, 20), rng.uniform(0.0, 1.8, 20)):
            calls.append(lambda x=x, y=y, r=r: lemma_k3k1_oracle(x, y, resolution=r))
        for x, y in zip(rng.uniform(0.0, 2.5, 20), rng.uniform(0.0, 2.5, 20)):
            calls.append(lambda x=x, y=y, r=r: lemma_algebraic2_oracle(x, y, resolution=r))
    scans, _ = _scans_of(monkeypatch, calls)
    for s in scans:
        values, _ = s["evaluate"](np.arange(s["rows"]))
        values = np.broadcast_to(values, (s["rows"], s["row_points"]))
        yield ("k3k1" if s["sense"] == "max" else "algebraic2"), values, s["bound"], s["sense"]


def test_row_bounds_hold_on_every_point_of_their_rows(monkeypatch):
    scans = list(_full_grid_scans(monkeypatch))
    assert {name for name, *_ in scans} == {"k3k1", "algebraic2"}
    for name, values, bound, sense in scans:
        assert bound.shape == (len(values),)
        assert len(_bound_failures(values, bound, sense)) == 0, name


def test_row_bound_check_catches_wrong_bounds(monkeypatch):
    # mutants of the oracles' bounds, with the same margin: one end column
    # only, and the other end value, as if the concavity ran the other way
    failures = {}
    for name, values, bound, sense in _full_grid_scans(monkeypatch):
        ends = values[:, [0, -1]]
        best, other = (ends.max(axis=1), ends.min(axis=1))
        if sense == "min":
            best, other = other, best
        margin = bound - best
        for mutant, wrong in (("one end", ends[:, 0]), ("flipped", other)):
            found = _bound_failures(values, wrong + margin, sense)
            failures[name, mutant] = failures.get((name, mutant), 0) + len(found)
    assert len(failures) == 4 and all(failures.values()), failures


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
