"""Closed-form pinching bounds against brute-force grid oracles."""

import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import (
    BergerData,
    QuadraticSurd,
    a2a1_gap,
    admissible_types,
    berger_data,
    classify,
    euler_upper_per_vol,
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
from curv4.estimates import FLOORS
from curv4.surd import sqrt as surd_sqrt

S19 = QuadraticSurd(0, 1, 19, 1)
S3 = QuadraticSurd(0, 1, 3, 1)
POINTWISE_LEMMAS = tuple(FLOORS)


# ---------------------------------------------------------------- hamilton


def test_hamilton_exact_on_models():
    for name in ("sphere", "cp2", "s2xs2"):
        d = berger_data(model_space(name))
        g = hamilton_gap(d.a, d.b)
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


def test_exact_arguments_are_compared_exactly():
    # the domain tests compared float(x): an exact x beyond the float range
    # raised OverflowError even inside a domain, and -1/10^400 rounded to -0.0
    # passed the test 0 <= x
    huge, tiny = Fraction(10**400), Fraction(-1, 10**400)
    normsq = 6 * 10**800 - 8 * 10**400 + Fraction(8, 3) + Fraction(1, 2)
    assert lemma_k3k1_bounds(10**400, 1)[1] == normsq
    assert lemma_k3k1_bounds(huge, 1) == lemma_k3k1_bounds(10**400, 1)
    s6 = QuadraticSurd(0, 1, 6, 1)  # a surd refuses to compare with an infinite float
    assert lemma_k3k1_bounds(s6, 1)[1] == (12 * 6 - 16 * s6 + Fraction(16, 3) + 1) / 2
    assert lemma_algebraic2_min(huge, 1) == -Fraction(1, 2)
    assert euler_upper_per_vol(-(10**400), 10**400) == 8 * 10**800 + Fraction(10, 3)  # a + b = 0
    assert admissible_types(tiny).alpha == tiny  # inside the -1e-12 slack
    for call, x in (
        (kdiff_lower, tiny), (a2a1_gap, tiny), (lambda b: lemma_algebraic2_oracle(1, b), tiny),
        (kupper_lower, huge), (kupper_lower, -huge), (admissible_types, huge),
        (admissible_types, -huge),
    ):
        with pytest.raises(DomainError):
            call(x)
    for alpha, beta in ((huge, huge), (-huge, -huge), (Fraction(1, 3), -huge)):
        with pytest.raises(DomainError):
            euler_upper_per_vol(alpha, beta)


POLYTOPE_WRAPPERS = {"kupper": kupper_lower, "kdiff": kdiff_lower, "a2a1": a2a1_gap}


def _domain_probes(floor):
    """(x, inside) just inside and just outside each end of a record's domain, and beyond."""
    lo, hi = floor.lo, floor.hi
    eps = Fraction(1, 10**400)
    return [
        (lo, True), (math.nextafter(lo, -math.inf), False),
        (Fraction(lo), True), (Fraction(lo) - eps, False),
        (math.nextafter(hi, -math.inf), True), (hi, not floor.open_top),
        (math.nextafter(hi, math.inf), False),
        (Fraction(hi) - eps, True), (Fraction(hi), not floor.open_top), (Fraction(hi) + eps, False),
        (Fraction(lo + hi) / 2, True), (math.nan, False), (math.inf, False), (-math.inf, False),
    ]


def _accepts(call) -> bool:
    try:
        call()
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("lemma", FLOORS)
def test_each_polytope_domain_is_read_from_its_record(lemma):
    # the closed form, its wrapper, the oracle and the CLI all accept exactly
    # the record's domain, compared with x itself
    name = FLOORS[lemma].param
    for x, inside in _domain_probes(FLOORS[lemma]):
        got = [
            _accepts(lambda: estimates.floor_value(lemma, x)),
            _accepts(lambda: POLYTOPE_WRAPPERS[lemma](x)),
            _accepts(lambda: pointwise_bound_oracle(lemma, x, resolution=8)),
            _accepts(lambda: cli.run_verification(lemma, grid=cli.MIN_GRID, **{name: x})),
        ]
        assert got == [inside] * 4, (x, got)


@pytest.mark.parametrize(
    "lemma, row, data",
    [
        ("kupper", "derived_min_sec", ((-0.2, 0.25, 0.95), (0.0, 0.0, 0.0))),
        ("kdiff", "derived_min_sec_diff", ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))),
    ],
)
def test_a_narrowed_record_narrows_every_reader(monkeypatch, lemma, row, data):
    # the domain is stated once: the wrapper, the oracle, the CLI and
    # classify's skip decision all follow a change to the record
    x = data[0][2] - (data[0][1] if lemma == "kdiff" else 0.0)
    assert row not in dict(classify(BergerData(*data)).skipped)
    POLYTOPE_WRAPPERS[lemma](x)
    monkeypatch.setitem(FLOORS, lemma, dataclasses.replace(FLOORS[lemma], hi=0.9))
    for call in (
        lambda: POLYTOPE_WRAPPERS[lemma](x),
        lambda: pointwise_bound_oracle(lemma, x, resolution=8),
        lambda: cli.run_verification(lemma, alpha=x, grid=cli.MIN_GRID),
    ):
        with pytest.raises(DomainError, match=r"must lie in \[.*, 9/10[\])]"):
            call()
    assert "9/10" in dict(classify(BergerData(*data)).skipped)[row]
    POLYTOPE_WRAPPERS[lemma](0.85)


NAN = math.nan
NAN_CALLS = [
    (lemma_algebraic2_min, (NAN, 1.0)),
    (lemma_algebraic2_min, (1.0, NAN)),
    (lemma_algebraic2_oracle, (NAN, 1.0)),
    (lemma_algebraic2_oracle, (1.0, NAN)),
    (lemma_k3k1_bounds, (1.0, NAN)),
    (lemma_k3k1_bounds, (NAN, 0.5)),
    (lemma_k3k1_oracle, (1.0, NAN)),
    (euler_upper_per_vol, (NAN, 0.5)),
    (euler_upper_per_vol, (0.2, NAN)),
    (kupper_lower, (NAN,)),
    (kdiff_lower, (NAN,)),
    (a2a1_gap, (NAN,)),
    (admissible_types, (NAN,)),
]


@pytest.mark.parametrize(
    "call, args", NAN_CALLS, ids=[f"{call.__name__}{args}" for call, args in NAN_CALLS]
)
def test_nan_parameters_are_out_of_domain(call, args):
    # every domain test reads `not (x >= lo)`, which NaN fails; a test
    # written `x < lo` lets NaN through to a vacuous bound or a NaN result
    with pytest.raises(DomainError):
        call(*args)


INF = math.inf
INF_CALLS = [
    (lemma_algebraic2_min, (INF, 1.0)),
    (lemma_algebraic2_min, (1.0, INF)),
    (lemma_algebraic2_oracle, (INF, 1.0)),
    (lemma_algebraic2_oracle, (1.0, INF)),
    (lemma_k3k1_bounds, (INF, 0.5)),
    (lemma_k3k1_bounds, (1.0, INF)),
    (lemma_k3k1_oracle, (INF, 1.0)),
    (lemma_k3k1_oracle, (1.0, INF)),
    (euler_upper_per_vol, (-INF, INF)),
    (euler_upper_per_vol, (0.0, INF)),
]


@pytest.mark.parametrize(
    "call, args", INF_CALLS, ids=[f"{call.__name__}{args}" for call, args in INF_CALLS]
)
def test_infinite_parameters_are_out_of_domain(call, args):
    # an infinite parameter passes a one-sided test such as `x >= 0`, and
    # the oracle then reports an infinite or NaN extremum against its bound
    with pytest.raises(DomainError, match="finite"):
        call(*args)


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


# per lemma: closed form, domain, the three terms of its radicand at x, the
# bound read off a radicand u, and the floats the closed form returns at the
# first 30 points of random.Random(21).uniform over the domain where summing
# those terms in another order changes the bound, so that a reordered term in
# the closed form changes some of these bits
FLOAT_PINS = {
    "kupper": (
        kupper_lower,
        (1 / 3, 1.0),
        lambda x: (96 * x * x, -80 * x, 19.0),
        lambda x, u: (15 - 8 * x - math.sqrt(3.0) * math.sqrt(u)) / 28,
        [
            0.31319725821116773, 0.09282166467340902, 0.29793534509007497, 0.33332730450293585,
            0.2921237529561576, 0.31573209893278326, 0.32219894465190696, 0.24599900894250024,
            0.29134018971306697, 0.30280953963637475, 0.046095065803751875, 0.10733405033062894,
            0.13617214946575867, 0.09971547179927365, 0.30892912960013674, 0.3118460709849584,
            0.24427417300481005, 0.11378976704561773, 0.26243385030835215, 0.3259070421494159,
            0.06571707495725924, 0.0699098933496893, 0.11749837169503898, 0.2867733416517799,
            0.31387826282715975, 0.3301383399411333, 0.3315712991909451, 0.24824572304400588,
            0.29924662850422407, 0.11151233840203349,
        ],
    ),
    "kdiff": (
        kdiff_lower,
        (0.0, 2.0),
        lambda x: (1.0, 8 * x * x, -4 * x),
        lambda x, u: (3 - 2 * x - math.sqrt(u)) / 6,
        [
            0.03452711539440042, -0.18216123987726926, 0.24388092993793942, -0.19978567623274812,
            0.32577446379545455, -0.9825766872765648, 0.08575719819170084, -0.4981069248264463,
            0.29778803673391596, 0.32988904194770147, 0.08368300794422585, -0.5205653726887075,
            0.32626780215179957, 0.30927591871732685, -0.5198972191789564, 0.07903880252694433,
            0.08032068895421711, 0.04582255704510289, 0.06520204553774715, 0.22936678802055602,
            0.0843325589515976, 0.32938083359557613, 0.1989263560174597, 0.24237318023608082,
            -0.16101596934762163, 0.2086190994078941, 0.02113475944394864, 0.22125475423682586,
            0.23274419394057946, 0.19621836704618292,
        ],
    ),
    "a2a1": (
        a2a1_gap,
        (0.0, 1 / 3),
        lambda x: (3.0, 18 * x * x, -15 * x),
        lambda x, u: (2 - 6 * x - math.sqrt(max(0.0, u))) / 2,
        [
            -0.04428145085973806, -0.03231912777313667, -0.06572327866552719, 0.1330895100339735,
            -0.020818011644842704, 0.11475861354229544, -0.0636242606715644, -0.02231341349356417,
            -0.054076571512833294, -0.06669290052571447, 0.03379240148194429, -0.06705711572447134,
            -0.07150596693233671, -0.07209407629688405, -0.06146770535958834, -0.05984829472158279,
            -0.07321472150182895, -0.058487595074866505, -0.06827904373656143, -0.07311693017490734,
            0.0292521408037294, 0.029039043721770796, -0.050075636631317366, -0.03548369306114405,
            -0.05585061015860676, -0.02633846804556378, -0.01390381306962618, -0.07160985719256249,
            -0.06654097074985782, -0.060930031943050966,
        ],
    ),
}


@pytest.mark.parametrize("lemma", POINTWISE_LEMMAS)
def test_closed_form_floats_are_pinned(lemma):
    closed_form, (lo, hi), terms, bound, want = FLOAT_PINS[lemma]
    rng = random.Random(21)
    xs = []
    while len(xs) < len(want):
        x = rng.uniform(lo, hi)
        sums = {bound(x, (p + q) + r) for p, q, r in itertools.permutations(terms(x))}
        if x < hi and len(sums) > 1:
            xs.append(x)
    got = [closed_form(x) for x in xs]
    assert [repr(v) for v in got] == [repr(v) for v in want]


def _table_bound(lemma, x, t):
    c, m, u, k = FLOORS[lemma].terms(x, t)
    return (c - surd_sqrt(m * u)) / (k * t)


# each lemma's closed form and exact domain lo <= x <= hi (x < hi where open)
TABLE_DOMAINS = {
    "kupper": (kupper_lower, Fraction(1, 3), Fraction(1), "closed"),
    "kdiff": (kdiff_lower, Fraction(0), Fraction(2), "open"),
    "a2a1": (a2a1_gap, Fraction(0), Fraction(1, 3), "closed"),
}


@pytest.mark.parametrize("lemma", POINTWISE_LEMMAS)
def test_floor_table_at_numerators_over_t_is_the_closed_form(lemma):
    # the table is homogeneous in (x, t): integer numerators X over t give
    # integer terms, and the bound they give is exactly the closed form at X/t
    closed_form, lo, hi, end = TABLE_DOMAINS[lemma]
    rng = random.Random(7)
    for _ in range(120):
        t = rng.randrange(2, 10 ** rng.randrange(1, 21))
        last = math.floor(hi * t) if end == "closed" else math.ceil(hi * t) - 1
        x = rng.randrange(math.ceil(lo * t), last + 1)
        assert all(type(v) is int for v in FLOORS[lemma].terms(x, t))
        assert _table_bound(lemma, x, t) == closed_form(Fraction(x, t)), (x, t)


@pytest.mark.parametrize(
    "lemma, x", [("kupper", (14 - S19) / 12), ("kdiff", (7 - S19) / 4)], ids=["kupper", "kdiff"]
)
def test_floor_table_at_the_sharp_surds_over_t(lemma, x):
    # numerators t x stay in Q(sqrt19), where each theorem's root denests
    for t in (1, 3, 12, 10**20 + 39):
        assert _table_bound(lemma, t * x, t) == TABLE_DOMAINS[lemma][0](x)


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

    # an infinite bound never prunes, so every row is evaluated in order
    never = np.full(3, np.inf)
    for slab in (estimates.SLAB_POINTS, 1):
        monkeypatch.setattr(estimates, "SLAB_POINTS", slab)
        seen.clear()
        assert estimates.grid_extremum(evaluate, 3, 2, "max", never) == (3.0, (1, 0))
        assert estimates.grid_extremum(evaluate, 3, 2, "min", -never) == (0.0, (1, 1))
        assert seen == 2 * ([[0, 1, 2]] if slab > 1 else [[0], [1], [2]])
        nowhere = estimates.grid_extremum(lambda idx: (values[idx], False), 3, 2, "max", never)
        assert nowhere is None
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


def _a_rows(lemma, p, r):
    """The oracle's a-rows: (a1, a2, a3, objective, sense), None for an empty a-range."""
    if lemma == "kupper":
        lo, hi = 1.0 - 2.0 * p, (1.0 - p) / 2.0
        if lo > hi + 1e-15:
            return None
        a1 = np.linspace(lo, hi, r + 1)
        return a1, 1.0 - p - a1, np.full(r + 1, p), a1, "min"
    if lemma == "kdiff":
        a1 = np.linspace(-1.0, (1.0 - p) / 3.0, r + 1)
        a2 = (1.0 - a1 - p) / 2.0
        return a1, a2, a2 + p, a1, "min"
    lo, hi = p, min((1.0 + p) / 4.0, (1.0 - p) / 2.0)
    if lo > hi + 1e-15:
        return None
    a2 = np.linspace(lo, hi, r + 1)
    a1 = np.full(r + 1, p)
    return a1, a2, 1.0 - p - a2, a2 - a1, "max"


def _reference_polytope(lemma, p, r):
    """Every point of the oracle's (free a, b1, b2) grid, no row skipped.

    Returns (a, box, objective, sense, feasible): a = (a1, a2, a3) and the
    b-box half-widths box = (bb1, bb2) per row, and `feasible` the (r+1)^3
    mask of the float predicates; None for an empty a-range.
    """
    rows = _a_rows(lemma, p, r)
    if rows is None:
        return None
    a1, a2, a3, objective, sense = rows
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

    def recording(evaluate, rows, row_points, sense, bound):
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
    # battery visit 14 of their 1,815 a-rows (427 survive the row bound);
    # each visited a-row is one kernel call over r + 1 lines of fixed b1
    monkeypatch.setattr(estimates, "SLAB_POINTS", 1)
    scans, reports = _scans_of(monkeypatch, _battery_calls(POINTWISE_LEMMAS))
    assert len(reports) == 15 and all(r["pass"] for r in reports)
    r = cli._LEMMAS["kupper"].grid
    assert len(scans) == 14
    assert all(s["rows"] == s["row_points"] == r + 1 for s in scans)


def test_each_polytope_report_visits_at_most_two_a_rows(monkeypatch):
    # the row bound is the gap's exact maximum over each a-row's dominance
    # region, so best first the search reaches a feasible a-row at once or
    # one a-row later, on the battery and on large spreads at r = 800
    kdiff = [
        lambda p=p: pointwise_bound_oracle("kdiff", p, resolution=800)
        for p in (1.0 + k / 10 for k in range(10))
    ]
    for call in _battery_calls(POINTWISE_LEMMAS) + kdiff:
        scans, _ = _scans_of(monkeypatch, [call])
        assert len(scans) <= 2


def test_battery_grid_scans_evaluate_few_rows(monkeypatch):
    # each algebraic2 scan (a coarse grid, then its refinements) and the two
    # k3k1 checks away from the sharp ones evaluate at most 20 of 401 rows;
    # at (5/6, 1) and (2/3, 0) every row's end value reaches the maximum, and
    # only rows of nonzero width (qhi > qlo) carry the rounding margin that
    # keeps them past the incumbent: at (5/6, 1) rounding leaves 399 such
    # rows and drops the two end rows; at (2/3, 0) all 401 rows have zero
    # width, so the first slab of 20 rows ends the scan
    scans, reports = _scans_of(monkeypatch, _battery_calls(("k3k1", "algebraic2")))
    assert all(r["pass"] for r in reports)
    assert [r["params"] for r in reports[2:4]] == [
        {"alpha": 1.0, "delta": 0.5},
        {"alpha": 0.9, "delta": 0.4},
    ]
    counts = [len(s["evaluated"]) for s in scans]
    assert len(counts) == 4 + 4 * (1 + estimates.ALGEBRAIC2_REFINEMENTS)
    assert counts[:2] == [399, 20]
    assert max(counts[2:]) <= 20


@pytest.mark.parametrize("r", [8, 24, 40])
def test_rows_the_bound_removes_hold_no_feasible_point(r):
    removed = 0
    for lemma, p in _random_params(100 + r) + [("kupper", 2.0 / 3.0), ("kdiff", 0.5)]:
        grid = _reference_polytope(lemma, p, r)
        if grid is None:
            continue
        (a1, a2, a3), _, _, _, feasible = grid
        skipped = estimates.hamilton_row_bound(a1, a2, a3) < -1e-9
        assert not feasible[skipped].any(), (lemma, p)
        removed += int(skipped.sum())
    assert removed > 0


def _row_gap_maxima(a1, a2, a3, r):
    """Largest float gap over the dominance-feasible points of each a-row's b-grid.

    The grid is the oracle's, b1 = bb1 t and b2 = bb2 t for t on r + 1 points
    of [-1, 1]; a row with no feasible point gives -inf.
    """
    s1, s2, s3 = a2 - a1, a3 - a1, a3 - a2
    bb1, bb2 = (s1 + s2) / 3.0, (s1 + s3) / 3.0
    t = np.linspace(-1.0, 1.0, r + 1)
    out = []
    for lo in range(0, len(a1), 16):
        row = slice(lo, lo + 16)
        x1, x2, x3, w1, w2, w3 = (v[row, None, None] for v in (a1, a2, a3, s1, s2, s3))
        b1 = bb1[row, None, None] * t[:, None]
        b2 = bb2[row, None, None] * t
        b3 = -b1 - b2
        gap = x1 - (x1 * x1 + b1 * b1 + 2.0 * (x2 * x3) + 2.0 * b2 * b3)
        feasible = (np.abs(b2 - b1) <= w1) & (np.abs(b3 - b1) <= w2) & (np.abs(b3 - b2) <= w3)
        out.append(np.where(feasible, gap, -np.inf).max(axis=(1, 2)))
    return np.concatenate(out)


def _row_bound_holds(bound, a, maxima) -> bool:
    """Whether bound(a1, a2, a3) is a least upper bound of the gap on each a-row.

    It must be at least every float gap in `maxima` (_row_gap_maxima), and
    equal to the gap at x = b2 - b1 = -m, y = b3 - b2 = s3 with
    m = min(s3/2, s1), a point of the dominance region.
    """
    a1, a2, a3 = a
    value = bound(a1, a2, a3)
    s1, s2, s3 = a2 - a1, a3 - a1, a3 - a2
    x, y = -np.minimum(s3 / 2.0, s1), s3
    b = (-(2.0 * x + y) / 3.0, (x - y) / 3.0, (x + 2.0 * y) / 3.0)
    tol = 1e-12
    assert (np.abs(b[1] - b[0]) <= s1 + tol).all() and (np.abs(b[2] - b[1]) <= s3 + tol).all()
    assert (np.abs(b[2] - b[0]) <= s2 + tol).all()
    attained = np.abs(hamilton_gap(a, b) - value) <= 1e-12
    return bool((maxima <= value + 1e-12).all() and attained.all())


def _row_bound_mutant(rule):
    """hamilton_row_bound with (m, s3) replaced by rule(s1, s2, s3)."""

    def bound(a1, a2, a3):
        m, s = rule(a2 - a1, a3 - a1, a3 - a2)
        return a1 - a1 * a1 - 2 * a2 * a3 + (s * s + 2 * m * s - 2 * m * m) / 3

    return bound


def test_hamilton_row_bound_is_the_least_upper_bound():
    # on the ordered a-rows of the battery's polytope checks at their grid
    # and on 80 seeded a-rows, against every float gap of the oracle's b-grid
    r = cli._LEMMAS["kupper"].grid
    rows = [_a_rows(lemma, params.get("alpha", params.get("delta")), r)
            for lemma, params in cli._BATTERY if lemma in POINTWISE_LEMMAS]
    a1, a2, a3 = (np.concatenate([row[k] for row in rows if row is not None]) for k in range(3))
    rng = np.random.default_rng(16)
    seeded = rng.uniform(-1.0, 1.0 / 3.0, 80)
    mid = rng.uniform(seeded, (1.0 - seeded) / 2.0)
    a1, a2 = np.concatenate([a1, seeded]), np.concatenate([a2, mid])
    a3 = np.concatenate([a3, 1.0 - seeded - mid])
    ordered = (a1 <= a2 + 1e-12) & (a2 <= a3 + 1e-12)
    a = (a1[ordered], a2[ordered], a3[ordered])
    s1, s3 = a[1] - a[0], a[2] - a[1]
    assert (s1 > s3 / 2.0 + 0.01).any() and (s1 < s3 / 2.0 - 0.01).any()  # both branches of m
    maxima = _row_gap_maxima(*a, r)
    assert _row_bound_holds(estimates.hamilton_row_bound, a, maxima)
    for rule in (
        lambda s1, s2, s3: (s1, s3),
        lambda s1, s2, s3: (s3 / 2.0, s3),
        lambda s1, s2, s3: (np.minimum(s2 / 2.0, s1), s2),
    ):
        assert not _row_bound_holds(_row_bound_mutant(rule), a, maxima)


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
    # zero-width rows, where the row bound carries no margin: alpha1 = 0,
    # and the edge delta = 6 alpha - 4, where qlo = qhi = 3p up to rounding
    cases += [(*k3k1, 2.0 / 3.0, 0.0, r) for r in (8, 120)]
    cases += [
        (*k3k1, float(alpha), float(6.0 * alpha - 4.0), r)
        for alpha in np.linspace(0.7, 1.2, 6)
        for r in (8, 120)
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

    Covers the battery, zero-width rows and seeded random parameters at r in
    {8, 40}; yields (name, values, bound, sense) with values the full
    rows x points grid, infeasible points included.
    """
    rng = np.random.default_rng(7)
    calls = _battery_calls(("k3k1", "algebraic2"))
    for r in (8, 40):
        # zero-width rows: alpha1 = 0, and the edge delta = 6 alpha - 4
        for x, y in [(2.0 / 3.0, 0.0)] + [(x, 6.0 * x - 4.0) for x in (0.75, 0.9, 1.1)]:
            calls.append(lambda x=x, y=y, r=r: lemma_k3k1_oracle(x, y, resolution=r))
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
