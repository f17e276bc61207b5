"""End-to-end acceptance gate: eleven criteria, one pass/fail line each.

Each test prints a single "PASS criterion N: ..." line (or FAIL) before
asserting, so a bare pytest run documents the verdict table.  Tolerances and
runtime budgets are part of the criteria, not implementation choices.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from curv4 import (
    QuadraticSurd,
    berger_data,
    berger_to_operator,
    classify,
    conjugate_operator,
    duality_decompose,
    frame_functional_min,
    hamilton_gap,
    hitchin_thorpe,
    kdiff_lower,
    kupper_lower,
    lemma_algebraic2_min,
    lemma_algebraic2_oracle,
    lemma_k3k1_bounds,
    lemma_k3k1_oracle,
    model_space,
    operator_from_json,
    pointwise_bound_oracle,
    reconstruct_frame,
    sample_berger_data,
    sharp_constants,
    static_weitzenbock_residual,
    wpm_discriminant_oracle,
)
from curv4.cli import main

THIRD = Fraction(1, 3)


def _criterion(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def _haar_rotation(rng):
    g = rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_criterion_1_model_tables(capsys):
    """`curv4 models` reproduces the model operators in exact rational arithmetic."""
    t0 = time.perf_counter()
    assert main(["models", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected_w = {
        "sphere": ((0, 0, 0), (0, 0, 0)),
        "rp4": ((0, 0, 0), (0, 0, 0)),
        "cp2": ((-THIRD, -THIRD, 2 * THIRD), (0, 0, 0)),
        "s2xs2": ((-THIRD, -THIRD, 2 * THIRD), (-THIRD, -THIRD, 2 * THIRD)),
    }
    expected_chi_tau = {"sphere": (2, 0), "rp4": (1, None), "cp2": (3, 1), "s2xs2": (4, 0)}
    ok = set(doc["models"]) == set(expected_w)
    for name, entry in doc["models"].items():
        op = operator_from_json(entry)
        d = duality_decompose(op)
        wp, wm = expected_w[name]
        # zero tolerance: spectra come back as exact rationals and S = 4
        ok = ok and all(isinstance(x, (int, Fraction)) for x in d.w_plus.eigenvalues)
        ok = ok and d.s == 4 and d.traceless_ricci_norm_sq == 0
        ok = ok and d.w_plus.eigenvalues == wp and d.w_minus.eigenvalues == wm
        ok = ok and (entry["euler"], entry["signature"]) == expected_chi_tau[name]
    elapsed = time.perf_counter() - t0
    _criterion(1, "model tables exact via CLI", ok and elapsed < 1.0)


def test_criterion_2_sharp_constants(capsys):
    """`curv4 constants` prints the four thresholds and the two endpoint identities."""
    t0 = time.perf_counter()
    code = main(["constants", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    prefixes = {
        "sec_upper_threshold": "0.8034",
        "weighted_sum_lower": "0.3397247",
        "sec_diff_upper": "0.660275",
        "apriori_min_lower": "-0.11596",
    }
    ok = code == 0
    for name, prefix in prefixes.items():
        ok = ok and doc["constants"][name]["decimal"].startswith(prefix)
    ok = ok and doc["identities"]["upper_gap_rational"] is True
    ok = ok and doc["identities"]["diff_combination_rational"] is True
    ok = ok and doc["identities"]["upper_pipeline_endpoint"] is True
    ok = ok and doc["identities"]["diff_pipeline_endpoint"] is True
    book = sharp_constants()
    s19 = QuadraticSurd(0, 1, 19, 1)
    beta = book["constants"]["sec_upper_threshold"].value
    beta_d = book["constants"]["sec_diff_upper"].value
    ok = ok and beta - kupper_lower(beta) == Fraction(3, 4)
    ok = ok and 2 + 2 * beta_d - 6 * kdiff_lower(beta_d) == 3
    ok = ok and beta == (14 - s19) / 12 and beta_d == (7 - s19) / 4
    elapsed = time.perf_counter() - t0
    _criterion(2, "sharp constants and endpoint identities", ok and elapsed < 1.0)


def test_criterion_3_k3k1_oracle():
    """Pinched-Weyl bound: sharp at (5/6, 1), never violated, boundary at delta = 6 alpha - 4."""
    t0 = time.perf_counter()
    sharp = lemma_k3k1_oracle(5.0 / 6.0, 1.0, resolution=400)
    ok = abs(sharp.extremum - 2.0 / math.sqrt(6.0)) <= 1e-3
    ok = ok and lemma_k3k1_bounds(Fraction(5, 6), 1)[0] == QuadraticSurd(0, 1, 6, 3)

    alphas = np.linspace(0.5, 1.2, 50)
    deltas = np.linspace(0.0, 1.6, 50)
    step = float(deltas[1] - deltas[0])
    for alpha in alphas:
        flip = None  # first infeasible delta along this column
        for k, delta in enumerate(deltas):
            rep = lemma_k3k1_oracle(float(alpha), float(delta), resolution=120)
            if rep.feasible:
                ok = ok and flip is None and rep.violation <= 1e-9
            elif flip is None:
                flip = k
        boundary = 6.0 * float(alpha) - 4.0
        if boundary < 0.0:
            ok = ok and flip == 0  # entire column infeasible
        elif boundary >= float(deltas[-1]):
            ok = ok and flip is None
        else:
            ok = ok and flip is not None and abs(float(deltas[flip]) - boundary) <= step + 1e-12
    elapsed = time.perf_counter() - t0
    _criterion(3, "pinched-Weyl oracle sweep and feasibility boundary", ok and elapsed < 60.0)


def test_criterion_4_algebraic2_oracle():
    """Constrained quadratic minimum matches the two-branch closed form to 1e-6."""
    t0 = time.perf_counter()
    ok = True
    for a in np.linspace(0.0, 2.0, 20):
        for b in np.linspace(0.0, 2.0, 20):
            rep = lemma_algebraic2_oracle(float(a), float(b), resolution=400)
            closed = float(lemma_algebraic2_min(float(a), float(b)))
            ok = ok and abs(rep.extremum - closed) <= 1e-6
    elapsed = time.perf_counter() - t0
    _criterion(4, "quadratic-minimum oracle 20x20 sweep", ok and elapsed < 60.0)


def test_criterion_5_sectional_lower_bounds():
    """Exact anchor values plus polytope oracles never beating the closed forms."""
    t0 = time.perf_counter()
    s3 = QuadraticSurd(0, 1, 3, 1)
    ok = kupper_lower(Fraction(2, 3)) == Fraction(1, 6)
    ok = ok and kupper_lower(s3 / 2) == 0
    ok = ok and kdiff_lower(s3 - 1) == 0
    sweeps = {
        "kupper": [0.34, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0],
        "kdiff": [0.0, 0.1, 0.5, 0.75, 1.0, 1.5],
        "a2a1": [0.0, 0.05, 1.0 / 6.0, 0.25, 1.0 / 3.0],
    }
    for lemma, params in sweeps.items():
        for p in params:
            rep = pointwise_bound_oracle(lemma, p, resolution=120)
            if rep.feasible:
                ok = ok and rep.violation <= 1e-3
    elapsed = time.perf_counter() - t0
    _criterion(5, "sectional lower bounds exact and oracle-consistent", ok and elapsed < 300.0)


def test_criterion_6_hamilton_gap_models():
    """The pointwise quadratic inequality is tight (gap 0, exact) on all models."""
    ok = True
    for name in ("sphere", "cp2", "s2xs2"):
        d = berger_data(model_space(name))
        gap = hamilton_gap(d.a, d.b)
        ok = ok and isinstance(gap, (int, Fraction)) and gap == 0
    _criterion(6, "normal-form quadratic inequality exact on models", ok)


def test_criterion_7_weitzenbock_models():
    """S |W|^2 - 36 det W vanishes exactly on both halves of every model at S = 4."""
    ok = True
    for name in ("sphere", "cp2", "s2xs2"):
        d = duality_decompose(model_space(name))
        ok = ok and d.s == 4
        for w in (d.w_plus, d.w_minus):
            res = static_weitzenbock_residual(d.s, w)
            ok = ok and isinstance(res, (int, Fraction)) and res == 0
    _criterion(7, "static Weitzenbock residual exact on models", ok)


def test_criterion_8_wpm_discriminant():
    """Discriminant max over the Weyl-sum triangle is 0, only on the product boundary."""
    rep = wpm_discriminant_oracle(resolution=400)
    ok = abs(rep.extremum) <= 1e-9
    wp, wm = rep.argument
    ok = ok and min(abs(wp), abs(wm)) == 0.0
    s6 = QuadraticSurd(0, 1, 6, 1)
    ok = ok and 16 * s6 * (s6 / 2) == 48  # 16 sqrt6 * sqrt(3/2) collapses exactly
    _criterion(8, "Weyl discriminant nonpositive with boundary maximum", ok)


def test_criterion_9_admissible_types(capsys):
    """chi-tau enumeration at the 0.0446 pinching level plus the obstruction check."""
    assert main(["chi-tau", "--alpha", "0.0446", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    pairs = {tuple(p) for p in doc["pairs"]}
    ok = pairs == {(1, 5), (1, 7), (0, 2), (0, 4), (0, 6)}
    ok = ok and hitchin_thorpe(2, 0) and hitchin_thorpe(3, 1) and hitchin_thorpe(4, 0)
    _criterion(9, "admissible (tau, chi) pairs at alpha = 0.0446", ok)


def test_criterion_10_round_trip_and_frames():
    """Normal-form round trip at 1e-10 over 1e4 points; frame recovery at 1e-8 over 1e3."""
    samples = sample_berger_data(10000, seed=7)
    worst = 0.0
    for d in samples:
        d2 = berger_data(berger_to_operator(d))
        worst = max(
            worst,
            max(abs(float(x) - float(y)) for x, y in zip(d.a + d.b, d2.a + d2.b)),
        )
    ok = worst <= 1e-10

    rng = np.random.default_rng(3)
    residual = 0.0
    for d in samples[:1000]:
        rotated = conjugate_operator(berger_to_operator(d), _haar_rotation(rng))
        residual = max(residual, reconstruct_frame(rotated).residual)
    ok = ok and residual <= 1e-8
    _criterion(10, "round trip 1e-10 and frame reconstruction 1e-8", ok)


def test_criterion_11_classification():
    """Condition rows all-true on sphere and cp2, all-false on s2xs2; sampled minimum."""
    rows = ("condition_a", "condition_b_sum", "condition_b_diff", "weyl_sum_small")
    ok = True
    for name in ("sphere", "cp2"):
        verdict = classify(model_space(name))
        ok = ok and all(verdict.row(r).holds for r in rows)
    verdict = classify(model_space("s2xs2"))
    ok = ok and all(not verdict.row(r).holds for r in rows)

    rep = frame_functional_min(model_space("cp2"), samples=100000, seed=0)
    ok = ok and abs(rep.extremum - 0.5) <= 1e-2
    _criterion(11, "condition table on models and sampled frame minimum", ok)
