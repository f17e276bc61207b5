"""Classification verdicts from pointwise pinching conditions.

The rigidity theorems for positive Einstein four-manifolds take normal-form
hypotheses (bounds on the extremal sectional curvatures) and conclude that the
space is one of the symmetric models.  This module evaluates those hypotheses
on curvature data and assembles a certificate of which implications fired.
Threshold comparisons are exact (on the threshold's float bracket where that
decides).  Exact data is decided in integers over the normalized datum's common
denominator, with no surd built from it; the derived rows read their floors
from estimates.FLOORS and decide by squaring.  |W+| + |W-| is summed in floats
on every input, so weyl_sum_small and pinch_weyl_upper are float rows.

A verdict never claims an isometry: pointwise data can only show that the
hypotheses of a rigidity theorem hold, or that the data coincides with a
model's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .berger import BergerData, berger_data
from .bivector import MODEL_BLOCKS, CurvatureOperator
from .errors import DomainError, ExactnessError
from .estimates import (
    FLOORS,
    HAMILTON_SLACK,
    SHARP,
    GridReport,
    floor_value,
    grid_extremum,
    hamilton_gap,
)
from .surd import QuadraticSurd, common_denominator

COND_A_MAX_SEC = SHARP["sec_upper_threshold"].value  # (14 - sqrt19)/12
COND_B_SUM_MIN = SHARP["weighted_sum_lower"].value  # (sqrt19 - 3)/4
COND_B_DIFF_MAX = SHARP["sec_diff_upper"].value  # (7 - sqrt19)/4
NONNEG_SEC_MAX = SHARP["nonneg_sec_threshold"].value  # sqrt3/2
NONNEG_DIFF_MAX = SHARP["nonneg_diff_threshold"].value  # sqrt3 - 1
WEYL_SUM_MAX = SHARP["weyl_sum_threshold"].value  # sqrt6/2
_SQRT6 = 2 * WEYL_SUM_MAX

# margin of the derived rows and of pinch_weyl_upper below their bounds
ROW_MARGIN = Fraction(1, 10**9)


@dataclass(frozen=True)
class CertificateRow:
    """One checked inequality: `lhs relation rhs`, compared exactly."""

    name: str
    holds: bool
    lhs: float
    relation: str
    rhs: float
    note: str = ""

    def __str__(self):
        mark = "ok" if self.holds else "FAIL"
        return f"[{mark:>4}] {self.name}: {self.lhs:+.9f} {self.relation} {self.rhs:+.9f}"


def _row(name, lhs, relation, rhs, note="") -> CertificateRow:
    # Python compares int, Fraction and float exactly, and QuadraticSurd
    # compares against a float as the rational it stores
    holds = lhs <= rhs if relation == "<=" else lhs >= rhs
    return CertificateRow(name, holds, float(lhs), relation, float(rhs), note)


def _floor_row(name, lemma, a1, arg, t, note) -> CertificateRow:
    """The row a1 >= floor(arg) - ROW_MARGIN for a lemma of estimates.FLOORS.

    Float data (t None) compares a1 with the closed form at arg.  Exact data
    passes numerators a1, arg over t; with the record's floor (c - sqrt(m u))/(k t)
    and ROW_MARGIN = p/q the row holds iff x = c q - k (a1 q + p t) <= 0 or
    m u q^2 >= x^2, so no root is taken.  The printed rhs is the float closed
    form at float(arg).
    """
    if t is None:
        return _row(name, a1, ">=", floor_value(lemma, arg) - ROW_MARGIN, note)
    p, q = ROW_MARGIN.numerator, ROW_MARGIN.denominator
    c, m, u, k = FLOORS[lemma].terms(arg, t)
    x = c * q - k * (a1 * q + p * t)
    holds = x <= 0 or m * u * q * q >= x * x
    rhs = floor_value(lemma, float(arg / t)) - ROW_MARGIN
    return CertificateRow(name, holds, float(a1 / t), ">=", rhs, note)


def _weyl_bound(p, t) -> float:
    """The float of (p/t)/sqrt6 = p sqrt6/(6t) as a surd; float(p/t)/sqrt6 outside Q(sqrt6)."""
    if isinstance(p, int):
        return float(QuadraticSurd(0, p, 6, 6 * t))
    try:
        return float(p / t / _SQRT6)
    except ExactnessError:  # p irrational in a field without sqrt6
        return float(p / t) / math.sqrt(6.0)


# -- the Weitzenboeck discriminant ------------------------------------------------


def wpm_discriminant(w_plus, w_minus):
    """Discriminant (w+ w-)^(2/3) (-48 + 16 sqrt6 (w+ + w-) - 24 w+ w-).

    Nonpositive whenever w+, w- >= 0 and w+ + w- <= sqrt6/2, vanishing exactly
    when either half is zero; this is the sign condition that closes the
    elliptic rigidity argument.  Broadcasts over arrays of w+ and w-.
    """
    wp, wm = np.asarray(w_plus, dtype=float), np.asarray(w_minus, dtype=float)
    if not all(((w >= 0) & (w < np.inf)).all() for w in (wp, wm)):  # NaN fails w >= 0
        raise DomainError("Weyl norms must be finite and nonnegative")
    prod = wp * wm
    return prod ** (2.0 / 3.0) * (-48.0 + 16.0 * math.sqrt(6.0) * (wp + wm) - 24.0 * prod)


def wpm_discriminant_oracle(resolution: int = 400) -> GridReport:
    """Grid maximum of the discriminant over the triangle w+ + w- <= sqrt6/2."""
    top = float(WEYL_SUM_MAX)
    t = np.linspace(0.0, top, resolution + 1)

    def evaluate(idx):
        wp = t[idx, None]
        return wpm_discriminant(wp, t), wp + t <= top + 1e-15

    # the only finite row bound would be the lemma under test, so none prunes
    never = np.full(resolution + 1, np.inf)
    value, (i, j) = grid_extremum(evaluate, resolution + 1, resolution + 1, "max", never)
    return GridReport(value, (float(t[i]), float(t[j])), resolution, 0.0)


# -- the full verdict --------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    """Certificate of which pointwise rigidity hypotheses hold.

    verdict: "model_data" (normalized data equals a model's), "rigidity_regime"
    (the hamilton row and condition a or b hold), or "inconclusive".
    candidates are the model geometries compatible with the verdict;
    compatibility, not isometry.  skipped holds a (row name, reason) pair for
    each certificate row left out because the data lies outside the domain of
    its closed form.
    """

    verdict: str
    data: BergerData
    rows: tuple
    candidates: tuple
    skipped: tuple = ()

    def row(self, name: str) -> CertificateRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


# the model normal forms in floats, for matching data against them
_MODEL_FLOATS = {
    name: (tuple(map(float, a)), tuple(map(float, b))) for name, (a, b) in MODEL_BLOCKS.items()
}


def classify(source) -> ClassificationVerdict:
    """Evaluate every pointwise rigidity condition on an operator or its data.

    Accepts a CurvatureOperator or BergerData; the data is rescaled to
    Einstein constant 1 first (positive constant required), once, and every
    row reads that datum.  Threshold comparisons are exact; derived rows
    double-check the closed-form minimum bounds against the actual data, and
    are skipped (with the reason kept in `skipped`) where the data lies
    outside a closed form's domain.
    """
    if isinstance(source, CurvatureOperator):
        data = berger_data(source)
    elif isinstance(source, BergerData):
        data = source
    else:
        raise DomainError("classify expects a CurvatureOperator or BergerData")
    d = data.normalized()
    a1, a2, a3 = d.a
    diff = a3 - a2
    fa, fb = [float(x) for x in d.a], [float(x) for x in d.b]
    # |W+| + |W-| from the spectra a_i +- b_i - 1/3
    wp = sum((x + y - 1.0 / 3.0) ** 2 for x, y in zip(fa, fb))
    wm = sum((x - y - 1.0 / 3.0) ** 2 for x, y in zip(fa, fb))
    weyl_sum = math.sqrt(wp) + math.sqrt(wm)
    if d.is_exact:
        # exact rows read numerators over t = 3 lcm(denominators); surd data: 3 x over t = 3
        xs = (*d.a, *d.b)
        surds = any(isinstance(x, QuadraticSurd) for x in xs)
        den, ns = (1, xs) if surds else common_denominator(xs)
        t, (n1, n2, n3, m1, m2, m3) = 3 * den, (3 * n for n in ns)
        gap = hamilton_gap((n1, n2, n3), (m1, m2, m3), t)  # t^2 times the gap
        gap_holds = HAMILTON_SLACK.denominator * gap >= -HAMILTON_SLACK.numerator * t * t
        gap = gap / (t * t)
        top, spread = min(max(n3, t // 3), t), n3 - n2
        # the closed-form bound 4 (a3 - a1)/sqrt6 on |W+| + |W-| (on normalized
        # data it equals (2 - 6 a1 + 2 (a3 - a2))/sqrt6)
        bound = _weyl_bound(4 * (n3 - n1), t)
    else:
        t, n1 = None, a1
        gap = hamilton_gap(d.a, d.b)
        gap_holds = gap >= -HAMILTON_SLACK
        top, spread = float(min(max(a3, Fraction(1, 3)), 1)), diff
        bound = 4 * (fa[2] - fa[0]) / math.sqrt(6.0)

    slack = float(HAMILTON_SLACK)
    note = f"pointwise quadratic inequality (float slack {slack:g})"
    rows = [
        CertificateRow("hamilton", gap_holds, float(gap), ">=", -slack, note),
        _row("condition_a", a3, "<=", COND_A_MAX_SEC, "max sectional curvature cap"),
        _row("condition_b_sum", 2 * a2 + a1, ">=", COND_B_SUM_MIN, "weighted frame curvature floor"),
        _row("condition_b_diff", diff, "<=", COND_B_DIFF_MAX, "sectional spread cap"),
        _row("nonneg_sec_upper", a3, "<=", NONNEG_SEC_MAX, "forces K >= 0 when it holds"),
        _row("nonneg_sec_diff", diff, "<=", NONNEG_DIFF_MAX, "forces K >= 0 when it holds"),
        _row("weyl_sum_small", weyl_sum, "<=", WEYL_SUM_MAX, "elliptic rigidity regime"),
    ]
    if float(diff) < 0:
        spread = 0
    # only a domain's top skips a row: valid data may leave [1/3, 1] within BergerData's tolerance
    skipped = []
    for name, lemma, label, x, arg, note in (
        ("derived_min_sec", "kupper", "a3", fa[2], top,
         "closed-form floor from the max sectional curvature"),
        ("derived_min_sec_diff", "kdiff", "a3 - a2", float(diff), spread,
         "closed-form floor from the sectional spread"),
    ):
        floor = FLOORS[lemma]
        if floor.below_top(x):
            rows.append(_floor_row(name, lemma, n1, arg, t, note))
        else:
            domain = f"the domain {floor.domain} of {lemma}_lower"
            skipped.append((name, f"{label} = {x:.9g} lies outside {domain}"))
    note = "Weyl sum against its sectional bound"
    holds = bound - weyl_sum >= -float(ROW_MARGIN)
    rows.append(CertificateRow("pinch_weyl_upper", holds, weyl_sum, "<=", bound, note))

    matches = tuple(
        name
        for name, (ma, mb) in _MODEL_FLOATS.items()
        if all(abs(x - y) <= 1e-9 for x, y in zip(fa, ma))
        and (
            all(abs(x - y) <= 1e-9 for x, y in zip(fb, mb))
            or all(abs(x + y) <= 1e-9 for x, y in zip(fb, mb))
        )
    )
    by_name = {r.name: r for r in rows}
    cond_a = by_name["condition_a"].holds
    cond_b = by_name["condition_b_sum"].holds and by_name["condition_b_diff"].holds
    if matches:
        verdict = "model_data"
        candidates = matches
    elif (cond_a or cond_b) and by_name["hamilton"].holds:
        verdict = "rigidity_regime"
        candidates = ("sphere", "rp4", "cp2")
    else:
        verdict = "inconclusive"
        candidates = ()
    return ClassificationVerdict(verdict, d, tuple(rows), candidates, tuple(skipped))
