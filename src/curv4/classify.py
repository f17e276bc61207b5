"""Classification verdicts from pointwise pinching conditions.

The rigidity theorems for positive Einstein four-manifolds take normal-form
hypotheses (bounds on the extremal sectional curvatures) and conclude that the
space is one of the symmetric models.  This module evaluates those hypotheses
on curvature data, with every threshold comparison decided exactly (on the
threshold's float bracket where that is decisive; thresholds live in quadratic
fields), and assembles a certificate of which implications fired.

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
    GridReport,
    grid_extremum,
    hamilton_gap,
    kdiff_lower,
    kupper_lower,
    sharp_constants,
)
from .surd import QuadraticSurd, coerce, sqrt

_SHARP = sharp_constants()["constants"]
COND_A_MAX_SEC = _SHARP["sec_upper_threshold"].value  # (14 - sqrt19)/12
COND_B_SUM_MIN = _SHARP["weighted_sum_lower"].value  # (sqrt19 - 3)/4
COND_B_DIFF_MAX = _SHARP["sec_diff_upper"].value  # (7 - sqrt19)/4
NONNEG_SEC_MAX = _SHARP["nonneg_sec_threshold"].value  # sqrt3/2
NONNEG_DIFF_MAX = _SHARP["nonneg_diff_threshold"].value  # sqrt3 - 1
WEYL_SUM_MAX = _SHARP["weyl_sum_threshold"].value  # sqrt6/2


@dataclass(frozen=True)
class CertificateRow:
    """One checked inequality: `lhs relation rhs`, compared exactly."""

    name: str
    holds: bool
    lhs: float
    rhs: float
    relation: str
    note: str = ""

    def __str__(self):
        mark = "ok" if self.holds else "FAIL"
        return f"[{mark:>4}] {self.name}: {self.lhs:+.9f} {self.relation} {self.rhs:+.9f}"


def _row(name, lhs, relation, rhs, note="") -> CertificateRow:
    # Python compares int, Fraction and float exactly, and QuadraticSurd
    # compares against a float as the rational it stores
    if relation == "<=":
        holds = lhs <= rhs
    elif relation == ">=":
        holds = lhs >= rhs
    else:
        raise DomainError(f"unsupported relation {relation!r}")
    return CertificateRow(name, holds, float(lhs), float(rhs), relation, note)


def check_condition_a(data: BergerData) -> CertificateRow:
    """Condition (a): the largest sectional curvature stays below (14 - sqrt19)/12."""
    d = data.normalized()
    return _row(
        "condition_a", d.a[2], "<=", COND_A_MAX_SEC, "max sectional curvature cap"
    )


def check_condition_b(data: BergerData) -> tuple[CertificateRow, CertificateRow]:
    """Condition (b): 2 a2 + a1 >= (sqrt19 - 3)/4 and a3 - a2 <= (7 - sqrt19)/4."""
    d = data.normalized()
    return (
        _row(
            "condition_b_sum",
            2 * d.a[1] + d.a[0],
            ">=",
            COND_B_SUM_MIN,
            "weighted frame curvature floor",
        ),
        _row(
            "condition_b_diff",
            d.a[2] - d.a[1],
            "<=",
            COND_B_DIFF_MAX,
            "sectional spread cap",
        ),
    )


def _weyl_sum(data: BergerData) -> float:
    """|W+| + |W-| of normalized data (spectra a_i +- b_i - 1/3)."""
    d = data.normalized()
    wp = sum((float(a) + float(b) - 1.0 / 3.0) ** 2 for a, b in zip(d.a, d.b))
    wm = sum((float(a) - float(b) - 1.0 / 3.0) ** 2 for a, b in zip(d.a, d.b))
    return math.sqrt(wp) + math.sqrt(wm)


@dataclass(frozen=True)
class PinchWeylReport:
    """Closed-form bound 4 (a3 - a1)/sqrt6 on |W+| + |W-| from the sectional data.

    On normalized data (a1 + a2 + a3 = 1) it equals (2 - 6 a1 + 2 (a3 - a2))/sqrt6.
    `bound_exact` is present for exact data.
    """

    bound: float
    weyl_sum: float
    margin: float
    holds: bool
    bound_exact: QuadraticSurd | None = None


def pinch_to_weyl_gap(data: BergerData) -> PinchWeylReport:
    """Bound |W+| + |W-| by the sectional gap and verify against the spectra."""
    d = data.normalized()
    six, a1, _, a3, *_ = coerce(6, *d.a, *d.b, d.lambda_einstein)
    numerator = 4 * (a3 - a1)
    try:
        bound = numerator / sqrt(six)
    except ExactnessError:  # numerator irrational in a field without sqrt6
        bound = float(numerator) / math.sqrt(6.0)
    bound_exact = None if isinstance(bound, float) else bound
    ws = _weyl_sum(d)
    margin = float(bound) - ws
    return PinchWeylReport(float(bound), ws, margin, margin >= -1e-9, bound_exact)


# -- the Weitzenboeck discriminant ------------------------------------------------


def wpm_discriminant(w_plus, w_minus):
    """Discriminant (w+ w-)^(2/3) (-48 + 16 sqrt6 (w+ + w-) - 24 w+ w-).

    Nonpositive whenever w+, w- >= 0 and w+ + w- <= sqrt6/2, vanishing exactly
    when either half is zero; this is the sign condition that closes the
    elliptic rigidity argument.  Broadcasts over arrays of w+ and w-.
    """
    wp, wm = np.asarray(w_plus, dtype=float), np.asarray(w_minus, dtype=float)
    if np.any(wp < 0) or np.any(wm < 0):
        raise DomainError("Weyl norms must be nonnegative")
    prod = wp * wm
    return prod ** (2.0 / 3.0) * (-48.0 + 16.0 * math.sqrt(6.0) * (wp + wm) - 24.0 * prod)


def wpm_discriminant_oracle(resolution: int = 400) -> GridReport:
    """Grid maximum of the discriminant over the triangle w+ + w- <= sqrt6/2."""
    top = float(WEYL_SUM_MAX)
    t = np.linspace(0.0, top, resolution + 1)

    def evaluate(lo, hi):
        wp = t[lo:hi, None]
        return wpm_discriminant(wp, t), wp + t <= top + 1e-15

    value, (i, j) = grid_extremum(evaluate, resolution + 1, resolution + 1)
    return GridReport(value, (float(t[i]), float(t[j])), resolution, 0.0)


def check_weyl_sum(data: BergerData) -> CertificateRow:
    """|W+| + |W-| <= sqrt6/2, the hypothesis of the elliptic argument."""
    return _row(
        "weyl_sum_small",
        _weyl_sum(data),
        "<=",
        WEYL_SUM_MAX,
        "elliptic rigidity regime",
    )


# -- the full verdict --------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    """Certificate of which pointwise rigidity hypotheses hold.

    verdict: "model_data" (normalized data equals a model's), "rigidity_regime"
    (condition a or b holds), or "inconclusive".  candidates are the model
    geometries compatible with the verdict; compatibility, not isometry.
    skipped holds a (row name, reason) pair for each certificate row left out
    because the data lies outside the domain of its closed form.
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


def _matches_model(d: BergerData, model: str, tol: float = 1e-9) -> bool:
    ma, mb = MODEL_BLOCKS[model]
    da = [float(x) for x in d.a]
    ma = [float(x) for x in ma]
    if any(abs(x - y) > tol for x, y in zip(da, ma)):
        return False
    db = [float(x) for x in d.b]
    mb = [float(x) for x in mb]
    same = all(abs(x - y) <= tol for x, y in zip(db, mb))
    flipped = all(abs(x + y) <= tol for x, y in zip(db, mb))
    return same or flipped


def classify(source) -> ClassificationVerdict:
    """Evaluate every pointwise rigidity condition on an operator or its data.

    Accepts a CurvatureOperator or BergerData; the data is rescaled to
    Einstein constant 1 first (positive constant required).  Threshold
    comparisons are exact; derived rows double-check the closed-form minimum
    bounds against the actual data, and are skipped (with the reason kept in
    `skipped`) where the data lies outside a closed form's domain.
    """
    if isinstance(source, CurvatureOperator):
        data = berger_data(source)
    elif isinstance(source, BergerData):
        data = source
    else:
        raise DomainError("classify expects a CurvatureOperator or BergerData")
    d = data.normalized()
    a1, a2, a3 = d.a

    rows = [
        _row(
            "hamilton",
            hamilton_gap(d),
            ">=",
            -Fraction(1, 10**12),
            "pointwise quadratic inequality (float slack 1e-12)",
        ),
        check_condition_a(d),
        *check_condition_b(d),
        _row("nonneg_sec_upper", a3, "<=", NONNEG_SEC_MAX, "forces K >= 0 when it holds"),
        _row(
            "nonneg_sec_diff",
            a3 - a2,
            "<=",
            NONNEG_DIFF_MAX,
            "forces K >= 0 when it holds",
        ),
        check_weyl_sum(d),
    ]
    skipped = []
    if float(a3) <= 1.0 + 1e-12:
        # valid data may leave [1/3, 1] within its 1e-9 tolerance
        arg = min(max(a3, Fraction(1, 3)), 1)
        arg = arg if d.is_exact else float(arg)
        rows.append(
            _row(
                "derived_min_sec",
                a1,
                ">=",
                kupper_lower(arg) - Fraction(1, 10**9),
                "closed-form floor from the max sectional curvature",
            )
        )
    else:
        skipped.append(("derived_min_sec", "a3 > 1 lies outside the domain [1/3, 1] of kupper_lower"))
    spread = a3 - a2
    if float(spread) < 0:
        spread = 0
    if float(spread) < 2.0:
        rows.append(
            _row(
                "derived_min_sec_diff",
                a1,
                ">=",
                kdiff_lower(spread) - Fraction(1, 10**9),
                "closed-form floor from the sectional spread",
            )
        )
    else:
        skipped.append(
            ("derived_min_sec_diff", "a3 - a2 >= 2 lies outside the domain [0, 2) of kdiff_lower")
        )
    rep = pinch_to_weyl_gap(d)
    rows.append(
        CertificateRow(
            "pinch_weyl_upper",
            rep.holds,
            rep.weyl_sum,
            rep.bound,
            "<=",
            "Weyl sum against its sectional bound",
        )
    )

    matches = tuple(name for name in MODEL_BLOCKS if _matches_model(d, name))
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
