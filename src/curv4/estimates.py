"""Pointwise pinching estimates for unit-Einstein normal-form data.

Everything here lives at a single point: the input is normal-form data
(a1 <= a2 <= a3 with mixed parts b summing to zero, a summing to the Einstein
constant) and the outputs are the closed-form bounds that drive the sphere /
projective-plane / product classification, together with brute-force grid
oracles that never consult the closed forms they are checking.

Closed forms accept floats (float out) or exact rationals / quadratic surds
(exact out, when the inner square root denests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError
from .surd import QuadraticSurd, coerce, is_finite, sqrt


@dataclass(frozen=True)
class GridReport:
    """Outcome of one brute-force oracle run against a closed-form bound.

    extremum  -- best value found on the grid (max or min per `sense`)
    argument  -- grid point achieving it (ties: first in row-major order,
                 whatever order rows were visited in; see grid_extremum)
    resolution-- grid subdivisions per axis (or sample count for samplers)
    bound     -- the closed-form value under test
    sense     -- "max": extremum must stay <= bound; "min": >= bound
    feasible  -- False when the constraint set contained no grid point

    `gap` and `violation` are derived from these, never stored.
    """

    extremum: float
    argument: tuple
    resolution: int
    bound: float
    sense: str = "max"
    feasible: bool = True

    @property
    def gap(self) -> float:
        """Nonnegative slack between bound and extremum (sharpness measure)."""
        if not self.feasible:
            return math.inf
        if self.sense == "max":
            return self.bound - self.extremum
        return self.extremum - self.bound

    @property
    def violation(self) -> float:
        """How far the grid beat the bound: max(0, -gap), 0 when it holds."""
        return max(0.0, -self.gap)


def _infeasible(resolution, bound, sense) -> GridReport:
    return GridReport(math.nan, (), resolution, bound, sense, feasible=False)


# most grid points one oracle evaluates at once, so that its working memory
# stays flat whatever the resolution (a slab still holds at least one row);
# 2^13 keeps one slab's float temporaries below glibc's 128 KiB mmap
# threshold, so they are recycled from the heap instead of mapped anew
SLAB_POINTS = 1 << 13


def grid_extremum(evaluate, rows: int, row_points: int, sense: str, bound):
    """Best feasible point of a grid scanned in slabs of whole rows.

    evaluate(idx) returns (values, feasible) on the grid rows of the ascending
    int array idx: arrays that broadcast to one shape whose first axis runs
    over idx.  Each row holds `row_points` points, and a slab takes as many
    rows as fit in SLAB_POINTS.  Returns (value, index) of the largest (sense
    "max") or smallest ("min") feasible value, ties going to the first point
    in row-major order whatever order the slabs were visited in, or None when
    no point is feasible.

    bound[i] is an optimistic bound on every value of row i (at least each
    value for "max", at most each for "min"; an infinite one never prunes).
    Rows are visited best bound first (a stable sort), and a row is dropped
    unevaluated when its bound is worse than the incumbent, or equal to it
    with the row after the incumbent's.
    """
    better = np.greater if sense == "max" else np.less
    pick, worst = (np.argmax, -np.inf) if sense == "max" else (np.argmin, np.inf)
    step = max(1, SLAB_POINTS // row_points)
    order = np.argsort(-bound if sense == "max" else bound, kind="stable")
    best = None
    for lo in range(0, rows, step):
        idx = np.sort(order[lo : lo + step])
        if best is not None:
            b = bound[idx]
            idx = idx[better(b, best[0]) | ((b == best[0]) & (idx < best[1][0]))]
            if not len(idx):
                # later slabs hold only worse bounds, or ties further on
                break
        values, feasible = evaluate(idx)
        masked = np.where(feasible, values, worst)
        flat = int(pick(masked))
        if not np.broadcast_to(feasible, masked.shape).flat[flat]:
            continue
        value = float(masked.flat[flat])
        row, *rest = np.unravel_index(flat, masked.shape)
        point = (int(idx[row]), *map(int, rest))
        if best is None or better(value, best[0]) or (value == best[0] and point < best[1]):
            best = (value, point)
    return best


# -- the normal-form set: dominance and the pointwise quadratic inequality ------


def hamilton_gap(a, b, t=1):
    """Slack t a1 - (a1^2 + b1^2 + 2 (a2 a3 + b2 b3)) of the normal-form inequality.

    Nonnegative on the data (a, b) of smooth Einstein four-manifolds at Einstein
    constant t, and 0 on the three symmetric models.  Elementwise (numbers, exact
    or float, or arrays) and homogeneous: numerators over t give t^2 times the gap.
    """
    a1, a2, a3 = a
    b1, b2, b3 = b
    return t * a1 - (a1 * a1 + b1 * b1 + 2 * (a2 * a3 + b2 * b3))


DOMINANCE_PAIRS = ((0, 1), (0, 2), (1, 2))


def dominance(a, b, tol=0.0) -> list:
    """The verdicts |b_j - b_i| <= a_j - a_i + tol over DOMINANCE_PAIRS, elementwise."""
    return [abs(b[j] - b[i]) <= a[j] - a[i] + tol for i, j in DOMINANCE_PAIRS]


# boundary slack of the inequality on float data
HAMILTON_PREDICATE_TOL = 1e-12


def hamilton_row_bound(a1, a2, a3):
    """Least upper bound of hamilton_gap over the b that the a-gaps dominate.

    With x = b2 - b1 and y = b3 - b2 (b summing to 0) the gap is
    c0 - (2 x^2 + 2 x y - y^2)/3, c0 = a1 - a1^2 - 2 a2 a3, on the
    parallelogram |x| <= s1 = a2 - a1, |y| <= s3 = a3 - a2 (|x + y| <= s2
    follows, as s2 = s1 + s3).  It is concave in x, peaking at x = -y/2, and
    its peak grows with |y|, so with m = min(s3/2, s1) the maximum, reached at
    y = +-s3, x = -+m, is

        c0 + (s3^2 + 2 m s3 - 2 m^2)/3.

    Broadcasts over arrays.
    """
    s1, s3 = a2 - a1, a3 - a2
    m = np.minimum(s3 / 2.0, s1)
    return a1 - a1 * a1 - 2 * a2 * a3 + (s3 * s3 + 2 * m * s3 - 2 * m * m) / 3


# -- Weyl bounds from a two-sided sectional pinch (sum/difference form) ---------


def lemma_k3k1_bounds(alpha, delta):
    """Bounds on |W+| + |W-| and |W+|^2 + |W-|^2 given a2 + a3 and a3 - a2.

    With alpha = a2 + a3 > 0 and delta = 2(a3 - a2) >= 0 the Weyl halves of a
    unit-Einstein operator satisfy

        |W+| + |W-|     <=  (6 alpha - 4 + delta) / sqrt6
        |W+|^2 + |W-|^2 <=  (12 alpha^2 - 16 alpha + 16/3 + delta^2) / 2

    Returns (sum_bound, normsq_bound); exact inputs give exact output (the sum
    bound then lives in Q(sqrt6)).
    """
    if not (is_finite(alpha) and alpha > 0):
        raise DomainError("alpha = a2 + a3 must be positive and finite")
    if not (is_finite(delta) and delta >= 0):
        raise DomainError("delta = 2(a3 - a2) must be nonnegative and finite")
    three, a, d = coerce(3, alpha, delta)
    return (6 * a - 4 + d) / sqrt(2 * three), (12 * a * a - 16 * a + 16 / three + d * d) / 2


def lemma_k3k1_oracle(alpha: float, delta: float, resolution: int = 400) -> GridReport:
    """Brute-force check of the pinched-Weyl bounds.

    The trace-free halves are parametrized by p = l2 + l3, q = l3 - l2 (and
    m, n for the other half) subject to p + m = 2 alpha - 4/3, q + n = delta,
    0 <= q <= 3p, 0 <= n <= 3m; then |W+| = sqrt(3p^2 + q^2)/sqrt2.  The grid
    maximizes |W+| + |W-| and reports the slack against the closed-form sum
    bound.  An empty parameter polytope (delta > 6 alpha - 4) is reported
    infeasible rather than an error.
    """
    bound = float(lemma_k3k1_bounds(alpha, delta)[0])
    alpha, delta = float(alpha), float(delta)
    alpha1 = 2.0 * alpha - 4.0 / 3.0
    if alpha1 < 0.0:
        return _infeasible(resolution, bound, "max")

    p = np.linspace(0.0, alpha1, resolution + 1)
    qlo = np.maximum(0.0, delta - 3.0 * (alpha1 - p))
    qhi = np.minimum(delta, 3.0 * p)
    ok = qlo <= qhi
    if not np.any(ok):
        return _infeasible(resolution, bound, "max")
    p, qlo, qhi = p[ok], qlo[ok], qhi[ok]
    t = np.linspace(0.0, 1.0, resolution + 1)

    def weyl_sum(idx, t):
        pp = p[idx, None]
        q = qlo[idx, None] + t * (qhi - qlo)[idx, None]
        m = alpha1 - pp
        n = delta - q
        wp = np.sqrt(3.0 * pp * pp + q * q) / math.sqrt(2.0)
        wm = np.sqrt(3.0 * m * m + n * n) / math.sqrt(2.0)
        return wp + wm

    # q is affine in t along a row, so the sum of norms is convex there and peaks
    # at an end column; a margin covers the scan's rounding where qhi > qlo (else q = qlo)
    ends = weyl_sum(np.arange(len(p)), t[[0, -1]]).max(axis=1)
    row_bound = ends + np.where(qhi > qlo, 1e-12 * max(1.0, alpha1, delta), 0.0)
    value, (i, j) = grid_extremum(
        lambda idx: (weyl_sum(idx, t), True), len(p), resolution + 1, "max", row_bound
    )
    arg = (float(p[i]), float(qlo[i] + t[j] * (qhi[i] - qlo[i])))
    return GridReport(value, arg, resolution, bound)


# -- the two-variable quadratic minimum -----------------------------------------


def lemma_algebraic2_min(a, b):
    """Minimum of 4xy + x^2 + y^2 over {xy <= 0, |2x+y| <= a, |x-y| <= b}.

    Two branches: (2a^2 - 2ab - b^2)/3 when 2a < b, else -b^2/2.  Requires
    finite a, b >= 0.  Exact inputs give exact output.
    """
    if not (is_finite(a) and is_finite(b) and a >= 0 and b >= 0):
        raise DomainError("bounds a, b must be finite and nonnegative")
    a, b = coerce(a, b)
    if 2 * a < b:
        return (2 * a * a - 2 * a * b - b * b) / 3
    return -b * b / 2


# refinement passes of the algebraic2 oracle around its incumbent
ALGEBRAIC2_REFINEMENTS = 2


def lemma_algebraic2_oracle(a: float, b: float, resolution: int = 400) -> GridReport:
    """Grid minimum of 4xy + x^2 + y^2 over the constrained parallelogram.

    The (x, y) grid is sheared along the constraint coordinates m = 2x + y,
    n = x - y so the active boundary |x - y| = b lies exactly on grid lines;
    ALGEBRAIC2_REFINEMENTS passes of a finer grid around the incumbent bring
    the discretization error well under 1e-6.
    """
    bound = float(lemma_algebraic2_min(a, b))
    a, b = float(a), float(b)
    eps = 1e-12 * max(1.0, a * a, b * b)  # grid rounding can push xy just past 0

    def scan(mlo, mhi, nlo, nhi):
        m = np.linspace(mlo, mhi, resolution + 1)
        n = np.linspace(nlo, nhi, resolution + 1)

        def form(idx, n):
            x = (m[idx, None] + n) / 3.0
            y = (m[idx, None] - 2.0 * n) / 3.0
            return 4.0 * x * y + x * x + y * y, x * y <= eps

        # along a row the form is (2m^2 - 2mn - n^2)/3, concave in n, so no
        # value lies below the smaller end value; feasibility only removes points
        ends = form(np.arange(resolution + 1), n[[0, -1]])[0].min(axis=1)
        found = grid_extremum(
            lambda idx: form(idx, n), resolution + 1, resolution + 1, "min", ends - 4.0 * eps
        )
        if found is None:
            return None
        value, (i, j) = found
        return value, float(m[i]), float(n[j])

    best, mstar, nstar = scan(-a, a, -b, b) or (0.0, 0.0, 0.0)  # the origin is admissible
    cell_m, cell_n = 2.0 * a / resolution, 2.0 * b / resolution
    for _ in range(ALGEBRAIC2_REFINEMENTS):
        half_m, half_n = 3.0 * cell_m, 3.0 * cell_n
        window = scan(
            max(-a, mstar - half_m), min(a, mstar + half_m),
            max(-b, nstar - half_n), min(b, nstar + half_n),
        )
        if window is not None and window[0] < best:
            best, mstar, nstar = window
        cell_m, cell_n = 2.0 * half_m / resolution, 2.0 * half_n / resolution
    x, y = (mstar + nstar) / 3.0, (mstar - 2.0 * nstar) / 3.0
    return GridReport(best, (x, y), resolution, bound, "min")


# -- the polytope lemmas: lower bounds on the minimal sectional curvature -------


@dataclass(frozen=True)
class Floor:
    """One polytope lemma, read by its closed form, its oracle, classify and the CLI.

    terms(x, t) is (c, m, u, k), the bound at x/t being (c - sqrt(m u))/(k t);
    integer numerators over t give integers, and the closed form reads them at
    t = 1 in the order written, which fixes every bit of its floats.  x, named
    `param`, has the domain lo <= x <= hi (x < hi when open_top).  The oracle
    fixes x = p and scans a_row(p, s) = (a1, a2, a3), s the free a-coordinate
    on span(p), minimizing a1 (sense "min") or maximizing a2 - a1 ("max").
    """

    terms: Callable
    lo: float
    hi: float
    param: str
    sense: str
    span: Callable
    a_row: Callable
    open_top: bool = False

    @cached_property
    def domain(self) -> str:
        """The domain as messages print it, its ends to the nearest twelfth (built once)."""
        lo, hi = (Fraction(end).limit_denominator(12) for end in (self.lo, self.hi))
        return f"[{lo}, {hi}{')' if self.open_top else ']'}"

    def below_top(self, x) -> bool:
        return x < self.hi if self.open_top else x <= self.hi


FLOORS = {
    # x = a3, the largest sectional curvature: fix a3 = x, minimize a1
    "kupper": Floor(
        terms=lambda x, t: (15 * t - 8 * x, 3, 96 * x * x - 80 * t * x + 19 * t * t, 28),
        lo=1.0 / 3.0 - 1e-12, hi=1.0 + 1e-12, param="alpha", sense="min",
        span=lambda p: (1.0 - 2.0 * p, (1.0 - p) / 2.0),
        a_row=lambda p, s: (s, 1.0 - p - s, np.full_like(s, p)),
    ),
    # x = a3 - a2, the sectional spread: fix it, minimize a1
    "kdiff": Floor(
        terms=lambda x, t: (3 * t - 2 * x, 1, t * t + 8 * x * x - 4 * t * x, 6),
        lo=0.0, hi=2.0, open_top=True, param="alpha", sense="min",
        span=lambda p: (-1.0, (1.0 - p) / 3.0),
        a_row=lambda p, s: (s, (1.0 - s - p) / 2.0, (1.0 - s - p) / 2.0 + p),
    ),
    # x = a1: fix it, maximize a2 - a1 under 4 a2 <= 1 + a1
    "a2a1": Floor(
        terms=lambda x, t: (2 * t - 6 * x, 1, 3 * t * t + 18 * x * x - 15 * t * x, 2),
        lo=0.0, hi=1.0 / 3.0 + 1e-12, param="delta", sense="max",
        span=lambda p: (p, min((1.0 + p) / 4.0, (1.0 - p) / 2.0)),
        a_row=lambda p, s: (np.full_like(s, p), s, 1.0 - p - s),
    ),
}


def floor_value(lemma: str, x):
    """The bound of FLOORS[lemma] at x, float or exact as x is; DomainError outside its domain.

    u is clamped at 0, and the root is sqrt(m) sqrt(u) for floats and the
    exact sqrt(m u) otherwise.
    """
    if lemma not in FLOORS:
        raise DomainError(f"unknown lemma {lemma!r}; choose from {tuple(FLOORS)}")
    floor = FLOORS[lemma]
    if not (floor.lo <= x and floor.below_top(x)):  # NaN fails both
        raise DomainError(f"{floor.param} must lie in {floor.domain}")
    (x,) = coerce(x)
    c, m, u, k = floor.terms(x, 1)
    u = u if u >= 0 else 0 * u
    root = math.sqrt(m) * math.sqrt(u) if isinstance(u, float) else sqrt(m * u)
    return (c - root) / k


def kupper_lower(alpha):
    """Lower bound on a1 when the largest sectional curvature equals alpha <= 1.

    a1 >= (15 - 8 alpha - sqrt3 * sqrt(96 alpha^2 - 80 alpha + 19)) / 28,
    valid for 1/3 <= alpha <= 1.  Exact at rational alpha and at the square-root
    thresholds where the radical denests (e.g. alpha = sqrt3/2 gives exactly 0).
    """
    return floor_value("kupper", alpha)


def kdiff_lower(alpha):
    """Lower bound on a1 when the sectional spread a3 - a2 equals alpha.

    a1 >= (3 - 2 alpha - sqrt(1 + 8 alpha^2 - 4 alpha)) / 6 for 0 <= alpha < 2.
    Exact inputs give exact output when the radical denests (alpha = sqrt3 - 1
    gives exactly 0 since 37 - 20 sqrt3 = (5 - 2 sqrt3)^2).
    """
    return floor_value("kdiff", alpha)


def a2a1_gap(delta):
    """Upper bound on x = a2 - a1 when a1 = delta and 4 a2 <= 1 + a1.

    x <= (2 - 6 delta - sqrt(3 + 18 delta^2 - 15 delta))/2 on 0 <= delta <= 1/3.
    The radicand is (1 - 2 delta)(1 - 3 delta) times 3, so it vanishes
    exactly at delta = 1/3 (and is clamped at 0 just beyond).
    """
    return floor_value("a2a1", delta)


def pointwise_bound_oracle(lemma: str, param: float, resolution: int = 120) -> GridReport:
    """Brute-force extremum of FLOORS[lemma] over the normal-form polytope plus hypothesis.

    The polytope (sorted a summing to 1, b summing to 0 and dominated by the
    a-gaps, the pointwise quadratic inequality) is swept on a (free a, b1, b2)
    grid: the record's a-rows, each with the b-box of its sectional triple.
    a-rows that are unsorted, or whose b-parallelogram fails the inequality by
    more than 1e-9 (hamilton_row_bound), are skipped unscanned.  The objective
    is constant and exact along an a-row, so the a-rows are visited best
    objective first (a stable sort) and the first one holding a feasible point
    is returned: no later a-row can beat or tie it.  One grid_extremum call
    over its lines of fixed b1, under the objective as the bound, finds its
    first feasible (b1, b2), so memory stays flat whatever the resolution.
    The bound is floor_value at param, which checks param's domain.
    """
    bound = float(floor_value(lemma, param))
    floor, p, r = FLOORS[lemma], float(param), resolution
    sense = floor.sense
    lo, hi = floor.span(p)
    if lo > hi + 1e-15:
        return _infeasible(r, bound, sense)
    a1, a2, a3 = floor.a_row(p, np.linspace(lo, hi, r + 1))
    objective = a1 if sense == "min" else a2 - a1

    s1, s2, s3 = a2 - a1, a3 - a1, a3 - a2
    # the (b1, b2) box covering the mixed-part polytope of each sectional triple
    bb1, bb2 = (s1 + s2) / 3.0, (s1 + s3) / 3.0
    # scan only the ordered rows whose dominance region can pass the quadratic
    # inequality; 1e-9 dwarfs the float error and 1e-12 slack of the grid's tests
    # on this O(1) data, so no skipped row holds a point that passes them
    order = (a1 <= a2 + 1e-12) & (a2 <= a3 + 1e-12)
    rows = np.flatnonzero(order & (hamilton_row_bound(a1, a2, a3) >= -1e-9))
    t = np.linspace(-1.0, 1.0, r + 1)
    key = -objective if sense == "max" else objective
    for i in rows[np.argsort(key[rows], kind="stable")].tolist():  # best objective first
        a = (a1[i], a2[i], a3[i])

        def lines(j):
            # kernel row j is the line b1 = bb1 t[j] of a-row i
            b1, b2 = bb1[i] * t[j, None], bb2[i] * t
            b = (b1, b2, -b1 - b2)
            d12, d13, d23 = dominance(a, b, 1e-12)
            gap = hamilton_gap(a, b)
            return objective[i], d12 & d13 & d23 & (gap >= -HAMILTON_PREDICATE_TOL)

        # a constant bound ends the scan at the first slab holding a feasible point
        found = grid_extremum(lines, r + 1, r + 1, sense, np.full(r + 1, objective[i]))
        if found is not None:
            value, (j, k) = found
            b1, b2 = float(bb1[i] * t[j]), float(bb2[i] * t[k])
            arg = (tuple(map(float, a)), (b1, b2, -b1 - b2))
            return GridReport(value, arg, r, bound, sense)
    return _infeasible(r, bound, sense)


# -- the sharp constants ----------------------------------------------------------


@dataclass(frozen=True)
class SharpConstant:
    """One exact threshold with a 15-digit decimal enclosure."""

    name: str
    value: QuadraticSurd
    role: str

    @property
    def decimal(self) -> str:
        return self.value.decimal(15)

    @property
    def enclosure(self) -> tuple[str, str]:
        return self.value.enclosure(15)


def sharp_constants() -> dict:
    """The sharp thresholds of the classification, exactly, plus identity checks.

    The identities recompute the endpoint algebra of the main theorems in
    surd arithmetic on the constants returned: with B = (14 - sqrt19)/12
    the chained sectional-upper pipeline tops out at
    4(B - kupper_lower(B))/sqrt6, and with D = (7 - sqrt19)/4 the spread
    pipeline tops out at (2 + 2D - 6 kdiff_lower(D))/sqrt6; both must equal
    sqrt(3/2) = sqrt6/2 exactly.
    """
    s19, s3, s6, s105 = (QuadraticSurd(0, 1, r, 1) for r in (19, 3, 6, 105))
    constants = [
        SharpConstant(
            "sec_upper_threshold",
            (14 - s19) / 12,
            "largest admissible maximum sectional curvature (condition a)",
        ),
        SharpConstant(
            "weighted_sum_lower",
            (s19 - 3) / 4,
            "smallest admissible 2 K(e1,e2) + K(e1,e3) over adapted frames (condition b)",
        ),
        SharpConstant(
            "sec_diff_upper",
            (7 - s19) / 4,
            "largest admissible sectional spread a3 - a2 (condition b)",
        ),
        SharpConstant(
            "apriori_min_lower",
            (7 - s105) / 28,
            "unconditional lower bound on the minimum sectional curvature at a3 = 1",
        ),
        SharpConstant(
            "nonneg_sec_threshold",
            s3 / 2,
            "sectional upper bound forcing nonnegative sectional curvature",
        ),
        SharpConstant(
            "nonneg_diff_threshold",
            s3 - 1,
            "sectional spread forcing nonnegative sectional curvature",
        ),
        SharpConstant(
            "euler_pinch_alpha",
            (2 - s3) / 6,
            "pinching level at which the Euler-characteristic cap reaches 8",
        ),
        SharpConstant(
            "cp2_sec_upper",
            QuadraticSurd.from_rational(Fraction(2, 3)),
            "maximum sectional curvature of the projective-plane model",
        ),
        SharpConstant(
            "weyl_sum_threshold",
            s6 / 2,
            "borderline |W+| + |W-| for the elliptic rigidity argument",
        ),
    ]

    book = {c.name: c for c in constants}
    beta = book["sec_upper_threshold"].value
    beta1 = kupper_lower(beta)
    upper_chain = 4 * (beta - beta1) / s6
    beta_d = book["sec_diff_upper"].value
    beta1_d = kdiff_lower(beta_d)
    diff_chain = (2 + 2 * beta_d - 6 * beta1_d) / s6
    target = book["weyl_sum_threshold"].value
    identities = {
        "upper_pipeline_endpoint": upper_chain == target,
        "diff_pipeline_endpoint": diff_chain == target,
        "upper_gap_rational": (beta - beta1) == Fraction(3, 4),
        "diff_combination_rational": (2 + 2 * beta_d - 6 * beta1_d) == 3,
    }
    return {"constants": book, "identities": identities}
