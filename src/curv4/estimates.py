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

import numpy as np

from .errors import DomainError, ExactnessError
from .surd import QuadraticSurd, coerce, sqrt


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


def grid_extremum(evaluate, rows: int, row_points: int, sense: str = "max", bound=None):
    """Best feasible point of a grid scanned in slabs of whole rows.

    evaluate(idx) returns (values, feasible) on the grid rows of the ascending
    int array idx: arrays that broadcast to one shape whose first axis runs
    over idx.  Each row holds `row_points` points, and a slab takes as many
    rows as fit in SLAB_POINTS.  Returns (value, index) of the largest (sense
    "max") or smallest ("min") feasible value, ties going to the first point
    in row-major order whatever order the slabs were visited in, or None when
    no point is feasible.

    bound[i], when given, is an optimistic bound on every value of row i (at
    least each value for "max", at most each for "min").  Rows are then
    visited best bound first (a stable sort), and a row is dropped unevaluated
    when its bound is worse than the incumbent, or equal to it with the row
    after the incumbent's.  Without a bound rows are scanned in order.
    """
    better = np.greater if sense == "max" else np.less
    pick, worst = (np.argmax, -np.inf) if sense == "max" else (np.argmin, np.inf)
    step = max(1, SLAB_POINTS // row_points)
    if bound is None:
        order = np.arange(rows)
    else:
        order = np.argsort(-bound if sense == "max" else bound, kind="stable")
    best = None
    for lo in range(0, rows, step):
        idx = np.sort(order[lo : lo + step])
        if bound is not None and best is not None:
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


# -- the pointwise quadratic inequality ----------------------------------------


def hamilton_gap(d):
    """Slack a1 - (a1^2 + b1^2 + 2 a2 a3 + 2 b2 b3) of the normal-form inequality.

    Nonnegative on curvature data of smooth Einstein four-manifolds; vanishes
    identically on the three symmetric model geometries.  Exact inputs give
    exact output.
    """
    a1, a2, a3 = d.a
    b1, b2, b3 = d.b
    return a1 - (a1 * a1 + b1 * b1 + 2 * (a2 * a3 + b2 * b3))


# boundary slack of the inequality on float data
HAMILTON_PREDICATE_TOL = 1e-12


def hamilton_box_bound(a1, a2, a3, bb1, bb2):
    """Least upper bound of hamilton_gap over the box |b1| <= bb1, |b2| <= bb2.

    With b3 = -b1 - b2 the gap is a1 - a1^2 - 2 a2 a3 - b1^2 + 2 b1 b2 + 2 b2^2;
    b1 = b2 (clipped to the box) maximizes it in b1, and the result grows with
    |b2|, so with m = min(bb1, bb2) the bound is

        a1 - a1^2 - 2 a2 a3 + 2 bb2^2 + 2 m bb2 - m^2.

    Broadcasts over arrays.
    """
    m = np.minimum(bb1, bb2)
    return a1 - a1 * a1 - 2 * a2 * a3 + 2 * bb2 * bb2 + 2 * m * bb2 - m * m


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
    if not float(alpha) > 0:
        raise DomainError("alpha = a2 + a3 must be positive")
    if float(delta) < 0:
        raise DomainError("delta = 2(a3 - a2) must be nonnegative")
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

    # q is affine in t along a row, so the sum of norms is convex there and
    # peaks at an end column; the margin covers the rounding of the scan
    ends = weyl_sum(np.arange(len(p)), t[[0, -1]]).max(axis=1)
    row_bound = ends + 1e-12 * max(1.0, alpha1, delta)
    value, (i, j) = grid_extremum(
        lambda idx: (weyl_sum(idx, t), True), len(p), resolution + 1, "max", row_bound
    )
    arg = (float(p[i]), float(qlo[i] + t[j] * (qhi[i] - qlo[i])))
    return GridReport(value, arg, resolution, bound)


# -- the two-variable quadratic minimum -----------------------------------------


def lemma_algebraic2_min(a, b):
    """Minimum of 4xy + x^2 + y^2 over {xy <= 0, |2x+y| <= a, |x-y| <= b}.

    Two branches: (2a^2 - 2ab - b^2)/3 when 2a < b, else -b^2/2.  Requires
    a, b >= 0.  Exact inputs give exact output.
    """
    if float(a) < 0 or float(b) < 0:
        raise DomainError("bounds a, b must be nonnegative")
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
    a, b = float(a), float(b)
    bound = float(lemma_algebraic2_min(a, b))
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


# -- lower bounds on the minimal sectional curvature ----------------------------


def kupper_lower(alpha):
    """Lower bound on a1 when the largest sectional curvature equals alpha <= 1.

    a1 >= (15 - 8 alpha - sqrt3 * sqrt(96 alpha^2 - 80 alpha + 19)) / 28,
    valid for 1/3 <= alpha <= 1.  Exact at rational alpha and at the square-root
    thresholds where the radical denests (e.g. alpha = sqrt3/2 gives exactly 0).
    """
    if not (1.0 / 3.0 - 1e-12 <= float(alpha) <= 1.0 + 1e-12):
        raise DomainError("alpha must lie in [1/3, 1]")
    (a,) = coerce(alpha)
    t = 96 * a * a - 80 * a + 19
    # floats keep the two-root product; sqrt(3t) differs in the last bit
    root = math.sqrt(3.0) * math.sqrt(t) if isinstance(t, float) else sqrt(3 * t)
    return (15 - 8 * a - root) / 28


def kdiff_lower(alpha):
    """Lower bound on a1 when the sectional spread a3 - a2 equals alpha.

    a1 >= (3 - 2 alpha - sqrt(1 + 8 alpha^2 - 4 alpha)) / 6 for 0 <= alpha < 2.
    Exact inputs give exact output when the radical denests (alpha = sqrt3 - 1
    gives exactly 0 since 37 - 20 sqrt3 = (5 - 2 sqrt3)^2).
    """
    if not (0.0 <= float(alpha) < 2.0):
        raise DomainError("alpha must lie in [0, 2)")
    (a,) = coerce(alpha)
    return (3 - 2 * a - sqrt(1 + 8 * a * a - 4 * a)) / 6


def a2a1_gap(delta):
    """Upper bound on x = a2 - a1 when a1 = delta and 4 a2 <= 1 + a1.

    x <= 1 - 3 delta - sqrt(3 + 18 delta^2 - 15 delta)/2 on 0 <= delta <= 1/3.
    The radicand is 3(1 - 2 delta)(1 - 3 delta) scaled: its discriminant
    identity 16 * radicand = 48 (1 - 2 delta)(1 - 3 delta) is checked on every
    call and degenerates exactly at delta = 1/3.
    """
    if not (0.0 <= float(delta) <= 1.0 / 3.0 + 1e-12):
        raise DomainError("delta must lie in [0, 1/3]")
    (d,) = coerce(delta)
    radicand = 3 + 18 * d * d - 15 * d
    if abs(16 * radicand - 48 * (1 - 2 * d) * (1 - 3 * d)) > 1e-9:
        raise ExactnessError("discriminant identity failed")  # pragma: no cover
    return 1 - 3 * d - sqrt(max(0 * radicand, radicand)) / 2


# -- polytope oracles ------------------------------------------------------------

POINTWISE_LEMMAS = ("kupper", "kdiff", "a2a1")


def pointwise_bound_oracle(lemma: str, param: float, resolution: int = 120) -> GridReport:
    """Brute-force extremum over the full normal-form polytope plus hypothesis.

    The polytope (sorted a summing to 1, b summing to 0 and dominated by the
    a-gaps, the pointwise quadratic inequality) is swept on a regular grid.
    The lemma hypothesis eliminates one a-coordinate, so the grid is
    (free a, b1, b2) with the b-box adapted to each sectional triple; a-rows
    that are unsorted, or whose whole b-box fails the inequality by more than
    1e-9 (hamilton_box_bound), are skipped without being scanned.  The
    objective is constant along an a-row, so it is the a-row's exact bound
    in grid_extremum: a-rows are visited best first and the scan ends at the
    first one holding a feasible point, since no later a-row can beat or tie
    it.  Visiting an a-row finds its first feasible (b1, b2) through the same
    kernel, in slabs of b1 lines, so no slab holds a whole (r + 1)^2 a-row and
    memory stays flat whatever the resolution:

      kupper: fix a3 = param, minimize a1   (bound: kupper_lower)
      kdiff:  fix a3 - a2 = param, minimize a1   (bound: kdiff_lower)
      a2a1:   fix a1 = param, maximize a2 - a1 under 4 a2 <= 1 + a1
              (bound: a2a1_gap)
    """
    p = float(param)
    r = resolution
    if lemma == "kupper":
        bound = float(kupper_lower(p))
        lo, hi = 1.0 - 2.0 * p, (1.0 - p) / 2.0
        if lo > hi + 1e-15:
            return _infeasible(r, bound, "min")
        a1 = np.linspace(lo, hi, r + 1)
        a2 = 1.0 - p - a1
        a3 = np.full_like(a1, p)
        objective, sense = a1, "min"
    elif lemma == "kdiff":
        bound = float(kdiff_lower(p))
        lo, hi = -1.0, (1.0 - p) / 3.0
        a1 = np.linspace(lo, hi, r + 1)
        a2 = (1.0 - a1 - p) / 2.0
        a3 = a2 + p
        objective, sense = a1, "min"
    elif lemma == "a2a1":
        bound = float(a2a1_gap(p))
        lo, hi = p, min((1.0 + p) / 4.0, (1.0 - p) / 2.0)
        if lo > hi + 1e-15:
            return _infeasible(r, bound, "max")
        a2 = np.linspace(lo, hi, r + 1)
        a1 = np.full_like(a2, p)
        a3 = 1.0 - p - a2
        objective, sense = a2 - a1, "max"
    else:
        raise DomainError(f"unknown lemma {lemma!r}; choose from {POINTWISE_LEMMAS}")

    s1, s2, s3 = a2 - a1, a3 - a1, a3 - a2
    # the (b1, b2) box covering the mixed-part polytope of each sectional triple
    bb1, bb2 = (s1 + s2) / 3.0, (s1 + s3) / 3.0
    # scan only the ordered rows whose whole b-box can pass the quadratic
    # inequality; 1e-9 dwarfs the float error of the grid's gap on this O(1)
    # data, so no skipped row holds a point that passes the float test
    order = (a1 <= a2 + 1e-12) & (a2 <= a3 + 1e-12)
    rows = np.flatnonzero(order & (hamilton_box_bound(a1, a2, a3, bb1, bb2) >= -1e-9))
    t = np.linspace(-1.0, 1.0, r + 1)
    tol = 1e-12
    firsts = {}

    def first_feasible(i):
        def lines(j):
            # kernel row j is the line b1 = bb1 t[j] of the a-row
            b1 = bb1[i] * t[j, None]
            b2 = bb2[i] * t
            b3 = -b1 - b2
            feas = (
                (np.abs(b2 - b1) <= s1[i] + tol)
                & (np.abs(b3 - b1) <= s2[i] + tol)
                & (np.abs(b3 - b2) <= s3[i] + tol)
            )
            gap = a1[i] - (a1[i] ** 2 + b1 * b1 + 2.0 * (a2[i] * a3[i]) + 2.0 * b2 * b3)
            return objective[i], feas & (gap >= -HAMILTON_PREDICATE_TOL)

        # a constant bound ends the scan at the first slab holding a feasible point
        found = grid_extremum(lines, r + 1, r + 1, sense, np.full(r + 1, objective[i]))
        return None if found is None else found[1]

    def evaluate(idx):
        # kernel row k is a-row rows[k], feasible when its (b1, b2) grid is;
        # firsts keeps the first feasible (b1, b2) index pair of each, or None
        firsts.update((k, first_feasible(rows[k])) for k in idx.tolist())
        return objective[rows[idx], None], np.array([[firsts[k] is not None] for k in idx.tolist()])

    found = grid_extremum(evaluate, len(rows), (r + 1) ** 2, sense, objective[rows])
    if found is None:
        return _infeasible(r, bound, sense)
    value, (row, _) = found
    i, (j, k) = int(rows[row]), firsts[row]
    b1, b2 = float(bb1[i] * t[j]), float(bb2[i] * t[k])
    arg = ((float(a1[i]), float(a2[i]), float(a3[i])), (b1, b2, -b1 - b2))
    return GridReport(value, arg, r, bound, sense)


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

    The two symbolic checks recompute the endpoint algebra of the main
    theorems in surd arithmetic: with B = (14 - sqrt19)/12 the chained
    sectional-upper pipeline tops out at 4(B - kupper_lower(B))/sqrt6, and
    with D = (7 - sqrt19)/4 the spread pipeline tops out at
    (2 + 2D - 6 kdiff_lower(D))/sqrt6; both must equal sqrt(3/2) = sqrt6/2
    exactly.
    """
    s19 = QuadraticSurd(0, 1, 19, 1)
    s3 = QuadraticSurd(0, 1, 3, 1)
    s6 = QuadraticSurd(0, 1, 6, 1)
    s105 = QuadraticSurd(0, 1, 105, 1)
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

    beta = (14 - s19) / 12
    beta1 = kupper_lower(beta)
    upper_chain = 4 * (beta - beta1) / s6
    beta_d = (7 - s19) / 4
    beta1_d = kdiff_lower(beta_d)
    diff_chain = (2 + 2 * beta_d - 6 * beta1_d) / s6
    target = s6 / 2
    identities = {
        "upper_pipeline_endpoint": upper_chain == target,
        "diff_pipeline_endpoint": diff_chain == target,
        "upper_gap_rational": (beta - beta1) == Fraction(3, 4),
        "diff_combination_rational": (2 + 2 * beta_d - 6 * beta1_d) == 3,
    }
    return {"constants": {c.name: c for c in constants}, "identities": identities}
