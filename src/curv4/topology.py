"""Topological consequences of pointwise curvature data.

The Gauss-Bonnet and signature integrands of an Einstein four-manifold are
algebraic in the curvature operator, so pointwise pinching turns into volume
bounds on the Euler characteristic and into short lists of admissible
(signature, Euler characteristic) pairs.  Everything is normalized to Rc = g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bivector import CurvatureOperator, duality_decompose
from .errors import DomainError
from .surd import coerce, is_finite


@dataclass(frozen=True)
class GaussBonnetDensities:
    """Euler and signature integrands of one curvature operator.

    chi_density -- (|W+|^2 + |W-|^2 - |E|^2/2 + S^2/24) / (8 pi^2)
    tau_density -- (|W+|^2 - |W-|^2) / (12 pi^2)
    chi_coeff, tau_coeff -- the same values times pi^2 as exact rationals,
    present when the operator decomposes exactly (density = coeff / pi^2).
    """

    chi_density: float
    tau_density: float
    chi_coeff: Fraction | None = None
    tau_coeff: Fraction | None = None


def gbc_integrands(op: CurvatureOperator) -> GaussBonnetDensities:
    """Pointwise Gauss-Bonnet and signature densities of an operator."""
    d = duality_decompose(op)
    wp2, wm2, e2, s = coerce(
        d.w_plus.norm_sq(), d.w_minus.norm_sq(), d.traceless_ricci_norm_sq, d.s
    )
    chi_num = wp2 + wm2 - e2 / 2 + s**2 / 24
    tau_num = wp2 - wm2
    pi2 = math.pi**2
    densities = (float(chi_num) / (8.0 * pi2), float(tau_num) / (12.0 * pi2))
    if isinstance(chi_num, float):
        return GaussBonnetDensities(*densities)
    return GaussBonnetDensities(*densities, chi_num / 8, tau_num / 12)


def hitchin_thorpe(chi: int, tau: int) -> bool:
    """Oriented Einstein obstruction |tau| <= 2 chi / 3, checked exactly as 2 chi - 3 |tau| >= 0."""
    return 2 * chi - 3 * abs(tau) >= 0


def euler_upper_per_vol(alpha, beta):
    """Upper bound on 8 pi^2 * (Euler density) given alpha <= K <= beta, Rc = g.

    The bound is 8 (beta^2 - (1 - alpha)(alpha + beta)) + 10/3 and requires
    alpha <= 1/3 <= beta (the extremal sectional curvatures always straddle
    1/3).  Exact inputs give exact output.
    """
    finite = is_finite(alpha) and is_finite(beta)
    if not (finite and alpha <= 1.0 / 3.0 + 1e-12 and beta >= 1.0 / 3.0 - 1e-12):
        raise DomainError("sectional extrema must be finite and straddle 1/3")
    three, a, b = coerce(3, alpha, beta)
    if not a - b <= 1e-12:
        raise DomainError("need alpha <= beta")
    return 8 * (b * b - (1 - a) * (a + b)) + 10 / three


# the volume cap 3 * euler_upper_per_vol never exceeds 10 on the pinched
# range, so no admissible Euler characteristic is ever above 9
CHI_HARD_CAP = 9


@dataclass(frozen=True)
class TopologyReport:
    """Admissible (signature, Euler characteristic) pairs at pinching level alpha.

    pairs are (tau, chi) with tau >= 0 (orientation fixed to make it so),
    sorted by chi then tau.  `cap` is the strict upper bound 3 * C(alpha) on
    chi, exact when alpha was exact.  When the filters exclude everything the
    constant-curvature fallback (0, 2) is reported with degenerate = True.
    """

    alpha: object
    cap: object
    pairs: tuple
    degenerate: bool
    trail: tuple


def admissible_types(alpha) -> TopologyReport:
    """Enumerate (tau, chi) pairs compatible with the pinch alpha <= K, Rc = g.

    Filters, in order: chi >= 2 (positive Ricci kills b1), chi = tau mod 2,
    chi > 15 |tau| / 4 (signature bound, strict), chi <= 9, and the strict
    volume cap chi < 3 * C(alpha) with beta = 1 - 2 alpha.  Exact alpha makes
    the cap comparison exact, which matters on the boundary where the cap is
    an integer.
    """
    if not (-1e-12 <= alpha <= 1.0 / 3.0 + 1e-12):  # NaN fails, and so does an infinity
        raise DomainError("pinching level alpha must lie in [0, 1/3]")
    (alpha,) = coerce(alpha)
    cap = 3 * euler_upper_per_vol(alpha, 1 - 2 * alpha)
    trail = [
        "chi >= 2: positive Einstein constant forces first Betti number 0",
        "chi = tau (mod 2): intersection-form parity",
        "4 chi > 15 |tau|: strict signature bound",
        f"chi <= {CHI_HARD_CAP}: hard cap (the volume cap never reaches 10)",
        f"chi < {cap!s}: strict volume cap 3 C(alpha) at alpha = {float(alpha):.6g}",
    ]
    # the filters of the trail, sorted by chi then tau
    pairs = [
        (tau, chi)
        for chi in range(2, CHI_HARD_CAP + 1)
        if chi < cap
        for tau in range(3)
        if (chi - tau) % 2 == 0 and 4 * chi > 15 * tau
    ]
    degenerate = not pairs
    if degenerate:
        pairs = [(0, 2)]
        trail.append(
            "no pair survived the volume cap: boundary pinching, "
            "falling back to the constant-curvature type (0, 2)"
        )
    return TopologyReport(alpha, cap, tuple(pairs), degenerate, tuple(trail))
