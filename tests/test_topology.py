"""Gauss-Bonnet densities, obstruction checks, admissible type enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest

from curv4 import (
    CHI_HARD_CAP,
    QuadraticSurd,
    admissible_types,
    conjugate_operator,
    euler_upper_per_vol,
    gbc_integrands,
    hitchin_thorpe,
    model_space,
)
from curv4.errors import DomainError

EULER_PINCH_ALPHA = (2 - QuadraticSurd(0, 1, 3, 1)) / 6


def test_model_densities_exact():
    g = gbc_integrands(model_space("sphere"))
    assert g.chi_coeff == Fraction(1, 12) and g.tau_coeff == 0
    assert 24.0 * math.pi**2 * g.chi_density == pytest.approx(2.0, abs=1e-12)

    g = gbc_integrands(model_space("cp2"))
    assert g.chi_coeff == Fraction(1, 6) and g.tau_coeff == Fraction(1, 18)
    assert g.chi_coeff / g.tau_coeff == 3  # chi/tau ratio of the model

    g = gbc_integrands(model_space("s2xs2"))
    assert g.chi_coeff == Fraction(1, 4) and g.tau_coeff == 0
    assert 16.0 * math.pi**2 * g.chi_density == pytest.approx(4.0, abs=1e-12)


def test_densities_frame_invariant_float_path():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rotated = conjugate_operator(model_space("cp2"), q)
    g = gbc_integrands(rotated)
    ref = gbc_integrands(model_space("cp2"))
    assert g.chi_coeff is None  # float operator: no exact mirror
    assert g.chi_density == pytest.approx(ref.chi_density, abs=1e-12)
    assert g.tau_density == pytest.approx(ref.tau_density, abs=1e-12)


def test_hitchin_thorpe_table():
    # the slack 2 chi - 3 |tau| is 4, 3, 8 and 0 at these points: each holds, and so
    # does |tau| raised to the largest value the slack allows, with either sign,
    # but not one more; at the boundary (3, -2) that largest value is |tau| itself
    for chi, tau, top in [(2, 0, 1), (3, 1, 2), (4, 0, 2), (3, -2, 2)]:
        assert hitchin_thorpe(chi, tau)
        assert hitchin_thorpe(chi, top) and hitchin_thorpe(chi, -top)
        assert not hitchin_thorpe(chi, top + 1) and not hitchin_thorpe(chi, -top - 1)
    assert not hitchin_thorpe(1, 1)
    assert not hitchin_thorpe(0, 1)


def test_euler_cap_values_and_domain():
    assert euler_upper_per_vol(Fraction(0), Fraction(1)) == Fraction(10, 3)
    assert euler_upper_per_vol(Fraction(1, 3), Fraction(1, 3)) == Fraction(2, 3)
    exact = euler_upper_per_vol(EULER_PINCH_ALPHA, 1 - 2 * EULER_PINCH_ALPHA)
    assert isinstance(exact, QuadraticSurd)
    assert 3 * exact == 8  # the sharp pinch puts the volume cap exactly at 8
    approx = euler_upper_per_vol(float(EULER_PINCH_ALPHA), float(1 - 2 * EULER_PINCH_ALPHA))
    assert approx == pytest.approx(float(exact), abs=1e-12)
    with pytest.raises(DomainError):
        euler_upper_per_vol(0.5, 0.4)
    with pytest.raises(DomainError):
        euler_upper_per_vol(0.4, 0.5)  # both above 1/3
    with pytest.raises(DomainError):
        euler_upper_per_vol(0.1, 0.2)  # both below 1/3


def test_admissible_types_sharp_alpha():
    report = admissible_types(EULER_PINCH_ALPHA)
    assert report.pairs == ((0, 2), (0, 4), (1, 5), (0, 6), (1, 7))
    assert report.cap == 8 and not isinstance(report.cap, float)
    assert not report.degenerate
    assert len(report.trail) >= 5


def test_admissible_types_float_near_sharp():
    # a float within 2.5e-3 of the sharp level lets chi = 8 sneak under the
    # strict cap; the exact computation above is the one that excludes it
    report = admissible_types(0.0446)
    assert set(report.pairs) >= {(0, 2), (0, 4), (1, 5), (0, 6), (1, 7)}
    assert (0, 8) in report.pairs and (2, 8) in report.pairs
    assert report.cap == pytest.approx(8.0024, abs=1e-3)


def test_admissible_types_endpoints():
    full = admissible_types(0)
    assert (1, 9) in full.pairs
    assert max(chi for _, chi in full.pairs) <= CHI_HARD_CAP
    top = admissible_types(Fraction(1, 3))
    assert top.degenerate and top.pairs == ((0, 2),)
    with pytest.raises(DomainError):
        admissible_types(0.4)
    with pytest.raises(DomainError):
        admissible_types(-0.1)


def test_admissible_types_states_its_edge_once():
    # every alpha the domain check accepts gets a report, and every alpha it
    # refuses gets the pinching-level message, none from euler_upper_per_vol
    for alpha in (Fraction(1, 3), 1.0 / 3.0, 0.0, -1e-12, EULER_PINCH_ALPHA):
        assert admissible_types(alpha).pairs
    for alpha in (1 / 3 + 4e-13, 1 / 3 + 7e-13, 1 / 3 + 1e-12, -1e-11, math.nan, math.inf):
        with pytest.raises(DomainError, match="pinching level"):
            admissible_types(alpha)


def test_admissible_types_antitone_and_obstruction_free():
    prev = None
    for i in range(13):
        alpha = Fraction(i, 36)  # 0 .. 1/3
        got = set(admissible_types(alpha).pairs)
        for tau, chi in got:
            assert hitchin_thorpe(chi, tau)
            assert (chi - tau) % 2 == 0
        if prev is not None and not admissible_types(alpha).degenerate:
            assert got <= prev
        prev = got
