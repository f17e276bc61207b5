"""Normal-form extraction, reconstruction, adapted frames, polytope sampling."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import (
    BergerData,
    CurvatureOperator,
    berger_data,
    berger_to_operator,
    conjugate_operator,
    extremize_sectional,
    frame_functional_min,
    hamilton_gap,
    model_space,
    reconstruct_frame,
    sample_berger_data,
)
from curv4.bivector import (
    haar_gaussian_blocks,
    haar_rotations,
    rotations_from_gaussians,
    wedge_coordinates,
)
from curv4.errors import DomainError, InvalidBergerError, NotEinsteinError

THIRD = Fraction(1, 3)


def haar_rotation(rng):
    g = rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_model_data_exact():
    d = berger_data(model_space("sphere"))
    assert d.a == (THIRD, THIRD, THIRD) and d.b == (0, 0, 0)
    assert d.lambda_einstein == 1 and d.is_exact
    d = berger_data(model_space("cp2"))
    assert d.a == (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3))
    assert d.b == (Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 3))
    d = berger_data(model_space("s2xs2"))
    assert d.a == (0, 0, 1) and d.b == (0, 0, 0)
    d = berger_data(model_space("rp4"))
    assert d.a == (THIRD, THIRD, THIRD)


def test_validation_rejects_bad_data():
    with pytest.raises(InvalidBergerError):
        BergerData(a=(1.0, 0.5, 0.2), b=(0.0, 0.0, 0.0))  # not ascending
    with pytest.raises(InvalidBergerError):
        BergerData(a=(0.2, 0.3, 0.5), b=(0.1, 0.1, 0.1))  # sum(b) != 0
    with pytest.raises(InvalidBergerError):
        BergerData(a=(0.2, 0.3, 0.5), b=(-0.5, 0.0, 0.5))  # |b3-b1| > a3-a1
    with pytest.raises(InvalidBergerError):
        BergerData(a=(0.2, 0.3, 0.5), b=(0.0, 0.0, 0.0), lambda_einstein=2.0)
    with pytest.raises(InvalidBergerError):
        BergerData(a=(0.2, 0.3), b=(0.0, 0.0, 0.0))
    # every violation is reported, not just the first
    try:
        BergerData(a=(1.0, 0.5, 0.2), b=(0.3, 0.3, 0.3))
    except InvalidBergerError as e:
        assert "ascending" in str(e) and "Bianchi" in str(e)


def test_lambda_inferred_and_normalized():
    d = BergerData(a=(Fraction(1, 2), Fraction(1, 2), Fraction(1)), b=(0, 0, 0))
    assert d.lambda_einstein == 2
    n = d.normalized()
    assert n.a == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert n.lambda_einstein == 1 and n.is_exact
    with pytest.raises(DomainError):
        BergerData(a=(-1.0, 0.2, 0.3), b=(0.0, 0.0, 0.0)).normalized()


def test_round_trip_exact():
    d = berger_data(model_space("cp2"))
    op = berger_to_operator(d)
    assert op.exact is not None
    assert berger_data(op) == d or berger_data(op).a == d.a  # dataclass eq is off
    d2 = berger_data(op)
    assert d2.a == d.a and d2.b == d.b and d2.lambda_einstein == d.lambda_einstein


def test_berger_data_requires_einstein():
    m = np.diag([0.5, 1 / 3, 1 / 3, 0.2, 1 / 3, 1 / 3])
    with pytest.raises(NotEinsteinError):
        berger_data(CurvatureOperator(m))


def test_sample_polytope_validity():
    samples = sample_berger_data(400, seed=1)
    assert len(samples) == 400
    for d in samples:
        fa = [float(x) for x in d.a]
        fb = [float(x) for x in d.b]
        assert fa[0] <= fa[1] <= fa[2]
        assert abs(sum(fa) - 1.0) <= 1e-9
        assert abs(sum(fb)) <= 1e-9
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(fb[j] - fb[i]) <= fa[j] - fa[i] + 1e-9
    # deterministic given the seed
    again = sample_berger_data(400, seed=1)
    assert all(s.a == t.a and s.b == t.b for s, t in zip(samples, again))
    assert sample_berger_data(5, seed=2)[0].a != samples[0].a


def test_sample_rescaling():
    for d in sample_berger_data(10, seed=4, lambda_einstein=3.0):
        assert abs(sum(float(x) for x in d.a) - 3.0) <= 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_round_trip_float_property(seed):
    d = sample_berger_data(1, seed=seed)[0]
    d2 = berger_data(berger_to_operator(d))
    for x, y in zip(d.a + d.b, d2.a + d2.b):
        assert abs(float(x) - float(y)) <= 1e-10


def test_reconstruct_frame_identity_and_rotated():
    d = berger_data(model_space("cp2"))
    op = berger_to_operator(d)
    rec = reconstruct_frame(op)
    assert rec.residual <= 1e-10
    assert rec.data.a == d.a

    rng = np.random.default_rng(31)
    for sample in sample_berger_data(10, seed=31):
        base = berger_to_operator(sample)
        q = haar_rotation(rng)
        rotated = conjugate_operator(base, q)
        rec = reconstruct_frame(rotated)
        assert rec.residual <= 1e-8
        # the recovered frame actually block-diagonalizes: conjugating back
        # by it must reproduce the sampled normal form
        back = conjugate_operator(rotated, rec.frame.matrix)
        target = berger_to_operator(rec.data)
        assert float(np.abs(back.matrix - target.matrix).max()) <= 1e-8


def test_reconstruct_frame_orthonormal_output():
    rng = np.random.default_rng(41)
    sample = sample_berger_data(1, seed=99)[0]
    rotated = conjugate_operator(berger_to_operator(sample), haar_rotation(rng))
    rec = reconstruct_frame(rotated)
    f = rec.frame.matrix
    np.testing.assert_allclose(f.T @ f, np.eye(4), atol=1e-9)
    assert np.linalg.det(f) == pytest.approx(1.0, abs=1e-9)
    assert rec.frame.vector(1) is not None


def test_reconstruct_degenerate_sphere():
    rec = reconstruct_frame(model_space("sphere"))
    assert rec.frame.degenerate  # fully repeated eigenvalues: frame not unique
    assert rec.residual <= 1e-10
    assert all(float(x) == pytest.approx(1.0 / 3.0) for x in rec.data.a)


def test_frame_functional_bound_and_models():
    # sampled minimum of 2 K(e1,e2) + K(e1,e3) can never undershoot 2 a2 + a1
    sphere = frame_functional_min(model_space("sphere"), samples=2000, seed=5)
    assert sphere.extremum == pytest.approx(1.0, abs=1e-12)  # K constant 1/3
    assert sphere.bound == pytest.approx(1.0)

    cp2 = frame_functional_min(model_space("cp2"), samples=20000, seed=5)
    assert cp2.sense == "min" and cp2.feasible
    assert cp2.bound == pytest.approx(0.5)
    assert cp2.extremum >= cp2.bound - 1e-9
    assert cp2.extremum == pytest.approx(0.5, abs=0.02)

    s2 = frame_functional_min(model_space("s2xs2"), samples=20000, seed=5)
    assert s2.bound == pytest.approx(0.0)
    assert s2.extremum >= -1e-9
    assert s2.extremum <= 0.08  # optimal frames are codimension 4: slow approach


def test_frame_functional_seeded_determinism():
    a = frame_functional_min(model_space("cp2"), samples=3000, seed=8)
    b = frame_functional_min(model_space("cp2"), samples=3000, seed=8)
    c = frame_functional_min(model_space("cp2"), samples=3000, seed=9)
    assert a.extremum == b.extremum
    assert a.extremum != c.extremum


def _frame_min_all_at_once(op, samples, seed):
    # the sampler as it was before it streamed: every rotation drawn at once
    q = haar_rotations(samples, seed)
    w12 = wedge_coordinates(q[:, :, 0], q[:, :, 1])
    w13 = wedge_coordinates(q[:, :, 0], q[:, :, 2])
    k12 = np.einsum("si,ij,sj->s", w12, op.matrix, w12)
    k13 = np.einsum("si,ij,sj->s", w13, op.matrix, w13)
    vals = 2.0 * np.maximum(k12, k13) + np.minimum(k12, k13)
    i = int(np.argmin(vals))
    return float(vals[i]), tuple(map(tuple, q[i].T))


@pytest.mark.parametrize("samples", [100, 513, 100000])
@pytest.mark.parametrize("name", ["cp2", "s2xs2"])
def test_frame_functional_streams_the_same_rotations(name, samples):
    op = model_space(name)
    report = frame_functional_min(op, samples=samples, seed=11)
    assert (report.extremum, report.argument) == _frame_min_all_at_once(op, samples, 11)
    assert report.resolution == samples


def test_frame_functional_memory_is_flat():
    # drawing all 100000 rotations at once peaked at about 52 MB
    op = model_space("cp2")
    tracemalloc.start()
    try:
        report = frame_functional_min(op, samples=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.extremum == pytest.approx(0.5, abs=0.02)
    assert peak <= 8e6


def test_reduced_qr_gives_the_first_three_columns_of_the_full_qr():
    # the sampler orthonormalises only e1, e2, e3 and rebuilds the winner alone
    blocks = list(haar_gaussian_blocks(1100, 5))
    assert [len(g) for g in blocks] == [512, 512, 76]
    for g in blocks:
        assert np.array_equal(np.linalg.qr(g[:, :, :3])[0], np.linalg.qr(g)[0][:, :, :3])
        q = rotations_from_gaussians(g)
        for i in (0, len(g) - 1):
            assert np.array_equal(rotations_from_gaussians(g[i : i + 1])[0], q[i])
    assert np.array_equal(rotations_from_gaussians(np.concatenate(blocks)), haar_rotations(1100, 5))


def test_hamilton_gap_signs():
    assert hamilton_gap(berger_data(model_space("sphere"))) == 0
    # data violating the inequality: a1 small, a2 a3 large products
    bad = BergerData(a=(0.1, 0.4, 0.5), b=(0.0, 0.0, 0.0))
    assert float(hamilton_gap(bad)) < 0.0


def test_extremes_agree_with_extremize():
    d = sample_berger_data(1, seed=77)[0]
    op = berger_to_operator(d)
    ext = extremize_sectional(op)
    tol = 1e-12 * max(1.0, float(np.abs(op.matrix).max()))
    assert ext.kmin == pytest.approx(float(d.a[0]), abs=tol)
    assert ext.kmax == pytest.approx(float(d.a[2]), abs=tol)


def test_surd_data_is_exact_but_operator_path_is_float():
    from curv4 import QuadraticSurd

    s19 = QuadraticSurd(0, 1, 19, 1)
    beta = (14 - s19) / 12
    a1 = (5 - s19) / 12
    d = BergerData(a=(a1, 1 - beta - a1, beta), b=(Fraction(0),) * 3)
    assert d.is_exact
    op = berger_to_operator(d)
    assert op.exact is None  # surd entries do not embed in the rational mirror
    d2 = berger_data(op)
    for x, y in zip(d.a, d2.a):
        assert abs(float(x) - float(y)) <= 1e-12
