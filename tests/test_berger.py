"""Normal-form extraction, reconstruction, adapted frames, polytope sampling."""

import itertools
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
    classify,
    conjugate_operator,
    duality_decompose,
    extremize_sectional,
    frame_functional_min,
    hamilton_gap,
    model_space,
    reconstruct_frame,
    sample_berger_data,
)
from curv4 import berger, bivector
from curv4.berger import BergerStack, berger_data_stack
from curv4.bivector import (
    WeylSpectrum,
    conjugate_matrices,
    haar_rotations,
    quaternion_rotation,
    rho,
    rho_inverse,
    wedge_coordinates,
)
from curv4.errors import (
    Curv4Error,
    DomainError,
    InvalidBergerError,
    InvalidOperatorError,
    NotEinsteinError,
)

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


def test_normalized_keeps_exact_int_data_exact():
    # int / int is a float; an int Einstein constant divides as a Fraction
    d = BergerData((0, 0, 1), (0, 0, 0))
    n = d.normalized()
    assert n.is_exact and n.a == (0, 0, 1) and n.lambda_einstein == 1
    assert classify(d).data.is_exact
    assert BergerData((0, 1, 1), (0, 0, 0)).normalized().a == (0, Fraction(1, 2), Fraction(1, 2))


def test_normalized_returns_data_already_at_einstein_constant_one():
    exact = berger_data(model_space("cp2"))
    floats = sample_berger_data(1, seed=2)[0]
    assert exact.normalized() is exact and floats.normalized() is floats
    # Fraction entries at a float constant 1.0 still become floats
    mixed = BergerData((Fraction(0), Fraction(0), Fraction(1)), (0, 0, 0), 1.0)
    assert mixed.normalized() is not mixed
    assert all(isinstance(x, float) for x in mixed.normalized().a)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_document_path_builds_the_blocks_and_the_decomposition_once(monkeypatch, exact):
    # berger, berger --frame, classify and decompose on one operator:
    # reconstruct_frame compares plain matrices, so it builds no blocks
    cp2 = model_space("cp2")
    sample = berger_to_operator(sample_berger_data(1, seed=3)[0])
    rotated = conjugate_operator(sample, haar_rotations(1, 4)[0])
    built, decomposed, solved = [], [], []
    float_blocks, decompose = bivector._float_blocks, bivector._decompose
    eigvalsh = np.linalg.eigvalsh

    def count_blocks(m):
        built.append(m)
        return float_blocks(m)

    def count_decompose(op):
        decomposed.append(op)
        return decompose(op)

    def count_eigvalsh(x):
        solved.append(x)
        return eigvalsh(x)

    monkeypatch.setattr(bivector, "_float_blocks", count_blocks)
    monkeypatch.setattr(bivector, "_decompose", count_decompose)
    monkeypatch.setattr(np.linalg, "eigvalsh", count_eigvalsh)
    if exact:
        op = CurvatureOperator.from_exact(cp2.exact, cp2.lambda_einstein)
    else:
        op = CurvatureOperator(rotated.matrix, rotated.lambda_einstein)
    berger_data(op)
    reconstruct_frame(op)
    classify(op)
    d = duality_decompose(op)
    assert duality_decompose(op) is d
    assert len(built) == 1 and built[0] is op.matrix
    assert decomposed == [op]
    # exact diagonal blocks need no eigensolver
    want = [] if exact else [d.r_plus_block, d.r_minus_block]
    assert len(solved) == len(want) and all(x is y for x, y in zip(solved, want))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_document_path_tests_is_einstein_once(monkeypatch, exact):
    # one is_einstein verdict per decomposition, read by berger_data,
    # reconstruct_frame and classify, and no other Einstein defect
    cp2 = model_space("cp2")
    sample = berger_to_operator(sample_berger_data(1, seed=3)[0])
    rotated = conjugate_operator(sample, haar_rotations(1, 4)[0])
    if exact:
        op = CurvatureOperator.from_exact(cp2.exact, cp2.lambda_einstein)
    else:
        op = CurvatureOperator(rotated.matrix, rotated.lambda_einstein)
    defects, einstein_defect = [], bivector._einstein_defect

    def count(*args):
        defects.append(args)
        return einstein_defect(*args)

    monkeypatch.setattr(bivector, "_einstein_defect", count)
    berger_data(op)
    reconstruct_frame(op)
    classify(op)
    d = duality_decompose(op)
    assert len(defects) == 1 and defects[0][0] is d.cross_block
    assert d.is_einstein is True and len(defects) == 1


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_document_path_builds_the_normal_form_data_once(monkeypatch, exact):
    # berger_data keeps its result on the decomposition; classify normalises
    # a float constant S/4 once, and exact cp2 is already at constant 1
    cp2 = model_space("cp2")
    sample = berger_to_operator(sample_berger_data(1, seed=3)[0])
    rotated = conjugate_operator(sample, haar_rotations(1, 4)[0]).matrix
    op = CurvatureOperator.from_exact(cp2.exact, 1.0) if exact else CurvatureOperator(rotated, 1.0)
    built = []
    post_init = BergerData.__post_init__

    def count(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BergerData, "__post_init__", count)
    data = berger_data(op)
    reconstruct_frame(op)
    classify(op)
    assert berger_data(op) is data
    assert len(built) == (1 if exact else 2)


def test_berger_data_raises_on_every_call_for_a_non_einstein_operator():
    d = duality_decompose(CurvatureOperator(np.diag([0.5, 1 / 3, 1 / 3, 0.2, 1 / 3, 1 / 3])))
    for _ in range(2):
        with pytest.raises(NotEinsteinError):
            berger_data(d)


def test_decomposition_blocks_are_read_only():
    d = duality_decompose(CurvatureOperator(model_space("cp2").matrix))
    for block in (d.r_plus_block, d.r_minus_block, d.cross_block):
        with pytest.raises(ValueError):
            block[0, 0] = 1.0


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


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_reconstruct_frame_builds_no_operator(monkeypatch, exact):
    sample = berger_to_operator(sample_berger_data(1, seed=3)[0])
    op = model_space("cp2") if exact else conjugate_operator(sample, haar_rotations(1, 4)[0])
    built = []
    post_init = CurvatureOperator.__post_init__

    def count(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CurvatureOperator, "__post_init__", count)
    rec = reconstruct_frame(op)
    assert built == [] and rec.residual <= 1e-10 * duality_decompose(op).scale


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_reconstruct_frame_rejects_a_frame_off_normal_form(monkeypatch, exact):
    # the residual is the one check of the derived matrix: a wrong lift must
    # fail it; (1 + i + j + k)/2 permutes the axes, which moves cp2's blocks
    sample = berger_to_operator(sample_berger_data(1, seed=3)[0])
    op = model_space("cp2") if exact else conjugate_operator(sample, haar_rotations(1, 4)[0])
    monkeypatch.setattr(berger, "rho_inverse", lambda r: np.full(4, 0.5))
    with pytest.raises(InvalidOperatorError, match="failed to reach normal form"):
        reconstruct_frame(op)


def test_reconstruct_frame_rejects_a_non_einstein_operator():
    # flagged, the constructor refuses it; unflagged, berger_data does
    m = np.diag([0.5, 1 / 3, 1 / 3, 0.2, 1 / 3, 1 / 3])
    with pytest.raises(NotEinsteinError, match="flagged Einstein"):
        CurvatureOperator(m, 1.0)
    with pytest.raises(NotEinsteinError, match="nonzero duality cross block"):
        reconstruct_frame(CurvatureOperator(m))


def test_frame_functional_bound_and_models():
    # the minimum over all frames is 1.5 (lambda - a3); the models reach it
    sphere = frame_functional_min(model_space("sphere"), samples=2000, seed=5)
    assert sphere.extremum == pytest.approx(1.0, abs=1e-12)  # K constant 1/3
    assert sphere.bound == pytest.approx(1.0)

    cp2 = frame_functional_min(model_space("cp2"), samples=20000, seed=5)
    assert cp2.sense == "min" and cp2.feasible
    assert cp2.bound == pytest.approx(0.5)
    assert cp2.extremum >= cp2.bound - 1e-9
    assert cp2.extremum == pytest.approx(0.5, abs=1e-12)  # every e1 gives 1/2

    s2 = frame_functional_min(model_space("s2xs2"), samples=20000, seed=5)
    assert s2.bound == pytest.approx(0.0)
    assert s2.extremum >= -1e-9
    assert s2.extremum <= 1e-3


def _frame_functional_at(op, frame):
    """2 max(K12, K13) + min(K12, K13) evaluated at the rows e1..e4 of `frame`."""
    e = np.asarray(frame)
    w12, w13 = wedge_coordinates(e[0], e[1]), wedge_coordinates(e[0], e[2])
    k12, k13 = float(w12 @ op.matrix @ w12), float(w13 @ op.matrix @ w13)
    return 2.0 * max(k12, k13) + min(k12, k13)


def _rotated_samples(count, seed):
    rng = np.random.default_rng(seed)
    return [
        conjugate_operator(berger_to_operator(d), haar_rotation(rng))
        for d in sample_berger_data(count, seed=seed)
    ]


def test_frame_functional_meets_the_frame_minimum():
    # Ky Fan: no frame goes below 1.5 (lambda - a3) = 1.5 (a1 + a2), and
    # 20,000 directions get within 1e-3 of it
    for i, op in enumerate(_rotated_samples(20, seed=31)):
        data = berger_data(op)
        rep = frame_functional_min(op, samples=20000, seed=i)
        assert rep.bound == pytest.approx(1.5 * (data.a[0] + data.a[1]), abs=1e-12)
        assert rep.bound - 1e-9 <= rep.extremum <= rep.bound + 1e-3, i


def test_frame_functional_reports_an_oriented_frame_that_attains_it():
    ops = [model_space(n) for n in ("sphere", "cp2", "s2xs2")] + _rotated_samples(8, seed=32)
    for i, op in enumerate(ops):
        rep = frame_functional_min(op, samples=1000, seed=i)
        e = np.array(rep.argument)
        assert np.abs(e @ e.T - np.eye(4)).max() <= 1e-12
        assert np.linalg.det(e) == pytest.approx(1.0, abs=1e-12)
        scale = max(1.0, float(np.abs(op.matrix).max()))
        assert abs(_frame_functional_at(op, e) - rep.extremum) <= 1e-12 * scale, i


def test_frame_functional_re_solves_a_double_top_eigenvalue():
    # with a2 = a3 the winning direction's top eigenvalue is double, where
    # the closed form is off by up to about 1e-11 here; the report comes
    # from the eigh solve and stays within rounding of the bound
    rng = np.random.default_rng(33)
    for data in (
        BergerData((Fraction(0), Fraction(1, 2), Fraction(1, 2)), (0, 0, 0)),
        BergerData((0.1, 0.45, 0.45), (0.0, 0.0, 0.0)),
        BergerData((-0.2, 0.6, 0.6), (0.1, -0.05, -0.05)),
    ):
        op = conjugate_operator(berger_to_operator(data), haar_rotation(rng))
        for seed in range(3):
            rep = frame_functional_min(op, samples=20000, seed=seed)
            assert abs(rep.extremum - rep.bound) <= 1e-14, (data, seed)
            assert abs(_frame_functional_at(op, rep.argument) - rep.extremum) <= 1e-14


def _search_back(m, q, conjugate=True):
    """frame_functional_min's search matrix of each direction of q, conjugated back by Q.

    The halves of m's duality blocks at m's scale, in their eigenframes; a
    (n, 3, 3) stack.  With conjugate False the 4x4 map is built from p
    rather than conj(p).
    """
    plus, minus, _ = (x / 2.0 for x in bivector._duality_blocks(m))
    (alpha, vp), (beta, vm) = berger._oriented_eigh(plus), berger._oriented_eigh(minus)
    p, r = rho_inverse(vp), rho_inverse(vm)
    left = p * (1.0, -1.0, -1.0, -1.0) if conjugate else p
    rot = rho(quaternion_rotation(left, r) @ q).transpose(2, 0, 1)
    search = rot.transpose(0, 2, 1) @ (alpha[:, None] * rot) + np.diag(beta)
    return rho(r) @ search @ rho(r).T


def _wedge_inner(m, q):
    """<R(e1^f_j), e1^f_k> for the frames (q, q i, q j, q k) of q's columns, from the wedges."""
    out = []
    for k in range(q.shape[1]):
        frame = quaternion_rotation(q[:, k], (1.0, 0.0, 0.0, 0.0))
        w = np.stack([wedge_coordinates(frame[:, 0], frame[:, j]) for j in (1, 2, 3)], axis=1)
        out.append(w.T @ m @ w)
    return np.array(out)


def test_frame_search_matrix_matches_the_wedge_definition():
    # Einstein operators have no cross block, so the search matrix conjugated
    # back by Q is the whole 3x3; built from p rather than conj(p) it is not
    rng = np.random.default_rng(7)
    ops = [model_space(n) for n in ("sphere", "cp2", "s2xs2")] + _rotated_samples(8, seed=34)
    for i, op in enumerate(ops):
        q = rng.standard_normal((4, 9))
        q /= np.linalg.norm(q, axis=0)
        full = _wedge_inner(op.matrix, q)
        assert np.abs(_search_back(op.matrix, q) - full).max() <= 1e-14, i
        if i >= 3:
            assert np.abs(_search_back(op.matrix, q, conjugate=False) - full).max() > 1e-3, i


def test_frame_search_moves_eigenvalues_by_at_most_the_cross_block():
    # with a nonzero cross block C the whole 3x3 adds (rho^T C + C^T rho)/2,
    # so by Weyl's inequality each eigenvalue moves by at most |C|_2
    rng = np.random.default_rng(8)
    for _ in range(24):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        cross = bivector._duality_blocks(m)[2]
        assert np.abs(cross).max() > 0.1
        q = rng.standard_normal((4, 9))
        q /= np.linalg.norm(q, axis=0)
        moved = np.abs(
            np.linalg.eigvalsh(_search_back(m, q)) - np.linalg.eigvalsh(_wedge_inner(m, q))
        )
        assert moved.max() <= np.linalg.norm(cross, 2) + 1e-14


def _search_spectra(g, alpha, beta):
    """eigvalsh of rho(u)^T diag(alpha) rho(u) + diag(beta), u = g / |g|, for each column of g."""
    rot = rho(g / np.linalg.norm(g, axis=0)).transpose(2, 0, 1)
    return np.linalg.eigvalsh(rot.transpose(0, 2, 1) @ (alpha[:, None] * rot) + np.diag(beta))


def _search_top(g, alpha, beta):
    """berger._search_top of the draws g, raising on any 0/0, overflow or invalid operation."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        return berger._search_top(g, *berger._search_invariants(alpha, beta))


def test_search_top_is_the_top_eigenvalue():
    # 2,304 (alpha, beta, g): generic spectra, zero spread, double entries at
    # either end, and g at scales 1e-3, 1 and 1e3.  Where the top eigenvalue
    # of the search matrix is double (zero spread in one half, a double top
    # in the other) the closed form is off by up to about sqrt(eps); near one,
    # by about eps / gap
    rng = np.random.default_rng(35)
    kinds = ((0, 1, 2), (0, 0, 0), (0, 2, 2), (0, 0, 2))
    for _ in range(12):
        for ka, kb, scale in itertools.product(kinds, kinds, (1e-3, 1.0, 1e3)):
            alpha = np.sort(rng.uniform(-1.0, 1.0, 3))[list(ka)]
            beta = np.sort(rng.uniform(-1.0, 1.0, 3))[list(kb)]
            g = scale * rng.standard_normal((4, 4))
            top = _search_top(g, alpha, beta)
            spectra = _search_spectra(g, alpha, beta)
            gap = spectra[:, 2] - spectra[:, 1]
            allowed = np.clip(1e-15 / np.maximum(gap, 1e-300), 1e-13, 1e-7)
            assert np.all(np.abs(top - spectra[:, 2]) <= allowed), (alpha, beta, scale)


@pytest.mark.parametrize("level", [0.0, 0.25, -1.5])
def test_search_top_on_the_sphere_is_the_trace_third(level):
    # zero spread in both halves gives p = 0 exactly, and no 0/0
    flat = np.full(3, level)
    g = np.random.default_rng(36).standard_normal((4, 64))
    assert np.all(_search_top(g, flat, flat) == 2.0 * level)


def test_search_top_where_the_search_matrix_is_scalar():
    # beta = -reversed(alpha) and u = (0, 1, 0, 1)/sqrt2, which swaps axes
    # 0 and 2, give B = 0; |B|^2 then rounds to either sign, and the top
    # eigenvalue, triple there, is within sqrt(eps) of c with no invalid sqrt
    rng = np.random.default_rng(38)
    g = np.array([[0.0, 0.0], [1.0, 1e3], [0.0, 0.0], [1.0, 1e3]])
    for _ in range(200):
        alpha = np.sort(rng.uniform(-1.0, 1.0, 3))
        beta = -alpha[::-1]
        spectra = _search_spectra(g, alpha, beta)
        assert np.ptp(spectra) <= 1e-15  # the search matrix is scalar
        assert np.abs(_search_top(g, alpha, beta) - spectra[:, 2]).max() <= 1e-7, alpha


def test_frame_functional_ranks_as_eigvalsh_does(monkeypatch):
    # ranking the same draws on eigvalsh of the full 3x3 picks the same winner
    ops = _rotated_samples(40, seed=37)
    reports = [frame_functional_min(op, samples=5000, seed=s) for op in ops for s in (0, 1)]
    monkeypatch.setattr(berger, "_search_invariants", lambda alpha, beta: (alpha, beta))
    monkeypatch.setattr(
        berger, "_search_top", lambda g, alpha, beta: _search_spectra(g, alpha, beta)[:, 2]
    )
    reference = [frame_functional_min(op, samples=5000, seed=s) for op in ops for s in (0, 1)]
    for i, (got, want) in enumerate(zip(reports, reference)):
        assert (got.argument, got.extremum) == (want.argument, want.extremum), i


def test_frame_functional_seeded_determinism():
    # cp2's inner minimum is 1/2 in every direction, so two seeds can give
    # the same extremum: the winning frame tells them apart
    a = frame_functional_min(model_space("cp2"), samples=3000, seed=8)
    b = frame_functional_min(model_space("cp2"), samples=3000, seed=8)
    c = frame_functional_min(model_space("cp2"), samples=3000, seed=9)
    assert (a.extremum, a.argument) == (b.extremum, b.argument)
    assert a.argument != c.argument


@pytest.mark.parametrize("samples", [100, 513, 100000])
@pytest.mark.parametrize("name", ["cp2", "s2xs2"])
def test_frame_functional_streams_the_same_rotations(name, samples, monkeypatch):
    # each direction q is the rotation (q, q i, q j, q k); streaming them in
    # blocks must pick the winner one all-at-once evaluation of the same
    # draws picks, even on cp2 where every direction ties up to rounding
    op = model_space(name)
    streamed = [frame_functional_min(op, samples=samples, seed=11)]
    monkeypatch.setattr(berger, "SLAB_POINTS", 4 * 64)
    streamed.append(frame_functional_min(op, samples=samples, seed=11))
    monkeypatch.setattr(berger, "SLAB_POINTS", 4 * samples)
    whole = frame_functional_min(op, samples=samples, seed=11)
    assert whole.resolution == samples
    for report in streamed:
        assert (report.extremum, report.argument) == (whole.extremum, whole.argument)


def test_frame_functional_memory_is_flat():
    # the directions stream in blocks: about 2 MB traced at 10^5
    op = model_space("cp2")
    tracemalloc.start()
    try:
        report = frame_functional_min(op, samples=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.extremum == pytest.approx(0.5, abs=1e-12)
    assert peak <= 8e6


def test_hamilton_gap_signs():
    sphere = berger_data(model_space("sphere"))
    assert hamilton_gap(sphere.a, sphere.b) == 0
    # data violating the inequality: a1 small, a2 a3 large products
    bad = BergerData(a=(0.1, 0.4, 0.5), b=(0.0, 0.0, 0.0))
    assert float(hamilton_gap(bad.a, bad.b)) < 0.0


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


# -- stacks of operators -----------------------------------------------------------


@pytest.mark.parametrize("name", ["sphere", "cp2", "s2xs2"])
def test_stack_gaps_equal_the_scalar_gaps_on_the_models(name):
    op = model_space(name)
    frames = haar_rotations(300, 5)
    data = berger_data_stack(conjugate_matrices(op.matrix, frames), 1.0)
    got = hamilton_gap(data.a, data.b)
    scalar = [berger_data(conjugate_operator(op, q)) for q in frames]
    want = [hamilton_gap(d.a, d.b) for d in scalar]
    assert got.shape == (300,) and np.array_equal(got, np.array(want))


def test_stack_data_equal_the_scalar_data_on_rotated_samples():
    # generic data: distinct a's, nonzero b's and nonzero gaps
    turns = haar_rotations(8, 21)
    for k, d in enumerate(sample_berger_data(8, seed=20, lambda_einstein=2.5)):
        op = conjugate_operator(berger_to_operator(d), turns[k])
        frames = haar_rotations(40, k)
        got = berger_data_stack(conjugate_matrices(op.matrix, frames), op.lambda_einstein)
        want = [berger_data(conjugate_operator(op, q)) for q in frames]
        assert np.array_equal(got.a, np.array([w.a for w in want]).T)
        assert np.array_equal(got.b, np.array([w.b for w in want]).T)
        assert np.array_equal(got.lambda_einstein, [w.lambda_einstein for w in want])
        assert np.array_equal(hamilton_gap(got.a, got.b), [hamilton_gap(w.a, w.b) for w in want])
        assert np.abs(hamilton_gap(got.a, got.b)).min() > 1e-3


def _asymmetric(m):
    m[0, 1] += 1e-6


def _bianchi(m):
    m[0, 3] += 1e-6
    m[3, 0] += 1e-6


def _cross(m):
    m[0, 1] += 1e-6
    m[1, 0] += 1e-6


def _infinite(m):
    m[2, 2] = np.inf


@pytest.mark.parametrize(
    "spoil, lam, rule",
    [
        (_asymmetric, 1.0, "matrix is not symmetric (tolerance 1e-12): |m - m^T| = 1.000e-06"),
        (_bianchi, 1.0, "first Bianchi identity fails: "),
        (_cross, 1.0, "flagged Einstein with lambda=1.0 but "),
        (_cross, None, "operator has a nonzero duality cross block"),
        (_infinite, 1.0, "matrix must be a finite 6x6 array"),
    ],
    ids=["asymmetric", "bianchi", "not-einstein", "unflagged-not-einstein", "infinite"],
)
def test_one_bad_operator_in_a_stack_raises_the_scalar_error(spoil, lam, rule):
    # the error names the rule that failed, and the stack's is the scalar one
    # with the failing operator's index
    m = conjugate_matrices(model_space("cp2").matrix, haar_rotations(12, 1))
    spoil(m[7])
    with pytest.raises(Curv4Error) as scalar:
        berger_data(CurvatureOperator(m[7], lam))
    with pytest.raises(Curv4Error) as stack:
        berger_data_stack(m, lam)
    assert str(scalar.value).startswith(rule)
    assert stack.type is scalar.type
    assert str(stack.value) == "operator 7 of the stack: " + str(scalar.value)
    berger_data_stack(np.delete(m, 7, axis=0), lam)


def test_stacks_must_be_stacks():
    op = model_space("cp2")
    with pytest.raises(InvalidOperatorError):
        berger_data_stack(op.matrix, 1.0)
    with pytest.raises(InvalidOperatorError):
        conjugate_matrices(op.matrix, np.eye(3))


@pytest.mark.parametrize("half", [0, 1], ids=["self-dual", "anti-self-dual"])
def test_decompose_stack_checks_each_weyl_half(monkeypatch, half):
    # one batched eigvalsh per duality half; a descending result from either
    # is caught before it reaches the normal form
    op = berger_to_operator(sample_berger_data(1, seed=20)[0])
    m = conjugate_matrices(op.matrix, haar_rotations(4, 1))
    eigvalsh, calls = np.linalg.eigvalsh, []

    def faulty(x):
        calls.append(x)
        ev = eigvalsh(x)
        return ev[..., ::-1] if len(calls) == half + 1 else ev

    monkeypatch.setattr(np.linalg, "eigvalsh", faulty)
    with pytest.raises(InvalidOperatorError, match="operator 0 of the stack: .*ascending"):
        bivector.decompose_stack(m, op.lambda_einstein)


def test_berger_data_stack_checks_the_data_it_builds(monkeypatch):
    op = berger_to_operator(sample_berger_data(1, seed=20)[0])
    m = conjugate_matrices(op.matrix, haar_rotations(4, 1))
    decompose = berger.decompose_stack

    def shifted(m, lam):
        s, wp, wm, einstein = decompose(m, lam)
        wp[3] += 0.1  # still ascending, but sum(a) and sum(b) move off
        return s, wp, wm, einstein

    monkeypatch.setattr(berger, "decompose_stack", shifted)
    with pytest.raises(InvalidBergerError, match=r"operator 3 of the stack: sum\(a\)"):
        berger_data_stack(m, op.lambda_einstein)


def test_stack_rejects_a_non_finite_einstein_constant():
    m = conjugate_matrices(model_space("cp2").matrix, haar_rotations(4, 1))
    with pytest.raises(InvalidOperatorError, match="finite"):
        CurvatureOperator(m[0], np.nan)
    with pytest.raises(InvalidOperatorError, match="finite"):
        berger_data_stack(m, np.nan)


def test_stack_rejects_a_frame_that_is_not_orthogonal():
    op = model_space("cp2")
    frames = haar_rotations(6, 2)
    frames[3] *= 1.0 + 1e-7
    with pytest.raises(InvalidOperatorError):
        conjugate_operator(op, frames[3])
    with pytest.raises(InvalidOperatorError, match="frame 3 "):
        conjugate_matrices(op.matrix, frames)
    conjugate_matrices(op.matrix, np.delete(frames, 3, axis=0))


def test_nan_frames_are_rejected():
    # the one frame check reads |q^T q - I| <= tol, which NaN fails
    op = model_space("cp2")
    nan = np.full((4, 4), np.nan)
    with pytest.raises(InvalidOperatorError, match="orthogonal"):
        berger.Frame(nan)
    frames = haar_rotations(6, 2)
    frames[4] = nan
    with pytest.raises(InvalidOperatorError, match="frame 4 has"):
        conjugate_matrices(op.matrix, frames)
    with pytest.raises(InvalidOperatorError, match="orthogonal"):
        conjugate_operator(op, nan)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, 1e200])
def test_infinite_and_huge_frames_are_rejected(entry):
    # rejected before q^T q, where inf * 0 or an overflow would warn first
    op = model_space("cp2")
    frame = np.where(np.eye(4) > 0, entry, 0.0)
    with pytest.raises(InvalidOperatorError, match="frame 0 has an entry of size"):
        berger.Frame(frame)
    with pytest.raises(InvalidOperatorError, match="orthogonal"):
        conjugate_operator(op, frame)
    frames = haar_rotations(6, 2)
    frames[2] = frame
    with pytest.raises(InvalidOperatorError, match="frame 2 has"):
        conjugate_matrices(op.matrix, frames)


@pytest.mark.parametrize("bad", [(0.5, -1.0, 0.5), (-1.0, 0.0, 1.0 + 1e-9), (-1.0, np.nan, 1.0)])
def test_weyl_stack_checks_mirror_weyl_spectrum(bad):
    # eigvalsh sorts and the Bianchi check zeroes the trace first, so a stack
    # reaches these rules only directly; the stack error is the scalar one
    # with the failing operator's index
    with pytest.raises(InvalidOperatorError) as scalar:
        WeylSpectrum(bad)
    ev = np.array([(-1.0, 0.0, 1.0), bad])
    with pytest.raises(InvalidOperatorError) as stack:
        bivector._check_weyl(ev.T, np.ones(2))
    assert str(stack.value) == "operator 1 of the stack: " + str(scalar.value)
    bivector._check_weyl(ev[:1].T, np.ones(1))


def test_weyl_errors_name_the_offending_values():
    for bad, message in (
        ((0.5, -1.0, 0.5), "must be ascending, got (0.5, -1.0, 0.5)"),
        ((-1.0, np.nan, 1.0), "must be ascending, got (-1.0, nan, 1.0)"),
        ((-1.0, 0.0, 1.0 + 1e-9), "must be trace-free (tolerance 1e-12), trace 1.000e-09"),
    ):
        with pytest.raises(InvalidOperatorError) as got:
            WeylSpectrum(bad)
        assert str(got.value) == "Weyl spectrum " + message


def test_exact_weyl_spectra_compare_exactly():
    third = Fraction(1, 3)
    assert WeylSpectrum((-2 * third, third, third)).eigenvalues[0] == -2 * third
    with pytest.raises(InvalidOperatorError, match=r"got \(1/3, -2/3, 1/3\)"):
        WeylSpectrum((third, -2 * third, third))
    tiny = Fraction(1, 10**30)  # below every float tolerance, yet not ascending
    with pytest.raises(InvalidOperatorError, match="ascending"):
        WeylSpectrum((-2 * third, third + tiny, third - tiny))


@pytest.mark.parametrize(
    "a, b, lam, message",
    [
        ((0.5, 0.2, 0.3), (0.0, 0.0, 0.0), 1.0, berger._NOT_ASCENDING),
        ((0.2, 0.3, 0.4), (0.0, 0.0, 0.0), 1.0, berger._SUM_A),
        ((0.0, 0.2, 0.8), (0.01, 0.0, 0.0), 1.0, berger._SUM_B),
        ((0.0, 0.2, 0.8), (-0.25, 0.25, 0.0), 1.0, berger._DOMINANCE[0]),
        ((1 / 3, 1 / 3, 1 / 3), (-0.1, 0.0, 0.1), 1.0, berger._DOMINANCE[1]),
        ((0.0, 0.5, 0.5), (0.0, 0.2, -0.2), 1.0, berger._DOMINANCE[2]),
        ((0.0, np.nan, 1.0), (0.0, 0.0, 0.0), 1.0, berger._NOT_FINITE),
        ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), np.inf, berger._NOT_FINITE),
    ],
    ids=["descending", "sum-a", "sum-b", "b2-b1", "b3-b1", "b3-b2", "nan", "inf"],
)
def test_berger_stack_checks_mirror_berger_data(a, b, lam, message):
    # a stack from duality spectra always satisfies these, so the rules are
    # reached only directly; the error lists what BergerData lists, with the
    # failing operator's index
    with pytest.raises(InvalidBergerError) as scalar:
        BergerData(a, b, lam)
    assert message in str(scalar.value).split("; ")
    good = berger_data(model_space("cp2"))
    stack = BergerStack(
        np.array([good.a, a, good.a], dtype=float).T,
        np.array([good.b, b, good.b], dtype=float).T,
        np.array([float(good.lambda_einstein), lam, 1.0]),
    )
    with pytest.raises(InvalidBergerError) as got:
        berger._check_berger(*stack)
    assert str(got.value) == f"operator 1 of the stack: {scalar.value}"
    berger._check_berger(*(x[..., ::2] for x in stack))
