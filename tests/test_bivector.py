"""Bivector algebra, duality decomposition, sectional curvature, Weyl scalars."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import (
    BASIS_PAIRS,
    CurvatureOperator,
    TangentPlane,
    WeylSpectrum,
    berger_data,
    berger_to_operator,
    conjugate_operator,
    duality_decompose,
    extremize_sectional,
    hodge_star_matrix,
    model_space,
    sample_berger_data,
    sectional,
    static_weitzenbock_residual,
    wedge_coordinates,
)
from curv4 import bivector
from curv4.bivector import (
    EINSTEIN_TOL,
    MODEL_BLOCKS,
    _einstein_defect,
    _plane_of,
    haar_rotations,
    induced_bivector_rotation,
    normal_form_rows,
    quaternion_rotation,
    rho,
    rho_inverse,
)
from curv4.errors import (
    InvalidOperatorError,
    NotEinsteinError,
    UnknownModelError,
)

E = np.eye(4)


def haar_rotation(rng):
    g = rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_basis_order_and_wedge():
    assert BASIS_PAIRS == ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))
    np.testing.assert_allclose(wedge_coordinates(E[0], E[1]), [1, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(wedge_coordinates(E[3], E[1]), [0, 0, 0, 0, 1, 0])
    np.testing.assert_allclose(wedge_coordinates(E[1], E[3]), [0, 0, 0, 0, -1, 0])
    # bilinear and antisymmetric
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=4), rng.normal(size=4)
    np.testing.assert_allclose(wedge_coordinates(u, v), -wedge_coordinates(v, u))


def test_hodge_star_swaps_blocks_and_duality_basis():
    star = hodge_star_matrix()
    np.testing.assert_allclose(star @ star, np.eye(6))
    # the fixed basis pairs e_{12}<->e_{34}, e_{13}<->e_{42}, e_{14}<->e_{23}
    np.testing.assert_allclose(star[:3, 3:], np.eye(3))
    # star diagonalizes on the omega basis columns w+_k = (e_k + e_{k+3})/sqrt2
    # and w-_k = (e_k - e_{k+3})/sqrt2: +1 on the first three
    i3 = np.eye(3) / math.sqrt(2.0)
    p = np.block([[i3, i3], [i3, -i3]])
    signs = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    np.testing.assert_allclose(star @ p, p @ signs, atol=1e-15)
    np.testing.assert_allclose(p.T @ p, np.eye(6), atol=1e-15)


# index-level reference for the curvature: R_{ijkl} and Rc_{ij} = sum_k R_{ikjk}
# read entry by entry from the 6x6 matrix, for floats and Fractions alike
_PAIR_INDEX = {}
for _idx, (_i, _j) in enumerate(BASIS_PAIRS):
    _PAIR_INDEX[(_i, _j)] = (_idx, 1)
    _PAIR_INDEX[(_j, _i)] = (_idx, -1)


def riemann_component(matrix, i, j, k, l):
    """R_{ijkl} (1-based); the signs absorb the e42 orientation of the basis."""
    if i == j or k == l:
        return 0 * matrix[0][0]
    a, sa = _PAIR_INDEX[(i, j)]
    b, sb = _PAIR_INDEX[(k, l)]
    return sa * sb * matrix[a][b]


def ricci_tensor(matrix):
    return [
        [
            sum(riemann_component(matrix, i, k, j, k) for k in range(1, 5) if k != i and k != j)
            for j in range(1, 5)
        ]
        for i in range(1, 5)
    ]


def ricci_deviation_sq(matrix, lam):
    """|Rc - lam g|^2 in the Frobenius norm, from the index formula."""
    ric = ricci_tensor(matrix)
    return sum((ric[i][j] - (lam if i == j else 0)) ** 2 for i in range(4) for j in range(4))


def test_riemann_component_symmetries():
    op = model_space("cp2")
    m = op.matrix
    assert riemann_component(m, 1, 2, 1, 2) == pytest.approx(1.0 / 6.0)
    assert riemann_component(m, 1, 4, 1, 4) == pytest.approx(2.0 / 3.0)
    assert riemann_component(m, 1, 3, 4, 2) == pytest.approx(-1.0 / 6.0)  # b2 entry
    for (i, j, k, l) in ((1, 2, 3, 4), (1, 3, 2, 4), (2, 4, 1, 3)):
        assert riemann_component(m, i, j, k, l) == pytest.approx(
            -riemann_component(m, j, i, k, l)
        )
        assert riemann_component(m, i, j, k, l) == pytest.approx(
            riemann_component(m, k, l, i, j)
        )
    assert riemann_component(m, 1, 1, 3, 4) == 0


def test_first_bianchi_on_normal_forms():
    for d in sample_berger_data(50, seed=11):
        m = berger_to_operator(d).matrix
        cyclic = (
            riemann_component(m, 1, 2, 3, 4)
            + riemann_component(m, 1, 3, 4, 2)
            + riemann_component(m, 1, 4, 2, 3)
        )
        assert abs(cyclic) <= 1e-12


def test_ricci_of_models_is_einstein():
    for name in ("sphere", "cp2", "s2xs2"):
        ric = ricci_tensor(model_space(name).exact)
        for i in range(4):
            for j in range(4):
                assert ric[i][j] == (Fraction(1) if i == j else 0)


def test_index_ricci_reference_matches_the_cross_block():
    # |E|^2 = 4 |C|^2 and |Rc - lam g|^2 = 4 |C|^2 + 4 (S/4 - lam)^2 against
    # Rc_{ij} = sum_k R_{ikjk}, on random Bianchi operators and the models
    rng = np.random.default_rng(29)
    for n in range(60):
        m = _bianchi_projected(rng) * 10.0 ** rng.integers(-3, 4)
        op = CurvatureOperator(m)
        d = duality_decompose(op)
        scale = max(1.0, float(np.abs(m).max()))
        e2 = ricci_deviation_sq(m.tolist(), float(d.s) / 4.0)
        assert abs(math.sqrt(e2) - math.sqrt(d.traceless_ricci_norm_sq)) <= 1e-12 * scale, n
        lam = float(rng.normal()) * scale
        want = math.sqrt(ricci_deviation_sq(m.tolist(), lam))
        got = _einstein_defect(d.cross_block, float(d.s), lam, scale) * scale
        assert abs(got - want) <= 1e-12 * scale, n
    exact = [model_space(name) for name in ("sphere", "cp2", "s2xs2")]
    rows = [[Fraction(int(x), 7) for x in row] for row in rng.integers(-9, 10, (6, 6))]
    rows = [[rows[min(i, j)][max(i, j)] for j in range(6)] for i in range(6)]
    rows[2][5] = rows[5][2] = -rows[0][3] - rows[1][4]
    exact.append(CurvatureOperator.from_exact(rows))
    for op in exact:
        d = duality_decompose(op)
        assert d.traceless_ricci_norm_sq == ricci_deviation_sq(op.exact, d.s / 4)
    assert d.traceless_ricci_norm_sq > 0 and type(d.traceless_ricci_norm_sq) is Fraction


@pytest.mark.parametrize("delta", [5e-10, 1e-9, 2e-9, 4e-9, 8e-9])
def test_einstein_checks_agree_near_the_tolerance(delta):
    # cp2 with delta on m[0, 1] = m[1, 0] has |Rc - g| = |E| = sqrt2 delta; the
    # flagged-lambda check and is_einstein read the same cross block at one scale
    m = model_space("cp2").matrix.copy()
    m[0, 1] = m[1, 0] = delta
    flagged = True
    try:
        CurvatureOperator(m, 1.0)
    except NotEinsteinError:
        flagged = False
    assert duality_decompose(CurvatureOperator(m)).is_einstein == flagged
    assert flagged == (math.sqrt(2.0) * delta <= EINSTEIN_TOL)


def test_model_tables_exact():
    third = Fraction(1, 3)
    d = duality_decompose(model_space("sphere"))
    assert d.w_plus.eigenvalues == (0, 0, 0) and d.w_minus.eigenvalues == (0, 0, 0)
    d = duality_decompose(model_space("cp2"))
    assert d.w_plus.eigenvalues == (-third, -third, 2 * third)
    assert d.w_minus.eigenvalues == (0, 0, 0)
    d = duality_decompose(model_space("s2xs2"))
    assert d.w_plus.eigenvalues == d.w_minus.eigenvalues == (-third, -third, 2 * third)
    assert d.s == 4 and d.traceless_ricci_norm_sq == 0 and d.is_einstein
    with pytest.raises(UnknownModelError):
        model_space("t4")


def test_operator_validation():
    bad = np.zeros((6, 6))
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(InvalidOperatorError):
        CurvatureOperator(bad)
    with pytest.raises(InvalidOperatorError):
        CurvatureOperator(np.zeros((5, 5)))


@pytest.mark.parametrize("build", ["constructor", "from_exact"])
def test_exact_checks_catch_what_the_floats_cannot(build):
    # exact rows off by 1e-15 round to floats that pass every float check
    cp2 = model_space("cp2")
    eps = Fraction(1, 10**15)
    asym = [list(row) for row in cp2.exact]
    asym[0][1] += eps
    bianchi = [list(row) for row in cp2.exact]
    bianchi[0][3] += eps
    bianchi[3][0] += eps
    for rows, message in (
        (asym, "exact matrix is not symmetric"),
        (bianchi, "exact matrix violates the first Bianchi identity"),
    ):
        with pytest.raises(InvalidOperatorError, match=f"^{message}$"):
            if build == "constructor":
                CurvatureOperator(None, 1.0, rows)
            else:
                CurvatureOperator.from_exact(rows, 1.0)
    # the exact rows are the one source of the float matrix
    with pytest.raises(InvalidOperatorError, match="^give the float matrix or the exact rows"):
        CurvatureOperator(cp2.matrix, None, cp2.exact)


def test_exact_entries_beyond_the_float_range_are_invalid():
    rows = [[Fraction(0)] * 6 for _ in range(6)]
    rows[0][0] = Fraction(10**400)
    with pytest.raises(InvalidOperatorError, match="overflows the float range"):
        CurvatureOperator.from_exact(rows)
    with pytest.raises(InvalidOperatorError, match="overflows the float range"):
        CurvatureOperator(None, None, rows)


def test_from_exact_converts_its_rows_once(monkeypatch):
    calls, as_exact_rows = [], bivector._as_exact_rows

    def count(rows):
        calls.append(rows)
        return as_exact_rows(rows)

    monkeypatch.setattr(bivector, "_as_exact_rows", count)
    op = CurvatureOperator.from_exact(normal_form_rows(*MODEL_BLOCKS["cp2"]), 1.0)
    assert len(calls) == 1
    assert type(op.exact) is tuple and all(type(row) is tuple for row in op.exact)
    assert all(type(x) is Fraction for row in op.exact for x in row)
    assert op.exact == model_space("cp2").exact


def test_exact_mirror_keeps_its_fractions():
    op = model_space("cp2")
    again = CurvatureOperator.from_exact(op.exact)
    assert all(x is y for r, s in zip(op.exact, again.exact) for x, y in zip(r, s))
    numerators, den = op._exact_numerators
    assert den == 6 and numerators[2][2] == 4 and numerators[2][5] == 2


def test_decompose_float_matches_exact():
    op = model_space("cp2")
    fl = CurvatureOperator(op.matrix.copy())  # drop the exact mirror
    d = duality_decompose(fl)
    for got, want in zip(d.w_plus.eigenvalues, (-1 / 3, -1 / 3, 2 / 3)):
        assert abs(float(got) - want) <= 1e-12
    assert abs(float(d.s) - 4.0) <= 1e-12


def test_non_einstein_flagged():
    # unequal diagonal blocks put mass in the duality cross block (Ricci traceless part)
    m = np.diag([1.0 / 3.0 + 0.3, 1 / 3, 1 / 3, 1.0 / 3.0 - 0.3, 1 / 3, 1 / 3])
    d = duality_decompose(CurvatureOperator(m))
    assert not d.is_einstein
    assert d.cross_norm > 0.1
    assert float(d.traceless_ricci_norm_sq) > 0.1


def test_sectional_values_on_models():
    sphere = model_space("sphere")
    cp2 = model_space("cp2")
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = haar_rotation(rng)
        plane = TangentPlane(q[:, 0], q[:, 1])
        assert sectional(sphere, plane) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sectional(cp2, TangentPlane(E[0], E[1])) == pytest.approx(1.0 / 6.0)
    assert sectional(cp2, TangentPlane(E[0], E[3])) == pytest.approx(2.0 / 3.0)
    assert sectional(cp2, TangentPlane(E[1], E[2])) == pytest.approx(2.0 / 3.0)


def test_sectional_frame_invariance():
    op = model_space("s2xs2")
    rng = np.random.default_rng(9)
    for _ in range(30):
        q = haar_rotation(rng)
        u, v = q[:, 0], q[:, 1]
        k0 = sectional(op, TangentPlane(u, v))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        u2 = math.cos(theta) * u + math.sin(theta) * v
        v2 = -math.sin(theta) * u + math.cos(theta) * v
        assert abs(sectional(op, TangentPlane(u2, v2)) - k0) <= 1e-10
        assert abs(sectional(op, TangentPlane(v, u)) - k0) <= 1e-10


def test_tangent_plane_validation():
    with pytest.raises(ValueError):
        TangentPlane(E[0], 2.0 * E[1])
    with pytest.raises(ValueError):
        TangentPlane(E[0], (E[0] + E[1]) / math.sqrt(2.0) * math.sqrt(2.0) / 2 + E[0] / 2)


def test_witness_plane_round_trip():
    # the signed basis bivectors put each half on a coordinate axis, where two
    # axes tie as least aligned and the lifted rotations are signed permutations
    rng = np.random.default_rng(2)
    sigmas = [wedge_coordinates(q[:, 0], q[:, 1]) for q in (haar_rotation(rng) for _ in range(25))]
    sigmas += [sign * np.eye(6)[k] for sign in (1.0, -1.0) for k in range(6)]
    for sigma in sigmas:
        plane = _plane_of(sigma)
        np.testing.assert_allclose(plane.bivector(), sigma, atol=1e-14)
    with pytest.raises(InvalidOperatorError):
        _plane_of(np.array([1.0, 0, 0, 1.0, 0, 0]) / math.sqrt(2.0))


def _scale(op):
    return max(1.0, float(np.abs(op.matrix).max()))


def test_extremize_matches_berger_extremes():
    for d in sample_berger_data(6, seed=21):
        op = berger_to_operator(d)
        ext = extremize_sectional(op)
        tol = 1e-12 * _scale(op)
        assert abs(ext.kmin - float(d.a[0])) <= tol
        assert abs(ext.kmax - float(d.a[2])) <= tol
        # reported argmin actually attains the reported value
        assert sectional(op, ext.argmin) == pytest.approx(ext.kmin, abs=tol)
        assert sectional(op, ext.argmax) == pytest.approx(ext.kmax, abs=tol)


def test_extremize_handles_non_einstein_coupling():
    m = np.diag([1.0 / 3.0 + 0.25, 1 / 3, 1 / 3, 1.0 / 3.0 - 0.25, 1 / 3, 1 / 3])
    op = CurvatureOperator(m)
    ext = extremize_sectional(op)
    # K(e1, e2) = 1/3 + 0.25 and K(e3, e4) = 1/3 - 0.25 sit at the extremes
    assert ext.kmax == pytest.approx(1.0 / 3.0 + 0.25, abs=1e-12)
    assert ext.kmin == pytest.approx(1.0 / 3.0 - 0.25, abs=1e-12)
    assert sectional(op, ext.argmax) == pytest.approx(ext.kmax, abs=1e-12)


def _bianchi_projected(rng):
    m = rng.normal(size=(6, 6))
    m = (m + m.T) / 2.0
    excess = (m[0, 3] + m[1, 4] + m[2, 5]) / 3.0
    for k in range(3):
        m[k, k + 3] -= excess
        m[k + 3, k] -= excess
    return m


def _certified_cases() -> dict:
    data = sample_berger_data(8, seed=31)
    cases = {f"einstein-{i}": berger_to_operator(d) for i, d in enumerate(data)}
    rng = np.random.default_rng(41)
    cases.update({f"random-{i}": CurvatureOperator(_bianchi_projected(rng)) for i in range(8)})
    # a non-Einstein diagonal operator with one off-diagonal entry, on which the
    # coupled grid search took about 75 s at its default resolution
    m = np.diag([1.0 / 3.0 + 0.25, 1 / 3, 1 / 3, 1.0 / 3.0 - 0.25, 1 / 3, 1 / 3])
    m[0, 1] = m[1, 0] = 0.1
    cases["diagonal-plus-one"] = CurvatureOperator(m)
    return cases


CERTIFIED_CASES = _certified_cases()


@pytest.mark.parametrize("name", CERTIFIED_CASES)
def test_extremize_brackets_are_certified(name):
    op = CERTIFIED_CASES[name]
    start = time.perf_counter()
    ext = extremize_sectional(op)
    elapsed = time.perf_counter() - start
    tol = 1e-12 * _scale(op)
    assert -tol <= ext.kmin - ext.kmin_lower <= tol
    assert -tol <= ext.kmax_upper - ext.kmax <= tol
    assert sectional(op, ext.argmin) == ext.kmin
    assert sectional(op, ext.argmax) == ext.kmax
    # independent one-sided check of the dual bounds on Haar-random planes
    q = haar_rotations(10_000, seed=7)
    w = wedge_coordinates(q[:, :, 0], q[:, :, 1])
    k = np.einsum("ni,ij,nj->n", w, op.matrix, w)
    assert k.min() >= ext.kmin_lower - 1e-12
    assert k.max() <= ext.kmax_upper + 1e-12
    # a fixed number of 6x6 eigensolves, not a grid: milliseconds, not seconds
    assert elapsed < 1.0


def _unit_quaternions(rng, count):
    q = rng.standard_normal((4, count))
    return q / np.linalg.norm(q, axis=0)


def test_quaternion_pair_turns_each_duality_half_on_its_own():
    # in the w+/w- basis x -> p x q acts as blockdiag(rho(p), rho(q)^T)
    rng = np.random.default_rng(12)
    h = np.block([[np.eye(3), np.eye(3)], [np.eye(3), -np.eye(3)]]) / math.sqrt(2.0)
    p, q = _unit_quaternions(rng, 50), _unit_quaternions(rng, 50)
    stack = quaternion_rotation(p, q)
    for k in range(50):
        f = quaternion_rotation(p[:, k], q[:, k])
        assert np.array_equal(f, stack[:, :, k])
        assert np.abs(f.T @ f - np.eye(4)).max() <= 1e-14
        assert np.linalg.det(f) == pytest.approx(1.0, abs=1e-14)
        want = np.zeros((6, 6))
        want[:3, :3], want[3:, 3:] = rho(p[:, k]), rho(q[:, k]).T
        assert np.abs(h @ induced_bivector_rotation(f) @ h.T - want).max() <= 1e-14


def test_induced_rotation_matches_the_pairwise_wedges():
    # column k is the wedge of the rotated basis pair k; reflections included
    rotations = list(haar_rotations(200, seed=14)) + [np.diag([-1.0, 1.0, 1.0, 1.0])]
    for f in rotations:
        cols = [wedge_coordinates(f[:, i - 1], f[:, j - 1]) for (i, j) in BASIS_PAIRS]
        assert np.array_equal(induced_bivector_rotation(f), np.stack(cols, axis=1))


def _rho_inverse_reference(r):
    """rho_inverse on numpy temporaries: the 4x4 of 4 q_a q_b, then its first largest row."""
    r = np.asarray(r, dtype=float)
    t = np.trace(r)
    d, a, s = 1.0 + 2.0 * np.diag(r) - t, r - r.T, r + r.T
    k = np.array([
        [1.0 + t, a[2, 1], a[0, 2], a[1, 0]],
        [a[2, 1], d[0], s[0, 1], s[0, 2]],
        [a[0, 2], s[0, 1], d[1], s[1, 2]],
        [a[1, 0], s[0, 2], s[1, 2], d[2]],
    ])
    i = int(np.argmax(np.diag(k)))
    return k[i] / math.sqrt(float(k[i] @ k[i])), i


def test_rho_inverse_lifts_every_rotation():
    # random quaternions, and the half turns and the identity, where some
    # components vanish and Shepperd's choice of row matters; the axis
    # permutations tie all four rows, where the first is taken
    rng = np.random.default_rng(13)
    special = [np.eye(4)[i] for i in range(4)] + [np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)]
    special += [np.full(4, 0.5), np.array([0.5, -0.5, 0.5, -0.5])]
    for p in [*_unit_quaternions(rng, 200).T, *special, *(-x for x in special)]:
        got = rho_inverse(rho(p))
        assert min(np.abs(got - p).max(), np.abs(got + p).max()) <= 1e-14, p
        assert np.array_equal(got, _rho_inverse_reference(rho(p))[0]), p
        r = rho(p)
        assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-14


def test_rho_inverse_matches_the_array_reference_bit_for_bit():
    # a third of the draws are near half turns, where 1 + t = 4 w^2 is near 0
    rng = np.random.default_rng(17)
    q = _unit_quaternions(rng, 21000)
    q[0, ::3] *= 10.0 ** rng.uniform(-12.0, -1.0, 7000)
    q /= np.linalg.norm(q, axis=0)
    r = np.moveaxis(rho(q), -1, 0)
    rows = [0, 0, 0, 0]
    for x in r:
        want, i = _rho_inverse_reference(x)
        assert np.array_equal(rho_inverse(x), want), x
        rows[i] += 1
    assert min(rows) >= 1000, rows


def test_haar_rotations_continue_one_stream_in_blocks():
    # hamilton-models draws its rotations block by block from one Generator;
    # each rotation depends only on its own draws
    rng = np.random.default_rng(5)
    blocks = [haar_rotations(n, rng) for n in (512, 512, 76)]
    whole = haar_rotations(1100, 5)
    assert np.array_equal(np.concatenate(blocks), whole)
    rng = np.random.default_rng(5)
    assert np.array_equal(np.stack([haar_rotations(1, rng)[0] for _ in range(1100)]), whole)


def test_haar_rotations_have_haar_moments():
    # Haar on SO(4): E tr Q = 0, E (tr Q)^2 = 1, E Q_ij^2 = 1/4.  Left
    # multiplication alone (q = 1) would give E (tr Q)^2 = 4
    n = 100_000
    q = haar_rotations(n, seed=19)
    tr = np.einsum("sii->s", q)
    for x, mean in ((tr, 0.0), (tr * tr, 1.0), (q * q, 0.25)):
        got, sigma = x.mean(axis=0), x.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(got - mean) <= 5.0 * sigma), (got, mean)


trace_free_triples = st.builds(
    lambda x, y: sorted([x, y, -x - y]),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


def weyl_det_bound(w):
    """|W| of a trace-free spectrum, and whether 36 det(W) <= 2 sqrt6 |W|^3 holds.

    The inequality holds for every trace-free triple, with equality exactly on
    spectra proportional to (-1, -1, 2).
    """
    norm = math.sqrt(float(w.norm_sq()))
    rhs = 2.0 * math.sqrt(6.0) * norm**3
    return norm, 36.0 * float(w.det()) <= rhs + 1e-9 * max(1.0, abs(rhs))


@given(trace_free_triples)
@settings(max_examples=80, deadline=None)
def test_determinant_inequality(triple):
    w = WeylSpectrum(tuple(triple))
    norm, holds = weyl_det_bound(w)
    assert holds
    assert 36.0 * float(w.det()) <= 2.0 * math.sqrt(6.0) * norm**3 + 1e-9 * max(1.0, norm**3)


def test_determinant_equality_case():
    w = WeylSpectrum((Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)))
    lhs = 36.0 * float(w.det())
    rhs = 2.0 * math.sqrt(6.0) * math.sqrt(float(w.norm_sq())) ** 3
    assert abs(lhs - rhs) <= 1e-12
    generic = WeylSpectrum((-2.0, 0.5, 1.5))
    assert 36.0 * generic.det() < 2.0 * math.sqrt(6.0) * math.sqrt(generic.norm_sq()) ** 3 - 1e-6


def test_weyl_spectrum_validation():
    with pytest.raises(InvalidOperatorError):
        WeylSpectrum((1.0, 0.0, -1.0))  # not ascending
    with pytest.raises(InvalidOperatorError):
        WeylSpectrum((-1.0, 0.0, 2.0))  # trace 1
    with pytest.raises(InvalidOperatorError):
        WeylSpectrum((0.0, 0.0))


def test_static_weitzenbock_residual_values():
    assert static_weitzenbock_residual(4, WeylSpectrum((0, 0, 0))) == 0
    third = Fraction(1, 3)
    w = WeylSpectrum((-third, -third, 2 * third))
    assert static_weitzenbock_residual(4, w) == 0
    assert static_weitzenbock_residual(5, w) == Fraction(2, 3)  # 5*(2/3) - 36*(2/27)


def test_conjugation_preserves_spectra():
    rng = np.random.default_rng(13)
    op = model_space("cp2")
    base = np.sort(np.linalg.eigvalsh(op.matrix))
    for _ in range(10):
        rot = conjugate_operator(op, haar_rotation(rng))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(rot.matrix)), base, atol=1e-12)
        d = duality_decompose(rot)
        assert abs(float(d.s) - 4.0) <= 1e-12
        assert d.cross_norm <= 1e-12
        assert d.is_einstein


def test_berger_data_invariant_under_conjugation():
    rng = np.random.default_rng(17)
    for d in sample_berger_data(5, seed=23):
        op = berger_to_operator(d)
        rot = conjugate_operator(op, haar_rotation(rng))
        d2 = berger_data(rot)
        for x, y in zip(d.a + d.b, d2.a + d2.b):
            assert abs(float(x) - float(y)) <= 1e-9
