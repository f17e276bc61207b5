"""Curvature operators on the bivector space of an oriented Euclidean R^4.

A curvature operator is stored as the symmetric 6x6 matrix of R acting on
Lambda^2(R^4) in the fixed orthonormal bivector basis

    e12, e13, e14, e34, e42, e23        (e42 = e4^e2 = -e2^e4)

ordered so that complementary pairs sit three apart.  In this order the Hodge
star is the block matrix [[0, I], [I, 0]], the self-dual/anti-self-dual frames
are w+_k = (basis_k + basis_{k+3})/sqrt2 and w-_k = (basis_k - basis_{k+3})/sqrt2,
and an operator in normal form is literally [[A, B], [B, A]] with diagonal A, B.

Scalar curvature is normalized so that the unit-Einstein round sphere
(Rc = g, constant sectional curvature 1/3) has S = 4; equivalently
S = 2 * trace(matrix).

Operators built from rational data carry an optional exact mirror of the
matrix (nested Fractions).  Decompositions stay in exact arithmetic whenever
the duality blocks are diagonal over the rationals, which covers the model
spaces and every operator produced from normal-form data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DegeneratePlaneError,
    DomainError,
    InvalidOperatorError,
    NotEinsteinError,
    UnknownModelError,
)
from .estimates import grid_extremum

# index pairs (1-based) of the fixed bivector basis, in order
BASIS_PAIRS = ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))
BASIS_LABEL = "e12,e13,e14,e34,e42,e23"

SYMMETRY_TOL = 1e-12
BIANCHI_TOL = 1e-12
EINSTEIN_TOL = 1e-9
EIGENVALUE_TOL = 1e-9

_PAIR_INDEX: dict[tuple[int, int], tuple[int, int]] = {}
for _idx, (_i, _j) in enumerate(BASIS_PAIRS):
    _PAIR_INDEX[(_i, _j)] = (_idx, 1)
    _PAIR_INDEX[(_j, _i)] = (_idx, -1)


def wedge_coordinates(u, v) -> np.ndarray:
    """Coordinates of u^v in the fixed bivector basis; broadcasts over (..., 4)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    comps = [
        u[..., i - 1] * v[..., j - 1] - u[..., j - 1] * v[..., i - 1]
        for (i, j) in BASIS_PAIRS
    ]
    return np.stack(comps, axis=-1)


def hodge_star_matrix() -> np.ndarray:
    """Hodge star on Lambda^2 in the fixed basis: [[0, I], [I, 0]]."""
    star = np.zeros((6, 6))
    for k in range(3):
        star[k, k + 3] = 1.0
        star[k + 3, k] = 1.0
    return star


def duality_basis_matrix() -> np.ndarray:
    """Columns are w+_1, w+_2, w+_3, w-_1, w-_2, w-_3 in fixed coordinates."""
    p = np.zeros((6, 6))
    c = 1.0 / math.sqrt(2.0)
    for k in range(3):
        p[k, k] = c
        p[k + 3, k] = c
        p[k, k + 3] = c
        p[k + 3, k + 3] = -c
    return p


def riemann_component(matrix, i: int, j: int, k: int, l: int):
    """Curvature component R_{ijkl} (1-based indices) from the 6x6 matrix.

    Works for numpy arrays and nested sequences of Fractions alike; the sign
    bookkeeping absorbs the e42 orientation of the fixed basis.
    """
    if i == j or k == l:
        return 0 * matrix[0][0]
    a, sa = _PAIR_INDEX[(i, j)]
    b, sb = _PAIR_INDEX[(k, l)]
    return sa * sb * matrix[a][b]


def ricci_tensor(matrix):
    """Ricci tensor Rc_{ij} = sum_k R_{ikjk} as a nested 4x4 list (type-preserving)."""
    return [
        [
            sum(riemann_component(matrix, i, k, j, k) for k in range(1, 5) if k != i and k != j)
            for j in range(1, 5)
        ]
        for i in range(1, 5)
    ]


def _traceless_ricci_norm_sq(matrix, s):
    ric = ricci_tensor(matrix)
    lam = s / 4
    total = 0 * matrix[0][0]
    for i in range(4):
        for j in range(4):
            e = ric[i][j] - (lam if i == j else 0)
            total = total + e * e
    return total


def induced_bivector_rotation(q: np.ndarray) -> np.ndarray:
    """The 6x6 action of a rotation q of R^4 on the fixed bivector basis."""
    q = np.asarray(q, dtype=float)
    cols = [wedge_coordinates(q[:, i - 1], q[:, j - 1]) for (i, j) in BASIS_PAIRS]
    return np.stack(cols, axis=1)


@dataclass(frozen=True, eq=False)
class TangentPlane:
    """An oriented 2-plane in R^4 spanned by an orthonormal pair (u, v)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float).reshape(4)
        v = np.array(self.v, dtype=float).reshape(4)
        if abs(u @ u - 1.0) > 1e-12 or abs(v @ v - 1.0) > 1e-12:
            raise ValueError("plane vectors must be unit length (tolerance 1e-12)")
        if abs(u @ v) > 1e-12:
            raise ValueError("plane vectors must be orthogonal (tolerance 1e-12)")
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_span(cls, u, v) -> "TangentPlane":
        """Orthonormalize a spanning pair; rejects (numerically) parallel input."""
        u = np.asarray(u, dtype=float).reshape(4)
        v = np.asarray(v, dtype=float).reshape(4)
        w = wedge_coordinates(u, v)
        if math.sqrt(float(w @ w)) < 1e-9:
            raise DegeneratePlaneError("spanning vectors are parallel within 1e-9")
        e1 = u / math.sqrt(float(u @ u))
        r = v - (v @ e1) * e1
        e2 = r / math.sqrt(float(r @ r))
        return cls(e1, e2)

    def bivector(self) -> np.ndarray:
        return wedge_coordinates(self.u, self.v)


def _as_exact_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(out) != 6 or any(len(r) != 6 for r in out):
        raise InvalidOperatorError("exact matrix must be 6x6")
    return out


@dataclass(frozen=True, eq=False)
class CurvatureOperator:
    """Symmetric algebraic curvature operator on Lambda^2(R^4).

    matrix          -- 6x6 float matrix in the fixed bivector basis
    lambda_einstein -- Einstein constant when the operator is flagged Einstein
                       (Rc = lambda * g, checked to 1e-9); None when unflagged
    exact           -- optional exact rational mirror of `matrix`
    """

    matrix: np.ndarray
    lambda_einstein: float | None = None
    exact: tuple[tuple[Fraction, ...], ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.exact is not None:
            object.__setattr__(self, "exact", _as_exact_rows(self.exact))
        m = np.array(self.matrix, dtype=float)
        if m.shape != (6, 6) or not np.all(np.isfinite(m)):
            raise InvalidOperatorError("matrix must be a finite 6x6 array")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
            raise InvalidOperatorError("matrix is not symmetric (tolerance 1e-12)")
        bianchi = m[0, 3] + m[1, 4] + m[2, 5]
        if abs(float(bianchi)) > BIANCHI_TOL * scale:
            raise InvalidOperatorError(
                "first Bianchi identity fails: <Re12,e34>+<Re13,e42>+<Re14,e23> = "
                f"{float(bianchi):.3e}"
            )
        if self.exact is not None:
            ex = self.exact
            if any(ex[i][j] != ex[j][i] for i in range(6) for j in range(i)):
                raise InvalidOperatorError("exact matrix is not symmetric")
            if ex[0][3] + ex[1][4] + ex[2][5] != 0:
                raise InvalidOperatorError("exact matrix violates the first Bianchi identity")
            drift = max(
                abs(float(ex[i][j]) - m[i, j]) for i in range(6) for j in range(6)
            )
            if drift > 1e-12 * scale:
                raise InvalidOperatorError("float and exact matrices disagree")
        if self.lambda_einstein is not None:
            lam = self.lambda_einstein
            if not math.isfinite(lam):
                raise InvalidOperatorError(f"Einstein constant must be finite, got {lam}")
            ric = np.array(ricci_tensor(m), dtype=float)
            dev = float(np.abs(ric - lam * np.eye(4)).max())
            if dev > EINSTEIN_TOL * scale:
                raise NotEinsteinError(
                    f"flagged Einstein with lambda={lam} but |Rc - lambda g| = {dev:.3e}"
                )

    @classmethod
    def from_exact(cls, rows, lambda_einstein: float | None = None) -> "CurvatureOperator":
        ex = _as_exact_rows(rows)
        m = np.array([[float(x) for x in row] for row in ex])
        return cls(m, lambda_einstein, ex)

    @property
    def scalar_curvature(self):
        """S = 2 * trace; exact when the operator carries exact entries."""
        if self.exact is not None:
            return 2 * sum(self.exact[i][i] for i in range(6))
        return 2.0 * float(np.trace(self.matrix))


@dataclass(frozen=True, eq=False)
class WeylSpectrum:
    """Ascending eigenvalue triple of a (half-)Weyl part; sums to zero."""

    eigenvalues: tuple

    def __post_init__(self):
        ev = tuple(self.eigenvalues)
        if len(ev) != 3:
            raise InvalidOperatorError("a Weyl spectrum has exactly three eigenvalues")
        scale = max(1.0, max(abs(float(x)) for x in ev))
        if not (ev[0] <= ev[1] <= ev[2]):
            raise InvalidOperatorError("Weyl spectrum must be ascending")
        if abs(float(ev[0] + ev[1] + ev[2])) > 1e-12 * scale:
            raise InvalidOperatorError("Weyl spectrum must be trace-free (tolerance 1e-12)")
        object.__setattr__(self, "eigenvalues", ev)

    def norm_sq(self):
        a, b, c = self.eigenvalues
        return a * a + b * b + c * c

    def det(self):
        a, b, c = self.eigenvalues
        return a * b * c


@dataclass(frozen=True, eq=False)
class DualityDecomposition:
    """Scalar/Weyl/traceless-Ricci split of a curvature operator.

    s                       -- scalar curvature (S = 2 tr, exact when available)
    w_plus, w_minus         -- spectra of the self-dual / anti-self-dual Weyl parts
    traceless_ricci_norm_sq -- |E|^2 with E = Rc - (S/4) g as a 2-tensor
    r_plus_block et al.     -- the 3x3 duality blocks of the operator (floats)
    """

    s: object
    w_plus: WeylSpectrum
    w_minus: WeylSpectrum
    traceless_ricci_norm_sq: object
    r_plus_block: np.ndarray = field(repr=False)
    r_minus_block: np.ndarray = field(repr=False)
    cross_block: np.ndarray = field(repr=False)

    @property
    def cross_norm(self) -> float:
        """Frobenius norm of the duality cross block; zero iff Einstein."""
        return float(np.sqrt(np.sum(self.cross_block * self.cross_block)))

    @property
    def is_einstein(self) -> bool:
        return self.cross_norm <= EINSTEIN_TOL * max(1.0, abs(float(self.s)))


def _exact_duality_blocks(ex):
    a = [[ex[i][j] for j in range(3)] for i in range(3)]
    b = [[ex[i][j + 3] for j in range(3)] for i in range(3)]
    c = [[ex[i + 3][j + 3] for j in range(3)] for i in range(3)]
    rp = [[(a[i][j] + b[i][j] + b[j][i] + c[i][j]) / 2 for j in range(3)] for i in range(3)]
    rm = [[(a[i][j] - b[i][j] - b[j][i] + c[i][j]) / 2 for j in range(3)] for i in range(3)]
    cr = [[(a[i][j] + b[j][i] - b[i][j] - c[i][j]) / 2 for j in range(3)] for i in range(3)]
    return rp, rm, cr


def _is_exact_diagonal(block) -> bool:
    return all(block[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def duality_decompose(op: CurvatureOperator) -> DualityDecomposition:
    """Split R into scalar, self-dual and anti-self-dual Weyl, and Ricci parts.

    The duality blocks are obtained by conjugating with the w+/w- basis; the
    sqrt(2) factors square away, so exact operators decompose exactly.  Weyl
    spectra of non-diagonal blocks come from a symmetric eigensolver
    (tolerance 1e-9).
    """
    m = op.matrix
    a = m[0:3, 0:3]
    b = m[0:3, 3:6]
    c = m[3:6, 3:6]
    rp = (a + b + b.T + c) / 2.0
    rm = (a - b - b.T + c) / 2.0
    cross = (a + b.T - b - c) / 2.0

    exact_blocks = False
    if op.exact is not None:
        ex = op.exact
        s = 2 * sum(ex[i][i] for i in range(6))
        erp, erm, _ = _exact_duality_blocks(ex)
        e2 = _traceless_ricci_norm_sq(ex, s)
        exact_blocks = _is_exact_diagonal(erp) and _is_exact_diagonal(erm)
    else:
        s = 2.0 * float(np.trace(m))
        e2 = float(_traceless_ricci_norm_sq(m, s))
    if exact_blocks:
        wp = tuple(sorted(erp[i][i] - Fraction(s, 12) for i in range(3)))
        wm = tuple(sorted(erm[i][i] - Fraction(s, 12) for i in range(3)))
    else:
        wp = tuple(np.linalg.eigvalsh(rp) - float(s) / 12.0)
        wm = tuple(np.linalg.eigvalsh(rm) - float(s) / 12.0)
    return DualityDecomposition(
        s, WeylSpectrum(wp), WeylSpectrum(wm), e2, rp, rm, cross
    )


# -- model spaces -------------------------------------------------------------

_THIRD = Fraction(1, 3)
_SIXTH = Fraction(1, 6)

# diagonal A (sectional) and B (mixed) blocks of the normal form, Rc = g;
# the one source of model data (operators, classification, tables)
MODEL_BLOCKS = {
    "sphere": ((_THIRD, _THIRD, _THIRD), (0, 0, 0)),
    "rp4": ((_THIRD, _THIRD, _THIRD), (0, 0, 0)),
    "cp2": ((_SIXTH, _SIXTH, Fraction(2, 3)), (-_SIXTH, -_SIXTH, _THIRD)),
    "s2xs2": ((0, 0, Fraction(1)), (0, 0, 0)),
}

# Euler characteristic and signature; rp4 is non-orientable (no signature)
MODEL_INFO = {
    "sphere": {"euler": 2, "signature": 0, "description": "round 4-sphere, K = 1/3"},
    "rp4": {
        "euler": 1,
        "signature": None,
        "description": "real projective 4-space, locally the round sphere",
    },
    "cp2": {
        "euler": 3,
        "signature": 1,
        "description": "complex projective plane with the symmetric metric",
    },
    "s2xs2": {
        "euler": 4,
        "signature": 0,
        "description": "product of two round 2-spheres of curvature 1",
    },
}

MODEL_NAMES = tuple(MODEL_BLOCKS)


def normal_form_rows(a, b) -> list:
    """The normal-form matrix [[A, B], [B, A]] with A = diag(a), B = diag(b).

    Nested 6x6 lists holding the given entries as they are, zeros elsewhere.
    """
    rows = [[0] * 6 for _ in range(6)]
    for i in range(3):
        rows[i][i] = rows[i + 3][i + 3] = a[i]
        rows[i][i + 3] = rows[i + 3][i] = b[i]
    return rows


def model_space(name: str) -> CurvatureOperator:
    """Curvature operator of a model Einstein space, normalized to Rc = g.

    Names: sphere, rp4, cp2, s2xs2.  All entries are exact rationals.
    """
    key = name.lower()
    if key not in MODEL_BLOCKS:
        raise UnknownModelError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    return CurvatureOperator.from_exact(normal_form_rows(*MODEL_BLOCKS[key]), lambda_einstein=1.0)


# -- sectional curvature -------------------------------------------------------


def sectional(op: CurvatureOperator, plane: TangentPlane) -> float:
    """Sectional curvature K(plane) = <R(u^v), u^v>."""
    w = plane.bivector()
    n2 = float(w @ w)
    if math.sqrt(n2) < 1e-9:
        raise DegeneratePlaneError("u^v vanishes within 1e-9")
    return float(w @ op.matrix @ w)


@dataclass(frozen=True, eq=False)
class SectionalExtrema:
    """Grid extrema of the sectional curvature over all tangent planes."""

    kmin: float
    kmax: float
    argmin: TangentPlane
    argmax: TangentPlane
    resolution: int


def _sphere_grid(n: int) -> np.ndarray:
    theta = np.linspace(0.0, np.pi, n + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * n, endpoint=False)
    t, p = np.meshgrid(theta, phi, indexing="ij")
    st = np.sin(t)
    pts = np.stack([st * np.cos(p), st * np.sin(p), np.cos(t)], axis=-1)
    return pts.reshape(-1, 3)


def antisymmetric_matrix(sigma) -> np.ndarray:
    """The 4x4 antisymmetric matrix of a bivector in fixed coordinates."""
    f = np.zeros((4, 4))
    for coef, (i, j) in zip(np.asarray(sigma, dtype=float), BASIS_PAIRS):
        f[i - 1, j - 1] += coef
        f[j - 1, i - 1] -= coef
    return f


def factor_decomposable(sigma) -> tuple[np.ndarray, np.ndarray]:
    """Factor a unit decomposable bivector as u^v with orthonormal u, v.

    For sigma = u^v the antisymmetric matrix maps v to u and u to -v, so any
    unit vector u0 of its column space pairs with v0 = -F u0.
    """
    sigma = np.asarray(sigma, dtype=float)
    f = antisymmetric_matrix(sigma)
    u_svd, _, _ = np.linalg.svd(f)
    u = u_svd[:, 0]
    v = -f @ u
    v = v / math.sqrt(float(v @ v))
    if float(np.abs(wedge_coordinates(u, v) - sigma).max()) > 1e-8:
        raise InvalidOperatorError("bivector is not decomposable within 1e-8")
    return u, v


def _plane_from_duality_pair(xi: np.ndarray, eta: np.ndarray) -> TangentPlane:
    """Tangent plane of the decomposable bivector (xi + eta)/sqrt2."""
    c = 1.0 / math.sqrt(2.0)
    sigma = np.concatenate([xi + eta, xi - eta]) * (c / math.sqrt(2.0))
    u, v = factor_decomposable(sigma)
    return TangentPlane(u, v)


def extremize_sectional(op: CurvatureOperator, resolution: int = 200) -> SectionalExtrema:
    """Brute-force extrema of K over the Grassmannian of 2-planes.

    Unit decomposable bivectors are exactly (xi + eta)/sqrt2 with xi, eta unit
    vectors in the self-dual / anti-self-dual 3-spaces, so the search domain
    is a product of two 2-spheres sampled on a theta/phi grid.  For Einstein
    operators the two factors decouple; otherwise the full product is scanned
    for each extremum in slabs of bounded size (estimates.grid_extremum), ties
    going to the first grid pair in scan order.
    """
    if resolution < 8:
        raise DomainError("resolution must be at least 8")
    dd = duality_decompose(op)
    pts = _sphere_grid(resolution)
    fp = np.einsum("ni,ij,nj->n", pts, dd.r_plus_block, pts)
    fm = np.einsum("ni,ij,nj->n", pts, dd.r_minus_block, pts)

    scale = max(1.0, float(np.abs(op.matrix).max()))
    if dd.cross_norm <= 1e-12 * scale:
        i_min, i_max = int(np.argmin(fp)), int(np.argmax(fp))
        j_min, j_max = int(np.argmin(fm)), int(np.argmax(fm))
        kmin = float(0.5 * (fp[i_min] + fm[j_min]))
        kmax = float(0.5 * (fp[i_max] + fm[j_max]))
    else:
        # coupled search: K = (f+(xi) + f-(eta))/2 + xi . cross . eta
        cross_eta = dd.cross_block @ pts.T

        def evaluate(lo, hi):
            return 0.5 * (fp[lo:hi, None] + fm) + pts[lo:hi] @ cross_eta, True

        n = pts.shape[0]
        kmin, (i_min, j_min) = grid_extremum(evaluate, n, n, "min")
        kmax, (i_max, j_max) = grid_extremum(evaluate, n, n, "max")
    argmin = _plane_from_duality_pair(pts[i_min], pts[j_min])
    argmax = _plane_from_duality_pair(pts[i_max], pts[j_max])
    return SectionalExtrema(kmin, kmax, argmin, argmax, resolution)


# -- scalar invariants of Weyl spectra ------------------------------------------


@dataclass(frozen=True)
class WeylScalars:
    """Norm, squared norm, determinant, and the sharp determinant bound check."""

    norm_sq: object
    norm: float
    det: object
    det_bound_holds: bool


def weyl_scalars(w: WeylSpectrum) -> WeylScalars:
    """Scalar invariants of a trace-free spectrum.

    Also checks 36 det(W) <= 2 sqrt6 |W|^3, which holds for every trace-free
    triple with equality exactly on spectra proportional to (-1, -1, 2).
    """
    nsq = w.norm_sq()
    det = w.det()
    norm = math.sqrt(float(nsq))
    lhs = 36.0 * float(det)
    rhs = 2.0 * math.sqrt(6.0) * norm**3
    ok = lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
    return WeylScalars(nsq, norm, det, ok)


def static_weitzenbock_residual(s, w: WeylSpectrum):
    """Zeroth-order term S|W|^2 - 36 det W of the Weyl Laplacian identity.

    Exact inputs give exact output; vanishes on the half-Weyl parts of all
    model spaces.
    """
    return s * w.norm_sq() - 36 * w.det()


def haar_rotations(count: int, seed) -> np.ndarray:
    """`count` Haar-random rotations in SO(4), stacked as (count, 4, 4).

    QR of Gaussian matrices with the signs of R's diagonal moved into Q is
    Haar on O(4) (Mezzadri, arXiv:math-ph/0609050); negating the first column
    where det = -1 then gives Haar on SO(4).
    """
    g = np.random.default_rng(seed).standard_normal((count, 4, 4))
    q, r = np.linalg.qr(g)
    sign = np.sign(np.einsum("sii->si", r))
    sign[sign == 0] = 1.0
    q = q * sign[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def conjugate_operator(op: CurvatureOperator, frame: np.ndarray) -> CurvatureOperator:
    """Re-express the operator in the orthonormal frame given by `frame` columns."""
    q = np.asarray(frame, dtype=float)
    if q.shape != (4, 4) or float(np.abs(q.T @ q - np.eye(4)).max()) > 1e-8:
        raise InvalidOperatorError("frame must be a 4x4 orthogonal matrix")
    l6 = induced_bivector_rotation(q)
    m = l6.T @ op.matrix @ l6
    m = (m + m.T) / 2.0
    return CurvatureOperator(m, op.lambda_einstein)
