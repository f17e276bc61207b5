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
matrix (nested Fractions, worked on as integers over one denominator).
Decompositions stay exact whenever the duality blocks are diagonal over the
rationals, which covers the model spaces and every normal-form operator.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidOperatorError, NotEinsteinError, UnknownModelError

# index pairs (1-based) of the fixed bivector basis, in order
BASIS_PAIRS = ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))
BASIS_LABEL = "e12,e13,e14,e34,e42,e23"

SYMMETRY_TOL = 1e-12
BIANCHI_TOL = 1e-12
EINSTEIN_TOL = 1e-9

# 0-based first and second indices of the basis pairs
_FIRST, _SECOND = np.array(BASIS_PAIRS).T - 1
_BLOCK_CELLS = [(i, j) for i in range(3) for j in range(3)]


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


def induced_bivector_rotation(q: np.ndarray) -> np.ndarray:
    """The 6x6 action of a rotation q of R^4 on the fixed bivector basis.

    Column k holds the wedge coordinates of q e_i ^ q e_j for the basis pair
    (i, j) = BASIS_PAIRS[k].  Broadcasts over leading axes: a (..., 4, 4)
    stack gives (..., 6, 6).
    """
    q = np.asarray(q, dtype=float)
    u, v = q[..., _FIRST], q[..., _SECOND]
    return u[..., _FIRST, :] * v[..., _SECOND, :] - u[..., _SECOND, :] * v[..., _FIRST, :]


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

    def bivector(self) -> np.ndarray:
        return wedge_coordinates(self.u, self.v)


def _duality_blocks(m):
    """The blocks (R+, R-, C) of the operator [[R+, C], [C^T, R-]] in the w+/w- basis.

    Conjugating by w+-_k = (basis_k +- basis_{k+3})/sqrt2 squares the sqrt2
    factors away.  Float matrices; broadcasts over leading axes.  Exact
    operators read twice these blocks off their numerators (see _decompose).
    """
    a, b, c = m[..., :3, :3], m[..., :3, 3:], m[..., 3:, 3:]
    bt = b.swapaxes(-1, -2)
    return (a + b + bt + c) / 2, (a - b - bt + c) / 2, (a + bt - b - c) / 2


def _float_blocks(m: np.ndarray):
    """(R+, R-, C, S) of a float matrix or stack, S = 2 tr; raises when any overflows."""
    try:
        with np.errstate(over="raise"):
            return (*_duality_blocks(m), 2.0 * m.trace(axis1=-2, axis2=-1))
    except FloatingPointError as exc:
        raise InvalidOperatorError(
            "the duality blocks or the scalar curvature overflow the float range"
        ) from exc


def _operator_scale(m: np.ndarray):
    """max(1, max |entry|): the unit of every tolerance on an operator; (n,) for a stack."""
    return abs(m).max(axis=(-2, -1), initial=1.0)


def _einstein_defect(cross: np.ndarray, s, lam, scale):
    """|Rc - lam g| / scale (Frobenius norms), read off the duality cross block.

    The cross block C is the traceless Ricci tensor E = Rc - (S/4) g in the
    duality split, with |E|^2 = 4 |C|^2 (Singer and Thorpe 1969), and E is
    orthogonal to g with |g|^2 = 4, so |Rc - lam g|^2 = 4 |C|^2 + 4 (S/4 - lam)^2.
    Every term is divided by `scale` before it is squared, so a finite
    operator never overflows here.  Broadcasts over leading axes.
    """
    c = cross / np.asarray(scale)[..., None, None]
    return 2.0 * np.hypot(np.sqrt((c * c).sum(axis=(-2, -1))), s / (4.0 * scale) - lam / scale)


def _require(ok, error: type, message, *values) -> None:
    """Raise error(message(*values)) unless a rule holds; message is often a str.format.

    ok is one verdict, or an (n,) mask over a stack.  For a stack the error
    names the first failing operator k, and message takes entry k of each value.
    """
    if not isinstance(ok, np.ndarray):
        if not ok:
            raise error(message(*values))
    elif not ok.all():
        k = int(np.argmin(ok))
        raise error(f"operator {k} of the stack: " + message(*(v[k] for v in values)))


def _check_matrix(m: np.ndarray):
    """Finite, symmetric and Bianchi to 1e-12 x scale: a 6x6 or (n, 6, 6) m; returns scale."""
    scale = _operator_scale(m)  # inf or NaN exactly when an entry is
    _require(scale < np.inf, InvalidOperatorError, "matrix must be a finite 6x6 array".format)
    asym = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1))
    message = "matrix is not symmetric (tolerance 1e-12): |m - m^T| = {:.3e}".format
    _require(asym <= SYMMETRY_TOL * scale, InvalidOperatorError, message, asym)
    bianchi = m.T[3, 0] + m.T[4, 1] + m.T[5, 2]  # m.T[j, i] is m[..., i, j], with no slow ellipsis
    message = "first Bianchi identity fails: <Re12,e34>+<Re13,e42>+<Re14,e23> = {:.3e}".format
    _require(abs(bianchi) <= BIANCHI_TOL * scale, InvalidOperatorError, message, bianchi)
    return scale


def _check_einstein(cross: np.ndarray, s, lam, scale) -> None:
    """A finite lam, and |Rc - lam g| <= 1e-9 x scale for each operator (see _check_matrix)."""
    if not math.isfinite(lam):
        raise InvalidOperatorError(f"Einstein constant must be finite, got {lam}")
    defect = _einstein_defect(cross, s, lam, scale)
    message = f"flagged Einstein with lambda={lam} but |Rc - lambda g| = " + "{:.3e}"
    _require(defect <= EINSTEIN_TOL, NotEinsteinError, message.format, defect * scale)


def _as_exact_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in rows)
    if len(out) != 6 or any(len(r) != 6 for r in out):
        raise InvalidOperatorError("exact matrix must be 6x6")
    return out


def _exact_floats(rows) -> np.ndarray:
    """float(x) of each Fraction, as int / int; InvalidOperatorError beyond the float range."""
    try:
        return np.array([[x.numerator / x.denominator for x in row] for row in rows])
    except OverflowError as exc:
        raise InvalidOperatorError("an exact entry overflows the float range") from exc


@dataclass(frozen=True, eq=False)
class CurvatureOperator:
    """Symmetric algebraic curvature operator on Lambda^2(R^4).

    matrix          -- 6x6 float matrix in the fixed bivector basis; None with
                       `exact` for the correctly rounded floats of the mirror
    lambda_einstein -- Einstein constant when the operator is flagged Einstein
                       (|Rc - lambda g| <= 1e-9 times max(1, max |entry|));
                       None when unflagged
    exact           -- optional exact rational mirror of `matrix`
    """

    matrix: np.ndarray
    lambda_einstein: float | None = None
    exact: tuple[tuple[Fraction, ...], ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        derived = self.matrix is None and self.exact is not None  # from_exact
        if self.exact is not None:
            object.__setattr__(self, "exact", _as_exact_rows(self.exact))
        m = np.array(_exact_floats(self.exact) if derived else self.matrix, dtype=float)
        if m.shape != (6, 6):
            raise InvalidOperatorError("matrix must be a finite 6x6 array")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        scale = _check_matrix(m)
        if self.exact is not None:
            n, _ = self._exact_numerators
            if any(n[i][j] != n[j][i] for i in range(6) for j in range(i)):
                raise InvalidOperatorError("exact matrix is not symmetric")
            if n[0][3] + n[1][4] + n[2][5] != 0:
                raise InvalidOperatorError("exact matrix violates the first Bianchi identity")
            if not derived:
                with np.errstate(over="ignore"):
                    drift = np.abs(_exact_floats(self.exact) - m).max()
                if drift > 1e-12 * scale:
                    raise InvalidOperatorError("float and exact matrices disagree")
        if self.lambda_einstein is not None:
            _check_einstein(*self._blocks[2:], self.lambda_einstein, scale)

    @classmethod
    def from_exact(cls, rows, lambda_einstein: float | None = None) -> "CurvatureOperator":
        return cls(None, lambda_einstein, rows)

    @cached_property
    def _exact_numerators(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The exact mirror as integer numerators N over D = lcm of its denominators."""
        den = math.lcm(*(x.denominator for row in self.exact for x in row))
        rows = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in self.exact)
        return rows, den

    @cached_property
    def _blocks(self) -> tuple:
        """_float_blocks of the matrix, built once: by the lambda check or the decomposition."""
        return _float_blocks(self.matrix)

    @cached_property
    def _decomposition(self) -> "DualityDecomposition":
        return _decompose(self)


@dataclass(frozen=True, eq=False)
class WeylSpectrum:
    """Ascending eigenvalue triple of a (half-)Weyl part; sums to zero.

    The trace may miss zero by 1e-12 times the largest of 1, the eigenvalues
    and `scale`, the magnitude of the operator they were computed from: float
    rounding grows with the operator, not with its Weyl part.
    """

    eigenvalues: tuple
    scale: InitVar[float] = 1.0

    def __post_init__(self, scale):
        ev = tuple(self.eigenvalues)
        if len(ev) != 3:
            raise InvalidOperatorError("a Weyl spectrum has exactly three eigenvalues")
        _check_weyl(ev, scale)
        object.__setattr__(self, "eigenvalues", ev)

    def norm_sq(self):
        a, b, c = self.eigenvalues
        return a * a + b * b + c * c

    def det(self):
        a, b, c = self.eigenvalues
        return a * b * c


def _check_weyl(w, scale) -> None:
    """Ascending and trace-free to 1e-12 x max(1, scale, max |w|).

    w is one triple of numbers, or three (n,) arrays and an (n,) scale for a
    stack.  Exact entries compare exactly, and NaN is never ascending.
    """
    w0, w1, w2 = w
    message = "Weyl spectrum must be ascending, got ({}, {}, {})".format
    _require((w0 <= w1) & (w1 <= w2), InvalidOperatorError, message, *w)
    # an ascending triple's largest |w| is -w0 or w2, and t <= c max(x, y) iff t <= c x or c y
    trace = np.float64(w0 + w1 + w2)
    t = abs(trace)
    ok = (t <= 1e-12) | (t <= 1e-12 * scale) | (t <= -1e-12 * w0) | (t <= 1e-12 * w2)
    message = "Weyl spectrum must be trace-free (tolerance 1e-12), trace {:.3e}".format
    _require(ok, InvalidOperatorError, message, trace)


@dataclass(frozen=True, eq=False)
class DualityDecomposition:
    """Scalar/Weyl/traceless-Ricci split of a curvature operator.

    In the w+/w- basis the operator is [[W+ + S/12, C], [C^T, W- + S/12]],
    and every field below is read off these three blocks.

    s                       -- scalar curvature (S = 2 tr, exact when available)
    w_plus, w_minus         -- spectra of the self-dual / anti-self-dual Weyl parts
    traceless_ricci_norm_sq -- |E|^2 = 4 |C|^2 with E = Rc - (S/4) g as a
                               2-tensor (exact when available)
    r_plus_block et al.     -- the 3x3 duality blocks (floats, read-only)
    scale                   -- max(1, max |entry|) of the operator, the unit of
                               the Einstein tolerance
    """

    s: object
    w_plus: WeylSpectrum
    w_minus: WeylSpectrum
    traceless_ricci_norm_sq: object
    r_plus_block: np.ndarray = field(repr=False)
    r_minus_block: np.ndarray = field(repr=False)
    cross_block: np.ndarray = field(repr=False)
    scale: float = field(repr=False)

    @property
    def cross_norm(self) -> float:
        """Frobenius norm of the duality cross block; zero iff Einstein."""
        return float(np.sqrt(np.sum(self.cross_block * self.cross_block)))

    @cached_property
    def is_einstein(self) -> bool:
        """|E| <= 1e-9 * scale, the check of a flagged operator at lambda = S/4; computed once."""
        s = float(self.s)
        return bool(_einstein_defect(self.cross_block, s, s / 4.0, self.scale) <= EINSTEIN_TOL)

    @cached_property
    def _berger_data(self):
        """The normal-form data of berger.berger_data, built on first use."""
        from .berger import _berger_data_of  # berger imports this module
        return _berger_data_of(self)


def duality_decompose(op: CurvatureOperator) -> DualityDecomposition:
    """Split R into scalar, self-dual and anti-self-dual Weyl, and Ricci parts.

    The duality blocks are obtained by conjugating with the w+/w- basis; the
    sqrt(2) factors square away, so exact operators decompose exactly.  Weyl
    spectra of non-diagonal blocks come from a symmetric eigensolver
    (tolerance 1e-9).  The first call computes the decomposition and the
    operator keeps it, so later calls return the same object.
    """
    return op._decomposition


def _decompose(op: CurvatureOperator) -> DualityDecomposition:
    rp, rm, cross, s = op._blocks
    for block in (rp, rm, cross):
        block.setflags(write=False)  # every caller of the decomposition shares them
    s = float(s)
    wp = wm = None
    if op.exact is not None:
        # twice the blocks over D: 2 R+- = a + c +- (b + b^T), 2 C = a - c + b^T - b
        n, den = op._exact_numerators
        trace = sum(n[i][i] for i in range(6))
        ac = {(i, j): n[i][j] + n[i + 3][j + 3] for i, j in _BLOCK_CELLS}
        bb = {(i, j): n[i][j + 3] + n[j][i + 3] for i, j in _BLOCK_CELLS}
        c2 = [n[i][j] - n[i + 3][j + 3] + n[j][i + 3] - n[i][j + 3] for i, j in _BLOCK_CELLS]
        s = Fraction(2 * trace, den)
        e2 = Fraction(sum(x * x for x in c2), den * den)  # 4 |C|^2
        if all(ac[i, j] == bb[i, j] == 0 for i, j in _BLOCK_CELLS if i != j):
            # diagonal blocks: w = R_ii - S/12 = (3 (2 R)_ii - tr) / (6 D)
            plus = sorted(ac[i, i] + bb[i, i] for i in range(3))
            minus = sorted(ac[i, i] - bb[i, i] for i in range(3))
            wp, wm = (tuple(Fraction(3 * x - trace, 6 * den) for x in t) for t in (plus, minus))
    else:
        with np.errstate(over="ignore"):
            e2 = 4.0 * float(np.sum(cross * cross))
        if not math.isfinite(e2):
            raise InvalidOperatorError("|E|^2 overflows the float range")
    if wp is None:
        wp = tuple(np.linalg.eigvalsh(rp) - float(s) / 12.0)
        wm = tuple(np.linalg.eigvalsh(rm) - float(s) / 12.0)
    scale = float(_operator_scale(op.matrix))
    return DualityDecomposition(
        s, WeylSpectrum(wp, scale), WeylSpectrum(wm, scale), e2, rp, rm, cross, scale
    )


def decompose_stack(m: np.ndarray, lambda_einstein) -> tuple:
    """duality_decompose of each operator of a (n, 6, 6) float stack.

    Runs on the whole stack the rules CurvatureOperator(m[k], lambda_einstein)
    and duality_decompose run on one operator; an error names the first failing
    k.  Returns (s, w_plus, w_minus, is_einstein): (n,) scalar curvatures,
    (n, 3) ascending Weyl spectra from one batched eigvalsh per duality half,
    and the (n,) verdicts of DualityDecomposition.is_einstein.  Each
    operator's s and spectra are bit for bit the scalar path's.
    """
    if m.ndim != 3 or m.shape[1:] != (6, 6):
        raise InvalidOperatorError("matrices must be a (n, 6, 6) stack")
    scale = _check_matrix(m)
    rp, rm, cross, s = _float_blocks(m)
    if lambda_einstein is not None:
        _check_einstein(cross, s, lambda_einstein, scale)
    wp = np.linalg.eigvalsh(rp) - s[:, None] / 12.0
    wm = np.linalg.eigvalsh(rm) - s[:, None] / 12.0
    for w in (wp, wm):
        _check_weyl(w.T, scale)
    return s, wp, wm, _einstein_defect(cross, s, s / 4.0, scale) <= EINSTEIN_TOL


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
    return float(w @ op.matrix @ w)


@dataclass(frozen=True, eq=False)
class SectionalExtrema:
    """Extrema of the sectional curvature over all tangent planes.

    kmin, kmax             -- K at the witness planes argmin, argmax
    kmin_lower, kmax_upper -- dual bounds: kmin_lower <= K <= kmax_upper on
                              every plane, so [kmin_lower, kmin] and
                              [kmax, kmax_upper] bracket the true extrema
    """

    kmin: float
    kmax: float
    argmin: TangentPlane
    argmax: TangentPlane
    kmin_lower: float
    kmax_upper: float


def _turn_e1_to(n: np.ndarray) -> np.ndarray:
    """A unit quaternion q with rho(q) e1 = n, for a unit n in R^3.

    The half-way quaternion (1 + n1, 0, -n3, n2) turns e1 onto n about
    e1 x n.  It vanishes at n = -e1, so for n1 < 0 the half-way quaternion
    of -n follows j, the half turn that takes e1 to -e1.
    """
    n1, n2, n3 = n
    q = np.array([1.0 + n1, 0.0, -n3, n2] if n1 >= 0 else [-n3, n2, 1.0 - n1, 0.0])
    return q / math.sqrt(float(q @ q))


def _plane_of(w: np.ndarray) -> TangentPlane:
    """The plane u^v = w of a unit decomposable bivector w.

    e1^e2 has halves (1, 0, 0)/sqrt2 in the w+ and w- coordinates, and
    x -> p x q turns them by rho(p) and rho(q)^T (see quaternion_rotation).
    With rho(p) e1 and rho(q)^T e1 along the halves of w, the rotation
    carries e1^e2 onto w, and its first two columns span the plane.  A unit
    w is decomposable exactly when its halves have equal length (Pluecker).
    """
    plus = (w[:3] + w[3:]) / math.sqrt(2.0)
    minus = (w[:3] - w[3:]) / math.sqrt(2.0)
    n_plus, n_minus = math.sqrt(float(plus @ plus)), math.sqrt(float(minus @ minus))
    if abs(n_plus - n_minus) > 1e-8:
        raise InvalidOperatorError("bivector is not decomposable within 1e-8")
    p = _turn_e1_to(plus / n_plus)
    q = _turn_e1_to(minus / n_minus) * np.array([1.0, -1.0, -1.0, -1.0])
    f = quaternion_rotation(p, q)
    return TangentPlane(f[:, 0], f[:, 1])


# bisection steps of the dual search; 2^-100 of the bracket is below float spacing
_DUAL_STEPS = 100


def _dual_min(m: np.ndarray) -> tuple[float, TangentPlane]:
    """The dual bound max_t lambda_min(m + t*) on K = <m w, w> over planes.

    A unit bivector w is a plane exactly when <*w, w> = 0 (Pluecker), so
    every lambda_min(m + t*) bounds K from below, and the S-lemma makes the
    best bound the minimum (Singer and Thorpe 1969).  lambda_min(m + t*) is
    concave in t with supergradient <*v, v> at a bottom eigenvector v, so a
    fixed number of bisections on its sign reach the maximiser.  The
    witness plane is the combination w of the bracket ends' eigenvectors on
    which <*w, w> vanishes, factored by the quaternion pair that turns e1^e2
    onto its w+ and w- halves.
    """
    star = hodge_star_matrix()

    def bottom(t):
        ev, vec = np.linalg.eigh(m + t * star)
        v = vec[:, 0]
        return t, float(ev[0]), v, float(v @ star @ v)

    # lambda_min(m + t*) <= |m|_2 - |t| < -|m|_2 <= lambda_min(m) beyond the
    # bracket, so every maximiser lies inside it
    bound = 2.0 * float(np.linalg.norm(m)) + 1.0
    t_lo, lam_lo, v_lo, a = bottom(-bound)
    t_hi, lam_hi, v_hi, c = bottom(bound)
    for _ in range(_DUAL_STEPS):
        t, lam, v, g = bottom(0.5 * (t_lo + t_hi))
        if g > 0:
            t_lo, lam_lo, v_lo, a = t, lam, v, g
        else:
            t_hi, lam_hi, v_hi, c = t, lam, v, g
    if v_lo @ v_hi < 0:
        v_hi = -v_hi
    # <*w, w> = a p^2 + 2 b p q + c q^2 with a > 0 >= c; the root with p, q >= 0
    # keeps w = p v_lo + q v_hi clear of cancellation
    b = float(v_lo @ star @ v_hi)
    root = math.sqrt(b * b - a * c)
    p, q = (root - b, a) if b <= 0 else (-c, b + root)
    w = p * v_lo + q * v_hi
    return max(lam_lo, lam_hi), _plane_of(w / math.sqrt(float(w @ w)))


def extremize_sectional(op: CurvatureOperator) -> SectionalExtrema:
    """Extrema of K over the Grassmannian of 2-planes, each with a certificate.

    min K is the dual bound of R and max K that of -R; each comes with a
    witness plane whose K is reported, so the extremum lies between the two.
    """
    kmin_lower, argmin = _dual_min(op.matrix)
    neg_upper, argmax = _dual_min(-op.matrix)
    return SectionalExtrema(
        sectional(op, argmin), sectional(op, argmax), argmin, argmax, kmin_lower, -neg_upper
    )


# -- scalar invariants of Weyl spectra ------------------------------------------


def static_weitzenbock_residual(s, w: WeylSpectrum):
    """Zeroth-order term S|W|^2 - 36 det W of the Weyl Laplacian identity.

    Exact inputs give exact output; vanishes on the half-Weyl parts of all
    model spaces.
    """
    return s * w.norm_sq() - 36 * w.det()


# -- SO(4) from unit-quaternion pairs ------------------------------------------
#
# Every rotation of R^4 = H is x -> p x q for unit quaternions p, q, unique up
# to (-p, -q): SO(4) = (S^3 x S^3)/{+-1}.  Quaternions are (w, x, y, z) along
# the first axis and broadcast over the rest.


def rho(q) -> np.ndarray:
    """The rotation v -> q v q^-1 of R^3 = Im H; (3, 3, ...) for (4, ...) input.

    Each entry is a fixed sequence of elementwise operations on its own
    quaternion, so a rotation does not depend on the stack it sits in.
    """
    q = np.asarray(q, dtype=float)
    w, u = q[0], q[1:]
    r = 2.0 * u[:, None] * u[None, :]
    diag = w * w - u[0] * u[0] - u[1] * u[1] - u[2] * u[2]
    s = 2.0 * w * u
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        r[i, i] += diag
        r[j, k] -= s[i]
        r[k, j] += s[i]
    return r


def rho_inverse(r) -> np.ndarray:
    """A unit quaternion q with rho(q) = r, for one r in SO(3); -q is the other.

    Shepperd's method (1978): r gives the symmetric matrix of 4 q_a q_b, and
    q is its row of largest diagonal entry 4 q_k^2, normalised, so no small
    component is ever divided by.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(r, dtype=float).tolist()
    t = r00 + r11 + r22
    a0, a1, a2 = r21 - r12, r02 - r20, r10 - r01
    s01, s02, s12 = r01 + r10, r02 + r20, r12 + r21
    k = (
        (1.0 + t, a0, a1, a2),
        (a0, 1.0 + 2.0 * r00 - t, s01, s02),
        (a1, s01, 1.0 + 2.0 * r11 - t, s12),
        (a2, s02, s12, 1.0 + 2.0 * r22 - t),
    )
    row = np.array(k[max(range(4), key=lambda i: k[i][i])])  # the first largest
    return row / math.sqrt(float(row @ row))


def quaternion_rotation(p, q) -> np.ndarray:
    """The matrix of x -> p x q on R^4 = H; (4, 4, ...) for (4, ...) input.

    In the w+/w- basis of Lambda^2 it acts as blockdiag(rho(p), rho(q)^T)
    (Singer and Thorpe 1969): p turns only the self-dual half and q only the
    anti-self-dual one.  With q = 1 it is left multiplication by p, whose
    columns are p, p i, p j, p k.  The product is written out elementwise,
    so a matrix does not depend on the stack it sits in.
    """
    (w, x, y, z), (v, a, b, c) = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    left = np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])
    right = np.array([[v, -a, -b, -c], [a, v, c, -b], [b, -c, v, a], [c, b, -a, v]])
    return sum(left[:, k, None] * right[None, k] for k in range(4))


def haar_rotations(count: int, seed) -> np.ndarray:
    """`count` Haar-random rotations in SO(4), stacked as (count, 4, 4).

    Row n of (count, 8) normal draws from np.random.default_rng(seed) gives
    two independent uniform unit quaternions p, q (its normalised halves),
    and the rotation x -> p x q; since SO(4) = (S^3 x S^3)/{+-1} that is Haar.
    A Generator passed as `seed` continues its stream, so blocks drawn from
    one Generator in turn are the rotations of one call for the whole count.
    """
    g = np.random.default_rng(seed).standard_normal((count, 8)).T
    p, q = g[:4], g[4:]
    m = quaternion_rotation(p / np.linalg.norm(p, axis=0), q / np.linalg.norm(q, axis=0))
    return np.ascontiguousarray(np.moveaxis(m, -1, 0))


def conjugate_matrices(m: np.ndarray, frames) -> np.ndarray:
    """The 6x6 matrix m re-expressed in each orthonormal frame of a (..., 4, 4) stack.

    Frame columns are e1..e4.  Raises InvalidOperatorError naming the first
    frame that is not orthogonal to 1e-8.  A frame's matrix does not depend
    on the stack it sits in.
    """
    q = np.asarray(frames, dtype=float)
    if q.shape[-2:] != (4, 4):
        raise InvalidOperatorError("frame must be a 4x4 orthogonal matrix")
    defect = np.abs(q.swapaxes(-1, -2) @ q - np.eye(4)).max(axis=(-2, -1))
    if np.any(defect > 1e-8):
        k = int(np.argmax(defect > 1e-8))
        raise InvalidOperatorError(
            f"frame must be a 4x4 orthogonal matrix: frame {k} has "
            f"|q^T q - I| = {defect.flat[k]:.3e}"
        )
    l6 = induced_bivector_rotation(q)
    c = l6.swapaxes(-1, -2) @ m @ l6
    return (c + c.swapaxes(-1, -2)) / 2.0


def conjugate_operator(op: CurvatureOperator, frame: np.ndarray) -> CurvatureOperator:
    """Re-express the operator in the orthonormal frame given by `frame` columns."""
    q = np.asarray(frame, dtype=float)
    if q.shape != (4, 4):
        raise InvalidOperatorError("frame must be a 4x4 orthogonal matrix")
    return CurvatureOperator(conjugate_matrices(op.matrix, q), op.lambda_einstein)
