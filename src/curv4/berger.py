"""Normal form of Einstein curvature operators and adapted frames.

Every Einstein curvature operator on R^4 is, in a suitable oriented
orthonormal frame, the block matrix [[A, B], [B, A]] with A = diag(a1, a2, a3)
and B = diag(b1, b2, b3): the a's are the extremal sectional curvatures (each
attained on a pair of complementary planes) and the b's mix the two duality
halves.  This module extracts that data from an operator, rebuilds operators
from it, reconstructs an adapted frame, and samples the data polytope.

Conventions: a ascending, sum(a) equal to the Einstein constant, sum(b) zero,
and |b_j - b_i| <= a_j - a_i for i < j (equivalent to the eigenvalue orderings
of the two duality blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .bivector import (
    CurvatureOperator,
    DualityDecomposition,
    _check_frames,
    _exact_floats,
    _require,
    conjugate_matrices,
    decompose_stack,
    duality_decompose,
    normal_form_rows,
    quaternion_rotation,
    rho_inverse,
)
from .errors import DomainError, InvalidBergerError, InvalidOperatorError, NotEinsteinError
from .estimates import DOMINANCE_PAIRS, SLAB_POINTS, GridReport, dominance
from .surd import EXACT_TYPES, coerce, common_denominator


@dataclass(frozen=True, eq=False)
class BergerData:
    """Diagonal normal-form data (a, b) of an Einstein curvature operator.

    Entries may be floats or exact rationals; validation applies a relative
    tolerance of 1e-9 and reports every violated constraint at once.  A missing
    Einstein constant is inferred as sum(a).
    """

    a: tuple
    b: tuple
    lambda_einstein: object = None

    def __post_init__(self):
        a = tuple(self.a)
        b = tuple(self.b)
        if len(a) != 3 or len(b) != 3:
            raise InvalidBergerError("normal-form data has three a's and three b's")
        lam = self.lambda_einstein
        if lam is None:
            lam = a[0] + a[1] + a[2]
        try:
            f = [float(x) for x in (*a, *b, lam)]
        except OverflowError:  # an exact value beyond the float range
            f = [math.inf] * 7
        _check_berger(f[:3], f[3:6], f[6])
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lambda_einstein", lam)

    @property
    def is_exact(self) -> bool:
        return all(
            isinstance(x, EXACT_TYPES) for x in (*self.a, *self.b, self.lambda_einstein)
        )

    def normalized(self) -> "BergerData":
        """The same data rescaled to Einstein constant 1 (requires lambda > 0);
        self when lambda is already 1 in the data's own arithmetic."""
        lam = self.lambda_einstein
        if not float(lam) > 0:
            raise DomainError("normalization requires a positive Einstein constant")
        exact = self.is_exact
        one = Fraction(1) if exact else 1.0
        if type(lam) is type(one) and lam == one:
            if exact or all(isinstance(x, float) for x in (*self.a, *self.b)):
                return self
        lam = Fraction(lam) if isinstance(lam, int) else lam  # int / int gives a float
        return BergerData(
            tuple(x / lam for x in self.a), tuple(x / lam for x in self.b), one
        )


class BergerStack(NamedTuple):
    """Normal-form data of a stack of n operators: (3, n) arrays a and b, (n,) lambda."""

    a: np.ndarray
    b: np.ndarray
    lambda_einstein: np.ndarray


_NOT_EINSTEIN = "operator has a nonzero duality cross block"
_NOT_FINITE = "normal-form data and Einstein constant must be finite"
_NOT_ASCENDING = "sectional triple a is not ascending"
_SUM_A = "sum(a) does not equal the Einstein constant"
_SUM_B = "sum(b) is nonzero (first Bianchi identity)"
_DOMINANCE = tuple(
    f"|b{j + 1} - b{i + 1}| exceeds a{j + 1} - a{i + 1}" for i, j in DOMINANCE_PAIRS
)
_CONSTRAINTS = (_NOT_ASCENDING, _SUM_A, _SUM_B, *_DOMINANCE)


def _violations(*holds) -> str:
    return "; ".join(msg for msg, ok in zip(_CONSTRAINTS, holds) if not ok)


def _check_berger(a, b, lam) -> None:
    """BergerData's constraints on float triples a, b and lam, tolerance 1e-9 x scale.

    Numbers for one datum, or (n,) arrays for a stack.  The error lists every
    constraint violated (by the first failing operator of a stack).
    """
    scale = np.abs([*a, *b, lam]).max(axis=0, initial=1.0)  # inf or NaN with an entry
    _require(scale < np.inf, InvalidBergerError, _NOT_FINITE.format)
    tol = 1e-9 * scale
    holds = [
        (a[0] <= a[1] + tol) & (a[1] <= a[2] + tol),
        abs(a[0] + a[1] + a[2] - lam) <= tol,
        abs(b[0] + b[1] + b[2]) <= tol,
        *dominance(a, b, tol),
    ]
    all_hold = holds[0] & holds[1] & holds[2] & holds[3] & holds[4] & holds[5]
    _require(all_hold, InvalidBergerError, _violations, *holds)


def berger_data(source) -> BergerData:
    """Extract normal-form data from an Einstein operator or its decomposition.

    The duality-block eigenvalues r+ and r- (ascending) give a = (r+ + r-)/2
    and b = (r+ - r-)/2.  Exact when the operator decomposes exactly.  The
    decomposition keeps the data; the Einstein test runs on every call.
    """
    d = source if isinstance(source, DualityDecomposition) else duality_decompose(source)
    _require(d.is_einstein, NotEinsteinError, _NOT_EINSTEIN.format)
    return d._berger_data


def _berger_data_of(d: DualityDecomposition) -> BergerData:
    """berger_data of an Einstein decomposition, which keeps the result.

    Exact values come from integer numerators over one denominator D, one
    Fraction per output: with S and W the numerators of s and the spectra,
    a = (6 (W+ + W-) + S)/(12 D), b = (W+ - W-)/(2 D) and lambda = S/(4 D).
    """
    values = (d.s, *d.w_plus.eigenvalues, *d.w_minus.eigenvalues)
    if all(type(x) is Fraction for x in values):
        den, (s, *w) = common_denominator(values)
        a = tuple(Fraction(6 * (p + m) + s, 12 * den) for p, m in zip(w[:3], w[3:]))
        b = tuple(Fraction(p - m, 2 * den) for p, m in zip(w[:3], w[3:]))
        return BergerData(a, b, Fraction(s, 4 * den))
    s, *spectra = coerce(*values)
    a, b = _normal_form_data(s, spectra[:3], spectra[3:])
    return BergerData(a, b, s / 4)


def _normal_form_data(s, wp, wm) -> tuple:
    """(a, b) from S and the Weyl triples: r+- = w+- + S/12, a = (r+ + r-)/2, b = (r+ - r-)/2.

    Elementwise, so it takes triples of numbers and triples of arrays alike.
    """
    twelfth = s / 12
    rp = [w + twelfth for w in wp]
    rm = [w + twelfth for w in wm]
    return tuple((p + m) / 2 for p, m in zip(rp, rm)), tuple((p - m) / 2 for p, m in zip(rp, rm))


def berger_data_stack(m: np.ndarray, lambda_einstein) -> BergerStack:
    """berger_data of each operator of a (n, 6, 6) float stack flagged with one lambda.

    The rules of CurvatureOperator(m[k], lambda_einstein), duality_decompose,
    berger_data and BergerData run on the whole stack, through the functions
    they call on one operator, and (a, b) comes from the same formula, so each
    column is bit for bit berger_data(CurvatureOperator(m[k], lambda_einstein)).
    """
    s, wp, wm, einstein = decompose_stack(m, lambda_einstein)
    _require(einstein, NotEinsteinError, _NOT_EINSTEIN.format)
    a, b = _normal_form_data(s, wp.T, wm.T)
    _check_berger(a, b, s / 4)
    return BergerStack(np.array(a), np.array(b), s / 4)


def _normal_form_matrix(d: BergerData) -> np.ndarray:
    """The float 6x6 of berger_to_operator(d), built without an operator."""
    if all(isinstance(x, (int, Fraction)) for x in (*d.a, *d.b)):
        return _exact_floats(normal_form_rows(d.a, d.b))  # as CurvatureOperator.from_exact rounds
    a = [float(x) for x in d.a]
    b = [float(x) for x in d.b]
    shift = (b[0] + b[1] + b[2]) / 3.0  # recenter float noise so Bianchi holds exactly
    return np.array(normal_form_rows(a, [x - shift for x in b]), dtype=float)


def berger_to_operator(d: BergerData) -> CurvatureOperator:
    """Build the block-diagonal normal-form operator [[A, B], [B, A]].

    Exact data yields an operator built from exact rows, so a round trip
    through `berger_data` reproduces the input without drift.
    """
    lam = float(d.lambda_einstein)
    if all(isinstance(x, (int, Fraction)) for x in (*d.a, *d.b)):
        return CurvatureOperator.from_exact(normal_form_rows(d.a, d.b), lambda_einstein=lam)
    return CurvatureOperator(_normal_form_matrix(d), lambda_einstein=lam)


# -- adapted frames -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Frame:
    """An oriented orthonormal frame of R^4; columns of `matrix` are e1..e4."""

    matrix: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        q = np.array(self.matrix, dtype=float)
        if q.shape != (4, 4):
            raise InvalidOperatorError("frame matrix must be 4x4")
        _check_frames(q, 1e-9)
        if abs(float(np.linalg.det(q)) - 1.0) > 1e-9:
            raise InvalidOperatorError("frame must be positively oriented")
        q.setflags(write=False)
        object.__setattr__(self, "matrix", q)

    def vector(self, i: int) -> np.ndarray:
        """Frame vector e_i, 1-based."""
        return self.matrix[:, i - 1]


@dataclass(frozen=True, eq=False)
class FrameReconstruction:
    """An adapted frame together with the normal form it realizes.

    residual is the max-norm mismatch between the operator's matrix conjugated
    into the frame and the normal-form matrix of `data`; the reconstruction
    rejects anything above 1e-8 (relative).
    """

    frame: Frame
    data: BergerData
    residual: float


def _oriented_eigh(block: np.ndarray) -> tuple:
    """Ascending eigenvalues of a symmetric 3x3, and its eigenbasis turned to determinant +1."""
    w, v = np.linalg.eigh(block)
    v[:, 0] *= np.sign(np.linalg.det(v))
    return w, v


def reconstruct_frame(op: CurvatureOperator) -> FrameReconstruction:
    """Find an oriented orthonormal frame in which the operator is in normal form.

    Both duality blocks are diagonalized, each eigenbasis fixed to
    determinant +1.  The rotation x -> p x q turns the self-dual half by
    rho(p) and the anti-self-dual half by rho(q)^T, so p and q lifted from
    U+ and U-^T bring both blocks to ascending diagonal form at once.
    Repeated duality eigenvalues make the frame non-unique; the result is
    then flagged degenerate but still verified.
    """
    d = duality_decompose(op)
    data = berger_data(d)
    evp, up = _oriented_eigh(np.asarray(d.r_plus_block, dtype=float))
    evm, um = _oriented_eigh(np.asarray(d.r_minus_block, dtype=float))
    degenerate = float(min(np.diff(evp).min(), np.diff(evm).min())) < 1e-9 * d.scale
    p, q = rho_inverse(up), rho_inverse(um.T)
    frame = Frame(quaternion_rotation(p, q), degenerate=degenerate)

    # S, Bianchi and |Rc - lambda g| are invariant under the checked frame: check only the residual
    got = conjugate_matrices(op.matrix, frame.matrix)
    residual = float(np.abs(got - _normal_form_matrix(data)).max())
    if residual > 1e-8 * d.scale:
        raise InvalidOperatorError(
            f"frame reconstruction failed to reach normal form (residual {residual:.3e})"
        )
    return FrameReconstruction(frame, data, residual)


# -- the frame functional 2 K(e1, e2) + K(e1, e3) -------------------------------


def _search_invariants(alpha, beta) -> tuple:
    """c = tr M / 3 and the forms of _search_top, M = rho(u)^T diag(alpha) rho(u) + diag(beta).

    With a, b the centred alpha, beta and S = R o R (R = rho(u)), B = M - c I
    has |B|^2 = |a|^2 + |b|^2 + 2 sum a_j b_m S_jm and, by det(X + Y) for 3x3s
    and adj(R^T D R) = R^T adj(D) R, det B = prod(a) + prod(b) + sum (adj(a)_j
    b_m + a_j adj(b)_m) S_jm.  S is doubly stochastic, so the forms give (2p)^2
    = 2|B|^2/3 and 4 det B affinely in S_00, S_01 / 4, S_10 / 4 and S_11.
    """
    a, b = alpha - alpha.sum() / 3.0, beta - beta.sum() / 3.0
    adj_a, adj_b = a[[1, 0, 0]] * a[[2, 2, 1]], b[[1, 0, 0]] * b[[2, 2, 1]]
    forms = []
    for scale, k0, m in (
        (2.0 / 3.0, a @ a + b @ b, 2.0 * np.outer(a, b)),
        (4.0, a.prod() + b.prod(), np.outer(adj_a, b) + np.outer(a, adj_b)),
    ):
        corner = (m[:2, :2] - m[:2, 2:] - m[2:, :2] + m[2, 2]) * ((1, 4), (4, 1))
        k0 += m[0, 2] + m[1, 2] + m[2, 0] + m[2, 1] - m[2, 2]
        forms.append((scale * np.array([k0, *corner.flat])).tolist())
    return (alpha.sum() + beta.sum()) / 3.0, forms


def _search_top(g, c, forms) -> np.ndarray:
    """Top eigenvalue of _search_invariants' M at u = g / |g|, for each column of (4, n) g.

    rho(g) = |g|^2 rho(u): S_jm is a corner entry of rho(g) squared over |g|^4, with
    r00, r11 = w^2 - z^2 +- (x^2 - y^2) and r01, r10 = 2(xy -+ wz).  Smith's (1961)
    c + 2p cos(arccos(r) / 3), r = det B / (2 p^3), runs elementwise (a value does not
    depend on its block), off by up to sqrt(eps) x scale at a double top eigenvalue.
    """
    (w, x, y, z), (ww, xx, yy, zz) = g, g * g
    xy, wz, s, t = x * y, w * z, ww + xx, yy + zz
    norm4 = (s + t) * (s + t)
    e = [f * f / norm4 for f in (s - t, xy - wz, xy + wz, (ww - zz) - (xx - yy))]
    sq, det = (k[0] + k[1] * e[0] + k[2] * e[1] + k[3] * e[2] + k[4] * e[3] for k in forms)
    twice_p = np.sqrt(np.maximum(sq, 0.0))  # rounding can take |B|^2 just below 0
    r = det / np.maximum(sq * twice_p, np.finfo(float).tiny)  # where p = 0 any r gives c
    return c + twice_p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)


def frame_functional_min(
    op: CurvatureOperator, samples: int = 50000, seed: int = 0
) -> GridReport:
    """Minimum of 2 K(e1, e2) + K(e1, e3) over frames with K12 >= K13.

    Swapping e2 and e3 turns any frame into one satisfying the constraint, so
    the functional is 2 max(K12, K13) + min(K12, K13) = 1.5 (K12 + K13) +
    0.5 |K12 - K13|.  For fixed e1 let mu1 <= mu2 <= mu3 be the eigenvalues,
    with eigenvectors v1, v2, v3, of v -> K(e1, v) on e1^perp.  By Ky Fan the
    minimum over e2, e3 is 1.5 (mu1 + mu2), reached at e2, e3 = (v1 +- v2)/sqrt2.
    Since mu1 + mu2 + mu3 = lambda and the largest mu3 over e1 is a3, the
    minimum over all frames is the reported bound 1.5 (lambda - a3); it is
    below the adapted-frame value 2 a2 + a1 unless a1 = a2.

    The search runs over e1 = q only.  The frame (q, q i, q j, q k) turns
    only the self-dual half, by rho = rho(q), so in half the duality blocks
    the 3x3 of <R(e1 ^ f_j), e1 ^ f_k> is rho^T plus rho + minus + rho^T
    cross + cross^T rho.  With plus = P diag(alpha) P^T and minus =
    Q diag(beta) Q^T (P = rho(p), Q = rho(r)) its first two terms are
    Q (rho(u)^T diag(alpha) rho(u) + diag(beta)) Q^T, u = conj(p) q r.  As
    q -> u is orthogonal, the search draws u = g / |g| uniform on S^3 from
    `samples` normals g (np.random.default_rng(seed), blocks of SLAB_POINTS // 4)
    and ranks it on that matrix's top eigenvalue (_search_top): the inner
    minimum is 1.5 (trace - top).  The cross block left out, the traceless Ricci
    part, moves each eigenvalue by at most its spectral norm (Weyl), at most
    EINSTEIN_TOL x scale / 2 on an operator berger_data accepts.  The first
    strict maximum alone is normalised and mapped back to q; eigh on its 3x3,
    rebuilt from the operator's matrix at the wedges e1 ^ f_j, gives the
    extremum and the frame (e1, (v1 +- v2)/sqrt2, +-v3, oriented) attaining it.
    """
    if samples < 100:
        raise DomainError("need at least 100 samples")
    d = duality_decompose(op)
    data = berger_data(d)
    bound = 1.5 * float(data.lambda_einstein - data.a[2])

    # half the blocks (e1 ^ v has norm 1/sqrt2 in each duality half) at unit scale,
    # where the closed form's cubes stay in range
    scale = float(np.abs(op.matrix).max()) or 1.0
    alpha, vp = _oriented_eigh(d.r_plus_block / (2.0 * scale))
    beta, vm = _oriented_eigh(d.r_minus_block / (2.0 * scale))
    p, r = rho_inverse(vp), rho_inverse(vm)
    rng = np.random.default_rng(seed)
    block = SLAB_POINTS // 4
    best = None
    invariants = _search_invariants(alpha, beta)
    for lo in range(0, samples, block):
        g = rng.standard_normal((min(block, samples - lo), 4)).T
        top = _search_top(g, *invariants)
        i = int(np.argmax(top))
        if best is None or top[i] > best[0]:
            best = (top[i], g[:, i])
    g = best[1]
    u = g / np.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2] + g[3] * g[3])
    turn = quaternion_rotation(p * (1.0, -1.0, -1.0, -1.0), r)  # q -> u = conj(p) q r
    f = quaternion_rotation(turn.T @ u, (1.0, 0.0, 0.0, 0.0))  # columns q, q i, q j, q k
    mu, v = np.linalg.eigh(conjugate_matrices(op.matrix, f)[:3, :3])  # at e1 ^ f_j
    v = f[:, 1:] @ v
    frame = np.stack([f[:, 0], v[:, 0] + v[:, 1], v[:, 0] - v[:, 1], v[:, 2]], axis=1)
    frame[:, 1:3] /= math.sqrt(2.0)
    frame[:, 3] *= np.sign(np.linalg.det(frame))
    value = 1.5 * float(mu[0] + mu[1])
    return GridReport(value, tuple(map(tuple, frame.T)), samples, bound, "min")


def sample_berger_data(count: int, seed: int = 0, lambda_einstein: float = 1.0) -> list:
    """Seeded samples from the normal-form polytope at the given Einstein constant.

    The samples are not uniform on the polytope.  At Einstein constant 1, a1
    is uniform on [-1, 1/3], a2 is uniform on [a1, (1 - a1)/2] given a1, and
    a3 = 1 - a1 - a2.  Then (b1, b2) is drawn uniformly from the box
    |b1| <= (s1 + s2)/3, |b2| <= (s1 + s3)/3 (s_k the a-gaps), b3 = -b1 - b2,
    and the draw is kept when dominance(a, b) holds at zero slack; a rejected
    draw starts again from a1.  The result is rescaled to `lambda_einstein`.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    if not lambda_einstein > 0:
        raise DomainError("sampling requires a positive Einstein constant")
    rng = np.random.default_rng(seed)
    lam = float(lambda_einstein)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 10000 * max(1, count):
            raise RuntimeError("rejection sampling stalled")  # pragma: no cover
        a1 = rng.uniform(-1.0, 1.0 / 3.0)
        a2 = rng.uniform(a1, (1.0 - a1) / 2.0)
        a3 = 1.0 - a1 - a2
        s1, s2, s3 = a2 - a1, a3 - a1, a3 - a2
        b1 = rng.uniform(-(s1 + s2) / 3.0, (s1 + s2) / 3.0)
        b2 = rng.uniform(-(s1 + s3) / 3.0, (s1 + s3) / 3.0)
        a, b = (a1, a2, a3), (b1, b2, -b1 - b2)
        if all(dominance(a, b)):
            out.append(BergerData(tuple(x * lam for x in a), tuple(x * lam for x in b), lam))
    return out
