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

import numpy as np

from .bivector import (
    CurvatureOperator,
    DualityDecomposition,
    conjugate_operator,
    duality_decompose,
    factor_decomposable,
    haar_rotations,
    normal_form_rows,
    wedge_coordinates,
)
from .errors import DomainError, InvalidBergerError, InvalidOperatorError, NotEinsteinError
from .estimates import GridReport
from .surd import EXACT_TYPES, coerce


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
        if not all(math.isfinite(float(x)) for x in (*a, *b, lam)):
            raise InvalidBergerError("normal-form data and Einstein constant must be finite")
        scale = max(1.0, max(abs(float(x)) for x in (*a, *b, lam)))
        tol = 1e-9 * scale
        violations = []
        fa = [float(x) for x in a]
        fb = [float(x) for x in b]
        if not (fa[0] <= fa[1] + tol and fa[1] <= fa[2] + tol):
            violations.append("sectional triple a is not ascending")
        if abs(fa[0] + fa[1] + fa[2] - float(lam)) > tol:
            violations.append("sum(a) does not equal the Einstein constant")
        if abs(fb[0] + fb[1] + fb[2]) > tol:
            violations.append("sum(b) is nonzero (first Bianchi identity)")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if abs(fb[j] - fb[i]) > fa[j] - fa[i] + tol:
                violations.append(f"|b{j + 1} - b{i + 1}| exceeds a{j + 1} - a{i + 1}")
        if violations:
            raise InvalidBergerError("; ".join(violations))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lambda_einstein", lam)

    @property
    def is_exact(self) -> bool:
        return all(
            isinstance(x, EXACT_TYPES) for x in (*self.a, *self.b, self.lambda_einstein)
        )

    def normalized(self) -> "BergerData":
        """The same data rescaled to Einstein constant 1 (requires lambda > 0)."""
        lam = self.lambda_einstein
        if not float(lam) > 0:
            raise DomainError("normalization requires a positive Einstein constant")
        one = Fraction(1) if self.is_exact else 1.0
        return BergerData(
            tuple(x / lam for x in self.a), tuple(x / lam for x in self.b), one
        )


def berger_data(source) -> BergerData:
    """Extract normal-form data from an Einstein operator or its decomposition.

    The duality-block eigenvalues r+ and r- (ascending) give a = (r+ + r-)/2
    and b = (r+ - r-)/2.  Exact when the operator decomposes exactly.
    """
    d = source if isinstance(source, DualityDecomposition) else duality_decompose(source)
    if not d.is_einstein:
        raise NotEinsteinError("operator has a nonzero duality cross block")
    s, *spectra = coerce(d.s, *d.w_plus.eigenvalues, *d.w_minus.eigenvalues)
    wp, wm = spectra[:3], spectra[3:]
    twelfth = s / 12
    rp = [w + twelfth for w in wp]
    rm = [w + twelfth for w in wm]
    a = tuple((p + m) / 2 for p, m in zip(rp, rm))
    b = tuple((p - m) / 2 for p, m in zip(rp, rm))
    return BergerData(a, b, s / 4)


def berger_to_operator(d: BergerData) -> CurvatureOperator:
    """Build the block-diagonal normal-form operator [[A, B], [B, A]].

    Exact data yields an operator with an exact mirror, so a round trip
    through `berger_data` reproduces the input without drift.
    """
    lam = float(d.lambda_einstein)
    if all(isinstance(x, (int, Fraction)) for x in (*d.a, *d.b)):
        return CurvatureOperator.from_exact(normal_form_rows(d.a, d.b), lambda_einstein=lam)
    a = [float(x) for x in d.a]
    b = [float(x) for x in d.b]
    shift = (b[0] + b[1] + b[2]) / 3.0  # recenter float noise so Bianchi holds exactly
    return CurvatureOperator(normal_form_rows(a, [x - shift for x in b]), lambda_einstein=lam)


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
        if float(np.abs(q.T @ q - np.eye(4)).max()) > 1e-9:
            raise InvalidOperatorError("frame matrix must be orthogonal (tolerance 1e-9)")
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

    residual is the max-norm mismatch between the operator conjugated into the
    frame and the normal-form operator rebuilt from `data`; the reconstruction
    rejects anything above 1e-8 (relative).
    """

    frame: Frame
    data: BergerData
    residual: float


def _min_eigen_gap(vals: np.ndarray) -> float:
    return float(np.min(np.diff(vals)))


def reconstruct_frame(op: CurvatureOperator) -> FrameReconstruction:
    """Find an oriented orthonormal frame in which the operator is in normal form.

    Both duality blocks are diagonalized with consistent orientation (the
    eigenbasis determinants are fixed to +1, which SO(4) can always realize).
    The bottom eigenvector pair determines the planes of e1, e2 and e3, e4;
    the middle pair determines the rotation angle inside each plane.  Repeated
    duality eigenvalues make the frame non-unique; the result is then flagged
    degenerate but still verified.
    """
    d = duality_decompose(op)
    if not d.is_einstein:
        raise NotEinsteinError("operator has a nonzero duality cross block")
    scale = max(1.0, float(np.abs(op.matrix).max()))
    evp, up = np.linalg.eigh(np.asarray(d.r_plus_block, dtype=float))
    evm, um = np.linalg.eigh(np.asarray(d.r_minus_block, dtype=float))
    up = up.copy()
    um = um.copy()
    if np.linalg.det(up) < 0:
        up[:, 0] *= -1.0
    if np.linalg.det(um) < 0:
        um[:, 0] *= -1.0
    degenerate = (
        _min_eigen_gap(evp) < 1e-9 * scale or _min_eigen_gap(evm) < 1e-9 * scale
    )

    # planes of (e1, e2) and (e3, e4) from the bottom eigenvector pair
    x, y = up[:, 0], um[:, 0]
    sigma = np.concatenate([x + y, x - y]) / 2.0
    sigma_star = np.concatenate([x - y, x + y]) / 2.0
    f1, f2 = factor_decomposable(sigma)
    f3, f4 = factor_decomposable(sigma_star)

    # in-plane angles from the middle eigenvector pair: rotating (e1, e2) by
    # phi and (e3, e4) by psi turns the self-dual 2,3-plane by phi + psi and
    # the anti-self-dual one by psi - phi
    sqrt2 = math.sqrt(2.0)
    w2p = (wedge_coordinates(f1, f3) + wedge_coordinates(f4, f2)) / sqrt2
    w3p = (wedge_coordinates(f1, f4) + wedge_coordinates(f2, f3)) / sqrt2
    w2m = (wedge_coordinates(f1, f3) - wedge_coordinates(f4, f2)) / sqrt2
    w3m = (wedge_coordinates(f1, f4) - wedge_coordinates(f2, f3)) / sqrt2
    vp = np.concatenate([up[:, 1], up[:, 1]]) / sqrt2
    vm = np.concatenate([um[:, 1], -um[:, 1]]) / sqrt2
    theta_p = math.atan2(float(vp @ w3p), float(vp @ w2p))
    theta_m = math.atan2(float(vm @ w3m), float(vm @ w2m))
    phi = (theta_p - theta_m) / 2.0
    psi = (theta_p + theta_m) / 2.0
    cphi, sphi = math.cos(phi), math.sin(phi)
    cpsi, spsi = math.cos(psi), math.sin(psi)
    e1 = cphi * f1 + sphi * f2
    e2 = -sphi * f1 + cphi * f2
    e3 = cpsi * f3 + spsi * f4
    e4 = -spsi * f3 + cpsi * f4
    frame = Frame(np.stack([e1, e2, e3, e4], axis=1), degenerate=degenerate)

    data = berger_data(op)
    target = berger_to_operator(data)
    got = conjugate_operator(op, frame.matrix)
    residual = float(np.abs(got.matrix - target.matrix).max())
    if residual > 1e-8 * scale:
        raise InvalidOperatorError(
            f"frame reconstruction failed to reach normal form (residual {residual:.3e})"
        )
    return FrameReconstruction(frame, data, residual)


# -- the adapted-frame curvature functional --------------------------------------


def frame_functional_min(
    op: CurvatureOperator, samples: int = 50000, seed: int = 0
) -> GridReport:
    """Sampled minimum of 2 K(e1, e2) + K(e1, e3) over frames with K12 >= K13.

    Swapping e2 and e3 turns any frame into one satisfying the constraint, so
    each Haar-random rotation contributes 2 max(K12, K13) + min(K12, K13).
    The closed-form reference is the adapted-frame minimum 2 a2 + a1; sampled
    values below it (violation > 0) mean generic frames beat adapted ones.
    """
    if samples < 100:
        raise DomainError("need at least 100 samples")
    data = berger_data(op)
    bound = float(2 * data.a[1] + data.a[0])

    q = haar_rotations(samples, seed)
    m = op.matrix
    w12 = wedge_coordinates(q[:, :, 0], q[:, :, 1])
    w13 = wedge_coordinates(q[:, :, 0], q[:, :, 2])
    k12 = np.einsum("si,ij,sj->s", w12, m, w12)
    k13 = np.einsum("si,ij,sj->s", w13, m, w13)
    vals = 2.0 * np.maximum(k12, k13) + np.minimum(k12, k13)
    i = int(np.argmin(vals))
    return GridReport(float(vals[i]), tuple(map(tuple, q[i].T)), samples, bound, "min")


def sample_berger_data(count: int, seed: int = 0, lambda_einstein: float = 1.0) -> list:
    """Seeded samples from the normal-form polytope at the given Einstein constant.

    The samples are not uniform on the polytope.  At Einstein constant 1, a1
    is uniform on [-1, 1/3], a2 is uniform on [a1, (1 - a1)/2] given a1, and
    a3 = 1 - a1 - a2.  Then (b1, b2) is drawn uniformly from the box
    |b1| <= (s1 + s2)/3, |b2| <= (s1 + s3)/3 (s_k the a-gaps), b3 = -b1 - b2,
    and the draw is kept when all three dominance constraints hold; a rejected
    draw starts again from a1.  The result is rescaled to `lambda_einstein`.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    if not lambda_einstein > 0:
        raise DomainError("sampling requires a positive Einstein constant")
    rng = np.random.default_rng(seed)
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
        b3 = -b1 - b2
        if abs(b2 - b1) > s1 or abs(b3 - b1) > s2 or abs(b3 - b2) > s3:
            continue
        lam = float(lambda_einstein)
        out.append(
            BergerData(
                (a1 * lam, a2 * lam, a3 * lam), (b1 * lam, b2 * lam, b3 * lam), lam
            )
        )
    return out
