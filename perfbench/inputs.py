"""Seeded input generators for the curv4 benchmark (numpy and stdlib only).

Nothing here calls curv4: the program under test receives only the documents
written by these generators.  Every document is drawn from its own
``numpy.random.default_rng([seed, stream, index])``, so document ``i`` of a
seed is the same whatever the pool size, and a process that only measures
set-up can rebuild the first document without building the whole pool.

Normal-form data (a, b) at Einstein constant 1 lives in the polytope

    a1 <= a2 <= a3,  a1 + a2 + a3 = 1,  b1 + b2 + b3 = 0,
    |b_j - b_i| <= a_j - a_i  (i < j),

and the generators cover its slab a1 in [-1, 1/3] by uniform box rejection in
the coordinates (a1, a2, b1, b2).  The bounding box follows from the
constraints: a2 in [-1, 1] and |b_i| <= (4/3).

The slab is split at the spread a3 - a2 = 2.  At the seed commit `classify`
raises DomainError on data with a spread of 2 or more (ROADMAP item 4a), so the
timed mixes draw only from the part below it, where every request must
succeed; documents from the part above it form a separate fixed set on which
the traced run counts the DomainErrors (`out_of_domain_requests`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

BASIS_PAIRS = ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))
BASIS_LABEL = "e12,e13,e14,e34,e42,e23"
OPERATOR_FORMAT = "curv4-op-v1"
BERGER_FORMAT = "curv4-berger-v1"


def _fractions(*xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


# normal forms (a, b) of the model geometries at Einstein constant 1
MODELS = {
    "sphere": (_fractions("1/3", "1/3", "1/3"), _fractions(0, 0, 0)),
    "rp4": (_fractions("1/3", "1/3", "1/3"), _fractions(0, 0, 0)),
    "cp2": (_fractions("1/6", "1/6", "2/3"), _fractions("-1/6", "-1/6", "1/3")),
    "s2xs2": (_fractions(0, 0, 1), _fractions(0, 0, 0)),
}
MODEL_NAMES = tuple(MODELS)

# numeric stream ids keep the per-document generators of the workloads apart
_STREAM = {"oracles": 0, "documents": 1, "exact": 2}

LATTICE_DEN = 60
BATCH = 256


@dataclass(frozen=True)
class Request:
    """One generated request: its kind, the inputs and what the checks expect.

    kind      -- which pipeline the request runs (see workloads.py)
    path      -- the document file, for document kinds
    a, b      -- the generated normal form at Einstein constant `scale`
                 (floats, or Fractions for exact documents)
    scale     -- Einstein constant the document was written at
    model     -- the model a model document was built from, else None
    alpha     -- pinching level of a chi-tau request, else None
    seed      -- sampling seed of an oracle pass
    """

    kind: str
    path: str | None = None
    a: tuple = ()
    b: tuple = ()
    scale: float = 1.0
    model: str | None = None
    alpha: object = None
    seed: int = 0

    @property
    def a3_gt_1(self) -> bool:
        return bool(self.a) and float(self.a[2]) > 1.0 * float(self.scale)

    @property
    def exact(self) -> bool:
        return self.kind.startswith("exact") or self.kind in ("chi_tau", "constants")


# -- geometry, written independently of curv4 ------------------------------------


def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of SO(4) (QR with the sign fix, then det +1)."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def induced_rotation(q: np.ndarray) -> np.ndarray:
    """6x6 action of a rotation of R^4 on the bivector basis e12..e23."""
    cols = []
    for i, j in BASIS_PAIRS:
        u, v = q[:, i - 1], q[:, j - 1]
        cols.append([u[k - 1] * v[l - 1] - u[l - 1] * v[k - 1] for k, l in BASIS_PAIRS])
    return np.array(cols).T


def normal_form_rows(a, b) -> list:
    """[[A, B], [B, A]] with A = diag(a), B = diag(b), in the entries' own type."""
    zero = a[0] * 0
    rows = [[zero] * 6 for _ in range(6)]
    for i in range(3):
        rows[i][i] = rows[i + 3][i + 3] = a[i]
        rows[i][i + 3] = rows[i + 3][i] = b[i]
    return rows


def rotated_matrix(a, b, rng: np.random.Generator) -> np.ndarray:
    """The normal form written in a Haar-random oriented frame."""
    l6 = induced_rotation(haar_rotation(rng))
    m = l6 @ np.array(normal_form_rows(a, b), dtype=float) @ l6.T
    return (m + m.T) / 2.0


def _in_polytope(a1, a2, b1, b2, total=1.0, wide=False):
    """Points of the polytope whose spread a3 - a2 is below 2 * total (at least
    2 * total when `wide`)."""
    a3 = total - a1 - a2
    b3 = -b1 - b2
    ok = (a1 <= a2) & (a2 <= a3)
    ok &= np.abs(b2 - b1) <= a2 - a1
    ok &= np.abs(b3 - b1) <= a3 - a1
    ok &= np.abs(b3 - b2) <= a3 - a2
    ok &= (a3 - a2 >= 2 * total) == wide
    return ok


def uniform_point(rng: np.random.Generator, wide: bool = False):
    """Uniform float point of the slab a1 in [-1, 1/3] with spread below 2 (at
    least 2 when `wide`), by box rejection."""
    while True:
        a1 = rng.uniform(-1.0, 1.0 / 3.0, BATCH)
        a2 = rng.uniform(-1.0, 1.0, BATCH)
        b1 = rng.uniform(-4.0 / 3.0, 4.0 / 3.0, BATCH)
        b2 = rng.uniform(-4.0 / 3.0, 4.0 / 3.0, BATCH)
        hit = np.flatnonzero(_in_polytope(a1, a2, b1, b2, wide=wide))
        if hit.size:
            k = hit[0]
            a = (float(a1[k]), float(a2[k]), 1.0 - float(a1[k]) - float(a2[k]))
            b = (float(b1[k]), float(b2[k]), -float(b1[k]) - float(b2[k]))
            return a, b


def lattice_point(rng: np.random.Generator, wide: bool = False):
    """Uniform point of the same part of the slab on the lattice (1/60) Z^4, as Fractions."""
    n = LATTICE_DEN
    while True:
        # integer numerators over n keep the rejection test exact
        i = rng.integers(-n, n // 3, BATCH, endpoint=True)
        j = rng.integers(-n, n, BATCH, endpoint=True)
        k = rng.integers(-4 * n // 3, 4 * n // 3, BATCH, endpoint=True)
        m = rng.integers(-4 * n // 3, 4 * n // 3, BATCH, endpoint=True)
        hit = np.flatnonzero(_in_polytope(i, j, k, m, total=n, wide=wide))
        if hit.size:
            i1, j1, k1, m1 = (int(v[hit[0]]) for v in (i, j, k, m))
            a = (Fraction(i1, n), Fraction(j1, n), Fraction(n - i1 - j1, n))
            b = (Fraction(k1, n), Fraction(m1, n), Fraction(-k1 - m1, n))
            return a, b


def pulled_point(rng: np.random.Generator):
    """A model pulled toward a uniform point by t in [0, 0.1], kept when a3 <= 1."""
    while True:
        name = MODEL_NAMES[int(rng.integers(len(MODEL_NAMES)))]
        ma, mb = MODELS[name]
        xa, xb = uniform_point(rng)
        t = float(rng.uniform(0.0, 0.1))
        a = tuple((1.0 - t) * float(p) + t * q for p, q in zip(ma, xa))
        b = tuple((1.0 - t) * float(p) + t * q for p, q in zip(mb, xb))
        if a[2] <= 1.0:
            return a, b


# -- documents ---------------------------------------------------------------------


def _fmt(x) -> str:
    return str(Fraction(x))


def operator_doc(matrix, lam: float, exact: bool = False) -> dict:
    """A curv4-op-v1 document; `exact` adds the rational mirror of `matrix`."""
    doc = {
        "format": OPERATOR_FORMAT,
        "basis": BASIS_LABEL,
        "matrix": [[float(x) for x in row] for row in matrix],
        "einstein_lambda": float(lam),
    }
    if exact:
        doc["exact"] = [[_fmt(x) for x in row] for row in matrix]
    return doc


def berger_doc(a, b, lam, exact: bool) -> dict:
    doc = {
        "format": BERGER_FORMAT,
        "a": [float(x) for x in a],
        "b": [float(x) for x in b],
        "lambda": float(lam),
    }
    if exact:
        doc["a_exact"] = [_fmt(x) for x in a]
        doc["b_exact"] = [_fmt(x) for x in b]
        doc["lambda_exact"] = _fmt(lam)
    return doc


# The mixes are exact per block of requests: each block holds every slot of
# the pattern once, in an order shuffled by the seed, so the share of each
# kind does not vary between seeds; the points themselves do.
DOCUMENT_MIX = (
    ("uniform_op",) * 27 + ("uniform_berger",) * 3 + ("pulled",) * 15 + ("model",) * 5
)
EXACT_MIX = (
    ("exact_berger",) * 40
    + ("exact_op",) * 30
    + ("exact_model",) * 10
    + ("chi_tau",) * 13
    + ("chi_tau_pinch",) * 2
    + ("constants",) * 5
)


def _slot(seed: int, workload: str, index: int, mix: tuple) -> str:
    block, slot = divmod(index, len(mix))
    order = np.random.default_rng([seed, _STREAM[workload], block, 1]).permutation(len(mix))
    return mix[order[slot]]


def _doc_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload], index])


def float_document(seed: int, index: int):
    """Document `index` of the `documents` mix: (kind, doc, Request fields)."""
    slot = _slot(seed, "documents", index, DOCUMENT_MIX)
    rng = _doc_rng(seed, "documents", index)
    lam = float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    model = None
    if slot.startswith("uniform"):
        a, b = uniform_point(rng)
        kind = "float_berger" if slot == "uniform_berger" else "float_op"
    elif slot == "pulled":
        a, b = pulled_point(rng)
        kind = "float_op"
    else:
        model = MODEL_NAMES[int(rng.integers(len(MODEL_NAMES)))]
        a, b = (tuple(float(x) for x in v) for v in MODELS[model])
        kind = "float_model"
    a = tuple(lam * x for x in a)
    b = tuple(lam * x for x in b)
    if kind == "float_berger":
        doc = berger_doc(a, b, lam, exact=False)
    else:
        doc = operator_doc(rotated_matrix(a, b, rng), lam)
    return kind, doc, dict(a=a, b=b, scale=lam, model=model)


EULER_PINCH_DECIMAL = 0.0446


def exact_document(seed: int, index: int):
    """Request `index` of the `exact` mix: (kind, doc or None, Request fields)."""
    slot = _slot(seed, "exact", index, EXACT_MIX)
    rng = _doc_rng(seed, "exact", index)
    if slot == "exact_berger":
        a, b = lattice_point(rng)
        return slot, berger_doc(a, b, Fraction(1), exact=True), dict(a=a, b=b)
    if slot == "exact_op":
        a, b = lattice_point(rng)
        return slot, operator_doc(normal_form_rows(a, b), 1.0, exact=True), dict(a=a, b=b)
    if slot == "exact_model":
        model = MODEL_NAMES[int(rng.integers(len(MODEL_NAMES)))]
        a, b = MODELS[model]
        doc = operator_doc(normal_form_rows(a, b), 1.0, exact=True)
        return slot, doc, dict(a=a, b=b, model=model)
    if slot == "chi_tau_pinch":
        return "chi_tau", None, dict(alpha=EULER_PINCH_DECIMAL)
    if slot == "chi_tau":
        return slot, None, dict(alpha=Fraction(int(rng.integers(0, 200, endpoint=True)), 600))
    return slot, None, {}


def oracle_pass(seed: int, index: int):
    """Pass `index` of the `oracles` workload: only its sampling seed varies."""
    rng = _doc_rng(seed, "oracles", index)
    return "oracles", None, dict(seed=int(rng.integers(0, 2**31)))


def out_of_domain_document(workload: str, seed: int, index: int):
    """Document `index` of the fixed set with spread a3 - a2 >= 2: a Haar-rotated
    float operator for `documents`, an exact normal form for `exact`."""
    rng = np.random.default_rng([seed, _STREAM[workload], index, 2])
    if workload == "exact":
        a, b = lattice_point(rng, wide=True)
        return "exact_berger", berger_doc(a, b, Fraction(1), exact=True), dict(a=a, b=b)
    lam = float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    a, b = uniform_point(rng, wide=True)
    a = tuple(lam * x for x in a)
    b = tuple(lam * x for x in b)
    return "float_op", operator_doc(rotated_matrix(a, b, rng), lam), dict(a=a, b=b, scale=lam)


GENERATORS = {"oracles": oracle_pass, "documents": float_document, "exact": exact_document}
OUT_OF_DOMAIN = 64


def _write(make, indices, workdir: str, prefix: str) -> list:
    """Write the documents make(index) gives under `workdir`; return their Requests."""
    out = []
    for index in indices:
        kind, doc, fields = make(index)
        path = None
        if doc is not None:
            path = os.path.join(workdir, f"{prefix}{index:06d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out.append(Request(kind, path, **fields))
    return out


def build_requests(workload: str, seed: int, indices, workdir: str) -> list:
    """The Requests of `indices` of the workload's timed mix, documents written."""
    make = GENERATORS[workload]
    return _write(lambda index: make(seed, index), indices, workdir, "doc")


def out_of_domain_requests(workload: str, seed: int, workdir: str) -> list:
    """The OUT_OF_DOMAIN requests with spread >= 2; none for `oracles`."""
    if workload == "oracles":
        return []
    return _write(
        lambda index: out_of_domain_document(workload, seed, index),
        range(OUT_OF_DOMAIN),
        workdir,
        "wide",
    )
