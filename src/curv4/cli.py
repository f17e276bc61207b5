"""Command-line interface.

Subcommands:

  models       print the model-space operators (sphere, rp4, cp2, s2xs2)
  decompose    duality decomposition of an operator document
  berger       normal-form data of an operator document
  verify       run one closed-form bound against its brute-force oracle
  verify-all   run the whole verification battery
  classify     evaluate the rigidity conditions on an operator or data file
  chi-tau      admissible (signature, Euler characteristic) pairs at a pinch
  constants    the sharp thresholds, exactly and as decimal enclosures

Exit codes: 0 success / verification passed, 1 a verification failed,
2 usage or input error (including a verify grid outside MIN_GRID..MAX_GRID
and a negative seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .berger import (
    BergerData,
    berger_data,
    berger_data_stack,
    berger_to_operator,
    reconstruct_frame,
)
from .bivector import (
    MODEL_BLOCKS,
    MODEL_INFO,
    MODEL_NAMES,
    CurvatureOperator,
    conjugate_matrices,
    duality_decompose,
    haar_rotations,
    model_space,
)
from .classify import classify, wpm_discriminant_oracle
from .errors import Curv4Error, DomainError
from .estimates import (
    SLAB_POINTS,
    GridReport,
    hamilton_gap,
    lemma_algebraic2_oracle,
    lemma_k3k1_oracle,
    pointwise_bound_oracle,
    sharp_constants,
)
from .io import (
    berger_to_json,
    load_any,
    operator_to_json,
    read_document,
)
from .topology import admissible_types


def _hamilton_models_check(rotations: int, seed: int) -> GridReport:
    """Exact zero gaps on the models, plus gap stability under random frames.

    Each block of rotations is one (n, 6, 6) stack of conjugated operators.
    berger_data_stack runs on it every check the scalar path runs on one
    operator, and each gap is bit for bit that of
    hamilton_gap(berger_data(conjugate_operator(op, q))).
    """
    names = ("sphere", "cp2", "s2xs2")
    ops = [model_space(name) for name in names]
    for name, op in zip(names, ops):
        if hamilton_gap(berger_data(op)) != 0:
            return GridReport(math.inf, (name,), rotations, 0.0)  # pragma: no cover
    worst, arg = 0.0, ("exact",)
    # one stream: model k gets rotations k*rotations.. of haar_rotations,
    # drawn in blocks so memory stays flat whatever `rotations` is
    rng = np.random.default_rng(seed)
    block = SLAB_POINTS // 16
    for name, op in zip(names, ops):
        for lo in range(0, rotations, block):
            frames = haar_rotations(min(block, rotations - lo), rng)
            data = berger_data_stack(conjugate_matrices(op.matrix, frames), op.lambda_einstein)
            gap = float(np.abs(hamilton_gap(data)).max())
            if gap > worst:
                worst, arg = gap, (name,)
    return GridReport(worst, arg, rotations, 0.0)


@dataclass(frozen=True)
class _Lemma:
    """One row of the verification table.

    oracle   -- called as oracle(grid, **params), returns a GridReport
    params   -- (report name, source, default) per parameter; the source is the
                run_verification argument it comes from (alpha / delta, which
                the CLI sets with --alpha / --delta, or grid / seed)
    grid     -- default grid: subdivisions per axis, or rotations per model
    tol      -- largest violation that still passes
    argument -- also report the oracle's argument
    """

    oracle: Callable[..., GridReport]
    params: tuple
    grid: int
    tol: float
    argument: bool = False


_LEMMAS = {
    "k3k1": _Lemma(
        lambda grid, alpha, delta: lemma_k3k1_oracle(alpha, delta, resolution=grid),
        (("alpha", "alpha", 5.0 / 6.0), ("delta", "delta", 1.0)),
        400,
        1e-9,
    ),
    "algebraic2": _Lemma(
        lambda grid, a, b: lemma_algebraic2_oracle(a, b, resolution=grid),
        (("a", "alpha", 1.0), ("b", "delta", 1.0)),
        400,
        1e-6,
    ),
    "kupper": _Lemma(
        lambda grid, alpha: pointwise_bound_oracle("kupper", alpha, resolution=grid),
        (("alpha", "alpha", 2.0 / 3.0),),
        120,
        1e-9,
    ),
    "kdiff": _Lemma(
        lambda grid, alpha: pointwise_bound_oracle("kdiff", alpha, resolution=grid),
        (("alpha", "alpha", 0.5),),
        120,
        1e-9,
    ),
    "a2a1": _Lemma(
        lambda grid, delta: pointwise_bound_oracle("a2a1", delta, resolution=grid),
        (("delta", "delta", 1.0 / 6.0),),
        120,
        1e-9,
    ),
    "wpm-discriminant": _Lemma(
        lambda grid: wpm_discriminant_oracle(resolution=grid), (), 400, 1e-9
    ),
    "hamilton-models": _Lemma(
        lambda grid, rotations, seed: _hamilton_models_check(rotations, seed),
        (("rotations", "grid", None), ("seed", "seed", None)),
        32,
        1e-9,
        argument=True,
    ),
}

LEMMA_NAMES = tuple(_LEMMAS)

# the smallest grid any lemma accepts: below it an oracle checks too few
# points (or none) for a pass to mean anything
MIN_GRID = 8
# the largest: an oracle's axis arrays grow with the grid, about 1 MB each here
MAX_GRID = 10**5
_GRID_HELP = (
    "grid subdivisions per axis, or rotations per model for hamilton-models "
    f"({MIN_GRID} to {MAX_GRID})"
)


def run_verification(lemma: str, alpha=None, delta=None, grid=None, seed: int = 0) -> dict:
    """One named bound against its oracle; returns the report dictionary."""
    if lemma not in _LEMMAS:
        raise Curv4Error(f"unknown lemma {lemma!r}; choose from {', '.join(LEMMA_NAMES)}")
    row = _LEMMAS[lemma]
    grid = row.grid if grid is None else grid
    if grid < MIN_GRID:
        raise DomainError(f"grid {grid} is below the minimum {MIN_GRID}")
    if grid > MAX_GRID:
        raise DomainError(f"grid {grid} is above the maximum {MAX_GRID}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    # a NaN slips past every `x < 0` guard and an oracle then checks nothing;
    # a value the lemma does not read would pass a check of its defaults
    sources = {source for _, source, _ in row.params}
    for name, value in (("alpha", alpha), ("delta", delta)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
        if value is not None and name not in sources:
            raise DomainError(f"lemma {lemma} takes no {name} (--{name})")
    given = {"alpha": alpha, "delta": delta, "grid": grid, "seed": seed}
    params = {
        name: default if given[source] is None else given[source]
        for name, source, default in row.params
    }
    # finite parameters can still overflow floats, and inf or NaN gives no verdict
    start = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            report = row.oracle(grid, **params)
    except (FloatingPointError, OverflowError) as exc:
        raise DomainError(f"lemma {lemma} leaves the float range at {params}: {exc}") from None
    elapsed = (time.perf_counter() - start) * 1000.0
    if not math.isfinite(report.bound):
        raise DomainError(f"lemma {lemma} has bound {report.bound} at {params}")
    doc = {
        "lemma": lemma,
        "params": params,
        "bound": report.bound,
        "oracle_extremum": report.extremum,
        "violation": report.violation,
        "resolution": report.resolution,
        "elapsed_ms": elapsed,
        "feasible": report.feasible,
        "pass": report.violation <= row.tol,
    }
    if row.argument:
        doc["argument"] = list(report.argument)
    return doc


_BATTERY = (
    ("k3k1", {"alpha": 5.0 / 6.0, "delta": 1.0}),
    ("k3k1", {"alpha": 2.0 / 3.0, "delta": 0.0}),
    ("k3k1", {"alpha": 1.0, "delta": 0.5}),
    ("k3k1", {"alpha": 0.9, "delta": 0.4}),
    ("algebraic2", {"alpha": 1.0, "delta": 1.0}),
    ("algebraic2", {"alpha": 0.25, "delta": 1.0}),
    ("algebraic2", {"alpha": 1.0, "delta": 0.5}),
    ("algebraic2", {"alpha": 0.2, "delta": 0.9}),
    ("kupper", {"alpha": 1.0 / 3.0}),
    ("kupper", {"alpha": 0.5}),
    ("kupper", {"alpha": 2.0 / 3.0}),
    ("kupper", {"alpha": math.sqrt(3.0) / 2.0}),
    ("kupper", {"alpha": 1.0}),
    ("kdiff", {"alpha": 0.0}),
    ("kdiff", {"alpha": 0.25}),
    ("kdiff", {"alpha": 0.5}),
    ("kdiff", {"alpha": math.sqrt(3.0) - 1.0}),
    ("kdiff", {"alpha": 1.2}),
    ("a2a1", {"delta": 0.0}),
    ("a2a1", {"delta": 1.0 / 12.0}),
    ("a2a1", {"delta": 1.0 / 6.0}),
    ("a2a1", {"delta": 0.25}),
    ("a2a1", {"delta": 1.0 / 3.0}),
    ("wpm-discriminant", {}),
    ("hamilton-models", {}),
)


def run_battery(grid=None, seed: int = 0) -> dict:
    checks = [run_verification(lemma, grid=grid, seed=seed, **params) for lemma, params in _BATTERY]
    failures = sum(1 for c in checks if not c["pass"])
    return {"checks": checks, "failures": failures}


# -- document helpers ---------------------------------------------------------


def _load_operator(path: str) -> CurvatureOperator:
    obj = load_any(read_document(path))
    if isinstance(obj, BergerData):
        return berger_to_operator(obj)
    return obj


def _decompose_doc(op: CurvatureOperator) -> dict:
    d = duality_decompose(op)
    return {
        "s": float(d.s),
        "einstein_lambda": float(d.s) / 4.0,
        "w_plus": [float(x) for x in d.w_plus.eigenvalues],
        "w_minus": [float(x) for x in d.w_minus.eigenvalues],
        "traceless_ricci_norm_sq": float(d.traceless_ricci_norm_sq),
        "cross_norm": d.cross_norm,
        "is_einstein": d.is_einstein,
    }


def _print(doc: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in table_lines(doc):
            print(line)


# -- subcommand implementations -------------------------------------------------


def _cmd_models(args) -> int:
    names = [args.name] if args.name else list(MODEL_NAMES)
    docs = {}
    for name in names:
        op = model_space(name)
        info = MODEL_INFO[name]
        doc = operator_to_json(op)
        doc.update(
            {
                "model": name,
                "euler": info["euler"],
                "signature": info["signature"],
                "description": info["description"],
            }
        )
        docs[name] = doc
    if args.format == "json":
        out = docs[args.name] if args.name else {"format": "curv4-models-v1", "models": docs}
        print(json.dumps(out, indent=2))
        return 0
    for name in names:
        info = MODEL_INFO[name]
        a, b = (", ".join(str(Fraction(x)) for x in block) for block in MODEL_BLOCKS[name])
        tau = "-" if info["signature"] is None else str(info["signature"])
        print(f"{name:8s} a = ({a})  b = ({b})  chi = {info['euler']}  tau = {tau}")
        print(f"{'':8s} {info['description']}")
    return 0


def _cmd_decompose(args) -> int:
    op = _load_operator(args.infile)
    doc = _decompose_doc(op)

    def lines(d):
        yield f"scalar curvature   {d['s']:+.12g}"
        yield f"einstein constant  {d['einstein_lambda']:+.12g}"
        yield f"w+ spectrum        {d['w_plus']}"
        yield f"w- spectrum        {d['w_minus']}"
        yield f"|E|^2              {d['traceless_ricci_norm_sq']:.3e}"
        yield f"cross-block norm   {d['cross_norm']:.3e}"
        yield f"einstein           {d['is_einstein']}"

    _print(doc, args.format, lines)
    return 0


def _cmd_berger(args) -> int:
    op = _load_operator(args.infile)
    data = berger_data(op)
    doc = berger_to_json(data)
    if args.frame:
        rec = reconstruct_frame(op)
        doc["frame"] = [[float(x) for x in row] for row in rec.frame.matrix]
        doc["frame_residual"] = rec.residual
        doc["frame_degenerate"] = rec.frame.degenerate

    def lines(d):
        yield f"a      {d['a']}"
        yield f"b      {d['b']}"
        yield f"lambda {d['lambda']}"
        if "a_exact" in d:
            yield f"exact  a = {d['a_exact']}  b = {d['b_exact']}"
        if "frame" in d:
            yield f"frame residual {d['frame_residual']:.3e} degenerate {d['frame_degenerate']}"

    _print(doc, args.format, lines)
    return 0


def _verify_lines(doc):
    mark = "PASS" if doc["pass"] else "FAIL"
    p = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in doc["params"].items())
    yield (
        f"{mark} {doc['lemma']} [{p}] bound={doc['bound']:.9g} "
        f"oracle={doc['oracle_extremum']:.9g} violation={doc['violation']:.3g} "
        f"({doc['elapsed_ms']:.0f} ms)"
    )


def _cmd_verify(args) -> int:
    doc = run_verification(args.lemma, args.alpha, args.delta, args.grid, args.seed)
    _print(doc, args.format, _verify_lines)
    return 0 if doc["pass"] else 1


def _cmd_verify_all(args) -> int:
    doc = run_battery(args.grid, args.seed)

    def lines(d):
        for check in d["checks"]:
            yield from _verify_lines(check)
        yield f"{len(d['checks']) - d['failures']}/{len(d['checks'])} checks passed"

    _print(doc, args.format, lines)
    return 0 if doc["failures"] == 0 else 1


def _cmd_classify(args) -> int:
    obj = load_any(read_document(args.infile))
    verdict = classify(obj)
    doc = {
        "verdict": verdict.verdict,
        "candidates": list(verdict.candidates),
        "normalized_a": [float(x) for x in verdict.data.a],
        "normalized_b": [float(x) for x in verdict.data.b],
        "rows": [asdict(r) for r in verdict.rows],
        "skipped": [{"name": name, "reason": reason} for name, reason in verdict.skipped],
    }

    def lines(d):
        for r in verdict.rows:
            yield str(r)
        yield f"verdict: {d['verdict']}"
        if d["candidates"]:
            yield "compatible models: " + ", ".join(d["candidates"])

    _print(doc, args.format, lines)
    return 0


_SNAP_TOLERANCE = 5e-4


def _snap_alpha(x: float):
    """Snap a decimal pinching level to a nearby exact constant.

    Decimal truncations of the sharp thresholds (for example 0.0446 for
    (2 - sqrt3)/6) must behave like the exact value: the volume cap is an
    integer exactly at those points and a float would land on the wrong side.
    """
    surd = sharp_constants()["constants"]["euler_pinch_alpha"].value
    candidates = [(surd.expression(), surd)]
    for k in range(0, 5):
        frac = Fraction(k, 12)
        candidates.append((str(frac), frac))
    for label, value in candidates:
        if abs(x - float(value)) <= _SNAP_TOLERANCE:
            return value, label
    return x, None


def _cmd_chi_tau(args) -> int:
    alpha, label = _snap_alpha(args.alpha)
    report = admissible_types(alpha)
    doc = {
        "alpha": float(report.alpha),
        "alpha_exact": label,
        "cap": float(report.cap),
        "cap_exact": None if isinstance(report.cap, float) else str(report.cap),
        "pairs": [list(p) for p in report.pairs],
        "degenerate": report.degenerate,
    }
    if args.explain:
        doc["trail"] = list(report.trail)

    def lines(d):
        shown = d["alpha_exact"] or f"{d['alpha']:.6g}"
        yield f"alpha = {shown}, chi cap = {d['cap']:.6g} (strict)"
        for tau, chi in d["pairs"]:
            yield f"  tau = {tau}  chi = {chi}"
        if d["degenerate"]:
            yield "  (boundary fallback: constant-curvature type)"
        if args.explain:
            for line in d["trail"]:
                yield f"  . {line}"

    _print(doc, args.format, lines)
    return 0


def _cmd_constants(args) -> int:
    book = sharp_constants()
    doc = {
        "constants": {
            name: {
                "expression": c.value.expression(),
                "decimal": c.decimal,
                "enclosure": list(c.enclosure),
                "role": c.role,
            }
            for name, c in book["constants"].items()
        },
        "identities": book["identities"],
    }

    def lines(d):
        for name, c in d["constants"].items():
            yield f"{name:24s} {c['expression']:>16s} = {c['decimal']}  ({c['role']})"
        for name, ok in d["identities"].items():
            yield f"identity {name}: {'ok' if ok else 'FAIL'}"

    _print(doc, args.format, lines)
    return 0 if all(book["identities"].values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curv4",
        description="curvature algebra of Einstein four-manifolds: "
        "normal forms, pinching bounds, and their brute-force verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("models", help="model-space operators")
    p.add_argument("--name", choices=MODEL_NAMES)
    add_format(p)
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("decompose", help="duality decomposition of an operator")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("berger", help="normal-form data of an operator")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--frame", action="store_true", help="also reconstruct an adapted frame")
    add_format(p)
    p.set_defaults(func=_cmd_berger)

    p = sub.add_parser("verify", help="one closed-form bound against its oracle")
    p.add_argument("--lemma", required=True, choices=LEMMA_NAMES)
    p.add_argument("--alpha", type=float, help="first parameter (meaning depends on the lemma)")
    p.add_argument("--delta", type=float, help="second parameter (meaning depends on the lemma)")
    p.add_argument("--grid", type=int, help=_GRID_HELP)
    p.add_argument("--seed", type=int, default=0, help="seed for sampling oracles")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-all", help="the whole verification battery")
    p.add_argument("--grid", type=int, help=_GRID_HELP)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("classify", help="rigidity conditions on an operator or data file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("chi-tau", help="admissible (tau, chi) pairs at a pinching level")
    p.add_argument("--alpha", type=float, required=True, help="pinching level in [0, 1/3]")
    p.add_argument("--explain", action="store_true", help="include the filter trail")
    add_format(p)
    p.set_defaults(func=_cmd_chi_tau)

    p = sub.add_parser("constants", help="sharp thresholds with exact enclosures")
    add_format(p)
    p.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, Curv4Error) as exc:
        print(f"curv4: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
