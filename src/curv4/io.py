"""JSON document formats for curvature operators and normal-form data.

Two tagged formats:

  curv4-op-v1      -- a 6x6 operator matrix in the fixed bivector basis, with
                      an optional Einstein constant and an optional exact
                      rational mirror ("p/q" strings)
  curv4-berger-v1  -- normal-form data (a, b, lambda) with optional exact
                      mirrors a_exact / b_exact / lambda_exact

Floats are authoritative unless the exact mirror is present, in which case the
exact values are loaded and the floats are regenerated from them.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .berger import BergerData
from .bivector import BASIS_LABEL, CurvatureOperator
from .errors import DomainError, InvalidBergerError, InvalidOperatorError
from .surd import QuadraticSurd

OPERATOR_FORMAT = "curv4-op-v1"
BERGER_FORMAT = "curv4-berger-v1"


def _number(value, error, name):
    try:
        return float(value)
    except (ValueError, TypeError) as exc:
        raise error(f"{name} must be a number, got {value!r}") from exc


def _parse_exact(value, error):
    if isinstance(value, bool) or isinstance(value, float):
        raise error("exact entries must be integers or 'p/q' strings")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise error(f"bad exact entry {value!r}") from exc


def operator_to_json(op: CurvatureOperator) -> dict:
    doc = {
        "format": OPERATOR_FORMAT,
        "basis": BASIS_LABEL,
        "matrix": [[float(x) for x in row] for row in op.matrix],
    }
    if op.lambda_einstein is not None:
        doc["einstein_lambda"] = float(op.lambda_einstein)
    if op.exact is not None:
        doc["exact"] = [[str(x) for x in row] for row in op.exact]
    return doc


def operator_from_json(doc: dict) -> CurvatureOperator:
    if not isinstance(doc, dict) or doc.get("format") != OPERATOR_FORMAT:
        raise InvalidOperatorError(f"expected a {OPERATOR_FORMAT} document")
    basis = doc.get("basis", BASIS_LABEL)
    if basis != BASIS_LABEL:
        raise InvalidOperatorError(f"unsupported basis order {basis!r}")
    lam = doc.get("einstein_lambda")
    if lam is not None:
        lam = _number(lam, InvalidOperatorError, "einstein_lambda")
    if "exact" in doc:
        try:
            rows = [[_parse_exact(x, InvalidOperatorError) for x in row] for row in doc["exact"]]
        except TypeError as exc:
            raise InvalidOperatorError("exact must be a 6x6 array of 'p/q' strings") from exc
        return CurvatureOperator.from_exact(rows, lambda_einstein=lam)
    try:
        matrix = np.asarray(doc["matrix"], dtype=float)
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidOperatorError("matrix must be a 6x6 array of numbers") from exc
    return CurvatureOperator(matrix, lambda_einstein=lam)


def _rational_or_none(x):
    if isinstance(x, QuadraticSurd):
        return x.as_fraction() if x.is_rational else None
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return None


def berger_to_json(data: BergerData) -> dict:
    doc = {
        "format": BERGER_FORMAT,
        "a": [float(x) for x in data.a],
        "b": [float(x) for x in data.b],
        "lambda": float(data.lambda_einstein),
    }
    # the format only carries rational mirrors; surd-exact data degrades to floats
    mirror = [_rational_or_none(x) for x in (*data.a, *data.b, data.lambda_einstein)]
    if data.is_exact and all(m is not None for m in mirror):
        doc["a_exact"] = [str(m) for m in mirror[0:3]]
        doc["b_exact"] = [str(m) for m in mirror[3:6]]
        doc["lambda_exact"] = str(mirror[6])
    return doc


def berger_from_json(doc: dict) -> BergerData:
    if not isinstance(doc, dict) or doc.get("format") != BERGER_FORMAT:
        raise InvalidBergerError(f"expected a {BERGER_FORMAT} document")
    if "a_exact" in doc or "b_exact" in doc:
        if not ("a_exact" in doc and "b_exact" in doc):
            raise InvalidBergerError("a_exact and b_exact must come together")
        try:
            a = tuple(_parse_exact(x, InvalidBergerError) for x in doc["a_exact"])
            b = tuple(_parse_exact(x, InvalidBergerError) for x in doc["b_exact"])
        except TypeError as exc:
            raise InvalidBergerError("a_exact and b_exact must be lists") from exc
        if "lambda_exact" in doc:
            lam = _parse_exact(doc["lambda_exact"], InvalidBergerError)
        else:
            lam = a[0] + a[1] + a[2]
        return BergerData(a, b, lam)
    try:
        a = tuple(float(x) for x in doc["a"])
        b = tuple(float(x) for x in doc["b"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidBergerError("a and b must be numeric triples") from exc
    lam = _number(doc.get("lambda", sum(a)), InvalidBergerError, "lambda")
    return BergerData(a, b, lam)


def load_any(doc: dict):
    """Dispatch on the format tag; returns a CurvatureOperator or BergerData."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == OPERATOR_FORMAT:
        return operator_from_json(doc)
    if fmt == BERGER_FORMAT:
        return berger_from_json(doc)
    raise DomainError(f"unrecognized document format {fmt!r}")


def read_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: not valid JSON ({exc})") from exc
