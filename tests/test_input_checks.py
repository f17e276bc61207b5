"""Each input check of the public API raises its error, with its message.

One case per guard that no other test reaches: a guard that nothing calls can
be deleted without any test noticing.
"""

import math
import re

import numpy as np
import pytest

from curv4 import (
    CurvatureOperator,
    Frame,
    QuadraticSurd,
    TangentPlane,
    euler_upper_per_vol,
    frame_functional_min,
    model_space,
    sample_berger_data,
)
from curv4.cli import run_verification
from curv4.errors import (
    Curv4Error,
    DomainError,
    ExactnessError,
    InvalidBergerError,
    InvalidOperatorError,
)
from curv4.io import BERGER_FORMAT, berger_from_json

SQRT2 = QuadraticSurd(0, 1, 2, 1)


def _exact_berger(entry):
    return {"format": BERGER_FORMAT, "a_exact": [entry, "0", "1"], "b_exact": ["0", "0", "0"]}


def _setattr(x):
    x.p = 1


CASES = {
    "frame-3x3": (lambda: Frame(np.eye(3)), InvalidOperatorError, "frame matrix must be 4x4"),
    "frame-reflection": (
        lambda: Frame(np.diag([-1.0, 1.0, 1.0, 1.0])),
        InvalidOperatorError,
        "frame must be positively oriented",
    ),
    "frame-samples": (
        lambda: frame_functional_min(model_space("cp2"), 99),
        DomainError,
        "need at least 100 samples",
    ),
    "sample-count": (lambda: sample_berger_data(-1), DomainError, "count must be nonnegative"),
    "sample-lambda-0": (
        lambda: sample_berger_data(1, lambda_einstein=0.0),
        DomainError,
        "sampling requires a positive Einstein constant",
    ),
    "sample-lambda-nan": (
        lambda: sample_berger_data(1, lambda_einstein=math.nan),
        DomainError,
        "sampling requires a positive Einstein constant",
    ),
    "plane-not-orthogonal": (
        lambda: TangentPlane((1.0, 0.0, 0.0, 0.0), (0.6, 0.8, 0.0, 0.0)),
        ValueError,
        "plane vectors must be orthogonal (tolerance 1e-12)",
    ),
    "exact-5-rows": (
        lambda: CurvatureOperator.from_exact([[0] * 6] * 5),
        InvalidOperatorError,
        "exact matrix must be 6x6",
    ),
    "exact-entry-1/0": (
        lambda: berger_from_json(_exact_berger("1/0")),
        InvalidBergerError,
        "bad exact entry '1/0'",
    ),
    "exact-entry-abc": (
        lambda: berger_from_json(_exact_berger("abc")),
        InvalidBergerError,
        "bad exact entry 'abc'",
    ),
    "euler-alpha-above-beta": (
        lambda: euler_upper_per_vol(1 / 3 + 1e-12, 1 / 3 - 1e-12),
        DomainError,
        "need alpha <= beta",
    ),
    "verify-unknown-lemma": (
        lambda: run_verification("nope"),
        Curv4Error,
        "unknown lemma 'nope'; choose from k3k1, ",
    ),
    "surd-setattr": (lambda: _setattr(SQRT2), AttributeError, "QuadraticSurd is immutable"),
    "surd-sqrt-negative": (
        lambda: QuadraticSurd.sqrt_rational(-1),
        ValueError,
        "square root of negative rational",
    ),
    "surd-as-fraction": (lambda: SQRT2.as_fraction(), ExactnessError, "is irrational"),
    "surd-divide-by-zero": (
        lambda: SQRT2 / QuadraticSurd.from_rational(0),
        ZeroDivisionError,
        "division by zero surd",
    ),
    "surd-compare-str": (
        lambda: SQRT2 < "1",
        TypeError,
        "cannot compare QuadraticSurd with <class 'str'>",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_check_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
