"""JSON round trips and the command-line surface (driven in process)."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curv4 import (
    BergerData,
    QuadraticSurd,
    berger_data,
    berger_from_json,
    berger_to_json,
    duality_decompose,
    load_any,
    model_space,
    operator_from_json,
    operator_to_json,
    read_document,
    sample_berger_data,
)
from curv4 import cli, estimates
from curv4.berger import berger_data_stack
from curv4.bivector import conjugate_matrices, haar_rotations
from curv4.estimates import hamilton_gap
from curv4.cli import LEMMA_NAMES, MAX_GRID, MIN_GRID, main, run_verification
from curv4.errors import DomainError, InvalidBergerError, InvalidOperatorError
from curv4.io import BERGER_FORMAT, OPERATOR_FORMAT


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------------ formats


def test_operator_round_trip_exact():
    op = model_space("cp2")
    doc = operator_to_json(op)
    assert doc["format"] == OPERATOR_FORMAT
    assert doc["exact"][0][0] == "1/6"
    back = operator_from_json(json.loads(json.dumps(doc)))
    assert back.exact is not None
    assert [[Fraction(x) for x in row] for row in doc["exact"]] == [
        list(row) for row in back.exact
    ]
    assert np.array_equal(back.matrix, op.matrix)


def test_operator_float_only_round_trip():
    op = model_space("sphere")
    doc = operator_to_json(op)
    del doc["exact"]
    back = operator_from_json(doc)
    assert back.exact is None
    assert np.allclose(back.matrix, op.matrix)


def test_operator_rejects_malformed():
    with pytest.raises(InvalidOperatorError):
        operator_from_json({"format": "nope"})
    with pytest.raises(InvalidOperatorError):
        operator_from_json({"format": OPERATOR_FORMAT, "basis": "e12,e34,..."})
    with pytest.raises(InvalidOperatorError):
        operator_from_json({"format": OPERATOR_FORMAT, "matrix": "garbage"})
    doc = operator_to_json(model_space("cp2"))
    doc["exact"][0][0] = 0.16666  # float in the exact mirror
    with pytest.raises(InvalidOperatorError):
        operator_from_json(doc)


def test_berger_round_trip_exact_and_float():
    d = berger_data(model_space("s2xs2"))
    doc = berger_to_json(d)
    assert doc["format"] == BERGER_FORMAT
    assert doc["a_exact"] == ["0", "0", "1"]
    back = berger_from_json(doc)
    assert back.a == d.a and back.b == d.b and back.is_exact

    f = sample_berger_data(1, seed=44)[0]
    back = berger_from_json(berger_to_json(f))
    for x, y in zip(f.a + f.b, back.a + back.b):
        assert abs(float(x) - float(y)) <= 1e-15


def test_berger_surd_data_serializes_as_float():
    s19 = QuadraticSurd(0, 1, 19, 1)
    beta = (14 - s19) / 12
    a1 = (5 - s19) / 12
    d = BergerData(a=(a1, 1 - beta - a1, beta), b=(Fraction(0),) * 3)
    doc = berger_to_json(d)
    assert "a_exact" not in doc  # irrational entries have no rational mirror
    back = berger_from_json(doc)
    assert abs(float(back.a[2]) - float(beta)) <= 1e-15


def test_berger_rejects_malformed():
    with pytest.raises(InvalidBergerError):
        berger_from_json({"format": "nope"})
    good = berger_to_json(berger_data(model_space("cp2")))
    bad = dict(good)
    del bad["b_exact"]
    with pytest.raises(InvalidBergerError):
        berger_from_json(bad)
    bad = dict(good)
    bad["a_exact"] = ["1/6", "1/6", 0.666]
    with pytest.raises(InvalidBergerError):
        berger_from_json(bad)
    bad = dict(good)
    bad["a_exact"] = ["1/6", "1/6", "not-a-number"]
    with pytest.raises(InvalidBergerError):
        berger_from_json(bad)


def test_load_any_dispatch(tmp_path):
    op_doc = operator_to_json(model_space("cp2"))
    data_doc = berger_to_json(berger_data(model_space("cp2")))
    assert load_any(op_doc).matrix.shape == (6, 6)
    assert load_any(data_doc).a[2] == Fraction(2, 3)
    with pytest.raises(DomainError):
        load_any({"format": "curv4-unknown-v9"})
    with pytest.raises(DomainError):
        load_any("not a dict")

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DomainError):
        read_document(str(path))


# ---------------------------------------------------------------------- CLI


def test_cli_models_json_and_table(capsys):
    assert main(["models", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "curv4-models-v1"
    assert set(doc["models"]) == {"sphere", "rp4", "cp2", "s2xs2"}
    assert doc["models"]["cp2"]["euler"] == 3

    assert main(["models", "--name", "cp2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == "cp2" and doc["signature"] == 1

    assert main(["models", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "sphere" in out and "tau = -" in out  # rp4 is non-orientable


def test_cli_decompose_and_berger(tmp_path, capsys):
    path = write_doc(tmp_path, "op.json", operator_to_json(model_space("s2xs2")))
    assert main(["decompose", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["s"] == 4.0 and doc["is_einstein"]
    assert doc["w_plus"] == pytest.approx([-1 / 3, -1 / 3, 2 / 3])

    assert main(["decompose", "--in", path, "--format", "table"]) == 0
    assert "scalar curvature" in capsys.readouterr().out

    data_path = write_doc(
        tmp_path, "data.json", berger_to_json(berger_data(model_space("cp2")))
    )
    assert main(["berger", "--in", data_path, "--frame"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a_exact"] == ["1/6", "1/6", "2/3"]
    assert doc["frame_residual"] <= 1e-9
    f = np.asarray(doc["frame"])
    assert np.allclose(f.T @ f, np.eye(4), atol=1e-9)


def test_cli_verify_each_lemma(capsys):
    for lemma in ("k3k1", "algebraic2", "kupper", "kdiff", "a2a1"):
        assert main(["verify", "--lemma", lemma, "--grid", "60"]) == 0, lemma
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] and doc["feasible"]
        assert doc["violation"] <= 1e-3
    assert main(["verify", "--lemma", "wpm-discriminant", "--grid", "120"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"]
    assert main(["verify", "--lemma", "hamilton-models", "--grid", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] and doc["params"]["rotations"] == 50


def test_cli_verify_table_and_failure_exit(capsys, monkeypatch):
    assert main(["verify", "--lemma", "kupper", "--grid", "40", "--format", "table"]) == 0
    assert "PASS kupper" in capsys.readouterr().out

    import curv4.cli as cli_mod

    def fake(lemma, alpha=None, delta=None, grid=None, seed=0):
        return {
            "lemma": lemma, "params": {}, "bound": 0.0, "oracle_extremum": 1.0,
            "violation": 1.0, "resolution": 1, "elapsed_ms": 0.0,
            "feasible": True, "pass": False,
        }

    monkeypatch.setattr(cli_mod, "run_verification", fake)
    assert main(["verify", "--lemma", "kupper"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
    assert main(["verify", "--lemma", "kupper", "--format", "table"]) == 1
    assert capsys.readouterr().out.startswith("FAIL kupper")


def test_cli_verify_all_small_grid(capsys):
    assert main(["verify-all", "--grid", "40", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "25/25 checks passed" in out


@pytest.mark.parametrize("lemma", LEMMA_NAMES)
def test_cli_verify_rejects_grid_below_minimum(lemma, capsys):
    # a grid this small checks too few points (or none) for a pass to mean anything
    assert MIN_GRID <= 40
    for grid in (MIN_GRID - 1, 1, 0, -5):
        assert main(["verify", "--lemma", lemma, "--grid", str(grid)]) == 2, grid
        assert f"below the minimum {MIN_GRID}" in capsys.readouterr().err
    assert main(["verify", "--lemma", lemma, "--grid", str(MIN_GRID)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["alpha", "delta"])
@pytest.mark.parametrize("lemma", LEMMA_NAMES)
def test_cli_verify_rejects_non_finite_parameters(lemma, flag, value, capsys):
    # NaN passes every `x < 0` guard, and the oracle then reports a violation
    # of 0 without checking anything
    assert main(["verify", "--lemma", lemma, f"--{flag}={value}", "--grid", "40"]) == 2
    assert f"{flag} must be finite" in capsys.readouterr().err


_LEMMA_FLAGS = {
    "k3k1": {"alpha", "delta"},
    "algebraic2": {"alpha", "delta"},
    "kupper": {"alpha"},
    "kdiff": {"alpha"},
    "a2a1": {"delta"},
    "wpm-discriminant": set(),
    "hamilton-models": set(),
}


@pytest.mark.parametrize("flag", ["alpha", "delta"])
@pytest.mark.parametrize("lemma", LEMMA_NAMES)
def test_cli_verify_rejects_a_flag_the_lemma_does_not_take(lemma, flag, capsys):
    # `verify --lemma kupper --delta 0.3` used to check the default alpha and
    # exit 0, a PASS for something other than what was asked
    value = {"alpha": 0.75, "delta": 0.25}[flag]  # inside every lemma's domain
    argv = ["verify", "--lemma", lemma, f"--{flag}={value}", "--grid", str(MIN_GRID)]
    if flag in _LEMMA_FLAGS[lemma]:
        assert main(argv) in (0, 1)
        assert value in json.loads(capsys.readouterr().out)["params"].values()
    else:
        assert main(argv) == 2
        assert f"lemma {lemma} takes no {flag}" in capsys.readouterr().err
        with pytest.raises(DomainError):
            run_verification(lemma, **{flag: value})


def test_cli_verify_all_rejects_grid_below_minimum(capsys):
    assert main(["verify-all", "--grid", str(MIN_GRID - 1)]) == 2
    assert "below the minimum" in capsys.readouterr().err


def _no_oracle_runs(monkeypatch):
    """Replace every lemma's oracle by one that fails the test if it is called."""

    def oracle(grid, **params):
        raise AssertionError(f"an oracle ran at grid {grid}")

    for name, row in cli._LEMMAS.items():
        monkeypatch.setitem(cli._LEMMAS, name, dataclasses.replace(row, oracle=oracle))


@pytest.mark.parametrize("argv", [["verify", "--lemma", n] for n in LEMMA_NAMES] + [["verify-all"]])
def test_cli_rejects_grid_above_maximum(argv, monkeypatch, capsys):
    # the axis arrays grow with the grid: --grid 100000000 was killed for
    # memory (exit 137) before this check
    _no_oracle_runs(monkeypatch)
    assert main([*argv, "--grid", str(MAX_GRID + 1)]) == 2
    assert f"above the maximum {MAX_GRID}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--lemma", n] for n in LEMMA_NAMES] + [["verify-all"]])
def test_cli_rejects_a_negative_seed(argv, monkeypatch, capsys):
    # numpy's default_rng rejected it with a ValueError traceback (exit 1) in
    # hamilton-models, and the lemmas that draw nothing passed with exit 0
    _no_oracle_runs(monkeypatch)
    assert main([*argv, "--seed", "-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        ["k3k1", "--alpha", "1e308"],
        ["algebraic2", "--alpha", "1e200", "--delta", "1e200"],
        ["algebraic2", "--alpha", "1e200"],
        ["k3k1", "--alpha", "1e200", "--delta", "1e200"],
    ],
    ids=lambda params: " ".join(params),
)
def test_cli_verify_refuses_a_verdict_when_floats_overflow(params, capsys):
    # finite parameters whose float arithmetic overflows gave bound=inf or an
    # oracle of NaN, and then a PASS (exit 0) or a FAIL (exit 1)
    assert main(["verify", "--lemma", *params, "--grid", str(MIN_GRID)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith("curv4: lemma ")


def test_run_verification_rejects_a_non_finite_bound(monkeypatch):
    def oracle(grid, **params):
        return cli.GridReport(0.0, (0.0, 0.0), grid, math.inf)

    row = dataclasses.replace(cli._LEMMAS["k3k1"], oracle=oracle)
    monkeypatch.setitem(cli._LEMMAS, "k3k1", row)
    with pytest.raises(DomainError, match="bound inf"):
        run_verification("k3k1", alpha=0.5, delta=0.5)


@pytest.mark.parametrize("command", ["classify", "berger", "decompose"])
def test_cli_directory_input_exits_2(command, tmp_path, capsys):
    # IsADirectoryError is an OSError, not a FileNotFoundError: it used to
    # escape main as a traceback with exit 1
    assert main([command, "--in", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("curv4: ")


def test_cli_infeasible_params_still_verify(capsys):
    # mid-window parameters have empty constraint sets: the bound holds
    # vacuously and the report says so instead of failing
    assert main(["verify", "--lemma", "kupper", "--alpha", "0.5", "--grid", "40"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] and not doc["feasible"]


def test_cli_classify(tmp_path, capsys):
    path = write_doc(tmp_path, "cp2.json", operator_to_json(model_space("cp2")))
    assert main(["classify", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "model_data" and doc["candidates"] == ["cp2"]
    assert {r["name"] for r in doc["rows"]} >= {
        "hamilton", "condition_a", "condition_b_sum", "condition_b_diff",
        "weyl_sum_small",
    }
    assert main(["classify", "--in", path, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "verdict: model_data" in out and "compatible models: cp2" in out


def test_cli_classify_large_spread(tmp_path, capsys):
    # spread a3 - a2 >= 2 is valid data outside the kdiff_lower domain
    doc = berger_to_json(BergerData(a=(-1.0, 0.0, 2.0), b=(0.0, 0.0, 0.0)))
    assert main(["classify", "--in", write_doc(tmp_path, "spread.json", doc)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "inconclusive"
    assert [s["name"] for s in doc["skipped"]] == ["derived_min_sec", "derived_min_sec_diff"]
    assert all(s["reason"] for s in doc["skipped"])


def test_cli_chi_tau_snapping(capsys):
    assert main(["chi-tau", "--alpha", "0.0446"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha_exact"] is not None  # snapped to the sharp surd
    assert doc["cap"] == pytest.approx(8.0)
    assert sorted(tuple(p) for p in doc["pairs"]) == [
        (0, 2), (0, 4), (0, 6), (1, 5), (1, 7)
    ]

    assert main(["chi-tau", "--alpha", "0.05", "--explain"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha_exact"] is None  # 0.05 is not near any sharp constant
    assert len(doc["trail"]) >= 5

    assert main(["chi-tau", "--alpha", "0.3333", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "boundary fallback" in out


def test_cli_no_sharp_constant_is_built_by_classify_import_or_chi_tau(monkeypatch, capsys):
    # the table is built once, when estimates is imported; a fresh execution of
    # classify's module (sys.modules untouched) and a snapped chi-tau only read it
    import importlib.util

    classify = importlib.import_module("curv4.classify")
    built = []
    init = estimates.SharpConstant.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(estimates.SharpConstant, "__init__", counting)
    spec = importlib.util.spec_from_file_location(classify.__name__, classify.__file__)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert main(["chi-tau", "--alpha", "0.0446"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha_exact"] == "(2 - sqrt(3))/6"
    assert built == []


@pytest.mark.parametrize(
    "a",
    [
        (0.1, 0.3, 0.6),  # on the polytope
        (0.1, 0.3, 0.6 + 5e-8),  # sum(a) off by 5e-8 of lambda: outside the 1e-9 tolerance
    ],
)
def test_cli_verdicts_do_not_depend_on_the_scale_of_the_datum(a, tmp_path, capsys):
    # lambda = 2^k scales every entry exactly, so each command must give at every
    # k the verdict it gives at k = 0, and all must agree: each exits 0, or all exit 2
    outcomes = set()
    for k in range(-30, 31):
        lam = 2.0**k
        doc = {"format": BERGER_FORMAT, "a": [x * lam for x in a], "b": [0.0] * 3, "lambda": lam}
        path = write_doc(tmp_path, f"scaled{k}.json", doc)
        codes = [main([*argv, "--in", path]) for argv in (["berger", "--frame"], ["decompose"])]
        codes.append(main(["classify", "--in", path]))
        out = capsys.readouterr().out
        verdict = json.loads(out[out.rindex('{\n  "verdict"'):])["verdict"] if codes[2] == 0 else None
        outcomes.add((tuple(codes), verdict))
    assert len(outcomes) == 1, sorted(outcomes, key=str)
    ((codes, _),) = outcomes
    assert set(codes) in ({0}, {2})


def test_cli_constants(capsys):
    assert main(["constants"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constants"]["sec_upper_threshold"]["decimal"].startswith("0.8034")
    assert all(doc["identities"].values())
    assert main(["constants", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "identity upper_pipeline_endpoint: ok" in out


def test_cli_error_paths(tmp_path, capsys):
    assert main(["classify", "--in", str(tmp_path / "missing.json")]) == 2
    assert "curv4:" in capsys.readouterr().err

    path = write_doc(tmp_path, "weird.json", {"format": "curv4-unknown-v9"})
    assert main(["classify", "--in", path]) == 2

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "not-a-lemma"])
    assert exc.value.code == 2

    with pytest.raises(DomainError):
        run_verification("k3k1", alpha=0.0, delta=1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("command", [["decompose"], ["berger", "--frame"], ["classify"]])
def test_cli_rejects_non_finite_einstein_constant(tmp_path, capsys, lam, command):
    # a NaN or infinite constant made every tolerance check pass vacuously
    op_doc = operator_to_json(model_space("sphere"))
    op_doc["einstein_lambda"] = lam
    data_doc = berger_to_json(BergerData(a=(0.2, 0.3, 0.5), b=(0.0, 0.0, 0.0)))
    data_doc["lambda"] = lam
    for name, doc in (("op.json", op_doc), ("data.json", data_doc)):
        path = write_doc(tmp_path, name, doc)
        assert main([command[0], "--in", path, *command[1:]]) == 2, name
        assert "must be finite" in capsys.readouterr().err


def test_berger_data_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidBergerError):
            BergerData(a=(0.0, 0.0, bad), b=(0.0, 0.0, 0.0), lambda_einstein=1.0)


_FLOAT_DATA = {"format": BERGER_FORMAT, "a": [0.2, 0.3, 0.5], "b": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize(
    "doc",
    [
        dict(_FLOAT_DATA, **{"lambda": "x"}),
        dict(_FLOAT_DATA, **{"lambda": None}),
        dict(operator_to_json(model_space("sphere")), einstein_lambda="x"),
        dict(operator_to_json(model_space("sphere")), exact=5),
        dict(_FLOAT_DATA, a_exact=5, b_exact=["0", "0", "0"]),
    ],
    ids=["lambda-string", "lambda-null", "einstein-lambda-string", "exact-int", "a-exact-int"],
)
def test_cli_rejects_malformed_numbers(tmp_path, capsys, doc):
    # exit 1 means a verification failed, so a malformed document must not
    # escape as a bare ValueError or TypeError
    assert main(["classify", "--in", write_doc(tmp_path, "doc.json", doc)]) == 2
    assert "curv4:" in capsys.readouterr().err


_DIAGONAL_ROWS = ["200000", "020000", "002000", "000200", "000020", "000002"]


@pytest.mark.parametrize(
    "doc",
    [
        {"format": BERGER_FORMAT, "a": "012", "b": [0, 0, 0], "lambda": 3},
        dict(_FLOAT_DATA, a_exact="012", b_exact="000"),
        dict(_FLOAT_DATA, **{"lambda": True}),
        dict(_FLOAT_DATA, a=[0.2, 0.3, True]),
        dict(operator_to_json(model_space("sphere")), exact=_DIAGONAL_ROWS, einstein_lambda=6),
        dict(operator_to_json(model_space("sphere")), einstein_lambda=True),
        {"format": OPERATOR_FORMAT, "matrix": _DIAGONAL_ROWS, "einstein_lambda": 6},
        {"format": OPERATOR_FORMAT, "matrix": [[str(float(x)) for x in row] for row in np.eye(6)]},
    ],
    ids=[
        "a-string", "a-exact-string", "lambda-true", "a-entry-true", "exact-row-strings",
        "einstein-lambda-true", "matrix-row-strings", "matrix-entry-strings",
    ],
)
@pytest.mark.parametrize("command", [["decompose"], ["berger", "--frame"], ["classify"]])
def test_cli_rejects_strings_and_booleans_for_lists_and_numbers(tmp_path, capsys, doc, command):
    # a string was read one character per entry ("012" as (0, 1, 2)) and
    # true as 1.0, so these loaded and exited 0
    path = write_doc(tmp_path, "doc.json", doc)
    assert main([command[0], "--in", path, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "curv4:" in err and "Traceback" not in err


def _with_entry(rows, value):
    rows = [list(row) for row in rows]
    rows[0][0] = value
    return rows


_HUGE = "1" + "0" * 400
_SPHERE_DOC = operator_to_json(model_space("sphere"))
_EXACT_DATA = {"format": BERGER_FORMAT, "a": [0.0, 0.0, 1.0], "b": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(_SPHERE_DOC, exact=_with_entry(_SPHERE_DOC["exact"], "1e400")), "exponents"),
        (dict(_SPHERE_DOC, exact=_with_entry(_SPHERE_DOC["exact"], _HUGE)), "float range"),
        (dict(_EXACT_DATA, a_exact=["1e400", "0", "1"], b_exact=["0", "0", "0"]), "exponents"),
        (dict(_EXACT_DATA, a_exact=["-" + _HUGE, "0", "1"], b_exact=["0", "0", "0"]), "finite"),
        (dict(_FLOAT_DATA, **{"lambda": 10**400}), "float range"),
        ({"format": OPERATOR_FORMAT, "matrix": [[10**400] * 6] * 6}, "6x6 array of numbers"),
    ],
    ids=[
        "op-exponent", "op-huge", "berger-exponent", "berger-huge",
        "lambda-huge-int", "matrix-huge-int",
    ],
)
@pytest.mark.parametrize("command", [["decompose"], ["berger"], ["classify"]])
def test_cli_rejects_exact_entries_beyond_the_float_range(tmp_path, capsys, doc, message, command):
    # these escaped as OverflowError with a traceback and exit 1
    path = write_doc(tmp_path, "doc.json", doc)
    assert main([command[0], "--in", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_exact_strings_without_exponents_still_parse():
    doc = dict(_EXACT_DATA, a_exact=["-0.25", "1/4", "1"], b_exact=["0", "0.0", "0"])
    assert berger_from_json(doc).a == (Fraction(-1, 4), Fraction(1, 4), Fraction(1))


@pytest.mark.parametrize("command", [["decompose"], ["berger", "--frame"], ["classify"]])
def test_cli_rejects_non_utf8_document(tmp_path, capsys, command):
    # a UTF-16 byte-order mark used to escape as UnicodeDecodeError (exit 1)
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(_FLOAT_DATA).encode("utf-16-le"))
    with pytest.raises(DomainError):
        read_document(str(path))
    assert main([command[0], "--in", str(path), *command[1:]]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def _diagonal_operator_doc(entries, lam=None):
    matrix = np.diag(np.array(entries, dtype=float)).tolist()
    doc = {"format": OPERATOR_FORMAT, "matrix": matrix}
    if lam is not None:
        doc["einstein_lambda"] = lam
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        {"format": BERGER_FORMAT, "a": [-1e308, 0.0, 1e308], "b": [0.0, 0.0, 0.0]},
        _diagonal_operator_doc([1e308, 1e308, 0, 0, 0, 0]),
        _diagonal_operator_doc([1e308, 1e308, 0, 0, 0, 0], lam=1.0),
        _diagonal_operator_doc([1e160, 0, 0, 0, 0, 0]),
    ],
    ids=["data-blocks", "operator-blocks", "operator-ricci", "ricci-norm"],
)
@pytest.mark.parametrize("command", [["decompose"], ["berger", "--frame"]])
def test_cli_rejects_overflowing_operators(tmp_path, capsys, doc, command):
    # finite entries whose duality blocks or Ricci tensor overflow used to
    # reach the eigensolver as inf and die with LinAlgError (exit 1)
    path = write_doc(tmp_path, "doc.json", doc)
    assert main([command[0], "--in", path, *command[1:]]) == 2
    assert "overflow" in capsys.readouterr().err


def test_large_finite_operators_still_decompose():
    op = operator_from_json(_diagonal_operator_doc([1e150] * 6, lam=3e150))
    d = duality_decompose(op)
    assert d.s == 1.2e151 and d.is_einstein
    with pytest.raises(InvalidOperatorError, match="overflow"):
        operator_from_json(_diagonal_operator_doc([1e308, 1e308, 0, 0, 0, 0], lam=1.0))


def test_hamilton_models_memory_does_not_grow_with_rotations(monkeypatch):
    # drawing every rotation at once grew the transient peak by about 1.6 kB
    # per rotation; streamed in blocks it is set by the block alone
    def transient_peak(rotations):
        tracemalloc.start()
        try:
            report = cli._hamilton_models_check(rotations, 0)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.feasible and report.extremum < 1e-9
        return peak - current  # what stays allocated (free lists) is no transient

    streamed = cli._hamilton_models_check(200, 3)
    monkeypatch.setattr(cli, "SLAB_POINTS", 16 * 16)  # blocks of 16 rotations
    assert cli._hamilton_models_check(200, 3) == streamed
    transient_peak(16)  # first-call allocations
    assert transient_peak(200) <= transient_peak(24) + 32e3


def _hamilton_models_per_model(rotations, seed):
    """(extremum, argument) of hamilton-models as one stack per model and block.

    The models take rotations 0.., R.. and 2R.. of one Haar stream in turn,
    and a strictly larger |gap| replaces the incumbent.
    """
    names = ("sphere", "cp2", "s2xs2")
    worst, arg = 0.0, ("exact",)
    rng = np.random.default_rng(seed)
    block = estimates.SLAB_POINTS // 16
    for name in names:
        op = model_space(name)
        for lo in range(0, rotations, block):
            frames = haar_rotations(min(block, rotations - lo), rng)
            data = berger_data_stack(conjugate_matrices(op.matrix, frames), op.lambda_einstein)
            gap = float(np.abs(hamilton_gap(data.a, data.b)).max())
            if gap > worst:
                worst, arg = gap, (name,)
    return worst, arg


@pytest.mark.parametrize("slab", ["default", 16 * 24])
def test_hamilton_models_one_stream_matches_the_per_model_stacks(monkeypatch, slab):
    # blocks of the one 3R stream straddle the models when 24 or 512 does not
    # divide R; the first largest |gap| and its model must not move
    if slab != "default":
        monkeypatch.setattr(cli, "SLAB_POINTS", slab)
    for rotations in (8, 32, 40, 170, 171, 513, 1000):
        for seed in (0, 1, 7):
            report = cli._hamilton_models_check(rotations, seed)
            got = (repr(report.extremum), report.argument)
            worst, arg = _hamilton_models_per_model(rotations, seed)
            assert got == (repr(worst), arg), (rotations, seed)


def test_hamilton_models_checks_60000_rotations_in_two_seconds():
    # one Python object per rotation took about 6 s on a 2-vCPU host; one
    # (n, 6, 6) stack per block of rotations takes about 0.2 s there
    start = time.perf_counter()
    report = cli._hamilton_models_check(20000, 0)
    elapsed = time.perf_counter() - start
    assert report.feasible and report.extremum < 1e-9 and report.resolution == 20000
    assert elapsed < 2.0


_ENTRY = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _normal_form_documents(draw):
    # a ascending with lambda = sum(a) > 0 (a negative sum is mirrored), and
    # (b1, b2) drawn from the box, then pulled toward 0 until every
    # |b_j - b_i| <= a_j - a_i holds, with b3 = -b1 - b2
    a = sorted(draw(st.lists(_ENTRY, min_size=3, max_size=3)))
    if a[0] + a[1] + a[2] < 0:
        a = [-x for x in reversed(a)]
    lam = a[0] + a[1] + a[2]
    assume(lam > 0)
    s1, s2, s3 = a[1] - a[0], a[2] - a[0], a[2] - a[1]
    b1 = draw(_UNIT) * (s1 + s2) / 3.0
    b2 = draw(_UNIT) * (s1 + s3) / 3.0
    gaps = ((b2 - b1, s1), (2.0 * b1 + b2, s2), (b1 + 2.0 * b2, s3))
    pull = min([1.0] + [s / abs(x) for x, s in gaps if abs(x) > s])
    b1, b2 = b1 * pull, b2 * pull
    return {"format": BERGER_FORMAT, "a": a, "b": [b1, b2, -b1 - b2], "lambda": lam}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=50, deadline=None)
@given(_normal_form_documents())
def test_cli_gives_every_valid_normal_form_a_verdict(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out, err = _run_cli(["classify", "--in", path])
        assert code == 0, err
        assert json.loads(out)["verdict"] in ("model_data", "rigidity_regime", "inconclusive")
        code, out, err = _run_cli(["berger", "--in", path, "--frame"])
        assert code == 0, err


@pytest.mark.parametrize("command", [["decompose"], ["berger", "--frame"], ["classify"]])
def test_cli_accepts_large_nearly_round_data(tmp_path, command):
    # a small Weyl spectrum of a large operator carries the operator's rounding
    # error; the trace-free check used to measure it against the spectrum (exit 2)
    doc = {"format": BERGER_FORMAT, "a": [419170.0, 419171.0, 419249.0], "b": [0.0, 0.0, 0.0]}
    path = write_doc(tmp_path, "doc.json", doc)
    assert main([command[0], "--in", path, *command[1:]]) == 0
