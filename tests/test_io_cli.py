"""JSON round trips and the command-line surface (driven in process)."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from curv4 import (
    BergerData,
    QuadraticSurd,
    berger_data,
    berger_from_json,
    berger_to_json,
    load_any,
    model_space,
    operator_from_json,
    operator_to_json,
    read_document,
    sample_berger_data,
)
from curv4.cli import LEMMA_NAMES, MIN_GRID, main, run_verification
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
    assert "FAIL" in capsys.readouterr().out or True  # json format: exit code carries it


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


def test_cli_verify_all_rejects_grid_below_minimum(capsys):
    assert main(["verify-all", "--grid", str(MIN_GRID - 1)]) == 2
    assert "below the minimum" in capsys.readouterr().err


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
