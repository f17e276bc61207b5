"""Golden outputs of the deterministic CLI commands, compared byte for byte.

Each case runs `curv4` in process and compares stdout with the file of the
same name under tests/golden/.  Two fields are dropped before comparing:
`elapsed_ms` (wall time) from verify reports, and `skipped` (certificate rows
classify left out, with reasons) from classify reports.  Everything else,
float digits included, must match exactly.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from curv4.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
DROPPED = ("elapsed_ms", "skipped")

DOCUMENTS = sorted(p.name[: -len(".json")] for p in INPUTS.glob("*.json"))


def _cases() -> dict:
    cases = {
        "models.json": ["models"],
        "models.table": ["models", "--format", "table"],
        "constants.json": ["constants"],
        "constants.table": ["constants", "--format", "table"],
        "verify-all.json": ["verify-all"],
        "verify-all-grid40.json": ["verify-all", "--grid", "40"],
    }
    for alpha in ("0", "0.08333333333333333", "0.0446", "0.1", "0.3333333333333333"):
        explain = ["chi-tau", "--alpha", alpha, "--explain"]
        cases[f"chi-tau-{alpha}.json"] = explain
        cases[f"chi-tau-{alpha}.table"] = [*explain, "--format", "table"]
    for doc in DOCUMENTS:
        path = str(INPUTS / f"{doc}.json")
        cases[f"decompose-{doc}.json"] = ["decompose", "--in", path]
        frame = ["berger", "--in", path, "--frame"]
        cases[f"berger-{doc}.json"] = frame
        cases[f"berger-{doc}.table"] = [*frame, "--format", "table"]
        cases[f"classify-{doc}.json"] = ["classify", "--in", path]
        cases[f"classify-{doc}.table"] = ["classify", "--in", path, "--format", "table"]
    return cases


CASES = _cases()


def _drop(obj):
    if isinstance(obj, dict):
        return {k: _drop(v) for k, v in obj.items() if k not in DROPPED}
    if isinstance(obj, list):
        return [_drop(v) for v in obj]
    return obj


def run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    out = buf.getvalue()
    if "table" in argv:
        return out
    return json.dumps(_drop(json.loads(out)), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert run(CASES[name]) == want


def test_every_golden_file_has_a_case():
    # a golden file that no case writes is never compared with anything
    assert {p.name for p in GOLDEN.iterdir() if p.is_file()} == set(CASES)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} golden outputs to {GOLDEN}")
