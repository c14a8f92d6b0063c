"""CLI outputs compared against recorded reference files.

Each case runs one command on fixed inputs and compares its output with the
file under data/golden/ number by number. Floats agree within
1e-12 + 1e-11 * |ref|: one unit in the twelfth significant digit, the last
one the CLI prints. Exit codes, booleans, integers and strings must match
exactly.

To record the reference files at a trusted commit, run
``python tests/test_golden.py`` from the repository root.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "golden"
SYSTEM = str(GOLDEN / "sax.json")

#: output file name -> (argv without --output, expected exit code)
CASES = {
    "criterion_g4.json": (["criterion", "--pulse", "g4", "--system", SYSTEM], 0),
    "criterion_reburp.json": (["criterion", "--pulse", "reburp", "--system", SYSTEM], 3),
    "criterion_gaussian270.json": (
        ["criterion", "--shape", "gaussian", "--flip", "270", "--duration", "2e-3",
         "--system", SYSTEM], 0),
    "propagate_g4.csv": (
        ["propagate", "--pulse", "g4", "--system", SYSTEM, "--steps", "32", "--tol", "1e-4"], 0),
    "decompose_g4.csv": (
        ["decompose", "--pulse", "g4", "--system", SYSTEM, "--steps", "32", "--tol", "1e-4"], 0),
    "profile_q5.csv": (
        ["profile", "--pulse", "q5", "--offset-start", "-2000", "--offset-stop", "2000",
         "--offset-count", "21"], 0),
}

#: CSV columns that hold integers.
INTEGER_COLUMNS = {"config_index"}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= 1e-12 + 1e-11 * abs(ref)


def _json_mismatches(value, ref, path="$"):
    if isinstance(ref, float) and isinstance(value, float):
        return [] if _close(value, ref) else [f"{path}: {value!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(value, dict):
        if list(value) != list(ref):
            return [f"{path}: keys {list(value)} != {list(ref)}"]
        return [m for k in ref for m in _json_mismatches(value[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(value, list):
        if len(value) != len(ref):
            return [f"{path}: length {len(value)} != {len(ref)}"]
        return [m for i, (v, r) in enumerate(zip(value, ref))
                for m in _json_mismatches(v, r, f"{path}[{i}]")]
    if type(value) is not type(ref) or value != ref:
        return [f"{path}: {value!r} != {ref!r}"]
    return []


def _csv_mismatches(text: str, ref_text: str):
    rows = list(csv.reader(text.splitlines()))
    ref_rows = list(csv.reader(ref_text.splitlines()))
    if rows[0] != ref_rows[0] or len(rows) != len(ref_rows):
        return [f"header {rows[0]} / {len(rows)} rows != {ref_rows[0]} / {len(ref_rows)} rows"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        for column, cell, ref_cell in zip(ref_rows[0], row, ref):
            if column in INTEGER_COLUMNS:
                ok = int(cell) == int(ref_cell)
            else:
                ok = _close(float(cell), float(ref_cell))
            if not ok:
                problems.append(f"row {i} {column}: {cell} != {ref_cell}")
    return problems


def _run(name: str, directory: Path) -> tuple[int, str]:
    from magnuspulse.cli import main

    argv, _ = CASES[name]
    out = directory / name
    rc = main(argv + ["--output", str(out)])
    return rc, out.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    rc, text = _run(name, tmp_path)
    assert rc == CASES[name][1]
    ref_text = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        problems = _json_mismatches(json.loads(text), json.loads(ref_text))
    else:
        problems = _csv_mismatches(text, ref_text)
    assert not problems, "; ".join(problems[:10])


def test_golden_tolerance_is_one_printed_digit():
    assert _close(0.123456789012, 0.123456789013)
    assert not _close(0.12345678901, 0.12345678902)
    assert _json_mismatches({"a": True, "n": 3}, {"a": 1, "n": 3})


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    for case in sorted(CASES):
        code, _ = _run(case, GOLDEN)
        if code != CASES[case][1]:
            sys.exit(f"{case}: exit code {code}, expected {CASES[case][1]}")
        print(f"recorded {case}")
