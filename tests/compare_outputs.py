"""Compare two directories of CLI outputs by value, request by request.

Run from the repository root, with numpy as the only dependency:

    python tests/compare_outputs.py DIR_A DIR_B

Each directory holds what `tests/report_set.py --keep DIR` leaves for every
request: `NAME.exit` (the exit code), `NAME.stdout` and, where the command
wrote one, the output table `NAME.csv`. DIR_A is the reference. For each NAME
the tool prints both exit codes and, for the table and for a JSON document on
stdout (one row of its numeric leaves), both row counts, the number of cells
that changed, the number outside the golden tolerance 1e-12 + 1e-11 |ref|
of `tests/test_golden.py` and the number off by more than one unit of the
reference cell's 12th significant digit, the last one the CLI prints. For
each column that changed it gives the largest absolute deviation and the
largest in those units ("u"; a cell whose reference is 0 or not finite
counts as inf units), with one line for each cell outside the tolerance. A
summary gives the same counts and each column's largest deviations over all
files. The tolerance's absolute floor lets a cell far below 1 move in many
of its own digits (a `criterion` `error_estimate` near 3e-10 by 0.3 %); the
count in units does not.

It exits 1 if a file is on one side only, or an exit code, a row count, a
header, a non-numeric JSON value or non-JSON stdout differs; deviations of
numbers alone never fail it. The file is not collected by pytest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np


def _leaves(doc, path="$"):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def _document(path: Path):
    """(header, numeric rows, other values) of a CSV table or a JSON document; None if neither."""
    if path.suffix == ".csv":
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            values = np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, len(header))
        return header, values, []
    try:
        leaves = list(_leaves(json.loads(path.read_text())))
    except ValueError:
        return None
    is_number = [isinstance(v, (int, float)) and not isinstance(v, bool) for _, v in leaves]
    numeric = [leaf for leaf, n in zip(leaves, is_number) if n]
    other = [leaf for leaf, n in zip(leaves, is_number) if not n]
    return [k for k, _ in numeric], np.array([[v for _, v in numeric]], dtype=float), other


def _compare(label: str, ref: Path, new: Path, worst: dict, counts: np.ndarray) -> bool:
    a, b = _document(ref), _document(new)
    if a is None or b is None:
        same = ref.read_bytes() == new.read_bytes()
        if not same:
            print(f"{label}: text differs")
        return same
    (header, va, other_a), (header_b, vb, other_b) = a, b
    if header != header_b or len(va) != len(vb):
        print(f"{label}: header or rows differ, {len(va)} / {len(vb)} rows")
        return False
    equal = (va == vb) | (np.isnan(va) & np.isnan(vb))
    dev = np.where(equal, 0.0, np.nan_to_num(np.abs(vb - va), nan=np.inf))
    outside = dev > 1e-12 + 1e-11 * np.abs(va)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = 10.0 ** (np.floor(np.log10(np.abs(va))) - 11)
        units = np.where(equal, 0.0, np.nan_to_num(dev / unit, nan=np.inf, posinf=np.inf))
    column_dev, column_units = dev.max(axis=0, initial=0.0), units.max(axis=0, initial=0.0)
    print(f"{label}: rows {len(va)} / {len(vb)}, {np.count_nonzero(~equal)} of {va.size} cells "
          f"changed, {np.count_nonzero(outside)} outside tolerance, "
          f"{np.count_nonzero(units > 1.0)} off by more than 1 u"
          + "".join(f"; {name} {d:.2g} ({u:.2g} u)"
                    for name, d, u in zip(header, column_dev, column_units) if d))
    for row, column in zip(*np.nonzero(outside)):
        print(f"  outside: {label} row {row + 1} {header[column]} "
              f"{float(va[row, column])!r} -> {float(vb[row, column])!r}")
    for name, *values in zip(header, column_dev, column_units):
        largest = worst.setdefault(name, [(0.0, ""), (0.0, "")])
        for i, value in enumerate(values):
            if value >= largest[i][0]:
                largest[i] = (value, label)
    counts += (va.size, np.count_nonzero(~equal), np.count_nonzero(outside),
               np.count_nonzero(units > 1.0))
    if other_a != other_b:
        print(f"{label}: non-numeric values differ")
    return other_a == other_b


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0] + "\nusage: compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    names_a = {p.name for p in dir_a.iterdir()}
    names_b = {p.name for p in dir_b.iterdir()}
    ok = names_a == names_b
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {dir_a if name in names_a else dir_b}")
    worst, counts = {}, np.zeros(4, dtype=int)
    for stem in sorted({name.rsplit(".", 1)[0] for name in names_a & names_b}):
        codes = [(d / f"{stem}.exit").read_text().strip() for d in (dir_a, dir_b)]
        print(f"{stem}: exit {codes[0]} / {codes[1]}")
        ok &= codes[0] == codes[1]
        for suffix in (".stdout", ".csv"):
            if f"{stem}{suffix}" in names_a & names_b:
                ok &= _compare(stem + suffix, dir_a / f"{stem}{suffix}",
                               dir_b / f"{stem}{suffix}", worst, counts)
    print(f"all files: {counts[1]} of {counts[0]} cells changed, {counts[2]} outside tolerance, "
          f"{counts[3]} off by more than 1 u")
    changed = {name: largest for name, largest in worst.items() if largest[0][0]}
    for name, ((d, label), (u, units_label)) in changed.items():
        print(f"  {name}: largest deviation {d:.2g} ({label}), {u:.2g} u ({units_label})")
    print(f"  {len(worst) - len(changed)} other columns: no cell changed")
    print("exit codes, row counts and non-numeric values " + ("match" if ok else "DIFFER"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
