"""
Command-line front end.

Commands
--------
catalog    list bundled pulse shapes with nominal flip angles
criterion  existence-criterion report for a pulse/system pair (JSON or CSV)
propagate  interaction-picture propagator blocks along the time grid (CSV)
profile    excitation profile versus S offset (CSV)
decompose  expansion-form coefficients and decomposition angles (CSV)

Angles are accepted in degrees on the command line (NMR convention) and
converted to radians internally; offsets and couplings in files are Hz.
Exit codes: 0 success, 2 bad input, 3 criterion violated (criterion command
only), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, su2
from .expansion import angles_from_state, integrate_expansion
from .magnus import explicit_criterion
from .propagation import DEFAULT_TOL, excitation_profile, propagate_interaction
from .pulses import (DEFAULT_N_STEPS, FAMILIES, CatalogEntry, PulseShape, calibrate, list_catalog,
                     resolve_pulse)
from .system import SpinSystem, _check_offsets, load_system

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CRITERION_VIOLATED = 3
EXIT_NUMERICAL = 4

#: Most rows of one configuration whose CSV text is built and written at once.
CSV_BLOCK_ROWS = 8192


def _round_floats(obj):
    """Round floats to 12 significant digits recursively; non-finite to None."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(chunks, output: str | None):
    if output is None:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
        return
    directory = os.path.dirname(os.path.abspath(output)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".magnuspulse-")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, output)
    except OSError as exc:  # name the file asked for, not the temporary one beside it
        raise OSError(exc.errno, exc.strerror, output) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


#: One table cell: 24 bytes, three little-endian words. Word 0 holds the separator before the
#: cell (byte 0), the sign (1) and a head of up to 6 bytes: a "0.000" prefix, or the digits
#: before the dot and the dot. Words 1-2 hold the digits after the head, then an exponent
#: "e+XX" (20-23). A zero byte is an unused slot.
_CELL = np.dtype((np.void, 24))
#: Values with 10**-_EXP <= |v| < 10**(_EXP + 1) may take the fast path.
_EXP = 99
#: Margin of the fast path's tests, above the 2.3e-4 error of the scaled value.
_MARGIN = 1e-3


@functools.cache
def _cell_tables():
    """Read-only lookup tables of `_cells`, indexed by digit group or by exponent.

    Returns the words of each 4-digit group's digits: plain, with trailing zeros as unused
    bytes (group 0000 empty), and both again shifted to bytes 4-7. Then for each exponent e,
    with h the count of digits the head holds: the head word (separator, prefix or dot),
    2**(64 - 8 h) mod 2**64, 48 - 8 h, 8 h and the exponent word; the correctly rounded
    10**(11 - e); the largest |s - m| of a fast cell: 0.5 where 10**(11 - e) is a double,
    0.5 - margin where it is rounded, below zero where the head has no room.
    """
    digits = (48 + np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10).astype(np.uint8)
    kept = np.flip(np.cumsum(np.flip(digits != 48, 1), 1), 1) > 0  # up to the last nonzero digit
    groups = np.concatenate((digits, digits * kept)).view(np.uint32).ravel().astype(np.uint64)
    words, powers, limits = [], [], []
    for e in range(-_EXP, _EXP + 1):
        fixed = -4 <= e < 12
        h = e + 1 if 0 <= e <= 4 else 0 if fixed else 1
        head = b"0." + b"0" * (-e - 1) if fixed and e < 0 else b"\0" * h + b"." * (h > 0)
        exponent = b"" if fixed else f"\0\0\0\0e{e:+03d}".encode()
        words.append([int.from_bytes(b",\0" + head, "little"), (1 << 64 - 8 * h) % (1 << 64),
                      48 - 8 * h, 8 * h, int.from_bytes(exponent, "little")])
        powers.append(float(f"1e{11 - e}"))
        limits.append(-1.0 if fixed and e > 4 else 0.5 if abs(e) <= 11 else 0.5 - _MARGIN)
    tables = (np.concatenate((groups, groups << np.uint64(32))),
              np.array(words, np.uint64).T.copy(), np.array(powers), np.array(limits))
    for table in tables:
        table.flags.writeable = False
    return tables


def _round_half(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The integer nearest a b for s = fl(a b) on a half, half to even where a b = s.

    The sign of the rounding error a b - s picks the side; Dekker's product with Veltkamp's
    split (2**27 + 1) gives it exactly.
    """
    ah, bh = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))
    al, bl = a - ah, b - bh
    err = (((ah * bh - s) + ah * bl) + al * bh) + al * bl
    return np.where(err > 0, np.ceil(s), np.where(err < 0, np.floor(s), np.rint(s)))


def _cells(values: np.ndarray) -> np.ndarray:
    """The cell of ',' and `'%.12g' % v` for each value of 1-D `values` (a table's v + 0.0).

    With e = floor(log10|v|), the scaled value s = |v| 10**(11 - e) is two correctly rounded
    operations from the exact one, so within 2.3e-4 of it below 1e12. m = rint(s) is the
    correctly rounded 12-digit mantissa by either of two rules. Where 1e11 + margin <= s,
    rint(s) < 1e12 and s is at least the margin from a half, m holds whatever log10 returned.
    Where 0 <= 11 - e <= 22 the power of ten is exact and s is the exact value rounded once;
    a half-integer is a double, so it can only lie between the two if s is on it, and m holds
    without a margin wherever s is off a half. On a half (grid times often are), m is the
    exact product rounded by `_round_half`: to its side of the half, or to even on an exact
    decimal tie, as `%` rounds. The 12 digits are read from 4-digit group tables as two words.
    As in `%g`, the head holds a "0.000" prefix where -4 <= e < 0, the first e + 1 digits and
    the dot where 0 <= e <= 4, and otherwise the first digit and the dot; an exponent follows
    the digits. The h digits the head holds move to byte 2 and the rest h bytes down into
    words 1-2. Every shift count is below 64: a product with 2**(64 - 8 h) mod 2**64 shifts
    left by 64 - 8 h, or clears where h = 0. Zeros, non-finite, tiny or huge values,
    near-ties where the power is rounded, fixed-notation values of 1e5 or more and texts with
    no digit after the dot are formatted by `%` one at a time.
    """
    groups, per_exponent, powers, limits = _cell_tables()
    magnitude = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(magnitude))
        np.fmin(np.fmax(e, -_EXP, out=e), _EXP, out=e)
        row = e.astype(np.intp) + _EXP
        # every index below is in range: mode="clip" only skips the bounds check
        scaled = magnitude * powers.take(row, mode="clip")
        m = np.rint(scaled)
        gap = np.abs(np.subtract(scaled, m, out=e), out=e)  # e is spent
        fast = (scaled >= 1e11 + _MARGIN) & (m < 1e12)
        fast &= gap <= limits.take(row, mode="clip")
        halves = np.flatnonzero(fast & (gap == 0.5))  # only where the power is exact
        if len(halves):
            m[halves] = _round_half(magnitude[halves], powers.take(row[halves]), scaled[halves])
        np.copyto(m, 1e11, where=~fast)
    low = m.astype(np.int64)
    high = low // 10**8
    low -= high * 10**8
    # digits 0-7, the middle group read from the copies in bytes 4-7, and digits 8-11; the last
    # nonzero group is read from the table without trailing zeros
    first = groups.take(high + 10**4 * (low == 0), mode="clip")
    mid = low // 10**4
    low -= mid * 10**4
    first |= groups.take(mid + np.where(low == 0, 3 * 10**4, 2 * 10**4), mode="clip")
    rest = groups.take(low + 10**4, mode="clip")
    head, scale, right, shift, exponent = (table.take(row, mode="clip") for table in per_exponent)
    words = np.empty((len(values), 3), np.uint64)
    np.bitwise_or(head, (first * scale) >> right, out=words[:, 0])
    np.bitwise_or(first >> shift, rest * scale, out=words[:, 1])
    np.bitwise_or(rest >> shift, exponent, out=words[:, 2])
    fast &= words[:, 1] != 0  # a digit follows the dot
    cells = words.view(np.uint8)
    cells[:, 1] = (values < 0) * np.uint8(ord("-"))
    slow = np.flatnonzero(~fast)
    if len(slow):
        v = values[slow]
        cells[slow, 1] = (np.signbit(v) & ~np.isnan(v)) * np.uint8(ord("-"))
        cells[slow, 2:] = np.array(["%.12g" % x for x in np.abs(v).tolist()],
                                   f"S{_CELL.itemsize - 2}")[:, None].view(np.uint8)
    return words.view(_CELL)[:, 0]


def _emit_table(columns, lead, values, meta, args, layout=None, indexed=True):
    """Write one row per (configuration k, grid point i), k-major, as CSV or JSON.

    `values` holds one (n_configs, n_times) array per source, views of the library's arrays
    passed without a copy. A row is lead[i] as given, k if `indexed`, then values[j][k, i] +
    0.0 (an exact zero of either sign prints 0) for each j in `layout` (default: each source
    once), j = ~s standing for -values[s][k, i] + 0.0. CSV text is built in blocks of one
    configuration's rows as records of `_cells`, each cell after its separator: a lead cell
    after the newline ending the row above. A negated cell is its source's with the sign slot
    set where v > 0. JSON rows are the cells read back.
    """
    layout = range(len(values)) if layout is None else layout
    index_width = len(str(len(values[0]) - 1)) + 1  # "," and the digits of the largest k
    lead_fields = [("lead", _CELL), ("index", (np.void, index_width))][:1 + indexed]
    record = np.dtype([*lead_fields, *((str(column), _CELL) for column in range(len(layout)))])
    targets = {}
    for column, j in enumerate(layout):
        targets.setdefault(j if j >= 0 else ~j, []).append(str(column))
    negated = [(record.fields[str(column)][1] + 1, ~j) for column, j in enumerate(layout) if j < 0]

    def blocks():
        yield ",".join(columns).encode()
        starts = range(0, len(lead), CSV_BLOCK_ROWS)
        leads = [_cells(lead[start:start + CSV_BLOCK_ROWS]) for start in starts]
        for cells in leads:
            cells.view(np.uint8)[::_CELL.itemsize] = ord("\n")
        full = bytearray(min(len(lead), CSV_BLOCK_ROWS) * record.itemsize)
        for k in range(len(values[0])):
            for start, lead_cells in zip(starts, leads):
                rows = slice(start, start + CSV_BLOCK_ROWS)
                n = len(lead_cells)
                # every byte is rewritten, so one buffer serves all blocks of full length
                text = full if n * record.itemsize == len(full) else bytearray(n * record.itemsize)
                block = np.frombuffer(text, record)
                block["lead"] = lead_cells
                if indexed:
                    block["index"] = np.void(f",{k}".encode().ljust(index_width, b"\0"))
                for source, names in targets.items():
                    cells = _cells(values[source][k, rows] + 0.0)
                    for name in names:
                        block[name] = cells
                signs = np.frombuffer(text, np.uint8).reshape(n, -1)
                for sign, source in negated:
                    signs[:, sign] = (values[source][k, rows] > 0) * np.uint8(ord("-"))
                yield text.translate(None, b"\0")
        yield b"\n"

    if _resolve_format(args, default="csv") == "csv":
        _emit(blocks(), args.output)
        return
    rows = [[x if math.isfinite(x) else None for x in map(float, line.split(b","))]
            for line in b"".join(blocks()).splitlines()[1:]]
    _emit([json.dumps({**meta, "columns": list(columns), "rows": rows}, indent=2,
                      allow_nan=False).encode() + b"\n"], args.output)


def _resolve_format(args, default: str) -> str:
    if args.format:
        return args.format
    if args.output:
        ext = os.path.splitext(args.output)[1].lower().lstrip(".")
        if ext in ("json", "csv"):
            return ext
    return default


def _meta(args) -> dict:
    """Header of every JSON document: tool, version and the command that wrote it."""
    return {"tool": "magnuspulse", "version": __version__, "command": args.command}


def _system_doc(system: SpinSystem) -> dict:
    return {
        "s_count": system.s_count,
        "s_offset_hz": system.s_offset / TWO_PI,
        "i_spins": [
            {"offset_hz": s.offset / TWO_PI, "j_to_s_hz": s.j_to_s} for s in system.i_spins
        ],
        "j_ii_hz": [[k, l, v] for (k, l), v in sorted(system.j_ii.items())],
    }


#: The --shape families: those of `FAMILIES` whose every parameter has a scalar default.
_SHAPES = {family: params for family, params in FAMILIES.items()
           if all(isinstance(default, (int, float)) for default in params.values())}
#: The --shape flags, each parameter of `_SHAPES` in order of first appearance, with the
#: defaults of the families that take it.
_SHAPE_FLAGS = {name: {family: params[name] for family, params in _SHAPES.items()
                       if name in params}
                for params in _SHAPES.values() for name in params}


def _load_inputs(args) -> tuple[SpinSystem, PulseShape, dict]:
    """Resolve the system and the calibrated pulse from the parsed arguments.

    Returns them with the report header: `_meta` plus the pulse and system
    as the command received them. A --shape pulse is calibrated only to a --flip. The offsets,
    with a profile's trial offsets, pass `_check_offsets` for the pulse's duration first.
    """
    for name in ("duration", "flip", "offset_start", "offset_stop", *_SHAPE_FLAGS):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "offset_count", 1) < 1:
        raise ValueError(f"--offset-count must be at least 1, got {args.offset_count}")
    system = load_system(args.system) if args.system else SpinSystem()

    if args.pulse:
        extra = [f"--{n}" for n in ("shape", *_SHAPE_FLAGS) if getattr(args, n) is not None]
        if extra:
            raise ValueError(f"--pulse takes no shape flags; drop {', '.join(extra)}")
        entry = resolve_pulse(args.pulse)
    elif args.shape:
        entry = CatalogEntry(args.shape, args.shape, 1e-3, None, {
            name: getattr(args, name) for name in _SHAPE_FLAGS if getattr(args, name) is not None})
    else:
        raise ValueError("a pulse is required: pass --pulse NAME_OR_PATH or --shape FAMILY")
    if args.duration is not None:
        entry = dataclasses.replace(entry, duration=args.duration)
    trial = max(abs(getattr(args, end, 0.0)) for end in ("offset_start", "offset_stop"))
    _check_offsets(system, TWO_PI * trial, entry.duration)
    target = math.radians(args.flip) if args.flip is not None else entry.nominal_flip
    shape = entry.build()
    if target is not None:
        shape = calibrate(shape, target, args.steps)
    pulse_doc = {"name": entry.name, "family": entry.family, "duration_s": entry.duration,
                 "flip_deg": args.flip if args.shape else math.degrees(target),
                 **(entry.params if args.shape else {})}
    return system, shape, {**_meta(args), "pulse": pulse_doc, "system": _system_doc(system)}


def _cmd_catalog(args) -> int:
    entries = list_catalog()
    if _resolve_format(args, default="text") == "json":
        doc = _meta(args)
        doc["pulses"] = [
            {
                "name": e.name,
                "family": e.family,
                "duration_s": e.duration,
                "nominal_flip_deg": math.degrees(e.nominal_flip),
            }
            for e in entries
        ]
        _emit([json.dumps(_round_floats(doc), indent=2, allow_nan=False).encode() + b"\n"],
              args.output)
    else:
        lines = [f"{'name':10s} {'family':18s} {'flip':>6s} {'duration':>10s}"]
        for e in entries:
            lines.append(
                f"{e.name:10s} {e.family:18s} {math.degrees(e.nominal_flip):5.0f}d "
                f"{e.duration * 1e3:7.3f} ms"
            )
        _emit([("\n".join(lines) + "\n").encode()], args.output)
    return EXIT_OK


def _cmd_criterion(args) -> int:
    system, shape, doc = _load_inputs(args)
    report = explicit_criterion(system, shape, n_steps=args.steps, tol=args.tol)
    doc["config"] = {"n_steps": args.steps, "tol": args.tol}
    doc.update(
        {
            "I_T": report.i_total,
            "theta_T": report.theta_total,
            "criterion23": report.criterion23_met,
            "criterion25": report.criterion25_met,
            "max_omega_hat": report.max_omega_hat,
            "max_eigenvalue_gap": report.max_eigenvalue_gap,
            "magnus_gap_nearest": report.magnus_gap_nearest,
            "magnus_ok": report.magnus_criterion_ok,
            "bound21_margin": report.bound21_margin,
            "ambiguity_times": [float(t) for t in report.ambiguity_times],
            "trajectory_steps": report.trajectory_steps,
            "error_estimate": report.error_estimate,
        }
    )
    if _resolve_format(args, default="json") == "json":
        _emit([json.dumps(_round_floats(doc), indent=2, allow_nan=False).encode() + b"\n"],
              args.output)
    else:
        flat = {}
        for key, value in doc.items():
            if isinstance(value, dict):
                flat.update((f"{key}.{sub}", v) for sub, v in value.items())
            else:
                flat[key] = value
        # a list or dict is one cell of JSON text, quoted where it holds commas
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([("key", "value")] + [
            (k, json.dumps(_round_floats(v)) if isinstance(v, (list, dict))
             else f"{v:.12g}" if isinstance(v, float) else str(v)) for k, v in flat.items()])
        _emit([text.getvalue().encode()], args.output)
    return EXIT_OK if report.criterion23_met else EXIT_CRITERION_VIOLATED


def _cmd_propagate(args) -> int:
    system, shape, meta = _load_inputs(args)
    traj = propagate_interaction(system, shape, n_steps=args.steps, tol=args.tol)
    columns = ["t", "config_index", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"]
    a, b = traj.q  # U = [[a, -conj b], [b, conj a]] from rows (Re a, Re b, Im a, Im b)
    _emit_table(columns, traj.times, (a.real, b.real, a.imag, b.imag), meta, args,
                layout=(0, 2, ~1, 3, 1, 3, 0, ~2))
    return EXIT_OK


def _cmd_profile(args) -> int:
    system, shape, meta = _load_inputs(args)
    try:
        offsets_hz = np.linspace(args.offset_start, args.offset_stop, args.offset_count)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"--offset-count {args.offset_count} is too many to allocate") from exc
    table = excitation_profile(system, shape, TWO_PI * offsets_hz, n_steps=args.steps)
    columns = ["offset_hz", "mx", "my", "mz"]
    _emit_table(columns, offsets_hz, table[:, None], meta, args, indexed=False)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    system, shape, meta = _load_inputs(args)
    traj = integrate_expansion(system, shape, n_steps=args.steps, tol=args.tol)
    columns = ["t", "config_index", "f", "g_x", "g_y", "g_z", "alpha", "beta",
               "omega_hat", "constraint_residual"]
    values = (*su2.rows(traj.q), *angles_from_state(traj), su2.norm_defect(traj.q))
    _emit_table(columns, traj.times, values, meta, args)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, offsets: bool = False):
    parser.add_argument("--system", help="spin system JSON file (default: isolated S spin)")
    parser.add_argument("--pulse", help="bundled pulse name or pulse JSON file path")
    parser.add_argument("--shape", choices=_SHAPES, help="analytic pulse family")
    parser.add_argument("--duration", type=float, help="pulse duration in seconds")
    parser.add_argument("--flip", type=float, help="target flip angle in degrees")
    parser.add_argument("--steps", type=int, default=DEFAULT_N_STEPS,
                        help="quadrature/propagation steps (default %(default)s)")
    tol_help = (f"step-doubling endpoint tolerance (default {DEFAULT_TOL:g})"
                .replace("e-0", "e-"))  # "1e-9", as %(default)s would not print it
    if offsets:  # profile propagates each offset once on the --steps grid
        tol_help = "accepted and ignored: profile does no step doubling"
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help=tol_help)
    for name, defaults in _SHAPE_FLAGS.items():
        shown = "/".join(dict.fromkeys(map(str, defaults.values())))
        parser.add_argument(f"--{name}", type=type(next(iter(defaults.values()))),
                            help=f"{', '.join(defaults)} parameter (default {shown})")
    if offsets:
        for end, which in (("start", "first"), ("stop", "last")):  # argparse reads -2e3 as a flag
            parser.add_argument(f"--offset-{end}", type=float, required=True, help=(
                f"{which} trial offset in Hz (a negative exponent form such as -2e3 needs '=': "
                f"--offset-{end}=-2e3)"))
        parser.add_argument("--offset-count", type=int, default=101, help="number of offsets (default 101)")
    parser.add_argument("--output", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="output format (default inferred from --output extension)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnuspulse",
        description="Existence criterion and exact propagation for shaped RF pulses "
                    "on weakly coupled spin-1/2 systems.",
    )
    parser.add_argument("--version", action="version", version=f"magnuspulse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list bundled pulse shapes")
    p_catalog.add_argument("--output", help="output file (default: stdout)")
    p_catalog.add_argument("--format", choices=("json", "text"), help="output format")
    p_catalog.set_defaults(func=_cmd_catalog)

    commands = (("criterion", _cmd_criterion, "evaluate the existence criterion"),
                ("propagate", _cmd_propagate, "emit propagator blocks along the grid"),
                ("profile", _cmd_profile, "excitation profile versus offset"),
                ("decompose", _cmd_decompose, "expansion-form coefficients and angles"))
    for name, func, text in commands:  # profile alone takes the offset flags
        _add_common(sub.add_parser(name, help=text), name == "profile").set_defaults(func=func)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
