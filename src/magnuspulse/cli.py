"""
Command-line front end.

Commands
--------
catalog    list bundled pulse shapes with nominal flip angles
criterion  existence-criterion report for a pulse/system pair (JSON or CSV)
propagate  interaction-picture propagator blocks along the time grid (CSV)
profile    excitation profile versus S offset (CSV)
decompose  expansion-form coefficients and decomposition angles (CSV)
verify     run the cross-module invariant suite

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

from . import __version__
from .expansion import angles_from_state, integrate_expansion
from .magnus import ExtractionError, explicit_criterion
from .propagation import DEFAULT_TOL, RefinementError, excitation_profile, propagate_interaction
from .pulses import (DEFAULT_N_STEPS, PulseShape, build_pulse, calibrate, list_catalog,
                     resolve_pulse)
from .system import SpinSystem, load_system
from .verify import run_all as run_verify

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CRITERION_VIOLATED = 3
EXIT_NUMERICAL = 4

#: Most rows of one configuration whose CSV text is built and written at once.
CSV_BLOCK_ROWS = 8192


def _fmt(value) -> str:
    """Fixed 12-significant-digit text for floats (byte-stable output)."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


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
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(output)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".magnuspulse-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: One table cell: 32 bytes holding the separator before it (0), a sign (1), a "0.000" prefix
#: (2-6), digits 0-7 each followed by a dot slot (8-23), digits 8-11 (24-27) and an exponent
#: "e+XX" (28-31) at fixed offsets; a zero byte is an unused slot.
_CELL = np.dtype((np.void, 32))
#: Values with 10**-_EXP <= |v| < 10**(_EXP + 1) may take the fast path.
_EXP = 99
#: Margin of the fast path's tests, above the 2.3e-4 error of the scaled value.
_MARGIN = 1e-3


@functools.cache
def _cell_tables():
    """Read-only lookup tables of `_cells`, indexed by digit group or by exponent.

    Returns the digits of each 4-digit group, plain then with trailing zeros as unused
    bytes, as a word of (digit, dot slot) pairs and as a word of 4 digits; the four words of
    an exponent's cell (separator, prefix, dot, suffix); the correctly rounded 10**(11 - e);
    10**(12 - digits before the dot), or 1 where the dot has no slot.
    """
    digits = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        digits[..., place] = np.arange(48, 58)[(slice(None),) + (None,) * (3 - place)]
    last = digits[1]  # trailing zeros unused, group 0000 empty
    last[..., 0, 3] = last[..., 0, 0, 2] = last[:, 0, 0, 0, 1] = last[0, 0, 0, 0] = 0
    digits = digits.reshape(-1, 4)
    pairs, packed = np.zeros((2, len(digits), 8), np.uint8)
    pairs[:, ::2] = packed[:, :4] = digits
    e = np.arange(-_EXP, _EXP + 1)
    fixed = (e >= -4) & (e < 12)
    before_dot = np.where(fixed, np.maximum(e + 1, 0), 1)
    slotted = (before_dot > 0) & (before_dot <= 8)
    cells = np.zeros((len(e), _CELL.itemsize), np.uint8)
    cells[:, 0] = ord(",")
    for k in range(1, 5):
        cells[e == -k, 2:3 + k] = np.frombuffer(b"0." + b"0" * (k - 1), np.uint8)
    cells[slotted, 7 + 2 * before_dot[slotted]] = ord(".")
    cells[~fixed, 28:] = np.stack((np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                                   48 + abs(e) // 10, 48 + abs(e) % 10), axis=1)[~fixed]
    powers = np.array([float(f"1e{k}") for k in range(11 + _EXP, 10 - _EXP, -1)])
    tables = (pairs.view(np.uint64).ravel(), packed.view(np.uint64).ravel(),
              cells.view(np.uint64).T.copy(), powers,
              np.where(slotted | (before_dot == 0), 10.0 ** (12 - before_dot), 1.0))
    for table in tables:
        table.flags.writeable = False
    return tables


def _cells(values: np.ndarray) -> np.ndarray:
    """The cell of ',' and `'%.12g' % v` for each value of 1-D `values`.

    With e = floor(log10|v|), the scaled value s = |v| 10**(11 - e) is two correctly rounded
    operations from the exact one, so within 2.3e-4 of it below 1e12. Where 1e11 + margin
    <= s, rint(s) < 1e12 and s is more than the margin from a half, m = rint(s) is the
    correctly rounded 12-digit mantissa whatever log10 returned. Its digits are read from
    4-digit group tables into fixed slots. As in `%g`, the dot follows digit e where
    0 <= e < 12, sits in a "0.000" prefix where -4 <= e < 0, and otherwise follows the
    first digit, with an exponent after the digits. Zeros, non-finite, tiny or huge values,
    near-ties, and texts whose dot has no slot or no digit after it are formatted by `%`
    one at a time.
    """
    pairs, packed, exponent_words, powers, divisors = _cell_tables()
    magnitude = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(magnitude))
        np.fmin(np.fmax(e, -_EXP, out=e), _EXP, out=e)
        row = e.astype(np.intp) + _EXP
        # every index below is in range: mode="clip" only skips the bounds check
        scaled = magnitude * powers.take(row, mode="clip")
        m = np.rint(scaled)
        fast = (scaled >= 1e11 + _MARGIN) & (m < 1e12) & (np.abs(scaled - m) < 0.5 - _MARGIN)
        q = m / divisors.take(row, mode="clip")
        fast &= q != np.floor(q)
        np.copyto(m, 1e11, where=~fast)
    low = m.astype(np.int64)
    high = low // 10**8
    low -= high * 10**8
    mid = low // 10**4
    low -= mid * 10**4
    # the last nonzero group is read from the table without trailing zeros
    groups = (high + 10**4 * ((mid == 0) & (low == 0)), mid + 10**4 * (low == 0), low + 10**4)
    words = np.empty((len(values), 4), np.uint64)
    words[:, 0] = exponent_words[0].take(row, mode="clip")
    for word, (table, group) in enumerate(zip((pairs, pairs, packed), groups), 1):
        words[:, word] = (exponent_words[word].take(row, mode="clip")
                          | table.take(group, mode="clip"))
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

    A row is lead[i], k if `indexed`, then values[j, k, i] for each j in `layout` (default:
    each source once), j = ~s standing for -values[s, k, i] + 0.0. CSV text is built in
    blocks of one configuration's rows as records of `_cells`, each cell starting with the
    separator before it: a lead cell with the newline ending the row above. A negated cell
    is its source's with the sign slot set where v > 0. JSON rows are the cells read back.
    """
    layout = range(len(values)) if layout is None else layout
    index_width = len(str(values.shape[1] - 1)) + 1  # "," and the digits of the largest k
    lead_fields = [("lead", _CELL), ("index", (np.void, index_width))][:1 + indexed]
    record = np.dtype([*lead_fields, *((str(column), _CELL) for column in range(len(layout)))])
    targets = {}
    for column, j in enumerate(layout):
        targets.setdefault(j if j >= 0 else ~j, []).append(str(column))

    def blocks():
        yield ",".join(columns)
        lead_cells = _cells(lead)
        lead_cells.view(np.uint8)[::_CELL.itemsize] = ord("\n")
        full = bytearray(min(len(lead), CSV_BLOCK_ROWS) * record.itemsize)
        for k in range(values.shape[1]):
            for start in range(0, len(lead), CSV_BLOCK_ROWS):
                rows = slice(start, start + CSV_BLOCK_ROWS)
                n = len(lead_cells[rows])
                # every byte is rewritten, so one buffer serves all blocks of full length
                text = full if n * record.itemsize == len(full) else bytearray(n * record.itemsize)
                block = np.frombuffer(text, record)
                block["lead"] = lead_cells[rows]
                if indexed:
                    block["index"] = np.void(f",{k}".encode().ljust(index_width, b"\0"))
                for source, names in targets.items():
                    cells = _cells(values[source, k, rows])
                    for name in names:
                        block[name] = cells
                signs = np.frombuffer(text, np.uint8).reshape(n, -1)
                for column, j in enumerate(layout):
                    if j < 0:
                        signs[:, record.fields[str(column)][1] + 1] = (
                            (values[~j, k, rows] > 0) * np.uint8(ord("-")))
                yield text.translate(None, b"\0").decode()
        yield "\n"

    if _resolve_format(args, default="csv") == "csv":
        _emit(blocks(), args.output)
        return
    rows = [[x if math.isfinite(x) else None for x in map(float, line.split(","))]
            for line in "".join(blocks()).splitlines()[1:]]
    _emit([json.dumps({**meta, "columns": list(columns), "rows": rows}, indent=2,
                      allow_nan=False) + "\n"], args.output)


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


SHAPE_PARAM_FLAGS = ("amplitude", "peak", "truncation", "beta", "lobes", "order", "width")


def _load_inputs(args) -> tuple[SpinSystem, PulseShape, dict]:
    """Resolve the system and the calibrated pulse from the parsed arguments.

    Returns them with the report header: `_meta` plus the pulse and system
    as the command received them.
    """
    for name in ("duration", "flip", "offset_start", "offset_stop", *SHAPE_PARAM_FLAGS):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "offset_count", 1) < 1:
        raise ValueError(f"--offset-count must be at least 1, got {args.offset_count}")
    system = load_system(args.system) if args.system else SpinSystem()

    flip_rad = math.radians(args.flip) if args.flip is not None else None
    if args.pulse:
        entry = resolve_pulse(args.pulse)
        if args.duration is not None:
            entry = dataclasses.replace(entry, duration=args.duration)
        target = flip_rad if flip_rad is not None else entry.nominal_flip
        shape = calibrate(entry.build(), target, args.steps)
        pulse_doc = {
            "name": entry.name,
            "family": entry.family,
            "duration_s": entry.duration,
            "flip_deg": math.degrees(target),
        }
    elif args.shape:
        duration = args.duration if args.duration is not None else 1e-3
        params = {}
        for name in SHAPE_PARAM_FLAGS:
            value = getattr(args, name)
            if value is not None:
                params[name] = value
        shape = build_pulse(args.shape, duration, **params)
        if flip_rad is not None:
            shape = calibrate(shape, flip_rad, args.steps)
        pulse_doc = {
            "name": args.shape,
            "family": args.shape,
            "duration_s": duration,
            "flip_deg": args.flip,
        }
        pulse_doc.update(params)
    else:
        raise ValueError("a pulse is required: pass --pulse NAME_OR_PATH or --shape FAMILY")
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
        _emit([json.dumps(_round_floats(doc), indent=2, allow_nan=False) + "\n"], args.output)
    else:
        lines = [f"{'name':10s} {'family':18s} {'flip':>6s} {'duration':>10s}"]
        for e in entries:
            lines.append(
                f"{e.name:10s} {e.family:18s} {math.degrees(e.nominal_flip):5.0f}d "
                f"{e.duration * 1e3:7.3f} ms"
            )
        _emit(["\n".join(lines) + "\n"], args.output)
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
        _emit([json.dumps(_round_floats(doc), indent=2, allow_nan=False) + "\n"], args.output)
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
            (k, json.dumps(_round_floats(v)) if isinstance(v, (list, dict)) else _fmt(v))
            for k, v in flat.items()])
        _emit([text.getvalue()], args.output)
    return EXIT_OK if report.criterion23_met else EXIT_CRITERION_VIOLATED


def _cmd_propagate(args) -> int:
    system, shape, meta = _load_inputs(args)
    traj = propagate_interaction(system, shape, n_steps=args.steps, tol=args.tol)
    columns = ["t", "config_index", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"]
    # U = c E - i (v . sigma) from (c, vx, vy, vz); adding 0.0 makes an exact zero print as 0
    values = np.moveaxis(traj.q, -1, 0) + 0.0
    _emit_table(columns, traj.times, values, meta, args, layout=(0, ~3, ~2, ~1, 2, ~1, 0, 3))
    return EXIT_OK


def _cmd_profile(args) -> int:
    system, shape, meta = _load_inputs(args)
    offsets_hz = np.linspace(args.offset_start, args.offset_stop, args.offset_count)
    table = excitation_profile(system, shape, TWO_PI * offsets_hz, n_steps=args.steps)
    columns = ["offset_hz", "mx", "my", "mz"]
    _emit_table(columns, offsets_hz, table.T[:, None], meta, args, indexed=False)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    system, shape, meta = _load_inputs(args)
    state = integrate_expansion(system, shape, n_steps=args.steps, tol=args.tol)
    columns = ["t", "config_index", "f", "g_x", "g_y", "g_z", "alpha", "beta",
               "omega_hat", "constraint_residual"]
    values = np.stack((*np.moveaxis(state.q, -1, 0), *angles_from_state(state),
                       state.constraint_residual()))
    _emit_table(columns, state.times, values, meta, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    failures = run_verify()
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def _add_common(parser: argparse.ArgumentParser, offsets: bool = False):
    parser.add_argument("--system", help="spin system JSON file (default: isolated S spin)")
    parser.add_argument("--pulse", help="bundled pulse name or pulse JSON file path")
    parser.add_argument("--shape", help="analytic pulse family (gaussian, sech, sinc, hermite, constant, ...)")
    parser.add_argument("--duration", type=float, help="pulse duration in seconds")
    parser.add_argument("--flip", type=float, help="target flip angle in degrees")
    parser.add_argument("--steps", type=int, default=DEFAULT_N_STEPS,
                        help="quadrature/propagation steps (default %(default)s)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help=f"step-doubling endpoint tolerance (default {DEFAULT_TOL:g})"
                        .replace("e-0", "e-"))  # "1e-9", as %(default)s would not print it
    parser.add_argument("--amplitude", type=float, help="constant-family amplitude in rad/s")
    parser.add_argument("--peak", type=float, help="peak amplitude in rad/s for analytic families")
    parser.add_argument("--truncation", type=float, help="edge truncation for gaussian/hermite")
    parser.add_argument("--beta", type=float, help="sech steepness parameter")
    parser.add_argument("--lobes", type=int, help="sinc zero crossings per side")
    parser.add_argument("--order", type=int, help="hermite polynomial order (even)")
    parser.add_argument("--width", type=float, help="hermite argument scale")
    if offsets:
        parser.add_argument("--offset-start", type=float, required=True, help="first trial offset in Hz")
        parser.add_argument("--offset-stop", type=float, required=True, help="last trial offset in Hz")
        parser.add_argument("--offset-count", type=int, default=101, help="number of offsets (default 101)")
    parser.add_argument("--output", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="output format (default inferred from --output extension)")


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

    p_criterion = sub.add_parser("criterion", help="evaluate the existence criterion")
    _add_common(p_criterion)
    p_criterion.set_defaults(func=_cmd_criterion)

    p_propagate = sub.add_parser("propagate", help="emit propagator blocks along the grid")
    _add_common(p_propagate)
    p_propagate.set_defaults(func=_cmd_propagate)

    p_profile = sub.add_parser("profile", help="excitation profile versus offset")
    _add_common(p_profile, offsets=True)
    p_profile.set_defaults(func=_cmd_profile)

    p_decompose = sub.add_parser("decompose", help="expansion-form coefficients and angles")
    _add_common(p_decompose)
    p_decompose.set_defaults(func=_cmd_decompose)

    p_verify = sub.add_parser("verify", help="run the invariant verification suite")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (RefinementError, ExtractionError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
