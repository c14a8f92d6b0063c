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
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .expansion import angles_from_state, integrate_expansion
from .magnus import ExtractionError, explicit_criterion
from .propagation import RefinementError, excitation_profile, propagate_interaction
from .pulses import PulseShape, build_pulse, calibrate, list_catalog, resolve_pulse
from .system import SpinSystem, load_system
from .verify import run_all as run_verify

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CRITERION_VIOLATED = 3
EXIT_NUMERICAL = 4


def _fmt(value) -> str:
    """Fixed 12-significant-digit text for floats (byte-stable output)."""
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return str(value)
        return f"{value:.12g}"
    return str(value)


def _round_floats(obj):
    """Round floats to 12 significant digits recursively; non-finite to None."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".magnuspulse-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_table(columns, rows, meta, args):
    fmt = _resolve_format(args, default="csv")
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = dict(meta)
        doc["columns"] = list(columns)
        doc["rows"] = _round_floats([list(map(float, row)) for row in rows])
        _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.output)


def _resolve_format(args, default: str) -> str:
    if args.format:
        return args.format
    if args.output:
        ext = os.path.splitext(args.output)[1].lower().lstrip(".")
        if ext in ("json", "csv"):
            return ext
    return default


def _meta(args, command: str) -> dict:
    return {
        "tool": "magnuspulse",
        "version": __version__,
        "command": command,
    }


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
    """Resolve the system and the calibrated pulse from the parsed arguments."""
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
    return system, shape, pulse_doc


def _cmd_catalog(args) -> int:
    entries = list_catalog()
    fmt = _resolve_format(args, default="text")
    if fmt == "json":
        doc = _meta(args, "catalog")
        doc["pulses"] = [
            {
                "name": e.name,
                "family": e.family,
                "duration_s": e.duration,
                "nominal_flip_deg": math.degrees(e.nominal_flip),
            }
            for e in entries
        ]
        _emit(json.dumps(_round_floats(doc), indent=2, allow_nan=False) + "\n", args.output)
    else:
        lines = [f"{'name':10s} {'family':18s} {'flip':>6s} {'duration':>10s}"]
        for e in entries:
            lines.append(
                f"{e.name:10s} {e.family:18s} {math.degrees(e.nominal_flip):5.0f}d "
                f"{e.duration * 1e3:7.3f} ms"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_criterion(args) -> int:
    system, shape, pulse_doc = _load_inputs(args)
    report = explicit_criterion(system, shape, n_steps=args.steps, tol=args.tol)
    doc = _meta(args, "criterion")
    doc["pulse"] = pulse_doc
    doc["system"] = _system_doc(system)
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
    fmt = _resolve_format(args, default="json")
    if fmt == "json":
        _emit(json.dumps(_round_floats(doc), indent=2, allow_nan=False) + "\n", args.output)
    else:
        flat = {}
        for key, value in doc.items():
            if isinstance(value, dict):
                for sub, v in value.items():
                    flat[f"{key}.{sub}"] = v
            elif isinstance(value, list):
                flat[key] = ";".join(_fmt(float(v)) if isinstance(v, float) else _fmt(v) for v in value)
            else:
                flat[key] = value
        lines = ["key,value"] + [f"{k},{_fmt(v)}" for k, v in flat.items()]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report.criterion23_met else EXIT_CRITERION_VIOLATED


def _cmd_propagate(args) -> int:
    system, shape, pulse_doc = _load_inputs(args)
    traj = propagate_interaction(system, shape, n_steps=args.steps, tol=args.tol)
    columns = ["t", "config_index", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"]
    # U = c E - i (v . sigma); adding 0.0 makes an exact zero print as 0, never -0
    q = np.moveaxis(traj.q, -1, 0).reshape(4, -1)
    c, vx, vy, vz, nvx, nvy, nvz = ((x + 0.0).tolist() for x in (*q, -q[1], -q[2], -q[3]))
    t = np.tile(traj.times, traj.n_configs).tolist()
    ci = np.repeat(np.arange(traj.n_configs), len(traj.times)).tolist()
    rows = list(zip(t, ci, c, nvz, nvy, nvx, vy, nvx, c, vz))
    meta = _meta(args, "propagate")
    meta["pulse"] = pulse_doc
    meta["system"] = _system_doc(system)
    _emit_table(columns, rows, meta, args)
    return EXIT_OK


def _cmd_profile(args) -> int:
    system, shape, pulse_doc = _load_inputs(args)
    offsets_hz = np.linspace(args.offset_start, args.offset_stop, args.offset_count)
    table = excitation_profile(system, shape, TWO_PI * offsets_hz, n_steps=args.steps)
    columns = ["offset_hz", "mx", "my", "mz"]
    rows = [[float(offsets_hz[i]), *map(float, table[i])] for i in range(len(offsets_hz))]
    meta = _meta(args, "profile")
    meta["pulse"] = pulse_doc
    meta["system"] = _system_doc(system)
    _emit_table(columns, rows, meta, args)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    system, shape, pulse_doc = _load_inputs(args)
    state = integrate_expansion(system, shape, n_steps=args.steps, tol=args.tol)
    alpha, beta, omega = angles_from_state(state)
    residual = state.constraint_residual()
    columns = ["t", "config_index", "f", "g_x", "g_y", "g_z", "alpha", "beta",
               "omega_hat", "constraint_residual"]
    rows = []
    for ci in range(state.n_configs):
        for k, t in enumerate(state.times):
            rows.append(
                [
                    float(t), ci, float(state.f[ci, k]),
                    float(state.g[ci, k, 0]), float(state.g[ci, k, 1]), float(state.g[ci, k, 2]),
                    float(alpha[ci, k]), float(beta[ci, k]), float(omega[ci, k]),
                    float(residual[ci, k]),
                ]
            )
    meta = _meta(args, "decompose")
    meta["pulse"] = pulse_doc
    meta["system"] = _system_doc(system)
    _emit_table(columns, rows, meta, args)
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
    parser.add_argument("--steps", type=int, default=4096, help="quadrature/propagation steps (default 4096)")
    parser.add_argument("--tol", type=float, default=1e-9, help="step-doubling endpoint tolerance (default 1e-9)")
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
    parser.add_argument("--format", choices=("json", "csv", "text"),
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
