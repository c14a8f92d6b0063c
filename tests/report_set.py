"""Print a fixed comparison set of criterion reports and CLI outputs, one line per case.

Run from the repository root, with numpy as the only dependency:

    PYTHONPATH=src python tests/report_set.py [--seed 3] [--keep DIR] > reports.txt

Two checkouts that give the same results print the same bytes, so a change
meant to be bit-identical is checked with `cmp` on the two outputs. Each line
holds one of:

- the full-precision `CriterionReport` repr, or the `ExtractionError` text,
  for every catalog pulse at its nominal flip, 360 and 720 deg on the S, SAX
  and S2AX systems at the library defaults;
- the same for U-BURP, RE-BURP, E-BURP-2, I-BURP-2, G3 and Q3 at 360, 540 and
  720 deg on 0-4 spectators (offsets 30 + 17k Hz, J = 3 + 1.5k Hz, S offset
  10 Hz) with one and two S spins, at 1024 steps;
- the sha1 of the `omega`, `omega_hat` and `ambiguous` bytes of
  `extract_omega`, or the `ExtractionError` text, and the sha1 of the
  `(alpha, beta, omega)` bytes of `angles_from_state(integrate_expansion(...))`,
  or the `RefinementError` text, for every catalog pulse at its nominal flip
  and at 720 deg (where the tracked angles pass whole turns) on the same S,
  SAX and S2AX systems at the defaults;
- the exit code and the sha1 of stdout, stderr and the output file of the
  first requests of the benchmark workloads (`perfbench/inputs.py`) for the
  given seed;
- the sha1 of the `q` and `amps` bytes of `propagate_interaction`, with its
  `n_steps` and `error_estimate`, the sha1 of the `q` bytes of
  `integrate_expansion`, and the sha1 of the `excitation_profile` bytes at
  101 offsets over +-3 kHz, or the `RefinementError` text, for every catalog
  pulse at its nominal flip on the same S, SAX and S2AX systems at the
  defaults: the stored routes' bits, not only what is read off them;
- the `extract_omega` line as above for every catalog pulse at 360 deg on
  the same systems, where a configuration may come near -E without
  reaching it;
- the sha1 of the `q` bytes of `integrate_expansion` on SAX at 16384 and
  131072 steps with ``tol=None``, for every catalog pulse at its nominal
  flip: RK4 grids long enough for the factor order of a product and the
  turn table of a grid to show in the bits.

With `--keep DIR` each of those requests also leaves its exit code, stdout
and output file in DIR, as `<workload>-<index>-<command>.exit`, `.stdout`
and `.csv`, so that a change that is not bit-identical can be compared by
value with `tests/compare_outputs.py`. The printed lines stay the same.

The file is not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from magnuspulse import (ISpin, RefinementError, SpinSystem, angles_from_state,  # noqa: E402
                         calibrate, excitation_profile, explicit_criterion, extract_omega,
                         integrate_expansion, list_catalog, propagate_interaction)
from magnuspulse.cli import main  # noqa: E402
from magnuspulse.magnus import ExtractionError  # noqa: E402

TWO_PI = 2.0 * math.pi
#: Requests of each benchmark workload, in order.
REQUESTS = {"verdict": 23, "tables": 19, "sweep": 20, "spectators": 5}
SPECTATOR_PULSES = ("U-BURP", "RE-BURP", "E-BURP-2", "I-BURP-2", "G3", "Q3")


def _report(system: SpinSystem, shape, **kwargs) -> str:
    try:
        return repr(explicit_criterion(system, shape, **kwargs))
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"


def _extraction(system: SpinSystem, shape) -> str:
    try:
        solution = extract_omega(propagate_interaction(system, shape))
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"
    return " ".join(f"{name} sha1 {hashlib.sha1(getattr(solution, name).tobytes()).hexdigest()}"
                    for name in ("omega", "omega_hat", "ambiguous"))


def _angles(system: SpinSystem, shape) -> str:
    try:
        angles = angles_from_state(integrate_expansion(system, shape))
    except RefinementError as exc:
        return f"RefinementError: {exc}"
    return f"alpha, beta, omega sha1 {hashlib.sha1(np.stack(angles).tobytes()).hexdigest()}"


def _catalog_systems() -> dict[str, SpinSystem]:
    spins = (ISpin(offset=TWO_PI * 35.0, j_to_s=8.0), ISpin(offset=-TWO_PI * 55.0, j_to_s=4.0))
    sax = dict(s_offset=TWO_PI * 10.0, i_spins=spins, j_ii={(0, 1): 5.0})
    return {"S": SpinSystem(s_count=1, s_offset=0.0), "SAX": SpinSystem(s_count=1, **sax),
            "S2AX": SpinSystem(s_count=2, **sax)}


def catalog_cases():
    systems = _catalog_systems()
    for entry in list_catalog():
        for flip in ("nominal", 360.0, 720.0):
            target = entry.nominal_flip if flip == "nominal" else math.radians(flip)
            shape = calibrate(entry.build(), target)
            for name, system in systems.items():
                yield f"{entry.name} {flip} {name}", _report(system, shape)


def extraction_cases():
    systems = _catalog_systems()
    for entry in list_catalog():
        for flip in ("nominal", 720.0):
            target = entry.nominal_flip if flip == "nominal" else math.radians(flip)
            shape = calibrate(entry.build(), target)
            for name, system in systems.items():
                yield f"{entry.name} {flip} {name} extract_omega", _extraction(system, shape)
                yield f"{entry.name} {flip} {name} angles_from_state", _angles(system, shape)


def spectator_cases(n_steps: int = 1024):
    entries = {e.name: e for e in list_catalog()}
    for name in SPECTATOR_PULSES:
        for deg in (360.0, 540.0, 720.0):
            shape = calibrate(entries[name].build(), math.radians(deg), n_steps)
            for n in range(5):
                spins = tuple(ISpin(offset=TWO_PI * (30.0 + 17.0 * k), j_to_s=3.0 + 1.5 * k)
                              for k in range(n))
                for s_count in (1, 2):
                    system = SpinSystem(s_count=s_count, s_offset=TWO_PI * 10.0, i_spins=spins)
                    yield (f"{name} {deg} spectators={n} s_count={s_count}",
                           _report(system, shape, n_steps=n_steps))


def _sha1(*arrays) -> str:
    return hashlib.sha1(b"".join(array.tobytes() for array in arrays)).hexdigest()


def _propagated(system: SpinSystem, shape) -> str:
    traj = propagate_interaction(system, shape)
    return (f"q, amps sha1 {_sha1(traj.q, traj.amps)} n_steps {traj.n_steps} "
            f"error_estimate {traj.error_estimate!r}")


def stored_route_cases():
    offsets = np.linspace(-TWO_PI * 3e3, TWO_PI * 3e3, 101)
    routes = {
        "propagate_interaction": _propagated,
        "integrate_expansion": lambda system, shape: (
            f"q sha1 {_sha1(integrate_expansion(system, shape).q)}"),
        "excitation_profile": lambda system, shape: (
            f"sha1 {_sha1(excitation_profile(system, shape, offsets))}"),
    }
    systems = _catalog_systems()
    for entry in list_catalog():
        shape = calibrate(entry.build(), entry.nominal_flip)
        for name, system in systems.items():
            for route, line in routes.items():
                try:
                    text = line(system, shape)
                except RefinementError as exc:
                    text = f"RefinementError: {exc}"
                yield f"{entry.name} nominal {name} {route}", text


def extraction_360_cases():
    systems = _catalog_systems()
    for entry in list_catalog():
        shape = calibrate(entry.build(), TWO_PI)
        for name, system in systems.items():
            yield f"{entry.name} 360.0 {name} extract_omega", _extraction(system, shape)


def rk4_grid_cases():
    sax = _catalog_systems()["SAX"]
    for entry in list_catalog():
        shape = calibrate(entry.build(), entry.nominal_flip)
        for n_steps in (16384, 131072):
            traj = integrate_expansion(sax, shape, n_steps=n_steps, tol=None)
            yield (f"{entry.name} nominal SAX integrate_expansion {n_steps}",
                   f"q sha1 {_sha1(traj.q)}")


def cli_cases(seed: int, keep: Path | None = None):
    catalog = inputs.load_catalog(ROOT / "src" / "magnuspulse" / "data")
    with tempfile.TemporaryDirectory() as tmp:
        pulse, system, output = (Path(tmp) / n for n in ("pulse.json", "system.json", "out.csv"))
        for workload, count in REQUESTS.items():
            for req in inputs.requests(workload, seed, catalog, count):
                pulse.write_text(json.dumps(req.pulse))
                system.write_text(json.dumps(req.system))
                output.unlink(missing_ok=True)
                out_path = str(output) if req.command != "criterion" else None
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = main(req.argv(str(pulse), str(system), out_path))
                digest = hashlib.sha1(stdout.getvalue().encode())
                digest.update(stderr.getvalue().replace(tmp, "<tmp>").encode())
                digest.update(output.read_bytes() if output.exists() else b"")
                if keep is not None:
                    stem = f"{workload}-{req.index}-{req.command}"
                    (keep / f"{stem}.exit").write_text(f"{rc}\n")
                    (keep / f"{stem}.stdout").write_text(stdout.getvalue())
                    if output.exists():
                        shutil.copyfile(output, keep / f"{stem}.csv")
                yield (f"{workload} {req.index} {req.command}",
                       f"exit {rc} sha1 {digest.hexdigest()}")


def report(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3, help="benchmark request seed (default 3)")
    parser.add_argument("--keep", type=Path, help="directory for each request's outputs")
    args = parser.parse_args(argv)
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
    np.set_printoptions(floatmode="unique", threshold=sys.maxsize, linewidth=sys.maxsize)
    for cases in (catalog_cases(), extraction_cases(), spectator_cases(),
                  cli_cases(args.seed, args.keep), stored_route_cases(),
                  extraction_360_cases(), rk4_grid_cases()):
        for label, line in cases:
            print(f"{label}: {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(report())
