"""Seeded request generator for the four benchmark workloads.

Every request is one CLI command whose pulse and system live in JSON files
written by the benchmark; the CLI only ever sees paths and flags, and always
runs at its defaults (``--steps 4096 --tol 1e-9``).

Requests come in cycles. Each cycle visits every stratum of its workload once
(pulse x system size x command, or offset-count band for profiles) in a
fixed order. A stratum's base parameters are fixed; the seed jitters every
continuous one by a few percent (offsets by a few Hz). A run therefore sees
the same mix of work whatever its seed, which keeps medians comparable
across seeds, while no two seeds send the same inputs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANALYTIC_FAMILIES = ("gaussian", "sech", "sinc")
WORKLOADS = ("verdict", "tables", "sweep", "spectators")


@dataclass(frozen=True)
class Request:
    """One CLI request: command, pulse and system documents, extra flags."""

    index: int
    command: str
    pulse: dict
    system: dict
    offsets: tuple[float, float, int] | None = None

    @property
    def n_spectators(self) -> int:
        return len(self.system["i_spins"])

    @property
    def n_configs(self) -> int:
        return 1 << self.n_spectators

    def argv(self, pulse_path: str, system_path: str, output_path: str | None) -> list[str]:
        argv = [self.command, "--pulse", pulse_path, "--system", system_path]
        if self.offsets is not None:
            start, stop, count = self.offsets
            argv += ["--offset-start", repr(start), "--offset-stop", repr(stop),
                     "--offset-count", str(count)]
        if output_path is not None:
            argv += ["--output", output_path]
        return argv


def load_catalog(data_dir: Path) -> list[dict]:
    """The bundled pulse documents, read as plain JSON in file-name order."""
    return [json.loads(p.read_text()) for p in sorted(data_dir.glob("*.json"))]


#: Base values of every stratum come from this fixed generator seed; the run
#: seed only jitters them. Refinement depth, and with it cost, jumps with
#: small changes of offsets and flips, so unjittered seeded draws would make
#: medians differ from seed to seed by the luck of the draw.
STRATA_SEED = 1204_4872
JITTER = 0.05


def _jitter(rng: np.random.Generator, value: float) -> float:
    return float(value * (1.0 + rng.uniform(-JITTER, JITTER)))


def _analytic_pulse(base: np.random.Generator, rng: np.random.Generator, family: str) -> dict:
    duration = _jitter(rng, math.exp(base.uniform(math.log(0.53e-3), math.log(3.8e-3))))
    flip = _jitter(rng, base.uniform(32.0, 285.0))
    if family == "gaussian":
        params = {"truncation": _jitter(rng, base.uniform(0.005, 0.05))}
    elif family == "sech":
        params = {"beta": _jitter(rng, base.uniform(3.0, 7.0))}
    else:
        params = {"lobes": int(base.integers(2, 5))}
    return {
        "name": f"{family}-{flip:.1f}deg",
        "family": family,
        "duration_s": duration,
        "nominal_flip_deg": flip,
        "params": params,
    }


def _system(base: np.random.Generator, rng: np.random.Generator,
            n_spectators: int, s_count: int) -> dict:
    def hz(low, high, spread):
        return float(base.uniform(low, high) + rng.uniform(-spread, spread))

    spins = [{"offset_hz": hz(-80.0, 80.0, 2.0), "j_to_s_hz": hz(0.5, 12.0, 0.25)}
             for _ in range(n_spectators)]
    j_ii = [[k, l, hz(0.0, 8.0, 0.25)]
            for k in range(n_spectators) for l in range(k + 1, n_spectators)
            if base.random() < 0.5]
    return {"s_count": s_count, "s_offset_hz": hz(-50.0, 50.0, 2.0),
            "i_spins": spins, "j_ii_hz": j_ii}


#: Spectator counts and S-spin counts visited by one spectators cycle.
SPECTATOR_SIZES = ((3, 1), (4, 1), (3, 2), (5, 1), (4, 2))


def _cycle(workload: str, catalog: list[dict], rng: np.random.Generator, c: int) -> list[tuple]:
    """Cycle `c` as (command, pulse, system, offsets) tuples.

    The pool is the 8 catalog pulses plus two pulses of each analytic
    family. Which pulse meets which system size, command or offset band is
    fixed by position, so every seed runs the same mix of work.
    """
    def base(k):
        return np.random.default_rng([STRATA_SEED, WORKLOADS.index(workload), k])

    pulses = list(catalog) + [_analytic_pulse(base(100 + k), rng, family)
                              for k, family in enumerate(ANALYTIC_FAMILIES * 2)]
    n = len(pulses)
    items = []
    if workload == "verdict":
        for k, p in enumerate(pulses):
            items.append(("criterion", p, _system(base(k), rng, k % 3, 1 + (k // 3) % 2), None))
    elif workload == "tables":
        for k, p in enumerate(pulses):
            command = ("decompose", "propagate")[(k + c) % 2]
            items.append((command, p, _system(base(k), rng, k % 3, 1), None))
    elif workload == "sweep":
        bands = np.linspace(21, 101, n)
        for k, p in enumerate(pulses):
            b = base(k)
            count = int(round(bands[(5 * k) % n])) + int(rng.integers(-2, 3))
            half_width = _jitter(rng, b.uniform(1053.0, 4761.0))
            items.append(("profile", p, _system(b, rng, k % 3, 1),
                          (-half_width, half_width, min(max(count, 21), 101))))
    elif workload == "spectators":
        for j, size in enumerate(SPECTATOR_SIZES):
            k = (len(SPECTATOR_SIZES) * c + j) % n
            items.append(("criterion", pulses[k], _system(base(k), rng, *size), None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def requests(workload: str, seed: int, catalog: list[dict], count: int) -> list[Request]:
    """The first `count` seeded Requests of `workload`, cycle after cycle."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = []
    for c in itertools.count():
        for command, pulse, system, offsets in _cycle(workload, catalog, rng, c):
            if len(out) == count:
                return out
            out.append(Request(len(out), command, pulse, system, offsets))
