"""Spans around every call into the library's layers, made from outside it.

A `Tracer` replaces functions at the module attributes through which their
callers resolve them (``cli.explicit_criterion``, ``magnus.extract_omega``,
``propagation.sample`` ...) with wrappers that record a span: name, layer,
start, end, parent span and the request it belongs to. Counts are read from
the wrapped calls' arguments and return values. Everything stays in memory
until `Tracer.dump` writes it out; `Tracer.restore` puts the originals back.

A site whose attribute no longer exists is listed in `absent` and skipped,
so a renamed library function never breaks the untraced measurements.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "magnuspulse"
LAYERS = ("pulses", "system", "propagation", "magnus", "expansion", "cli")

#: Attributes wrapped in each calling module. The span's layer is the module
#: that defines the function, so ``cli.explicit_criterion`` is a magnus span.
SITES = {
    "cli": ("load_system", "resolve_pulse", "build_pulse", "calibrate", "explicit_criterion",
            "propagate_interaction", "excitation_profile", "integrate_expansion",
            "angles_from_state"),
    "magnus": ("abs_amplitude_integral", "flip_angle", "sample", "offset_diagonal",
               "propagate_interaction", "extract_omega", "angles_from_omega"),
    "propagation": ("sample", "offset_diagonal", "energy_diagonal", "propagate_interaction",
                    "lab_frame_propagator"),
    "pulses": ("flip_angle", "abs_amplitude_integral", "scale_amplitude", "build_pulse",
               "load_pulse_file", "calibrate"),
    # `_eval` is how the expansion layer samples envelopes; it is the pulses
    # boundary on the decompose path.
    "expansion": ("_eval", "offset_diagonal"),
    "system": ("m_table",),
}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _n_configs(system) -> int:
    return int(getattr(system, "n_configs", 1))


def _refined_steps(n0: int, levels: int) -> int:
    """Steps over every grid of a doubling run: n0 + 2 n0 + ... + 2**levels n0."""
    return n0 * ((2 << levels) - 1)


def _count_sampling(counts, a, result, error):
    counts["pulses.samples"] += int(a["n_steps"])


def _count_eval(counts, a, result, error):
    counts["pulses.samples"] += int(getattr(a["t"], "size", 1))


def _count_load_system(counts, a, result, error):
    if error is None:
        counts["system.configs"] += _n_configs(result)


def _count_propagation(counts, a, result, error):
    n_c, n0 = _n_configs(a["system"]), int(a["n_steps"])
    counts["propagation.calls"] += 1
    if error is not None:
        finest = int(getattr(error, "n_steps", n0))
        counts["propagation.slices_computed"] += n_c * (2 * finest - n0)
        return
    levels = int(result.refinement_levels)
    counts["propagation.slices_computed"] += n_c * _refined_steps(n0, levels)
    counts["propagation.slices_kept"] += n_c * int(result.n_steps)
    counts["propagation.refinement_levels"] += levels
    counts["propagation.trajectory_bytes"] += sum(
        v.nbytes for v in vars(result).values() if hasattr(v, "nbytes"))


def _count_extract(counts, a, result, error):
    blocks = a["trajectory"].blocks
    counts["magnus.extract_samples"] += int(blocks.shape[0] * blocks.shape[1])
    if error is not None:
        counts["magnus.failures"] += 1


def _count_expansion(counts, a, result, error):
    n0 = int(a["n_steps"])
    if error is not None:
        counts["expansion.failures"] += 1
        counts["expansion.rk4_steps_computed"] += _refined_steps(n0, int(a["max_doublings"]))
        return
    counts["expansion.rk4_steps_computed"] += _refined_steps(n0, int(result.refinement_levels))
    counts["expansion.rk4_steps_kept"] += int(result.n_steps)


#: Counters keyed by the wrapped function's own ``layer.name``.
COUNTERS = {
    "pulses.sample": _count_sampling,
    "pulses.flip_angle": _count_sampling,
    "pulses.abs_amplitude_integral": _count_sampling,
    "pulses._eval": _count_eval,
    "system.load_system": _count_load_system,
    "propagation.propagate_interaction": _count_propagation,
    "magnus.extract_omega": _count_extract,
    "expansion.integrate_expansion": _count_expansion,
}


class Tracer:
    """In-memory spans and counts for one traced benchmark phase."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[int] = []
        self._request = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        for caller, names in SITES.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{caller}")
            except ImportError:
                self.absent.extend(f"{caller}.{n}" for n in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(f"{caller}.{name}")
                    continue
                layer = fn.__module__.rpartition(".")[2]
                self._patched.append((module, name, fn))
                setattr(module, name, self._wrap(fn, f"{layer}.{fn.__name__}", layer))

    def restore(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def _open(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "request": self._request, "name": name, "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "error": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict, error: BaseException | None):
        span["end"] = time.perf_counter()
        if error is not None:
            span["error"] = type(error).__name__
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        tracer = self

        def count(args, kwargs, result, error):
            # A changed signature or return type loses the count, not the request.
            try:
                counter(tracer.counts, _bound(fn, args, kwargs), result, error)
            except (TypeError, KeyError, AttributeError, ValueError) as exc:
                tracer.counter_errors.append(f"{name}: {exc!r}")

        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, exc)
                if counter is not None:
                    count(args, kwargs, None, exc)
                raise
            tracer._close(span, None)
            if counter is not None:
                count(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def request(self, request_id: int, call):
        """Run `call()` as the root span ``cli.main`` of request `request_id`."""
        self._request = request_id
        span = self._open("cli.main", "cli")
        try:
            return call()
        finally:
            self._close(span, None)
            self._request = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "counter_errors": self.counter_errors,
                       "counts": dict(self.counts), "spans": self.spans}, fh)
