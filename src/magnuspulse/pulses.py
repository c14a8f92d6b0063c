"""
Shaped RF pulse envelopes, flip-angle calibration, and the criterion integrals.

A pulse is an amplitude envelope omega1(t) in rad/s plus a phase phi(t) in
rad, both defined on [0, T]. Analytic families (gaussian, sech, sinc,
hermite, constant) are amplitude-only; Fourier-series and Gaussian-cascade
envelopes carry the literature shapes bundled under data/.

Two integrals drive everything downstream:

* flip angle      theta(t) = integral_0^t omega1
* criterion value I(t)     = integral_0^t |omega1|

Both use composite midpoint quadrature, on the same grid that the propagator
modules use for time slicing, so the discrete identities (for example
I(T) == theta(T) for non-negative envelopes) hold exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

DEFAULT_N_STEPS = 4096

#: Environment variable that overrides the bundled pulse data directory.
DATA_DIR_ENV = "MAGNUSPULSE_DATA"


@dataclass(frozen=True)
class PulseShape:
    """Amplitude/phase envelope over a fixed duration.

    `amplitude_fn` maps t in [0, T] to omega1(t) in rad/s (sign allowed) and
    `phase_fn` maps t to phi(t) in rad. Both must accept numpy arrays.
    """

    duration: float
    amplitude_fn: Callable
    phase_fn: Callable

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class FourierPulseSpec:
    """Truncated Fourier-series envelope with period equal to the duration.

    omega1(t) = scale * [a0 + sum_n A_n cos(2 pi n t / T) + B_n sin(2 pi n t / T)]
    """

    name: str
    nominal_flip: float
    a0: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        values = (self.a0,) + self.cos_coeffs + self.sin_coeffs
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite Fourier coefficient in pulse {self.name!r}")

    def envelope(self, t, duration: float):
        t = np.asarray(t, dtype=float)
        x = TWO_PI * t / duration
        out = np.full_like(t, self.a0)
        for n, a in enumerate(self.cos_coeffs, start=1):
            out = out + a * np.cos(n * x)
        for n, b in enumerate(self.sin_coeffs, start=1):
            out = out + b * np.sin(n * x)
        return out


@dataclass(frozen=True)
class SampledPulse:
    """Midpoint samples of a pulse: t_k = (k + 1/2) dt for k = 0..N-1."""

    times: np.ndarray
    amps: np.ndarray
    phases: np.ndarray
    dt: float

    def __post_init__(self):
        if not (len(self.times) == len(self.amps) == len(self.phases)):
            raise ValueError("sample arrays must have equal length")


def _eval(fn, t):
    """Evaluate an envelope callable on an array of times.

    Raises
    ------
    ValueError
        If the result does not have the shape of `t` or holds a non-finite sample.
    """
    t = np.asarray(t, dtype=float)
    out = np.asarray(fn(t), dtype=float)
    if out.shape != t.shape:
        raise ValueError(f"envelope returned shape {out.shape} for {t.shape} sample times")
    if not np.all(np.isfinite(out)):
        raise ValueError("envelope produced non-finite samples")
    return out


def _zero_phase(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def build_pulse(family: str, duration: float, **params) -> PulseShape:
    """Construct a pulse envelope from a named family.

    Families and their parameters:

    * ``constant``: amplitude (rad/s, default 1.0).
    * ``gaussian``: truncation in (0, 1) (edge/peak ratio, default 0.01),
      peak (rad/s, default 1.0).
    * ``sech``: beta > 0 (default 5.3), peak.
    * ``sinc``: lobes >= 1 (zero crossings per side, default 3), peak.
    * ``hermite``: order (even >= 0, default 2), width (argument scale,
      default 1.5), truncation for the Gaussian window, peak. The envelope is
      H_order(width*u)/H_order(0) * exp(-a*u**2) on u in [-1, 1].
    * ``fourier``: spec=FourierPulseSpec, or a0/cos_coeffs/sin_coeffs.
    * ``gaussian_cascade``: amplitudes, centers, fwhms (equal-length lists;
      centers and widths as fractions of the duration).

    All families are amplitude-only (phase identically zero). Use
    `with_phase` to attach a phase function.
    """
    _require(duration > 0, f"duration must be positive, got {duration}")
    t0 = duration / 2.0

    def shape(fn):
        return PulseShape(duration=duration, amplitude_fn=fn, phase_fn=_zero_phase)

    if family == "constant":
        amplitude = float(params.pop("amplitude", 1.0))
        _require(not params, f"unexpected parameters {sorted(params)} for constant")
        return shape(lambda t: np.full_like(np.asarray(t, dtype=float), amplitude))

    if family == "gaussian":
        truncation = float(params.pop("truncation", 0.01))
        peak = float(params.pop("peak", 1.0))
        _require(not params, f"unexpected parameters {sorted(params)} for gaussian")
        _require(0.0 < truncation < 1.0, f"truncation must be in (0, 1), got {truncation}")
        a = -math.log(truncation)
        return shape(lambda t: peak * np.exp(-a * ((np.asarray(t) - t0) / t0) ** 2))

    if family == "sech":
        beta = float(params.pop("beta", 5.3))
        peak = float(params.pop("peak", 1.0))
        _require(not params, f"unexpected parameters {sorted(params)} for sech")
        _require(beta > 0, f"beta must be positive, got {beta}")
        return shape(lambda t: peak / np.cosh(beta * (np.asarray(t) - t0) / t0))

    if family == "sinc":
        lobes = params.pop("lobes", 3)
        peak = float(params.pop("peak", 1.0))
        _require(not params, f"unexpected parameters {sorted(params)} for sinc")
        _require(int(lobes) == lobes and lobes >= 1, f"lobes must be an integer >= 1, got {lobes}")
        lobes = int(lobes)
        return shape(lambda t: peak * np.sinc(lobes * (np.asarray(t) - t0) / t0))

    if family == "hermite":
        order = params.pop("order", 2)
        width = float(params.pop("width", 1.5))
        truncation = float(params.pop("truncation", 0.01))
        peak = float(params.pop("peak", 1.0))
        _require(not params, f"unexpected parameters {sorted(params)} for hermite")
        _require(int(order) == order and order >= 0 and order % 2 == 0,
                 f"order must be an even integer >= 0, got {order}")
        _require(0.0 < truncation < 1.0, f"truncation must be in (0, 1), got {truncation}")
        order = int(order)
        a = -math.log(truncation)
        coeffs = np.zeros(order + 1)
        coeffs[order] = 1.0
        h0 = np.polynomial.hermite.hermval(0.0, coeffs)

        def hermite_amp(t):
            u = (np.asarray(t) - t0) / t0
            poly = np.polynomial.hermite.hermval(width * u, coeffs) / h0
            return peak * poly * np.exp(-a * u**2)

        return shape(hermite_amp)

    if family == "fourier":
        spec = params.pop("spec", None)
        if spec is None:
            spec = FourierPulseSpec(
                name=params.pop("name", "fourier"),
                nominal_flip=float(params.pop("nominal_flip", math.pi / 2)),
                a0=float(params.pop("a0")),
                cos_coeffs=tuple(params.pop("cos_coeffs", ())),
                sin_coeffs=tuple(params.pop("sin_coeffs", ())),
            )
        _require(not params, f"unexpected parameters {sorted(params)} for fourier")
        return shape(lambda t: spec.envelope(t, duration))

    if family == "gaussian_cascade":
        amps = [float(a) for a in params.pop("amplitudes")]
        centers = [float(c) for c in params.pop("centers")]
        fwhms = [float(w) for w in params.pop("fwhms")]
        _require(not params, f"unexpected parameters {sorted(params)} for gaussian_cascade")
        _require(len(amps) == len(centers) == len(fwhms) and len(amps) >= 1,
                 "amplitudes, centers, fwhms must be equal-length non-empty lists")
        _require(all(w > 0 for w in fwhms), "cascade component widths must be positive")
        four_ln2 = 4.0 * math.log(2.0)

        def cascade_amp(t):
            x = np.asarray(t, dtype=float) / duration
            out = np.zeros_like(x)
            for a, c, w in zip(amps, centers, fwhms):
                out = out + a * np.exp(-four_ln2 * ((x - c) / w) ** 2)
            return out

        return shape(cascade_amp)

    raise ValueError(f"unknown pulse family {family!r}")


def with_phase(pulse: PulseShape, phase_fn: Callable) -> PulseShape:
    """Return a copy of `pulse` with the given phase function."""
    return replace(pulse, phase_fn=phase_fn)


def scale_amplitude(pulse: PulseShape, factor: float) -> PulseShape:
    """Return a copy of `pulse` with the amplitude multiplied by `factor`."""
    amp = pulse.amplitude_fn
    return replace(pulse, amplitude_fn=lambda t: factor * np.asarray(amp(t), dtype=float))


def _midpoints(t: float, n_steps: int) -> tuple[np.ndarray, float]:
    dt = t / n_steps
    return (np.arange(n_steps) + 0.5) * dt, dt


def flip_angle(pulse: PulseShape, t: float, n_steps: int = DEFAULT_N_STEPS) -> float:
    """Flip angle theta(t) = integral_0^t omega1, composite midpoint rule."""
    if not (0.0 <= t <= pulse.duration):
        raise ValueError(f"t={t} outside pulse support [0, {pulse.duration}]")
    if t == 0.0:
        return 0.0
    _require(n_steps >= 1, f"n_steps must be >= 1, got {n_steps}")
    mids, dt = _midpoints(t, n_steps)
    return float(np.sum(_eval(pulse.amplitude_fn, mids)) * dt)


def abs_amplitude_integral(pulse: PulseShape, t: float, n_steps: int = DEFAULT_N_STEPS) -> float:
    """Criterion integral I(t) = integral_0^t |omega1|, same grid as flip_angle."""
    if not (0.0 <= t <= pulse.duration):
        raise ValueError(f"t={t} outside pulse support [0, {pulse.duration}]")
    if t == 0.0:
        return 0.0
    _require(n_steps >= 1, f"n_steps must be >= 1, got {n_steps}")
    mids, dt = _midpoints(t, n_steps)
    return float(np.sum(np.abs(_eval(pulse.amplitude_fn, mids))) * dt)


def calibrate(pulse: PulseShape, target_flip: float, n_steps: int = DEFAULT_N_STEPS) -> PulseShape:
    """Rescale the amplitude so the total flip angle equals `target_flip` (rad).

    Raises
    ------
    ValueError
        If the envelope has (numerically) zero net area, which cannot be
        calibrated by scaling.
    """
    area = flip_angle(pulse, pulse.duration, n_steps)
    magnitude = abs_amplitude_integral(pulse, pulse.duration, n_steps)
    if magnitude == 0.0 or abs(area) < 1e-12 * magnitude:
        raise ValueError("pulse has zero net area; flip angle cannot be calibrated by scaling")
    return scale_amplitude(pulse, target_flip / area)


def sample(pulse: PulseShape, n_steps: int) -> SampledPulse:
    """Midpoint samples of amplitude and phase on an n_steps grid over [0, T]."""
    _require(n_steps >= 1, f"n_steps must be >= 1, got {n_steps}")
    mids, dt = _midpoints(pulse.duration, n_steps)
    return SampledPulse(
        times=mids,
        amps=_eval(pulse.amplitude_fn, mids),
        phases=_eval(pulse.phase_fn, mids),
        dt=dt,
    )


# ---------------------------------------------------------------------------
# Bundled pulse catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A pulse definition loaded from a JSON file."""

    name: str
    family: str
    duration: float
    nominal_flip: float
    params: dict

    def build(self) -> PulseShape:
        """Uncalibrated envelope (unit scale); calibrate for a target flip."""
        if self.family == "fourier":
            spec = FourierPulseSpec(
                name=self.name,
                nominal_flip=self.nominal_flip,
                a0=self.params["a0"],
                cos_coeffs=tuple(self.params.get("a", ())),
                sin_coeffs=tuple(self.params.get("b", ())),
            )
            return build_pulse("fourier", self.duration, spec=spec)
        return build_pulse(self.family, self.duration, **self.params)

    def build_calibrated(self, flip: float | None = None,
                         n_steps: int = DEFAULT_N_STEPS) -> PulseShape:
        """Envelope calibrated to `flip` rad (the nominal flip by default)."""
        target = self.nominal_flip if flip is None else flip
        return calibrate(self.build(), target, n_steps)


PULSE_FILE_FIELDS = {"name", "family", "duration_s", "nominal_flip_deg", "fourier", "params",
                     "source"}


def data_dir() -> Path:
    """Directory holding the bundled pulse JSON files (env override honored)."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def load_pulse_file(source) -> CatalogEntry:
    """Parse a pulse JSON file (path or open file object) into a CatalogEntry.

    Schema::

        {
          "name": "RE-BURP",
          "family": "fourier" | "gaussian" | "gaussian_cascade" | ...,
          "duration_s": 0.001,
          "nominal_flip_deg": 180.0,
          "fourier": {"a0": ..., "a": [...], "b": [...]}   # fourier family
          "params": {...},                                  # other families
          "source": "..."                                   # optional citation
        }

    family, duration_s and nominal_flip_deg are required; other fields are
    rejected.
    """
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("pulse file must contain a JSON object")
    unknown = set(doc) - PULSE_FILE_FIELDS
    if unknown:
        raise ValueError(f"unknown pulse file fields: {sorted(unknown)}")
    for key in ("family", "duration_s", "nominal_flip_deg"):
        if doc.get(key) in (None, ""):
            raise ValueError(f"pulse file is missing the {key!r} field")
    family = doc["family"]
    if family == "fourier":
        block = doc.get("fourier")
        if block is None:
            raise ValueError("fourier pulse file is missing the 'fourier' block")
        params = {
            "a0": float(block["a0"]),
            "a": [float(v) for v in block.get("a", [])],
            "b": [float(v) for v in block.get("b", [])],
        }
    else:
        params = dict(doc.get("params", {}))
    return CatalogEntry(
        name=str(doc.get("name", "pulse")),
        family=str(family),
        duration=float(doc["duration_s"]),
        nominal_flip=math.radians(float(doc["nominal_flip_deg"])),
        params=params,
    )


def list_catalog() -> list[CatalogEntry]:
    """All bundled pulses, sorted by file name."""
    directory = data_dir()
    entries = []
    for path in sorted(directory.glob("*.json")):
        entries.append(load_pulse_file(path))
    return entries


def resolve_pulse(name_or_path) -> CatalogEntry:
    """Resolve a pulse reference: a filesystem path first, then a catalog name."""
    path = Path(name_or_path)
    if path.exists():
        return load_pulse_file(path)
    stem = str(name_or_path).lower()
    candidate = data_dir() / f"{stem}.json"
    if candidate.exists():
        return load_pulse_file(candidate)
    for entry in list_catalog():
        if entry.name.lower() == stem:
            return entry
    raise ValueError(f"no pulse file or catalog entry named {name_or_path!r}")
