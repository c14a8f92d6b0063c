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
I(T) == theta(T) for non-negative envelopes) hold exactly; `_midpoint_integrals`
gives both from one set of samples.

Fourier envelopes are summed by Clenshaw's recurrence (C. W. Clenshaw, Math.
Tables Aids Comput. 9 (1955) 118) in Reinsch's form, which stays accurate
near x = 0 and pi: a sample costs two trig calls and a few multiply-adds per
harmonic, instead of a cos or sin per harmonic.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .system import _finite, _numbers

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
    * ``fourier``: a0, cos_coeffs A_n, sin_coeffs B_n of the series
      a0 + sum_n A_n cos(2 pi n t / T) + B_n sin(2 pi n t / T).
    * ``gaussian_cascade``: amplitudes, centers, fwhms (equal-length lists;
      centers and widths as fractions of the duration).

    All families are amplitude-only (phase identically zero); give a
    `PulseShape` its own `phase_fn` for a phase-modulated pulse.
    """
    _require(duration > 0, f"duration must be positive, got {duration}")
    t0 = duration / 2.0

    def number(key, default):
        return _finite(params.pop(key, default), key)

    def numbers(key):
        return _numbers(params.pop(key, ()), key)

    def shape(fn):
        return PulseShape(duration=duration, amplitude_fn=fn, phase_fn=_zero_phase)

    if family == "constant":
        amplitude = number("amplitude", 1.0)
        _require(not params, f"unexpected parameters {sorted(params)} for constant")
        return shape(lambda t: np.full_like(np.asarray(t, dtype=float), amplitude))

    if family == "gaussian":
        truncation = number("truncation", 0.01)
        peak = number("peak", 1.0)
        _require(not params, f"unexpected parameters {sorted(params)} for gaussian")
        _require(0.0 < truncation < 1.0, f"truncation must be in (0, 1), got {truncation}")
        a = -math.log(truncation)
        return shape(lambda t: peak * np.exp(-a * ((np.asarray(t) - t0) / t0) ** 2))

    if family == "sech":
        beta = number("beta", 5.3)
        peak = number("peak", 1.0)
        _require(not params, f"unexpected parameters {sorted(params)} for sech")
        _require(beta > 0, f"beta must be positive, got {beta}")
        return shape(lambda t: peak / np.cosh(beta * (np.asarray(t) - t0) / t0))

    if family == "sinc":
        lobes = number("lobes", 3)
        peak = number("peak", 1.0)
        _require(not params, f"unexpected parameters {sorted(params)} for sinc")
        _require(lobes.is_integer() and lobes >= 1, f"lobes must be an integer >= 1, got {lobes}")
        lobes = int(lobes)
        return shape(lambda t: peak * np.sinc(lobes * (np.asarray(t) - t0) / t0))

    if family == "hermite":
        order = number("order", 2)
        width = number("width", 1.5)
        truncation = number("truncation", 0.01)
        peak = number("peak", 1.0)
        _require(not params, f"unexpected parameters {sorted(params)} for hermite")
        _require(order.is_integer() and order >= 0 and order % 2 == 0,
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
        _require("a0" in params, "fourier pulses need the a0 parameter")
        a0 = number("a0", None)
        cos_c = numbers("cos_coeffs")
        sin_c = numbers("sin_coeffs")
        _require(not params, f"unexpected parameters {sorted(params)} for fourier")

        def fourier_amp(t):
            # Clenshaw's recurrence b_k = c_k + 2 cos x b_{k+1} - b_{k+2}, x = 2 pi t / T, in
            # Reinsch's form, which stays accurate where cos x is near +-1 (the plain one lost
            # up to 1.2e-14 of sum |c_k| there). With s = sign(cos x) and
            # d = 2 (s cos x - 1) = -4 min(cos^2, sin^2)(x / 2), the sums
            # e_k = s^k c_k + d f_{k+1} + e_{k+1} and f_k = e_k + f_{k+1} give b_k = s^k f_k,
            # so sum_k c_k cos kx = e_1 + d f_1 / 2 and sum_k c_k sin kx = sin x s f_1.
            half = math.pi * np.asarray(t, dtype=float) / duration
            hc, hs = np.cos(half), np.sin(half)
            sign = np.where(np.abs(hc) >= np.abs(hs), 1.0, -1.0)
            d = -4.0 * np.minimum(hc * hc, hs * hs)

            def clenshaw(coeffs):
                e, f, tmp = np.zeros_like(half), np.zeros_like(half), np.empty_like(half)
                for k in range(len(coeffs), 0, -1):
                    e += np.multiply(d, f, out=tmp)
                    e += np.multiply(sign, coeffs[k - 1], out=tmp) if k % 2 else coeffs[k - 1]
                    f += e
                return e, f

            e, f = clenshaw(cos_c)
            return a0 + (e + 0.5 * d * f) + 2.0 * hs * hc * sign * clenshaw(sin_c)[1]

        return shape(fourier_amp)

    if family == "gaussian_cascade":
        _require({"amplitudes", "centers", "fwhms"} <= set(params),
                 "gaussian_cascade pulses need amplitudes, centers and fwhms")
        amps, centers, fwhms = numbers("amplitudes"), numbers("centers"), numbers("fwhms")
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


def scale_amplitude(pulse: PulseShape, factor: float) -> PulseShape:
    """Return a copy of `pulse` with the amplitude multiplied by `factor`."""
    amp = pulse.amplitude_fn
    return replace(pulse, amplitude_fn=lambda t: factor * np.asarray(amp(t), dtype=float))


def _midpoints(t: float, n_steps: int) -> tuple[np.ndarray, float]:
    dt = t / n_steps
    return (np.arange(n_steps) + 0.5) * dt, dt


def _midpoint_integrals(pulse: PulseShape, t: float, n_steps: int) -> tuple[float, float]:
    """(integral of omega1, integral of |omega1|) over [0, t] from one set of midpoint samples."""
    if not (0.0 <= t <= pulse.duration):
        raise ValueError(f"t={t} outside pulse support [0, {pulse.duration}]")
    if t == 0.0:
        return 0.0, 0.0
    _require(n_steps >= 1, f"n_steps must be >= 1, got {n_steps}")
    mids, dt = _midpoints(t, n_steps)
    amps = _eval(pulse.amplitude_fn, mids)
    return float(np.sum(amps) * dt), float(np.sum(np.abs(amps)) * dt)


def flip_angle(pulse: PulseShape, t: float, n_steps: int = DEFAULT_N_STEPS) -> float:
    """Flip angle theta(t) = integral_0^t omega1, composite midpoint rule."""
    return _midpoint_integrals(pulse, t, n_steps)[0]


def abs_amplitude_integral(pulse: PulseShape, t: float, n_steps: int = DEFAULT_N_STEPS) -> float:
    """Criterion integral I(t) = integral_0^t |omega1|, same grid as flip_angle."""
    return _midpoint_integrals(pulse, t, n_steps)[1]


def calibrate(pulse: PulseShape, target_flip: float, n_steps: int = DEFAULT_N_STEPS) -> PulseShape:
    """Rescale the amplitude so the total flip angle equals `target_flip` (rad).

    Raises
    ------
    ValueError
        If the envelope has (numerically) zero net area, which cannot be
        calibrated by scaling.
    """
    area, magnitude = _midpoint_integrals(pulse, pulse.duration, n_steps)
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
    """A pulse definition loaded from a JSON file; `params` are its `build_pulse` arguments."""

    name: str
    family: str
    duration: float
    nominal_flip: float
    params: dict

    def build(self) -> PulseShape:
        """Uncalibrated envelope (unit scale); calibrate for a target flip."""
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
        if not isinstance(block, dict) or "a0" not in block:
            raise ValueError(f"fourier pulse file needs a 'fourier' object with 'a0', "
                             f"got {block!r}")
        params = {"a0": _finite(block["a0"], "fourier.a0")}
        for key, name in (("a", "cos_coeffs"), ("b", "sin_coeffs")):
            params[name] = _numbers(block.get(key, []), f"fourier.{key}")
    else:
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, got {params!r}")
    return CatalogEntry(
        name=str(doc.get("name", "pulse")),
        family=str(family),
        duration=_finite(doc["duration_s"], "duration_s"),
        nominal_flip=math.radians(_finite(doc["nominal_flip_deg"], "nominal_flip_deg")),
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
