"""Independent references and output checks for every benchmark request.

Nothing here calls the code under test. Envelopes are evaluated from the
pulse documents with the formulas the library documents, spin-system
offsets come from the documented basis convention, and propagators are
time-ordered products of ``scipy.linalg.expm`` over fourth-order Magnus
steps in the rotating frame, a different discretization from the library's
interaction-picture midpoint slicing.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
from scipy.linalg import expm

TWO_PI = 2.0 * math.pi
CLI_STEPS = 4096

#: Relative agreement of I(T) with the fine quadrature; the CLI uses a
#: 4096-point midpoint rule, whose error on these envelopes is below 1e-6.
INTEGRAL_RTOL = 1e-5
#: Slack on the pointwise bound I(t) - omega_hat(t) >= 0 (rounding only).
BOUND_TOL = 1e-9
#: Unitarity / unit-norm tolerance on rows printed with 12 digits.
ROW_TOL = 1e-9
#: Endpoint agreement with the reference product; the CLI refines to 1e-9.
ENDPOINT_TOL = 1e-7
#: Magnetisation agreement at spot-checked offsets. Profiles run on the
#: fixed 4096-step grid without refinement, so this is a discretization
#: bound, far below the 0.5 full scale.
PROFILE_TOL = 1e-3
REFERENCE_STEPS = 2048
FINE_QUADRATURE_POINTS = 1 << 18

SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)


def envelope(doc: dict):
    """Unscaled amplitude envelope t -> omega1(t) of a pulse document."""
    duration = float(doc["duration_s"])
    family = doc["family"]
    params = doc.get("params", {})
    half = duration / 2.0
    if family == "fourier":
        block = doc["fourier"]
        a0, cos_c, sin_c = block["a0"], block.get("a", []), block.get("b", [])

        def fourier(t):
            x = TWO_PI * t / duration
            out = np.full_like(t, a0)
            for n, a in enumerate(cos_c, start=1):
                out += a * np.cos(n * x)
            for n, b in enumerate(sin_c, start=1):
                out += b * np.sin(n * x)
            return out

        return fourier
    if family == "gaussian_cascade":
        comps = list(zip(params["amplitudes"], params["centers"], params["fwhms"]))
        return lambda t: sum(a * np.exp(-4.0 * math.log(2.0) * ((t / duration - c) / w) ** 2)
                             for a, c, w in comps)
    if family == "gaussian":
        a = -math.log(params["truncation"])
        return lambda t: np.exp(-a * ((t - half) / half) ** 2)
    if family == "sech":
        return lambda t: 1.0 / np.cosh(params["beta"] * (t - half) / half)
    if family == "sinc":
        return lambda t: np.sinc(params["lobes"] * (t - half) / half)
    raise ValueError(f"no reference envelope for family {family!r}")


def calibrated_envelope(doc: dict):
    """Envelope scaled as the CLI documents: flip = 4096-point midpoint area."""
    env = envelope(doc)
    duration = float(doc["duration_s"])
    dt = duration / CLI_STEPS
    area = float(np.sum(env((np.arange(CLI_STEPS) + 0.5) * dt)) * dt)
    scale = math.radians(doc["nominal_flip_deg"]) / area
    return lambda t: scale * env(t)


def criterion_integrals(doc: dict) -> tuple[float, float]:
    """(I(T), theta(T)) from a 2**18-point trapezoid rule on the raw envelope."""
    env = envelope(doc)
    t = np.linspace(0.0, float(doc["duration_s"]), FINE_QUADRATURE_POINTS + 1)
    values = env(t)
    ratio = np.trapezoid(np.abs(values), t) / np.trapezoid(values, t)
    flip = math.radians(doc["nominal_flip_deg"])
    return flip * float(ratio), flip


def config_offsets(system: dict, s_offset_hz: float | None = None) -> np.ndarray:
    """Effective S offset (rad/s) per spectator configuration, index order.

    Spectator k maps to bit n-1-k of the configuration index, bit 0 = m +1/2.
    """
    spins = system["i_spins"]
    n = len(spins)
    base = TWO_PI * (system["s_offset_hz"] if s_offset_hz is None else s_offset_hz)
    out = np.full(1 << n, base)
    for index in range(1 << n):
        for k, spin in enumerate(spins):
            m = 0.5 if ((index >> (n - 1 - k)) & 1) == 0 else -0.5
            out[index] += TWO_PI * spin["j_to_s_hz"] * m
    return out


def rotating_frame_propagators(amplitude, duration: float, offsets: np.ndarray,
                               n_steps: int = REFERENCE_STEPS) -> np.ndarray:
    """U(T) for H_c(t) = w_c Sz + omega1(t) Sx, one 2x2 block per offset.

    Two-point Gauss-Legendre Magnus steps (fourth order), each exponentiated
    by scipy, multiplied in time order by pairwise reduction.
    """
    h = duration / n_steps
    starts = np.arange(n_steps) * h
    amps = [amplitude(starts + (0.5 + sign * math.sqrt(3.0) / 6.0) * h) for sign in (-1.0, 1.0)]
    a1, a2 = (-1j * (offsets[:, None, None, None] * SZ + amp[None, :, None, None] * SX)
              for amp in amps)
    omega = 0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
    steps = expm(omega.reshape(-1, 2, 2)).reshape(omega.shape)
    while steps.shape[1] > 1:
        if steps.shape[1] % 2:
            steps = np.concatenate([steps, np.broadcast_to(np.eye(2), steps[:, :1].shape)], axis=1)
        steps = steps[:, 1::2] @ steps[:, 0::2]
    return steps[:, 0]


def interaction_endpoints(pulse: dict, system: dict) -> np.ndarray:
    """Interaction-picture U_I(T) = exp(+i w Sz T) U_rot(T), per configuration."""
    duration = float(pulse["duration_s"])
    offsets = config_offsets(system)
    u_rot = rotating_frame_propagators(calibrated_envelope(pulse), duration, offsets)
    phase = np.exp(0.5j * offsets * duration)
    frame = np.zeros((len(offsets), 2, 2), dtype=complex)
    frame[:, 0, 0] = phase
    frame[:, 1, 1] = np.conj(phase)
    return frame @ u_rot


def _table(text: str) -> np.ndarray:
    """CSV body (header skipped) as a float array, one row per line."""
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def _endpoint_rows(body: np.ndarray, n_configs: int) -> list[int]:
    """Index of the last row of every configuration, in configuration order."""
    configs = body[:, 1].astype(int)
    if sorted(set(configs.tolist())) != list(range(n_configs)):
        raise ValueError(f"expected configurations 0..{n_configs - 1}, got {sorted(set(configs.tolist()))}")
    return [int(np.flatnonzero(configs == c)[-1]) for c in range(n_configs)]


def check_criterion(request, rc: int, text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    i_ref, theta_ref = criterion_integrals(request.pulse)
    if not math.isclose(doc["I_T"], i_ref, rel_tol=INTEGRAL_RTOL):
        problems.append(f"I_T {doc['I_T']!r} != reference {i_ref!r}")
    if not math.isclose(doc["theta_T"], theta_ref, rel_tol=INTEGRAL_RTOL):
        problems.append(f"theta_T {doc['theta_T']!r} != reference {theta_ref!r}")
    for key, ref in (("criterion23", i_ref), ("criterion25", theta_ref)):
        if abs(ref - TWO_PI) > INTEGRAL_RTOL * TWO_PI and doc[key] != (ref < TWO_PI):
            problems.append(f"{key}={doc[key]} but reference integral is {ref!r}")
    if doc["bound21_margin"] is None or doc["bound21_margin"] < -BOUND_TOL:
        problems.append(f"bound21_margin {doc['bound21_margin']!r} < 0")
    if rc != (0 if doc["criterion23"] else 3):
        problems.append(f"exit code {rc} disagrees with criterion23={doc['criterion23']}")
    return problems


def check_blocks(request, rc: int, text: str) -> list[str]:
    """propagate: every row unitary, endpoint equal to the reference product."""
    body = _table(text)
    u = np.empty((len(body), 2, 2), dtype=complex)
    for i, (r, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        u[:, r, c] = body[:, 2 + 2 * i] + 1j * body[:, 3 + 2 * i]
    problems = []
    defect = float(np.max(np.abs(u @ np.conj(np.swapaxes(u, -1, -2)) - np.eye(2))))
    if defect > ROW_TOL:
        problems.append(f"row unitarity defect {defect:.3e}")
    end = u[_endpoint_rows(body, request.n_configs)]
    err = float(np.max(np.abs(end - interaction_endpoints(request.pulse, request.system))))
    if err > ENDPOINT_TOL:
        problems.append(f"endpoint differs from reference by {err:.3e}")
    return problems


def check_expansion(request, rc: int, text: str) -> list[str]:
    """decompose: f^2 + |g|^2 = 1 on every row, endpoint equal to the reference."""
    body = _table(text)
    f, g = body[:, 2], body[:, 3:6]
    problems = []
    residual = float(np.max(np.abs(f * f + np.sum(g * g, axis=1) - 1.0)))
    if residual > ROW_TOL:
        problems.append(f"f^2 + |g|^2 - 1 reaches {residual:.3e}")
    end = body[_endpoint_rows(body, request.n_configs)]
    u = interaction_endpoints(request.pulse, request.system)
    # U = f E - i (g . sigma): f = Re U00, g_x = -Im U01, g_y = -Re U01, g_z = -Im U00.
    ref = np.stack([u[:, 0, 0].real, -u[:, 0, 1].imag, -u[:, 0, 1].real, -u[:, 0, 0].imag], axis=-1)
    err = float(np.max(np.abs(end[:, 2:6] - ref)))
    if err > ENDPOINT_TOL:
        problems.append(f"endpoint (f, g) differs from reference by {err:.3e}")
    return problems


def check_profile(request, rc: int, text: str, spot_checks: int = 3) -> list[str]:
    """profile: |m| <= 1/2 on every row, seeded offsets against the reference."""
    body = _table(text)
    start, stop, count = request.offsets
    problems = []
    if body.shape[0] != count or not np.allclose(body[:, 0], np.linspace(start, stop, count),
                                                 rtol=0, atol=1e-6):
        problems.append("offset column does not match the requested grid")
        return problems
    norm = float(np.max(np.linalg.norm(body[:, 1:4], axis=1)))
    if norm > 0.5 + ROW_TOL:
        problems.append(f"magnetisation norm {norm!r} exceeds 1/2")
    rng = np.random.default_rng(request.index)
    rows = rng.choice(count, size=min(spot_checks, count), replace=False)
    amp = calibrated_envelope(request.pulse)
    duration = float(request.pulse["duration_s"])
    for row in rows:
        offsets = config_offsets(request.system, s_offset_hz=float(body[row, 0]))
        u = rotating_frame_propagators(amp, duration, offsets)
        rho = u @ SZ @ np.conj(np.swapaxes(u, -1, -2))
        ref = [float(np.mean(np.trace(rho @ op, axis1=-2, axis2=-1).real)) for op in (SX, SY, SZ)]
        err = float(np.max(np.abs(body[row, 1:4] - ref)))
        if err > PROFILE_TOL:
            problems.append(f"offset {body[row, 0]:.1f} Hz differs from reference by {err:.3e}")
    return problems


CHECKS = {
    "criterion": check_criterion,
    "propagate": check_blocks,
    "decompose": check_expansion,
    "profile": check_profile,
}


def check(request, rc: int, text: str) -> list[str]:
    """Problems with one request's output; exit codes 2 and 4 are failures."""
    if rc not in (0, 3) or (rc == 3 and request.command != "criterion"):
        return [f"exit code {rc}"]
    try:
        return CHECKS[request.command](request, rc, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def corrupt(command: str, text: str) -> str:
    """A deliberately wrong version of a valid output, for the self-check."""
    if command == "criterion":
        doc = json.loads(text)
        doc["I_T"] = doc["I_T"] * 1.01
        return json.dumps(doc)
    lines = text.rstrip("\n").split("\n")
    cells = lines[-1].split(",")
    if command == "profile":
        cells[1] = "0.9"
    else:
        cells[2] = repr(float(cells[2]) + 0.01)
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"
