"""
Exact time-ordered propagation in the interaction picture.

With only the S group driven and all couplings longitudinal, the interaction
Hamiltonian restricted to one I configuration is the 2x2 transverse field

    H(t) = omega1(t) [cos(-w t + phi(t)) Sx + sin(-w t + phi(t)) Sy],

where w is the configuration's effective S offset. The time-ordered
propagator is built by piecewise-constant midpoint slicing: each slice
exponential is evaluated in closed form (so unitarity is exact up to
rounding), and the grid is doubled until the endpoint stops moving to the
requested tolerance.

Slices, their products and the stored trajectory are unit quaternions
(see `su2`); `BlockTrajectory.blocks` is the 2x2 view of them. The
trajectory keeps every grid point because downstream analysis (continuous
matrix-logarithm tracking) needs dense-in-time samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import su2
from .pulses import PulseShape, sample
from .su2 import E2, SX, SY, SZ
from .system import IConfiguration, SpinSystem, energy_diagonal, offset_diagonal

DEFAULT_TOL = 1e-9
DEFAULT_MAX_DOUBLINGS = 8


class RefinementError(RuntimeError):
    """Step-doubling failed to reach the tolerance; carries the best estimate."""

    def __init__(self, message: str, estimate: float, n_steps: int):
        super().__init__(message)
        self.estimate = estimate
        self.n_steps = n_steps


@dataclass(frozen=True)
class BlockTrajectory:
    """Per-configuration propagators U(t_k) on the grid t_k = k*dt.

    q holds them as unit quaternions, shape (n_configs, n_steps + 1, 4);
    blocks builds the 2x2 matrices from q on each access, shape
    (n_configs, n_steps + 1, 2, 2). Index 0 in time is the identity. amps/phases are the midpoint
    samples actually used for the slices, offsets/energies the
    per-configuration diagonal frequencies.
    """

    times: np.ndarray
    q: np.ndarray
    amps: np.ndarray
    phases: np.ndarray
    offsets: np.ndarray
    energies: np.ndarray
    s_count: int
    n_steps: int
    refinement_levels: int
    error_estimate: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_configs(self) -> int:
        return self.q.shape[0]

    @property
    def blocks(self) -> np.ndarray:
        return su2.to_matrix(self.q)

    def endpoint_blocks(self) -> np.ndarray:
        return su2.to_matrix(self.q[:, -1])


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of U U^dagger - E, maximal over any leading axes."""
    u = np.asarray(u, dtype=complex)
    prod = u @ np.conj(np.swapaxes(u, -1, -2))
    return float(np.max(np.linalg.norm(prod - E2, axis=(-2, -1))))


def block_hamiltonian(system: SpinSystem, config: IConfiguration,
                      amp: float, phase: float, t: float) -> np.ndarray:
    """2x2 interaction-picture Hamiltonian for one I configuration.

    Traceless Hermitian with eigenvalues +-|amp|/2, so the field amplitude
    bounds the spectrum directly.
    """
    w = offset_diagonal(system).values[config.index]
    angle = -w * t + phase
    return amp * (math.cos(angle) * SX + math.sin(angle) * SY)


def su2_step(h: np.ndarray, dt: float) -> np.ndarray:
    """Closed-form exp(-i H dt) for a traceless Hermitian 2x2 H.

    Writes H = a . S and returns the exponential of the rotation vector
    a dt; exact to machine precision, no series truncation.
    """
    h = np.asarray(h, dtype=complex)
    a = np.array([2.0 * h[1, 0].real, 2.0 * h[1, 0].imag, (h[0, 0] - h[1, 1]).real])
    return su2.to_matrix(su2.exp(a * dt))


def _propagate_once(system: SpinSystem, shape: PulseShape, n_steps: int):
    sp = sample(shape, n_steps)
    offsets = offset_diagonal(system).values
    q = np.empty((len(offsets), n_steps + 1, 4))
    q[:, 0] = su2.IDENTITY
    q[:, 1:] = su2.transverse_slices(0.5 * sp.amps * sp.dt,
                                     -offsets[:, None] * sp.times + sp.phases)
    su2.prefix_products(q[:, 1:])
    times = np.arange(n_steps + 1) * sp.dt
    return times, q, sp


def propagate_interaction(system: SpinSystem, shape: PulseShape,
                          n_steps: int = 4096, tol: float | None = DEFAULT_TOL,
                          max_doublings: int = DEFAULT_MAX_DOUBLINGS) -> BlockTrajectory:
    """Time-ordered interaction-picture propagator over [0, T], all configurations.

    Starts from `n_steps` midpoint slices and doubles the grid until the
    endpoint blocks move by less than `tol` (max Frobenius norm over
    configurations) between successive refinements. Pass ``tol=None`` for a
    single fixed-grid pass.

    Raises
    ------
    RefinementError
        If the tolerance is not met within `max_doublings` refinements; the
        exception carries the best error estimate.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    energies = energy_diagonal(system).values

    times, q, sp = _propagate_once(system, shape, n_steps)
    if tol is None:
        return BlockTrajectory(
            times=times, q=q, amps=sp.amps, phases=sp.phases,
            offsets=offset_diagonal(system).values, energies=energies,
            s_count=system.s_count, n_steps=n_steps,
            refinement_levels=0, error_estimate=math.nan,
        )

    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    estimate = math.inf
    for level in range(1, max_doublings + 1):
        n_fine = n_steps * (1 << level)
        times_f, q_f, sp_f = _propagate_once(system, shape, n_fine)
        # Frobenius norm of the 2x2 difference: sqrt(2) |dq|
        estimate = math.sqrt(2.0) * float(np.max(np.linalg.norm(q_f[:, -1] - q[:, -1], axis=-1)))
        times, q, sp = times_f, q_f, sp_f
        if estimate < tol:
            return BlockTrajectory(
                times=times, q=q, amps=sp.amps, phases=sp.phases,
                offsets=offset_diagonal(system).values, energies=energies,
                s_count=system.s_count, n_steps=n_fine,
                refinement_levels=level, error_estimate=estimate,
            )
    raise RefinementError(
        f"endpoint moved by {estimate:.3e} > tol={tol:.3e} after "
        f"{max_doublings} grid doublings (finest grid {n_steps * (1 << max_doublings)} steps); "
        "increase n_steps or max_doublings",
        estimate=estimate,
        n_steps=n_steps * (1 << max_doublings),
    )


def lab_frame_propagator(system: SpinSystem, trajectory: BlockTrajectory,
                         t_index: int) -> np.ndarray:
    """Rotating-frame propagator blocks exp(-i H0 t) U_I(t) at one grid index.

    Each block picks up the diagonal phase exp(-i (E + w Sz) t) of its
    configuration, including the scalar I-spin phase exp(-i E t). Returns an
    array of shape (n_configs, 2, 2) indexed by configuration.
    """
    n_t = trajectory.q.shape[1]
    if not (-n_t <= t_index < n_t):
        raise IndexError(f"t_index {t_index} out of range for {n_t} stored times")
    t = float(trajectory.times[t_index])
    free = np.zeros((trajectory.n_configs, 3))
    free[:, 2] = trajectory.offsets * t  # exp(-i w t Sz)
    lab = su2.compose(su2.exp(free), trajectory.q[:, t_index])
    return np.exp(-1j * trajectory.energies * t)[:, None, None] * su2.to_matrix(lab)


def excitation_profile(system: SpinSystem, shape: PulseShape, offsets,
                       n_steps: int = 4096) -> np.ndarray:
    """Response table (<Sx>, <Sy>, <Sz>) after the pulse versus trial S offset.

    For each offset the initial state operator Sz evolves under the
    rotating-frame propagator per configuration; expectation values are
    averaged uniformly over I configurations (infinite-temperature I spins)
    and normalized so the initial <Sz> is 1/2. Returns shape (len(offsets), 3).
    """
    offsets = np.asarray(offsets, dtype=float)
    out = np.empty((len(offsets), 3))
    for row, w_s in enumerate(offsets):
        trial = dc_replace(system, s_offset=float(w_s))
        traj = propagate_interaction(trial, shape, n_steps=n_steps, tol=None)
        labs = lab_frame_propagator(trial, traj, -1)
        rho = labs @ SZ @ np.conj(np.swapaxes(labs, -1, -2))
        for col, op in enumerate((SX, SY, SZ)):
            out[row, col] = float(np.mean(np.trace(rho @ op, axis1=-2, axis2=-1).real))
    return out
