"""
Exact time-ordered propagation in the interaction picture.

With only the S group driven and all couplings longitudinal, the interaction
Hamiltonian restricted to one I configuration is the 2x2 transverse field

    H(t) = omega1(t) [cos(-w t + phi(t)) Sx + sin(-w t + phi(t)) Sy],

where w is the configuration's effective S offset. The time-ordered
propagator is built by piecewise-constant midpoint slicing: each slice
exponential is evaluated in closed form (so unitarity is exact up to
rounding), and the grid is doubled until the endpoint stops moving to the
requested tolerance. `_refine` is that doubling driver for both routes: the
expansion module hands it RK4 step quaternions instead of exact slices.

A slice's transverse part sin h e^{i phi_k}, shared by every configuration,
is turned by e^{-i w t_k} from `su2.rotating_field`, which builds a whole
row by angle addition from about 2 sqrt(n) trig calls. When every phase is
0, as for every family `build_pulse` makes, e^{i phi} = 1 and its trig is
skipped.

Slices, their products and the stored trajectory are unit quaternions
(see `su2`); `su2.to_matrix` gives the 2x2 view of any of them. A grid that
refinement discards only contributes its endpoint, a pairwise product
(`su2.reduce`); the accepted grid is scanned in place from its reduction's
levels (`su2.scan`) for every grid point of it, because downstream analysis
(continuous matrix-logarithm tracking) needs dense-in-time samples.
Excitation profiles need endpoints only and never build a trajectory. No
propagator carries the I-spin energies' scalar phase, which cancels (see `system`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import su2
from .pulses import DEFAULT_N_STEPS, PulseShape, sample
from .system import SpinSystem, offset_diagonal

DEFAULT_TOL = 1e-9
DEFAULT_MAX_DOUBLINGS = 8

#: Quaternions built at once where a route works through its grid in blocks.
BLOCK = 1 << 16


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
    (n_configs, n_steps + 1, 2, 2). Index 0 in time is the identity. amps
    are the midpoint amplitude samples actually used for the slices.
    """

    times: np.ndarray
    q: np.ndarray
    amps: np.ndarray
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


def _refine(steps, n_configs: int, n_steps: int, tol: float | None, max_doublings: int):
    """Step-doubling driver shared by every propagator route.

    `steps(out)` writes the quaternions of the n time steps of a grid into
    `out`, shape (4, n_configs, n), and returns whatever the route keeps of
    that grid; `out` is a grid buffer past its identity column 0. Grids of
    n_steps, 2 n_steps, ... steps are tried until the endpoint moves by less
    than `tol` between successive grids (Frobenius norm of the 2x2
    difference, sqrt(2) |dq|, max over configurations). A grid's endpoint is
    its pairwise product (`su2.reduce`); only the grid that is returned is
    scanned in place (`su2.scan`), from that reduction's levels.
    ``tol=None`` scans a single pass.

    Returns (q, kept, refinement_levels, error_estimate) of the last grid;
    q is the (n_configs, n + 1, 4) view of its buffer.

    Raises
    ------
    RefinementError
        If the tolerance is not met within `max_doublings` refinements; the
        exception carries the best error estimate and the finest grid size.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if tol is not None and not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    def grid(n):
        q = np.empty((4, n_configs, n + 1))
        q[..., 0] = su2.IDENTITY[:, None]
        return q, steps(q[..., 1:])

    q, kept = grid(n_steps)
    level, estimate, tree = 0, math.nan, []
    if tol is not None:
        end, estimate = su2.reduce(q[..., 1:], tree), math.inf
        while not estimate < tol:
            if level == max_doublings:
                finest = n_steps << max_doublings
                raise RefinementError(
                    f"endpoint moved by {estimate:.3e} > tol={tol:.3e} after "
                    f"{max_doublings} grid doublings (finest grid {finest} steps); "
                    "increase n_steps or max_doublings",
                    estimate=estimate,
                    n_steps=finest,
                )
            del q, tree  # not alive while the finer grid is built
            level += 1
            q, kept = grid(n_steps << level)
            tree = []
            fine = su2.reduce(q[..., 1:], tree)
            # (n_configs, 4) with the components contiguous, as the trajectory stores them
            dq = np.ascontiguousarray((fine - end).T)
            estimate = math.sqrt(2.0) * float(np.max(np.linalg.norm(dq, axis=-1)))
            end = fine

    su2.scan(q[..., 1:], tree)
    return np.moveaxis(q, 0, -1), kept, level, estimate


def propagate_interaction(system: SpinSystem, shape: PulseShape,
                          n_steps: int = DEFAULT_N_STEPS, tol: float | None = DEFAULT_TOL,
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
    offsets = offset_diagonal(system)

    def slices(out):
        sp = sample(shape, out.shape[-1])
        su2.transverse_slices(0.5 * sp.amps * sp.dt, sp.phases, offsets, 0.5 * sp.dt, sp.dt, out)
        return sp

    q, sp, levels, estimate = _refine(slices, len(offsets), n_steps, tol, max_doublings)
    return BlockTrajectory(
        times=np.arange(len(sp.times) + 1) * sp.dt, q=q, amps=sp.amps,
        s_count=system.s_count, n_steps=len(sp.times),
        refinement_levels=levels, error_estimate=estimate,
    )


def excitation_profile(system: SpinSystem, shape: PulseShape, offsets,
                       n_steps: int = DEFAULT_N_STEPS) -> np.ndarray:
    """Response table (<Sx>, <Sy>, <Sz>) after the pulse versus trial S offset.

    For each offset the initial state operator Sz evolves under the
    rotating-frame propagator per configuration; expectation values are
    averaged uniformly over I configurations (infinite-temperature I spins)
    and normalized so the initial <Sz> is 1/2. Returns shape (len(offsets), 3).

    Only the propagator at the end of the pulse matters, so every
    (offset, configuration) row of midpoint slices is reduced to its
    endpoint (`su2.reduce`) without a trajectory, `BLOCK` slices at a time.
    The response is the rotated z axis of that endpoint.
    """
    offsets = np.asarray(offsets, dtype=float)
    sp = sample(shape, n_steps)
    duration = n_steps * sp.dt
    # offset_diagonal is s_offset + couplings, so each trial offset adds to the couplings
    couplings = offset_diagonal(dc_replace(system, s_offset=0.0))
    rows = (offsets[:, None] + couplings).ravel()
    response = np.empty((3, len(rows)))
    per_block = max(1, BLOCK // n_steps)
    for start in range(0, len(rows), per_block):
        w = rows[start:start + per_block]
        end = su2.reduce(su2.transverse_slices(0.5 * sp.amps * sp.dt, sp.phases, w,
                                               0.5 * sp.dt, sp.dt))
        free = np.zeros((len(w), 3))
        free[:, 2] = w * duration  # exp(-i w T Sz) after the pulse
        c, x, y, z = su2.compose(su2.exp(free).T, end)
        response[:, start:start + len(w)] = (x * z + c * y, y * z - c * x,
                                              0.5 * (c * c + z * z - x * x - y * y))
    return response.reshape(3, len(offsets), len(couplings)).mean(axis=-1).T
