"""
Expansion-form propagator via the linear coupled ODE system.

Writing the interaction propagator of one configuration as

    U(t) = f(t) E - 2i [g_x(t) Sx + g_y(t) Sy + g_z(t) Sz],

unitarity pins f**2 + |g|**2 = 1 and the Schroedinger equation becomes the
real linear system

    df/dt = -(omega1/2) (h . g)
    dg/dt = +(omega1/2) (f h + h x g),        h = (cos a, sin a, 0),

with a(t) = -w t + phi(t) the rotating transverse-field direction of the
configuration. (f, g) are the real rows of the Cayley-Klein pair (a, b) of U,
f = Re a and g = (-Im b, Re b, -Im a) (see `su2`). This
parametrization always exists, whether or not the continuous-exponential
form does, so it is the fallback route for pulses that fail the
convergence criterion.

That system is the linear ODE dq/dt = p(t) q on pairs, with the transverse
generator p = (0, -i omega1 (h_x + i h_y) / 2), so one classical fourth-order (RK4)
step is a left product with one pair, in closed form in the field at the step's ends
and middle, sampled once on the half-step grid. The step pairs go to the same
step-doubling driver as the exact propagation route (`propagation._refine`): endpoint
reductions on the grids it discards, one scan of the grid it keeps. Both
routes return the same `BlockTrajectory`, whose q holds (f, g) on the grid
t_k = k T / n. The decomposition angles, the rotation angle among them, are
read off those pairs by the shared branch tracker (`angles_from_state`).
"""

from __future__ import annotations

import numpy as np

from . import su2
from .propagation import BLOCK, DEFAULT_TOL, BlockTrajectory, _refine
from .pulses import DEFAULT_N_STEPS, PulseShape, _eval
from .system import SpinSystem, offset_diagonal


def _rk4_steps(offsets: np.ndarray, shape: PulseShape, out: np.ndarray) -> np.ndarray:
    """Classical RK4 steps of dq/dt = p(t) q as pairs, one per time step, in closed form.

    p = (0, -i omega1 (h_x + i h_y) / 2) is the pair of -i H. With dt p = (0, b0), (0, b1),
    (0, b2) at t_k, t_k + dt/2 and t_{k+1}, the step M_k = 1 + (k1 + 2 k2 + 2 k3 + k4) / 6,
    k1 = dt p(t_k), k2 = dt p(t_k + dt/2) (1 + k1/2), k3 = dt p(t_k + dt/2) (1 + k2/2),
    k4 = dt p(t_{k+1}) (1 + k3), reduces by (0, x)(0, y) = (-conj(x) y, 0),
    (a, 0)(0, y) = (0, conj(a) y) and (0, x)(a, 0) = (0, a x) to, with s = |b1|**2,

        a = 1 - (conj(b1) b0 + s + conj(b2) (b1 - s b0 / 4)) / 6
        b = (b0 + 4 b1 + b2 - s (b0 + b2) / 2) / 6.

    b is sampled once on the half-step grid t_j = j dt/2 (b0, b2 even, b1 odd), `BLOCK` pairs
    at a time; M goes into `out`, (2, len(offsets), n_steps). Returns the midpoint amplitudes.
    """
    n_steps = out.shape[-1]
    half_dt = 0.5 * shape.duration / n_steps
    times = np.arange(2 * n_steps + 1) * half_dt
    amps, phases = _eval(shape.amplitude_fn, times), _eval(shape.phase_fn, times)
    block = max(1, BLOCK // len(offsets))
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        half = slice(2 * start, 2 * stop + 1)
        b = su2.rotating_field(half_dt * amps[half], phases[half], offsets, times[half][0], half_dt)
        b0, b1, b2 = b[:, :-1:2], b[:, 1::2], b[:, 2::2]
        s, c2 = b1.real ** 2 + b1.imag ** 2, np.conjugate(b2)
        out[0, :, start:stop] = 1.0 - (np.conjugate(b1) * b0 + s + c2 * (b1 - 0.25 * s * b0)) / 6
        out[1, :, start:stop] = (b0 + 4.0 * b1 + b2 - 0.5 * s * (b0 + b2)) / 6
    return amps[1::2]


def integrate_expansion(system: SpinSystem, shape: PulseShape,
                        n_steps: int = DEFAULT_N_STEPS,
                        tol: float | None = DEFAULT_TOL) -> BlockTrajectory:
    """Integrate the coefficient ODEs over [0, T] for every configuration.

    Fixed-step fourth-order integration, grid-doubled by the propagation
    module's driver until the endpoint moves by less than `tol` (max
    Frobenius norm of the 2x2 difference over configurations). ``tol=None``
    runs a single fixed-grid pass. The trajectory's q holds (f, g) per
    configuration and time, and its amps are the RK4 midpoint amplitudes.

    Raises
    ------
    RefinementError
        If the tolerance is not met within `propagation.MAX_DOUBLINGS` refinements.
    """
    offsets = offset_diagonal(system)
    return _refine(lambda out: _rk4_steps(offsets, shape, out), system, shape, n_steps, tol)


def angles_from_state(trajectory: BlockTrajectory):
    """Decomposition angles (alpha, beta, omega_tilde) along the whole grid.

    alpha = atan2(g_y, g_x) in (-pi, pi] with exact zeros taken as +0 (as
    `MagnusSolution.alpha`), beta = atan2(hypot(g_x, g_y), g_z); the rotation
    angle 2*atan2(|g|, f) is unwrapped by continuity in time by
    `su2.track_rows`, on the real rows (f, g) of `trajectory.q` (`su2.rows`).
    The scalar data alone cannot tell ascending from descending at a fold
    (angle through 2 pi, where |g| reflects), so the sign of the half-angle
    sine follows the last well-defined g direction before unwrapping.
    Degenerate points |g| ~ 0 report alpha = beta = 0. Each output has shape
    (n_configs, n_steps + 1).
    """
    f, gx, gy, gz = rows = su2.rows(trajectory.q)
    omega, _, norm = su2.track_rows(f, rows[1:])
    degenerate = norm < 1e-12
    alpha = np.where(degenerate, 0.0, np.arctan2(gy + 0.0, gx + 0.0))
    beta = np.where(degenerate, 0.0, np.arctan2(np.hypot(gx, gy), gz))
    return alpha, beta, omega
