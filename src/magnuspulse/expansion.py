"""
Expansion-form propagator via the linear coupled ODE system.

Writing the interaction propagator of one configuration as

    U(t) = f(t) E - 2i [g_x(t) Sx + g_y(t) Sy + g_z(t) Sz],

unitarity pins f**2 + |g|**2 = 1 and the Schroedinger equation becomes the
real linear system

    df/dt = -(omega1/2) (h . g)
    dg/dt = +(omega1/2) (f h + h x g),        h = (cos a, sin a, 0),

with a(t) = -w t + phi(t) the rotating transverse-field direction of the
configuration. (f, g) are the real rows of the Cayley-Klein pair (a, b) of U, f = Re a and
g = (-Im b, Re b, -Im a) (see `su2`). This parametrization always exists, whether or not the
continuous-exponential form does, so it is the fallback route for pulses that fail the
convergence criterion.

That system is the linear ODE dq/dt = p(t) q on pairs, with the transverse generator
p = (0, -i omega1 (h_x + i h_y) / 2), so one classical fourth-order (RK4) step is a left
product with one pair, in closed form in the field at the step's ends and middle, which
`_rk4_steps` writes for rows of effective offsets w, a chunk at a time, into the grids of
`propagation._refine`. Only `integrate_expansion` reads a `SpinSystem`, as its w. Both routes
return the same `BlockTrajectory`, whose q holds (f, g) on the grid t_k = k T / n.
The decomposition angles, the rotation angle among them, are read off those pairs by the
shared branch tracker `su2.track_rows`, window by window (`angles_from_state`).
"""

from __future__ import annotations

import numpy as np

from . import su2
from .propagation import DEFAULT_TOL, BlockTrajectory, _refine
from .pulses import DEFAULT_N_STEPS, PulseShape, _eval
from .system import SpinSystem, offset_diagonal


def _rk4_steps(shape: PulseShape, w: np.ndarray, n: int, dt: float):
    """`propagation._walk`'s filler of classical RK4 steps of dq/dt = p(t) q for rows w on the
    grid of n steps dt, as pairs in closed form.

    p = (0, -i omega1 (h_x + i h_y) / 2) is the pair of -i H. With dt p = (0, b0), (0, b1),
    (0, b2) at t_k, t_k + dt/2 and t_{k+1}, the step M_k = 1 + (k1 + 2 k2 + 2 k3 + k4) / 6,
    k1 = dt p(t_k), k2 = dt p(t_k + dt/2) (1 + k1/2), k3 = dt p(t_k + dt/2) (1 + k2/2),
    k4 = dt p(t_{k+1}) (1 + k3), reduces by (0, x)(0, y) = (-conj(x) y, 0),
    (a, 0)(0, y) = (0, conj(a) y) and (0, x)(a, 0) = (0, a x) to, with s = |b1|**2,

        a = 1 - (conj(b1) b0 + s + conj(b2) (b1 - s b0 / 4)) / 6
        b = (b0 + 4 b1 + b2 - s (b0 + b2) / 2) / 6.

    b is sampled on each chunk's half steps t_j = j dt/2 (b0, b2 even, b1 odd), one turn table
    per group of rows, so no rounding depends on the group (`su2`'s row rule) or the chunk.
    """
    step = su2._chunk(1, n) // su2._chunk(len(w), n)  # rows whose chunk is a one-row grid's
    turns = {row: su2._turns(w[row:row + step], 0.0, 0.5 * dt, 2 * n + 1)
             for row in range(0, len(w), step)}

    def fill(x, start, size):
        times = np.arange(2 * start, 2 * (start + size) + 1) * (0.5 * dt)
        amps, phases = _eval(shape.amplitude_fn, times), _eval(shape.phase_fn, times)
        field, group = 0.5 * dt * amps, np.empty((step, 2 * size + 1), dtype=complex)
        for row, turn in turns.items():
            rows, b = slice(row, row + step), group[:len(turn[1])]
            su2._fields(turn, field, phases, 2 * start, b)
            b0, b1, b2 = b[:, :-1:2], b[:, 1::2], b[:, 2::2]
            s = b1.real ** 2 + b1.imag ** 2
            # numpy takes x * t as t * x for a temporary t of 256 KiB or more, and a fused
            # product rounds by its factor order: one ufunc call, not written over t, fixes it
            t = np.multiply(np.conjugate(b2), b1 - 0.25 * s * b0)
            x[0, rows] = 1.0 - (np.conjugate(b1) * b0 + s + t) * (1 / 6)
            x[1, rows] = (b0 + 4.0 * b1 + b2 - 0.5 * s * (b0 + b2)) * (1 / 6)
        return amps[1::2]
    return fill


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
    return _refine(lambda *grid: _rk4_steps(shape, *grid), offset_diagonal(system),
                   shape.duration, n_steps, tol)


def angles_from_state(trajectory: BlockTrajectory):
    """Decomposition angles (alpha, beta, omega_tilde) along the whole grid.

    alpha = atan2(g_y, g_x) in (-pi, pi] with exact zeros taken as +0 (as
    `MagnusSolution.alpha`), beta = atan2(hypot(g_x, g_y), g_z); the rotation
    angle 2*atan2(|g|, f) is unwrapped by continuity in time by
    `su2.track_rows`, on the real rows (f, g) of `trajectory.q`, in the
    windows of `su2._windows`, whose values fill the whole grid.
    The scalar data alone cannot tell ascending from descending at a fold
    (angle through 2 pi, where |g| reflects), so the sign of the half-angle
    sine follows the last well-defined g direction before unwrapping.
    Where the tracker leaves the axis undefined (|g| <= `su2.AXIS_TOL`),
    alpha = beta = 0. Each output has shape (n_configs, n_steps + 1).
    """
    q = trajectory.q
    alpha, beta, omega, state = *np.empty((3,) + q.shape[1:]), su2.BranchState(q.shape[1:2])
    for window in su2._windows(*q.shape[1:]):
        _, gx, gy, gz = rows = su2.rows(q[:, :, window])
        angle, _, defined = su2.track_rows(rows[0], rows[1:], state)
        alpha[:, window] = np.where(defined, np.arctan2(gy + 0.0, gx + 0.0), 0.0)
        beta[:, window] = np.where(defined, np.arctan2(np.hypot(gx, gy), gz), 0.0)
        omega[:, window] = angle
    return alpha, beta, omega
