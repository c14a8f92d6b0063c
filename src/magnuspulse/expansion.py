"""
Expansion-form propagator via the linear coupled ODE system.

Writing the interaction propagator of one configuration as

    U(t) = f(t) E - 2i [g_x(t) Sx + g_y(t) Sy + g_z(t) Sz],

unitarity pins f**2 + |g|**2 = 1 and the Schroedinger equation becomes the
real linear system

    df/dt = -(omega1/2) (h . g)
    dg/dt = +(omega1/2) (f h + h x g),        h = (cos a, sin a, 0),

with a(t) = -w t + phi(t) the rotating transverse-field direction of the
configuration. (f, g) is the unit quaternion of U (see `su2`). This
parametrization always exists, whether or not the continuous-exponential
form does, so it is the fallback route for pulses that fail the
convergence criterion.

That system is the linear quaternion ODE dq/dt = p(t) q with
p = (0, omega1 h / 2), so one classical fourth-order (RK4) step is a left
product with a single quaternion. Integration builds those step quaternions
block by block over the grid and hands them to the same step-doubling
driver as the exact propagation route (`propagation._refine`): endpoint
reductions on the grids it discards, one scan of the grid it keeps. Both
routes store their states on the grid t_k = k T / n. The decomposition
angles, the rotation angle among them, are read off the stored quaternions
by the shared branch tracker (`angles_from_state`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2
from .propagation import BLOCK, DEFAULT_MAX_DOUBLINGS, DEFAULT_TOL, _refine
from .pulses import DEFAULT_N_STEPS, PulseShape, _eval
from .system import SpinSystem, offset_diagonal


@dataclass(frozen=True)
class ExpansionState:
    """Propagator coefficients f(t_k), g(t_k) per configuration on a uniform grid.

    q holds the unit quaternions (f, g_x, g_y, g_z), shape
    (n_configs, n_steps + 1, 4); f (n_configs, n_steps + 1) and
    g (n_configs, n_steps + 1, 3) are views of it. f[:, 0] = 1 and
    g[:, 0] = 0 since U(0) is the identity.
    """

    times: np.ndarray
    q: np.ndarray
    s_count: int
    n_steps: int
    refinement_levels: int
    error_estimate: float

    @property
    def f(self) -> np.ndarray:
        return self.q[..., 0]

    @property
    def g(self) -> np.ndarray:
        return self.q[..., 1:]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_configs(self) -> int:
        return self.q.shape[0]

    def constraint_residual(self) -> np.ndarray:
        """|f**2 + |g|**2 - 1| at every stored time, shape (n_configs, n_steps + 1)."""
        return su2.norm_defect(self.q)


def _rk4_steps(system: SpinSystem, shape: PulseShape, out: np.ndarray) -> np.ndarray:
    """Classical RK4 steps of dq/dt = p(t) q as quaternions, one per time step.

    p = (0, omega1 h / 2) is the quaternion of -i H, so each stage is a left
    product and a whole step is q_{k+1} = M_k q_k with
    M_k = 1 + (k1 + 2 k2 + 2 k3 + k4) / 6, where k1 = dt p(t_k),
    k2 = dt p(t_mid) (1 + k1/2), k3 = dt p(t_mid) (1 + k2/2) and
    k4 = dt p(t_{k+1}) (1 + k3). M is written into `out`, component-major
    with shape (4, n_configs, n_steps), `BLOCK` quaternions at a time, so the
    stage temporaries stay small whatever the grid. Returns the grid nodes.
    """
    offsets = offset_diagonal(system)
    n_steps = out.shape[-1]
    dt = shape.duration / n_steps
    nodes = np.arange(n_steps + 1) * dt
    mids = nodes[:-1] + 0.5 * dt
    at_nodes, at_mids = ((t, 0.5 * dt * _eval(shape.amplitude_fn, t), _eval(shape.phase_fn, t))
                         for t in (nodes, mids))

    def dt_p(times, half_dt_amps, phases):
        p = np.zeros((4, len(offsets), len(times)))
        su2.rotating_field(half_dt_amps, phases, offsets, times[0], dt, out=p[1:3])
        return p

    one = su2.IDENTITY[:, None, None]
    block = max(1, BLOCK // len(offsets))
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        p_nodes = dt_p(*(x[start:stop + 1] for x in at_nodes))
        p_mids = dt_p(*(x[start:stop] for x in at_mids))
        # M is accumulated stage by stage so only one k is alive at a time.
        m = out[..., start:stop]
        k = p_nodes[..., :-1]
        np.add(one, k / 6.0, out=m)
        k = su2.compose(p_mids, one + 0.5 * k)
        m += k / 3.0
        k = su2.compose(p_mids, one + 0.5 * k)
        m += k / 3.0
        k = su2.compose(p_nodes[..., 1:], one + k)
        m += k / 6.0
    return nodes


def integrate_expansion(system: SpinSystem, shape: PulseShape,
                        n_steps: int = DEFAULT_N_STEPS, tol: float | None = DEFAULT_TOL,
                        max_doublings: int = DEFAULT_MAX_DOUBLINGS) -> ExpansionState:
    """Integrate the coefficient ODEs over [0, T] for every configuration.

    Fixed-step fourth-order integration, grid-doubled by the propagation
    module's driver until the endpoint moves by less than `tol` (max
    Frobenius norm of the 2x2 difference over configurations). ``tol=None``
    runs a single fixed-grid pass.

    Raises
    ------
    RefinementError
        If the tolerance is not met within `max_doublings` refinements.
    """
    q, times, levels, estimate = _refine(lambda out: _rk4_steps(system, shape, out),
                                         system.n_configs, n_steps, tol, max_doublings)
    return ExpansionState(times=times, q=q, s_count=system.s_count,
                          n_steps=len(times) - 1, refinement_levels=levels,
                          error_estimate=estimate)


def angles_from_state(state: ExpansionState):
    """Decomposition angles (alpha, beta, omega_tilde) along the whole grid.

    alpha = atan2(g_y, g_x), beta = atan2(hypot(g_x, g_y), g_z); the rotation
    angle 2*atan2(|g|, f) is unwrapped by continuity in time by
    `su2.track_rows`, on the component rows of `state.q`.
    The scalar data alone cannot tell ascending from descending at a fold
    (angle through 2 pi, where |g| reflects), so the sign of the half-angle
    sine follows the last well-defined g direction before unwrapping.
    Degenerate points |g| ~ 0 report alpha = beta = 0. Each output has shape
    (n_configs, n_steps + 1).
    """
    rows = np.moveaxis(state.q, -1, 0)  # contiguous (n_configs, n_times) rows
    _, gx, gy, gz = rows
    omega, _, norm = su2.track_rows(rows[0], rows[1:])
    degenerate = norm < 1e-12
    alpha = np.where(degenerate, 0.0, np.arctan2(gy, gx))
    beta = np.where(degenerate, 0.0, np.arctan2(np.hypot(gx, gy), gz))
    return alpha, beta, omega
