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

Integration is classical fixed-step fourth order with step doubling, on the
same grids as the propagation module, which keeps cross-checks between the
two routes bitwise comparable in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .pulses import PulseShape, _eval
from .system import SpinSystem, offset_diagonal

DEFAULT_TOL = 1e-9
DEFAULT_MAX_DOUBLINGS = 8


@dataclass(frozen=True)
class ExpansionState:
    """Propagator coefficients f(t_k), g(t_k) per configuration on a uniform grid.

    f has shape (n_configs, n_steps + 1), g has shape (n_configs, n_steps + 1, 3);
    f[:, 0] = 1 and g[:, 0] = 0 since U(0) is the identity.
    """

    times: np.ndarray
    f: np.ndarray
    g: np.ndarray
    s_count: int
    n_steps: int
    refinement_levels: int
    error_estimate: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_configs(self) -> int:
        return self.f.shape[0]

    def constraint_residual(self) -> np.ndarray:
        """|f**2 + |g|**2 - 1| at every stored time, shape (n_configs, n_steps + 1)."""
        return np.abs(self.f**2 + np.sum(self.g**2, axis=-1) - 1.0)


def expansion_rhs(f, g, h, amp):
    """Time derivative (df, dg) of the propagator coefficients.

    Linear in (f, g); conserves f**2 + |g|**2 identically since
    g . (h x g) = 0. Broadcasts over leading axes: f (...,), g and h (..., 3).
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    df = -0.5 * amp * np.sum(h * g, axis=-1)
    dg = 0.5 * amp * (f[..., None] * h + np.cross(h, g))
    return df, dg


def _legacy_expansion_rhs(f, g, h, amp):
    """Superseded variant of the coefficient ODEs, kept as a regression fixture.

    Differs from `expansion_rhs` by a factor 2 on df/dt and a sign flip on the
    x component of the cross term; it does not conserve f**2 + |g|**2, which
    is how tests demonstrate the corrected system matters. Not part of the
    public API.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    df = -amp * np.sum(h * g, axis=-1)
    w = np.cross(h, g)
    w[..., 0] *= -1.0
    dg = 0.5 * amp * (f[..., None] * h + w)
    return df, dg


def _field_direction(offsets: np.ndarray, times: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Unit transverse field h(t) per configuration: shape (n_configs, len(times), 3)."""
    angle = -offsets[:, None] * times[None, :] + phases[None, :]
    h = np.zeros(angle.shape + (3,))
    h[..., 0] = np.cos(angle)
    h[..., 1] = np.sin(angle)
    return h


def _integrate_once(system: SpinSystem, shape: PulseShape, n_steps: int, rhs):
    offsets = offset_diagonal(system).values
    n_c = len(offsets)
    dt = shape.duration / n_steps
    nodes = np.arange(n_steps + 1) * dt
    mids = nodes[:-1] + 0.5 * dt

    amp_nodes = _eval(shape.amplitude_fn, nodes)
    amp_mids = _eval(shape.amplitude_fn, mids)
    h_nodes = _field_direction(offsets, nodes, _eval(shape.phase_fn, nodes))
    h_mids = _field_direction(offsets, mids, _eval(shape.phase_fn, mids))

    f = np.ones(n_c)
    g = np.zeros((n_c, 3))
    f_hist = np.empty((n_c, n_steps + 1))
    g_hist = np.empty((n_c, n_steps + 1, 3))
    f_hist[:, 0] = f
    g_hist[:, 0] = g

    for k in range(n_steps):
        a0, am, a1 = amp_nodes[k], amp_mids[k], amp_nodes[k + 1]
        h0, hm, h1 = h_nodes[:, k], h_mids[:, k], h_nodes[:, k + 1]
        df1, dg1 = rhs(f, g, h0, a0)
        df2, dg2 = rhs(f + 0.5 * dt * df1, g + 0.5 * dt * dg1, hm, am)
        df3, dg3 = rhs(f + 0.5 * dt * df2, g + 0.5 * dt * dg2, hm, am)
        df4, dg4 = rhs(f + dt * df3, g + dt * dg3, h1, a1)
        f = f + (dt / 6.0) * (df1 + 2.0 * df2 + 2.0 * df3 + df4)
        g = g + (dt / 6.0) * (dg1 + 2.0 * dg2 + 2.0 * dg3 + dg4)
        f_hist[:, k + 1] = f
        g_hist[:, k + 1] = g

    return nodes, f_hist, g_hist


def integrate_expansion(system: SpinSystem, shape: PulseShape,
                        n_steps: int = 4096, tol: float | None = DEFAULT_TOL,
                        max_doublings: int = DEFAULT_MAX_DOUBLINGS,
                        _rhs=expansion_rhs) -> ExpansionState:
    """Integrate the coefficient ODEs over [0, T] for every configuration.

    Fixed-step fourth-order integration, grid-doubled until the endpoint
    state moves by less than `tol` (max over configurations and components).
    ``tol=None`` runs a single fixed-grid pass.

    Raises
    ------
    RuntimeError
        If the tolerance is not met within `max_doublings` refinements.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    times, f, g = _integrate_once(system, shape, n_steps, _rhs)
    if tol is None:
        return ExpansionState(times=times, f=f, g=g, s_count=system.s_count,
                              n_steps=n_steps, refinement_levels=0,
                              error_estimate=math.nan)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    estimate = math.inf
    for level in range(1, max_doublings + 1):
        n_fine = n_steps * (1 << level)
        times_f, f_f, g_f = _integrate_once(system, shape, n_fine, _rhs)
        estimate = float(
            max(
                np.max(np.abs(f_f[:, -1] - f[:, -1])),
                np.max(np.abs(g_f[:, -1] - g[:, -1])),
            )
        )
        times, f, g = times_f, f_f, g_f
        if estimate < tol:
            return ExpansionState(times=times, f=f, g=g, s_count=system.s_count,
                                  n_steps=n_fine, refinement_levels=level,
                                  error_estimate=estimate)
    raise RuntimeError(
        f"expansion endpoint moved by {estimate:.3e} > tol={tol:.3e} after "
        f"{max_doublings} grid doublings; increase n_steps or max_doublings"
    )


def omega_hat_quadrature(state: ExpansionState, shape: PulseShape,
                         system: SpinSystem) -> np.ndarray:
    """Accumulated rotation angle from the reduced scalar ODE, per configuration.

    Integrates omega1 (h . n) with n the unit vector along g, by the midpoint
    rule on the state's own grid; where |g| < 1e-10 the direction falls back
    to the instantaneous field h (the t -> 0 limit). Shape (n_configs, n_steps + 1).
    """
    offsets = offset_diagonal(system).values
    dt = state.dt
    mids = state.times[:-1] + 0.5 * dt

    amp_mids = _eval(shape.amplitude_fn, mids)
    h_mids = _field_direction(offsets, mids, _eval(shape.phase_fn, mids))

    g_mid = 0.5 * (state.g[:, :-1] + state.g[:, 1:])
    norms = np.linalg.norm(g_mid, axis=-1)
    n_vec = np.where(norms[..., None] >= 1e-10, g_mid / np.maximum(norms, 1e-300)[..., None], h_mids)
    increments = amp_mids[None, :] * np.sum(h_mids * n_vec, axis=-1) * dt
    out = np.zeros((state.n_configs, len(state.times)))
    out[:, 1:] = np.cumsum(increments, axis=1)
    return out


def reconstruct_propagator(f: float, g) -> np.ndarray:
    """2x2 unitary f E - 2i (g . S) from one state point.

    Raises
    ------
    ValueError
        If f**2 + |g|**2 deviates from 1 by more than 1e-6.
    """
    g = np.asarray(g, dtype=float)
    residual = abs(f * f + float(np.sum(g * g)) - 1.0)
    if residual > 1e-6:
        raise ValueError(f"state violates the unit-norm constraint by {residual:.3e}")
    return su2.to_matrix(np.concatenate(([f], g)))


def _quaternions(state: ExpansionState) -> np.ndarray:
    return np.concatenate((state.f[..., None], state.g), axis=-1)


def reconstruct_blocks(state: ExpansionState) -> np.ndarray:
    """All stored propagators as (n_configs, n_steps + 1, 2, 2), no norm check."""
    return su2.to_matrix(_quaternions(state))


def angles_from_state(state: ExpansionState):
    """Decomposition angles (alpha, beta, omega_tilde) along the whole grid.

    alpha = atan2(g_y, g_x), beta = atan2(hypot(g_x, g_y), g_z); the rotation
    angle 2*atan2(|g|, f) is unwrapped by continuity in time by `su2.track`.
    The scalar data alone cannot tell ascending from descending at a fold
    (angle through 2 pi, where |g| reflects), so the sign of the half-angle
    sine follows the last well-defined g direction before unwrapping.
    Degenerate points |g| ~ 0 report alpha = beta = 0. Each output has shape
    (n_configs, n_steps + 1).
    """
    gx, gy, gz = state.g[..., 0], state.g[..., 1], state.g[..., 2]
    degenerate = np.linalg.norm(state.g, axis=-1) < 1e-12
    alpha = np.where(degenerate, 0.0, np.arctan2(gy, gx))
    beta = np.where(degenerate, 0.0, np.arctan2(np.hypot(gx, gy), gz))
    omega, _ = su2.track(_quaternions(state))
    return alpha, beta, omega
