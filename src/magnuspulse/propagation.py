"""
Exact time-ordered propagation in the interaction picture.

With only the S group driven and all couplings longitudinal, the interaction
Hamiltonian restricted to one I configuration is the 2x2 transverse field

    H(t) = omega1(t) [cos(-w t + phi(t)) Sx + sin(-w t + phi(t)) Sy],

where w is the configuration's effective S offset. The numerics take rows of w; only the
public entry points read a `SpinSystem`, through `system.offset_diagonal`. The time-ordered
propagator is built by piecewise-constant midpoint slicing (`_slices`): each slice
exponential is evaluated in closed form (so unitarity is exact up to rounding), and the grid
is doubled until the endpoint stops moving to the requested tolerance. `_levels` is that
doubling driver for every route: `_refine` runs it on stored grids, to which the expansion
module hands RK4 step pairs instead of exact slices, and both get back the same
`BlockTrajectory`; `_streamed` runs it on grids that are never stored, for the criterion.

A slice's transverse part sin h e^{i phi_k}, shared by every configuration,
is turned by e^{-i w t_k} as in `su2.rotating_field`, which builds a whole
row by angle addition from about 2 sqrt(n) trig calls. When every phase is
0, as for every family `build_pulse` makes, e^{i phi} = 1 and its trig is
skipped. `su2.transverse_slices` fills a grid a time chunk (`su2._chunk`) at a time.

Slices, their products and the stored trajectory are Cayley-Klein pairs
(see `su2`); `su2.to_matrix` gives the 2x2 view of any of them. `_grid` builds every stored
grid, a refinement level or a block of profile rows, reduces it to its endpoint in chunks of
time (`su2._chunked`, the bits of `su2.reduce`) and raises `RefinementError` on the grid
whose endpoint is not finite. Only the grid that refinement predicts to pass is scanned in
place as it is reduced (the bits of `su2.scan`), because downstream analysis (continuous
matrix-logarithm tracking) needs dense-in-time samples; no grid keeps more of its reduction
tree than one chunk's. `_walk` builds a grid of exact slices that is never stored: the
same chunks, each sampled, sliced, reduced and scanned on its own, with the same bits, so
the criterion holds one chunk where `propagate_interaction` holds the trajectory.
Excitation profiles keep the endpoints alone and never build a trajectory.
No propagator carries the I-spin energies' scalar phase, which cancels (see `system`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import su2
from .pulses import DEFAULT_N_STEPS, PulseShape, SampledPulse, _check_steps, _eval, sample
from .system import SpinSystem, offset_diagonal

DEFAULT_TOL = 1e-9
#: Grid doublings before refinement gives up; a larger n_steps reaches the same finest grid.
MAX_DOUBLINGS = 8

#: Pairs built at once where a route works through its grid in blocks.
BLOCK = 1 << 16


class RefinementError(RuntimeError):
    """Step-doubling failed to reach the tolerance; carries the best estimate."""

    def __init__(self, message: str, estimate: float, n_steps: int):
        super().__init__(message)
        self.estimate = estimate
        self.n_steps = n_steps


@dataclass(frozen=True)
class BlockTrajectory:
    """Per-configuration propagators U(t_k) on the grid t_k = k*dt, from either route.

    q holds them as complex Cayley-Klein pairs (a, b), components first and
    time last, shape (2, n_configs, n_steps + 1), so U = [[a, -conj b],
    [b, conj a]] (`su2.to_matrix`); `su2.rows` reads off (f, g) of
    U = f E - 2i g . S. Index 0 in time is the identity. amps are the
    midpoint amplitude samples the route stepped with.
    """

    times: np.ndarray
    q: np.ndarray
    amps: np.ndarray
    n_steps: int
    refinement_levels: int
    error_estimate: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_configs(self) -> int:
        return self.q.shape[1]


def _finite(end: np.ndarray, n: int):
    """Raise `RefinementError` if the endpoint of the grid of n steps is not finite."""
    if not np.isfinite(end).all():
        raise RefinementError(f"endpoint is not finite on the grid of {n} steps; more steps "
                              "cannot help", estimate=math.nan, n_steps=n)


def _grid(steps, w: np.ndarray, n: int, n_steps: int, scanned: bool = False):
    """The grid of n steps that `steps` fills for rows w: ((q, amps), endpoint), q (2, len(w),
    n + 1) with the identity in column 0. `su2._chunked` gives the endpoint, and scans q in
    place if `scanned`; a q too large to allocate names `n_steps`, and an endpoint not finite
    raises here."""
    try:
        q = np.empty((2, len(w), n + 1), dtype=complex)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"n_steps {n_steps}: {n} steps are too many to allocate") from exc
    q[..., 0] = su2.IDENTITY[:, None]
    amps = steps(w, q[..., 1:])
    end = su2._chunked(q[..., 1:], scanned)
    _finite(end, n)
    return (q, amps), end


def _levels(grid, n_steps: int, tol: float | None):
    """Step-doubling driver shared by every propagator route.

    `grid(n, scanned)` builds the grid of n steps, scanned if `scanned`, and returns (its
    value, its endpoint (2, n_rows)), the grid's pairwise product either way. Grids of
    n_steps, 2 n_steps, ... steps are tried until the endpoint moves by less than `tol`
    between successive grids (Frobenius norm of the 2x2 difference, sqrt(2 (|da|**2 +
    |db|**2)), max over rows). ``tol=None`` takes the first grid.

    Only the grid predicted to pass is scanned: the first when tol is None, else the one
    after an estimate below 4 tol, as the midpoint rule is second order. A scanned grid that
    fails costs its scan, and the caller walks a grid that passes unscanned again, so results
    never depend on the prediction. Returns (value, n, levels, estimate, scanned) of the
    accepted grid.

    Raises
    ------
    RefinementError
        If the estimate is not finite, or the tolerance is not met within `MAX_DOUBLINGS`
        refinements; it carries the last estimate and grid size.
    """
    _check_steps(n_steps)
    if tol is not None and not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    level, estimate, scanned = 0, math.nan, tol is None
    while True:
        n = n_steps << level
        value, fine = grid(n, scanned)
        if level:
            estimate = math.sqrt(2.0) * float(np.max(np.linalg.norm(fine - end, axis=0)))
        if tol is None or estimate < tol:
            return value, n, level, estimate, scanned
        if level == MAX_DOUBLINGS or math.isinf(estimate):
            raise RefinementError(
                f"endpoint moved by {estimate:.3e} > tol={tol:.3e} after {level} grid "
                f"doublings (finest grid {n} steps); increase n_steps",
                estimate=estimate, n_steps=n)
        del value  # not alive while the finer grid is built
        level, end, scanned = level + 1, fine, estimate < 4.0 * tol


def _refine(steps, w: np.ndarray, duration: float, n_steps: int,
            tol: float | None) -> BlockTrajectory:
    """`_levels` on the stored grids of `_grid`, for rows of effective offsets w.

    `steps(w, out)` writes the pairs of the n time steps of a grid over [0, `duration`] into
    `out`, shape (2, len(w), n), one row per offset of `w`, and returns that grid's midpoint
    amplitudes. Returns the trajectory of the accepted grid, whose q is that grid's buffer,
    scanned from the step pairs left in it if it passed unscanned.
    """
    (q, amps), n, level, estimate, scanned = _levels(
        lambda n, scanned: _grid(steps, w, n, n_steps, scanned), n_steps, tol)
    if not scanned:  # the walk left the step pairs in q
        su2._chunked(q[..., 1:], True)
    return BlockTrajectory(
        times=np.arange(n + 1) * (duration / n), q=q, amps=amps,
        n_steps=n, refinement_levels=level, error_estimate=estimate,
    )


def _slices(sp: SampledPulse, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exact midpoint slices of `sp`, a row per offset of `w`, into `out`; returns sp.amps."""
    su2.transverse_slices(sp.amps, sp.phases, w, 0.5 * sp.dt, sp.dt, out)
    return sp.amps


def _walk(shape: PulseShape, w: np.ndarray, n: int, scanned: bool, ends: list):
    """The grid of n exact midpoint slices of `shape` for rows w, never stored: each time
    chunk (`su2._chunk`, as `su2.transverse_slices` fills it) is sampled on its own midpoints,
    sliced, reduced and, if `scanned`, scanned (`su2._stream`), with the bits of a stored grid.

    Yields (start, x, amps, dt) per chunk: x (2, len(w), size + 1) holds steps start + 1 ..
    start + size past column 0, the last sample of the chunk before (the identity at start
    0), and amps their midpoint amplitudes; the next chunk overwrites both. `ends` holds the
    product through the chunk, which raises here if it is not finite.
    """
    size, dt = su2._chunk(len(w), n), shape.duration / n
    turns = su2._turns(w, 0.5 * dt, dt, n)
    x, amps = np.empty((2, len(w), size + 1), dtype=complex), np.empty(size)
    x[..., 0] = su2.IDENTITY[:, None]

    def chunks():
        for start in range(0, n, size):
            mids = (np.arange(start, start + size) + 0.5) * dt  # as `pulses.sample`'s grid
            amps[:] = _eval(shape.amplitude_fn, mids)
            su2._slices(turns, amps, _eval(shape.phase_fn, mids), dt, start, x[:, :, 1:])
            yield x[:, :, 1:]

    for start, end in zip(range(0, n, size), su2._stream(chunks(), scanned)):
        _finite(end, n)
        ends[:] = [end]
        yield start, x, amps, dt
        x[..., 0] = x[..., -1]


def _streamed(system: SpinSystem, shape: PulseShape, n_steps: int, tol: float | None, fold):
    """Refine as `propagate_interaction` does, on grids that are never stored (`_walk`).

    The grid predicted to pass goes to `fold(chunks)` as it is scanned, and a predicted grid
    that fails discards fold's value. Returns (fold's value on the accepted grid, walk, n,
    estimate): ``walk()`` gives the chunks of the accepted grid again, and is how a grid
    accepted unscanned is folded.
    """
    w = offset_diagonal(system)

    def grid(n, scanned):
        ends = []
        chunks = _walk(shape, w, n, scanned, ends)
        return (fold(chunks) if scanned else deque(chunks, 0)), ends[0]

    value, n, _, estimate, scanned = _levels(grid, n_steps, tol)
    walk = lambda: _walk(shape, w, n, True, [])
    return (value if scanned else fold(walk())), walk, n, estimate


def propagate_interaction(system: SpinSystem, shape: PulseShape,
                          n_steps: int = DEFAULT_N_STEPS,
                          tol: float | None = DEFAULT_TOL) -> BlockTrajectory:
    """Time-ordered interaction-picture propagator over [0, T], all configurations.

    Starts from `n_steps` midpoint slices and doubles the grid until the
    endpoint propagators move by less than `tol` (max Frobenius norm over
    configurations) between successive refinements. Pass ``tol=None`` for a
    single fixed-grid pass. Each step k is an exact slice, a turn of U by
    |amps_k| dt, which `magnus.explicit_criterion` relies on; it refines the same grids
    without storing them (`_streamed`).

    Raises
    ------
    RefinementError
        If the tolerance is not met within `MAX_DOUBLINGS` refinements or an endpoint
        is not finite; the exception carries the best error estimate.
    """
    return _refine(lambda w, out: _slices(sample(shape, out.shape[-1]), w, out),
                   offset_diagonal(system), shape.duration, n_steps, tol)


def excitation_profile(system: SpinSystem, shape: PulseShape, offsets,
                       n_steps: int = DEFAULT_N_STEPS) -> np.ndarray:
    """Response table (<Sx>, <Sy>, <Sz>) after the pulse versus trial S offset.

    For each offset the initial state operator Sz evolves under the
    rotating-frame propagator per configuration; expectation values are
    averaged uniformly over I configurations (infinite-temperature I spins)
    and normalized so the initial <Sz> is 1/2. Returns shape (3, len(offsets)).

    Only the propagator at the end of the pulse matters, so every
    (offset, configuration) row of midpoint slices is reduced to its
    endpoint (`_grid`, which raises on one not finite) without a trajectory, `BLOCK`
    slices at a time. The response is the rotated z axis of that endpoint, (Re, Im) of
    conj(a) b and (|a|**2 - |b|**2) / 2, with conj(a) b turned by the phase e^{i w T} of
    the free precession exp(-i w T Sz) that takes the row to the rotating frame.
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
        a, b = _grid(lambda w, out: _slices(sp, w, out), w, n_steps, n_steps)[1]
        m = np.conj(a) * b * np.exp(1j * (w * duration))
        response[:, start:start + len(w)] = (m.real, m.imag, 0.5 * (
            a.real * a.real + a.imag * a.imag - b.imag * b.imag - b.real * b.real))
    return response.reshape(3, len(offsets), len(couplings)).mean(axis=-1)
