"""
Exact time-ordered propagation in the interaction picture.

With only the S group driven and all couplings longitudinal, the interaction
Hamiltonian restricted to one I configuration is the 2x2 transverse field

    H(t) = omega1(t) [cos(-w t + phi(t)) Sx + sin(-w t + phi(t)) Sy],

where w is the configuration's effective S offset. The numerics take rows of w; only the
public entry points read a `SpinSystem`, through `system.offset_diagonal`. The time-ordered
propagator is built by piecewise-constant midpoint slicing (`_exact`): each slice
exponential is evaluated in closed form (so unitarity is exact up to rounding), its
transverse part turned by e^{-i w t_k} as in `su2.rotating_field`, and the grid is doubled
until the endpoint stops moving to the requested tolerance. `_levels` is that doubling
driver for every route: `_refine` runs it on stored grids, to which the expansion module
hands RK4 step pairs instead of exact slices, and both get back the same `BlockTrajectory`;
`_streamed` runs it on grids that are never stored, for the criterion.

Slices, their products and the stored trajectory are Cayley-Klein pairs (see `su2`);
`su2.to_matrix` gives the 2x2 view of any of them. `_walk` builds every grid, a refinement
level or a block of profile rows, a time chunk at a time: a filler writes the chunk's step
pairs (`_exact`'s slices or `expansion._rk4_steps`), which are reduced to the endpoint (the
bits of `su2.reduce`), and `RefinementError` is raised on the grid whose endpoint is not
finite. Only the grid that refinement predicts to pass is scanned in place as it is reduced
(the bits of `su2.scan`), because downstream analysis (continuous matrix-logarithm
tracking) needs dense-in-time samples; no grid keeps more of its reduction tree than one
chunk's. A stored grid is written chunk by chunk into the trajectory's own buffer; the
criterion's grids reuse one chunk buffer, so the criterion holds one chunk where
`propagate_interaction` holds the trajectory. Excitation profiles keep the endpoints alone.
No propagator carries the I-spin energies' scalar phase, which cancels (see `system`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace as dc_replace
from functools import partial

import numpy as np

from . import su2
from .pulses import DEFAULT_N_STEPS, PulseShape, _check_steps, _eval, sample
from .system import SpinSystem, offset_diagonal

DEFAULT_TOL = 1e-9
#: Grid doublings before refinement gives up; a larger n_steps reaches the same finest grid.
MAX_DOUBLINGS = 8


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


def _walk(filler, w: np.ndarray, duration: float, n: int, scanned: bool, ends: list, q=None):
    """The grid of n steps over [0, `duration`] that ``fill = filler(w, n, dt)`` fills for rows
    w, a time chunk (`su2._chunk`) at a time: ``fill(x, start, size)`` writes the pairs of
    steps start .. start + size - 1 into x[..., :size] and returns their midpoint amplitudes,
    and each chunk is reduced and, if `scanned`, scanned (`su2._stream`) before the next is
    filled, with the bits of `su2.reduce` and `su2.scan` on the whole grid. A stored grid is
    written into q, (2, len(w), n + 1), x running on to the grid's end; otherwise one chunk
    buffer is reused.

    Yields (start, x, amps, dt) per chunk: x (2, len(w), size + 1) holds steps start + 1 ..
    start + size past column 0, the last sample of the chunk before (the identity at start
    0), and amps their midpoint amplitudes; without q the next chunk overwrites x. `ends`
    holds the product through the chunk, and `RefinementError` is raised if it is not finite.
    """
    size, dt, chunk = su2._chunk(len(w), n), duration / n, []
    fill = filler(w, n, dt)
    x = np.empty((2, len(w), size + 1), dtype=complex) if q is None else q
    x[..., 0] = su2.IDENTITY[:, None]

    def chunks():
        for start in range(0, n, size):
            view = x if q is None else q[..., start:]
            if q is None and start:
                x[..., 0] = x[..., -1]
            chunk[:] = start, view[..., :size + 1], fill(view[..., 1:], start, size), dt
            yield view[..., 1:size + 1]

    for end in su2._stream(chunks(), scanned):
        if not np.isfinite(end).all():
            raise RefinementError(f"endpoint is not finite on the grid of {n} steps; more "
                                  "steps cannot help", estimate=math.nan, n_steps=n)
        ends[:] = [end]
        yield tuple(chunk)


def _exact(samples, w: np.ndarray, n: int, dt: float):
    """`_walk`'s filler of exact midpoint slices for rows w on the grid of n steps dt, whose
    amplitudes and phases on the steps `chunk` (a slice) are ``samples(chunk, dt)``."""
    turns = su2._turns(w, 0.5 * dt, dt, n)

    def fill(x, start, size):
        amps, phases = samples(slice(start, start + size), dt)
        su2._slices(turns, amps, phases, dt, start, x[..., :size])
        return amps
    return fill


def _sampled(shape: PulseShape):
    """`_exact` on `shape` sampled on each chunk's own midpoints, as `pulses.sample` takes them."""
    def samples(chunk, dt):
        mids = (np.arange(chunk.start, chunk.stop) + 0.5) * dt
        return _eval(shape.amplitude_fn, mids), _eval(shape.phase_fn, mids)
    return partial(_exact, samples)


def _refine(filler, w: np.ndarray, duration: float, n_steps: int,
            tol: float | None) -> BlockTrajectory:
    """`_levels` on grids that `filler` fills for rows w over [0, `duration`], each walked
    (`_walk`) into a q of its own; a q too large to allocate names `n_steps`. Returns the
    trajectory of the accepted grid, whose q is that grid's buffer, scanned from the step pairs
    left in it if it passed unscanned."""
    def grid(n, scanned):
        try:
            q = np.empty((2, len(w), n + 1), dtype=complex)
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"n_steps {n_steps}: {n} steps are too many to allocate") from exc
        ends = []
        amps = [chunk for _, _, chunk, _ in _walk(filler, w, duration, n, scanned, ends, q)]
        return (q, np.concatenate(amps)), ends[0]

    (q, amps), n, level, estimate, scanned = _levels(grid, n_steps, tol)
    if not scanned:  # the walk left the step pairs in q
        deque(_walk(lambda *_: lambda *_: None, w, duration, n, True, [], q), 0)
    return BlockTrajectory(
        times=np.arange(n + 1) * (duration / n), q=q, amps=amps,
        n_steps=n, refinement_levels=level, error_estimate=estimate,
    )


def _streamed(system: SpinSystem, shape: PulseShape, n_steps: int, tol: float | None, fold):
    """Refine as `propagate_interaction` does, on grids that are never stored (`_walk`).

    The grid predicted to pass goes to `fold(chunks)` as it is scanned, and a predicted grid
    that fails discards fold's value. Returns (fold's value on the accepted grid, walk, n,
    estimate): ``walk()`` gives the chunks of the accepted grid again, and is how a grid
    accepted unscanned is folded.
    """
    w, filler = offset_diagonal(system), _sampled(shape)

    def grid(n, scanned):
        ends = []
        chunks = _walk(filler, w, shape.duration, n, scanned, ends)
        return (fold(chunks) if scanned else deque(chunks, 0)), ends[0]

    value, n, _, estimate, scanned = _levels(grid, n_steps, tol)
    walk = lambda: _walk(filler, w, shape.duration, n, True, [])
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
    return _refine(_sampled(shape), offset_diagonal(system), shape.duration, n_steps, tol)


def excitation_profile(system: SpinSystem, shape: PulseShape, offsets,
                       n_steps: int = DEFAULT_N_STEPS) -> np.ndarray:
    """Response table (<Sx>, <Sy>, <Sz>) after the pulse versus trial S offset.

    For each offset the initial state operator Sz evolves under the
    rotating-frame propagator per configuration; expectation values are
    averaged uniformly over I configurations (infinite-temperature I spins)
    and normalized so the initial <Sz> is 1/2. Returns shape (3, len(offsets)).

    Only the propagator at the end of the pulse matters, so every
    (offset, configuration) row of midpoint slices is reduced to its
    endpoint (`_walk`, which raises on one not finite) without a trajectory, in blocks of
    about `su2.SCAN_BLOCK` row-steps. The response is the rotated z axis of that endpoint,
    (Re, Im) of conj(a) b and (|a|**2 - |b|**2) / 2, with conj(a) b turned by the phase
    e^{i w T} of the free precession exp(-i w T Sz) that takes the row to the rotating frame.
    """
    offsets = np.asarray(offsets, dtype=float)
    sp = sample(shape, n_steps)
    duration = n_steps * sp.dt
    # offset_diagonal is s_offset + couplings, so each trial offset adds to the couplings
    couplings = offset_diagonal(dc_replace(system, s_offset=0.0))
    rows = (offsets[:, None] + couplings).ravel()
    response = np.empty((3, len(rows)))
    filler = partial(_exact, lambda chunk, _: (sp.amps[chunk], sp.phases[chunk]))
    per_block, ends = max(1, su2.SCAN_BLOCK // n_steps), []
    for start in range(0, len(rows), per_block):
        w = rows[start:start + per_block]
        deque(_walk(filler, w, shape.duration, n_steps, False, ends), 0)
        a, b = ends[0]
        m = np.conj(a) * b * np.exp(1j * (w * duration))
        response[:, start:start + len(w)] = (m.real, m.imag, 0.5 * (
            a.real * a.real + a.imag * a.imag - b.imag * b.imag - b.real * b.real))
    return response.reshape(3, len(offsets), len(couplings)).mean(axis=-1)
