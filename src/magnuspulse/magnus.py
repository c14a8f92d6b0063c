"""
Continuous-exponential propagator analysis and the explicit existence criterion.

Each interaction propagator U(t) of a configuration, stored as a Cayley-Klein
pair (see `su2`), is written as a single exponential
U = exp(-i Omega(t) . S). The rotation vector Omega(t) is recovered by the
shared branch tracker `su2.track_rows`: the axis keeps a continuous sign and
the angle is unwrapped by 4 pi, seeded by Omega(0) = 0. That keeps Omega(t)
on the smooth branch the continuous-exponential solution lives on, instead
of jumping back at angle 2 pi the way a principal logarithm would. Omega
has its components first and time last, (3, n_configs, n_times), as the
trajectory's pairs do (see `su2`).

The trajectory is analysed in time blocks of about `TRACK_BLOCK` samples
(`_omega_blocks`) that share their edge sample: each block after the first
starts with the last sample of the block before. The tracker carries its
branch state over that sample, so every block holds the values of one pass
over the whole grid, and every pair of consecutive samples lies in one block
for the jump test, the gap audit and the -E passages.
`extract_omega` writes the blocks into whole-grid arrays. `explicit_criterion`
folds the bound margin, the gap audit, the -E times and the largest
omega_hat block by block and never holds Omega, its steps or the
eigenvalues of the whole grid.

Where U passes through -E the rotation axis is genuinely undefined; those
samples are flagged, the angle itself is still carried through by
continuity. Such points are exactly where the eigenvalue-gap condition
|lambda_i - lambda_j| != 2 pi n fails. `gap_audit` checks it over the
eigenvalues m_S omega_hat of the whole block-diagonal exponent at and
between stored times, alongside the amplitude-integral criterion
I(T) < 2 pi and its weak-field flip-angle variant. The series partial sums are rotation vectors,
computed in the vector form of su(2), where a commutator [a . S, b . S] is
i (a x b) . S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .propagation import DEFAULT_TOL, BlockTrajectory, propagate_interaction
from .pulses import DEFAULT_N_STEPS, PulseShape, _midpoint_integrals, sample
from .system import SpinSystem, offset_diagonal

TWO_PI = 2.0 * math.pi

#: |sin(angle/2)| below this with cos(angle/2) ~ -1 marks the U = -E degeneracy.
AMBIGUITY_SIN_TOL = 1e-8

#: A gap within this distance (rad) of some 2 pi n, n != 0, fails the gap condition.
DEFAULT_GAP_TOL = 1e-6

#: Samples (configurations x times) of Omega tracked and audited at once.
TRACK_BLOCK = 1 << 14


class ExtractionError(RuntimeError):
    """Consecutive rotation vectors moved by >= pi; the grid is too coarse."""


@dataclass(frozen=True)
class MagnusSolution:
    """Continuity-tracked exponent Omega(t) per configuration, on the trajectory's grid.

    omega has shape (3, n_configs, n_times); omega_hat is the magnitude of
    the tracked angle, the norm of omega to rounding (always >= 0).
    alpha/beta, computed from omega on each access, are the axis angles of
    the elementary-rotation decomposition:
    alpha = atan2(Omega_y, Omega_x) in (-pi, pi], exact zeros taken as +0, and
    beta = atan2(hypot(Omega_x, Omega_y), Omega_z) in [0, pi], so that
    Omega = omega_hat (cos alpha sin beta, sin alpha sin beta, cos beta).
    ambiguous marks stored samples where U ~ -E left the axis undefined (the
    angle is still valid there).
    """

    omega: np.ndarray
    omega_hat: np.ndarray
    ambiguous: np.ndarray

    @property
    def alpha(self) -> np.ndarray:
        # + 0.0 makes -0 +0: a zero's sign is summation order, and atan2(-0, x < 0) = -pi
        return np.arctan2(self.omega[1] + 0.0, self.omega[0] + 0.0)

    @property
    def beta(self) -> np.ndarray:
        return np.arctan2(np.hypot(self.omega[0], self.omega[1]), self.omega[2])


@dataclass(frozen=True)
class CriterionReport:
    """Verdicts and audit quantities for one pulse/system pair.

    criterion23_met is the amplitude-integral test I(T) < 2 pi (strict);
    criterion25_met the flip-angle variant theta(T) < 2 pi. The gap fields
    are `gap_audit` over the eigenvalues along the whole trajectory, all
    configurations together: max_eigenvalue_gap is the largest pairwise gap
    at a stored time, magnus_gap_nearest the smallest distance from any
    pairwise gap to the set {2 pi n, n != 0} (0 where a gap passes 2 pi n
    between samples), and magnus_criterion_ok is true when that distance
    exceeds DEFAULT_GAP_TOL. bound21_margin is the worst-case I(t) - omega_hat(t), the
    pointwise audit of the amplitude-integral bound on the exponent; it includes t = 0, where
    both are 0, so it is never positive: 0 or a rounding-size negative value means it held.
    ambiguity_times, ascending and distinct, are where some configuration's
    U passes -E (`_minus_e_times`): each stored time flagged as in
    `MagnusSolution.ambiguous`, and an interpolated time for each passage
    between two unflagged samples.
    """

    i_total: float
    theta_total: float
    criterion23_met: bool
    criterion25_met: bool
    max_omega_hat: float
    max_eigenvalue_gap: float
    magnus_gap_nearest: float
    magnus_criterion_ok: bool
    bound21_margin: float
    ambiguity_times: np.ndarray
    n_steps: int
    trajectory_steps: int
    error_estimate: float


def extract_omega(trajectory: BlockTrajectory) -> MagnusSolution:
    """Invert U(t_k) = exp(-i Omega . S) along the trajectory, per configuration.

    The branch (angle + 4 pi k along the axis) is tracked for continuity by
    `su2.track_rows` on the real rows of the trajectory (`su2.rows`), seeded at
    Omega(0) = 0; the same |v| flags the -E samples. The blocks of
    `_omega_blocks` are written into whole-grid arrays.

    Raises
    ------
    ExtractionError
        If consecutive rotation vectors are >= pi apart, i.e. the trajectory
        is stored too coarsely to track the branch.
    """
    shape = trajectory.q.shape[1:]
    omega, omega_hat, ambiguous = np.empty((3,) + shape), np.empty(shape), np.empty(shape, bool)
    for block, *values in _omega_blocks(trajectory):
        omega[..., block], omega_hat[:, block], ambiguous[:, block] = values
    return MagnusSolution(omega=omega, omega_hat=omega_hat, ambiguous=ambiguous)


def _omega_blocks(trajectory: BlockTrajectory):
    """Omega, omega_hat and the -E flags along the trajectory, in blocks of `TRACK_BLOCK` samples.

    Yields (block, omega, omega_hat, ambiguous) for time slices `block`:
    omega is component-major, (3, n_configs, block length), and omega_hat
    the tracker's |angle|. Each block's real rows (`su2.rows`) are built
    contiguous for the tracker. Consecutive blocks share one sample, the
    last of one and the first of the next, so every pair of consecutive
    samples lies in one block. One `su2.BranchState` carries the tracker
    across blocks, so the values are those of one pass over the whole grid.

    Raises
    ------
    ExtractionError
        In the block that holds the earliest jump |Omega_k - Omega_{k-1}| >= pi,
        naming its step k and the lowest configuration that jumps there; that
        block is not yielded and no later block is tracked.
    """
    q = trajectory.q
    n_configs, n_times = q.shape[1:]
    width = max(1, TRACK_BLOCK // n_configs)
    state = su2.BranchState((n_configs,))
    for start in range(0, n_times - 1, width):
        block = slice(start, start + width + 1)
        rows = su2.rows(q[..., block])
        c = rows[0]
        angle, omega, s = su2.track_rows(c, rows[1:], state)
        omega *= angle  # the unit axis becomes Omega
        ambiguous = (s < AMBIGUITY_SIN_TOL) & (c <= -1.0 + AMBIGUITY_SIN_TOL)
        step2 = _step2(omega)
        jumps = step2 >= math.pi**2
        if jumps.any():
            k, ci = np.argwhere(jumps.T)[0]  # the earliest step, then the lowest configuration
            raise ExtractionError(f"rotation vector jumped by {math.sqrt(step2[ci, k]):.3f} rad "
                                  f"between stored samples (config {ci}, step {start + k}); "
                                  "re-run the propagation with more steps")
        yield block, omega, np.abs(angle, out=angle), ambiguous


def _step2(omega: np.ndarray) -> np.ndarray:
    """|Omega_k - Omega_{k-1}|**2 along the last axis, 0 at the first sample."""
    step = np.zeros(omega.shape)
    np.subtract(omega[..., 1:], omega[..., :-1], out=step[..., 1:])
    step *= step
    step[0] += step[1]
    step[0] += step[2]
    return step[0]


def gap_audit(rows: np.ndarray) -> tuple[float, float]:
    """Largest eigenvalue gap and the nearest gap to the set {2 pi n, n != 0}.

    `rows` has shape (n_values, n_times): the eigenvalues of the whole
    block-diagonal exponent, values first and time last. Every pair (i, j) at
    the same time counts. Rounding is monotone, so the spread s = fl(max - min)
    is the largest gap at its time; where s <= 2 pi every pair has n = 1 and
    the nearest distance there is exactly fl(|s - 2 pi|). Only times with
    s > 2 pi, and their neighbours, are swept pair by pair. Fewer than two
    values give (0.0, inf).

    The time between samples counts too. Tracked eigenvalues are continuous,
    so where either of two consecutive samples has s > 2 pi, a pair whose
    |lambda_i - lambda_j| / 2 pi brackets an integer n >= 1 passed 2 pi n
    between them, and the nearest distance is 0. A grid audited in blocks
    that share their edge sample (`_omega_blocks`) sees every consecutive
    pair; a repeated sample changes neither result.
    """
    if rows.shape[0] < 2:
        return 0.0, math.inf
    spread = np.max(rows, axis=0) - np.min(rows, axis=0)
    wide = spread > TWO_PI
    nearest = float(np.min(np.abs(spread[~wide] - TWO_PI), initial=math.inf))
    if wide.any():
        near = wide.copy()  # the wide times and their neighbours
        near[1:] |= wide[:-1]
        near[:-1] |= wide[1:]
        nearest = min(nearest, _pair_sweep(rows[:, near]))
    return float(np.max(spread)), nearest


def _pair_sweep(rows: np.ndarray) -> float:
    """Nearest gap to {2 pi n, n != 0} over every pair of value-major rows, offset by offset.

    0 where a pair's floor(gap / 2 pi) changes between neighbouring columns.
    Columns with s <= 2 pi leave the result as `gap_audit` has it: their
    distances are at least fl(|s - 2 pi|), and their floors are 0 but at a gap
    of exactly 2 pi, so two such neighbours need not be consecutive times.
    """
    gap_buf = np.empty((rows.shape[0] - 1,) + rows.shape[1:])
    dist_buf = np.empty_like(gap_buf)
    nearest = math.inf
    for d in range(1, rows.shape[0]):
        gaps, dist = gap_buf[d - 1:], dist_buf[d - 1:]
        np.abs(np.subtract(rows[d:], rows[:-d], out=gaps), out=gaps)
        np.divide(gaps, TWO_PI, out=dist)
        turns = np.floor(dist)
        if np.any(turns[:, 1:] != turns[:, :-1]):
            return 0.0
        np.maximum(np.round(dist, out=dist), 1.0, out=dist)  # n
        dist *= TWO_PI
        np.abs(np.subtract(gaps, dist, out=dist), out=dist)
        nearest = min(nearest, float(np.min(dist)))
    return nearest


def explicit_criterion(system: SpinSystem, shape: PulseShape,
                       n_steps: int = DEFAULT_N_STEPS,
                       tol: float | None = DEFAULT_TOL) -> CriterionReport:
    """Evaluate the existence criterion and all audit quantities for one pulse.

    Computes I(T) and theta(T) by quadrature, propagates the exact
    trajectory, extracts the continuous exponent, and audits the pointwise
    bound omega_hat(t) <= I(t) at every stored time, and the eigenvalue-gap
    condition and the -E passages at and between stored times, one time
    block of `_omega_blocks` at a time.

    Raises
    ------
    ExtractionError
        As `extract_omega` does, from the block of `_omega_blocks` that holds
        the earliest jump; the audit stops there.
    """
    theta_total, i_total = _midpoint_integrals(shape, shape.duration, n_steps)

    trajectory = propagate_interaction(system, shape, n_steps=n_steps, tol=tol)
    i_grid = np.concatenate(([0.0], np.cumsum(np.abs(trajectory.amps)) * trajectory.dt))
    ms = np.arange(system.s_count + 1) - 0.5 * system.s_count  # total S quantum numbers

    margin, max_hat, max_gap, nearest = math.inf, -math.inf, -math.inf, math.inf
    minus_e = []
    for block, _, omega_hat, ambiguous in _omega_blocks(trajectory):
        margin = np.minimum(margin, np.min(i_grid[block] - omega_hat))
        max_hat = np.maximum(max_hat, np.max(omega_hat))
        lam = (omega_hat[:, None, :] * ms[None, :, None]).reshape(-1, omega_hat.shape[-1])
        gap, near = gap_audit(lam)
        max_gap, nearest = np.maximum(max_gap, gap), np.minimum(nearest, near)
        minus_e.append(_minus_e_times(trajectory.times[block], omega_hat, ambiguous))

    return CriterionReport(
        i_total=i_total,
        theta_total=theta_total,
        criterion23_met=bool(i_total < TWO_PI),
        criterion25_met=bool(theta_total < TWO_PI),
        max_omega_hat=float(max_hat),
        max_eigenvalue_gap=float(max_gap),
        magnus_gap_nearest=float(nearest),
        magnus_criterion_ok=bool(nearest > DEFAULT_GAP_TOL),
        bound21_margin=float(margin),
        ambiguity_times=np.unique(np.concatenate(minus_e)),
        n_steps=n_steps,
        trajectory_steps=trajectory.n_steps,
        error_estimate=trajectory.error_estimate,
    )


def _minus_e_times(times: np.ndarray, omega_hat: np.ndarray, ambiguous: np.ndarray) -> np.ndarray:
    """Times after a block's first sample where some configuration's U passes -E.

    These are the flagged samples, and between two consecutive unflagged
    samples where omega_hat passes an odd multiple of 2 pi, the time where
    omega_hat, taken as linear between them, meets it. (A block's first
    sample is the last one of the block before, or the identity at t = 0.)
    """
    flagged = times[1:][np.any(ambiguous[:, 1:], axis=0)]
    if np.max(omega_hat) < TWO_PI:
        return flagged
    odd = np.floor((omega_hat + TWO_PI) / (2.0 * TWO_PI))  # odd multiples at or below
    c, k = np.nonzero((odd[:, 1:] != odd[:, :-1]) & ~ambiguous[:, 1:] & ~ambiguous[:, :-1])
    h0, h1 = omega_hat[c, k], omega_hat[c, k + 1]
    share = (TWO_PI * (2.0 * np.maximum(odd[c, k], odd[c, k + 1]) - 1.0) - h0) / (h1 - h0)
    passages = times[k] + np.clip(share, 0.0, 1.0) * (times[k + 1] - times[k])
    return np.concatenate((flagged, passages))


def magnus_partial_sums(system: SpinSystem, shape: PulseShape, n_steps: int = 256) -> np.ndarray:
    """Cumulative series partial sums for the exponent at the pulse end, as rotation vectors.

    Returns shape (3, n_configs, 3): sums[..., m] is the sum of the first
    m + 1 terms, so ``su2.exp(sums[..., m])`` is the order-(m + 1)
    propagator. The first term is the plain time integral of the
    Hamiltonian, the second the antisymmetrized double integral of the
    commutator, and the third the nested double-commutator triple integral.
    Simplex integrals use the composite midpoint rule on the sampled grid, so
    commuting Hamiltonians give exactly zero beyond first order.

    Each Hamiltonian sample is a vector x_k with H_k = x_k . S, and each
    commutator a cross product, so every term is a sum of prefix or suffix
    sums over the grid.
    """
    sp = sample(shape, n_steps)
    dt = sp.dt
    offsets = offset_diagonal(system)
    field = su2.rotating_field(sp.amps, sp.phases, offsets, 0.5 * dt, dt)
    x = np.zeros((3,) + field.shape)
    x[0], x[1] = -field.imag, field.real  # v_x and v_y of the pair row b
    total = x.sum(axis=-1)
    running = np.cumsum(x, axis=-1)
    b = dt * (running - 0.5 * x)  # integral of H up to each midpoint
    comm = np.cross(x, b, axis=0)  # [H_k, b_k] = i comm_k . S
    c_mid = dt * (np.cumsum(comm, axis=-1) - 0.5 * comm)
    term_a = np.cross(x, c_mid, axis=0).sum(axis=-1) * dt
    # sum over k > j of b_j x (x_j x x_k), linear in x_k: one suffix sum
    later = total[..., None] - running
    term_b = np.cross(b, np.cross(x, later, axis=0), axis=0).sum(axis=-1) * dt * dt
    terms = (total * dt, 0.5 * dt * comm.sum(axis=-1), (term_a + term_b) / 6.0)
    return np.cumsum(np.stack(terms, axis=-1), axis=-1)
