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

The trajectory is analysed in the time windows of `su2.track_windows`
(`_omega_blocks`), whose window rule makes every block hold the values of one
pass over the whole grid and puts every pair of consecutive samples in one
block for the jump test, the gap audit and the -E passages.
`extract_omega` writes the blocks into whole-grid arrays. `explicit_criterion`
stores no trajectory: it audits each time chunk of the grid as it is scanned
(`propagation._streamed`), folding the bound margin, the gap audit, the -E times
and the largest omega_hat window by window (`_audit`), so it holds one chunk and
never Omega, its steps or the eigenvalues of the whole grid; it tracks only the
configurations at -E (`_closest`), on a second walk of the grid.

Where U passes through -E the rotation axis is genuinely undefined; those samples are
flagged, the angle itself is still carried through by continuity. Such points are exactly
where the eigenvalue-gap condition |lambda_i - lambda_j| != 2 pi n fails. `gap_audit` checks
it over the eigenvalues m_S omega_hat of the whole block-diagonal exponent at and between
stored times, from omega_hat and the S spin count, alongside the amplitude-integral
criterion I(T) < 2 pi and its weak-field flip-angle variant. The series partial sums are
rotation vectors, computed in the vector form of su(2), where a commutator [a . S, b . S]
is i (a x b) . S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .propagation import DEFAULT_TOL, BlockTrajectory, _streamed
from .pulses import DEFAULT_N_STEPS, PulseShape, midpoint_integrals, sample
from .system import SpinSystem, offset_diagonal

TWO_PI = 2.0 * math.pi

#: A gap within this distance (rad) of some 2 pi n, n != 0, fails the gap condition.
DEFAULT_GAP_TOL = 1e-6

#: A configuration whose 1 + min_t Re a(t) is at or below this is at -E and branch-tracked.
MINUS_E_TOL = 1e-8


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
    ambiguous marks stored samples at -E, where the tracker's mask
    (`su2.track_rows`) leaves the axis undefined and the scalar part is
    negative; the angle is still valid there.
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
    criterion25_met the flip-angle variant theta(T) < 2 pi. The audits across configurations
    read M_t = max_c omega_hat_c(t) at each stored time: max_omega_hat is max_t M_t, and
    bound21_margin min_t (I(t) - M_t), the worst-case I(t) - omega_hat_c(t) of the pointwise
    bound on the exponent; it includes t = 0, where both are 0, so it is never positive: 0 or
    a rounding-size negative value means it held. The gap fields are `gap_audit` over the
    eigenvalues m omega_hat_c, |m| <= s/2 for s S spins: max_eigenvalue_gap is the largest
    pairwise gap at a stored time, 2 fl(max_omega_hat s / 2), magnus_gap_nearest the smallest
    distance from any pairwise gap to the set {2 pi n, n != 0} (0 where a gap passes 2 pi n
    between samples), and magnus_criterion_ok is true when that distance exceeds
    DEFAULT_GAP_TOL.
    ambiguity_times, ascending and distinct, are where some configuration's
    U passes -E (`_minus_e_times`): each stored time flagged as in
    `MagnusSolution.ambiguous`, where the tracker's mask leaves the axis
    undefined, and an interpolated time for each passage between two
    unflagged samples.
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

    The branch (angle + 4 pi k along the axis) is tracked for continuity
    along the windows of `su2.track_windows`, seeded at Omega(0) = 0; its
    mask of undefined axes flags the -E samples. The blocks of
    `_omega_blocks` are written into whole-grid arrays.

    Raises
    ------
    ExtractionError
        If consecutive rotation vectors are >= pi apart, i.e. the trajectory
        is stored too coarsely to track the branch.
    """
    shape = trajectory.q.shape[1:]
    omega, omega_hat, ambiguous = np.empty((3,) + shape), np.empty(shape), np.empty(shape, bool)
    for block, *values in _omega_blocks(trajectory.q):
        omega[..., block], omega_hat[:, block], ambiguous[:, block] = values
    return MagnusSolution(omega=omega, omega_hat=omega_hat, ambiguous=ambiguous)


def _omega_blocks(q: np.ndarray, configs=slice(None), state=None, start: int = 0):
    """Omega, omega_hat and the -E flags of the configurations `configs` of pairs q, window by
    window.

    Yields (block, omega, omega_hat, ambiguous) for the time slices `block` of
    `su2.track_windows` over q, which share their edge sample: omega
    is component-major, (3, n_configs, block length), and omega_hat the
    tracker's |angle|. The walk continues from `state` (`su2.BranchState`) if given, for q
    a time chunk of a grid whose column 0 is step `start`.

    Raises
    ------
    ExtractionError
        In the block that holds the earliest jump |Omega_k - Omega_{k-1}| >= pi,
        naming its step k and the lowest configuration that jumps there, by its index in
        q; that block is not yielded and no later block is tracked.
    """
    index = np.arange(q.shape[1])[configs]
    for block, rows, angle, omega, defined in su2.track_windows(q, configs, state):
        omega *= angle  # the unit axis becomes Omega
        ambiguous = ~defined & (rows[0] < 0.0)
        step = np.diff(omega)
        step *= step
        step2 = step[0] + step[1] + step[2]  # |Omega_k - Omega_{k-1}|**2 at k - 1
        jumps = step2 >= math.pi**2
        if jumps.any():
            k, ci = np.argwhere(jumps.T)[0]  # the earliest step, then the lowest configuration
            raise ExtractionError(f"rotation vector jumped by {math.sqrt(step2[ci, k]):.3f} rad "
                                  f"between stored samples (config {index[ci]}, "
                                  f"step {start + block.start + k + 1}); re-run the propagation "
                                  "with more steps")
        yield block, omega, np.abs(angle, out=angle), ambiguous


def gap_audit(omega_hat: np.ndarray, s_count: int) -> tuple[float, float]:
    """Largest eigenvalue gap and the nearest gap to the set {2 pi n, n != 0}.

    The eigenvalues of the whole block-diagonal exponent are m omega_hat_c(t), m = -s/2 .. s/2
    for s = `s_count` and each configuration c of `omega_hat` (n_configs, n_times); every pair
    at one time counts. Rounding is monotone and omega_hat >= 0, so at each time the spread
    fl(top + top), top = fl(M_t s / 2) with M_t = max_c omega_hat_c(t), is the largest gap;
    where it is <= 2 pi every pair has n = 1 and the nearest distance is exactly
    fl(|spread - 2 pi|). The rows m omega_hat_c are built and swept pair by pair only at times
    whose spread passes 2 pi and at their neighbours.

    The time between samples counts too. Tracked eigenvalues are continuous, so where either
    of two consecutive samples has a spread above 2 pi, a pair whose |lambda_i - lambda_j| /
    2 pi brackets an integer n >= 1 passed 2 pi n between them, and the nearest distance is 0.
    A grid audited in blocks that share their edge sample (`su2.track_windows`) sees every
    consecutive pair; a repeated sample changes neither result.
    """
    top = np.max(omega_hat, axis=0) * (0.5 * s_count)
    spread = top + top
    wide = spread > TWO_PI
    nearest = float(np.min(np.abs(spread[~wide] - TWO_PI), initial=math.inf))
    if wide.any():
        near = np.convolve(wide, [1, 1, 1])[1:-1] > 0  # the wide times and their neighbours
        nearest = min(nearest, _pair_sweep(omega_hat[:, near], s_count))
    return float(np.max(spread)), nearest


def _pair_sweep(omega_hat: np.ndarray, s_count: int) -> float:
    """Nearest gap to {2 pi n, n != 0} over every pair of rows m omega_hat_c, offset by offset.

    0 where a pair's floor(gap / 2 pi) changes between neighbouring columns. Columns with a
    spread <= 2 pi leave the result as `gap_audit` has it: their distances are at least
    fl(|spread - 2 pi|), and their floors are 0 but at a gap of exactly 2 pi, so two such
    neighbours need not be consecutive times. Rows too many to allocate name `s_count`.
    """
    try:
        ms = np.arange(s_count + 1) - 0.5 * s_count  # total S quantum numbers
        rows = (omega_hat[:, None, :] * ms[:, None]).reshape(-1, omega_hat.shape[-1])
        gap_buf, dist_buf = np.empty((2, rows.shape[0] - 1) + rows.shape[1:])
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"s_count {s_count} gives too many eigenvalues to allocate") from exc
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

    Computes I(T) and theta(T) by quadrature, refines the exact propagation as
    `propagate_interaction` does, and audits the pointwise bound omega_hat(t) <= I(t) at every
    stored time, and the eigenvalue-gap condition and the -E passages at and between stored
    times (`_audit`). The trajectory is never stored: each grid is built, reduced and scanned
    a time chunk at a time, and the grid predicted to pass is audited chunk by chunk as it is
    scanned (`propagation._streamed`), so the criterion holds one chunk, not a trajectory.

    exp(-i Omega . S) maps the open ball |Omega| < 2 pi one-to-one onto SU(2) without -E, so
    a configuration whose U stays off -E has one continuous exponent, the principal one,
    omega_hat = 2 atan2(|v|, c) of U = c E - i (v . sigma), with no jump and no -E passage.
    The audit reads every configuration so and finds each one's delta_c (`_closest`) where it
    may be small: a slice turns U by |amps_k| dt <= 2 D, D = dt max |amps| / 2 over its
    chunk, so its Re a dips at most D**2 / 8 below its ends, and a chunk where 1 + min c >
    D**2 / 8 + MINUS_E_TOL needs no in-slice minimum. If some delta_c is at most
    `MINUS_E_TOL`, the accepted grid is streamed and audited once more, with those
    configurations branch-tracked across its chunks.

    Raises
    ------
    ExtractionError
        As `extract_omega` does, for the tracked configurations, from the window that holds
        the earliest jump; the audit stops there.
    """
    theta_total, i_total = midpoint_integrals(shape, shape.duration, n_steps)
    (audit, closest), walk, n, estimate = _streamed(
        system, shape, n_steps, tol, lambda chunks: _audit(chunks, system.s_count))
    tracked = np.flatnonzero(~(closest > MINUS_E_TOL))  # NaN rows are tracked
    if tracked.size:
        audit, _ = _audit(walk(), system.s_count, tracked)
    margin, max_hat, nearest, minus_e = audit

    return CriterionReport(
        i_total=i_total,
        theta_total=theta_total,
        criterion23_met=bool(i_total < TWO_PI),
        criterion25_met=bool(theta_total < TWO_PI),
        max_omega_hat=float(max_hat),
        max_eigenvalue_gap=float(2.0 * (max_hat * (0.5 * system.s_count))),
        magnus_gap_nearest=float(nearest),
        magnus_criterion_ok=bool(nearest > DEFAULT_GAP_TOL),
        bound21_margin=float(margin),
        ambiguity_times=np.unique(np.concatenate(minus_e)),
        n_steps=n_steps,
        trajectory_steps=n,
        error_estimate=estimate,
    )


def _audit(chunks, s_count: int, tracked: np.ndarray | None = None):
    """Fold the criterion's audits over one scanned grid, a time chunk at a time.

    `chunks` yields (start, q, amps, dt) in time order: q (2, n_configs, k + 1) holds the
    pairs at steps start .. start + k, the first the last of the chunk before (the identity
    at step 0), and amps the midpoint amplitudes of its k steps of dt. In the windows of
    `su2._windows` inside each chunk, which share their edge sample, the fold takes the bound
    margin against a carried sum of |amps| dt, the largest omega_hat, the gap audit (which
    stops at a nearest distance of 0, as no later window can lower it) and the -E times.
    Configurations `tracked` take omega_hat and the -E flags from the branch tracker, carried
    across chunks (`_omega_blocks`); the others are read as principal.

    With `tracked` None, each configuration's least `_closest` over the chunks that fail
    `explicit_criterion`'s D**2 / 8 check comes back (inf where none does), which is delta_c
    wherever delta_c is at most MINUS_E_TOL. Returns ((margin, max omega_hat, nearest, -E
    times), those minima).
    """
    margin, max_hat, nearest, minus_e, total = math.inf, -math.inf, math.inf, [], 0.0
    closest, state = math.inf, None if tracked is None else su2.BranchState(tracked.shape)
    for start, q, amps, dt in chunks:
        amps = np.abs(amps)
        sums = np.cumsum(np.concatenate(([total], amps)))  # one sum in time order, carried
        total, i_grid, times = sums[-1], sums * dt, np.arange(start, start + len(sums)) * dt
        if state is None:
            d = 0.5 * dt * np.max(amps)  # D; NaN rows are tracked
            near = np.flatnonzero(~(1.0 + np.min(q[0].real, axis=-1) > 0.125 * d * d
                                    + MINUS_E_TOL))
            delta = np.full(q.shape[1], math.inf)
            if near.size:
                delta[near] = _closest(q, near)
            closest = np.minimum(closest, delta)
        walk = state and _omega_blocks(q, tracked, state, start)
        for block in su2._windows(*q.shape[1:]):
            a, b = q[:, :, block]  # c copied contiguous and |v| summed as in the tracker's rows
            norm = np.sqrt(b.imag * b.imag + b.real * b.real + a.imag * a.imag)
            omega_hat = 2.0 * np.arctan2(norm, a.real.copy())
            ambiguous = np.zeros(norm.shape, bool)
            if walk:
                _, _, omega_hat[tracked], ambiguous[tracked] = next(walk)
            top = np.max(omega_hat, axis=0)  # M_t
            margin = np.minimum(margin, np.min(i_grid[block] - top))
            max_hat = np.maximum(max_hat, np.max(top))
            if nearest > 0:
                nearest = np.minimum(nearest, gap_audit(omega_hat, s_count)[1])
            minus_e.append(_minus_e_times(times[block], omega_hat, ambiguous))
        del amps, sums, i_grid, times, norm, omega_hat, top  # not alive while the next is built
    return (margin, max_hat, nearest, minus_e), closest


def _closest(q: np.ndarray, configs: np.ndarray) -> np.ndarray:
    """delta_c = 1 + min_t Re a_c(t) of the configurations `configs` of pairs q, exact inside
    each slice: U_{k+1} U_k^dagger = cos h E - i sin h (n . sigma), h in [0, pi], takes U_k =
    c E - i (v . sigma) along Re a = c cos x - (n . v) sin x, x in [0, h], least at an end or,
    where its slope (times sin h) is negative at x = 0 and positive at x = h, -hypot(c, n . v)."""
    delta = 1.0 + np.min(q[0].real, axis=-1)[configs]  # the samples
    for block in su2._windows(len(configs), q.shape[-1]):
        x = q[:, configs, block]
        a, b = x[..., :-1]
        (c, *v), (s0, *s) = su2.rows(x[..., :-1]), su2.rows(su2.compose(x[..., 1:],
                                                                        np.stack((a.conj(), -b))))
        slope, sin2 = -np.einsum("i...,i...->...", s, v), np.einsum("i...,i...->...", s, s)
        dip = (slope < 0.0) & (slope * s0 > c * sin2)
        np.minimum.at(delta, np.nonzero(dip)[0],
                      1.0 - np.hypot(c[dip], slope[dip] / np.sqrt(sin2[dip])))
    return delta


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
