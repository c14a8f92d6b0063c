"""
Continuous-exponential propagator analysis and the explicit existence criterion.

Each interaction propagator U(t) of a configuration, stored as a unit
quaternion (see `su2`), is written as a single exponential
U = exp(-i Omega(t) . S). The rotation vector Omega(t) is recovered by the
shared branch tracker `su2.track_rows`: the axis keeps a continuous sign and
the angle is unwrapped by 4 pi, seeded by Omega(0) = 0. That keeps Omega(t)
on the smooth branch the continuous-exponential solution lives on, instead
of jumping back at angle 2 pi the way a principal logarithm would. Omega
and the eigenvalues are built as rows with time contiguous, (3, n_configs,
n_times) and (n_values, n_times); `MagnusSolution.omega` and the array
`gap_audit` receives are transposed views of them.

Where U passes through -E the rotation axis is genuinely undefined; those
samples are flagged, the angle itself is still carried through by
continuity. Such points are exactly where the eigenvalue-gap condition
|lambda_i - lambda_j| != 2 pi n fails. `gap_audit` checks it over the
eigenvalues m_S omega_hat of the whole block-diagonal exponent at every
stored time, alongside the amplitude-integral criterion I(T) < 2 pi and its
weak-field flip-angle variant. The series partial sums use the vector form of su(2), in which a
commutator [a . S, b . S] is i (a x b) . S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .propagation import DEFAULT_TOL, BlockTrajectory, propagate_interaction
from .pulses import DEFAULT_N_STEPS, PulseShape, _midpoint_integrals, sample
from .su2 import SX, SY, SZ
from .system import SpinSystem, offset_diagonal

TWO_PI = 2.0 * math.pi

#: |sin(angle/2)| below this with cos(angle/2) ~ -1 marks the U = -E degeneracy.
AMBIGUITY_SIN_TOL = 1e-8

#: A gap within this distance (rad) of some 2 pi n, n != 0, fails the gap condition.
DEFAULT_GAP_TOL = 1e-6


class ExtractionError(RuntimeError):
    """Consecutive rotation vectors moved by >= pi; the grid is too coarse."""


@dataclass(frozen=True)
class MagnusSolution:
    """Continuity-tracked exponent Omega(t) per configuration.

    omega has shape (n_configs, n_times, 3), a view of component-major
    (3, n_configs, n_times) rows; omega_hat is its norm (always
    >= 0). alpha/beta, computed from omega on each access, are the axis
    angles of the elementary-rotation decomposition:
    alpha = atan2(Omega_y, Omega_x) in (-pi, pi] and
    beta = atan2(hypot(Omega_x, Omega_y), Omega_z) in [0, pi], so that
    Omega = omega_hat (cos alpha sin beta, sin alpha sin beta, cos beta).
    ambiguous marks stored samples where U ~ -E left the axis undefined (the
    angle is still valid there).
    """

    times: np.ndarray
    omega: np.ndarray
    omega_hat: np.ndarray
    ambiguous: np.ndarray
    s_count: int

    @property
    def n_configs(self) -> int:
        return self.omega.shape[0]

    @property
    def alpha(self) -> np.ndarray:
        return np.arctan2(self.omega[..., 1], self.omega[..., 0])

    @property
    def beta(self) -> np.ndarray:
        return np.arctan2(np.hypot(self.omega[..., 0], self.omega[..., 1]), self.omega[..., 2])


@dataclass(frozen=True)
class CriterionReport:
    """Verdicts and audit quantities for one pulse/system pair.

    criterion23_met is the amplitude-integral test I(T) < 2 pi (strict);
    criterion25_met the flip-angle variant theta(T) < 2 pi. The gap fields
    are `gap_audit` over the eigenvalues at every stored time, all
    configurations together: max_eigenvalue_gap is the largest pairwise gap,
    magnus_gap_nearest the smallest distance from any pairwise gap to the set
    {2 pi n, n != 0}, and magnus_criterion_ok is true when that distance
    exceeds DEFAULT_GAP_TOL. bound21_margin is the worst-case I(t) - omega_hat(t), the
    pointwise audit of the amplitude-integral bound on the exponent.
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
    `su2.track_rows` on the component rows of the trajectory, seeded at
    Omega(0) = 0; the same |v| flags the -E samples.

    Raises
    ------
    ExtractionError
        If consecutive rotation vectors are >= pi apart, i.e. the trajectory
        is stored too coarsely to track the branch.
    """
    rows = np.moveaxis(trajectory.q, -1, 0)  # contiguous (n_configs, n_times) rows
    c = rows[0]
    angle, omega, s = su2.track_rows(c, rows[1:])
    ambiguous = (s < AMBIGUITY_SIN_TOL) & (c <= -1.0 + AMBIGUITY_SIN_TOL)

    omega *= angle  # the unit axis becomes Omega, (3, n_configs, n_times)
    step = np.diff(omega, axis=-1)
    step *= step
    gap2 = step[0] + step[1] + step[2]
    jumps = gap2 >= math.pi**2
    if jumps.any():
        ci, k = np.unravel_index(np.argmax(jumps), jumps.shape)
        raise ExtractionError(
            f"rotation vector jumped by {math.sqrt(gap2[ci, k]):.3f} rad "
            f"between stored samples (config {ci}, step {k + 1}); "
            "re-run the propagation with more steps"
        )

    ox, oy, oz = omega
    return MagnusSolution(
        times=trajectory.times,
        omega=np.moveaxis(omega, 0, -1),
        omega_hat=np.sqrt(ox * ox + oy * oy + oz * oz),
        ambiguous=ambiguous,
        s_count=trajectory.s_count,
    )


def gap_audit(lam: np.ndarray) -> tuple[float, float]:
    """Largest eigenvalue gap and the nearest gap to the set {2 pi n, n != 0}.

    `lam` has shape (n_times, n_values): the eigenvalues of the whole
    block-diagonal exponent at each stored time. Every pair (i, j) at the
    same time counts. Rounding is monotone, so the spread s = fl(max - min)
    is the largest gap at its time; where s <= 2 pi every pair has n = 1 and
    the nearest distance there is exactly fl(|s - 2 pi|). Only times with
    s > 2 pi are swept pair by pair. Fewer than two values give (0.0, inf).
    """
    rows = np.transpose(lam)  # (n_values, n_times)
    if rows.shape[0] < 2:
        return 0.0, math.inf
    spread = np.max(rows, axis=0) - np.min(rows, axis=0)
    wide = spread > TWO_PI
    nearest = float(np.min(np.abs(spread[~wide] - TWO_PI), initial=math.inf))
    if wide.any():
        nearest = min(nearest, _pair_sweep(np.ascontiguousarray(rows[:, wide])))
    return float(np.max(spread)), nearest


def _pair_sweep(rows: np.ndarray) -> float:
    """Nearest gap to {2 pi n, n != 0} over every pair of value-major rows, offset by offset."""
    gap_buf = np.empty((rows.shape[0] - 1,) + rows.shape[1:])
    dist_buf = np.empty_like(gap_buf)
    nearest = math.inf
    for d in range(1, rows.shape[0]):
        gaps, dist = gap_buf[d - 1:], dist_buf[d - 1:]
        np.abs(np.subtract(rows[d:], rows[:-d], out=gaps), out=gaps)
        np.divide(gaps, TWO_PI, out=dist)
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
    bound omega_hat(t) <= I(t) as well as the eigenvalue-gap condition at
    every stored time.
    """
    theta_total, i_total = _midpoint_integrals(shape, shape.duration, n_steps)

    trajectory = propagate_interaction(system, shape, n_steps=n_steps, tol=tol)
    solution = extract_omega(trajectory)

    dt = trajectory.dt
    i_grid = np.concatenate(([0.0], np.cumsum(np.abs(trajectory.amps)) * dt))
    bound21_margin = float(np.min(i_grid[None, :] - solution.omega_hat))

    ms = np.arange(solution.s_count + 1) - 0.5 * solution.s_count  # total S quantum numbers
    n_t = solution.omega_hat.shape[1]
    lam = (solution.omega_hat[:, None, :] * ms[None, :, None]).reshape(-1, n_t)  # (n_values, n_times)
    max_gap, nearest = gap_audit(lam.T)

    ambiguity_times = trajectory.times[np.any(solution.ambiguous, axis=0)]
    return CriterionReport(
        i_total=i_total,
        theta_total=theta_total,
        criterion23_met=bool(i_total < TWO_PI),
        criterion25_met=bool(theta_total < TWO_PI),
        max_omega_hat=float(np.max(solution.omega_hat)),
        max_eigenvalue_gap=max_gap,
        magnus_gap_nearest=nearest,
        magnus_criterion_ok=bool(nearest > DEFAULT_GAP_TOL),
        bound21_margin=bound21_margin,
        ambiguity_times=ambiguity_times,
        n_steps=n_steps,
        trajectory_steps=trajectory.n_steps,
        error_estimate=trajectory.error_estimate,
    )


def magnus_partial_sums(system: SpinSystem, shape: PulseShape,
                        n_steps: int = 256, order: int = 3) -> np.ndarray:
    """Cumulative series partial sums for the exponent at the pulse end.

    Returns shape (n_configs, order, 2, 2): entry m is the Hermitian partial
    sum of the first m + 1 terms, where the first term is the plain time
    integral of the Hamiltonian, the second the antisymmetrized double
    integral of the commutator, and the third the nested double-commutator
    triple integral. Simplex integrals use the composite midpoint rule on the
    sampled grid, so commuting Hamiltonians give exactly zero beyond first
    order.

    Each Hamiltonian sample is a vector x_k with H_k = x_k . S, and each
    commutator a cross product, so every term is a sum of prefix or suffix
    sums over the grid.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
    sp = sample(shape, n_steps)
    dt = sp.dt
    offsets = offset_diagonal(system)
    x = np.zeros((len(offsets), len(sp.times), 3))
    x[..., 0], x[..., 1] = su2.rotating_field(sp.amps, sp.phases, offsets, 0.5 * dt, dt)
    total = x.sum(axis=1)
    terms = [total * dt]
    if order >= 2:
        running = np.cumsum(x, axis=1)
        b = dt * (running - 0.5 * x)  # integral of H up to each midpoint
        comm = np.cross(x, b)  # [H_k, b_k] = i comm_k . S
        terms.append(0.5 * dt * comm.sum(axis=1))
    if order == 3:
        c_mid = dt * (np.cumsum(comm, axis=1) - 0.5 * comm)
        term_a = np.cross(x, c_mid).sum(axis=1) * dt
        # sum over k > j of b_j x (x_j x x_k), linear in x_k: one suffix sum
        later = total[:, None, :] - running
        term_b = np.cross(b, np.cross(x, later)).sum(axis=1) * dt * dt
        terms.append((term_a + term_b) / 6.0)
    partial = np.cumsum(np.stack(terms, axis=1), axis=1)
    return np.tensordot(partial, np.stack((SX, SY, SZ)), axes=(-1, 0))
