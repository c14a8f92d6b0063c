"""
Continuous-exponential propagator analysis and the explicit existence criterion.

Each interaction propagator U(t) of a configuration, stored as a unit
quaternion (see `su2`), is written as a single exponential
U = exp(-i Omega(t) . S). The rotation vector Omega(t) is recovered by the
shared branch tracker `su2.track`: the axis keeps a continuous sign and the
angle is unwrapped by 4 pi, seeded by Omega(0) = 0. That keeps Omega(t) on
the smooth branch the continuous-exponential solution lives on, instead of
jumping back at angle 2 pi the way a principal logarithm would.

Where U passes through -E the rotation axis is genuinely undefined; those
samples are flagged, the angle itself is still carried through by
continuity. Such points are exactly where the eigenvalue-gap condition
|lambda_i - lambda_j| != 2 pi n fails, which this module checks alongside
the amplitude-integral criterion I(T) < 2 pi and its weak-field flip-angle
variant. The series partial sums use the vector form of su(2), in which a
commutator [a . S, b . S] is i (a x b) . S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .propagation import BlockTrajectory, propagate_interaction
from .pulses import PulseShape, abs_amplitude_integral, flip_angle, sample
from .su2 import SX, SY, SZ
from .system import SpinSystem, offset_diagonal

TWO_PI = 2.0 * math.pi

#: |sin(angle/2)| below this with cos(angle/2) ~ -1 marks the U = -E degeneracy.
AMBIGUITY_SIN_TOL = 1e-8

#: Default tolerance for the eigenvalue-gap (2 pi n) proximity check, in rad.
DEFAULT_GAP_TOL = 1e-6


class ExtractionError(RuntimeError):
    """Consecutive rotation vectors moved by >= pi; the grid is too coarse."""


@dataclass(frozen=True)
class MagnusSolution:
    """Continuity-tracked exponent Omega(t) per configuration.

    omega has shape (n_configs, n_times, 3); omega_hat is its norm (always
    >= 0), alpha/beta the axis angles of the elementary-rotation
    decomposition. ambiguous marks stored samples where U ~ -E left the axis
    undefined (the angle is still valid there).
    """

    times: np.ndarray
    omega: np.ndarray
    omega_hat: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    ambiguous: np.ndarray
    s_count: int

    @property
    def n_configs(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class CriterionReport:
    """Verdicts and audit quantities for one pulse/system pair.

    criterion23_met is the amplitude-integral test I(T) < 2 pi (strict);
    criterion25_met the flip-angle variant theta(T) < 2 pi. The gap fields
    summarize the eigenvalue-difference condition over every stored time:
    magnus_gap_nearest is the smallest distance from any pairwise gap to the
    set {2 pi n, n != 0}, and magnus_criterion_ok is true when it stays above
    the tolerance. bound21_margin is the worst-case I(t) - omega_hat(t), the
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
    `su2.track`, seeded at Omega(0) = 0.

    Raises
    ------
    ExtractionError
        If consecutive rotation vectors are >= pi apart, i.e. the trajectory
        is stored too coarsely to track the branch.
    """
    q = trajectory.q
    c, s = q[..., 0], np.linalg.norm(q[..., 1:], axis=-1)
    ambiguous = (s < AMBIGUITY_SIN_TOL) & (c <= -1.0 + AMBIGUITY_SIN_TOL)

    angle, axis = su2.track(q)
    omega = angle[..., None] * axis
    gap2 = np.sum(np.diff(omega, axis=1) ** 2, axis=-1)
    jumps = gap2 >= math.pi**2
    if jumps.any():
        ci, k = np.unravel_index(np.argmax(jumps), jumps.shape)
        raise ExtractionError(
            f"rotation vector jumped by {math.sqrt(gap2[ci, k]):.3f} rad "
            f"between stored samples (config {ci}, step {k + 1}); "
            "re-run the propagation with more steps"
        )

    omega_hat = np.linalg.norm(omega, axis=-1)
    alpha, beta, _ = angles_from_omega(omega[..., 0], omega[..., 1], omega[..., 2])
    return MagnusSolution(
        times=trajectory.times,
        omega=omega,
        omega_hat=omega_hat,
        alpha=alpha,
        beta=beta,
        ambiguous=ambiguous,
        s_count=trajectory.s_count,
    )


def reconstruct_blocks(solution: MagnusSolution) -> np.ndarray:
    """exp(-i Omega . S) for every stored sample, shape (n_configs, n_times, 2, 2)."""
    return su2.to_matrix(su2.exp(solution.omega))


def angles_from_omega(omega_x, omega_y, omega_z):
    """Elementary-rotation angles (alpha, beta, omega_hat) from the exponent components.

    alpha = atan2(Omega_y, Omega_x) in (-pi, pi], beta = atan2(hypot(Omega_x,
    Omega_y), Omega_z) in [0, pi], omega_hat the Euclidean norm. Vectorized;
    degenerate zero components resolve to angle 0.
    """
    ox = np.asarray(omega_x, dtype=float)
    oy = np.asarray(omega_y, dtype=float)
    oz = np.asarray(omega_z, dtype=float)
    transverse = np.hypot(ox, oy)
    alpha = np.arctan2(oy, ox)
    beta = np.arctan2(transverse, oz)
    omega_hat = np.sqrt(ox * ox + oy * oy + oz * oz)
    if alpha.ndim == 0:
        return float(alpha), float(beta), float(omega_hat)
    return alpha, beta, omega_hat


def total_sz_quantum_numbers(s_count: int) -> np.ndarray:
    """Total S-group magnetic quantum numbers -n/2 .. n/2 in unit steps."""
    return np.arange(s_count + 1) - 0.5 * s_count


def omega_eigenvalues(solution: MagnusSolution, t_index: int) -> np.ndarray:
    """Eigenvalues m_s * omega_hat of the exponent at one stored time.

    Values are ordered configuration-major, each configuration contributing
    one eigenvalue per total S quantum number (distinct values once; the
    binomial multiplicities for n > 1 equivalent S spins are not repeated).
    """
    n_t = solution.omega_hat.shape[1]
    if not (-n_t <= t_index < n_t):
        raise IndexError(f"t_index {t_index} out of range for {n_t} stored times")
    ms = total_sz_quantum_numbers(solution.s_count)
    return (solution.omega_hat[:, t_index][:, None] * ms[None, :]).ravel()


def magnus_gap_check(eigenvalues, tolerance: float = DEFAULT_GAP_TOL):
    """Distance of all pairwise eigenvalue gaps from the lattice {2 pi n, n != 0}.

    Returns (ok, nearest_violation): ok iff every gap stays farther than
    `tolerance` from every nonzero multiple of 2 pi. Fewer than two
    eigenvalues trivially pass with infinite distance.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    if lam.size < 2:
        return True, math.inf
    iu = np.triu_indices(lam.size, k=1)
    gaps = np.abs(lam[:, None] - lam[None, :])[iu]
    nearest = float(np.min(_gap_distances(gaps)))
    return nearest > tolerance, nearest


def _gap_distances(gaps: np.ndarray) -> np.ndarray:
    n = np.maximum(np.round(gaps / TWO_PI), 1.0)
    return np.abs(gaps - TWO_PI * n)


def explicit_criterion(system: SpinSystem, shape: PulseShape,
                       n_steps: int = 4096, tol: float | None = 1e-9,
                       gap_tolerance: float = DEFAULT_GAP_TOL) -> CriterionReport:
    """Evaluate the existence criterion and all audit quantities for one pulse.

    Computes I(T) and theta(T) by quadrature, propagates the exact
    trajectory, extracts the continuous exponent, and audits the pointwise
    bound omega_hat(t) <= I(t) as well as the eigenvalue-gap condition at
    every stored time.
    """
    duration = shape.duration
    i_total = abs_amplitude_integral(shape, duration, n_steps)
    theta_total = flip_angle(shape, duration, n_steps)

    trajectory = propagate_interaction(system, shape, n_steps=n_steps, tol=tol)
    solution = extract_omega(trajectory)

    dt = trajectory.dt
    i_grid = np.concatenate(([0.0], np.cumsum(np.abs(trajectory.amps)) * dt))
    bound21_margin = float(np.min(i_grid[None, :] - solution.omega_hat))

    ms = total_sz_quantum_numbers(solution.s_count)
    n_t = solution.omega_hat.shape[1]
    lam = (solution.omega_hat[:, :, None] * ms[None, None, :])
    lam = lam.transpose(1, 0, 2).reshape(n_t, -1)  # (n_times, n_values)
    iu = np.triu_indices(lam.shape[1], k=1)
    max_gap = 0.0
    nearest = math.inf
    chunk = 16384
    for start in range(0, lam.shape[0], chunk):
        block = lam[start:start + chunk]
        gaps = np.abs(block[:, :, None] - block[:, None, :])[:, iu[0], iu[1]]
        if gaps.size:
            max_gap = max(max_gap, float(np.max(gaps)))
            nearest = min(nearest, float(np.min(_gap_distances(gaps))))

    ambiguity_times = trajectory.times[np.any(solution.ambiguous, axis=0)]
    return CriterionReport(
        i_total=i_total,
        theta_total=theta_total,
        criterion23_met=bool(i_total < TWO_PI),
        criterion25_met=bool(theta_total < TWO_PI),
        max_omega_hat=float(np.max(solution.omega_hat)),
        max_eigenvalue_gap=max_gap,
        magnus_gap_nearest=nearest,
        magnus_criterion_ok=bool(nearest > gap_tolerance),
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
    angle = -offset_diagonal(system).values[:, None] * sp.times + sp.phases
    x = sp.amps[:, None] * np.stack(
        (np.cos(angle), np.sin(angle), np.zeros_like(angle)), axis=-1)
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
