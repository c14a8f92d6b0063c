"""
SU(2) elements as unit quaternions: the one representation of every block.

A configuration block U = c E - i (v . sigma) = exp(-i Omega . S) is stored
as the real array (c, vx, vy, vz) along a trailing axis of length 4, with
c**2 + |v|**2 = 1 (Cayley-Klein form; Pauly et al., IEEE TMI 10 (1991) 53).
The expansion-form coefficients (f, g) of U = f E - 2i (g . S) are the same
numbers. Products, prefix scans and branch tracking act on these arrays;
`to_matrix` is the only place that builds the 2x2 complex view.
"""

from __future__ import annotations

import numpy as np

E2 = np.eye(2, dtype=complex)
SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

#: |v| at or below this leaves the rotation axis to the last sample that had one.
AXIS_TOL = 1e-9


def transverse_slices(half_angles: np.ndarray, field_angles: np.ndarray) -> np.ndarray:
    """exp(-i 2h (cos a Sx + sin a Sy)) for half angles h and field directions a.

    Signed half angles make negative amplitudes come out right without
    branching. Broadcasts the two inputs; appends the quaternion axis.
    """
    s = np.sin(half_angles)
    return np.stack(np.broadcast_arrays(np.cos(half_angles), s * np.cos(field_angles),
                                        s * np.sin(field_angles), 0.0), axis=-1)


def exp(rotation: np.ndarray) -> np.ndarray:
    """exp(-i Omega . S) for rotation vectors Omega along a trailing axis of 3."""
    rotation = np.asarray(rotation, dtype=float)
    angle = np.linalg.norm(rotation, axis=-1)
    half = 0.5 * angle
    scale = np.where(angle > 0.0, np.sin(half) / np.where(angle > 0.0, angle, 1.0), 0.5)
    return np.concatenate((np.cos(half)[..., None], scale[..., None] * rotation), axis=-1)


def compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion of the matrix product U_p U_q (broadcasting)."""
    p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
    q0, q1, q2, q3 = np.moveaxis(q, -1, 0)
    return np.stack((
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + q0 * p1 + p2 * q3 - p3 * q2,
        p0 * q2 + q0 * p2 + p3 * q1 - p1 * q3,
        p0 * q3 + q0 * p3 + p1 * q2 - p2 * q1,
    ), axis=-1)


def prefix_products(steps: np.ndarray) -> None:
    """Replace steps[..., k, :] by the product U_k ... U_0, in place (log-depth scan)."""
    n = steps.shape[-2]
    shift = 1
    while shift < n:
        steps[..., shift:, :] = compose(steps[..., shift:, :], steps[..., :n - shift, :])
        shift *= 2


def to_matrix(q: np.ndarray) -> np.ndarray:
    """2x2 complex view c E - i (v . sigma), shape q.shape[:-1] + (2, 2)."""
    q = np.asarray(q, dtype=float)
    c, vx, vy, vz = np.moveaxis(q, -1, 0)
    u = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    re, im = u.real, u.imag
    re[..., 0, 0] = re[..., 1, 1] = c
    im[..., 0, 0] = -vz
    im[..., 1, 1] = vz
    re[..., 0, 1] = -vy
    re[..., 1, 0] = vy
    im[..., 0, 1] = im[..., 1, 0] = -vx
    return u


def track(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous rotation angle and axis along the time axis -2 of q.

    Returns (angle, axis), shapes q.shape[:-1] and q.shape[:-1] + (3,), with
    q[..., k, :] = exp(-i angle_k axis_k . S) at every sample. Where
    |v| <= AXIS_TOL the axis of the last sample that had one is kept (the z
    axis before any). The axis sign is chosen so consecutive axes never point
    apart, and the half angle atan2(+-|v|, c) is then unwrapped by 2 pi, so
    the angle runs on through 2 pi instead of folding back.
    """
    q = np.asarray(q, dtype=float)
    v = q[..., 1:]
    norm = np.linalg.norm(v, axis=-1)
    defined = norm > AXIS_TOL
    n_t = norm.shape[-1]

    candidates = np.zeros(q.shape[:-2] + (n_t + 1, 3))
    candidates[..., 0, 2] = 1.0
    candidates[..., 1:, :] = np.where(
        defined[..., None], v / np.where(defined, norm, 1.0)[..., None], 0.0)
    source = np.where(defined, np.arange(1, n_t + 1), 0)
    source = np.maximum.accumulate(source, axis=-1)
    axis = np.take_along_axis(candidates, source[..., None], axis=-2)

    # The z fallback is not a real previous axis, so it never flips the sign.
    flips = (np.sum(axis[..., 1:, :] * axis[..., :-1, :], axis=-1) < 0.0) & (source[..., :-1] > 0)
    sign = np.ones_like(norm)
    sign[..., 1:] = np.cumprod(np.where(flips, -1.0, 1.0), axis=-1)

    half = np.unwrap(np.arctan2(sign * norm, q[..., 0]), axis=-1)
    return 2.0 * half, sign[..., None] * axis
