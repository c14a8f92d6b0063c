"""
SU(2) elements as unit quaternions: the one representation of every block.

A configuration block U = c E - i (v . sigma) = exp(-i Omega . S) is stored
as the real array (c, vx, vy, vz) along a trailing axis of length 4, with
c**2 + |v|**2 = 1 (Cayley-Klein form; Pauly et al., IEEE TMI 10 (1991) 53).
The expansion-form coefficients (f, g) of U = f E - 2i (g . S) are the same
numbers. `to_matrix` is the only place that builds the 2x2 complex view.

`exp` and `to_matrix` take the quaternion axis last, and stored
trajectories show it last, as views of component-major (4, ...) arrays. The
bulk work runs on those contiguous component rows: `transverse_slices`
builds them, `compose` multiplies them, `reduce` takes a time-ordered product
down to its endpoint by a pairwise tree, `scan` gives every prefix product
with the same association in about 2n products, and `track_rows` tracks the
branch; a trailing-axis array q is tracked as ``track_rows(r[0], r[1:])``
with ``r = np.moveaxis(q, -1, 0)``.
"""

from __future__ import annotations

import numpy as np

SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

#: |v| at or below this leaves the rotation axis to the last sample that had one.
AXIS_TOL = 1e-9


def rotating_field(amps: np.ndarray, phases: np.ndarray, w: np.ndarray, t0: float, dt: float,
                   out=None) -> np.ndarray:
    """amps_k e^{i (phases_k - w t_k)} on the grid t_k = t0 + k dt, for each offset w.

    amps and phases have length n and w length m; the real and imaginary
    parts come back as rows of shape (2, m, n), written into `out` if given.
    e^{-i w t_k} is built by angle addition: with k = j B + r and B about
    sqrt(n), the cos and sin of -w (j B dt) and of -w (t0 + r dt) cost about
    2 sqrt(n) trig calls per offset, and each sample 4 multiplies and 2 adds.
    amps e^{i phases} is shared by every offset; where every phase is 0 it is
    amps itself and its trig is skipped.
    """
    n = len(amps)
    w = np.asarray(w, dtype=float)[:, None]
    size = 1 << n.bit_length() // 2  # B, a power of two
    fine = -w * (t0 + np.arange(size) * dt)
    coarse = -w * (np.arange(0, n, size) * dt)
    cf, sf = np.cos(fine)[:, None], np.sin(fine)[:, None]
    cc, sc = np.cos(coarse)[..., None], np.sin(coarse)[..., None]
    c, s = (v.reshape(len(w), -1)[:, :n] for v in (cc * cf - sc * sf, sc * cf + cc * sf))
    if out is None:
        out = np.empty((2, len(w), n))
    if np.any(phases):
        ax, ay = amps * np.cos(phases), amps * np.sin(phases)
        np.subtract(ax * c, ay * s, out=out[0])
        np.add(ay * c, ax * s, out=out[1])
    else:
        np.multiply(amps, c, out=out[0])
        np.multiply(amps, s, out=out[1])
    return out


def transverse_slices(half_angles: np.ndarray, phases: np.ndarray, w: np.ndarray, t0: float,
                      dt: float, out=None) -> np.ndarray:
    """exp(-i 2h_k (cos a Sx + sin a Sy)), a = phases_k - w t_k, on the grid t_k = t0 + k dt.

    Signed half angles h make negative amplitudes come out right without
    branching. The transverse part sin h e^{i a} is `rotating_field` of
    sin h. The quaternions come back component-major, shape (4, len(w), n),
    ready for `reduce` and `scan`, and written row by row into `out` if given.
    """
    if out is None:
        out = np.empty((4, len(w), len(half_angles)))
    out[0] = np.cos(half_angles)
    rotating_field(np.sin(half_angles), phases, w, t0, dt, out=out[1:3])
    out[3] = 0.0
    return out


def exp(rotation: np.ndarray) -> np.ndarray:
    """exp(-i Omega . S) for rotation vectors Omega along a trailing axis of 3."""
    rotation = np.asarray(rotation, dtype=float)
    angle = np.linalg.norm(rotation, axis=-1)
    half = 0.5 * angle
    scale = np.where(angle > 0.0, np.sin(half) / np.where(angle > 0.0, angle, 1.0), 0.5)
    return np.concatenate((np.cos(half)[..., None], scale[..., None] * rotation), axis=-1)


def compose(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Quaternion of the matrix product U_p U_q, component-major (4, ...).

    Broadcasts p and q past the component axis. `out`, if given, must not
    overlap p or q. Every component is summed left to right in a fixed order,
    so a product is the same to the last bit whatever the array layout.
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    if out is None:
        out = np.empty((4,) + np.broadcast_shapes(p0.shape, q0.shape))
    c, x, y, z = out
    t = np.empty(c.shape)
    np.multiply(p0, q0, out=c)
    c -= np.multiply(p1, q1, out=t)
    c -= np.multiply(p2, q2, out=t)
    c -= np.multiply(p3, q3, out=t)
    np.multiply(p0, q1, out=x)
    x += np.multiply(q0, p1, out=t)
    x += np.multiply(p2, q3, out=t)
    x -= np.multiply(p3, q2, out=t)
    np.multiply(p0, q2, out=y)
    y += np.multiply(q0, p2, out=t)
    y += np.multiply(p3, q1, out=t)
    y -= np.multiply(p1, q3, out=t)
    np.multiply(p0, q3, out=z)
    z += np.multiply(q0, p3, out=t)
    z += np.multiply(p1, q2, out=t)
    z -= np.multiply(p2, q1, out=t)
    return out


def _pairs(x: np.ndarray) -> np.ndarray:
    """U_{2j+1} U_{2j} for every whole pair along the last axis; an odd last one is left out."""
    n = x.shape[-1]
    return compose(x[..., 1::2], x[..., 0:n - 1:2])


def reduce(x: np.ndarray, levels: list | None = None) -> np.ndarray:
    """Time-ordered product U_{n-1} ... U_0 of x, component-major (4, ..., n).

    A pairwise tree: neighbours are multiplied level by level, and at a level
    of odd length the unpaired last element waits to be multiplied on from
    the left. This is exactly the association `scan` gives its last element,
    so ``reduce(x)`` equals ``scan(x)[..., -1]`` bit for bit. Returns a new
    (4, ...) array. A `levels` list receives the tree's levels above x.
    """
    unpaired = []
    while x.shape[-1] > 1:
        if x.shape[-1] % 2:
            unpaired.append(x[..., -1].copy())
        x = _pairs(x)
        if levels is not None:
            levels.append(x)
    out = x[..., 0].copy()
    for last in reversed(unpaired):
        out = compose(last, out)
    return out


def scan(x: np.ndarray, levels=()) -> None:
    """Replace x[..., k] by the product U_k ... U_0, in place; x is (4, ..., n).

    Work-efficient recursive pairwise scan (Blelloch, CMU-CS-90-190, 1990):
    the products of neighbouring pairs are scanned recursively and give the
    odd positions; each even position is its own element times the odd
    prefix before it. About 2n products and n/2 + n/4 + ... = n elements of
    temporaries, against n log2 n products for a log-depth scan. The pair
    products can come from ``reduce(x, levels)``'s `levels`, which it overwrites.
    """
    n = x.shape[-1]
    if n < 2:
        return
    pairs = levels[0] if levels else _pairs(x)
    scan(pairs, levels[1:])
    x[..., 1::2] = pairs
    evens = pairs[..., :(n - 1) // 2]
    x[..., 2::2] = compose(x[..., 2::2], x[..., 1:n - 1:2], out=evens)


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


def norm_defect(q: np.ndarray) -> np.ndarray:
    """|c**2 + |v|**2 - 1| per quaternion (axis last); U U^dagger - E is that times E."""
    return np.abs(q[..., 0] ** 2 + np.sum(q[..., 1:] ** 2, axis=-1) - 1.0)


def track_rows(c: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Continuous rotation angle and axis of c E - i (v . sigma) along the last (time) axis.

    c has shape (..., n_t) and v = (vx, vy, vz) shape (3, ..., n_t). Where
    |v| <= AXIS_TOL the axis of the last sample that had one is kept (the z
    axis before any). The axis sign is chosen so consecutive axes never
    point apart, and the half angle atan2(+-|v|, c) is then unwrapped by
    2 pi, so the angle runs on through 2 pi instead of folding back.
    Returns (angle, axis, |v|), with angle_k axis_k . S the exponent of
    sample k; axis is component-major, shape (3, ..., n_t).
    Only the (rare) undefined samples are filled, and `np.unwrap` runs only
    if some half-angle step is pi or more.
    """
    x, y, z = v
    norm = np.sqrt(x * x + y * y + z * z)
    defined = norm > AXIS_TOL

    axis = np.divide(v, norm, out=np.empty(v.shape), where=defined)
    source = np.where(defined, np.arange(1, norm.shape[-1] + 1), 0)
    source = np.maximum.accumulate(source, axis=-1)
    undefined = np.nonzero(~defined)
    earlier = source[undefined]
    fill = axis[(slice(None),) + undefined[:-1] + (np.maximum(earlier - 1, 0),)]
    axis[(slice(None),) + undefined] = np.where(earlier > 0, fill, [[0.0], [0.0], [1.0]])
    ax, ay, az = axis

    # The z fallback is not a real previous axis, so it never flips the sign.
    dot = ax[..., 1:] * ax[..., :-1] + ay[..., 1:] * ay[..., :-1] + az[..., 1:] * az[..., :-1]
    flips = (dot < 0.0) & (source[..., :-1] > 0)
    sign = np.ones_like(norm)
    sign[..., 1:] = np.cumprod(np.where(flips, -1.0, 1.0), axis=-1)

    half = np.arctan2(sign * norm, c)
    # Without a step of pi or more, np.unwrap would only add 0.0 (-0.0 becomes +0.0).
    smooth = np.all(np.abs(np.diff(half, axis=-1)) < np.pi)
    half = half + 0.0 if smooth else np.unwrap(half, axis=-1)
    axis *= sign
    return 2.0 * half, axis, norm
