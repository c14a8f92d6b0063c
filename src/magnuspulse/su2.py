"""
SU(2) elements as Cayley-Klein pairs: the one representation of every block.

A configuration block U = c E - i (v . sigma) = exp(-i Omega . S) is stored as the complex
pair (a, b) = (c - i v_z, v_y - i v_x), so that U = [[a, -conj b], [b, conj a]] and
|a|**2 + |b|**2 = 1 (Cayley-Klein parameters; Pauly et al., IEEE TMI 10 (1991) 53). The
expansion-form coefficients (f, g) of U = f E - 2i (g . S) are the same numbers, f = Re a
and g = (-Im b, Re b, -Im a); `rows` reads them off as real rows and `to_matrix` builds the
2x2 view.

Every array here has its components first and time last: pairs are complex
(2, ..., n_t) and rotation vectors real (3, ..., n_t), so each component is
a contiguous row. `_slices` builds those rows of exact slices from any sample on,
`compose` multiplies them, `reduce` takes a time-ordered product down to its endpoint by a
pairwise tree, `scan` gives every prefix product with the same association in about 2n
products, `_stream` takes either a time chunk at a time, each chunk a whole subtree of the
pairing, with one carried prefix and the same bits (its docstring gives the proof), and
`track_windows` tracks the branch along a trajectory with `track_rows`, window by window;
its docstring states the window rule. One rule (`_chunk`) sets the time chunks of every
grid, so a grid is filled, reduced and scanned a chunk at a time (`propagation._walk`),
stored or never held whole.

`compose` is the one product, 8 complex ufunc passes. numpy's complex multiply may fuse
multiply-adds, depending on the CPU features it dispatches to (AVX2 and AVX-512 on x86-64),
and a product of one element that is written over an operand or broadcasts an operand of
lower rank may take another loop, which rounds differently. No complex product here does
either, so the same values give the same bits whatever their layout or length: ``reduce(x)``
is ``scan(x)[..., -1]`` bit for bit, and one configuration alone gives the bits it gives
beside others, on either propagator route. numpy takes ``x * t`` as ``t * x`` for a
temporary t of 256 KiB or more, and a fused product rounds by the order of its factors, so
`expansion._rk4_steps` builds its step pairs a row at a time. Across machines and numpy
builds results agree to rounding, not bit for bit; with ``NPY_DISABLE_CPU_FEATURES="X86_V3
X86_V4 AVX512_ICL AVX512_SPR"`` numpy multiplies by the plain formula.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0], dtype=complex)

#: |v| at or below this leaves the rotation axis to the last sample that had one.
AXIS_TOL = 1e-9

#: Samples (rows x times) that `track_windows` tracks at once.
TRACK_BLOCK = 1 << 14

#: Row-steps (rows x times) of a time chunk (`_chunk`), which is at least 1024 steps.
SCAN_BLOCK = 1 << 16


def _chunk(n_rows: int, n: int) -> int:
    """Steps of a time chunk of a grid of n steps on n_rows rows, the one chunk rule of every
    grid: the longest run of 2^c >= 1024 steps that divides n with n_rows 2^c within
    `SCAN_BLOCK` (1024 steps past that), a whole subtree of `reduce`'s pairing; n where no
    such run divides n."""
    size = min(n & -n, 1 << max(10, (SCAN_BLOCK // max(1, n_rows)).bit_length() - 1))
    return size if size >= 1024 else max(n, 1)


def _turns(w: np.ndarray, t0: float, dt: float, n: int):
    """(B, -i e^{-i w (t0 + r dt)} for r < B, e^{-i w j B dt} for j B < n): the turns that
    `rotating_field` builds the grid t_k = t0 + k dt, k < n, from, B a power of two near
    sqrt(n), a row of each per offset of w."""
    w = np.asarray(w, dtype=float)[:, None]
    size = 1 << n.bit_length() // 2
    fine = -w * (t0 + np.arange(size) * dt)
    coarse = -w * (np.arange(0, n, size) * dt)
    turn_fine = np.empty(fine.shape, dtype=complex)
    turn_fine.real, turn_fine.imag = np.sin(fine), -np.cos(fine)  # -i e^{i fine}
    turn_coarse = np.empty(coarse.shape, dtype=complex)
    turn_coarse.real, turn_coarse.imag = np.cos(coarse), np.sin(coarse)
    return size, turn_fine, turn_coarse


def _fields(turns, a: np.ndarray, phases: np.ndarray, start: int, out: np.ndarray):
    """Write the `rotating_field` of amplitudes a and phases at samples start, start + 1, ...
    of the grid of `turns` into out, (n_rows, len(a)): each sample is one product of its two
    turns and one of that with its amplitude, so a sample's bits do not depend on the chunk."""
    size, fine, coarse = turns
    first, lead = divmod(start, size)
    blocks = coarse[:, first:first + -(-(lead + len(a)) // size)]  # the blocks a touches
    # the turns fill `out` itself where it is whole blocks, longer than 1, and run past it
    # otherwise: the last product keeps to the rule of the module docstring
    turn = (out if lead == 0 and len(a) == blocks.shape[1] * size > 1 else
            np.empty((len(fine), blocks.shape[1] * size), dtype=complex))
    np.multiply(blocks[..., None], fine[:, None], out=turn.reshape(len(fine), -1, size))
    a = a * (np.cos(phases) + 1j * np.sin(phases)) if np.any(phases) else a + 0j
    np.multiply(a[None], turn[:, lead:lead + len(a)], out=out)


def _slices(turns, amps: np.ndarray, phases: np.ndarray, dt: float, start: int, out: np.ndarray):
    """Write the exact slices exp(-i 2h_k (cos a Sx + sin a Sy)), h_k = amps_k dt / 2, a =
    phases_k - w t_k, at samples start, start + 1, ... of the grid of `turns` into out, (2,
    n_rows, len(amps)): the pairs (cos h, -i sin h e^{i a}), b the `rotating_field` of sin h
    (`_fields`). Signed amplitudes make negative ones come out right without branching."""
    half = 0.5 * amps * dt
    out[0] = np.cos(half)
    _fields(turns, np.sin(half), phases, start, out[1])


def rotating_field(amps: np.ndarray, phases: np.ndarray, w: np.ndarray, t0: float, dt: float,
                   out=None) -> np.ndarray:
    """b = -i amps_k e^{i (phases_k - w t_k)} on the grid t_k = t0 + k dt, for each offset w.

    That is the pair row b = v_y - i v_x of the transverse vector amps_k (cos a_k, sin a_k, 0),
    a_k = phases_k - w t_k. amps and phases have length n and w length m; b comes back
    complex, shape (m, n), written into `out` if given. e^{-i w t_k} is built by angle
    addition: with k = j B + r and B about sqrt(n), the turns by -w (j B dt) and by
    -w (t0 + r dt), -i folded into the latter, cost about 2 sqrt(n) trig calls per offset
    (`_turns`), and each sample one complex product (`_fields`). amps e^{i phases} is shared
    by every offset; where every phase is 0 it is amps itself and its trig is skipped.
    """
    if out is None:
        out = np.empty((len(w), len(amps)), dtype=complex)
    _fields(_turns(w, t0, dt, len(amps)), amps, phases, 0, out)
    return out


def exp(rotation: np.ndarray) -> np.ndarray:
    """exp(-i Omega . S) for rotation vectors Omega, shape (3, ...), as pairs (2, ...)."""
    rotation = np.asarray(rotation, dtype=float)
    angle = np.linalg.norm(rotation, axis=0)
    half = 0.5 * angle
    scale = np.where(angle > 0.0, np.sin(half) / np.where(angle > 0.0, angle, 1.0), 0.5)
    x, y, z = scale * rotation
    return np.stack((np.cos(half) - 1j * z, y - 1j * x))


def compose(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pair of the matrix product U_p U_q, component-major (2, ...).

    a = a_p a_q - conj(b_p) b_q and b = b_p a_q + conj(a_p) b_q, with each
    complex product written to an array of its own, so a product is the
    same to the last bit whatever the array layout or length (see the module
    docstring). Broadcasts p and q past the component axis. `out`, if given,
    must not overlap p or q.
    """
    pa, pb = p
    qa, qb = q
    if out is None:
        out = np.empty((2,) + np.broadcast_shapes(pa.shape, qa.shape), dtype=complex)
    a, b = out
    t = np.empty(a.shape, dtype=complex)
    np.multiply(np.conjugate(pb, out=t), qb, out=a)
    np.subtract(np.multiply(pa, qa, out=t), a, out=a)
    np.multiply(np.conjugate(pa, out=t), qb, out=b)
    b += np.multiply(pb, qa, out=t)
    return out


def _pairs(x: np.ndarray) -> np.ndarray:
    """U_{2j+1} U_{2j} for every whole pair along the last axis; an odd last one is left out."""
    n = x.shape[-1]
    return compose(x[..., 1::2], x[..., 0:n - 1:2])


def reduce(x: np.ndarray, levels: list | None = None) -> np.ndarray:
    """Time-ordered product U_{n-1} ... U_0 of x, component-major (2, ..., n).

    A pairwise tree: neighbours are multiplied level by level, and at a level
    of odd length the unpaired last element waits to be multiplied on from
    the left. This is exactly the association `scan` gives its last element,
    so ``reduce(x)`` equals ``scan(x)[..., -1]`` bit for bit. Returns a new
    (2, ...) array. A `levels` list receives the tree's levels above x.
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


def scan(x: np.ndarray, levels: list | None = None) -> None:
    """Replace x[..., k] by the product U_k ... U_0, in place; x is (2, ..., n).

    Work-efficient recursive pairwise scan (Blelloch, CMU-CS-90-190, 1990):
    the products of neighbouring pairs are scanned recursively and give the
    odd positions; each even position is its own element times the odd
    prefix before it. About 2n products and n/2 + n/4 + ... = n elements of
    temporaries, against n log2 n products for a log-depth scan. The pair
    products can come from ``reduce(x, levels)``'s `levels`, which it
    overwrites and takes off the list, so each level is freed once used.
    """
    n = x.shape[-1]
    if n < 2:
        return
    pairs = levels.pop(0) if levels else _pairs(x)
    scan(pairs, levels)
    x[..., 1::2] = pairs
    evens = pairs[..., :(n - 1) // 2]
    x[..., 2::2] = compose(x[..., 2::2], x[..., 1:n - 1:2], out=evens)


def _stream(chunks, scanned: bool):
    """Reduce, and scan in place as by `scan` if `scanned`, a grid given as its time chunks.

    `chunks` yields the grid's chunks (2, n_rows, size) in time order, each of `_chunk`'s size
    and filled when yielded: whole subtrees of `reduce`'s pairing. Each chunk is reduced,
    keeping its levels only to be scanned, and its root pushed onto a stack of nodes; while
    the top two have equal size they merge, as `reduce` pairs them. The fold N_r (... (N_2
    N_1)) of the stack from its largest node is the product through the chunk's end with
    `scan`'s association: `scan` gives prefix P_j as that fold over the aligned nodes of
    j + 1's binary digits. The chunk is scanned from its levels with the fold seeding its root
    and the previous chunk's prefix composed onto index 0 of every level below, as the whole
    scan composes it, so every prefix and the endpoint keep their bits. Yields that fold
    (2, n_rows) once each chunk is done; the last is `reduce`'s endpoint of the grid.
    """
    nodes, prefix = [], None  # products of aligned subtrees, the earliest and largest first
    for count, chunk in enumerate(chunks, 1):
        levels = [] if scanned else None
        nodes.append(reduce(chunk, levels))
        while count % 2 == 0:  # the top two nodes are equal subtrees
            nodes[-2:] = [compose(nodes[-1], nodes[-2])]
            count //= 2
        fold = nodes[0]
        for node in nodes[1:]:
            fold = compose(node, fold)
        if scanned:
            if prefix is not None:  # the first chunk's root is its own fold
                for level in [chunk] + levels[:-1]:
                    level[..., 0] = compose(level[..., 0], prefix)
                levels[-1][..., 0] = fold
            scan(chunk, levels)
            prefix = fold
        yield fold


def rows(x: np.ndarray) -> np.ndarray:
    """Real rows (c, v_x, v_y, v_z) = (Re a, -Im b, Re b, -Im a) of pairs x (2, ...): (4, ...)."""
    a, b = x
    out = np.stack((a.real, b.imag, b.real, a.imag))
    np.negative(out[1::2], out=out[1::2])
    return out


def to_matrix(x: np.ndarray) -> np.ndarray:
    """2x2 view [[a, -conj b], [b, conj a]] of pairs x (2, ...), shape x.shape[1:] + (2, 2)."""
    a, b = x
    return np.stack((np.stack((a, -np.conj(b)), axis=-1), np.stack((b, np.conj(a)), axis=-1)),
                    axis=-2)


def norm_defect(x: np.ndarray) -> np.ndarray:
    """||a|**2 + |b|**2 - 1| per pair of x (2, ...); U U^dagger - E is that times E."""
    a, b = x
    return np.abs(a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2 - 1.0)


class BranchState:
    """What `track_rows` carries from one time window to the next, for rows of shape `shape`.

    axis is the last filled axis before its sign, component-major (the z axis before any
    real one), which a window's leading undefined samples take; seen says whether a real
    axis has been met; sign is the cumulative axis sign; turns the whole number of turns
    unwrapped so far, as floats, which only a window with a half-angle step past pi changes.
    """

    def __init__(self, shape):
        self.axis = np.zeros((3,) + tuple(shape))
        self.axis[2] = 1.0
        self.seen = np.zeros(shape, dtype=bool)
        self.sign = np.ones(shape)
        self.turns = np.zeros(shape)


def track_rows(c: np.ndarray, v: np.ndarray,
               state: BranchState | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Continuous rotation angle and axis of c E - i (v . sigma) along the last (time) axis.

    c has shape (..., n_t) and v = (vx, vy, vz) shape (3, ..., n_t). Where |v| <= AXIS_TOL
    the axis is undefined, the one rule for a sample at +-E, and the axis of the last sample
    that had one is kept (the z axis before any). The axis sign is chosen so consecutive axes
    never point apart. The half angle atan2(+-|v|, c) lies in (-pi, pi], so a step of more
    than pi between samples is one whole turn the other way; adding 2 pi times the count of
    those turns lets the angle run on through 2 pi instead of folding back. Returns (angle,
    axis, defined): angle_k axis_k . S is the exponent of sample k, axis is component-major,
    shape (3, ..., n_t), and defined the mask |v| > AXIS_TOL, shape (..., n_t).

    Each call continues from `state` and leaves it at its last sample; tracking that sample
    again leaves the state and its values unchanged (its axis is `state.axis` and its
    half-angle step is 0). The turns are whole numbers, whose sums are exact, so the windows
    of `track_windows` give the values of one call over the whole grid, bit for bit. Without
    `state` the rows start afresh. A window pays for the fill, in its length, only where it
    has an undefined axis; for the sign products only where consecutive axes have a negative
    dot; and for counting turns only where a half-angle step passes pi, any other window
    adding the carried turns alone.
    """
    if state is None:
        state = BranchState(c.shape[:-1])
    x, y, z = v
    norm = x * x
    norm += y * y
    norm += z * z
    np.sqrt(norm, out=norm)
    defined = norm > AXIS_TOL

    if defined.all():
        axis = v / norm
    else:
        # an undefined sample takes the last defined axis before it, else the carried one
        axis = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
        axis[..., 0] = state.axis  # ahead of the window's samples
        np.divide(v, norm, out=axis[..., 1:], where=defined)
        last = np.maximum.accumulate(np.where(defined, np.arange(1, axis.shape[-1]), 0), axis=-1)
        axis = np.take_along_axis(axis, last[None], axis=-1)
    ax, ay, az = axis

    # The z fallback is not a real previous axis, so it never flips the sign.
    dot = ax[..., 1:] * ax[..., :-1] + ay[..., 1:] * ay[..., :-1] + az[..., 1:] * az[..., :-1]
    last_axis = axis[..., -1].copy()
    flips = dot < 0.0
    if flips.any():
        flips &= state.seen[..., None] | np.logical_or.accumulate(defined[..., :-1], axis=-1)
        factors = np.concatenate((state.sign[..., None], np.where(flips, -1.0, 1.0)), axis=-1)
        sign = np.cumprod(factors, axis=-1)
    else:
        sign = state.sign[..., None]

    half = np.arctan2(sign * norm, c)
    step = np.diff(half, axis=-1, prepend=half[..., :1])
    if np.any(np.abs(step) > np.pi):
        turns = np.cumsum((step < -np.pi) * 1.0 - (step > np.pi), axis=-1)
        turns += state.turns[..., None]
        state.turns = turns[..., -1].copy()
    else:
        turns = state.turns[..., None]
    half += (2.0 * np.pi) * turns
    axis *= sign
    state.axis, state.sign = last_axis, sign[..., -1].copy()
    state.seen = state.seen | defined.any(axis=-1)
    return 2.0 * half, axis, defined


def _windows(n_rows: int, n_t: int):
    """Time slices of about `TRACK_BLOCK` samples in all; consecutive ones share an edge sample."""
    width = max(1, TRACK_BLOCK // n_rows)
    return (slice(start, start + width + 1) for start in range(0, n_t - 1, width))


def track_windows(x: np.ndarray, subset=slice(None), state: BranchState | None = None):
    """`track_rows` along pairs x (2, n_rows, n_t), in the time windows of `_windows`.

    Yields (window, r, angle, axis, defined) for each time slice `window`, with
    ``r = rows(x[:, subset, window])`` and the rest `track_rows`' values on r. This is
    the one walk of the branch, and its window rule is the one rule of every
    check made on it: one `BranchState` carries the tracker over the sample
    that consecutive windows share, so each window holds the values of one
    call over the whole grid, bit for bit, and the shared sample's values are
    the same in both windows. Rows `subset` alone keep those bits, in the same windows. A
    walk continues from `state` and leaves it at x's last sample, so pairs given a time chunk
    at a time, each with the last sample of the chunk before, keep them too.
    """
    state = BranchState(x[0, subset, 0].shape) if state is None else state
    for window in _windows(*x.shape[1:]):
        r = rows(x[:, subset, window])
        yield (window, r) + track_rows(r[0], r[1:], state)
