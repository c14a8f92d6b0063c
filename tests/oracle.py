"""Reference implementations for oracle comparisons.

Deliberately independent of the block-structured fast path: the static and
drive Hamiltonians are assembled from Kronecker-product single-spin
operators, the interaction-picture Hamiltonian is obtained by explicit
conjugation with exp(+i H0 t), and each time slice is exponentiated through
an eigendecomposition. Only the basis ordering convention (S spins slowest,
I spins in declaration order) is shared with the library.

`magnus_partial_sums_loop` is the direct 2x2-matrix evaluation of the
series partial sums, with its O(n^2) loop over the double-commutator
integral, kept as the reference for the library's vector form.

`integrate_expansion_loop` is the sequential classical RK4 integration of
the expansion-form coefficient ODEs (`expansion_rhs`), one time step at a
time, kept as the reference for the library's step-quaternion scan.
`_legacy_expansion_rhs` is the superseded form of those ODEs.
`omega_hat_quadrature` is a second route to the expansion form's rotation
angle: midpoint quadrature of the reduced scalar ODE, where the library
tracks the branch of the stored quaternions.

`sequential_prefix` multiplies unit-quaternion steps as 2x2 matrices one at
a time, the reference for the library's scan. `hillis_steele_prefix` is the
log-depth scan (about n log2 n products) that the library's work-efficient
scan replaced; its endpoint fixes the association that refinement decisions
were recorded with.

`track_trailing` is the branch tracker on quaternions with the component
axis last, one (..., n_t, 4) array, the reference for the library's tracker
on component rows. `track_rows_dense` is the library's former tracker on
component rows, which gathered every axis from a candidate array and always
unwrapped; the library's tracker now pays only at undefined axes and jumps.

`gap_audit_pairs` is the eigenvalue-gap audit as one all-pairs table, the
reference for the library's spread shortcut and its offset sweep.

`csv_table` is the command line's former table writer, one `%` format per
row, the reference for the text of its column-wise CSV writer.

`fourier_series` sums a Fourier envelope one harmonic at a time, a cos or sin
call each, the reference for the library's Clenshaw recurrence.
"""

import math

import numpy as np

TWO_PI = 2.0 * np.pi
SX1 = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY1 = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ1 = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)


def embed(op, slot, total):
    out = np.eye(1, dtype=complex)
    for position in range(total):
        out = np.kron(out, op if position == slot else np.eye(2, dtype=complex))
    return out


def static_hamiltonian(system):
    """H0 = H_I + Omega_I * Sz_total on the full product space."""
    n_s, n_i = system.s_count, system.n_i
    total = n_s + n_i
    dim = 1 << total
    h = np.zeros((dim, dim), dtype=complex)
    for k, spin in enumerate(system.i_spins):
        h += spin.offset * embed(SZ1, n_s + k, total)
    for (k, l), j_hz in system.j_ii.items():
        h += TWO_PI * j_hz * embed(SZ1, n_s + k, total) @ embed(SZ1, n_s + l, total)
    for s in range(n_s):
        h += system.s_offset * embed(SZ1, s, total)
        for k, spin in enumerate(system.i_spins):
            h += TWO_PI * spin.j_to_s * embed(SZ1, s, total) @ embed(SZ1, n_s + k, total)
    return h


def drive_hamiltonian(system, amp, phase):
    """RF term amp * (cos(phase) Sx_total + sin(phase) Sy_total) over the S group."""
    n_s, n_i = system.s_count, system.n_i
    total = n_s + n_i
    dim = 1 << total
    h = np.zeros((dim, dim), dtype=complex)
    for s in range(n_s):
        h += amp * (np.cos(phase) * embed(SX1, s, total) + np.sin(phase) * embed(SY1, s, total))
    return h


def interaction_hamiltonian(system, amp, phase, t, h0_diag=None):
    """exp(+i H0 t) H1 exp(-i H0 t); H0 is diagonal so the conjugation is a phase map."""
    if h0_diag is None:
        h0_diag = np.diag(static_hamiltonian(system)).real
    u0 = np.exp(1j * h0_diag * t)
    h1 = drive_hamiltonian(system, amp, phase)
    return (u0[:, None] * h1) * np.conj(u0)[None, :]


def expm_neg_i(h, dt):
    """exp(-i h dt) for Hermitian h via eigendecomposition (batched over axis 0)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _ordered_product(steps):
    """steps[n-1] @ ... @ steps[0] by pairwise tree reduction."""
    while steps.shape[0] > 1:
        odd = steps[-1:] if steps.shape[0] % 2 else None
        body = steps[: steps.shape[0] - (steps.shape[0] % 2)]
        steps = body[1::2] @ body[0::2]
        if odd is not None:
            steps = np.concatenate([steps, odd])
    return steps[0]


def dense_propagator(system, shape, n_steps, slab=4096):
    """Midpoint-sliced full-space interaction propagator at t = duration."""
    dt = shape.duration / n_steps
    mids = (np.arange(n_steps) + 0.5) * dt
    amps = np.asarray(shape.amplitude_fn(mids), dtype=float)
    phases = np.asarray(shape.phase_fn(mids), dtype=float)
    h0_diag = np.diag(static_hamiltonian(system)).real
    dim = h0_diag.size
    total = int(math.log2(dim))
    sx_tot = sum(embed(SX1, s, total) for s in range(system.s_count))
    sy_tot = sum(embed(SY1, s, total) for s in range(system.s_count))

    u = np.eye(dim, dtype=complex)
    for start in range(0, n_steps, slab):
        sl = slice(start, min(start + slab, n_steps))
        h1 = (
            (amps[sl] * np.cos(phases[sl]))[:, None, None] * sx_tot
            + (amps[sl] * np.sin(phases[sl]))[:, None, None] * sy_tot
        )
        u0 = np.exp(1j * h0_diag[None, :] * mids[sl][:, None])
        h_int = u0[:, :, None] * h1 * np.conj(u0)[:, None, :]
        u = _ordered_product(expm_neg_i(h_int, dt)) @ u
    return u


def magnus_partial_sums_loop(system, shape, n_steps=256, order=3):
    """Series partial sums from sampled 2x2 Hamiltonians and matrix commutators."""
    from magnuspulse import offset_diagonal, sample

    sp = sample(shape, n_steps)
    offsets = offset_diagonal(system)
    angle = -offsets[:, None] * sp.times[None, :] + sp.phases[None, :]
    h = np.zeros(angle.shape + (2, 2), dtype=complex)
    off = 0.5 * sp.amps[None, :] * np.exp(-1j * angle)
    h[..., 0, 1] = off
    h[..., 1, 0] = np.conj(off)
    dt = sp.dt
    n_c, n = h.shape[0], h.shape[1]

    out = np.zeros((n_c, order, 2, 2), dtype=complex)
    for ci in range(n_c):
        hk = h[ci]
        out[ci, 0] = hk.sum(axis=0) * dt
        if order == 1:
            continue

        cum = np.concatenate((np.zeros((1, 2, 2), complex), np.cumsum(hk, axis=0)))
        b = cum[:-1] * dt + 0.5 * dt * hk  # integral of H up to each midpoint
        comm1 = hk @ b - b @ hk
        out[ci, 1] = out[ci, 0] - 0.5j * comm1.sum(axis=0) * dt
        if order == 2:
            continue

        cum1 = np.concatenate((np.zeros((1, 2, 2), complex), np.cumsum(comm1, axis=0)))
        c_mid = cum1[:-1] * dt + 0.5 * dt * comm1
        term_a = (hk @ c_mid - c_mid @ hk).sum(axis=0) * dt

        term_b = np.zeros((2, 2), dtype=complex)
        for k in range(1, n):
            inner = hk[:k] @ hk[k] - hk[k] @ hk[:k]
            outer = b[:k] @ inner - inner @ b[:k]
            term_b += outer.sum(axis=0) * dt * dt
        out[ci, 2] = out[ci, 1] - (term_a + term_b) / 6.0
    return out


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
    is how tests demonstrate the corrected system matters.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    df = -amp * np.sum(h * g, axis=-1)
    w = np.cross(h, g)
    w[..., 0] *= -1.0
    dg = 0.5 * amp * (f[..., None] * h + w)
    return df, dg


def integrate_expansion_loop(system, shape, n_steps, rhs=expansion_rhs):
    """Fixed-step RK4 of the coefficient ODEs, one step at a time.

    Returns (times, f, g) with f of shape (n_configs, n_steps + 1) and g of
    shape (n_configs, n_steps + 1, 3), starting from the identity.
    """
    from magnuspulse import offset_diagonal

    offsets = offset_diagonal(system)
    n_c = len(offsets)
    dt = shape.duration / n_steps
    nodes = np.arange(n_steps + 1) * dt
    mids = nodes[:-1] + 0.5 * dt

    def field(times):
        amps = np.asarray(shape.amplitude_fn(times), dtype=float)
        angle = -offsets[:, None] * times[None, :] + np.asarray(shape.phase_fn(times), dtype=float)
        h = np.stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)], axis=-1)
        return amps, h

    amp_nodes, h_nodes = field(nodes)
    amp_mids, h_mids = field(mids)

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


def _field_direction(offsets, times, phases):
    """Unit transverse field h(t) per configuration: shape (n_configs, len(times), 3)."""
    angle = -offsets[:, None] * times[None, :] + phases[None, :]
    h = np.zeros(angle.shape + (3,))
    h[..., 0] = np.cos(angle)
    h[..., 1] = np.sin(angle)
    return h


def omega_hat_quadrature(state, shape, system):
    """Accumulated rotation angle from the reduced scalar ODE, per configuration.

    Integrates omega1 (h . n) with n the unit vector along g, by the midpoint
    rule on the state's own grid; where |g| < 1e-10 the direction falls back
    to the instantaneous field h (the t -> 0 limit). Shape (n_configs, n_steps + 1).
    """
    from magnuspulse import offset_diagonal
    from magnuspulse.pulses import _eval

    offsets = offset_diagonal(system)
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


def quaternion_matrix(q):
    """c E - i (v . sigma) for quaternions (c, vx, vy, vz) along a trailing axis."""
    c, x, y, z = (np.asarray(q, dtype=float)[..., i, None, None] for i in range(4))
    return c * np.eye(2) - 2j * (x * SX1 + y * SY1 + z * SZ1)


def sequential_prefix(q):
    """U_k ... U_0 for every k of q (..., n, 4), one 2x2 product at a time: (..., n, 2, 2)."""
    steps = quaternion_matrix(q)
    out = np.empty_like(steps)
    acc = np.broadcast_to(np.eye(2, dtype=complex), steps[..., 0, :, :].shape)
    for k in range(steps.shape[-3]):
        acc = steps[..., k, :, :] @ acc
        out[..., k, :, :] = acc
    return out


def quaternion_product(p, q):
    """U_p U_q on trailing-axis quaternions, each component summed left to right."""
    p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
    q0, q1, q2, q3 = np.moveaxis(q, -1, 0)
    return np.stack((
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + q0 * p1 + p2 * q3 - p3 * q2,
        p0 * q2 + q0 * p2 + p3 * q1 - p1 * q3,
        p0 * q3 + q0 * p3 + p1 * q2 - p2 * q1,
    ), axis=-1)


def hillis_steele_prefix(q):
    """Log-depth inclusive scan of q (..., n, 4): row k becomes U_k ... U_0."""
    q = np.array(q, dtype=float)
    n = q.shape[-2]
    shift = 1
    while shift < n:
        q[..., shift:, :] = quaternion_product(q[..., shift:, :], q[..., :n - shift, :])
        shift *= 2
    return q


def track_trailing(q):
    """Continuous angle and axis along the time axis -2 of q (..., n_t, 4), axis last.

    The axis of the last sample with |v| > AXIS_TOL is kept (z before any),
    its sign chosen so consecutive axes never point apart, and the half angle
    atan2(+-|v|, c) unwrapped by 2 pi. Returns (angle, axis), shapes
    q.shape[:-1] and q.shape[:-1] + (3,).
    """
    from magnuspulse.su2 import AXIS_TOL

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


def track_rows_dense(c, v):
    """`su2.track_rows` on component rows, with every sample gathered and always unwrapped.

    Returns (angle, axis, |v|) with the axis component-major, (3, ..., n_t).
    """
    from magnuspulse.su2 import AXIS_TOL

    x, y, z = v
    norm = np.sqrt(x * x + y * y + z * z)
    defined = norm > AXIS_TOL
    n_t = norm.shape[-1]

    candidates = np.zeros((3,) + norm.shape[:-1] + (n_t + 1,))
    candidates[2, ..., 0] = 1.0
    np.divide(v, norm, out=candidates[..., 1:], where=defined)
    source = np.where(defined, np.arange(1, n_t + 1), 0)
    source = np.maximum.accumulate(source, axis=-1)
    ax, ay, az = axis = np.take_along_axis(candidates, source[None], axis=-1)

    dot = ax[..., 1:] * ax[..., :-1] + ay[..., 1:] * ay[..., :-1] + az[..., 1:] * az[..., :-1]
    flips = (dot < 0.0) & (source[..., :-1] > 0)
    sign = np.ones_like(norm)
    sign[..., 1:] = np.cumprod(np.where(flips, -1.0, 1.0), axis=-1)

    half = np.unwrap(np.arctan2(sign * norm, c), axis=-1)
    axis *= sign
    return 2.0 * half, axis, norm


def gap_audit_pairs(lam):
    """(max gap, nearest gap to {2 pi n, n != 0}) over every pair of lam[t, :]."""
    iu = np.triu_indices(lam.shape[1], k=1)
    gaps = np.abs(lam[:, :, None] - lam[:, None, :])[:, iu[0], iu[1]]
    if not gaps.size:
        return 0.0, math.inf
    n = np.maximum(np.round(gaps / TWO_PI), 1.0)
    return float(np.max(gaps)), float(np.min(np.abs(gaps - TWO_PI * n)))


def csv_table(columns, rows):
    """CSV text of `rows`, each formatted by one `%` format typed by the first row.

    Floats print as `%.12g`, anything else (the integer config_index) as `%s`.
    """
    row_fmt = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0]) if rows else ""
    return "\n".join([",".join(columns), *map(row_fmt.__mod__, rows)]) + "\n"


def fourier_series(t, duration, a0, cos_coeffs, sin_coeffs):
    """a0 + sum_n A_n cos(2 pi n t / T) + B_n sin(2 pi n t / T), one harmonic at a time."""
    x = TWO_PI * np.asarray(t, dtype=float) / duration
    out = np.full_like(x, a0)
    for n, a in enumerate(cos_coeffs, start=1):
        out = out + a * np.cos(n * x)
    for n, b in enumerate(sin_coeffs, start=1):
        out = out + b * np.sin(n * x)
    return out
