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
    offsets = offset_diagonal(system).values
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
