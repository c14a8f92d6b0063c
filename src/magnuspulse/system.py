"""
Weakly coupled spin-1/2 systems of the form S_nAMX...

A system consists of a group of n equivalent S spins (the only spins touched
by the RF field) and a set of I spins (A, M, X, ...) that couple to S and to
each other through scalar couplings. Weak coupling keeps every I-spin operator
longitudinal, so the static Hamiltonian is diagonal in the Zeeman product
basis and the S-spin dynamics splits into independent 2x2 blocks, one per
joint assignment of magnetic quantum numbers to the I spins (an
"I configuration").

Units
-----
Offsets are angular frequencies (rad/s) everywhere inside the library.
Scalar couplings are *entered in Hz* and converted to rad/s (factor 2*pi)
exactly once, at system construction. JSON system files carry everything in
Hz and are converted on load.

Basis ordering
--------------
Big-endian product basis with the S qubits slowest, I spins following in
declaration order. Within the I register, spin k maps to bit (n_i - 1 - k)
and m_k = +1/2 corresponds to bit value 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ISpin:
    """One weakly coupled spectator spin: offset in rad/s, J to the S group in Hz."""

    offset: float = 0.0
    j_to_s: float = 0.0


@dataclass(frozen=True)
class SpinSystem:
    """Spin system S_nAMX... with n equivalent S spins and weakly coupled I spins.

    Parameters
    ----------
    s_count : int
        Number of equivalent S spins (n >= 1). All share `s_offset` and the
        same coupling to each I spin.
    s_offset : float
        Offset of the S group in rad/s.
    i_spins : sequence of ISpin
        Spectator spins in declaration order. May be empty (isolated S spin).
    j_ii : mapping (k, l) -> float
        Scalar couplings among I spins, in Hz, keyed by index pairs with
        k != l. Stored with k < l.
    """

    s_count: int = 1
    s_offset: float = 0.0
    i_spins: tuple[ISpin, ...] = ()
    j_ii: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.s_count < 1:
            raise ValueError(f"s_count must be >= 1, got {self.s_count}")
        spins = tuple(
            s if isinstance(s, ISpin) else ISpin(*s) for s in self.i_spins
        )
        object.__setattr__(self, "i_spins", spins)
        n = len(spins)
        couplings: dict[tuple[int, int], float] = {}
        for (k, l), value in dict(self.j_ii).items():
            if k == l:
                raise ValueError(f"self-coupling ({k}, {l}) is not allowed")
            if not (0 <= k < n and 0 <= l < n):
                raise ValueError(
                    f"coupling ({k}, {l}) references a spin outside 0..{n - 1}"
                )
            key = (min(k, l), max(k, l))
            if key in couplings:
                raise ValueError(f"duplicate coupling entry for {key}")
            couplings[key] = float(value)
        object.__setattr__(self, "j_ii", couplings)

    @property
    def n_i(self) -> int:
        return len(self.i_spins)

    @property
    def n_configs(self) -> int:
        return 1 << self.n_i

    @property
    def dim(self) -> int:
        """Full Hilbert-space dimension 2**(s_count + n_i)."""
        return 1 << (self.s_count + self.n_i)


@dataclass(frozen=True)
class IConfiguration:
    """Joint assignment of m_k = +-1/2 to the I spins, with its basis index.

    The index is the big-endian encoding of the m vector, m_k = +1/2 mapping
    to bit 0, so index 0 is the all-up configuration.
    """

    m_values: tuple[float, ...]
    index: int

    def __post_init__(self):
        expected = 0
        for m in self.m_values:
            expected = (expected << 1) | (0 if m > 0 else 1)
        if expected != self.index:
            raise ValueError(
                f"index {self.index} does not encode m values {self.m_values}"
            )

    @classmethod
    def from_index(cls, index: int, n_i: int) -> "IConfiguration":
        if not (0 <= index < (1 << n_i)):
            raise ValueError(f"index {index} out of range for {n_i} I spins")
        ms = tuple(
            0.5 if ((index >> (n_i - 1 - k)) & 1) == 0 else -0.5
            for k in range(n_i)
        )
        return cls(ms, index)


@dataclass(frozen=True)
class LongitudinalDiagonal:
    """A longitudinal (z-only) spin operator, stored as its diagonal over I configurations.

    All such operators are diagonal in the Zeeman product basis; entry i
    belongs to the configuration with index i.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("LongitudinalDiagonal values must be a 1-d vector")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def enumerate_configurations(system: SpinSystem) -> list[IConfiguration]:
    """All 2**n_i I configurations of `system`, in index order."""
    return [IConfiguration.from_index(i, system.n_i) for i in range(system.n_configs)]


def m_table(system: SpinSystem) -> np.ndarray:
    """(n_configs, n_i) array of magnetic quantum numbers, config index as row."""
    n = system.n_i
    if n == 0:
        return np.zeros((1, 0))
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    return 0.5 - bits.astype(float)


def offset_diagonal(system: SpinSystem) -> LongitudinalDiagonal:
    """Effective S offset Omega_s + sum_k 2*pi*J_ks*m_k over all configurations."""
    ms = m_table(system)
    j_s = TWO_PI * np.array([s.j_to_s for s in system.i_spins])
    return LongitudinalDiagonal(system.s_offset + ms @ j_s)


def energy_diagonal(system: SpinSystem) -> LongitudinalDiagonal:
    """I-spin Zeeman + J energy sum_k Omega_k*m_k + sum_{k<l} 2*pi*J_kl*m_k*m_l."""
    ms = m_table(system)
    offs = np.array([s.offset for s in system.i_spins])
    vals = ms @ offs if system.n_i else np.zeros(1)
    for (k, l), j_hz in system.j_ii.items():
        vals = vals + TWO_PI * j_hz * ms[:, k] * ms[:, l]
    return LongitudinalDiagonal(np.atleast_1d(vals))


def assemble_full_matrix(system: SpinSystem, per_config_blocks) -> np.ndarray:
    """Embed per-configuration 2x2 S-spin blocks into the full Hilbert space.

    Each block acts identically on every one of the n equivalent S spins, so
    the S-group factor for configuration i is the n-fold tensor power of the
    2x2 block. For n = 1 the result is the direct sum of the blocks under the
    canonical ordering (S qubit slowest).

    Parameters
    ----------
    per_config_blocks : mapping or sequence
        2x2 complex matrices keyed by IConfiguration, by integer index, or
        given as a sequence/array ordered by configuration index.

    Raises
    ------
    ValueError
        If any configuration block is missing.
    """
    n_c = system.n_configs
    blocks: dict[int, np.ndarray] = {}
    if isinstance(per_config_blocks, Mapping):
        for key, block in per_config_blocks.items():
            idx = key.index if isinstance(key, IConfiguration) else int(key)
            blocks[idx] = np.asarray(block, dtype=complex)
    else:
        arr = list(per_config_blocks)
        blocks = {i: np.asarray(b, dtype=complex) for i, b in enumerate(arr)}
    missing = [i for i in range(n_c) if i not in blocks]
    if missing:
        raise ValueError(f"missing blocks for configuration indices {missing}")

    dim_s = 1 << system.s_count
    full = np.zeros((dim_s * n_c, dim_s * n_c), dtype=complex)
    for ci in range(n_c):
        factor = np.eye(1, dtype=complex)
        for _ in range(system.s_count):
            factor = np.kron(factor, blocks[ci])
        rows = np.arange(dim_s) * n_c + ci
        full[np.ix_(rows, rows)] = factor
    return full


def load_system(source) -> SpinSystem:
    """Load a spin system from a JSON file (path or open file object).

    Schema (all frequencies in Hz)::

        {
          "s_count": 1,
          "s_offset_hz": 0.0,
          "i_spins": [{"offset_hz": 30.0, "j_to_s_hz": 8.0}, ...],
          "j_ii_hz": [[0, 1, 5.0], ...]
        }
    """
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("system file must contain a JSON object")
    known = {"s_count", "s_offset_hz", "i_spins", "j_ii_hz"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown system file fields: {sorted(unknown)}")
    spins = []
    for entry in doc.get("i_spins", []):
        spins.append(
            ISpin(
                offset=TWO_PI * float(entry.get("offset_hz", 0.0)),
                j_to_s=float(entry.get("j_to_s_hz", 0.0)),
            )
        )
    j_ii = {}
    for k, l, value in doc.get("j_ii_hz", []):
        j_ii[(int(k), int(l))] = float(value)
    return SpinSystem(
        s_count=int(doc.get("s_count", 1)),
        s_offset=TWO_PI * float(doc.get("s_offset_hz", 0.0)),
        i_spins=tuple(spins),
        j_ii=j_ii,
    )
