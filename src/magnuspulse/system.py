"""
Weakly coupled spin-1/2 systems of the form S_nAMX...

A system consists of a group of n equivalent S spins (the only spins touched
by the RF field) and a set of I spins (A, M, X, ...) that couple to S and to
each other through scalar couplings. Weak coupling keeps every I-spin operator
longitudinal, so the static Hamiltonian is diagonal in the Zeeman product
basis and the S-spin dynamics splits into independent 2x2 blocks, one per
joint assignment of magnetic quantum numbers to the I spins (an
"I configuration"). Only the S offset and the S-I couplings enter a block:
the I-spin offsets and the couplings among I spins add a scalar phase per
configuration, so they are validated and kept but never propagated.

Units
-----
Offsets are angular frequencies (rad/s) everywhere inside the library.
Scalar couplings are entered and stored in Hz (`ISpin.j_to_s`,
`SpinSystem.j_ii`): `offset_diagonal` applies the 2*pi factor on every call,
and `_check_offsets` requires the largest effective offset w and w max(T, 1 s) finite.
The I-I couplings are never converted, as they only add a phase. JSON system
files carry everything in Hz; `load_system` converts the offsets to rad/s
and keeps the couplings in Hz.

Basis ordering
--------------
Big-endian product basis with the S qubits slowest, I spins following in
declaration order. Within the I register, spin k maps to bit (n_i - 1 - k)
and m_k = +1/2 corresponds to bit value 0.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

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
        Number of equivalent S spins, an integer (not a bool) n >= 1. All share
        `s_offset` and the same coupling to each I spin.
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
        if _integer(self.s_count, "s_count") < 1:
            raise ValueError(f"s_count must be >= 1, got {self.s_count}")
        spins = tuple(
            s if isinstance(s, ISpin) else ISpin(*s) for s in self.i_spins
        )
        object.__setattr__(self, "i_spins", spins)
        _check_offsets(self)
        n = len(spins)
        couplings: dict[tuple[int, int], float] = {}
        for (k, l), value in dict(self.j_ii).items():
            k, l = int(_integer(k, "j_ii index")), int(_integer(l, "j_ii index"))
            if k == l:
                raise ValueError(f"j_ii_hz self-coupling ({k}, {l}) is not allowed")
            if not (0 <= k < n and 0 <= l < n):
                raise ValueError(f"j_ii_hz ({k}, {l}) references a spin outside 0..{n - 1}")
            key = (min(k, l), max(k, l))
            if key in couplings:
                raise ValueError(f"duplicate coupling entry for {key}")
            couplings[key] = _finite(value, f"j_ii {key}")
        object.__setattr__(self, "j_ii", couplings)

    @property
    def n_i(self) -> int:
        return len(self.i_spins)

    @property
    def n_configs(self) -> int:
        return 1 << self.n_i


def m_table(system: SpinSystem) -> np.ndarray:
    """(n_configs, n_i) array of magnetic quantum numbers, config index as row.

    A table too large to allocate is a ValueError naming `i_spins` and the configuration count.
    """
    n = system.n_i
    try:
        ms = np.empty((system.n_configs, n))
        ms[:] = (np.arange(system.n_configs)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"{n} i_spins make 2**{n} = {system.n_configs} configurations, "
                         "too many to allocate") from exc
    return np.subtract(0.5, ms, out=ms)


def offset_diagonal(system: SpinSystem) -> np.ndarray:
    """Effective S offset Omega_s + sum_k 2*pi*J_ks*m_k, one entry per configuration."""
    ms = m_table(system)
    j_s = TWO_PI * np.array([s.j_to_s for s in system.i_spins])
    return system.s_offset + ms @ j_s


def _check_offsets(system: SpinSystem, trial: float = 0.0, duration: float = 0.0):
    """Require w = |Omega_s| + |trial| + sum_k |2 pi J_k| / 2, the largest effective S offset,
    and w max(duration, 1 s), the largest turn w t of a slice, finite, as `offset_diagonal` and
    `su2.rotating_field` form them. A profile's trial offsets up to |trial| replace Omega_s."""
    w = abs(system.s_offset) + abs(trial) + sum(abs(TWO_PI * s.j_to_s) / 2
                                                for s in system.i_spins)
    if not math.isfinite(w * max(duration, 1.0)):
        raise ValueError("effective S offset overflows in rad/s: |s_offset_hz| + sum_k |i_spins"
                         "[k].j_to_s_hz| / 2" + " + |--offset-start/--offset-stop|" * bool(trial)
                         + ", times the pulse duration in s" * math.isfinite(w))


def assemble_full_matrix(system: SpinSystem, per_config_blocks) -> np.ndarray:
    """Embed per-configuration 2x2 S-spin blocks into the full Hilbert space.

    Each block acts identically on every one of the n equivalent S spins, so
    the S-group factor for configuration i is the n-fold tensor power of the
    2x2 block. For n = 1 the result is the direct sum of the blocks under the
    canonical ordering (S qubit slowest).

    Parameters
    ----------
    per_config_blocks : array_like, shape (n_configs, 2, 2)
        Complex blocks ordered by configuration index (rows of `m_table`).

    Raises
    ------
    ValueError
        If the blocks do not have shape (n_configs, 2, 2).
    """
    n_c = system.n_configs
    blocks = np.asarray(per_config_blocks)
    if blocks.shape != (n_c, 2, 2):
        raise ValueError(f"expected blocks of shape ({n_c}, 2, 2), got {blocks.shape}")

    dim_s = 1 << system.s_count
    full = np.zeros((dim_s * n_c, dim_s * n_c), dtype=complex)
    for ci in range(n_c):
        factor = np.eye(1, dtype=complex)
        for _ in range(system.s_count):
            factor = np.kron(factor, blocks[ci])
        rows = np.arange(dim_s) * n_c + ci
        full[np.ix_(rows, rows)] = factor
    return full


def _finite(value, name: str, hz: bool = False) -> float:
    """A finite float from a file field, or a ValueError naming the field.

    An `hz` field must stay finite in rad/s (times 2 pi) too.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name}: {value}")
    if hz and not math.isfinite(TWO_PI * value):
        raise ValueError(f"{name} overflows in rad/s: {value}")
    return value


def _numbers(values, name: str) -> list[float]:
    """A list of finite floats from a file field, each entry named `name[k]`."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return [_finite(v, f"{name}[{k}]") for k, v in enumerate(values)]


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _known(doc: dict, fields, where: str):
    """Reject the keys of `doc` outside `fields`, naming them as `where`."""
    unknown = set(doc) - fields
    if unknown:
        raise ValueError(f"unknown {where}: {sorted(unknown)}")


def read_object(source, what: str, fields) -> dict:
    """The JSON object in a file (path or open file object), with no field outside `fields`.

    `what` names the file in messages ("system", "pulse").
    """
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file must contain a JSON object")
    _known(doc, fields, f"{what} file fields")
    return doc


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
    doc = read_object(source, "system", {"s_count", "s_offset_hz", "i_spins", "j_ii_hz"})
    i_spins, j_ii_hz = doc.get("i_spins", []), doc.get("j_ii_hz", [])
    if not (isinstance(i_spins, list) and all(isinstance(e, dict) for e in i_spins)):
        raise ValueError(f"i_spins must be a list of objects, got {i_spins!r}")
    if not (isinstance(j_ii_hz, list)
            and all(isinstance(e, list) and len(e) == 3 for e in j_ii_hz)):
        raise ValueError(f"j_ii_hz must be a list of [k, l, J] triples, got {j_ii_hz!r}")
    spins = []
    for k, entry in enumerate(i_spins):
        _known(entry, {"offset_hz", "j_to_s_hz"}, f"fields in i_spins[{k}]")
        offset, j = (_finite(entry.get(key, 0.0), f"i_spins[{k}].{key}", hz=True)
                     for key in ("offset_hz", "j_to_s_hz"))
        spins.append(ISpin(offset=TWO_PI * offset, j_to_s=j))
    j_ii = {}
    for k, l, value in j_ii_hz:
        pair = (_integer(k, "j_ii_hz spin index"), _integer(l, "j_ii_hz spin index"))
        if pair in j_ii or pair[::-1] in j_ii:
            raise ValueError(f"duplicate j_ii_hz entry for spins {pair}")
        j_ii[pair] = _finite(value, f"j_ii_hz[{k}, {l}]")
    return SpinSystem(
        s_count=doc.get("s_count", 1),
        s_offset=TWO_PI * _finite(doc.get("s_offset_hz", 0.0), "s_offset_hz", hz=True),
        i_spins=tuple(spins),
        j_ii=j_ii,
    )
