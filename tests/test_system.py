import math

import numpy as np
import pytest

from magnuspulse import (
    IConfiguration,
    ISpin,
    SpinSystem,
    assemble_full_matrix,
    energy_diagonal,
    enumerate_configurations,
    load_system,
    offset_diagonal,
)

TWO_PI = 2.0 * math.pi


class TestConfigurations:
    def test_no_i_spins_single_empty_configuration(self, s_only_system):
        configs = enumerate_configurations(s_only_system)
        assert len(configs) == 1
        assert configs[0].m_values == ()
        assert configs[0].index == 0

    def test_single_i_spin(self):
        system = SpinSystem(i_spins=(ISpin(),))
        configs = enumerate_configurations(system)
        assert [c.m_values for c in configs] == [(0.5,), (-0.5,)]

    def test_two_i_spins_index_order(self):
        system = SpinSystem(i_spins=(ISpin(), ISpin()))
        configs = enumerate_configurations(system)
        assert len(configs) == 4
        assert [c.index for c in configs] == [0, 1, 2, 3]
        # big-endian: first spin is the most significant bit
        assert configs[1].m_values == (0.5, -0.5)
        assert configs[2].m_values == (-0.5, 0.5)

    def test_index_encoding_validated(self):
        with pytest.raises(ValueError):
            IConfiguration((0.5, -0.5), 2)


class TestDiagonals:
    def test_effective_offset_plus_half(self):
        system = SpinSystem(s_offset=0.0, i_spins=(ISpin(j_to_s=10.0),))
        up, down = enumerate_configurations(system)
        offsets = offset_diagonal(system).values
        assert offsets[up.index] == pytest.approx(10.0 * math.pi)
        assert offsets[down.index] == pytest.approx(-10.0 * math.pi)

    def test_effective_offset_no_i_spins(self):
        system = SpinSystem(s_offset=100.0)
        (config,) = enumerate_configurations(system)
        assert offset_diagonal(system).values[config.index] == pytest.approx(100.0)

    def test_i_spin_energy_sum(self):
        system = SpinSystem(i_spins=(ISpin(offset=200.0), ISpin(offset=-50.0)))
        configs = enumerate_configurations(system)
        assert energy_diagonal(system).values[configs[0].index] == pytest.approx(75.0)

    def test_i_spin_energy_with_coupling(self):
        system = SpinSystem(
            i_spins=(ISpin(offset=200.0), ISpin(offset=-50.0)), j_ii={(0, 1): 4.0}
        )
        configs = enumerate_configurations(system)
        assert energy_diagonal(system).values[configs[0].index] == pytest.approx(75.0 + TWO_PI)

    def test_i_spin_energy_empty(self, s_only_system):
        (config,) = enumerate_configurations(s_only_system)
        assert energy_diagonal(s_only_system).values[config.index] == 0.0

    def test_offset_multiset_matches_sign_combinations(self, sax_system):
        values = sorted(offset_diagonal(sax_system).values)
        expected = sorted(
            sax_system.s_offset
            + s1 * math.pi * sax_system.i_spins[0].j_to_s
            + s2 * math.pi * sax_system.i_spins[1].j_to_s
            for s1 in (+1, -1)
            for s2 in (+1, -1)
        )
        assert np.allclose(values, expected)


class TestAssembleFullMatrix:
    def test_identity_blocks_give_identity(self, sax_system):
        blocks = {c: np.eye(2) for c in enumerate_configurations(sax_system)}
        assert np.array_equal(assemble_full_matrix(sax_system, blocks), np.eye(8))

    def test_no_i_spins_identity(self, s_only_system):
        full = assemble_full_matrix(s_only_system, [np.eye(2)])
        assert np.array_equal(full, np.eye(2))

    def test_single_i_spin_interleaving(self):
        system = SpinSystem(i_spins=(ISpin(),))
        b0 = np.array([[1, 2], [3, 4]], dtype=complex)
        b1 = np.array([[5, 6], [7, 8]], dtype=complex)
        full = assemble_full_matrix(system, [b0, b1])
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.ix_([0, 2], [0, 2])] = b0
        expected[np.ix_([1, 3], [1, 3])] = b1
        assert np.array_equal(full, expected)

    def test_two_s_spins_tensor_power(self):
        system = SpinSystem(s_count=2)
        block = np.array([[0, 1], [1, 0]], dtype=complex)
        full = assemble_full_matrix(system, [block])
        assert np.array_equal(full, np.kron(block, block))

    def test_missing_block_rejected(self, sa_system):
        with pytest.raises(ValueError, match="missing"):
            assemble_full_matrix(sa_system, {0: np.eye(2)})


class TestValidationAndLoading:
    def test_bad_s_count(self):
        with pytest.raises(ValueError):
            SpinSystem(s_count=0)

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            SpinSystem(i_spins=(ISpin(),), j_ii={(0, 0): 1.0})

    def test_out_of_range_coupling_rejected(self):
        with pytest.raises(ValueError):
            SpinSystem(i_spins=(ISpin(),), j_ii={(0, 1): 1.0})

    def test_load_system_converts_hz(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(
            '{"s_count": 1, "s_offset_hz": 10.0,'
            ' "i_spins": [{"offset_hz": 30.0, "j_to_s_hz": 8.0}],'
            ' "j_ii_hz": []}'
        )
        system = load_system(path)
        assert system.s_offset == pytest.approx(TWO_PI * 10.0)
        assert system.i_spins[0].offset == pytest.approx(TWO_PI * 30.0)
        assert system.i_spins[0].j_to_s == pytest.approx(8.0)

    def test_load_system_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"s_count": 1, "bogus": 2}')
        with pytest.raises(ValueError, match="unknown"):
            load_system(path)

    def test_energy_diagonal_no_spins_is_zero(self, s_only_system):
        assert np.array_equal(energy_diagonal(s_only_system).values, [0.0])
