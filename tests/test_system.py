import io
import math
import re

import numpy as np
import pytest

from magnuspulse import (
    ISpin,
    SpinSystem,
    assemble_full_matrix,
    load_system,
    offset_diagonal,
)
from magnuspulse.system import _check_offsets, m_table

TWO_PI = 2.0 * math.pi


class TestConfigurations:
    """Configurations are the rows of m_table, in big-endian basis order."""

    def test_no_i_spins_single_empty_configuration(self, s_only_system):
        assert m_table(s_only_system).shape == (1, 0)
        assert s_only_system.n_configs == 1

    def test_single_i_spin(self):
        system = SpinSystem(i_spins=(ISpin(),))
        assert m_table(system).tolist() == [[0.5], [-0.5]]

    def test_two_i_spins_index_order(self):
        system = SpinSystem(i_spins=(ISpin(), ISpin()))
        ms = m_table(system)
        assert ms.shape == (4, 2)
        # big-endian: first spin is the most significant bit
        assert ms.tolist() == [[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]]

    def test_index_encoding_validated(self):
        system = SpinSystem(i_spins=(ISpin(), ISpin(), ISpin()))
        bits = (0.5 - m_table(system)).astype(int)  # m = +1/2 is bit 0
        assert (bits @ [4, 2, 1]).tolist() == list(range(8))


class TestDiagonals:
    def test_effective_offset_plus_half(self):
        system = SpinSystem(s_offset=0.0, i_spins=(ISpin(j_to_s=10.0),))
        up, down = offset_diagonal(system)
        assert up == pytest.approx(10.0 * math.pi)
        assert down == pytest.approx(-10.0 * math.pi)

    def test_effective_offset_no_i_spins(self):
        system = SpinSystem(s_offset=100.0)
        (offset,) = offset_diagonal(system)
        assert offset == pytest.approx(100.0)

    def test_offset_multiset_matches_sign_combinations(self, sax_system):
        values = sorted(offset_diagonal(sax_system))
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
        blocks = np.broadcast_to(np.eye(2), (sax_system.n_configs, 2, 2))
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
        with pytest.raises(ValueError, match=r"shape \(2, 2, 2\)"):
            assemble_full_matrix(sa_system, [np.eye(2)])
        with pytest.raises(ValueError, match="shape"):
            assemble_full_matrix(sa_system, {0: np.eye(2), 1: np.eye(2)})


class TestValidationAndLoading:
    def test_bad_s_count(self):
        with pytest.raises(ValueError):
            SpinSystem(s_count=0)
        assert SpinSystem(s_count=np.int64(2)).s_count == 2

    @pytest.mark.parametrize("s_count", [1.5, 2.0, True, "1", None])
    def test_non_integer_s_count_rejected(self, s_count):
        # 1.5 would give m_S = (-0.75, 0.25, 1.25) and True would count as one S spin
        with pytest.raises(ValueError, match="s_count must be an integer"):
            SpinSystem(s_count=s_count)

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            SpinSystem(i_spins=(ISpin(),), j_ii={(0, 0): 1.0})

    @pytest.mark.parametrize("j_ii, message", [
        ({(0, 0.5): 1.0}, "j_ii index must be an integer, got 0.5"),
        ({(True, 0): 1.0}, "j_ii index must be an integer, got True"),
        ({(0, 1): float("nan")}, "non-finite j_ii (0, 1): nan"),
        ({(0, 1): "1.0"}, "j_ii (0, 1) must be a number, got '1.0'"),
    ])
    def test_coupling_rejected_as_load_system_rejects_it(self, j_ii, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SpinSystem(i_spins=(ISpin(), ISpin()), j_ii=j_ii)

    def test_coupling_indices_stored_as_ints(self):
        system = SpinSystem(i_spins=(ISpin(), ISpin()), j_ii={(np.int64(1), np.int64(0)): 2.0})
        assert system.j_ii == {(0, 1): 2.0}
        assert all(type(k) is int for k in next(iter(system.j_ii)))

    def test_out_of_range_coupling_rejected(self):
        with pytest.raises(ValueError):
            SpinSystem(i_spins=(ISpin(),), j_ii={(0, 1): 1.0})

    def test_duplicate_coupling_rejected(self):
        with pytest.raises(ValueError, match=re.escape("duplicate coupling entry for (0, 1)")):
            SpinSystem(i_spins=(ISpin(), ISpin()), j_ii={(0, 1): 1.0, (1, 0): 2.0})

    def test_effective_s_offset_must_stay_finite_in_rad_per_s(self, tmp_path):
        # each field is finite in rad/s, but Omega_s + pi J of a configuration is not
        message = (r"effective S offset overflows in rad/s: \|s_offset_hz\| \+ sum_k "
                   r"\|i_spins\[k\]\.j_to_s_hz\| / 2$")
        path = tmp_path / "sys.json"
        path.write_text('{"s_offset_hz": 2.8e307, "i_spins": [{"j_to_s_hz": 2.8e307}]}')
        with pytest.raises(ValueError, match=message):
            load_system(path)
        with pytest.raises(ValueError, match=message):
            SpinSystem(s_offset=1.7e308, i_spins=(ISpin(j_to_s=1e308),))
        path.write_text('{"s_offset_hz": 2.8e307, "i_spins": [{"j_to_s_hz": 1e306}]}')
        assert np.all(np.isfinite(offset_diagonal(load_system(path))))

    def test_coupling_overflowing_as_two_pi_j_rejected(self):
        # pi J = 9.4e306 rad/s is finite, but `offset_diagonal` forms 2 pi J = inf first
        with pytest.raises(ValueError, match="effective S offset overflows in rad/s"):
            SpinSystem(i_spins=(ISpin(j_to_s=3e307),))

    def test_offset_times_a_duration_past_one_second_must_stay_finite(self):
        system = SpinSystem(s_offset=TWO_PI * 2e307)  # finite, as is w t up to t = 1 s
        _check_offsets(system, duration=0.5)
        with pytest.raises(ValueError, match=r"\|s_offset_hz\| \+ .* times the pulse duration"):
            _check_offsets(system, duration=4.0)

    def test_load_system_reads_an_open_file_and_requires_an_object(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"s_offset_hz": 10.0, "i_spins": [{"j_to_s_hz": 8.0}]}')
        with open(path) as fh:
            assert load_system(fh) == load_system(path)
        with pytest.raises(ValueError, match="system file must contain a JSON object"):
            load_system(io.StringIO("[1, 2]"))

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

    def test_load_system_rejects_unknown_spin_fields(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"i_spins": [{"offset_hz": 30.0, "j_to_hz": 8.0}]}')
        with pytest.raises(ValueError, match="j_to_hz"):
            load_system(path)

    @pytest.mark.parametrize("text, field", [
        ('{"s_offset_hz": NaN}', "s_offset_hz"),
        ('{"i_spins": [{"offset_hz": Infinity}]}', "offset_hz"),
        ('{"i_spins": [{"j_to_s_hz": NaN}]}', "j_to_s_hz"),
        ('{"i_spins": [{}, {}], "j_ii_hz": [[0, 1, NaN]]}', "j_ii_hz"),
    ])
    def test_load_system_rejects_non_finite_values(self, tmp_path, text, field):
        path = tmp_path / "sys.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=field):
            load_system(path)

    @pytest.mark.parametrize("text, field", [
        ('{"s_offset_hz": 1e308}', "s_offset_hz"),
        ('{"i_spins": [{"offset_hz": -1e308}]}', "i_spins[0].offset_hz"),
        ('{"i_spins": [{}, {"j_to_s_hz": 1e308}]}', "i_spins[1].j_to_s_hz"),
    ])
    def test_load_system_rejects_overflow_in_rad_per_s(self, tmp_path, text, field):
        path = tmp_path / "sys.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(field) + " overflows in rad/s"):
            load_system(path)
        path.write_text(text.replace("1e308", "1e307"))  # 2 pi 1e307 is finite
        load_system(path)

    @pytest.mark.parametrize("text, field", [
        ('{"i_spins": [5]}', "i_spins"),
        ('{"i_spins": 5}', "i_spins"),
        ('{"i_spins": {"offset_hz": 30.0}}', "i_spins"),
        ('{"i_spins": [{}, {}], "j_ii_hz": 5}', "j_ii_hz"),
        ('{"i_spins": [{}, {}], "j_ii_hz": [[0, 1]]}', "j_ii_hz"),
    ])
    def test_load_system_rejects_malformed_lists(self, tmp_path, text, field):
        path = tmp_path / "sys.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=field):
            load_system(path)

    @pytest.mark.parametrize("text, field", [
        ('{"s_count": 1.7}', "s_count"),
        ('{"s_count": true}', "s_count"),
        ('{"s_count": "1"}', "s_count"),
        ('{"i_spins": [{}, {}], "j_ii_hz": [[0.9, 1, 5.0]]}', "j_ii_hz"),
        ('{"i_spins": [{}, {}], "j_ii_hz": [[0, "1", 5.0]]}', "j_ii_hz"),
        ('{"s_offset_hz": [10.0]}', "s_offset_hz"),
        ('{"i_spins": [{"j_to_s_hz": "eight"}]}', "j_to_s_hz"),
    ])
    def test_load_system_rejects_non_integers_and_non_numbers(self, tmp_path, text, field):
        path = tmp_path / "sys.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=field):
            load_system(path)

    @pytest.mark.parametrize("couplings", ["[[0, 1, 5.0], [0, 1, 9.0]]",
                                           "[[0, 1, 5.0], [1, 0, 9.0]]"])
    def test_load_system_rejects_duplicate_couplings(self, tmp_path, couplings):
        path = tmp_path / "sys.json"
        path.write_text(f'{{"i_spins": [{{}}, {{}}], "j_ii_hz": {couplings}}}')
        with pytest.raises(ValueError, match="duplicate j_ii_hz"):
            load_system(path)
