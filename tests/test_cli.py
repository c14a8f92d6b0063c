import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from magnuspulse import (SpinSystem, angles_from_state, build_pulse, calibrate,
                         excitation_profile, explicit_criterion, integrate_expansion,
                         list_catalog, load_system, propagate_interaction, resolve_pulse, su2,
                         verify)
from magnuspulse import cli
from magnuspulse.cli import (CSV_BLOCK_ROWS, _cells, _emit, _emit_table, _round_floats,
                             build_parser, main)
from magnuspulse.propagation import DEFAULT_TOL
from magnuspulse.pulses import DEFAULT_N_STEPS
from oracle import csv_table

TWO_PI = 2.0 * math.pi


@pytest.fixture()
def sa_file(tmp_path):
    path = tmp_path / "sa.json"
    path.write_text(
        '{"s_count": 1, "s_offset_hz": 5.0,'
        ' "i_spins": [{"offset_hz": 40.0, "j_to_s_hz": 7.0}], "j_ii_hz": []}'
    )
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestCriterion:
    def test_gaussian_270_met(self, tmp_path, sa_file):
        out = tmp_path / "report.json"
        rc = main(
            [
                "criterion", "--shape", "gaussian", "--flip", "270",
                "--duration", "2e-3", "--system", sa_file, "--output", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["criterion23"] is True
        assert doc["I_T"] == pytest.approx(1.5 * math.pi, rel=1e-9)
        assert doc["theta_T"] == pytest.approx(doc["I_T"], rel=1e-9)
        assert doc["version"]
        assert doc["config"]["n_steps"] == 4096
        assert doc["system"]["s_offset_hz"] == pytest.approx(5.0)

    def test_s2_group_gap_passes_two_pi_between_samples(self, tmp_path):
        # Each block's omega_hat stays below 2 pi, but the S2 group's gap 2 omega_hat
        # passes 2 pi between two samples, neither of them within 1e-6 of it.
        system, out = tmp_path / "s2.json", tmp_path / "report.json"
        system.write_text('{"s_count": 2, "s_offset_hz": 10.0}')
        rc = main(["criterion", "--shape", "gaussian", "--flip", "200", "--duration", "1e-3",
                   "--system", str(system), "--output", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 0 and doc["criterion23"] is True
        assert doc["max_omega_hat"] < TWO_PI < doc["max_eigenvalue_gap"]
        assert doc["magnus_gap_nearest"] == 0.0
        assert doc["magnus_ok"] is False

    def test_minus_e_passage_between_samples(self, tmp_path):
        # omega_hat passes 2 pi between steps 18703 and 18704 of 32768; no sample is flagged.
        out = tmp_path / "report.json"
        rc = main(["criterion", "--shape", "gaussian", "--flip", "540", "--duration", "1e-3",
                   "--output", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 3
        assert doc["trajectory_steps"] == 32768
        (passage,) = doc["ambiguity_times"]
        assert 18703 * 1e-3 / 32768 <= passage <= 18704 * 1e-3 / 32768
        assert doc["magnus_gap_nearest"] == 0.0

    def test_directory_does_not_shadow_a_catalog_pulse(self, tmp_path, monkeypatch, capsys):
        assert main(["criterion", "--pulse", "g4"]) == 0
        elsewhere = capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g4").mkdir()
        assert main(["criterion", "--pulse", "g4"]) == 0
        assert capsys.readouterr().out == elsewhere

    def test_reburp_violates_exit_3(self, tmp_path, sa_file):
        out = tmp_path / "report.json"
        rc = main(
            ["criterion", "--pulse", "reburp", "--flip", "180",
             "--system", sa_file, "--steps", "1024", "--tol", "1e-7",
             "--output", str(out)]
        )
        assert rc == 3
        doc = json.loads(out.read_text())
        assert doc["criterion23"] is False
        assert doc["I_T"] > TWO_PI

    def test_byte_stable_output(self, tmp_path, sa_file):
        args = [
            "criterion", "--shape", "gaussian", "--flip", "90",
            "--system", sa_file, "--steps", "512", "--tol", "1e-6",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_matches_json(self, tmp_path, sa_file):
        base = [
            "criterion", "--shape", "gaussian", "--flip", "90",
            "--system", sa_file, "--steps", "512", "--tol", "1e-6",
        ]
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        main(base + ["--output", str(out_json)])
        main(base + ["--output", str(out_csv)])
        doc = json.loads(out_json.read_text())
        flat = dict(
            line.split(",", 1) for line in out_csv.read_text().splitlines()[1:]
        )
        assert float(flat["I_T"]) == pytest.approx(doc["I_T"], rel=1e-12)
        assert float(flat["bound21_margin"]) == pytest.approx(doc["bound21_margin"], rel=1e-6)
        assert flat["criterion23"] == str(doc["criterion23"])

    def test_csv_rows_have_two_fields(self, tmp_path):
        base = ["criterion", "--pulse", "g4", "--system", SAX]
        out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
        main(base + ["--output", str(out_json)])
        main(base + ["--output", str(out_csv)])
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows), [row for row in rows if len(row) != 2]
        flat = dict(rows[1:])
        doc = json.loads(out_json.read_text())
        assert json.loads(flat["system.i_spins"]) == doc["system"]["i_spins"]
        assert json.loads(flat["system.j_ii_hz"]) == doc["system"]["j_ii_hz"]
        assert json.loads(flat["ambiguity_times"]) == doc["ambiguity_times"]


    def test_duration_override_reaches_the_pulse_and_is_echoed(self, tmp_path, sa_file):
        out = tmp_path / "report.json"
        assert main(["criterion", "--pulse", "g4", "--duration", "2e-3", "--system", sa_file,
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pulse"]["duration_s"] == 2e-3
        pulse = dataclasses.replace(resolve_pulse("g4"), duration=2e-3).build_calibrated()
        report = explicit_criterion(load_system(sa_file), pulse)
        assert doc["bound21_margin"] == _round_floats(report.bound21_margin)

    def test_shape_flags_reach_the_pulse_and_are_echoed(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "build_pulse",
                            lambda *a, **k: calls.append((a, k)) or build_pulse(*a, **k))
        out = tmp_path / "report.json"
        assert main(["criterion", "--shape", "sech", "--beta", "4", "--peak", "2", "--flip", "90",
                     "--output", str(out)]) == 0
        assert calls == [(("sech", 1e-3), {"peak": 2.0, "beta": 4.0})]
        assert json.loads(out.read_text())["pulse"] == {
            "name": "sech", "family": "sech", "duration_s": 1e-3, "flip_deg": 90.0,
            "peak": 2.0, "beta": 4.0}


class TestTables:
    def test_propagate_csv(self, tmp_path, sa_file):
        out = tmp_path / "traj.csv"
        rc = main(
            ["propagate", "--shape", "gaussian", "--flip", "90",
             "--system", sa_file, "--steps", "64", "--tol", "1e-5",
             "--output", str(out)]
        )
        assert rc == 0
        rows = read_rows(out)
        assert set(rows[0]) == {
            "t", "config_index", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11",
        }
        first = rows[0]
        assert float(first["t"]) == 0.0
        assert float(first["re00"]) == 1.0 and float(first["im01"]) == 0.0
        # spot-check unitarity of the final row's block
        last = rows[-1]
        u = np.array(
            [
                [complex(float(last["re00"]), float(last["im00"])),
                 complex(float(last["re01"]), float(last["im01"]))],
                [complex(float(last["re10"]), float(last["im10"])),
                 complex(float(last["re11"]), float(last["im11"]))],
            ]
        )
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-9)

    def test_profile_csv(self, tmp_path):
        out = tmp_path / "profile.csv"
        rc = main(
            ["profile", "--shape", "constant", "--flip", "90", "--duration", "1e-6",
             "--offset-start", "0", "--offset-stop", "0", "--offset-count", "1",
             "--steps", "256", "--output", str(out)]
        )
        assert rc == 0
        (row,) = read_rows(out)
        assert float(row["my"]) == pytest.approx(-0.5, abs=1e-6)
        assert float(row["mz"]) == pytest.approx(0.0, abs=1e-6)

    def test_decompose_csv(self, tmp_path, sa_file):
        out = tmp_path / "state.csv"
        rc = main(
            ["decompose", "--shape", "gaussian", "--flip", "90",
             "--system", sa_file, "--steps", "128", "--tol", "1e-6",
             "--output", str(out)]
        )
        assert rc == 0
        rows = read_rows(out)
        assert set(rows[0]) == {
            "t", "config_index", "f", "g_x", "g_y", "g_z",
            "alpha", "beta", "omega_hat", "constraint_residual",
        }
        assert float(rows[0]["f"]) == 1.0
        assert all(float(r["constraint_residual"]) < 1e-8 for r in rows)

    def test_json_table_format(self, tmp_path, sa_file):
        out = tmp_path / "traj.json"
        rc = main(
            ["propagate", "--shape", "gaussian", "--flip", "90",
             "--system", sa_file, "--steps", "32", "--tol", "1e-4",
             "--output", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["t", "config_index", "re00", "im00", "re01", "im01",
                                  "re10", "im10", "re11", "im11"]
        system = load_system(sa_file)
        shape = calibrate(build_pulse("gaussian", 1e-3), math.radians(90), 32)
        traj = propagate_interaction(system, shape, n_steps=32, tol=1e-4)
        a, b = traj.q  # U = [[a, -conj b], [b, conj a]]
        ra, ia, rb, ib = (x + 0.0 for x in (a.real, a.imag, b.real, b.imag))
        nrb, nia = (-x + 0.0 for x in (b.real, a.imag))
        index = np.arange(traj.n_configs, dtype=float)[:, None]
        table = np.broadcast_arrays(traj.times, index, ra, ia, nrb, ib, rb, ib, ra, nia)
        assert doc["rows"] == _round_floats(np.stack(table, axis=-1).reshape(-1, 10).tolist())


SAX = str(Path(__file__).parent / "data" / "golden" / "sax.json")
#: Odd, and 8195 steps give 8196 grid points: two row blocks per configuration.
LONG_STEPS = 8195


def assert_same_text(text, expected):
    """text == expected, naming the first differing line instead of diffing megabytes."""
    if text != expected:
        got, want = text.split("\n") + [None], expected.split("\n") + [None]
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"line {i + 1}: {got[i]!r} != {want[i]!r}")


class TestCsvText:
    """Table files equal, byte for byte, the former per-row writer applied to the
    library's own results, on SAX (4 configurations) with a grid longer than one
    row block."""

    @pytest.fixture(scope="class")
    def g4(self):
        entry = resolve_pulse("g4")
        return load_system(SAX), calibrate(entry.build(), entry.nominal_flip, LONG_STEPS)

    @staticmethod
    def run(tmp_path, argv):
        out = tmp_path / "table.csv"
        assert main(argv + ["--pulse", "g4", "--system", SAX, "--output", str(out)]) == 0
        return out.read_text()

    def test_propagate(self, tmp_path, g4):
        assert LONG_STEPS + 1 > CSV_BLOCK_ROWS
        text = self.run(tmp_path, ["propagate", "--steps", str(LONG_STEPS), "--tol", "1e-4"])
        traj = propagate_interaction(*g4, n_steps=LONG_STEPS, tol=1e-4)
        assert traj.n_configs == 4
        a, b = traj.q.reshape(2, -1)  # U = [[a, -conj b], [b, conj a]]
        ra, ia, rb, ib, nrb, nia = ((x + 0.0).tolist()
                                    for x in (a.real, a.imag, b.real, b.imag, -b.real, -a.imag))
        t = np.tile(traj.times, traj.n_configs).tolist()
        ci = np.repeat(np.arange(traj.n_configs), len(traj.times)).tolist()
        rows = list(zip(t, ci, ra, ia, nrb, ib, rb, ib, ra, nia))
        columns = ["t", "config_index", "re00", "im00", "re01", "im01", "re10", "im10", "re11",
                   "im11"]
        assert_same_text(text, csv_table(columns, rows))

    def test_decompose(self, tmp_path, g4):
        text = self.run(tmp_path, ["decompose", "--steps", str(LONG_STEPS), "--tol", "1e-4"])
        state = integrate_expansion(*g4, n_steps=LONG_STEPS, tol=1e-4)
        t = np.tile(state.times, state.n_configs).tolist()
        ci = np.repeat(np.arange(state.n_configs), len(state.times)).tolist()
        values = (*su2.rows(state.q) + 0.0, *angles_from_state(state),
                  su2.norm_defect(state.q) + 0.0)
        rows = list(zip(t, ci, *(x.ravel().tolist() for x in values)))
        columns = ["t", "config_index", "f", "g_x", "g_y", "g_z", "alpha", "beta", "omega_hat",
                   "constraint_residual"]
        assert_same_text(text, csv_table(columns, rows))

    def test_profile(self, tmp_path):
        count = CSV_BLOCK_ROWS + 1
        text = self.run(tmp_path, ["profile", "--steps", "33", "--offset-start", "-2000",
                                   "--offset-stop", "2000", "--offset-count", str(count)])
        entry = resolve_pulse("g4")
        shape = calibrate(entry.build(), entry.nominal_flip, 33)
        offsets_hz = np.linspace(-2000.0, 2000.0, count)
        table = excitation_profile(load_system(SAX), shape, TWO_PI * offsets_hz, n_steps=33)
        rows = list(zip(offsets_hz.tolist(), *table.tolist()))
        assert_same_text(text, csv_table(["offset_hz", "mx", "my", "mz"], rows))

    @pytest.mark.parametrize("argv", [
        ["propagate", "--steps", "33", "--tol", "1e-4"],
        ["decompose", "--steps", "33", "--tol", "1e-4"],
        ["profile", "--steps", "33", "--offset-start", "-2000", "--offset-stop", "2000",
         "--offset-count", "9"]], ids=lambda argv: argv[0])
    def test_stdout_equals_file(self, tmp_path, capsys, argv):
        """The decoded text on stdout equals the bytes written to --output."""
        self.run(tmp_path, argv)
        capsys.readouterr()
        assert main(argv + ["--pulse", "g4", "--system", SAX]) == 0
        assert_same_text(capsys.readouterr().out, (tmp_path / "table.csv").read_bytes().decode())


def table_text(columns, lead, values, layout=None, indexed=True):
    """CSV text that `_emit_table` writes for (sources, configurations, rows) `values`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_table(columns, lead, values, {}, argparse.Namespace(format="csv", output=None),
                    layout, indexed)
    return out.getvalue()


def assert_cells_match_percent_format(values):
    """Each value as lead, value and negated cell equals `'%.12g' % v` and of -v + 0.0."""
    v = np.array(values, dtype=float)
    text = table_text(["v", "w", "neg"], v, v[None, None], layout=(0, ~0), indexed=False)
    expected = "".join(f"{x:.12g},{x:.12g},{-x + 0.0:.12g}\n" for x in values)
    assert_same_text(text, "v,w,neg\n" + expected)


@given(st.lists(st.floats(), max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310])
@example([1e12, -1e12, 999999999999.5, 123456789012345.0, 2.0**53, -(2.0**63)])
@example([1e-4, -1e-4, 1e-5, 9.99999999999e-5, 9.999999999995e-5, -9.9999999999949e-5])
@example([10.0**k * (1 + sign * delta) for k in range(-20, 21) for sign in (1, -1)
          for delta in (1e-15, 1e-14, 1e-13, 1e-12, 5e-12, 2e-11)])
@example([100000000000.5, 100000000001.5, 999999999999.5, -100000000000.5])
@example([10.0, 100.0, 120.0, 1e11, 1e12, -120.0, 1.0, 1e99, 1e100, 1e-99, 1e-100])
@example([12345678.9, -99999999.25, 123456789.25, 1234567890.5, 0.1, 1.5, 2e-5, 2.5e-5])
@example([1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, -1.7976931348623157e308])
@example([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0])
@example([1234567890125.0, 1234567890135.0, 123456789012.5, 123456789013.5, 2.0**-18,
          -(2.0**-18), 3 * 2.0**-18, 1.5 * 2.0**-20, 2.0**-24 * 1e7])  # exact decimal ties
# near-ties whose scaled value rounds onto the half, on the other side of it from the exact one
@example([1.234567890125e-06, 0.001234567890135, 0.009876543210975, 0.001000000000015,
          500000.0000005, 100000.0000015, 50000000000.05, 10000000000.15, 1.234567890135e-09,
          -1.000000000015e-09])
def test_cell_text_matches_percent_format(values):
    assert_cells_match_percent_format(values)


@st.composite
def decimals(draw):
    """Values of either sign in [1e-5, 1e6) with 1-12 significant decimal digits."""
    digits = draw(st.integers(1, 12))
    mantissa = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    value = float(f"{mantissa}e{draw(st.integers(-5, 5)) - digits + 1}")
    return draw(st.sampled_from((value, -value)))


@given(st.lists(decimals(), max_size=40))
@example([9999.95, 10000.5, 99999.5, 99999.99999995, 100000.5, 1e5, 12345.0, 10.5, 100.25,
          1.5e-5, 5e-5, -0.0])
def test_decimal_cell_text_matches_percent_format(values):
    """Every dot position in the head, trailing zeros, and the 1e5 edge of fixed notation."""
    assert_cells_match_percent_format(values)


def test_cell_text_sweeps_every_decimal_exponent():
    assert_cells_match_percent_format([float(f"{mantissa}e{k}") for k in range(-324, 309)
                                       for mantissa in ("1", "9.99999999999", "5.000000000005")])


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_cell_text_does_not_rest_on_log10(monkeypatch, shift):
    """With log10 a decade off, the range tests send every cell to `%`, none to wrong text."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    assert_cells_match_percent_format([float(f"{mantissa}e{k}") for k in range(-30, 31)
                                       for mantissa in ("1.5", "9.99999999999", "9.9999999999")])


@pytest.mark.parametrize("entry", list_catalog(), ids=lambda e: e.name)
def test_time_columns_match_percent_format_at_every_refinement_level(entry):
    """Grid times t_i = i T / n often sit near a half in the 13th digit; each cell must be
    `'%.12g' % t` at the default steps and at every level that `propagate` or `decompose`
    refines to on the catalog pulse, for one S spin alone and for SAX."""
    shape = entry.build_calibrated()
    levels = max(route(system, shape).refinement_levels for system in (SpinSystem(), verify._sax())
                 for route in (propagate_interaction, integrate_expansion))
    for level in range(levels + 1):
        n = DEFAULT_N_STEPS << level
        times = np.arange(n + 1) * (shape.duration / n)
        text = _cells(times).tobytes().replace(b"\0", b"").decode()
        assert text == "".join(f",{t:.12g}" for t in times.tolist()), (entry.name, n)


def test_table_bytes_across_blocks_with_slow_and_negated_cells():
    """More than one block of rows in 11 configurations (1- and 2-digit indices), holding
    cells that `%` formats (zeros, integers, near-ties, non-finite values) beside negated
    cells."""
    count = CSV_BLOCK_ROWS + 5
    rng = np.random.default_rng(13)
    lead = np.arange(count) / 4.0
    values = rng.standard_normal((2, 11, count)) * 10.0 ** rng.integers(-8, 8, (2, 11, count))
    values[:, :, ::97] = np.round(values[:, :, ::97])
    values[0, :, 5::101] = 0.0
    values[1, :, 7::89] = 100000000000.5
    values[:, :, -4:] = [np.nan, -np.nan, np.inf, -np.inf]
    layout = (1, ~0, 0, ~1)
    columns = ["t", "config_index", "b", "neg_a", "a", "neg_b"]
    text = table_text(columns, lead, values, layout)
    rows = [(t, k, *(values[j, k, i] if j >= 0 else -values[~j, k, i] + 0.0 for j in layout))
            for k in range(11) for i, t in enumerate(lead.tolist())]
    assert_same_text(text, csv_table(columns, rows))


def test_emit_leaves_no_file_when_writing_fails(tmp_path):
    def chunks():
        yield b"t,x\n"
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        _emit(chunks(), str(tmp_path / "table.csv"))
    assert list(tmp_path.iterdir()) == []  # neither the table nor a .magnuspulse-* temp file


class TestCatalogCommand:
    def test_text_listing(self, capsys):
        assert main(["catalog"]) == 0
        text = capsys.readouterr().out
        for name in ("RE-BURP", "U-BURP", "G4", "Q5"):
            assert name in text

    def test_json_listing(self, tmp_path):
        out = tmp_path / "catalog.json"
        assert main(["catalog", "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["pulses"]) == 8


class TestErrors:
    def test_missing_pulse_is_bad_input(self, capsys):
        assert main(["criterion"]) == 2
        assert "pulse" in capsys.readouterr().err

    def test_unknown_pulse_name(self, capsys):
        assert main(["criterion", "--pulse", "nonexistent"]) == 2

    def test_unparseable_system_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["criterion", "--shape", "gaussian", "--system", str(bad)]) == 2

    def test_numerical_failure_exit_4(self, capsys):
        rc = main(
            ["propagate", "--shape", "gaussian", "--flip", "90",
             "--steps", "2", "--tol", "1e-15"]
        )
        assert rc == 4
        assert "numerical" in capsys.readouterr().err

    def test_expansion_refinement_failure_exit_4(self, capsys):
        rc = main(
            ["decompose", "--shape", "gaussian", "--flip", "90",
             "--steps", "1", "--tol", "1e-300"]
        )
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["criterion", "propagate", "decompose"])
    def test_nan_tol_bad_input(self, command, capsys):
        assert main([command, "--pulse", "g4", "--tol", "nan"]) == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["criterion", "--shape", "gaussian", "--flip", "nan"], "--flip"),
        (["criterion", "--pulse", "g4", "--flip", "inf"], "--flip"),
        (["criterion", "--shape", "gaussian", "--duration", "inf"], "--duration"),
        (["decompose", "--pulse", "g4", "--duration", "nan"], "--duration"),
        (["criterion", "--shape", "gaussian", "--peak", "nan"], "--peak"),
        (["criterion", "--shape", "constant", "--amplitude=-inf"], "--amplitude"),
        (["criterion", "--shape", "gaussian", "--truncation", "inf"], "--truncation"),
        (["criterion", "--shape", "sech", "--beta", "nan"], "--beta"),
        (["criterion", "--shape", "hermite", "--width", "inf"], "--width"),
        (["profile", "--shape", "gaussian", "--offset-start", "nan", "--offset-stop", "10"],
         "--offset-start"),
        (["profile", "--shape", "gaussian", "--offset-start", "0", "--offset-stop", "inf"],
         "--offset-stop"),
        (["profile", "--shape", "gaussian", "--offset-start", "0", "--offset-stop", "10",
          "--offset-count", "-3"], "--offset-count"),
        (["profile", "--shape", "gaussian", "--offset-start", "0", "--offset-stop", "10",
          "--offset-count", "0"], "--offset-count"),
        (["profile", "--pulse", "g4", "--offset-start", "1e308", "--offset-stop", "1e308",
          "--offset-count", "2"], "|--offset-start/--offset-stop|"),
        (["criterion", "--pulse", "g4", "--shape", "sech", "--peak", "5"], "--shape, --peak"),
        (["decompose", "--pulse", "g4", "--shape", "gaussian"], "--shape"),
        (["criterion", "--pulse", "g4", "--amplitude", "1e3"], "--amplitude"),
        (["propagate", "--pulse", "g4", "--truncation", "0.01"], "--truncation"),
        (["criterion", "--pulse", "g4", "--beta", "5"], "--beta"),
        (["criterion", "--pulse", "g4", "--lobes", "3"], "--lobes"),
        (["criterion", "--pulse", "g4", "--order", "2", "--width", "1.5"], "--order, --width"),
        (["profile", "--pulse", "q5", "--peak", "5", "--offset-start", "0", "--offset-stop", "10"],
         "--peak"),
    ])
    def test_invalid_number_flag_bad_input(self, argv, flag, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Warning" not in err

    def test_misspelled_spin_field_bad_input(self, tmp_path, capsys):
        system_file = tmp_path / "typo.json"
        system_file.write_text('{"i_spins": [{"offset_hz": 30.0, "j_to_hz": 8.0}]}')
        rc = main(["criterion", "--pulse", "g4", "--system", str(system_file)])
        assert rc == 2
        assert "j_to_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("i_spins", ["[5]", "5"])
    def test_non_list_i_spins_bad_input(self, tmp_path, capsys, i_spins):
        system_file = tmp_path / "spins.json"
        system_file.write_text(f'{{"i_spins": {i_spins}}}')
        rc = main(["criterion", "--pulse", "g4", "--system", str(system_file)])
        assert rc == 2
        assert "i_spins" in capsys.readouterr().err

    def test_non_finite_system_offset_bad_input(self, tmp_path, capsys):
        system_file = tmp_path / "nan.json"
        system_file.write_text('{"s_offset_hz": NaN, "i_spins": [{"j_to_s_hz": 8.0}]}')
        rc = main(["decompose", "--pulse", "g4", "--system", str(system_file)])
        assert rc == 2
        assert "s_offset_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('{"s_offset_hz": 1e308}', "s_offset_hz"),
        ('{"i_spins": [{"j_to_s_hz": 1e308}]}', "j_to_s_hz"),
        ('{"i_spins": [{"offset_hz": 1e308}]}', "offset_hz"),
        ('{"s_offset_hz": 2.8e307, "i_spins": [{"j_to_s_hz": 2.8e307}]}',
         "effective S offset overflows in rad/s: |s_offset_hz| + sum_k |i_spins[k].j_to_s_hz|"),
    ])
    def test_system_frequency_overflowing_in_rad_per_s_bad_input(self, tmp_path, capsys, text,
                                                                  field):
        system_file = tmp_path / "huge.json"
        system_file.write_text(text)
        rc = main(["criterion", "--pulse", "g4", "--system", str(system_file)])
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err
        assert "Warning" not in err

    @pytest.mark.parametrize("offset_hz, code", [("1e300", 2), ("2.134e156", 2), ("2.1339e156", 0)])
    def test_profile_free_precession_overflowing_bad_input(self, capsys, offset_hz, code):
        """G4 lasts 1 ms, so 2 pi offset_hz 1e-3 rad squares past the largest double from
        about 2.1339e156 Hz on, where `su2.exp` turned each row into NaN."""
        rc = main(["profile", "--pulse", "g4", "--offset-start", offset_hz, "--offset-stop",
                   offset_hz, "--offset-count", "2"])
        out, err = capsys.readouterr()
        assert rc == code
        if code:
            assert "--offset-start/--offset-stop" in err and "Warning" not in err
        else:
            assert "nan" not in out

    def test_system_file_that_is_not_an_object_bad_input(self, tmp_path, capsys):
        system_file = tmp_path / "list.json"
        system_file.write_text("[1, 2]")
        assert main(["criterion", "--pulse", "g4", "--system", str(system_file)]) == 2
        assert "system file must contain a JSON object" in capsys.readouterr().err

    def test_string_system_offset_bad_input(self, tmp_path, capsys):
        system_file = tmp_path / "text.json"
        system_file.write_text('{"s_offset_hz": "100", "i_spins": [{"j_to_s_hz": 8.0}]}')
        rc = main(["decompose", "--pulse", "g4", "--system", str(system_file)])
        assert rc == 2
        assert "s_offset_hz" in capsys.readouterr().err

    def test_zero_area_pulse_bad_input(self, tmp_path, capsys):
        pulse_file = tmp_path / "odd.json"
        pulse_file.write_text(
            '{"name": "odd", "family": "fourier", "duration_s": 0.001,'
            ' "nominal_flip_deg": 90.0, "fourier": {"a0": 0.0, "a": [], "b": [1.0]}}'
        )
        rc = main(["criterion", "--pulse", str(pulse_file)])
        assert rc == 2
        assert "zero net area" in capsys.readouterr().err

    def test_non_finite_amplitude_bad_input(self, tmp_path, capsys):
        pulse_file = tmp_path / "nan.json"
        pulse_file.write_text(
            '{"name": "nan", "family": "gaussian_cascade", "duration_s": 0.001,'
            ' "nominal_flip_deg": 90.0, "params": {"amplitudes": [NaN, 1.0],'
            ' "centers": [0.3, 0.7], "fwhms": [0.1, 0.1]}}'
        )
        rc = main(["criterion", "--pulse", str(pulse_file)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    def test_misspelled_pulse_field_bad_input(self, tmp_path, capsys):
        pulse_file = tmp_path / "typo.json"
        pulse_file.write_text(
            '{"name": "typo", "family": "gaussian", "duraton_s": 0.002,'
            ' "nominal_flip_deg": 90.0, "params": {"truncation": 0.01}}'
        )
        rc = main(["criterion", "--pulse", str(pulse_file)])
        assert rc == 2
        assert "duraton_s" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, field", [
        ('"family": "gaussian", "duration_s": 0.002, "params": [1, 2]', "params"),
        ('"family": "fourier", "duration_s": 0.001, "fourier": [1]', "fourier"),
        ('"family": "fourier", "duration_s": 0.001, "fourier": {"a": [1.0]}', "a0"),
        ('"family": "fourier", "duration_s": 0.001, "fourier": {"a0": 1.0, "a": 5}', "fourier.a"),
        ('"family": "fourier", "duration_s": 0.001, "fourier": {"a0": 1.0, "b": {"1": 0.5}}',
         "fourier.b"),
        ('"family": "fourier", "duration_s": 0.001, "fourier": {"a0": [1.0]}', "fourier.a0"),
        ('"family": "gaussian", "duration_s": [0.002]', "duration_s"),
        ('"family": "gaussian", "duration_s": 0.002, "params": {"truncation": [1]}', "truncation"),
        ('"family": "gaussian_cascade", "duration_s": 0.001, "params": {"amplitudes": 5,'
         ' "centers": [0.5], "fwhms": [0.1]}', "amplitudes"),
        ('"family": "sinc", "duration_s": 0.002, "params": {"lobes": "3"}', "lobes"),
        ('"family": "gaussian", "duration_s": 0.002, "params": {"peak": true}', "peak"),
        ('"family": "gaussian", "duration_s": 0.002, "params": {"duration": 0.001}', "duration"),
        ('"family": "gaussian", "duration_s": 0.002, "params": {"family": "sech"}', "'family'"),
        ('"family": "fourier", "duration_s": 0.001, "fourier": {"a0": 1.0},'
         ' "params": {"peak": 3}', "params"),
        ('"family": "gaussian", "duration_s": 0.002, "fourier": {"a0": 1.0}', "fourier"),
        ('"family": "gaussian", "params": {"truncation": 0.01}', "missing the 'duration_s' field"),
        ('"family": "gaussian", "duration_s": 0.002, "name": null', "name"),
        ('"family": "gaussian", "duration_s": 0.002, "name": ["a"]', "name"),
        ('"family": "gaussian", "duration_s": 0.002, "source": [1, 2]', "source"),
    ])
    def test_malformed_pulse_field_bad_input(self, tmp_path, capsys, fields, field):
        pulse_file = tmp_path / "bad.json"
        pulse_file.write_text('{"nominal_flip_deg": 90.0, ' + fields + "}")
        rc = main(["criterion", "--pulse", str(pulse_file)])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["criterion", "propagate", "decompose", "profile"])
    def test_system_too_large_to_allocate_bad_input(self, tmp_path, capsys, command):
        # 2^50 configurations ask for more than any 64-bit address space, so the
        # first configuration-sized allocation, `m_table`, fails at once and says why
        system_file = tmp_path / "spectators.json"
        spins = [{"j_to_s_hz": 1.0 + k} for k in range(50)]
        system_file.write_text(json.dumps({"i_spins": spins}))
        argv = [command, "--pulse", "g4", "--system", str(system_file),
                "--output", str(tmp_path / "out")]
        if command == "profile":
            argv += ["--offset-start", "0", "--offset-stop", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "50 i_spins make 2**50 = 1125899906842624 configurations" in err

    @pytest.mark.parametrize("target", [("no", "such", "x.csv"), ()],
                             ids=["missing-directory", "directory"])
    def test_unwritable_output_names_the_requested_path(self, tmp_path, capsys, target):
        output = tmp_path.joinpath(*target)
        assert main(["propagate", "--pulse", "g4", "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert f"'{output}'" in err and ".magnuspulse-" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape, field", [("fourier", "a0"),
                                              ("gaussian_cascade", "amplitudes")])
    def test_shape_without_required_parameters_bad_input(self, capsys, shape, field):
        assert main(["criterion", "--shape", shape]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('{"s_count": 1.7}', "s_count"),
        ('{"s_count": true}', "s_count"),
        ('{"i_spins": [{}, {}], "j_ii_hz": [[0.9, 1, 5.0]]}', "j_ii_hz"),
    ])
    def test_non_integer_system_field_bad_input(self, tmp_path, capsys, text, field):
        system_file = tmp_path / "system.json"
        system_file.write_text(text)
        rc = main(["criterion", "--pulse", "g4", "--system", str(system_file)])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("couplings, message", [
        ("[[0, 0, 5.0]]", "self-coupling (0, 0)"),
        ("[[0, 7, 5.0]]", "(0, 7) references a spin outside 0..1"),
    ])
    def test_invalid_coupling_names_field(self, tmp_path, capsys, couplings, message):
        system_file = tmp_path / "system.json"
        system_file.write_text(f'{{"i_spins": [{{}}, {{}}], "j_ii_hz": {couplings}}}')
        rc = main(["criterion", "--pulse", "g4", "--system", str(system_file)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "j_ii_hz" in err and message in err

    def test_duplicate_coupling_bad_input(self, tmp_path, capsys):
        system_file = tmp_path / "system.json"
        system_file.write_text('{"i_spins": [{}, {}], "j_ii_hz": [[0, 1, 5.0], [0, 1, 9.0]]}')
        rc = main(["criterion", "--pulse", "g4", "--system", str(system_file)])
        assert rc == 2
        assert "j_ii_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["criterion", "propagate", "profile", "decompose"])
    def test_text_format_bad_input(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--pulse", "g4", "--offset-start", "0", "--offset-stop", "1",
                  "--format", "text"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_steps_and_tol_defaults(self, capsys):
        args = build_parser().parse_args(["criterion"])
        assert (args.steps, args.tol) == (DEFAULT_N_STEPS, DEFAULT_TOL)
        with pytest.raises(SystemExit):
            main(["criterion", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "(default 4096)" in out and "(default 1e-9)" in out


class TestVerify:
    def test_all_checks_pass(self, capsys, monkeypatch, run_check):
        # every real check, each computed once per session (shared with test_acceptance)
        monkeypatch.setattr(verify, "CHECKS", [(name, functools.partial(run_check, check))
                                               for name, check in verify.CHECKS])
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        n = len(verify.CHECKS)
        assert lines[-1] == f"{n}/{n} checks passed"
        assert len(lines) == n + 1
        assert all(line.startswith("[ok  ] ") for line in lines[:-1])

    def test_failing_check_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CHECKS", [("fails", lambda: (False, "off by 1e-3")),
                                               ("passes", lambda: (True, "fine"))])
        assert main(["verify"]) == 4
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] fails: off by 1e-3", "[ok  ] passes: fine", "1/2 checks passed"]

    def test_raising_check_fails_and_the_rest_still_run(self, capsys, monkeypatch):
        def crashes():
            return 1 / 0

        monkeypatch.setattr(verify, "CHECKS", [("crashes", crashes),
                                               ("passes", lambda: (True, "fine"))])
        assert main(["verify"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] crashes: raised ZeroDivisionError")
        assert lines[1:] == ["[ok  ] passes: fine", "1/2 checks passed"]


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the package from wherever this process found it
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "magnuspulse.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "magnuspulse" in proc.stdout
