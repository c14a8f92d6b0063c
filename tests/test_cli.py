import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from magnuspulse.cli import main

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
        assert doc["columns"][0] == "t"
        assert len(doc["rows"][0]) == len(doc["columns"])


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
