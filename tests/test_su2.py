"""The quaternion products behind every propagator: pairwise reduction and scan."""

import json
from pathlib import Path

import numpy as np
import pytest

from magnuspulse import list_catalog, su2
from magnuspulse.cli import main
import oracle

GOLDEN_SYSTEM = Path(__file__).parent / "data" / "golden" / "sax.json"
SIZES = list(range(1, 71)) + [1000, 4096]


def _steps(n, n_configs=3, seed=0):
    """Random unit quaternions, shape (n_configs, n, 4), reproducible per n and seed."""
    rng = np.random.default_rng(seed + n)
    return su2.exp(rng.normal(size=(n_configs, n, 3)) * 2.0)


def _scanned(q):
    x = np.ascontiguousarray(np.moveaxis(q, -1, 0))
    su2.scan(x)
    return x


@pytest.mark.parametrize("n", SIZES)
def test_scan_matches_sequential_product(n):
    q = _steps(n)
    scanned = np.moveaxis(_scanned(q), 0, -1)
    assert np.max(np.abs(su2.to_matrix(scanned) - oracle.sequential_prefix(q))) < 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_reduce_is_the_scan_endpoint_bit_for_bit(n):
    q = _steps(n)
    endpoint = su2.reduce(np.ascontiguousarray(np.moveaxis(q, -1, 0)))
    assert np.array_equal(endpoint, _scanned(q)[..., -1])


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 1024, 4096])
def test_power_of_two_endpoint_matches_log_depth_scan(n):
    q = _steps(n)
    endpoint = su2.reduce(np.ascontiguousarray(np.moveaxis(q, -1, 0)))
    assert np.array_equal(endpoint.T, oracle.hillis_steele_prefix(q)[:, -1])


def test_compose_is_layout_independent():
    p, q = _steps(257, seed=1), _steps(257, seed=2)
    cm = su2.compose(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0))
    assert np.array_equal(np.moveaxis(cm, 0, -1), oracle.quaternion_product(p, q))


#: Refinement levels of a `criterion --steps 1000` run on the golden system,
#: recorded with the log-depth scan: the grid must double exactly as often.
LEVELS_AT_1000_STEPS = {"E-BURP-2": 5, "G3": 6, "G4": 5, "I-BURP-2": 5,
                        "Q3": 6, "Q5": 5, "RE-BURP": 5, "U-BURP": 6}


@pytest.mark.parametrize("entry", list_catalog(), ids=lambda e: e.name)
def test_odd_grid_refinement_unchanged(entry, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["criterion", "--pulse", entry.name, "--system", str(GOLDEN_SYSTEM),
               "--steps", "1000", "--output", str(out)])
    assert rc in (0, 3)
    levels = LEVELS_AT_1000_STEPS[entry.name]
    assert json.loads(out.read_text())["trajectory_steps"] == 1000 << levels
