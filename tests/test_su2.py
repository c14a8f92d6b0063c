"""The quaternion core behind every propagator: pairwise reduction, scan and branch tracking."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnuspulse import (angles_from_state, build_pulse, excitation_profile, extract_omega,
                         integrate_expansion, list_catalog, magnus_partial_sums,
                         propagate_interaction, su2)
from magnuspulse.cli import main
from magnuspulse.verify import _sax
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


@pytest.mark.parametrize("n", SIZES)
def test_scan_from_kept_levels_is_the_plain_scan_bit_for_bit(n):
    q = _steps(n)
    x = np.ascontiguousarray(np.moveaxis(q, -1, 0))
    levels = []
    endpoint = su2.reduce(x, levels)
    kept = endpoint.copy()
    assert len(levels) == n.bit_length() - 1
    su2.scan(x, levels)
    assert np.array_equal(x, _scanned(q))
    assert np.array_equal(endpoint, kept)


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


def _assert_tracks_like_oracle(q):
    rows = np.moveaxis(q, -1, 0)
    angle, axis, _ = su2.track_rows(rows[0], rows[1:])
    axis = np.moveaxis(axis, 0, -1)
    ref_angle, ref_axis = oracle.track_trailing(q)
    assert angle.tobytes() == ref_angle.tobytes()  # signed zeros too
    assert axis.tobytes() == ref_axis.tobytes()
    return ref_angle, ref_axis


@pytest.mark.parametrize("system", ["sax_system", "s2ax_system"])
def test_track_matches_trailing_axis_oracle_on_catalog(request, system):
    system = request.getfixturevalue(system)
    for entry in list_catalog():
        shape = entry.build_calibrated()
        traj = propagate_interaction(system, shape, n_steps=4096, tol=None)
        angle, axis = _assert_tracks_like_oracle(traj.q)
        assert np.array_equal(extract_omega(traj).omega, angle[..., None] * axis), entry.name
        state = integrate_expansion(system, shape, n_steps=4096, tol=None)
        angle, _ = _assert_tracks_like_oracle(state.q)
        assert np.array_equal(angles_from_state(state)[2], angle), entry.name


#: How one sample of a random path is made from the one before it.
SAMPLE_KINDS = ("step", "step", "random", "coordinate", "undefined", "at_tol", "flip", "minus_e")


@st.composite
def quaternion_paths(draw):
    """Unit-quaternion paths, (n_configs, n_t, 4), with every case the tracker branches on.

    Each configuration starts with a run of samples whose axis is undefined
    (|v| <= AXIS_TOL, possibly empty); later samples are small steps, jumps,
    rotations about a coordinate axis (consecutive axes exactly perpendicular),
    undefined axes (also mid-path), |v| at the tolerance itself, the previous
    rotation with its axis reversed, and -E passages.
    """
    n_configs, n_t = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    lead = draw(st.integers(0, n_t))
    kinds = draw(st.lists(st.sampled_from(SAMPLE_KINDS), min_size=n_configs * n_t,
                          max_size=n_configs * n_t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.empty((n_configs, n_t, 4))
    for ci in range(n_configs):
        prev = su2.IDENTITY
        for k in range(n_t):
            kind = "undefined" if k < lead else kinds[ci * n_t + k]
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            if kind == "step":
                step = su2.exp(rng.normal(size=3) * 0.3)
                sample = su2.compose(step[:, None], prev[:, None])[:, 0]
            elif kind == "random":
                sample = su2.exp(direction * rng.uniform(0.0, 4.0 * np.pi))
            elif kind == "coordinate":
                sample = su2.exp(np.eye(3)[rng.integers(3)] * rng.uniform(-4.0, 4.0))
            elif kind in ("undefined", "at_tol"):
                size = su2.AXIS_TOL if kind == "at_tol" else rng.choice([0.0, rng.uniform(0.0, su2.AXIS_TOL)])
                sample = np.concatenate(([rng.choice([-1.0, 1.0])], size * direction))
            elif kind == "flip":
                sample = prev * np.array([1.0, -1.0, -1.0, -1.0])
            else:
                sample = np.array([-1.0, 0.0, 0.0, 0.0])
            q[ci, k] = prev = sample
    return q


@settings(deadline=None)
@given(quaternion_paths())
def test_track_matches_trailing_axis_oracle_on_random_paths(q):
    _assert_tracks_like_oracle(q)


@pytest.mark.parametrize("turns, unwraps", [(0.2, 0), (2.0, 1)])
def test_track_unwraps_only_at_half_angle_jumps(monkeypatch, turns, unwraps):
    # Rotations about one fixed axis per configuration. The half angle passes
    # pi (a jump of about 2 pi after the sign flip) only beyond one turn. The
    # path opens with a reversed axis and then the identity, whose half angle
    # atan2(-0.0, 1.0) is -0.0 and must come out as np.unwrap leaves it, +0.0.
    rng = np.random.default_rng(5)
    axes = rng.normal(size=(3, 1, 3))
    angles = np.concatenate(([0.0, 0.1, -0.1, 0.0], np.linspace(0.0, turns * 2.0 * np.pi, 60)))
    q = su2.exp(angles[None, :, None] * axes / np.linalg.norm(axes, axis=-1, keepdims=True))
    calls = []
    unwrap = np.unwrap
    monkeypatch.setattr(np, "unwrap", lambda *a, **k: calls.append(1) or unwrap(*a, **k))
    rows = np.moveaxis(q, -1, 0)
    angle = su2.track_rows(rows[0], rows[1:])[0]
    assert len(calls) == unwraps
    monkeypatch.undo()
    assert not np.any(np.signbit(angle[:, 3]))
    _assert_tracks_like_oracle(q)


def test_norm_defect_is_the_matrix_unitarity_defect():
    # U U^dagger - E = (|q|^2 - 1) E, so its Frobenius norm is sqrt(2) |(|q|^2 - 1)|
    rng = np.random.default_rng(8)
    q = su2.exp(rng.normal(size=(500, 3)) * 4.0) * rng.uniform(0.8, 1.2, size=(500, 1))
    q[:10] = su2.exp(rng.normal(size=(10, 3)))  # unit ones too
    u = oracle.quaternion_matrix(q)
    matrix_defect = np.linalg.norm(u @ np.conj(np.swapaxes(u, -1, -2)) - np.eye(2), axis=(-2, -1))
    assert np.allclose(np.sqrt(2.0) * su2.norm_defect(q), matrix_defect, rtol=0.0, atol=1e-15)


U = 2.0 ** -53  # unit roundoff


@pytest.mark.parametrize("n", list(range(1, 71)) + [4097, 1 << 20])
@pytest.mark.parametrize("t0_steps", [0.0, 0.5, 137.0])
def test_rotating_phase_matches_direct_trig(n, t0_steps):
    # e^{-i w t_k} by angle addition against cos/sin of the whole angle, |w t| up to 200 rad
    dt = 1e-3 / n
    t0 = t0_steps * dt
    times = t0 + np.arange(n) * dt
    w = 200.0 / (t0 + n * dt) * np.array([1.0, -1.0, -0.37, 0.0])
    w = w[:2] if n == 1 << 20 else w
    cos, sin = su2.rotating_field(np.ones(n), np.zeros(n), w, t0, dt)
    angle = -w[:, None] * times
    bound = 4.0 * U * (1.0 + np.abs(angle))
    assert np.all(np.abs(cos - np.cos(angle)) <= bound)
    assert np.all(np.abs(sin - np.sin(angle)) <= bound)


@pytest.mark.parametrize("n", [1, 5, 64, 100])
def test_rotating_field_writes_into_out_and_applies_phase(n):
    rng = np.random.default_rng(n)
    amps, phases, w = rng.normal(size=n), rng.uniform(-4.0, 4.0, n), rng.normal(size=3) * 1e3
    dt = 1e-5
    out = np.full((2, 3, n + 1), np.nan)[..., 1:]  # rows strided like a grid buffer
    assert su2.rotating_field(amps, phases, w, 0.5 * dt, dt, out=out) is out
    angle = phases - w[:, None] * (0.5 * dt + np.arange(n) * dt)
    assert np.allclose(out[0], amps * np.cos(angle), rtol=0.0, atol=1e-14)
    assert np.allclose(out[1], amps * np.sin(angle), rtol=0.0, atol=1e-14)


def test_every_rotating_frame_site_takes_its_phase_from_the_one_helper(monkeypatch):
    calls = []
    helper = su2.rotating_field
    monkeypatch.setattr(su2, "rotating_field", lambda *a, **k: calls.append(a) or helper(*a, **k))
    system, pulse = _sax(), build_pulse("gaussian", 1e-3)
    for site in (lambda: propagate_interaction(system, pulse, n_steps=16, tol=None),
                 lambda: integrate_expansion(system, pulse, n_steps=16, tol=None),
                 lambda: excitation_profile(system, pulse, [0.0, 100.0], n_steps=16),
                 lambda: magnus_partial_sums(system, pulse, n_steps=16)):
        calls.clear()
        site()
        assert calls
