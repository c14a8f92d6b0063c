"""The Cayley-Klein core behind every propagator: product, reduction, scan and branch tracking."""

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnuspulse import (angles_from_state, build_pulse, calibrate, excitation_profile,
                         extract_omega, integrate_expansion, list_catalog, magnus_partial_sums,
                         propagate_interaction, propagation, sample, su2)
from magnuspulse.cli import main
from contracts import _sax
import oracle

GOLDEN_SYSTEM = Path(__file__).parent / "data" / "golden" / "sax.json"
SIZES = list(range(1, 71)) + [1000, 4096]


def _steps(n, n_configs=3, seed=0):
    """Random unit pairs, shape (2, n_configs, n), reproducible per n and seed."""
    rng = np.random.default_rng(seed + n)
    return su2.exp(np.moveaxis(rng.normal(size=(n_configs, n, 3)), -1, 0) * 2.0)


def _trailing(q):
    """q with its components moved last, as the oracle takes them."""
    return np.moveaxis(q, 0, -1)


def _trailing_rows(x):
    """The real rows (c, v) of pairs x with their components moved last."""
    return _trailing(su2.rows(x))


def _scanned(q):
    x = q.copy()
    su2.scan(x)
    return x


@pytest.mark.parametrize("n", SIZES)
def test_scan_matches_sequential_product(n):
    q = _steps(n)
    scanned = _scanned(q)
    sequential = oracle.sequential_prefix(_trailing_rows(q))
    assert np.max(np.abs(su2.to_matrix(scanned) - sequential)) < 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_reduce_is_the_scan_endpoint_bit_for_bit(n):
    q = _steps(n)
    endpoint = su2.reduce(q)
    assert np.array_equal(endpoint, _scanned(q)[..., -1])


@pytest.mark.parametrize("n", SIZES)
def test_scan_from_kept_levels_is_the_plain_scan_bit_for_bit(n):
    q = _steps(n)
    x = q.copy()
    levels = []
    endpoint = su2.reduce(x, levels)
    kept = endpoint.copy()
    assert len(levels) == n.bit_length() - 1
    su2.scan(x, levels)
    assert np.array_equal(x, _scanned(q))
    assert np.array_equal(endpoint, kept)


#: Grids of whole chunks of 2^17, 2^15, 2^14 and 2^13 steps, and one with no power-of-two
#: chunk of 1024 steps or more (3000 = 8 x 375), which is walked as one chunk.
CHUNKED_SIZES = [1 << 17, 3 << 15, 5 << 14, 7 << 13, 3000]


def _copied(pairs):
    """A `propagation._walk` filler that writes the step pairs `pairs` (2, n_rows, n)."""
    def fill(x, start, size):
        x[..., :size] = pairs[..., start:start + size]
        return np.zeros(size)
    return lambda w, n, dt: fill


def _walked(filler, w, n, scanned, q=None):
    """The endpoint of `propagation._walk` on the grid of n steps over 1 s that `filler` fills
    for rows w, and the samples of its chunks (2, len(w), n) as each was yielded."""
    ends = []
    chunks = [x[..., 1:].copy()
              for _, x, _, _ in propagation._walk(filler, w, 1.0, n, scanned, ends, q)]
    return ends[0], np.concatenate(chunks, axis=-1)


@pytest.mark.parametrize("n", CHUNKED_SIZES)
@pytest.mark.parametrize("n_rows", [1, 2, 3])
@pytest.mark.parametrize("route", ["steps", "profile"])
def test_chunked_walk_is_the_whole_grid_reduce_and_scan_bit_for_bit(monkeypatch, n, n_rows,
                                                                    route):
    # "profile" walks the exact slices of a row block cut from one sample, as
    # `excitation_profile` does, against the slices of the whole grid in one call
    w = np.arange(n_rows) * 300.0 - 200.0
    if route == "steps":
        q, filler = _steps(n, n_configs=n_rows), _copied(_steps(n, n_configs=n_rows))
    else:
        sp = sample(build_pulse("sinc", 1.0, peak=40.0), n)
        filler = partial(propagation._exact, lambda chunk, _: (sp.amps[chunk], sp.phases[chunk]))
        q = np.empty((2, n_rows, n), dtype=complex)
        filler(w, n, sp.dt)(q, 0, n)
    whole = q.copy()
    levels = []
    endpoint = su2.reduce(whole, levels)
    su2.scan(whole, levels)
    reduced, reduce = [], su2.reduce
    monkeypatch.setattr(su2, "reduce", lambda x, *a: reduced.append(x.shape[-1]) or reduce(x, *a))
    for chunk in (1024, 4096, 1 << 14, 1 << 16, 1 << 20):
        monkeypatch.setattr(su2, "SCAN_BLOCK", n_rows * chunk)
        reduced.clear()
        x = np.empty((2, n_rows, n + 1), dtype=complex)
        end, _ = _walked(filler, w, n, False, x)
        assert end.tobytes() == endpoint.tobytes()
        assert np.array_equal(x[..., 1:], q)  # the endpoint-only form writes the pairs alone
        end, samples = _walked(filler, w, n, True, x)
        assert end.tobytes() == endpoint.tobytes()
        assert x[..., 1:].tobytes() == samples.tobytes() == whole.tobytes(), chunk
        end, samples = _walked(filler, w, n, True)  # one chunk buffer, never stored
        assert end.tobytes() == endpoint.tobytes()
        assert samples.tobytes() == whole.tobytes(), chunk
        size = n if n == 3000 else min(chunk, n & -n)
        assert reduced == 3 * (n // size) * [size]


@pytest.mark.parametrize("scan_block", [su2.SCAN_BLOCK, 0], ids=["default", "zero"])
def test_chunked_walk_gives_many_rows_chunks_of_1024_steps(monkeypatch, scan_block):
    # 256 rows: SCAN_BLOCK // 256 = 256 steps is under 1024, so the chunks are 1024 steps, 3 of
    # them on 3072 steps, and the walk is still the whole grid's reduce and scan bit for bit
    n, n_rows = 3 << 10, 256
    q = _steps(n, n_configs=n_rows)
    whole = q.copy()
    levels = []
    endpoint = su2.reduce(whole, levels)
    su2.scan(whole, levels)
    del levels
    reduced, reduce = [], su2.reduce
    monkeypatch.setattr(su2, "reduce", lambda x, *a: reduced.append(x.shape[-1]) or reduce(x, *a))
    monkeypatch.setattr(su2, "SCAN_BLOCK", scan_block)
    assert su2._chunk(n_rows, n) == 1024
    x = np.empty((2, n_rows, n + 1), dtype=complex)
    assert _walked(_copied(q), np.zeros(n_rows), n, True, x)[0].tobytes() == endpoint.tobytes()
    assert x[..., 1:].tobytes() == whole.tobytes()
    assert reduced == 3 * [1024]


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 1024, 4096])
def test_power_of_two_endpoint_matches_log_depth_scan(n):
    q = _steps(n)
    endpoint = su2.reduce(q)
    assert np.array_equal(endpoint.T, oracle.hillis_steele_prefix(_trailing(q))[:, -1])


@pytest.mark.parametrize("n", [1, 2, 257])
def test_compose_is_layout_independent(n):
    p, q = _steps(n, seed=1), _steps(n, seed=2)
    cm = su2.compose(p, q)
    assert np.array_equal(_trailing(cm), oracle.pair_product(_trailing(p), _trailing(q)))
    assert np.array_equal(su2.compose(p[..., ::-2], q[..., ::-2]), cm[..., ::-2])  # strided
    assert np.array_equal(su2.compose(p[..., -1:], q[..., -1:]), cm[..., -1:])  # length 1
    assert np.array_equal(su2.compose(p[:, :1, -1:], q[:, :1, -1:]), cm[:, :1, -1:])  # one element
    assert np.array_equal(su2.compose(p[:, :1], q), su2.compose(p[:, :1].repeat(3, 1), q))


#: numpy's dispatch targets whose complex multiply may fuse multiply-adds on x86-64.
FUSING_FEATURES = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
#: The feature sets this numpy build dispatches to, in numpy's own names.
DISPATCH = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath.__cpu_dispatch__


@pytest.mark.skipif(not set(DISPATCH) <= set(FUSING_FEATURES.split()),
                    reason=f"numpy dispatches to {DISPATCH}, which the setting does not name")
def test_compose_is_the_plain_formula_without_fused_multiply_adds():
    code = """
import numpy as np
from magnuspulse import su2
rng = np.random.default_rng(4)
p, q = (su2.exp(rng.normal(size=(3, 2, 999))) for _ in range(2))
(pa, pb), (qa, qb) = ((np.stack((x.real, x.imag)) for x in y) for y in (p, q))
mul = lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
conj = lambda x: (x[0], -x[1])
plain_a = np.subtract(mul(pa, qa), mul(conj(pb), qb))
plain_b = np.add(mul(pb, qa), mul(conj(pa), qb))
a, b = su2.compose(p, q)
assert np.array_equal(a.real, plain_a[0]) and np.array_equal(a.imag, plain_a[1])
assert np.array_equal(b.real, plain_b[0]) and np.array_equal(b.imag, plain_b[1])
"""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": FUSING_FEATURES,
           "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_rows_are_the_pauli_form_of_the_pair():
    # U = [[a, -conj b], [b, conj a]] is c E - i (v . sigma) for (c, v) = su2.rows of (a, b)
    x = _steps(64, seed=9) * np.random.default_rng(9).uniform(0.5, 1.5, size=64)
    assert np.max(np.abs(su2.to_matrix(x) - oracle.quaternion_matrix(_trailing_rows(x)))) <= 1e-15
    c, vx, vy, vz = su2.rows(x)
    a, b = x
    assert np.array_equal(a, c - 1j * vz) and np.array_equal(b, vy - 1j * vx)


@st.composite
def unit_pairs(draw, n=5):
    """Random unit pairs (2, n) from random rotation vectors, angles up to 4 pi."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = rng.normal(size=(3, n))
    return su2.exp(axes / np.linalg.norm(axes, axis=0) * rng.uniform(0.0, 4.0 * np.pi, n))


@given(unit_pairs(), unit_pairs())
def test_compose_is_the_matrix_product(p, q):
    product = su2.to_matrix(p) @ su2.to_matrix(q)
    assert np.max(np.abs(su2.to_matrix(su2.compose(p, q)) - product)) <= 1e-15


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
    """`su2.track_rows` on quaternion rows q (c, v), (4, ..., n_t), against the oracle."""
    angle, axis, _ = su2.track_rows(q[0], q[1:])
    axis = _trailing(axis)
    ref_angle, ref_axis = oracle.track_trailing(_trailing(q))
    assert angle.tobytes() == ref_angle.tobytes()  # signed zeros too
    assert axis.tobytes() == ref_axis.tobytes()
    return ref_angle, ref_axis


@pytest.mark.parametrize("system", ["sax_system", "s2ax_system"])
def test_track_matches_trailing_axis_oracle_on_catalog(request, system):
    system = request.getfixturevalue(system)
    for entry in list_catalog():
        shape = calibrate(entry.build(), entry.nominal_flip)
        traj = propagate_interaction(system, shape, n_steps=4096, tol=None)
        angle, axis = _assert_tracks_like_oracle(su2.rows(traj.q))
        omega = angle * np.moveaxis(axis, -1, 0)
        assert np.array_equal(extract_omega(traj).omega, omega), entry.name
        state = integrate_expansion(system, shape, n_steps=4096, tol=None)
        angle, _ = _assert_tracks_like_oracle(su2.rows(state.q))
        assert np.array_equal(angles_from_state(state)[2], angle), entry.name


#: How one sample of a random path is made from the one before it.
SAMPLE_KINDS = ("step", "step", "random", "coordinate", "undefined", "at_tol", "flip", "minus_e")


def _pair(q):
    """The Cayley-Klein pair (c - i v_z, v_y - i v_x) of quaternion rows q (4, ...)."""
    c, x, y, z = q
    return np.stack((c - 1j * z, y - 1j * x))


@st.composite
def quaternion_paths(draw):
    """Unit-quaternion rows (c, v), (4, n_configs, n_t), with every case the tracker branches on.

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
    q = np.empty((4, n_configs, n_t))
    for ci in range(n_configs):
        prev = su2.rows(su2.IDENTITY)
        for k in range(n_t):
            kind = "undefined" if k < lead else kinds[ci * n_t + k]
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            if kind == "step":
                step = su2.exp(rng.normal(size=3) * 0.3)
                sample = su2.rows(su2.compose(step[:, None], _pair(prev[:, None]))[:, 0])
            elif kind == "random":
                sample = su2.rows(su2.exp(direction * rng.uniform(0.0, 4.0 * np.pi)))
            elif kind == "coordinate":
                sample = su2.rows(su2.exp(np.eye(3)[rng.integers(3)] * rng.uniform(-4.0, 4.0)))
            elif kind in ("undefined", "at_tol"):
                size = su2.AXIS_TOL if kind == "at_tol" else rng.choice([0.0, rng.uniform(0.0, su2.AXIS_TOL)])
                sample = np.concatenate(([rng.choice([-1.0, 1.0])], size * direction))
            elif kind == "flip":
                sample = prev * np.array([1.0, -1.0, -1.0, -1.0])
            else:
                sample = np.array([-1.0, 0.0, 0.0, 0.0])
            q[:, ci, k] = prev = sample
    return q


@settings(deadline=None)
@given(quaternion_paths())
def test_track_matches_trailing_axis_oracle_on_random_paths(q):
    _assert_tracks_like_oracle(q)


def _track_in_blocks(q, cuts):
    """`su2.track_rows` over windows of q (4, n_configs, n_t) that share the time indices `cuts`.

    Each window after the first starts with the last sample of the window
    before; that repeated sample is dropped before the windows are joined.
    """
    state = su2.BranchState(q.shape[1:-1])
    edges = [0, *cuts, q.shape[-1] - 1]
    parts = [su2.track_rows(q[0, ..., a:b + 1], q[1:, ..., a:b + 1], state)
             for a, b in zip(edges, edges[1:])]
    return tuple(np.concatenate([first, *(p[..., 1:] for p in rest)], axis=-1)
                 for first, *rest in zip(*parts))


def _assert_blocks_track_like_dense(q, cuts):
    dense = oracle.track_rows_dense(q[0], q[1:])
    for got, want in zip(_track_in_blocks(q, cuts), dense):
        assert got.tobytes() == want.tobytes(), cuts  # signed zeros too


def _edge_case_paths():
    """Three configurations whose every block edge is one of the tracker's carried cases.

    Row 0 turns about one axis from an undefined start, back to E (an undefined
    run after defined axes), through -E (where the raw axis reverses and the
    sign flips) and past 2 pi and 4 pi (half-angle steps of pi or more). Row 1
    never has a defined axis (E, -E and |v| below the tolerance). Row 2 takes
    random steps and a reversed-axis copy of its previous sample.
    """
    rng = np.random.default_rng(21)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    turn = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                     2.0 * np.pi, 7.0, 8.0, 9.0, 11.0, 12.0, 4.0 * np.pi, 13.5, 15.0, 16.0])
    n_t = len(turn)
    q = np.empty((4, 3, n_t))
    q[:, 0] = su2.rows(su2.exp(axis[:, None] * turn))
    q[:, 1] = 0.0
    q[0, 1] = np.where(np.arange(n_t) % 3 == 1, -1.0, 1.0)
    q[1, 1, ::4] = 0.5 * su2.AXIS_TOL
    steps = su2.exp(rng.normal(size=(n_t, 3)).T * 0.8)
    prev = su2.rows(su2.IDENTITY)
    for k in range(n_t):
        prev = prev * np.array([1.0, -1.0, -1.0, -1.0]) if k % 7 == 6 else su2.rows(su2.compose(
            steps[:, k, None], _pair(prev[:, None]))[:, 0])
        q[:, 2, k] = prev
    return q


def test_edge_case_paths_reach_every_carried_case():
    rows = _edge_case_paths()
    norm = np.linalg.norm(rows[1:], axis=0)
    defined = norm > su2.AXIS_TOL
    assert not defined[1].any()
    assert np.any(defined[0, :-1] & ~defined[0, 1:])  # an undefined run after a defined axis
    raw = rows[1:] / np.where(defined, norm, 1.0)
    assert np.any(np.sum(raw[:, 0, 1:] * raw[:, 0, :-1], axis=0) < 0.0)  # the raw axis reverses
    state = su2.BranchState((1,))
    su2.track_rows(rows[0, :1], rows[1:, :1], state)
    assert np.all(state.turns != 0.0)  # half-angle steps past pi


@pytest.mark.parametrize("cut", range(1, 25))  # every edge of the 25-sample paths
def test_blocks_track_like_one_dense_pass_at_every_edge(cut):
    q = _edge_case_paths()
    _assert_blocks_track_like_dense(q, [cut])
    _assert_blocks_track_like_dense(q, [1, cut] if cut > 1 else [cut, 2])


def test_blocks_of_one_sample_track_like_one_dense_pass():
    q = _edge_case_paths()
    _assert_blocks_track_like_dense(q, list(range(1, q.shape[-1])))


@settings(deadline=None)
@given(quaternion_paths(), st.data())
def test_blocks_track_like_one_dense_pass_on_random_paths(q, data):
    n_t = q.shape[-1]
    cuts = data.draw(st.lists(st.integers(1, max(1, n_t - 1)), max_size=6, unique=True))
    _assert_blocks_track_like_dense(q, sorted(c for c in cuts if c < n_t))


@settings(deadline=None)
@given(quaternion_paths(), st.data())
def test_tracking_the_shared_sample_again_changes_nothing(q, data):
    cut = data.draw(st.integers(1, q.shape[-1]))
    state = su2.BranchState(q.shape[1:-1])
    values = su2.track_rows(q[0, ..., :cut], q[1:, ..., :cut], state)
    fields = {name: field.tobytes() for name, field in vars(state).items()}
    again = su2.track_rows(q[0, ..., cut - 1:cut], q[1:, ..., cut - 1:cut], state)
    for got, want in zip(again, values):
        assert got.tobytes() == want[..., -1:].tobytes()
    assert {name: field.tobytes() for name, field in vars(state).items()} == fields


@pytest.mark.parametrize("turns, unwraps", [(0.2, 0), (2.0, 1)])
def test_track_unwraps_only_at_half_angle_jumps(turns, unwraps):
    # Rotations about one fixed axis per configuration. The half angle passes
    # pi (a jump of about 2 pi after the sign flip) only beyond one turn. The
    # path opens with a reversed axis and then the identity, whose half angle
    # atan2(-0.0, 1.0) is -0.0 and must come out as +0.0.
    rng = np.random.default_rng(5)
    axes = rng.normal(size=(3, 1, 3))
    angles = np.concatenate(([0.0, 0.1, -0.1, 0.0], np.linspace(0.0, turns * 2.0 * np.pi, 60)))
    q = su2.rows(su2.exp(np.moveaxis(angles[None, :, None] * axes / np.linalg.norm(
        axes, axis=-1, keepdims=True), -1, 0)))
    state = su2.BranchState(q.shape[1:-1])
    angle = su2.track_rows(q[0], q[1:], state)[0]
    assert state.turns.tolist() == [float(unwraps)] * 3
    assert not np.any(np.signbit(angle[:, 3]))
    _assert_tracks_like_oracle(q)


def _assert_turns_match_np_unwrap(q):
    """The tracker's angle on rows q against `np.unwrap` of the same principal half angles.

    `np.unwrap` sums one rounded 2 pi correction per turn where the tracker
    rounds 2 pi times a whole count once, so they agree to a few ulp per turn.
    """
    halves = []
    ref, _ = oracle.track_trailing(
        _trailing(q), unwrap=lambda half: halves.append(half) or np.unwrap(half, axis=-1))
    turns = np.rint((0.5 * ref - halves[0]) / (2.0 * np.pi))
    angle = su2.track_rows(q[0], q[1:])[0]
    ulp = np.spacing(np.maximum(np.abs(ref), 2.0 * np.pi))
    assert np.all(np.abs(angle - ref) <= 8.0 * (1.0 + np.abs(turns)) * ulp)
    return turns


@settings(deadline=None)
@given(quaternion_paths())
def test_track_matches_np_unwrap_on_random_paths(q):
    _assert_turns_match_np_unwrap(q)


@pytest.mark.parametrize("flip_deg", [None, 720.0])
def test_track_matches_np_unwrap_on_catalog(sax_system, flip_deg):
    turns = []
    for entry in list_catalog():
        shape = calibrate(entry.build(),
                          entry.nominal_flip if flip_deg is None else np.radians(flip_deg))
        traj = propagate_interaction(sax_system, shape, n_steps=4096, tol=None)
        turns.append(_assert_turns_match_np_unwrap(su2.rows(traj.q)))
        state = integrate_expansion(sax_system, shape, n_steps=4096, tol=None)
        turns.append(_assert_turns_match_np_unwrap(su2.rows(state.q)))
    assert flip_deg is None or any(t.any() for t in turns)  # 720 deg passes whole turns


@settings(deadline=None)
@given(quaternion_paths(), st.data())
def test_windows_count_the_whole_turns_of_one_pass(q, data):
    n_t = q.shape[-1]
    cuts = data.draw(st.lists(st.integers(1, max(1, n_t - 1)), max_size=6, unique=True))
    edges = [0, *sorted(c for c in cuts if c < n_t), n_t - 1]
    state = su2.BranchState(q.shape[1:-1])
    for a, b in zip(edges, edges[1:]):
        su2.track_rows(q[0, ..., a:b + 1], q[1:, ..., a:b + 1], state)
        assert np.array_equal(state.turns, np.rint(state.turns))
    one = su2.BranchState(q.shape[1:-1])
    su2.track_rows(q[0], q[1:], one)
    assert state.turns.tobytes() == one.turns.tobytes()


def test_norm_defect_is_the_matrix_unitarity_defect():
    # U U^dagger - E = (|a|^2 + |b|^2 - 1) E, so its Frobenius norm is sqrt(2) times that
    rng = np.random.default_rng(8)
    q = su2.exp(rng.normal(size=(500, 3)).T * 4.0) * rng.uniform(0.8, 1.2, size=500)
    q[:, :10] = su2.exp(rng.normal(size=(10, 3)).T)  # unit ones too
    u = oracle.quaternion_matrix(_trailing_rows(q))
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
    b = su2.rotating_field(np.ones(n), np.zeros(n), w, t0, dt)
    cos, sin = -b.imag, b.real  # b = -i e^{i angle}
    angle = -w[:, None] * times
    bound = 4.0 * U * (1.0 + np.abs(angle))
    assert np.all(np.abs(cos - np.cos(angle)) <= bound)
    assert np.all(np.abs(sin - np.sin(angle)) <= bound)


@pytest.mark.parametrize("n", [1, 5, 64, 100])
def test_rotating_field_writes_into_out_and_applies_phase(n):
    rng = np.random.default_rng(n)
    amps, phases, w = rng.normal(size=n), rng.uniform(-4.0, 4.0, n), rng.normal(size=3) * 1e3
    dt = 1e-5
    out = np.full((3, n + 1), np.nan, dtype=complex)[..., 1:]  # a row strided like a grid buffer
    assert su2.rotating_field(amps, phases, w, 0.5 * dt, dt, out=out) is out
    angle = phases - w[:, None] * (0.5 * dt + np.arange(n) * dt)
    assert np.allclose(-out.imag, amps * np.cos(angle), rtol=0.0, atol=1e-14)
    assert np.allclose(out.real, amps * np.sin(angle), rtol=0.0, atol=1e-14)


def test_one_offset_of_one_sample_gives_the_bits_it_gives_beside_others():
    # one element, whose product numpy may round by another loop (see `su2`)
    rng = np.random.default_rng(0)
    for amps, phases in rng.normal(size=(20, 2, 1)):
        w = rng.normal(size=3) * 1e3
        beside = su2.rotating_field(amps, phases, w, 5e-6, 1e-5)
        for k in range(3):
            assert np.array_equal(su2.rotating_field(amps, phases, w[k:k + 1], 5e-6, 1e-5),
                                  beside[k:k + 1])


def test_every_rotating_frame_site_takes_its_phase_from_the_one_helper(monkeypatch):
    calls = []
    helper = su2._fields  # `rotating_field` and `_slices` write their rows through it
    monkeypatch.setattr(su2, "_fields", lambda *a, **k: calls.append(a) or helper(*a, **k))
    system, pulse = _sax(), build_pulse("gaussian", 1e-3)
    for site in (lambda: propagate_interaction(system, pulse, n_steps=16, tol=None),
                 lambda: integrate_expansion(system, pulse, n_steps=16, tol=None),
                 lambda: excitation_profile(system, pulse, [0.0, 100.0], n_steps=16),
                 lambda: magnus_partial_sums(system, pulse, n_steps=16)):
        calls.clear()
        site()
        assert calls
