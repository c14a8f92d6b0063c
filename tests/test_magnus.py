import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from magnuspulse import (
    ISpin,
    SpinSystem,
    build_pulse,
    calibrate,
    angles_from_state,
    explicit_criterion,
    extract_omega,
    gap_audit,
    integrate_expansion,
    list_catalog,
    magnus_partial_sums,
    midpoint_integrals,
    propagate_interaction,
    resolve_pulse,
    scale_amplitude,
    su2,
)
from magnuspulse import magnus
from magnuspulse.magnus import DEFAULT_GAP_TOL, MINUS_E_TOL, ExtractionError
from magnuspulse.propagation import RefinementError
from contracts import _gaussian90, _s2ax, _sax, random_fourier_pulse, random_small_system
import oracle

TWO_PI = 2.0 * math.pi


def _layouts(omega_hat):
    """The same (n_configs, n_times) omega_hat C-ordered and as a time-major view."""
    return np.ascontiguousarray(omega_hat), np.asfortranarray(omega_hat)


def _audit_pairs(omega_hat, s_count):
    """The all-pairs oracle on every eigenvalue m omega_hat_c of the whole exponent."""
    return oracle.gap_audit_pairs(oracle.eigenvalue_rows(omega_hat, s_count))


def _assert_each_time_matches_oracle(omega_hat, s_count):
    """gap_audit of each time alone equals the oracle's: the distances, with no time in between."""
    for time in range(omega_hat.shape[1]):
        column = omega_hat[:, time:time + 1]
        assert gap_audit(column, s_count) == _audit_pairs(column, s_count), time


def _spy_windows(monkeypatch):
    """Per gap audit of a time window, [widest spread, columns given to `_pair_sweep`]."""
    windows = []
    audit, sweep = magnus.gap_audit, magnus._pair_sweep

    def spy_audit(omega_hat, s_count):
        windows.append([s_count * float(np.max(omega_hat)), 0])
        return audit(omega_hat, s_count)

    def spy_sweep(omega_hat, s_count):
        windows[-1][1] += omega_hat.shape[1]
        return sweep(omega_hat, s_count)

    monkeypatch.setattr(magnus, "gap_audit", spy_audit)
    monkeypatch.setattr(magnus, "_pair_sweep", spy_sweep)
    return windows


def _track_instead(monkeypatch):
    """Make the criterion branch-track every configuration, as if each were at -E."""
    monkeypatch.setattr(magnus, "MINUS_E_TOL", math.inf)


def _spy_tracked_rows(monkeypatch):
    """The row count of each `su2.track_rows` call."""
    rows = []
    track_rows = su2.track_rows
    monkeypatch.setattr(su2, "track_rows", lambda c, *args: rows.append(len(c)) or
                        track_rows(c, *args))
    return rows


def _stream_instead(monkeypatch, traj):
    """Make the criterion audit the stored trajectory traj in place of the grids it refines:
    the chunk source that `propagation._streamed` hands its fold gives traj as one chunk, and
    gives it again for the tracked configurations."""
    chunks = lambda: iter([(0, traj.q, traj.amps, traj.dt)])
    monkeypatch.setattr(magnus, "_streamed", lambda system, shape, n_steps, tol, fold: (
        fold(chunks()), chunks, traj.n_steps, traj.error_estimate))


def _minus_e_constant_pulse(scale=1.0):
    """ROADMAP item 8's passage: S alone at `scale` times the offset w1 / sqrt(3) and a
    constant pulse with I(T) = 1.1 * 2 sqrt(3) pi, which at scale 1 turns U by 4 pi about its
    tilted axis while the frame turns by 2 pi about z, so U = -E at t = T / 1.1."""
    pulse = build_pulse("constant", 1e-3)
    pulse = scale_amplitude(pulse, 2.2 * math.sqrt(3.0) * math.pi / midpoint_integrals(
        pulse, pulse.duration)[1])
    w1 = 2.2 * math.sqrt(3.0) * math.pi / pulse.duration
    return SpinSystem(s_offset=scale * w1 / math.sqrt(3.0)), pulse


def _spectators(count):
    """One S spin at 10 Hz and `count` spectators at 30 + 17 k Hz with J = 3 + 1.5 k Hz."""
    spins = tuple(ISpin(offset=TWO_PI * (30.0 + 17.0 * k), j_to_s=3.0 + 1.5 * k)
                  for k in range(count))
    return SpinSystem(s_count=1, s_offset=TWO_PI * 10.0, i_spins=spins)


def _closest(q):
    """`magnus._closest` of every configuration of pairs q."""
    return magnus._closest(q, np.arange(q.shape[1]))


def _sampled_closest(q, m=64):
    """1 + min Re a over the samples of pairs q and m points inside each slice, the slice
    U_{k+1} U_k^dagger = cos h E - i sin h (n . sigma) turning U_k = c E - i (v . sigma) to
    Re a = c cos x - (n . v) sin x at x = h j / (m + 1). Re a is a sinusoid of x, so a slice
    whose ends lie more than h**2 / 8 above its row's lowest sample cannot hold the row's
    minimum and is not sampled."""
    a, b = q[:, :, :-1]
    (c, *v), (s0, *s) = su2.rows(q[:, :, :-1]), su2.rows(su2.compose(q[:, :, 1:],
                                                                    np.stack((a.conj(), -b))))
    low = np.min(q[0].real, axis=-1)
    sin_h = np.sqrt(np.einsum("i...,i...->...", s, s))
    h = np.arctan2(sin_h, s0)
    row, k = np.nonzero(np.minimum(c, q[0, :, 1:].real) - h * h / 8.0 <= low[:, None])
    x = h[row, k, None] * (np.arange(1, m + 1) / (m + 1))
    along = np.einsum("i...,i...->...", s, v)[row, k, None] / sin_h[row, k, None]  # n . v
    np.minimum.at(low, row, np.min(c[row, k, None] * np.cos(x) - along * np.sin(x), axis=-1))
    return 1.0 + low


def _turning_about_x(traj, angles):
    """traj with q = exp(-i angles S_x), angles (n_configs, n_times), and amplitudes whose
    |amps_k| dt is the largest turn of step k, as every step of a propagated grid has."""
    turns = np.max(np.abs(np.diff(angles)), axis=0)
    return dataclasses.replace(traj, q=su2.exp(np.array([1.0, 0.0, 0.0])[:, None, None] * angles),
                               amps=turns / traj.dt)


def _outcome(system, pulse, **kwargs):
    """explicit_criterion's report as text, its ambiguity times as a list, or its error."""
    try:
        report = explicit_criterion(system, pulse, **kwargs)
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"
    return repr(dataclasses.replace(report, ambiguity_times=report.ambiguity_times.tolist()))


def _hermitian(sums):
    """The (n_configs, order, 2, 2) matrices a . S of the (3, n_configs, order) partial sums."""
    return np.einsum("jcm,jab->cmab", sums, np.stack((oracle.SX1, oracle.SY1, oracle.SZ1)))


class TestExtractOmega:
    def test_identity_trajectory(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = propagate_interaction(sax_system, pulse, n_steps=32, tol=None)
        sol = extract_omega(traj)
        assert np.array_equal(sol.omega, np.zeros_like(sol.omega))
        assert not sol.ambiguous.any()

    def test_constant_x_pulse_tracks_through_minus_identity(self, s_only_system):
        # 3*pi total rotation; grid chosen so one sample lands exactly on 2*pi
        pulse = calibrate(build_pulse("constant", 1e-3), 3.0 * math.pi)
        traj = propagate_interaction(s_only_system, pulse, n_steps=48, tol=None)
        sol = extract_omega(traj)
        expected = 3.0 * math.pi * traj.times / traj.times[-1]
        assert np.allclose(sol.omega[0, 0], expected, atol=1e-9)
        assert np.allclose(sol.omega[1:, 0], 0.0, atol=1e-9)
        crossing = np.argmin(np.abs(expected - TWO_PI))
        assert sol.ambiguous[0, crossing]
        assert sol.ambiguous.sum() == 1

    def test_minus_e_flags_read_the_trackers_mask(self):
        # About x, 2 pi - 1e-8 and 2 pi + 1e-9 are -E to |v| = sin(half) = 5e-9 and 5e-10;
        # only the second is within su2.AXIS_TOL, where the tracker leaves the axis undefined
        traj = propagate_interaction(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0),
                                     n_steps=9, tol=None)
        angles = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, TWO_PI - 1e-8, TWO_PI + 1e-9, 7.0])
        q = su2.exp(np.array([1.0, 0.0, 0.0])[:, None, None] * angles)
        assert np.abs(q[1, 0, 7:9]).tolist() == pytest.approx([5e-9, 5e-10], rel=1e-6)
        sol = extract_omega(dataclasses.replace(traj, q=q))
        assert sol.ambiguous[0].tolist() == [False] * 8 + [True, False]

    def test_gaussian_sax_reconstruction(self, sax_system, gaussian90):
        traj = propagate_interaction(sax_system, gaussian90, n_steps=1024, tol=1e-8)
        sol = extract_omega(traj)
        rebuilt = su2.to_matrix(su2.exp(sol.omega))
        unflagged = ~sol.ambiguous
        err = np.linalg.norm(rebuilt - su2.to_matrix(traj.q), axis=(-2, -1))
        assert float(err[unflagged].max()) < 1e-8

    def test_too_coarse_grid_rejected(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), 3.0 * math.pi)
        with pytest.raises(ExtractionError, match="more steps"):
            traj = propagate_interaction(s_only_system, pulse, n_steps=2, tol=None)
            extract_omega(traj)

    @pytest.mark.parametrize("block", [16, 1 << 40])
    def test_jump_message_names_earliest_step_then_lowest_configuration(self, monkeypatch,
                                                                        block):
        # Configurations 2 and 1 jump at step 10, the edge sample of the second and third
        # blocks of 5 steps, configuration 0 at step 16: the message names configuration 1.
        # 1 and 2 pass -E at step 5.5, where the criterion tracks them alone, and still names
        # configuration 1, not the first of its tracked rows.
        angles = np.tile(0.1 * np.arange(24.0), (3, 1))
        angles[1:] += TWO_PI - 0.55
        angles[2, 10:] += 3.5
        angles[1, 10:] += 3.3
        angles[0, 16:] += 3.2
        traj = propagate_interaction(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0),
                                     n_steps=23, tol=None)
        traj = _turning_about_x(traj, angles)
        monkeypatch.setattr(su2, "TRACK_BLOCK", block)
        _stream_instead(monkeypatch, traj)
        message = r"jumped by 3\.400 rad between stored samples \(config 1, step 10\)"
        with pytest.raises(ExtractionError, match=message):
            extract_omega(traj)
        tracked = _spy_tracked_rows(monkeypatch)
        with pytest.raises(ExtractionError, match=message):
            explicit_criterion(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0))
        assert set(tracked) == {2}

    def test_jump_found_without_tracking_the_grid_again(self, monkeypatch):
        # 32 configurations x 16385 samples in blocks of 512 steps; configuration 5 jumps at
        # step 1000 in the second block, configuration 2 at step 12000 in a later one. The
        # walk stops at the second block, so the failing criterion tracks two blocks and
        # allocates a few blocks' worth, not the whole-grid rows, axes and steps.
        n_times = 16385
        angles = np.tile(1e-3 * np.arange(float(n_times)), (32, 1))
        angles[5, 1000:] += 3.5
        angles[2, 12000:] += 3.2
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = propagate_interaction(SpinSystem(), pulse, n_steps=n_times - 1, tol=None)
        traj = _turning_about_x(traj, angles)
        del angles
        _stream_instead(monkeypatch, traj)
        tracked = []
        track_rows = su2.track_rows
        monkeypatch.setattr(su2, "track_rows",
                            lambda c, *args: tracked.append(c.shape) or track_rows(c, *args))
        message = r"jumped by 3\.501 rad between stored samples \(config 5, step 1000\)"
        tracemalloc.start()
        try:
            with pytest.raises(ExtractionError, match=message):
                explicit_criterion(SpinSystem(), pulse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tracked == [(32, 513), (32, 513)]
        assert peak < 0.5 * traj.q.nbytes


class TestAnglesFromOmega:
    """The decomposition angles alpha, beta that extract_omega returns with Omega."""

    @staticmethod
    def _solution(omega):
        """extract_omega on one step from E to exp(-i Omega . S), a configuration per row."""
        omega = np.atleast_2d(omega)
        traj = propagate_interaction(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0),
                                     n_steps=1, tol=None)
        q = su2.exp(np.moveaxis(np.stack((np.zeros_like(omega), omega), axis=1), -1, 0))
        sol = extract_omega(dataclasses.replace(traj, q=q))
        assert np.allclose(sol.omega[..., 1].T, omega, atol=1e-12)
        return sol

    def _angles(self, vector):
        sol = self._solution(vector)
        return sol.alpha[0, 1], sol.beta[0, 1], sol.omega_hat[0, 1]

    def test_z_axis(self):
        assert self._angles([0.0, 0.0, 1.3]) == pytest.approx((0.0, 0.0, 1.3))

    def test_x_axis(self):
        alpha, beta, ohat = self._angles([0.7, 0.0, 0.0])
        assert (alpha, beta, ohat) == pytest.approx((0.0, math.pi / 2, 0.7))

    def test_y_axis(self):
        alpha, beta, ohat = self._angles([0.0, 0.7, 0.0])
        assert (alpha, beta, ohat) == pytest.approx((math.pi / 2, math.pi / 2, 0.7))

    def test_defining_identities_and_round_trip(self):
        rng = np.random.default_rng(17)
        # random directions; one step from E is tracked only for |Omega| < pi
        vec = rng.normal(size=(200, 3))
        vec *= rng.uniform(0.1, 3.0, size=(200, 1)) / np.linalg.norm(vec, axis=1, keepdims=True)
        sol = self._solution(vec)
        alpha, beta, ohat = sol.alpha[:, 1], sol.beta[:, 1], sol.omega_hat[:, 1]
        # defining relations of the decomposition angles
        assert np.allclose(vec[:, 0] * np.sin(alpha), vec[:, 1] * np.cos(alpha), atol=1e-10)
        proj = vec[:, 0] * np.cos(alpha) + vec[:, 1] * np.sin(alpha)
        assert np.allclose(vec[:, 2] * np.sin(beta), proj * np.cos(beta), atol=1e-10)
        assert np.allclose(ohat, vec[:, 2] * np.cos(beta) + proj * np.sin(beta), atol=1e-10)
        # round trip back to components
        rebuilt = np.stack(
            [
                ohat * np.cos(alpha) * np.sin(beta),
                ohat * np.sin(alpha) * np.sin(beta),
                ohat * np.cos(beta),
            ],
            axis=1,
        )
        assert np.allclose(rebuilt, vec, atol=1e-12 * np.abs(vec).max())

    def test_range_conventions(self):
        sol = self._solution([[-1.0, -1e-12, 0.5], [-1.0, 1e-12, -0.5]])
        assert np.all((-math.pi < sol.alpha) & (sol.alpha <= math.pi))
        assert np.all((0.0 <= sol.beta) & (sol.beta <= math.pi))

    def test_on_resonance_zeros_are_canonical(self, s_only_system):
        # every rotation is about x, so the y components are zeros of either sign
        pulse = calibrate(resolve_pulse("q3").build(), TWO_PI)
        for alpha in (extract_omega(propagate_interaction(s_only_system, pulse)).alpha,
                      angles_from_state(integrate_expansion(s_only_system, pulse))[0]):
            assert np.all(alpha > -math.pi)
            assert not np.signbit(alpha[alpha == 0.0]).any()


class TestEigenvaluesAndGap:
    def test_single_config_pair(self, s_only_system):
        # eigenvalues +-omega_hat/2 with omega_hat rising to pi
        pulse = calibrate(build_pulse("constant", 1e-3), math.pi)
        report = explicit_criterion(s_only_system, pulse, n_steps=64, tol=None)
        assert report.max_eigenvalue_gap == pytest.approx(math.pi, abs=1e-9)

    def test_zero_hat_all_zero(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        report = explicit_criterion(sax_system, pulse, n_steps=16, tol=None)
        assert report.max_eigenvalue_gap == 0.0
        assert report.magnus_gap_nearest == TWO_PI

    def test_two_s_spins_quantum_numbers(self):
        # eigenvalues -pi, 0, pi at the end: the outer pair is 2 pi apart
        pulse = calibrate(build_pulse("constant", 1e-3), math.pi)
        report = explicit_criterion(SpinSystem(s_count=2), pulse, n_steps=64, tol=None)
        assert report.max_eigenvalue_gap == pytest.approx(TWO_PI, abs=1e-9)
        assert report.magnus_gap_nearest == pytest.approx(0.0, abs=1e-9)
        assert not report.magnus_criterion_ok

    def test_gap_check_ok(self):
        _, nearest = gap_audit(np.array([[math.pi / 2]]), 1)  # eigenvalues +-pi/4
        assert nearest > DEFAULT_GAP_TOL
        assert nearest == pytest.approx(TWO_PI - math.pi / 2)

    def test_gap_check_violation_at_n1(self):
        _, nearest = gap_audit(np.array([[TWO_PI]]), 1)  # eigenvalues +-pi
        assert not nearest > DEFAULT_GAP_TOL
        assert nearest == pytest.approx(0.0, abs=1e-12)

    def test_gap_check_zero_eigenvalues_ok(self):
        for s_count in (1, 2, 3):
            assert gap_audit(np.array([[0.0], [0.0]]), s_count) == (0.0, TWO_PI)

    @pytest.mark.parametrize("system", [
        SpinSystem(), _sax(), _s2ax(), SpinSystem(s_count=3, s_offset=TWO_PI * 10.0,
                                                  i_spins=_sax().i_spins)],
        ids=["S", "SAX", "S2AX", "S3AX"])
    def test_cross_configuration_audits_read_the_largest_omega_hat(self, system):
        # The spread at each time is fl(top + top), top = fl(M_t s / 2), and rounding is
        # monotone, so the largest spread comes from the largest omega_hat; fl(I - x) does
        # not rise with x, so min_t (I(t) - M_t) is the minimum over every configuration.
        for entry in list_catalog():
            pulse = calibrate(entry.build(), entry.nominal_flip)
            report = explicit_criterion(system, pulse, n_steps=1024, tol=None)
            top = 0.5 * system.s_count * report.max_omega_hat
            assert report.max_eigenvalue_gap == 2 * top, entry.name
            traj = propagate_interaction(system, pulse, n_steps=1024, tol=None)
            omega_hat = extract_omega(traj).omega_hat
            i_grid = np.concatenate(([0.0], np.cumsum(np.abs(traj.amps)) * traj.dt))
            assert report.max_omega_hat == np.max(omega_hat), entry.name
            assert report.bound21_margin == np.min(i_grid - omega_hat), entry.name

    @pytest.mark.parametrize("s_count", [1, 2, 3, 9])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_all_pairs_oracle_on_drawn_omega_hat(self, s_count, data):
        # spreads s M_t up to 6 pi, so most windows hold wide times, with values on and
        # next to 2 pi / s and repeated values (zero gaps) drawn often
        n_configs, n_times = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 24))
        top, edge = 3.0 * TWO_PI / s_count, TWO_PI / s_count
        values = st.one_of(st.floats(0.0, top), st.sampled_from(
            [0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 7.0), top]))
        omega_hat = np.array(data.draw(st.lists(values, min_size=n_configs * n_times,
                                                max_size=n_configs * n_times)))
        omega_hat = omega_hat.reshape(n_configs, n_times)
        omega_hat[0, data.draw(st.integers(0, n_times - 1))] = top  # one wide time at least
        audit = _audit_pairs(omega_hat, s_count)
        assert [gap_audit(x, s_count) for x in _layouts(omega_hat)] == [audit, audit]
        _assert_each_time_matches_oracle(omega_hat, s_count)

    def test_spread_shortcut_matches_all_pairs_oracle_at_two_pi(self):
        # Each time's spread s M_t, for one and two S spins, is drawn narrow (< 2 pi),
        # exactly 2 pi, 2 pi +- 1 ulp or wide (up to 6 pi); half the cases use only narrow
        # and wide times, so their nearest gap often comes from a wide time's pair sweep.
        rng = np.random.default_rng(12)
        edges = (TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0))
        seen_edges = set()
        for case in range(200):
            s_count = 1 + case // 2 % 2  # M_t s / 2 and its double are exact for s = 1, 2
            n_times, n_configs = int(rng.integers(1, 30)), int(rng.integers(1, 5))
            kinds = ("narrow", "wide") + (("edge",) if case % 2 else ())
            omega_hat = np.empty((n_configs, n_times))
            for column in omega_hat.T:
                kind = rng.choice(kinds)
                spread = (rng.choice(edges) if kind == "edge" else
                          rng.uniform(0.0, TWO_PI if kind == "narrow" else 3.0 * TWO_PI))
                column[:] = rng.uniform(0.0, spread, size=n_configs) / s_count
                column[rng.integers(n_configs)] = spread / s_count
            seen_edges.update(set(s_count * np.max(omega_hat, axis=0)) & set(edges))
            audit = _audit_pairs(omega_hat, s_count)
            assert [gap_audit(x, s_count) for x in _layouts(omega_hat)] == [audit, audit], case
            _assert_each_time_matches_oracle(omega_hat, s_count)
        assert seen_edges == set(edges)

    def test_sweeps_only_wide_times_and_their_neighbours(self, monkeypatch):
        swept = []
        sweep = magnus._pair_sweep
        monkeypatch.setattr(magnus, "_pair_sweep",
                            lambda x, s: swept.append(x.shape) or sweep(x, s))
        spreads = np.array([1.0, TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0),
                            9.0, 2.0])
        omega_hat = np.stack((0.5 * spreads, spreads))  # one S spin: the spread is M_t
        for x in _layouts(omega_hat):
            assert gap_audit(x, 1) == _audit_pairs(omega_hat, 1)
        assert swept == [(2, 4), (2, 4)]  # wide at times 3 and 4
        swept.clear()
        assert gap_audit(omega_hat[:, :3], 1) == _audit_pairs(omega_hat[:, :3], 1)
        assert swept == []

    def test_narrow_windows_build_no_eigenvalue_rows(self, monkeypatch, s2ax_system):
        # `_pair_sweep` is the one place the rows m omega_hat_c are built; a window whose
        # spreads stay at or below 2 pi never reaches it
        monkeypatch.setattr(su2, "TRACK_BLOCK", 512)  # 8 windows of 128 steps on S2AX
        windows = _spy_windows(monkeypatch)
        gaussian = build_pulse("gaussian", 2e-3)
        report = explicit_criterion(s2ax_system, calibrate(gaussian, math.pi / 2), n_steps=1024,
                                    tol=None)
        assert report.max_eigenvalue_gap < TWO_PI
        assert [swept for _, swept in windows] == [0] * 8
        windows.clear()
        explicit_criterion(s2ax_system, calibrate(gaussian, TWO_PI), n_steps=1024, tol=None)
        narrow = [swept for spread, swept in windows if spread <= TWO_PI]
        wide = [swept for spread, swept in windows if spread > TWO_PI]
        assert narrow and wide and set(narrow) == {0}
        assert all(0 < swept <= 129 for swept in wide)

    def test_audit_stops_at_a_nearest_distance_of_0(self, monkeypatch):
        # G4 on 128 S spins has two wide windows, and the first already reads a distance of 0;
        # the report is the one an audit of both windows gives
        system = SpinSystem(s_count=128, s_offset=600.0)
        entry = resolve_pulse("G4")
        pulse = calibrate(entry.build(), entry.nominal_flip)
        audits = [gap_audit(omega_hat, system.s_count) for _, _, omega_hat, _ in
                  magnus._omega_blocks(propagate_interaction(system, pulse).q)]
        assert len(audits) == 2 and min(audits)[0] > TWO_PI and audits[0][1] == 0.0
        swept = []
        sweep = magnus._pair_sweep
        monkeypatch.setattr(magnus, "_pair_sweep",
                            lambda x, s: swept.append(x.shape) or sweep(x, s))
        report = explicit_criterion(system, pulse)
        assert len(swept) == 1
        gap, nearest = max(gap for gap, _ in audits), min(nearest for _, nearest in audits)
        assert repr(report) == repr(dataclasses.replace(
            report, max_eigenvalue_gap=gap, magnus_gap_nearest=nearest,
            magnus_criterion_ok=nearest > DEFAULT_GAP_TOL))

    @pytest.mark.parametrize("system", ["sax_system", "s2ax_system"])
    def test_matches_all_pairs_oracle_on_catalog(self, request, monkeypatch, system):
        seen = []

        def spy(omega_hat, s_count):
            seen.append(omega_hat.copy())
            return gap_audit(omega_hat, s_count)

        monkeypatch.setattr(magnus, "gap_audit", spy)
        monkeypatch.setattr(su2, "TRACK_BLOCK", 1000)  # several time blocks per report
        system = request.getfixturevalue(system)
        for entry in list_catalog():
            pulse = calibrate(entry.build(), entry.nominal_flip)
            report = explicit_criterion(system, pulse, n_steps=1024, tol=None)
            omega_hat = np.concatenate(seen, axis=1)
            seen.clear()
            audit = _audit_pairs(omega_hat, system.s_count)
            assert (report.max_eigenvalue_gap, report.magnus_gap_nearest) == audit, entry.name
            assert [gap_audit(x, system.s_count) for x in _layouts(omega_hat)] == [audit, audit]


class TestExplicitCriterion:
    def test_gaussian_270_nonnegative(self, sa_system, gaussian270):
        # same quadrature grid as the calibration, so the flip identity is exact
        report = explicit_criterion(sa_system, gaussian270, n_steps=4096, tol=1e-7)
        assert report.criterion23_met
        assert report.criterion25_met
        assert report.i_total == pytest.approx(1.5 * math.pi, rel=1e-9)
        assert report.i_total == pytest.approx(report.theta_total, abs=1e-12)
        assert report.magnus_criterion_ok
        assert report.bound21_margin >= -1e-6

    @pytest.mark.parametrize("system", ["sax_system", "s2ax_system"])
    def test_fast_paths_match_dense_forms_bit_for_bit(self, request, monkeypatch, system):
        # The gap audit's spread shortcut from the largest omega_hat per time, the scan
        # in time chunks from each chunk's levels and the blocked tracker's sparse fill and
        # unwrap, against the all-pairs audit of every eigenvalue m omega_hat_c, a scan of
        # its own over the whole grid and the dense tracker over the whole grid.
        system = request.getfixturevalue(system)
        pulses = [calibrate(entry.build(), entry.nominal_flip) for entry in list_catalog()]

        def reports():
            return [repr(dataclasses.replace(r, ambiguity_times=r.ambiguity_times.tolist()))
                    for r in (explicit_criterion(system, pulse) for pulse in pulses)]

        fast = reports()
        scan = su2.scan
        monkeypatch.setattr(magnus, "gap_audit", _audit_pairs)
        monkeypatch.setattr(su2, "scan", lambda x, levels=(): scan(x))
        monkeypatch.setattr(su2, "SCAN_BLOCK", 1 << 60)  # one chunk: every grid is scanned whole
        monkeypatch.setattr(su2, "TRACK_BLOCK", 1 << 40)  # the dense tracker runs as one block
        monkeypatch.setattr(su2, "track_rows", lambda c, v, state: oracle.track_rows_dense(c, v))
        _track_instead(monkeypatch)  # else the principal walk answers most reports untracked
        assert fast == reports()

    @pytest.mark.parametrize("system", ["s_only_system", "sax_system", "s2ax_system"])
    def test_principal_walk_matches_the_tracker_bit_for_bit(self, request, monkeypatch, system):
        # Every catalog pulse at its nominal flip, 360 and 720 deg, at the defaults: the same
        # report as tracking every configuration, wherever that gives one. Where it raises,
        # the criterion reports only if every configuration's delta_c is above MINUS_E_TOL.
        system = request.getfixturevalue(system)
        pulses = [calibrate(entry.build(), flip) for entry in list_catalog()
                  for flip in (entry.nominal_flip, TWO_PI, 2.0 * TWO_PI)]
        tracked = _spy_tracked_rows(monkeypatch)
        principal, untracked = [], 0
        for pulse in pulses:
            tracked.clear()
            principal.append(_outcome(system, pulse))
            untracked += not tracked
        # on S at 0 Hz every 360 and 720 deg pulse passes -E; beside spectators none comes near
        assert untracked == (8 if system.n_configs == 1 else len(pulses))
        _track_instead(monkeypatch)
        for pulse, outcome in zip(pulses, principal):
            everywhere = _outcome(system, pulse)
            if everywhere.startswith("ExtractionError") and not outcome.startswith("Extraction"):
                assert np.min(_closest(propagate_interaction(system, pulse).q)) > MINUS_E_TOL
            else:
                assert outcome == everywhere

    def test_g4_on_sax_is_never_tracked(self, monkeypatch, sax_system):
        entry = resolve_pulse("G4")
        pulse = calibrate(entry.build(), entry.nominal_flip)
        monkeypatch.setattr(su2, "track_rows", None)  # a call would raise TypeError
        report = explicit_criterion(sax_system, pulse)
        assert report.criterion23_met and report.magnus_criterion_ok

    def test_uburp_540_on_four_spectators_tracks_one_row_and_raises(self, monkeypatch):
        # Of the 16 configurations, only 15 comes within MINUS_E_TOL of -E (delta = 9.7e-9);
        # the criterion tracks it alone and raises at the step its row raises at by itself
        system = _spectators(4)
        pulse = calibrate(resolve_pulse("U-BURP").build(), 1.5 * TWO_PI, 1024)
        traj = propagate_interaction(system, pulse, n_steps=1024)
        with pytest.raises(ExtractionError) as alone:
            extract_omega(dataclasses.replace(traj, q=traj.q[:, 15:16]))
        tracked = _spy_tracked_rows(monkeypatch)
        message = r"4\.758 rad between stored samples \(config 15, step 7877\)"
        with pytest.raises(ExtractionError, match=message) as raised:
            explicit_criterion(system, pulse, n_steps=1024)
        assert set(tracked) == {1}
        assert str(raised.value) == str(alone.value).replace("config 0,", "config 15,")

    def test_only_configurations_at_minus_e_are_tracked(self, monkeypatch):
        # Configuration 0 turns about x by 0.01 a step, 1 by 0.1 a step through 2 pi at step
        # 10.5, and 2 holds still at 2 pi - 1e-3 (1 + c = 1.25e-7), below D**2 / 8 = 3.1e-4 of
        # the fastest turn: the rule reads 2's slices off consecutive samples, which do not
        # turn, and tracks 1 alone. Its passage is the report's one -E time.
        angles = np.stack((0.01 * np.arange(40.0), TWO_PI - 1.05 + 0.1 * np.arange(40.0),
                           np.full(40, TWO_PI - 1e-3)))
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = _turning_about_x(propagate_interaction(SpinSystem(), pulse, n_steps=39, tol=None),
                                angles)
        _stream_instead(monkeypatch, traj)
        tracked = _spy_tracked_rows(monkeypatch)
        report = explicit_criterion(SpinSystem(), pulse)
        assert tracked == [1]
        assert report.max_omega_hat == pytest.approx(TWO_PI + 2.85)
        assert report.ambiguity_times == pytest.approx([10.5 * traj.dt], rel=1e-9)
        assert _closest(traj.q)[2] == pytest.approx(1.0 - math.cos(5e-4), rel=1e-6)

    def test_closest_approach_matches_sampled_slices(self, sax_system):
        # At 360 deg the catalog comes near -E inside slices, at the nominal flip at a sample;
        # on 2**17 steps 64 points a slice find each row's minimum to within 1e-12
        for entry in list_catalog():
            for flip in (entry.nominal_flip, TWO_PI):
                pulse = calibrate(entry.build(), flip)
                q = propagate_interaction(sax_system, pulse, n_steps=1 << 17, tol=None).q
                delta, sampled = _closest(q), _sampled_closest(q)
                assert np.all(delta <= sampled), entry.name
                assert np.all(sampled - delta <= 1e-12), entry.name

    @pytest.mark.parametrize("scale", [1.0, 1.001])
    def test_constant_pulse_passes_minus_e_where_its_closed_form_does(self, monkeypatch, scale):
        # U = -E at t = T / 1.1 (ROADMAP item 8); 0.1 % further off resonance it misses -E
        # by delta = 2.8e-6
        system, pulse = _minus_e_constant_pulse(scale)
        tracked = _spy_tracked_rows(monkeypatch)
        report = explicit_criterion(system, pulse)
        (delta,) = _closest(propagate_interaction(system, pulse).q)
        if scale == 1.0:
            assert abs(delta) <= 1e-10
            assert set(tracked) == {1}
            assert report.ambiguity_times == pytest.approx([pulse.duration / 1.1], rel=1e-4)
        else:
            assert delta == pytest.approx(2.8e-6, rel=0.02)
            assert tracked == []
            assert len(report.ambiguity_times) == 0

    def test_rows_that_pass_the_cheap_check_compose_no_slice(self, monkeypatch, sax_system):
        # G4 keeps every configuration's 1 + min c above 1.6, far above D**2 / 8 + MINUS_E_TOL:
        # no slice U_{k+1} U_k^dagger is composed. U-BURP at 360 deg brings configuration 3
        # within 9.5e-7 of -E at a sample, below D**2 / 8 = 1.9e-6, and the other three no
        # nearer than 3.8e-6, so the slices of one row are composed.
        composed = []
        compose = su2.compose
        for name, flip, expected in (("G4", math.pi / 2, []), ("U-BURP", TWO_PI, [1])):
            pulse = calibrate(resolve_pulse(name).build(), flip)
            traj = propagate_interaction(sax_system, pulse)
            _stream_instead(monkeypatch, traj)
            monkeypatch.setattr(su2, "compose", lambda p, *args, **kwargs: composed.append(
                p.shape[1]) or compose(p, *args, **kwargs))
            explicit_criterion(sax_system, pulse)
            assert sorted(set(composed)) == expected, name
            monkeypatch.setattr(su2, "compose", compose)

    def test_minus_e_to_rounding_goes_to_the_tracker(self, monkeypatch):
        # A configuration held at -E with |q|**2 = 1 - 2e-12: D = 0 and delta = 1e-12 is at
        # most MINUS_E_TOL, which sends it to the tracker; it flags every sample, where
        # 2 atan2(0, c) would read 2 pi without a flag
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = propagate_interaction(SpinSystem(), pulse, n_steps=8, tol=None)
        traj = dataclasses.replace(traj, q=np.stack((np.full((1, 9), -(1.0 - 1e-12) + 0j),
                                                     np.zeros((1, 9), complex))))
        _stream_instead(monkeypatch, traj)
        report = explicit_criterion(SpinSystem(), pulse)
        assert report.max_omega_hat == TWO_PI
        assert report.ambiguity_times.tolist() == traj.times[1:].tolist()

    def test_principal_walk_holds_a_few_windows(self, monkeypatch):
        # 32 configurations x 16385 samples in windows of 512 steps, turning about x by 1e-4
        # a step: the whole walk is principal and allocates about two windows of q, not the
        # whole-grid angles
        n_times = 16385
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = propagate_interaction(SpinSystem(), pulse, n_steps=n_times - 1, tol=None)
        traj = _turning_about_x(traj, np.tile(1e-4 * np.arange(float(n_times)), (32, 1)))
        _stream_instead(monkeypatch, traj)
        monkeypatch.setattr(su2, "track_rows", None)  # a call would raise TypeError
        tracemalloc.start()
        try:
            report = explicit_criterion(SpinSystem(), pulse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_omega_hat == pytest.approx(1.6384)
        assert peak < 4 * traj.q[..., :513].nbytes

    def test_arctan2_is_odd_bit_for_bit_on_the_unit_circle(self):
        # The principal walk reads 2 atan2(|v|, c) where the tracker, past an axis flip, takes
        # |2 atan2(-|v|, c)|: numpy's atan2 must be odd to the bit on the contiguous rows both
        # walks pass it, under the CPU features it dispatches to
        half = np.random.default_rng(42).uniform(0.0, math.pi, 1 << 20)
        tiny = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-20, 1e-9]
        ends = [1.0, -1.0, 0.0, -0.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]
        norm = np.concatenate((np.sin(half), np.repeat(tiny, len(ends)), [1.0, 1.0]))
        c = np.concatenate((np.cos(half), np.tile(ends, len(tiny)), [0.0, -0.0]))
        assert np.array_equal(np.arctan2(-norm, c).view(np.int64),
                              np.negative(np.arctan2(norm, c)).view(np.int64))

    def test_reburp_540_near_resonance_stays_off_minus_e(self):
        # RE-BURP at 540 deg on S at 0.5 Hz comes within delta = 3.2e-8 of -E (ROADMAP item
        # 13), above MINUS_E_TOL: its one exponent is the principal one, with no -E passage,
        # and its largest omega_hat, 2 arccos(delta - 1), is what 64 times the grid tracks
        system = SpinSystem(s_count=1, s_offset=TWO_PI * 0.5)
        pulse = calibrate(resolve_pulse("RE-BURP").build(), 1.5 * TWO_PI)
        report = explicit_criterion(system, pulse)
        assert report.trajectory_steps == 8192
        assert len(report.ambiguity_times) == 0
        assert report.magnus_criterion_ok
        (delta,) = _closest(propagate_interaction(system, pulse).q)
        assert MINUS_E_TOL < delta < 1e-7
        top = 2.0 * math.acos(delta - 1.0)
        assert report.max_omega_hat <= top
        dense = extract_omega(propagate_interaction(system, pulse, n_steps=1 << 19, tol=None))
        assert top == pytest.approx(np.max(dense.omega_hat), abs=1e-5)

    @pytest.mark.parametrize("block", [8, 1 << 40])
    def test_crossing_on_a_track_block_edge(self, monkeypatch, block):
        # omega_hat rises by 2 pi / 7.5 a step, so it passes 2 pi halfway between samples
        # 7 and 8, across the edge of the first block of 8 samples; no sample is within
        # 0.4 of any 2 pi n.
        traj = propagate_interaction(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0),
                                     n_steps=11, tol=None)
        traj = _turning_about_x(traj, (TWO_PI / 7.5) * np.arange(12.0)[None])
        monkeypatch.setattr(su2, "TRACK_BLOCK", block)
        _stream_instead(monkeypatch, traj)
        report = explicit_criterion(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0))
        assert report.max_eigenvalue_gap == pytest.approx(11 * TWO_PI / 7.5)
        assert report.magnus_gap_nearest == 0.0
        assert not report.magnus_criterion_ok
        assert report.ambiguity_times == pytest.approx([7.5 * traj.dt], rel=1e-12)

    def test_passage_of_equal_configurations_listed_once(self):
        # A J = 0 spectator gives two configurations with one trajectory; their
        # passage between samples 18703 and 18704 is one time.
        pulse = calibrate(build_pulse("gaussian", 1e-3), 3.0 * math.pi)
        system = SpinSystem(s_offset=0.0, i_spins=(ISpin(offset=TWO_PI * 30.0, j_to_s=0.0),))
        (passage,) = explicit_criterion(system, pulse).ambiguity_times
        assert 18703 * 1e-3 / 32768 <= passage <= 18704 * 1e-3 / 32768

    def test_reburp_violates(self, sa_system):
        entry = resolve_pulse("reburp")
        pulse = calibrate(entry.build(), entry.nominal_flip)
        report = explicit_criterion(sa_system, pulse, n_steps=1024, tol=1e-7)
        assert not report.criterion23_met
        assert report.criterion25_met  # flip angle itself is only pi
        assert report.i_total > TWO_PI
        # the integrals are the quadrature's own, on the requested (not the refined) grid
        assert (report.theta_total, report.i_total) == midpoint_integrals(pulse, pulse.duration,
                                                                          1024)

    def test_uburp_360_on_sax_extracts(self, sax_system):
        # configuration 3 comes within delta = 9.45e-7 of -E, too near for the tracker on the
        # accepted grid, but not at it: every exponent is principal
        report = explicit_criterion(sax_system, calibrate(resolve_pulse("U-BURP").build(), TWO_PI))
        assert not report.criterion23_met  # I(T) = 68.3
        assert report.max_omega_hat < TWO_PI
        assert len(report.ambiguity_times) == 0

    def test_hard_two_pi_pulse_degeneracy(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), TWO_PI)
        report = explicit_criterion(s_only_system, pulse, n_steps=256, tol=1e-10)
        assert not report.criterion23_met  # I(T) = 2*pi exactly, not strictly below
        assert not report.magnus_criterion_ok
        assert report.magnus_gap_nearest == pytest.approx(0.0, abs=1e-9)
        assert report.max_omega_hat == pytest.approx(TWO_PI, abs=1e-6)
        assert len(report.ambiguity_times) >= 1

        traj = propagate_interaction(s_only_system, pulse, n_steps=256, tol=1e-10)
        assert np.allclose(su2.to_matrix(traj.q[..., -1])[0], -np.eye(2), atol=1e-10)

    def test_bound_triangle_and_implication_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            system = random_small_system(rng)
            target = rng.uniform(0.3, 1.8) * math.pi
            pulse = calibrate(random_fourier_pulse(rng), target)
            report = explicit_criterion(system, pulse, n_steps=512, tol=1e-6)
            assert report.bound21_margin >= -1e-6
            assert report.max_eigenvalue_gap <= report.i_total + 1e-6
            if report.criterion23_met:
                assert report.magnus_criterion_ok


#: Requests whose streamed criterion is checked against the audit of the stored trajectory.
STREAMED = {
    "n_steps-1000": lambda: (_sax(), calibrate(resolve_pulse("G4").build(), math.pi / 2),
                             {"n_steps": 1000}),
    "n_steps-3072": lambda: (_s2ax(), calibrate(resolve_pulse("Q5").build(), math.pi / 2),
                             {"n_steps": 3072, "tol": None}),
    "phased": lambda: (_sax(), dataclasses.replace(
        _gaussian90(), phase_fn=lambda t: TWO_PI * 3e5 * t * t), {}),
    "minus-e-passage": lambda: _minus_e_constant_pulse() + ({},),
    "u-burp-540-four-spectators": lambda: (
        _spectators(4), calibrate(resolve_pulse("U-BURP").build(), 1.5 * TWO_PI, 1024),
        {"n_steps": 1024}),
}


class TestStreamedCriterion:
    """The criterion stores no trajectory: it audits each time chunk as it is scanned."""

    @staticmethod
    def _stored(monkeypatch, system, pulse, **kwargs):
        """The criterion's outcome on `propagate_interaction`'s stored trajectory, one chunk."""
        with monkeypatch.context() as patch:
            _stream_instead(patch, propagate_interaction(system, pulse, **kwargs))
            return _outcome(system, pulse, **kwargs)

    @pytest.mark.parametrize("system", ["s_only_system", "sax_system", "s2ax_system"])
    def test_catalog_matches_the_stored_audit_bit_for_bit(self, request, monkeypatch, system):
        system = request.getfixturevalue(system)
        for entry in list_catalog():
            for flip in (entry.nominal_flip, TWO_PI, 1.5 * TWO_PI, 2.0 * TWO_PI):
                pulse = calibrate(entry.build(), flip)
                assert _outcome(system, pulse) == self._stored(monkeypatch, system, pulse), (
                    entry.name, flip)

    @pytest.mark.parametrize("scan_block", [su2.SCAN_BLOCK, 0], ids=["default", "1024-steps"])
    @pytest.mark.parametrize("case", sorted(STREAMED))
    def test_request_matches_the_stored_audit_bit_for_bit(self, monkeypatch, case, scan_block):
        # SCAN_BLOCK 0 gives chunks of 1024 steps, so most grids stream in many chunks
        monkeypatch.setattr(su2, "SCAN_BLOCK", scan_block)
        system, pulse, kwargs = STREAMED[case]()
        starts, audit = [], magnus._audit
        monkeypatch.setattr(magnus, "_audit", lambda chunks, *args: audit(
            (starts.append(chunk[0]) or chunk for chunk in chunks), *args))
        streamed = _outcome(system, pulse, **kwargs)
        monkeypatch.setattr(magnus, "_audit", audit)
        assert streamed == self._stored(monkeypatch, system, pulse, **kwargs)
        if case == "minus-e-passage":  # its one configuration is tracked, in a second walk
            assert "ambiguity_times=[0.0009090" in streamed and starts.count(0) == 2
        if case == "u-burp-540-four-spectators":
            assert streamed.endswith("(config 15, step 7877); re-run the propagation with "
                                     "more steps")
        if scan_block == 0 and case != "n_steps-1000":  # 1000 = 8 x 125 is one chunk
            assert len(set(starts)) > 2

    def test_grid_not_finite_raises_before_the_audit(self, monkeypatch):
        # w = 2 pi 2e307 rad/s is finite, but w t overflows past t = 1 s of a 4 s pulse: the
        # chunk's endpoint is NaN, and the audit is given no chunk
        system, pulse = SpinSystem(s_offset=TWO_PI * 2e307), build_pulse("constant", 4.0)
        audited, audit = [], magnus._audit
        monkeypatch.setattr(magnus, "_audit", lambda chunks, *args: audit(
            (audited.append(chunk[0]) or chunk for chunk in chunks), *args))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                RefinementError, match="endpoint is not finite on the grid of 64 steps"):
            explicit_criterion(system, pulse, n_steps=64, tol=None)
        assert audited == []

    def test_stores_no_trajectory(self, sax_system):
        # 4 configurations x 2**17 steps: the trajectory is 16.8 MB; the criterion holds one
        # chunk of 16384 steps and its reduction tree, 2.1 MB each
        entry = resolve_pulse("G4")
        pulse, n_steps = calibrate(entry.build(), entry.nominal_flip), 1 << 17
        tracemalloc.start()
        try:
            explicit_criterion(sax_system, pulse, n_steps=n_steps, tol=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sax_system.n_configs * (n_steps + 1) * 16 / 3

    def test_memory_stays_bounded_as_spectators_grow(self):
        # G4 on 6 distinct spectators, 64 configurations x 32768 steps: 67 MB of trajectory
        entry = resolve_pulse("G4")
        pulse = calibrate(entry.build(), entry.nominal_flip)
        tracemalloc.start()
        try:
            report = explicit_criterion(_spectators(6), pulse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trajectory_steps == 32768
        assert peak < 16e6


class TestWeakField:
    def test_zero_time(self, gaussian90):
        assert midpoint_integrals(gaussian90, 0.0)[0] == 0.0

    def test_error_decreases_with_amplitude(self, sax_system, gaussian90):
        errors = []
        pulse = gaussian90
        for _ in range(4):
            traj = propagate_interaction(sax_system, pulse, n_steps=512, tol=1e-8)
            sol = extract_omega(traj)
            approx = midpoint_integrals(pulse, pulse.duration, 512)[0]
            errors.append(float(np.max(np.abs(approx - sol.omega_hat[:, -1]))))
            pulse = scale_amplitude(pulse, 0.5)
        assert all(b < a for a, b in zip(errors, errors[1:]))


class TestPartialSums:
    def test_zero_field(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        sums = magnus_partial_sums(sax_system, pulse, n_steps=64)
        assert np.allclose(sums, 0.0)

    def test_commuting_case_higher_orders_vanish(self, s_only_system):
        pulse = calibrate(build_pulse("gaussian", 1e-3), math.pi / 2)
        sums = magnus_partial_sums(s_only_system, pulse, n_steps=128)
        first = sums[:, 0, 0]
        assert np.allclose(first, [midpoint_integrals(pulse, 1e-3, 128)[0], 0.0, 0.0], atol=1e-12)
        assert np.allclose(sums[:, 0, 1], first, atol=1e-14)
        assert np.allclose(sums[:, 0, 2], first, atol=1e-14)

    def test_terms_are_hermitian(self, sa_system, gaussian90):
        # a real rotation vector a is the Hermitian a . S
        sums = magnus_partial_sums(sa_system, gaussian90, n_steps=128)
        assert sums.shape == (3, sa_system.n_configs, 3)
        assert sums.dtype == np.float64

    def test_order_three_beats_order_one(self, sa_system, gaussian90):
        traj = propagate_interaction(sa_system, gaussian90, n_steps=1024, tol=1e-9)
        exact = su2.to_matrix(traj.q[..., -1])
        hermitian = _hermitian(magnus_partial_sums(sa_system, gaussian90, n_steps=512))
        for ci in range(hermitian.shape[0]):
            err1 = np.linalg.norm(scipy.linalg.expm(-1j * hermitian[ci, 0]) - exact[ci])
            err3 = np.linalg.norm(scipy.linalg.expm(-1j * hermitian[ci, 2]) - exact[ci])
            assert err3 < err1

    def test_vector_form_matches_matrix_loop(self, sax_system, gaussian90):
        hermitian = _hermitian(magnus_partial_sums(sax_system, gaussian90, n_steps=256))
        for order in (1, 2, 3):
            ref = oracle.magnus_partial_sums_loop(sax_system, gaussian90, n_steps=256, order=order)
            assert np.max(np.abs(hermitian[:, :order] - ref)) < 1e-12
