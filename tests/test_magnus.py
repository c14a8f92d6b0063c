import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from magnuspulse import (
    ISpin,
    SpinSystem,
    build_pulse,
    calibrate,
    angles_from_state,
    explicit_criterion,
    extract_omega,
    flip_angle,
    gap_audit,
    integrate_expansion,
    list_catalog,
    magnus_partial_sums,
    propagate_interaction,
    resolve_pulse,
    scale_amplitude,
    su2,
)
from magnuspulse import magnus
from magnuspulse.magnus import DEFAULT_GAP_TOL, ExtractionError
from magnuspulse.su2 import SX, SY, SZ
from magnuspulse.verify import random_fourier_pulse, random_small_system
import oracle

TWO_PI = 2.0 * math.pi


def _layouts(rows):
    """The same (n_values, n_times) eigenvalue rows C-ordered and as a time-major view."""
    return np.ascontiguousarray(rows), np.asfortranarray(rows)


def _assert_each_time_matches_oracle(rows):
    """gap_audit of each time alone equals the oracle's: the distances, with no time in between."""
    for time in range(rows.shape[1]):
        column = rows[:, time:time + 1]
        assert gap_audit(column) == oracle.gap_audit_pairs(column), time


def _hermitian(sums):
    """The (n_configs, order, 2, 2) matrices a . S of the (3, n_configs, order) partial sums."""
    return np.einsum("jcm,jab->cmab", sums, np.stack((SX, SY, SZ)))


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
        angles = np.tile(0.1 * np.arange(24.0), (3, 1))
        angles[2, 10:] += 3.5
        angles[1, 10:] += 3.3
        angles[0, 16:] += 3.2
        traj = propagate_interaction(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0),
                                     n_steps=23, tol=None)
        x_axis = np.array([1.0, 0.0, 0.0])[:, None, None]
        traj = dataclasses.replace(traj, q=su2.exp(x_axis * angles))
        monkeypatch.setattr(magnus, "TRACK_BLOCK", block)
        monkeypatch.setattr(magnus, "propagate_interaction", lambda *args, **kwargs: traj)
        message = r"jumped by 3\.400 rad between stored samples \(config 1, step 10\)"
        with pytest.raises(ExtractionError, match=message):
            extract_omega(traj)
        with pytest.raises(ExtractionError, match=message):
            explicit_criterion(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0))

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
        x_axis = np.array([1.0, 0.0, 0.0])[:, None, None]
        traj = dataclasses.replace(traj, q=su2.exp(x_axis * angles))
        del angles
        monkeypatch.setattr(magnus, "propagate_interaction", lambda *args, **kwargs: traj)
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
        pulse = resolve_pulse("q3").build_calibrated(TWO_PI)
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
        _, nearest = gap_audit(np.array([[math.pi / 4], [-math.pi / 4]]))
        assert nearest > DEFAULT_GAP_TOL
        assert nearest == pytest.approx(TWO_PI - math.pi / 2)

    def test_gap_check_violation_at_n1(self):
        _, nearest = gap_audit(np.array([[math.pi], [-math.pi]]))
        assert not nearest > DEFAULT_GAP_TOL
        assert nearest == pytest.approx(0.0, abs=1e-12)

    def test_gap_check_zero_eigenvalues_ok(self):
        _, nearest = gap_audit(np.array([[0.0], [0.0]]))
        assert nearest > DEFAULT_GAP_TOL
        assert nearest == pytest.approx(TWO_PI)

    def test_gap_check_single_value(self):
        for rows in _layouts(np.array([[0.3, -1.0, 7.0]])):
            assert gap_audit(rows) == (0.0, math.inf)

    def test_matches_all_pairs_oracle_on_random_spectra(self):
        rng = np.random.default_rng(8)
        special = [
            lambda n: np.zeros(n),
            lambda n: rng.choice([-1.0, 0.5, 2.0], size=n),  # duplicates
            lambda n: np.resize([math.pi, -math.pi], n),
            lambda n: np.resize([0.0, TWO_PI, 2.0 * TWO_PI, -TWO_PI], n),  # exactly 2 pi n apart
        ]
        for n_values in range(1, 41):
            n_times = int(rng.integers(4, 40))
            rows = rng.uniform(-3.0 * TWO_PI, 3.0 * TWO_PI, size=(n_values, n_times))
            for time, fill in enumerate(special):
                rows[:, time] = fill(n_values)
            audit = oracle.gap_audit_pairs(rows)
            assert [gap_audit(x) for x in _layouts(rows)] == [audit, audit], n_values
            _assert_each_time_matches_oracle(rows)

    def test_spread_shortcut_matches_all_pairs_oracle_at_two_pi(self):
        # Each time's spread is drawn narrow (< 2 pi), exactly 2 pi, 2 pi +- 1 ulp
        # or wide (up to 6 pi); half the spectra use only narrow and wide times, so
        # their nearest gap often comes from a wide time's pair sweep.
        rng = np.random.default_rng(12)
        edges = (TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0))
        seen_edges = set()
        for case in range(200):
            n_times, n_values = int(rng.integers(1, 30)), int(rng.integers(2, 12))
            kinds = ("narrow", "wide") + (("edge",) if case % 2 else ())
            rows = np.empty((n_values, n_times))
            for row in rows.T:
                kind = rng.choice(kinds)
                if kind == "edge":
                    hi, lo = rng.choice(edges), 0.0  # fl(hi - 0.0) is hi exactly
                else:
                    lo = rng.uniform(-TWO_PI, TWO_PI)
                    hi = lo + rng.uniform(0.0, TWO_PI if kind == "narrow" else 3.0 * TWO_PI)
                row[:] = rng.uniform(lo, hi, size=n_values)
                row[:2] = lo, hi
                rng.shuffle(row)
            seen_edges.update(set(np.ptp(rows, axis=0)) & set(edges))
            audit = oracle.gap_audit_pairs(rows)
            assert [gap_audit(x) for x in _layouts(rows)] == [audit, audit], case
            _assert_each_time_matches_oracle(rows)
        assert seen_edges == set(edges)

    def test_sweeps_only_wide_times_and_their_neighbours(self, monkeypatch):
        swept = []
        sweep = magnus._pair_sweep
        monkeypatch.setattr(magnus, "_pair_sweep", lambda rows: swept.append(rows.shape) or sweep(rows))
        spreads = np.array([1.0, TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0),
                            9.0, 2.0])
        rows = np.stack((np.zeros(6), 0.5 * spreads, spreads))
        for x in _layouts(rows):
            assert gap_audit(x) == oracle.gap_audit_pairs(rows)
        assert swept == [(3, 4), (3, 4)]  # wide at times 3 and 4
        swept.clear()
        assert gap_audit(rows[:, :3]) == oracle.gap_audit_pairs(rows[:, :3])
        assert swept == []

    @pytest.mark.parametrize("system", ["sax_system", "s2ax_system"])
    def test_matches_all_pairs_oracle_on_catalog(self, request, monkeypatch, system):
        seen = []

        def spy(rows):
            seen.append(rows)
            return gap_audit(rows)

        monkeypatch.setattr(magnus, "gap_audit", spy)
        monkeypatch.setattr(magnus, "TRACK_BLOCK", 1000)  # several time blocks per report
        system = request.getfixturevalue(system)
        for entry in list_catalog():
            report = explicit_criterion(system, entry.build_calibrated(), n_steps=1024, tol=None)
            rows = np.concatenate(seen, axis=1)
            seen.clear()
            audit = oracle.gap_audit_pairs(rows)
            assert (report.max_eigenvalue_gap, report.magnus_gap_nearest) == audit, entry.name
            assert [gap_audit(x) for x in _layouts(rows)] == [audit, audit], entry.name


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
        # The gap audit's spread shortcut, the scan from the endpoint reduction's
        # levels and the blocked tracker's sparse fill and unwrap, against the
        # all-pairs audit, a scan of its own and the dense tracker over the whole grid.
        system = request.getfixturevalue(system)
        pulses = [entry.build_calibrated() for entry in list_catalog()]

        def reports():
            return [repr(dataclasses.replace(r, ambiguity_times=r.ambiguity_times.tolist()))
                    for r in (explicit_criterion(system, pulse) for pulse in pulses)]

        fast = reports()
        scan = su2.scan
        monkeypatch.setattr(magnus, "gap_audit", oracle.gap_audit_pairs)
        monkeypatch.setattr(su2, "scan", lambda x, levels=(): scan(x))
        monkeypatch.setattr(magnus, "TRACK_BLOCK", 1 << 40)  # the dense tracker runs as one block
        monkeypatch.setattr(su2, "track_rows", lambda c, v, state: oracle.track_rows_dense(c, v))
        assert fast == reports()

    @pytest.mark.parametrize("block", [8, 1 << 40])
    def test_crossing_on_a_track_block_edge(self, monkeypatch, block):
        # omega_hat rises by 2 pi / 7.5 a step, so it passes 2 pi halfway between samples
        # 7 and 8, across the edge of the first block of 8 samples; no sample is within
        # 0.4 of any 2 pi n.
        traj = propagate_interaction(SpinSystem(), build_pulse("constant", 1e-3, amplitude=0.0),
                                     n_steps=11, tol=None)
        x_axis = np.array([1.0, 0.0, 0.0])[:, None, None]
        traj = dataclasses.replace(traj, q=su2.exp(x_axis * (TWO_PI / 7.5) * np.arange(12.0)))
        monkeypatch.setattr(magnus, "TRACK_BLOCK", block)
        monkeypatch.setattr(magnus, "propagate_interaction", lambda *args, **kwargs: traj)
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
        pulse = entry.build_calibrated()
        report = explicit_criterion(sa_system, pulse, n_steps=1024, tol=1e-7)
        assert not report.criterion23_met
        assert report.criterion25_met  # flip angle itself is only pi
        assert report.i_total > TWO_PI

    @pytest.mark.xfail(strict=True, raises=ExtractionError,
                       reason="refinement converges, but the accepted grid still jumps by "
                              "3.290 rad (config 3, step 5019); slice-local refinement "
                              "(ROADMAP item 7) would track it")
    def test_uburp_360_on_sax_extracts(self, sax_system):
        report = explicit_criterion(sax_system, resolve_pulse("U-BURP").build_calibrated(TWO_PI))
        assert not report.criterion23_met  # I(T) = 68.3

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


class TestWeakField:
    def test_zero_time(self, gaussian90):
        assert flip_angle(gaussian90, 0.0) == 0.0

    def test_error_decreases_with_amplitude(self, sax_system, gaussian90):
        errors = []
        pulse = gaussian90
        for _ in range(4):
            traj = propagate_interaction(sax_system, pulse, n_steps=512, tol=1e-8)
            sol = extract_omega(traj)
            approx = flip_angle(pulse, pulse.duration, 512)
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
        assert np.allclose(first, [flip_angle(pulse, 1e-3, 128), 0.0, 0.0], atol=1e-12)
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
