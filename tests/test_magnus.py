import math

import numpy as np
import pytest
import scipy.linalg

from magnuspulse import (
    SpinSystem,
    angles_from_omega,
    build_pulse,
    calibrate,
    explicit_criterion,
    extract_omega,
    flip_angle,
    magnus_gap_check,
    magnus_partial_sums,
    omega_eigenvalues,
    propagate_interaction,
    resolve_pulse,
    scale_amplitude,
)
from magnuspulse.magnus import ExtractionError, reconstruct_blocks, total_sz_quantum_numbers
from magnuspulse.propagation import SX, SY, SZ
from conftest import random_fourier_pulse, random_small_system
import oracle

TWO_PI = 2.0 * math.pi


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
        assert np.allclose(sol.omega[0, :, 0], expected, atol=1e-9)
        assert np.allclose(sol.omega[0, :, 1:], 0.0, atol=1e-9)
        crossing = np.argmin(np.abs(expected - TWO_PI))
        assert sol.ambiguous[0, crossing]
        assert sol.ambiguous.sum() == 1

    def test_gaussian_sax_reconstruction(self, sax_system, gaussian90):
        traj = propagate_interaction(sax_system, gaussian90, n_steps=1024, tol=1e-8)
        sol = extract_omega(traj)
        rebuilt = reconstruct_blocks(sol)
        unflagged = ~sol.ambiguous
        err = np.linalg.norm(rebuilt - traj.blocks, axis=(-2, -1))
        assert float(err[unflagged].max()) < 1e-8

    def test_too_coarse_grid_rejected(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), 3.0 * math.pi)
        with pytest.raises(ExtractionError, match="more steps"):
            traj = propagate_interaction(s_only_system, pulse, n_steps=2, tol=None)
            extract_omega(traj)


class TestAnglesFromOmega:
    def test_z_axis(self):
        assert angles_from_omega(0.0, 0.0, 1.3) == pytest.approx((0.0, 0.0, 1.3))

    def test_x_axis(self):
        alpha, beta, ohat = angles_from_omega(0.7, 0.0, 0.0)
        assert (alpha, beta, ohat) == pytest.approx((0.0, math.pi / 2, 0.7))

    def test_y_axis(self):
        alpha, beta, ohat = angles_from_omega(0.0, 0.7, 0.0)
        assert (alpha, beta, ohat) == pytest.approx((math.pi / 2, math.pi / 2, 0.7))

    def test_defining_identities_and_round_trip(self):
        rng = np.random.default_rng(17)
        vec = rng.normal(size=(200, 3)) * rng.uniform(0.1, 10, size=(200, 1))
        alpha, beta, ohat = angles_from_omega(vec[:, 0], vec[:, 1], vec[:, 2])
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
        alpha, beta, _ = angles_from_omega(-1.0, -1e-12, 0.5)
        assert -math.pi < alpha <= math.pi
        assert 0.0 <= beta <= math.pi


class TestEigenvaluesAndGap:
    def test_single_config_pair(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), math.pi)
        traj = propagate_interaction(s_only_system, pulse, n_steps=64, tol=None)
        sol = extract_omega(traj)
        lam = omega_eigenvalues(sol, -1)
        assert np.allclose(sorted(lam), [-math.pi / 2, math.pi / 2], atol=1e-9)

    def test_zero_hat_all_zero(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        sol = extract_omega(propagate_interaction(sax_system, pulse, n_steps=16, tol=None))
        assert np.array_equal(omega_eigenvalues(sol, 3), np.zeros(8))

    def test_two_s_spins_quantum_numbers(self):
        assert np.array_equal(total_sz_quantum_numbers(2), [-1.0, 0.0, 1.0])

    def test_gap_check_ok(self):
        ok, nearest = magnus_gap_check([math.pi / 4, -math.pi / 4])
        assert ok
        assert nearest == pytest.approx(TWO_PI - math.pi / 2)

    def test_gap_check_violation_at_n1(self):
        ok, nearest = magnus_gap_check([math.pi, -math.pi])
        assert not ok
        assert nearest == pytest.approx(0.0, abs=1e-12)

    def test_gap_check_zero_eigenvalues_ok(self):
        ok, nearest = magnus_gap_check([0.0, 0.0])
        assert ok
        assert nearest == pytest.approx(TWO_PI)

    def test_gap_check_single_value(self):
        ok, nearest = magnus_gap_check([0.3])
        assert ok and nearest == math.inf


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

    def test_reburp_violates(self, sa_system):
        entry = resolve_pulse("reburp")
        pulse = entry.build_calibrated()
        report = explicit_criterion(sa_system, pulse, n_steps=1024, tol=1e-7)
        assert not report.criterion23_met
        assert report.criterion25_met  # flip angle itself is only pi
        assert report.i_total > TWO_PI

    def test_hard_two_pi_pulse_degeneracy(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), TWO_PI)
        report = explicit_criterion(s_only_system, pulse, n_steps=256, tol=1e-10)
        assert not report.criterion23_met  # I(T) = 2*pi exactly, not strictly below
        assert not report.magnus_criterion_ok
        assert report.magnus_gap_nearest == pytest.approx(0.0, abs=1e-9)
        assert report.max_omega_hat == pytest.approx(TWO_PI, abs=1e-6)
        assert len(report.ambiguity_times) >= 1

        traj = propagate_interaction(s_only_system, pulse, n_steps=256, tol=1e-10)
        assert np.allclose(traj.endpoint_blocks()[0], -np.eye(2), atol=1e-10)

    def test_bound_triangle_and_implication_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            system = random_small_system(rng)
            pulse = random_fourier_pulse(rng, target=rng.uniform(0.3, 1.8) * math.pi)
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
        sums = magnus_partial_sums(sax_system, pulse, n_steps=64, order=3)
        assert np.allclose(sums, 0.0)

    def test_commuting_case_higher_orders_vanish(self, s_only_system):
        pulse = calibrate(build_pulse("gaussian", 1e-3), math.pi / 2)
        sums = magnus_partial_sums(s_only_system, pulse, n_steps=128, order=3)
        first = sums[0, 0]
        assert np.allclose(first, flip_angle(pulse, 1e-3, 128) * SX, atol=1e-12)
        assert np.allclose(sums[0, 1], first, atol=1e-14)
        assert np.allclose(sums[0, 2], first, atol=1e-14)

    def test_terms_are_hermitian(self, sa_system, gaussian90):
        sums = magnus_partial_sums(sa_system, gaussian90, n_steps=128, order=3)
        for ci in range(sums.shape[0]):
            for m in range(3):
                assert np.allclose(sums[ci, m], sums[ci, m].conj().T, atol=1e-10)

    def test_order_three_beats_order_one(self, sa_system, gaussian90):
        traj = propagate_interaction(sa_system, gaussian90, n_steps=1024, tol=1e-9)
        exact = traj.endpoint_blocks()
        sums = magnus_partial_sums(sa_system, gaussian90, n_steps=512, order=3)
        for ci in range(sums.shape[0]):
            err1 = np.linalg.norm(scipy.linalg.expm(-1j * sums[ci, 0]) - exact[ci])
            err3 = np.linalg.norm(scipy.linalg.expm(-1j * sums[ci, 2]) - exact[ci])
            assert err3 < err1

    def test_vector_form_matches_matrix_loop(self, sax_system, gaussian90):
        for order in (1, 2, 3):
            sums = magnus_partial_sums(sax_system, gaussian90, n_steps=256, order=order)
            ref = oracle.magnus_partial_sums_loop(sax_system, gaussian90, n_steps=256, order=order)
            assert np.max(np.abs(sums - ref)) < 1e-12

    def test_invalid_order(self, sa_system, gaussian90):
        with pytest.raises(ValueError):
            magnus_partial_sums(sa_system, gaussian90, order=4)
