import math
from types import SimpleNamespace

import numpy as np
import pytest

from magnuspulse import (
    resolve_pulse,
    angles_from_state,
    build_pulse,
    calibrate,
    extract_omega,
    integrate_expansion,
    list_catalog,
    propagate_interaction,
    su2,
)
from magnuspulse.propagation import BlockTrajectory, RefinementError

import oracle
from oracle import _legacy_expansion_rhs, expansion_rhs

TWO_PI = 2.0 * math.pi


class TestRhs:
    def test_initial_slope(self):
        df, dg = expansion_rhs(1.0, np.zeros(3), np.array([1.0, 0.0, 0.0]), 800.0)
        assert df == 0.0
        assert np.allclose(dg, [400.0, 0.0, 0.0])

    def test_parallel_field_and_state(self):
        g = np.array([0.0, 0.3, 0.0])
        h = np.array([0.0, 1.0, 0.0])
        df, dg = expansion_rhs(0.5, g, h, 1000.0)
        assert df == pytest.approx(-500.0 * 0.3)
        assert np.allclose(dg, [0.0, 250.0, 0.0])  # cross term vanishes

    def test_zero_amplitude(self):
        df, dg = expansion_rhs(0.2, np.ones(3), np.array([1.0, 0.0, 0.0]), 0.0)
        assert df == 0.0
        assert np.allclose(dg, 0.0)

    def test_norm_derivative_vanishes_identically(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = rng.normal()
            g = rng.normal(size=3)
            h = rng.normal(size=3)
            amp = rng.normal() * 1000
            df, dg = expansion_rhs(f, g, h, amp)
            assert abs(2 * f * df + 2 * float(g @ dg)) < 1e-9 * (1 + abs(amp))

    def test_legacy_variant_breaks_norm_conservation(self):
        f, g = 0.8, np.array([0.6, 0.0, 0.0])
        h = np.array([1.0, 0.0, 0.0])
        df, dg = _legacy_expansion_rhs(f, g, h, 1000.0)
        assert abs(2 * f * df + 2 * float(g @ dg)) > 1.0


class TestIntegrate:
    def test_zero_pulse(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        fg = su2.rows(integrate_expansion(sax_system, pulse, n_steps=16, tol=None).q)
        assert np.array_equal(fg[0], np.ones_like(fg[0]))
        assert np.array_equal(fg[1:], np.zeros_like(fg[1:]))

    def test_initial_condition(self, sa_system, gaussian90):
        fg = su2.rows(integrate_expansion(sa_system, gaussian90, n_steps=64, tol=None).q)
        assert np.array_equal(fg[0, :, 0], [1.0, 1.0])
        assert np.array_equal(fg[1:, :, 0].T, np.zeros((2, 3)))

    def test_constant_on_resonance_closed_form(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), 1.2 * math.pi)
        state = integrate_expansion(s_only_system, pulse, n_steps=256, tol=1e-10)
        w1 = 1.2 * math.pi / 1e-3
        t, fg = state.times, su2.rows(state.q)
        assert np.allclose(fg[0, 0], np.cos(w1 * t / 2), atol=1e-9)
        assert np.allclose(fg[1, 0], np.sin(w1 * t / 2), atol=1e-9)
        assert np.allclose(fg[2:, 0], 0.0, atol=1e-9)

    def test_constraint_conserved(self, sax_system, gaussian90):
        state = integrate_expansion(sax_system, gaussian90, n_steps=4096, tol=None)
        assert float(su2.norm_defect(state.q).max()) < 1e-8

    def test_matches_exact_propagator(self, sax_system, gaussian90):
        state = integrate_expansion(sax_system, gaussian90, n_steps=1024, tol=1e-9)
        traj = propagate_interaction(sax_system, gaussian90, n_steps=1024, tol=1e-9)
        rebuilt = su2.to_matrix(state.q[..., -1])
        diff = np.linalg.norm(rebuilt - su2.to_matrix(traj.q[..., -1]), axis=(-2, -1))
        assert float(diff.max()) < 1e-6

    def test_commuting_scale_symmetry(self, s_only_system):
        state1 = integrate_expansion(
            s_only_system, calibrate(build_pulse("gaussian", 1e-3), math.pi / 2),
            n_steps=512, tol=None,
        )
        state2 = integrate_expansion(
            s_only_system, calibrate(build_pulse("gaussian", 2e-3), math.pi / 2),
            n_steps=512, tol=None,
        )
        assert np.allclose(su2.rows(state1.q), su2.rows(state2.q), atol=1e-12)

    def test_legacy_rhs_violates_constraint(self, sa_system, gaussian90):
        _, f, g = oracle.integrate_expansion_loop(sa_system, gaussian90, 512, _legacy_expansion_rhs)
        assert float(np.max(np.abs(f**2 + np.sum(g**2, axis=-1) - 1.0))) > 1e-2

    def test_matches_sequential_oracle(self, sax_system):
        for entry in list_catalog():
            pulse = calibrate(entry.build(), entry.nominal_flip)
            for n in (64, 1024):
                state = integrate_expansion(sax_system, pulse, n_steps=n, tol=None)
                times, f, g = oracle.integrate_expansion_loop(sax_system, pulse, n)
                assert np.array_equal(state.times, times)
                fg = su2.rows(state.q)
                assert np.max(np.abs(fg[0] - f)) < 1e-12, (entry.name, n)
                assert np.max(np.abs(np.moveaxis(fg[1:], 0, -1) - g)) < 1e-12, (entry.name, n)

    def test_refinement_failure_carries_grid(self, sax_system, gaussian90):
        with pytest.raises(RefinementError) as err:
            integrate_expansion(sax_system, gaussian90, n_steps=1, tol=1e-300)
        assert err.value.n_steps == 256
        assert err.value.estimate > 1e-300

    def test_non_finite_endpoint_stops_refinement_at_once(self, s_only_system):
        # RK4 steps of a 1e200 rad/s field overflow, so every grid's endpoint is NaN; the
        # first grid raises, and no finer one is built
        pulse = build_pulse("constant", 1e-3, amplitude=1e200)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RefinementError, match="endpoint is not finite") as err:
            integrate_expansion(s_only_system, pulse, n_steps=64)
        assert err.value.n_steps == 64
        assert math.isnan(err.value.estimate)


def _trailing_state(state):
    """What `oracle.omega_hat_quadrature` reads of a trajectory: q's real rows, components last."""
    return SimpleNamespace(q=np.moveaxis(su2.rows(state.q), 0, -1), n_configs=state.n_configs,
                           dt=state.dt, times=state.times)


class TestOmegaHatQuadrature:
    def test_constant_on_resonance(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), math.pi / 2)
        state = integrate_expansion(s_only_system, pulse, n_steps=256, tol=None)
        ohat = oracle.omega_hat_quadrature(_trailing_state(state), pulse, s_only_system)
        w1 = math.pi / 2 / 1e-3
        assert np.allclose(ohat[0], w1 * state.times, rtol=1e-10, atol=1e-12)

    def test_zero_pulse(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        state = integrate_expansion(sax_system, pulse, n_steps=16, tol=None)
        ohat = oracle.omega_hat_quadrature(_trailing_state(state), pulse, sax_system)
        assert np.array_equal(ohat, np.zeros((4, 17)))

    def test_matches_log_extraction(self, sa_system, gaussian90):
        state = integrate_expansion(sa_system, gaussian90, n_steps=2048, tol=None)
        ohat = oracle.omega_hat_quadrature(_trailing_state(state), gaussian90, sa_system)
        traj = propagate_interaction(sa_system, gaussian90, n_steps=2048, tol=None)
        sol = extract_omega(traj)
        assert np.allclose(ohat, sol.omega_hat, atol=1e-6)


def _one_step_state(f, g):
    """One configuration that steps from the identity to the state point (f, g)."""
    c, x, y, z = np.moveaxis(np.array([[[1.0, 0.0, 0.0, 0.0], [f, *g]]]), -1, 0)
    q = np.stack((c - 1j * z, y - 1j * x))  # the pair (a, b) of (f, g)
    return BlockTrajectory(times=np.array([0.0, 1.0]), q=q, amps=np.zeros(1), n_steps=1,
                           refinement_levels=0, error_estimate=0.0)


class TestReconstruct:
    """The 2x2 propagator f E - 2i (g . S) is su2.to_matrix of the state's pair of (f, g)."""

    def test_identity(self):
        u = su2.to_matrix(_one_step_state(1.0, [0.0, 0.0, 0.0]).q[:, 0, -1])
        assert np.array_equal(u, np.eye(2))

    def test_pi_x_rotation(self):
        u = su2.to_matrix(_one_step_state(0.0, [1.0, 0.0, 0.0]).q[:, 0, -1])
        assert np.allclose(u, np.array([[0, -1j], [-1j, 0]]))

    def test_z_rotation(self):
        theta = 0.9
        state = _one_step_state(math.cos(theta / 2), [0, 0, math.sin(theta / 2)])
        expected = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.allclose(su2.to_matrix(state.q[:, 0, -1]), expected, atol=1e-12)

    def test_norm_violation_rejected(self):
        # the norm defect is reported, not rebuilt into a non-unitary matrix
        state = _one_step_state(1.0, [0.5, 0.0, 0.0])
        assert su2.norm_defect(state.q)[0, -1] == pytest.approx(0.25)


class TestAnglesFromState:
    def test_identity_state(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        state = integrate_expansion(sax_system, pulse, n_steps=8, tol=None)
        alpha, beta, omega = angles_from_state(state)
        assert np.array_equal(alpha, np.zeros_like(alpha))
        assert np.array_equal(beta, np.zeros_like(beta))
        assert np.array_equal(omega, np.zeros_like(omega))

    def test_z_state_point(self):
        state = _one_step_state(0.0, [0.0, 0.0, 1.0])
        _, beta, omega = angles_from_state(state)
        assert beta[0, 1] == pytest.approx(0.0)
        assert omega[0, 1] == pytest.approx(math.pi)

    def test_unwraps_past_two_pi(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), 3.0 * math.pi)
        state = integrate_expansion(s_only_system, pulse, n_steps=256, tol=None)
        _, _, omega = angles_from_state(state)
        assert omega[0, -1] == pytest.approx(3.0 * math.pi, abs=1e-8)
        assert np.all(np.diff(omega[0]) > 0)

    def test_angles_read_0_where_the_tracker_leaves_the_axis_undefined(self, s_only_system):
        # RE-BURP at 720 deg on S alone returns to |g| ~ 1e-11, where the direction of g is
        # rounding noise; the tracker's mask, not a threshold of its own, zeroes the angles
        pulse = calibrate(resolve_pulse("RE-BURP").build(), 2.0 * TWO_PI)
        state = integrate_expansion(s_only_system, pulse)
        rows = su2.rows(state.q)
        undefined = ~su2.track_rows(rows[0], rows[1:])[2]
        assert undefined[:, 1:].any()
        alpha, beta, _ = angles_from_state(state)
        assert np.all(alpha[undefined] == 0.0) and np.all(beta[undefined] == 0.0)

    @pytest.mark.parametrize("block", [2, 3, 1000])
    def test_windows_match_one_window_bit_for_bit(self, monkeypatch, sax_system, block):
        # U-BURP at 720 deg passes whole turns, and the identity at t = 0 has no axis
        pulse = calibrate(resolve_pulse("U-BURP").build(), 2.0 * TWO_PI)
        state = integrate_expansion(sax_system, pulse, n_steps=1024, tol=None)
        monkeypatch.setattr(su2, "TRACK_BLOCK", 1 << 40)
        whole = angles_from_state(state)
        assert np.max(whole[2]) > 1.5 * TWO_PI and np.all(whole[2][:, 0] == 0.0)
        monkeypatch.setattr(su2, "TRACK_BLOCK", block)
        windows = angles_from_state(state)
        assert [x.tobytes() for x in windows] == [x.tobytes() for x in whole]

    def test_angle_derivative_matches_quadrature_integrand(self, sa_system, gaussian90):
        state = integrate_expansion(sa_system, gaussian90, n_steps=2048, tol=None)
        _, _, omega = angles_from_state(state)
        ohat = oracle.omega_hat_quadrature(_trailing_state(state), gaussian90, sa_system)
        g_norm = np.linalg.norm(su2.rows(state.q)[1:], axis=0)
        interior = (g_norm[:, :-1] > 1e-6) & (g_norm[:, 1:] > 1e-6)
        d_angle = np.diff(omega, axis=1)[interior]
        d_quad = np.diff(ohat, axis=1)[interior]
        assert np.allclose(d_angle, d_quad, atol=1e-7)

    def test_agrees_with_magnus_angles_when_criterion_met(self, sax_system, gaussian90):
        state = integrate_expansion(sax_system, gaussian90, n_steps=1024, tol=None)
        alpha, beta, omega = angles_from_state(state)
        traj = propagate_interaction(sax_system, gaussian90, n_steps=1024, tol=None)
        sol = extract_omega(traj)
        a_ref, b_ref, o_ref = sol.alpha, sol.beta, sol.omega_hat
        # skip the t=0 sample where the axis is undefined on both sides
        assert np.allclose(omega[:, 1:], o_ref[:, 1:], atol=1e-6)
        assert np.allclose(beta[:, 1:], b_ref[:, 1:], atol=1e-5)
        assert np.allclose(alpha[:, 1:], a_ref[:, 1:], atol=1e-5)


class TestCatalogEquivalence:
    def test_every_catalog_pulse_including_violators(self, sax_system):
        for entry in list_catalog():
            pulse = calibrate(entry.build(), entry.nominal_flip)
            state = integrate_expansion(sax_system, pulse, n_steps=1024, tol=1e-8)
            traj = propagate_interaction(sax_system, pulse, n_steps=1024, tol=1e-8)
            rebuilt = su2.to_matrix(state.q[..., -1])
            diff = np.linalg.norm(rebuilt - su2.to_matrix(traj.q[..., -1]), axis=(-2, -1))
            assert float(diff.max()) < 1e-6, entry.name
            assert float(su2.norm_defect(state.q).max()) < 1e-8, entry.name

    def test_shared_grid_agreement_along_trajectory(self, sax_system):
        entry = resolve_pulse("g4")
        pulse = calibrate(entry.build(), entry.nominal_flip)
        state = integrate_expansion(sax_system, pulse, n_steps=4096, tol=None)
        traj = propagate_interaction(sax_system, pulse, n_steps=4096, tol=None)
        diff = np.linalg.norm(su2.to_matrix(state.q) - su2.to_matrix(traj.q), axis=(-2, -1))
        assert float(diff.max()) < 1e-6
