import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest
import scipy.linalg

from magnuspulse import (
    SpinSystem,
    assemble_full_matrix,
    build_pulse,
    calibrate,
    excitation_profile,
    integrate_expansion,
    list_catalog,
    offset_diagonal,
    propagate_interaction,
    su2,
)
from magnuspulse.propagation import RefinementError
from magnuspulse.su2 import SX, SY, SZ

TWO_PI = 2.0 * math.pi
E2 = np.eye(2, dtype=complex)


def _slice(system, config, amp, phase, t, dt):
    """exp(-i H dt) of one configuration's block Hamiltonian, as a 2x2 matrix."""
    w = offset_diagonal(system)[config:config + 1]
    return su2.to_matrix(su2.transverse_slices([0.5 * amp * dt], [phase], w, t, dt)[:, 0, 0])


class TestBlockHamiltonian:
    """A configuration's Hamiltonian amp (cos a Sx + sin a Sy), through its slice exponential."""

    def test_zero_amplitude(self, sa_system):
        assert np.array_equal(_slice(sa_system, 0, 0.0, 0.0, 1e-4, 1e-5), E2)

    def test_on_resonance_x(self, s_only_system):
        u = _slice(s_only_system, 0, 1000.0, 0.0, 0.5e-3, 1e-4)
        assert np.allclose(u, scipy.linalg.expm(-1j * 1000.0 * SX * 1e-4), atol=1e-14)

    def test_phase_shift_gives_y(self, sa_system):
        u = _slice(sa_system, 0, 800.0, math.pi / 2, 0.0, 1e-4)
        assert np.allclose(u, scipy.linalg.expm(-1j * 800.0 * SY * 1e-4), atol=1e-14)

    def test_eigenvalues_are_half_amplitude(self, sax_system):
        rng = np.random.default_rng(5)
        dt = 1e-4
        for config in range(sax_system.n_configs):
            amp = rng.uniform(-3000.0, 3000.0)
            u = _slice(sax_system, config, amp, rng.uniform(0, TWO_PI), rng.uniform(0, 1e-3), dt)
            phases = np.sort(np.angle(np.linalg.eigvals(u)))
            assert np.allclose(phases, [-abs(amp) * dt / 2, abs(amp) * dt / 2], atol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) < 1e-12  # traceless Hamiltonian


class TestSu2Step:
    """Closed-form exp(-i (a . S) dt) through su2.exp and the 2x2 view su2.to_matrix."""

    def test_zero_hamiltonian(self):
        assert np.array_equal(su2.to_matrix(su2.exp(np.zeros(3))), E2)

    def test_x_rotation_closed_form(self):
        w, dt = 700.0, 1e-4
        u = su2.to_matrix(su2.exp(np.array([w * dt, 0.0, 0.0])))
        expected = math.cos(w * dt / 2) * E2 - 2j * math.sin(w * dt / 2) * SX
        assert np.allclose(u, expected, atol=1e-14)

    def test_two_pi_rotation_is_minus_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            assert np.allclose(su2.to_matrix(su2.exp(TWO_PI * axis)), -E2, atol=1e-12)

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=3) * 1000.0
            h = a[0] * SX + a[1] * SY + a[2] * SZ
            dt = rng.uniform(1e-5, 1e-3)
            u = su2.to_matrix(su2.exp(a * dt))
            assert np.allclose(u, scipy.linalg.expm(-1j * h * dt), atol=1e-12)


class TestPropagateInteraction:
    def test_zero_pulse_identity_everywhere(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = propagate_interaction(sax_system, pulse, n_steps=32, tol=1e-12)
        assert np.allclose(traj.blocks, np.broadcast_to(E2, traj.blocks.shape))

    def test_constant_on_resonance_quarter_turn(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), math.pi / 2)
        traj = propagate_interaction(s_only_system, pulse, n_steps=64, tol=1e-10)
        expected = scipy.linalg.expm(-1j * (math.pi / 2) * SX)
        assert np.allclose(su2.to_matrix(traj.q[:, -1])[0], expected, atol=1e-9)

    def test_unitarity_along_trajectory(self, sax_system, gaussian90):
        traj = propagate_interaction(sax_system, gaussian90, n_steps=4096, tol=None)
        # Frobenius norm of U U^dagger - E = (|q|^2 - 1) E
        assert math.sqrt(2.0) * su2.norm_defect(traj.q).max() < 1e-10

    def test_grid_and_metadata(self, sa_system, gaussian90):
        traj = propagate_interaction(sa_system, gaussian90, n_steps=128, tol=1e-6)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(gaussian90.duration, rel=1e-12)
        assert traj.n_steps == 128 * (1 << traj.refinement_levels)
        assert traj.error_estimate < 1e-6
        assert np.allclose(traj.blocks[:, 0], E2)

    def test_step_halving_consistency(self, sax_system, gaussian90):
        endpoints = []
        for n in (128, 256, 512, 1024):
            traj = propagate_interaction(sax_system, gaussian90, n_steps=n, tol=None)
            endpoints.append(su2.to_matrix(traj.q[:, -1]))
        diffs = [
            float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))
            for a, b in zip(endpoints, endpoints[1:])
        ]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert coarse / fine >= 3.0

    def test_refinement_failure_carries_estimate(self, sax_system, gaussian90):
        with pytest.raises(RefinementError) as err:
            propagate_interaction(sax_system, gaussian90, n_steps=2, tol=1e-14, max_doublings=1)
        assert err.value.estimate > 1e-14


def _endpoints(route, system, shape, n_steps):
    """Endpoint quaternions (n_configs, 4) of a route on a fixed grid."""
    return route(system, shape, n_steps=n_steps, tol=None).q[:, -1]


@pytest.mark.parametrize("entry", list_catalog(), ids=lambda e: e.name)
def test_midpoint_propagator_has_observed_order_two(entry, sax_system):
    shape = entry.build_calibrated()
    ends = [_endpoints(propagate_interaction, sax_system, shape, n)
            for n in (4096, 8192, 16384, 32768)]
    changes = [float(np.max(np.linalg.norm(fine - coarse, axis=-1)))
               for coarse, fine in zip(ends, ends[1:])]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(changes, changes[1:])]
    assert all(1.9 <= order <= 2.1 for order in orders), orders


class TestPhaseModulation:
    """Phase-modulated pulses, which no CLI family builds, through both propagator routes."""

    ROUTES = [propagate_interaction, integrate_expansion]

    @pytest.mark.parametrize("route", ROUTES)
    def test_constant_phase_rotates_the_propagator_about_z(self, route, sax_system, gaussian90):
        phi = 0.83
        shifted = dc_replace(gaussian90, phase_fn=lambda t: np.full_like(t, phi))
        u0 = su2.to_matrix(_endpoints(route, sax_system, gaussian90, 512))
        u = su2.to_matrix(_endpoints(route, sax_system, shifted, 512))
        z = scipy.linalg.expm(-1j * phi * SZ)
        assert np.max(np.abs(u - z @ u0 @ z.conj().T)) < 1e-13

    @pytest.mark.parametrize("route", ROUTES)
    def test_linear_phase_is_an_offset_shift(self, route, sax_system, gaussian90):
        sweep = TWO_PI * 300.0  # phi(t) = sweep t at offset w acts as offset w - sweep
        chirped = dc_replace(gaussian90, phase_fn=lambda t: sweep * t)
        moved = dc_replace(sax_system, s_offset=sax_system.s_offset - sweep)
        u = _endpoints(route, sax_system, chirped, 512)
        assert np.max(np.abs(u - _endpoints(route, moved, gaussian90, 512))) < 1e-13


class TestMultiSAssemble:
    def test_n1_is_direct_sum(self, sa_system, gaussian90):
        traj = propagate_interaction(sa_system, gaussian90, n_steps=256, tol=None)
        full = assemble_full_matrix(sa_system, su2.to_matrix(traj.q[:, -1]))
        blocks = su2.to_matrix(traj.q[:, -1])
        assert np.allclose(full[np.ix_([0, 2], [0, 2])], blocks[0])
        assert np.allclose(full[np.ix_([1, 3], [1, 3])], blocks[1])

    def test_two_s_spins_commuting_sum(self):
        system = SpinSystem(s_count=2)
        theta = 0.7
        block = scipy.linalg.expm(-1j * theta * SX)
        full = assemble_full_matrix(system, [block])
        sx_total = np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX)
        assert np.allclose(full, scipy.linalg.expm(-1j * theta * sx_total), atol=1e-12)


class TestExcitationProfile:
    def test_zero_pulse(self, sa_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        table = excitation_profile(sa_system, pulse, [0.0, 100.0], n_steps=8)
        assert np.allclose(table, [[0.0, 0.0, 0.5], [0.0, 0.0, 0.5]], atol=1e-12)

    def test_hard_quarter_pulse_on_resonance(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-6), math.pi / 2)
        table = excitation_profile(s_only_system, pulse, [0.0], n_steps=512)
        assert np.allclose(table[0], [0.0, -0.5, 0.0], atol=1e-6)

    def test_hard_inversion(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-6), math.pi)
        table = excitation_profile(s_only_system, pulse, [0.0], n_steps=512)
        assert np.allclose(table[0], [0.0, 0.0, -0.5], atol=1e-6)

    def test_gaussian_selectivity_far_off_resonance(self, s_only_system, gaussian90):
        table = excitation_profile(
            s_only_system, gaussian90, [0.0, TWO_PI * 20000.0], n_steps=2048
        )
        assert table[0, 2] == pytest.approx(0.0, abs=1e-3)  # excited on resonance
        assert table[1, 2] == pytest.approx(0.5, abs=1e-2)  # untouched far away
