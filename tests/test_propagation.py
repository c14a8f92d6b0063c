import math

import numpy as np
import pytest
import scipy.linalg

from magnuspulse import (
    SpinSystem,
    assemble_full_matrix,
    block_hamiltonian,
    build_pulse,
    calibrate,
    enumerate_configurations,
    excitation_profile,
    lab_frame_propagator,
    propagate_interaction,
    su2_step,
    unitarity_defect,
)
from magnuspulse.propagation import E2, SX, SY, SZ, RefinementError
import oracle

TWO_PI = 2.0 * math.pi


class TestBlockHamiltonian:
    def test_zero_amplitude(self, sa_system):
        config = enumerate_configurations(sa_system)[0]
        h = block_hamiltonian(sa_system, config, 0.0, 0.0, 1e-4)
        assert np.array_equal(h, np.zeros((2, 2)))

    def test_on_resonance_x(self, s_only_system):
        (config,) = enumerate_configurations(s_only_system)
        h = block_hamiltonian(s_only_system, config, 1000.0, 0.0, 0.5e-3)
        assert np.allclose(h, 1000.0 * SX)

    def test_phase_shift_gives_y(self, sa_system):
        config = enumerate_configurations(sa_system)[0]
        h = block_hamiltonian(sa_system, config, 800.0, math.pi / 2, 0.0)
        assert np.allclose(h, 800.0 * SY)

    def test_eigenvalues_are_half_amplitude(self, sax_system):
        rng = np.random.default_rng(5)
        for config in enumerate_configurations(sax_system):
            amp = rng.uniform(-3000.0, 3000.0)
            h = block_hamiltonian(sax_system, config, amp, rng.uniform(0, TWO_PI), rng.uniform(0, 1e-3))
            eig = np.linalg.eigvalsh(h)
            assert np.allclose(sorted(eig), [-abs(amp) / 2, abs(amp) / 2], atol=1e-12)
            assert abs(np.trace(h)) < 1e-12


class TestSu2Step:
    def test_zero_hamiltonian(self):
        assert np.array_equal(su2_step(np.zeros((2, 2)), 1.0), E2)

    def test_x_rotation_closed_form(self):
        w, dt = 700.0, 1e-4
        u = su2_step(w * SX, dt)
        expected = math.cos(w * dt / 2) * E2 - 2j * math.sin(w * dt / 2) * SX
        assert np.allclose(u, expected, atol=1e-14)

    def test_two_pi_rotation_is_minus_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            h = axis[0] * SX + axis[1] * SY + axis[2] * SZ
            u = su2_step(TWO_PI * h, 1.0)
            assert np.allclose(u, -E2, atol=1e-12)

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=3) * 1000.0
            h = a[0] * SX + a[1] * SY + a[2] * SZ
            dt = rng.uniform(1e-5, 1e-3)
            assert np.allclose(su2_step(h, dt), scipy.linalg.expm(-1j * h * dt), atol=1e-12)


class TestPropagateInteraction:
    def test_zero_pulse_identity_everywhere(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = propagate_interaction(sax_system, pulse, n_steps=32, tol=1e-12)
        assert np.allclose(traj.blocks, np.broadcast_to(E2, traj.blocks.shape))

    def test_constant_on_resonance_quarter_turn(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), math.pi / 2)
        traj = propagate_interaction(s_only_system, pulse, n_steps=64, tol=1e-10)
        expected = scipy.linalg.expm(-1j * (math.pi / 2) * SX)
        assert np.allclose(traj.endpoint_blocks()[0], expected, atol=1e-9)

    def test_unitarity_along_trajectory(self, sax_system, gaussian90):
        traj = propagate_interaction(sax_system, gaussian90, n_steps=4096, tol=None)
        assert unitarity_defect(traj.blocks) < 1e-10

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
            endpoints.append(traj.endpoint_blocks())
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

    def test_sax_matches_dense_oracle(self, sax_system, gaussian90):
        traj = propagate_interaction(sax_system, gaussian90, n_steps=4096, tol=1e-9)
        assembled = assemble_full_matrix(sax_system, traj.endpoint_blocks())
        dense = oracle.dense_propagator(sax_system, gaussian90, 2 * traj.n_steps)
        assert np.linalg.norm(assembled - dense) < 1e-8


class TestLabFrame:
    def test_time_zero_identity(self, sax_system, gaussian90):
        traj = propagate_interaction(sax_system, gaussian90, n_steps=64, tol=None)
        labs = lab_frame_propagator(sax_system, traj, 0)
        assert np.allclose(labs, np.broadcast_to(E2, labs.shape))

    def test_free_evolution_phases(self, sa_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = propagate_interaction(sa_system, pulse, n_steps=16, tol=None)
        labs = lab_frame_propagator(sa_system, traj, -1)
        t = traj.times[-1]
        for ci in range(traj.n_configs):
            e, w = traj.energies[ci], traj.offsets[ci]
            expected = np.diag(
                [np.exp(-1j * (e + w / 2) * t), np.exp(-1j * (e - w / 2) * t)]
            )
            assert np.allclose(labs[ci], expected, atol=1e-12)

    def test_short_hard_pulse_lab_equals_interaction(self, sa_system):
        pulse = calibrate(build_pulse("constant", 1e-7), math.pi / 2)
        traj = propagate_interaction(sa_system, pulse, n_steps=16, tol=None)
        labs = lab_frame_propagator(sa_system, traj, -1)
        assert np.allclose(labs, traj.blocks[:, -1], atol=1e-3)


class TestMultiSAssemble:
    def test_n1_is_direct_sum(self, sa_system, gaussian90):
        traj = propagate_interaction(sa_system, gaussian90, n_steps=256, tol=None)
        full = assemble_full_matrix(sa_system, traj.endpoint_blocks())
        blocks = traj.endpoint_blocks()
        assert np.allclose(full[np.ix_([0, 2], [0, 2])], blocks[0])
        assert np.allclose(full[np.ix_([1, 3], [1, 3])], blocks[1])

    def test_two_s_spins_commuting_sum(self):
        system = SpinSystem(s_count=2)
        theta = 0.7
        block = scipy.linalg.expm(-1j * theta * SX)
        full = assemble_full_matrix(system, [block])
        sx_total = np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX)
        assert np.allclose(full, scipy.linalg.expm(-1j * theta * sx_total), atol=1e-12)

    def test_s2ax_matches_dense_oracle(self, s2ax_system, gaussian90):
        traj = propagate_interaction(s2ax_system, gaussian90, n_steps=4096, tol=1e-9)
        assembled = assemble_full_matrix(s2ax_system, traj.endpoint_blocks())
        dense = oracle.dense_propagator(s2ax_system, gaussian90, 2 * traj.n_steps)
        assert np.linalg.norm(assembled - dense) < 1e-8


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
