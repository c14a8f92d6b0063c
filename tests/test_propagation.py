import math
import tracemalloc
from dataclasses import replace as dc_replace

import numpy as np
import pytest
import scipy.linalg

from magnuspulse import (
    ISpin,
    SpinSystem,
    assemble_full_matrix,
    build_pulse,
    calibrate,
    excitation_profile,
    integrate_expansion,
    list_catalog,
    offset_diagonal,
    propagate_interaction,
    propagation,
    resolve_pulse,
    sample,
    su2,
)
from magnuspulse.expansion import BLOCK, _rk4_steps
from magnuspulse.propagation import (DEFAULT_TOL, MAX_DOUBLINGS, RefinementError, _refine,
                                     _sampled)
from oracle import SX1, SY1, SZ1

TWO_PI = 2.0 * math.pi
E2 = np.eye(2, dtype=complex)


def _slice(system, config, amp, phase, t, dt):
    """exp(-i H dt) of one configuration's block Hamiltonian, as a 2x2 matrix."""
    w, x = offset_diagonal(system)[config:config + 1], np.empty((2, 1, 1), dtype=complex)
    su2._slices(su2._turns(w, t, dt, 1), np.array([amp]), np.array([phase]), dt, 0, x)
    return su2.to_matrix(x[:, 0, 0])


class TestBlockHamiltonian:
    """A configuration's Hamiltonian amp (cos a Sx + sin a Sy), through its slice exponential."""

    def test_zero_amplitude(self, sa_system):
        assert np.array_equal(_slice(sa_system, 0, 0.0, 0.0, 1e-4, 1e-5), E2)

    def test_on_resonance_x(self, s_only_system):
        u = _slice(s_only_system, 0, 1000.0, 0.0, 0.5e-3, 1e-4)
        assert np.allclose(u, scipy.linalg.expm(-1j * 1000.0 * SX1 * 1e-4), atol=1e-14)

    def test_phase_shift_gives_y(self, sa_system):
        u = _slice(sa_system, 0, 800.0, math.pi / 2, 0.0, 1e-4)
        assert np.allclose(u, scipy.linalg.expm(-1j * 800.0 * SY1 * 1e-4), atol=1e-14)

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
        expected = math.cos(w * dt / 2) * E2 - 2j * math.sin(w * dt / 2) * SX1
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
            h = a[0] * SX1 + a[1] * SY1 + a[2] * SZ1
            dt = rng.uniform(1e-5, 1e-3)
            u = su2.to_matrix(su2.exp(a * dt))
            assert np.allclose(u, scipy.linalg.expm(-1j * h * dt), atol=1e-12)


class TestPropagateInteraction:
    def test_zero_pulse_identity_everywhere(self, sax_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        traj = propagate_interaction(sax_system, pulse, n_steps=32, tol=1e-12)
        blocks = su2.to_matrix(traj.q)
        assert np.allclose(blocks, np.broadcast_to(E2, blocks.shape))

    def test_constant_on_resonance_quarter_turn(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-3), math.pi / 2)
        traj = propagate_interaction(s_only_system, pulse, n_steps=64, tol=1e-10)
        expected = scipy.linalg.expm(-1j * (math.pi / 2) * SX1)
        assert np.allclose(su2.to_matrix(traj.q[..., -1])[0], expected, atol=1e-9)

    def test_unitarity_along_trajectory(self, sax_system, gaussian90):
        traj = propagate_interaction(sax_system, gaussian90, n_steps=4096, tol=None)
        # Frobenius norm of U U^dagger - E = (|a|^2 + |b|^2 - 1) E
        assert math.sqrt(2.0) * su2.norm_defect(traj.q).max() < 1e-10

    def test_grid_and_metadata(self, sa_system, gaussian90):
        traj = propagate_interaction(sa_system, gaussian90, n_steps=128, tol=1e-6)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(gaussian90.duration, rel=1e-12)
        assert traj.n_steps == 128 * (1 << traj.refinement_levels)
        assert traj.error_estimate < 1e-6
        assert np.allclose(su2.to_matrix(traj.q[..., 0]), E2)

    def test_step_halving_consistency(self, sax_system, gaussian90):
        endpoints = []
        for n in (128, 256, 512, 1024):
            traj = propagate_interaction(sax_system, gaussian90, n_steps=n, tol=None)
            endpoints.append(su2.to_matrix(traj.q[..., -1]))
        diffs = [
            float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))
            for a, b in zip(endpoints, endpoints[1:])
        ]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert coarse / fine >= 3.0

    def test_refinement_failure_carries_estimate(self, sax_system, gaussian90):
        with pytest.raises(RefinementError) as err:
            propagate_interaction(sax_system, gaussian90, n_steps=2, tol=1e-14)
        assert err.value.estimate > 1e-14
        assert err.value.n_steps == 2 << MAX_DOUBLINGS

    def test_non_finite_grid_raises_on_that_grid_without_tolerance(self):
        # w = 2 pi 2e307 rad/s is finite, but w t overflows past t = 1 s of a 4 s pulse
        system, pulse = SpinSystem(s_offset=TWO_PI * 2e307), build_pulse("constant", 4.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                RefinementError, match="endpoint is not finite on the grid of 64 steps") as err:
            propagate_interaction(system, pulse, n_steps=64, tol=None)
        assert err.value.n_steps == 64
        assert math.isnan(err.value.estimate)

    @pytest.mark.parametrize("route", [propagate_interaction, integrate_expansion])
    @pytest.mark.parametrize("n_steps", [0, -3, 2.5, True])
    def test_non_positive_steps_rejected_on_both_routes(self, s_only_system, gaussian90, route,
                                                        n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            route(s_only_system, gaussian90, n_steps=n_steps)

    @pytest.mark.parametrize("pulse", ["G90", "RE-BURP"])
    def test_peak_memory_stays_near_the_trajectory(self, sax_system, gaussian90, pulse):
        # Refinement keeps one grid and one chunk of its reduction tree, both in pair form,
        # and the scan frees each tree level once used: G90's 4 x 16384 grid is one chunk
        # (2.16x the trajectory's bytes), RE-BURP's 4 x 32768 grid two (1.63x); a second
        # copy of the trajectory in another layout would take the peak past 3x.
        reburp = resolve_pulse("reburp")
        shape = gaussian90 if pulse == "G90" else calibrate(reburp.build(), reburp.nominal_flip)
        propagate_interaction(sax_system, shape)
        tracemalloc.start()
        try:
            traj = propagate_interaction(sax_system, shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.refinement_levels >= 2
        assert peak <= 2.5 * traj.q.nbytes


def _route_filler(route, shape):
    """The filler that each route hands `_refine`."""
    if route == "exact":
        return _sampled(shape)
    return lambda *grid: _rk4_steps(shape, *grid)


def _pairs(filler, w, n, duration=1.0):
    """The step pairs (2, len(w), n) of the grid of n steps that `filler` fills, in one call."""
    x = np.empty((2, len(w), n), dtype=complex)
    filler(w, n, duration / n)(x, 0, n)
    return x


class TestRowCore:
    """`_refine` on rows of effective offsets w: a row's bits follow from its offset alone.

    Folding equal offsets into one row rests on this.
    """

    @pytest.mark.parametrize("route", ["exact", "rk4"])
    def test_rows_are_independent(self, sax_system, gaussian90, route):
        w, filler = offset_diagonal(sax_system), _route_filler(route, gaussian90)
        whole = _refine(filler, w, gaussian90.duration, 64, DEFAULT_TOL)
        assert whole.refinement_levels >= 2
        for rows in ([2, 0, 3, 1], [0, 1, 2, 2, 3]):
            part = _refine(filler, w[rows], gaussian90.duration, 64, DEFAULT_TOL)
            assert part.q.tobytes() == whole.q[:, rows].tobytes(), rows
            assert (part.refinement_levels, part.error_estimate) == (
                whole.refinement_levels, whole.error_estimate)

    # A row at 8192 steps is 128 KiB and four rows 512 KiB: numpy takes x * t as t * x for a
    # temporary t of 256 KiB or more, and a fused complex product rounds by its factor order.
    @pytest.mark.parametrize("rows, n_steps", [([0], 8192), ([0, 1, 2, 2, 3], 2 * BLOCK // 4)],
                             ids=["lone-row", "repeated-row"])
    def test_rk4_rows_are_independent_past_one_time_block(self, sax_system, gaussian90, rows,
                                                          n_steps):
        w, filler = offset_diagonal(sax_system), _route_filler("rk4", gaussian90)
        whole, part = (_pairs(filler, r, n_steps, gaussian90.duration) for r in (w, w[rows]))
        assert part.tobytes() == whole[:, rows].tobytes()
        whole = _refine(filler, w, gaussian90.duration, n_steps, None)
        part = _refine(filler, w[rows], gaussian90.duration, n_steps, None)
        assert part.q.tobytes() == whole.q[:, rows].tobytes()

    def test_estimate_not_finite_stops_refinement_at_once(self):
        # finite endpoints of 4e300 and 8e300 whose 2x2 difference overflows the norm
        grids = []

        def filler(w, n, dt):
            grids.append(n)
            def fill(x, start, size):
                x[..., :size] = su2.IDENTITY[:, None, None]
                x[0, :, 0] = n * 1e300
                return np.zeros(size)
            return fill

        with np.errstate(over="ignore"), pytest.raises(
                RefinementError, match="endpoint moved by inf > tol") as err:
            _refine(filler, np.zeros(1), 1.0, 4, DEFAULT_TOL)
        assert grids == [4, 8]
        assert (err.value.n_steps, err.value.estimate) == (8, math.inf)


def _shrinking(ratio):
    """A filler turning each row w about one axis by 1 + w (n / 1024)**log2(ratio) over a grid
    of n unequal steps: each doubling multiplies the estimate by about `ratio`."""
    def filler(w, n, dt):
        weight = 1.0 + 0.5 * np.sin(np.arange(n) * (6.0 * math.pi / n))
        angle = (1.0 + w[:, None] * (n / 1024) ** math.log2(ratio)) * weight / weight.sum()
        pairs = su2.exp(np.array([0.6, 0.0, 0.8])[:, None, None] * angle)

        def fill(x, start, size):
            x[..., :size] = pairs[..., start:start + size]
            return np.zeros(size)
        return fill
    return filler


def _whole_grid_refinement(filler, w, n_steps, tol):
    """`_refine`'s scanned grid, estimate and levels, or its `RefinementError` text, built
    from `su2.reduce` and `su2.scan` on whole grids, every grid reduced and the last scanned."""
    level, end = 0, None
    while True:
        n = n_steps << level
        x = _pairs(filler, w, n)
        fine = su2.reduce(x)
        estimate = (math.nan if end is None else
                    math.sqrt(2.0) * float(np.max(np.linalg.norm(fine - end, axis=0))))
        if estimate < tol:
            su2.scan(x)
            return x, estimate, level
        if level == MAX_DOUBLINGS:
            return (f"endpoint moved by {estimate:.3e} > tol={tol:.3e} after {level} grid "
                    f"doublings (finest grid {n} steps); increase n_steps")
        level, end = level + 1, fine


class TestScanPrediction:
    """`_refine` scans only the grid predicted to pass; the prediction moves only the cost."""

    @pytest.mark.parametrize("ratio, tol, walks", [
        # 8192 passes after an estimate of 12 tol, unscanned, and is walked again with its scan
        (1 / 16, 1e-4, [(1024, False), (2048, False), (4096, False), (8192, False),
                        (8192, True)]),
        # 8192 is scanned after an estimate of 2.7 tol and fails; 16384 is scanned and passes
        (1 / 2, 2e-3, [(1024, False), (2048, False), (4096, False), (8192, True),
                       (16384, True)]),
        # the last grid allowed is scanned and fails
        (1 / 2, 5e-5, [(1024 << level, False) for level in range(MAX_DOUBLINGS)]
         + [(1024 << MAX_DOUBLINGS, True)]),
    ], ids=["passes-unscanned", "scanned-fails", "scanned-last-fails"])
    def test_mispredictions_keep_every_bit(self, monkeypatch, ratio, tol, walks):
        filler, w = _shrinking(ratio), np.array([1e-2, 3e-2])
        reference = _whole_grid_refinement(filler, w, 1024, tol)
        seen, walk = [], propagation._walk
        monkeypatch.setattr(propagation, "_walk", lambda filler, w, duration, n, scanned, *a:
                            seen.append((n, scanned)) or walk(filler, w, duration, n, scanned, *a))
        monkeypatch.setattr(su2, "SCAN_BLOCK", 2 * 1024)  # chunks of 1024 steps past level 0
        if isinstance(reference, str):
            with pytest.raises(RefinementError) as err:
                _refine(filler, w, 1.0, 1024, tol)
            assert str(err.value) == reference
        else:
            traj = _refine(filler, w, 1.0, 1024, tol)
            x, estimate, level = reference
            assert traj.q[..., 1:].tobytes() == x.tobytes()
            assert (traj.error_estimate, traj.refinement_levels) == (estimate, level)
        assert seen == walks

    def test_scan_holds_the_trajectory_and_one_chunk(self):
        # 2 rows x 131072 steps, the longest grids of a criterion request: the trajectory,
        # one chunk of its reduction tree and the sample, and no grid-sized temporary
        system = SpinSystem(i_spins=(ISpin(offset=50.0, j_to_s=7.0),))
        pulse, n_steps = build_pulse("gaussian", 2e-3), 1 << 17
        sp = sample(pulse, n_steps)
        tracemalloc.start()
        try:
            traj = propagate_interaction(system, pulse, n_steps, tol=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = su2.SCAN_BLOCK * traj.q[..., :1].nbytes // traj.n_configs  # pairs of one chunk
        assert peak < traj.q.nbytes + chunk + sp.times.nbytes + sp.amps.nbytes + sp.phases.nbytes


def _endpoints(route, system, shape, n_steps):
    """Endpoint pairs (2, n_configs) of a route on a fixed grid."""
    return route(system, shape, n_steps=n_steps, tol=None).q[..., -1]


@pytest.mark.parametrize("entry", list_catalog(), ids=lambda e: e.name)
def test_midpoint_propagator_has_observed_order_two(entry, sax_system):
    shape = calibrate(entry.build(), entry.nominal_flip)
    ends = [_endpoints(propagate_interaction, sax_system, shape, n)
            for n in (4096, 8192, 16384, 32768)]
    changes = [float(np.max(np.linalg.norm(fine - coarse, axis=0)))
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
        z = scipy.linalg.expm(-1j * phi * SZ1)
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
        full = assemble_full_matrix(sa_system, su2.to_matrix(traj.q[..., -1]))
        blocks = su2.to_matrix(traj.q[..., -1])
        assert np.allclose(full[np.ix_([0, 2], [0, 2])], blocks[0])
        assert np.allclose(full[np.ix_([1, 3], [1, 3])], blocks[1])

    def test_two_s_spins_commuting_sum(self):
        system = SpinSystem(s_count=2)
        theta = 0.7
        block = scipy.linalg.expm(-1j * theta * SX1)
        full = assemble_full_matrix(system, [block])
        sx_total = np.kron(SX1, np.eye(2)) + np.kron(np.eye(2), SX1)
        assert np.allclose(full, scipy.linalg.expm(-1j * theta * sx_total), atol=1e-12)


class TestExcitationProfile:
    def test_zero_pulse(self, sa_system):
        pulse = build_pulse("constant", 1e-3, amplitude=0.0)
        table = excitation_profile(sa_system, pulse, [0.0, 100.0], n_steps=8)
        assert np.allclose(table.T, [[0.0, 0.0, 0.5], [0.0, 0.0, 0.5]], atol=1e-12)

    def test_hard_quarter_pulse_on_resonance(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-6), math.pi / 2)
        table = excitation_profile(s_only_system, pulse, [0.0], n_steps=512)
        assert np.allclose(table[:, 0], [0.0, -0.5, 0.0], atol=1e-6)

    def test_hard_inversion(self, s_only_system):
        pulse = calibrate(build_pulse("constant", 1e-6), math.pi)
        table = excitation_profile(s_only_system, pulse, [0.0], n_steps=512)
        assert np.allclose(table[:, 0], [0.0, 0.0, -0.5], atol=1e-6)

    def test_gaussian_selectivity_far_off_resonance(self, s_only_system, gaussian90):
        table = excitation_profile(
            s_only_system, gaussian90, [0.0, TWO_PI * 20000.0], n_steps=2048
        )
        assert table[2, 0] == pytest.approx(0.0, abs=1e-3)  # excited on resonance
        assert table[2, 1] == pytest.approx(0.5, abs=1e-2)  # untouched far away

    def test_rows_are_the_exact_routes_endpoints(self, gaussian90):
        # both build their slices with `_exact`, and `su2.reduce` is the scan's last column
        offsets = [-3000.0, -0.0, 0.0, 450.5]
        table = excitation_profile(SpinSystem(), gaussian90, offsets, n_steps=512)
        for k, offset in enumerate(offsets):
            system = SpinSystem(s_offset=offset)
            traj = propagate_interaction(system, gaussian90, 512, tol=None)
            a, b = traj.q[..., -1]
            m = np.conj(a) * b * np.exp(1j * (offset_diagonal(system) * traj.times[-1]))
            response = (m.real, m.imag, 0.5 * (
                a.real * a.real + a.imag * a.imag - b.imag * b.imag - b.real * b.real))
            assert table[:, k].tobytes() == np.concatenate(response).tobytes(), offset

    def test_row_that_is_not_finite_raises(self, s_only_system):
        # the trial offset 2 pi 2e307 rad/s is finite, but w t overflows on a 4 s pulse
        pulse = build_pulse("constant", 4.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                RefinementError, match="endpoint is not finite on the grid of 64 steps") as err:
            excitation_profile(s_only_system, pulse, [0.0, TWO_PI * 2e307], n_steps=64)
        assert err.value.n_steps == 64

    @pytest.mark.parametrize("entry", list_catalog(), ids=lambda entry: entry.name)
    def test_phase_is_the_composed_free_precession(self, sax_system, entry):
        # the free precession exp(-i w T Sz) after the pulse, composed as a general `su2.exp`
        # pair, only turns conj(a) b by e^{i w T}
        pulse = calibrate(entry.build(), entry.nominal_flip)
        offsets = TWO_PI * np.array([-3000.0, 0.0, 450.5, 2e5])
        table = excitation_profile(sax_system, pulse, offsets)
        for k, offset in enumerate(offsets):
            system = dc_replace(sax_system, s_offset=offset)
            traj = propagate_interaction(system, pulse, tol=None)
            free = np.zeros((3, system.n_configs))
            free[2] = offset_diagonal(system) * traj.times[-1]
            a, b = su2.compose(su2.exp(free), traj.q[..., -1])
            m = np.conj(a) * b
            composed = np.mean((m.real, m.imag, 0.5 * (abs(a) ** 2 - abs(b) ** 2)), axis=-1)
            assert np.max(np.abs(table[:, k] - composed)) <= 1e-15, offset
