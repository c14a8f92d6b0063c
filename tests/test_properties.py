"""Properties that hold for any envelope, checked on random Fourier pulses.

Pulses are `contracts.random_fourier_pulse` calibrated to a drawn flip angle,
with I(T) capped at U-BURP intensity as `contracts.check_bound_and_gap_sweep`
caps it; systems are `contracts.random_small_system` or the fixed S, SAX and
S2AX systems. Each tolerance is the one an existing test uses for the same
quantity.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnuspulse import (SpinSystem, calibrate, explicit_criterion, integrate_expansion,
                         midpoint_integrals, offset_diagonal, propagate_interaction,
                         scale_amplitude, su2)
from magnuspulse.propagation import _sampled
from contracts import _sax, random_fourier_pulse, random_small_system
import oracle

TWO_PI = 2.0 * math.pi
CAP = 2.8 * TWO_PI

seeds = st.integers(0, 2**32 - 1)
flips = st.floats(0.3 * math.pi, 3.0 * math.pi)
SAX = _sax()
SYSTEMS = {
    "S": SpinSystem(s_count=1, s_offset=0.0),
    "SAX": SAX,
    "S2AX": SpinSystem(s_count=2, s_offset=SAX.s_offset, i_spins=SAX.i_spins, j_ii=SAX.j_ii),
}


def _pulse(rng, flip):
    pulse = calibrate(random_fourier_pulse(rng), flip)
    i_total = midpoint_integrals(pulse, pulse.duration)[1]
    return scale_amplitude(pulse, CAP / i_total) if i_total > CAP else pulse


def _case(seed, flip):
    """A random small system and a random calibrated Fourier pulse, both from `seed`."""
    rng = np.random.default_rng(seed)
    system = random_small_system(rng)
    return system, _pulse(rng, flip)


@settings(max_examples=25, deadline=None)
@given(seeds, flips)
def test_trajectory_stays_unit(seed, flip):
    system, pulse = _case(seed, flip)
    a, b = propagate_interaction(system, pulse, n_steps=512, tol=None).q  # the scanned grid
    # Frobenius norm of U U^dagger - E = (|a|^2 + |b|^2 - 1) E
    assert math.sqrt(2.0) * np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seeds, flips, st.integers(1, 300))
def test_scan_is_the_sequential_product(seed, flip, n):
    system, pulse = _case(seed, flip)
    w = offset_diagonal(system)
    slices = np.empty((2, len(w), n), dtype=complex)
    _sampled(pulse)(w, n, pulse.duration / n)(slices, 0, n)  # the exact route's filler
    scanned = slices.copy()
    su2.scan(scanned)
    sequential = oracle.sequential_prefix(np.moveaxis(su2.rows(slices), 0, -1))
    assert np.max(np.abs(su2.to_matrix(scanned) - sequential)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds, flips)
def test_expansion_matches_sequential_oracle(seed, flip):
    # the bounds of test_expansion.py::test_matches_sequential_oracle, on random envelopes
    system, pulse = _case(seed, flip)
    fg = su2.rows(integrate_expansion(system, pulse, n_steps=256, tol=None).q)
    _, f, g = oracle.integrate_expansion_loop(system, pulse, 256)
    assert np.max(np.abs(fg[0] - f)) < 1e-12
    assert np.max(np.abs(np.moveaxis(fg[1:], 0, -1) - g)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(seeds, flips, st.floats(0.0, 1.0))
def test_amplitude_integral_bounds_flip_angle(seed, flip, fraction):
    _, pulse = _case(seed, flip)
    t = fraction * pulse.duration
    theta, i_t = midpoint_integrals(pulse, t, 256)
    assert i_t >= abs(theta) - 1e-12


@settings(max_examples=20, deadline=None)
@given(seeds, flips)
@example(89435860, 8.0)  # one configuration is tracked through -E, to max omega_hat 8.869
def test_exponent_bounded_by_amplitude_integral(seed, flip):
    system, pulse = _case(seed, flip)
    report = explicit_criterion(system, pulse, n_steps=384, tol=1e-6)
    assert report.bound21_margin >= -1e-6


@pytest.mark.parametrize("name", SYSTEMS)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, flip=flips)
def test_gap_above_two_pi_passed_two_pi(name, seed, flip):
    # Every eigenvalue is 0 at t = 0 and the tracked ones are continuous, so a
    # gap above 2 pi was exactly 2 pi at some time, sampled or not.
    report = explicit_criterion(SYSTEMS[name], _pulse(np.random.default_rng(seed), flip),
                                n_steps=384, tol=1e-6)
    if report.max_eigenvalue_gap > TWO_PI:
        assert report.magnus_gap_nearest == 0.0
        assert not report.magnus_criterion_ok
