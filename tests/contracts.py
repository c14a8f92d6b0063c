"""
The cross-module contracts, run by the acceptance tests.

`CHECKS` is the one list of them. Each check exercises one contract that ties
two independent computation routes together (closed-form slice exponentials
vs eigendecomposition, block propagation vs the dense full-space oracle and
vs expansion-form integration, quadrature bounds vs extracted exponents) and
returns (passed, detail). Everything runs in a few seconds on numpy alone:
this module imports only numpy, `magnuspulse` and `oracle`.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from magnuspulse import (ISpin, SpinSystem, assemble_full_matrix, build_pulse,
                         calibrate, explicit_criterion, extract_omega, integrate_expansion,
                         list_catalog, magnus_partial_sums, midpoint_integrals,
                         propagate_interaction, scale_amplitude, su2)

import oracle

TWO_PI = 2.0 * math.pi


def _sa():
    return SpinSystem(s_count=1, s_offset=TWO_PI * 12.0,
                      i_spins=(ISpin(offset=TWO_PI * 40.0, j_to_s=7.0),))


def _sax():
    spins = (ISpin(offset=TWO_PI * 35.0, j_to_s=8.0), ISpin(offset=-TWO_PI * 55.0, j_to_s=4.0))
    return SpinSystem(s_count=1, s_offset=TWO_PI * 10.0, i_spins=spins, j_ii={(0, 1): 5.0})


def _s2ax():
    """Two equivalent S spins over the SAX coupling topology."""
    return dataclasses.replace(_sax(), s_count=2)


def _gaussian90():
    return calibrate(build_pulse("gaussian", 2e-3, truncation=0.01), math.pi / 2)


def random_fourier_pulse(rng):
    """Seeded random 1 ms Fourier envelope with four harmonics, uncalibrated."""
    a0 = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    cos_c = rng.normal(0.0, 0.6, size=4)
    sin_c = rng.normal(0.0, 0.6, size=4)
    return build_pulse("fourier", 1e-3, a0=a0, cos_coeffs=tuple(cos_c), sin_coeffs=tuple(sin_c))


def random_small_system(rng):
    """Random SA or SAX system with moderate offsets and couplings."""
    n_i = int(rng.integers(1, 3))
    spins = tuple(
        ISpin(offset=TWO_PI * rng.uniform(-80.0, 80.0), j_to_s=rng.uniform(0.0, 12.0))
        for _ in range(n_i)
    )
    j_ii = {(0, 1): rng.uniform(0.0, 8.0)} if n_i == 2 else {}
    s_offset = TWO_PI * rng.uniform(-50.0, 50.0)
    return SpinSystem(s_count=1, s_offset=s_offset, i_spins=spins, j_ii=j_ii)


def check_su2_closed_form():
    """su2.exp of a rotation vector agrees with the oracle's eigendecomposition exponential."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=3) * 2000.0
        h = a[0] * oracle.SX1 + a[1] * oracle.SY1 + a[2] * oracle.SZ1
        dt = rng.uniform(1e-6, 1e-3)
        u = su2.to_matrix(su2.exp(a * dt))
        worst = max(worst, float(np.linalg.norm(u - oracle.expm_neg_i(h, dt))))
    return worst < 1e-11, f"max deviation {worst:.2e}"


def check_unitarity():
    """Propagated blocks stay unitary to 1e-10 along a 4096-step trajectory."""
    traj = propagate_interaction(_sax(), _gaussian90(), n_steps=4096, tol=None)
    # Frobenius norm of U U^dagger - E, which is (|a|^2 + |b|^2 - 1) E
    defect = math.sqrt(2.0) * float(np.max(su2.norm_defect(traj.q)))
    return defect < 1e-10, f"max defect {defect:.2e}"


def check_dense_oracle():
    """SAX and S2AX propagators match the dense full-space oracle on twice the accepted grid."""
    start, worst, pulse = time.perf_counter(), 0.0, _gaussian90()
    for system in (_sax(), _s2ax()):
        traj = propagate_interaction(system, pulse, n_steps=4096, tol=1e-9)
        assembled = assemble_full_matrix(system, su2.to_matrix(traj.q[..., -1]))
        dense = oracle.dense_propagator(system, pulse, 2 * traj.n_steps)
        worst = max(worst, float(np.linalg.norm(assembled - dense)))
    elapsed = time.perf_counter() - start
    return worst < 1e-8 and elapsed < 5.0, f"max Frobenius difference {worst:.2e}, {elapsed:.1f} s"


def check_criterion_integrals():
    """I(t) >= |theta(t)| on random Fourier envelopes; I(T) = theta(T) for non-negative shapes.

    The identity is checked on Gaussian and sech envelopes at 90 and 270
    degrees; it is exact because calibration and quadrature share one grid.
    """
    rng = np.random.default_rng(2)
    for _ in range(25):
        pulse = random_fourier_pulse(rng)
        t = rng.uniform(0.1, 1.0) * 1e-3
        theta, i = midpoint_integrals(pulse, t, 256)
        if i < abs(theta) - 1e-12:
            return False, "triangle inequality violated"
    worst = 0.0
    for family, kwargs in (("gaussian", {"truncation": 0.01}), ("sech", {"beta": 5.3})):
        for flip in (math.pi / 2, 1.5 * math.pi):
            pulse = calibrate(build_pulse(family, 2e-3, **kwargs), flip, 4096)
            theta, i = midpoint_integrals(pulse, 2e-3, 4096)
            worst = max(worst, abs(i - theta))
    return worst < 1e-12, f"max non-negative |I - theta| {worst:.2e}"


def check_log_reconstruction():
    """exp(-i Omega . S) rebuilt from the extracted exponent matches the trajectory."""
    traj = propagate_interaction(_sax(), _gaussian90(), n_steps=1024, tol=1e-8)
    sol = extract_omega(traj)
    err = np.linalg.norm(su2.to_matrix(su2.exp(sol.omega)) - su2.to_matrix(traj.q), axis=(-2, -1))
    worst = float(err[~sol.ambiguous].max())
    return worst < 1e-8, f"max reconstruction error {worst:.2e}"


def check_bound_and_gap_sweep():
    """100 random SA/SAX cases: omega_hat(t) <= I(t), and I(T) < 2 pi implies the gap condition.

    Criterion integrals are capped at U-BURP intensity (2.8 * 2 pi). One call per case: a
    configuration off -E is answered by its principal exponent, so only one that reaches -E
    is branch-tracked and could ask for a denser grid.
    """
    cap = 2.8 * TWO_PI
    rng = np.random.default_rng(42)
    worst, met, counterexamples = -math.inf, 0, 0
    for _ in range(100):
        system = random_small_system(rng)
        target = rng.uniform(0.3, 1.8) * math.pi
        pulse = calibrate(random_fourier_pulse(rng), target)
        i_total = midpoint_integrals(pulse, pulse.duration)[1]
        if i_total > cap:
            pulse = scale_amplitude(pulse, cap / i_total)
        report = explicit_criterion(system, pulse, n_steps=384, tol=1e-6)
        worst = max(worst, -report.bound21_margin)
        met += report.criterion23_met
        counterexamples += report.criterion23_met and not report.magnus_criterion_ok
    return worst < 1e-6 and counterexamples == 0, (
        f"worst bound excess {worst:.2e}; {met}/100 met the criterion, "
        f"{counterexamples} gap counterexamples")


def check_expansion_equivalence():
    """Expansion-form propagator matches the exact one for every catalog pulse (SAX)."""
    system = _sax()
    worst_diff, worst_residual = 0.0, 0.0
    for entry in list_catalog():
        pulse = calibrate(entry.build(), entry.nominal_flip)
        state = integrate_expansion(system, pulse, n_steps=1024, tol=1e-8)
        traj = propagate_interaction(system, pulse, n_steps=1024, tol=1e-8)
        # Frobenius norm of the 2x2 difference is sqrt(2) times the pair distance
        diff = math.sqrt(2.0) * np.linalg.norm(state.q[..., -1] - traj.q[..., -1], axis=0)
        worst_diff = max(worst_diff, float(diff.max()))
        worst_residual = max(worst_residual, float(su2.norm_defect(state.q).max()))
    return worst_diff < 1e-6 and worst_residual < 1e-8, (
        f"max endpoint error {worst_diff:.2e}, max constraint residual {worst_residual:.2e}")


def check_legacy_equations():
    """The superseded coefficient equations break the unit-norm constraint; the library's keep it."""
    system, pulse = _sa(), _gaussian90()
    corrected = integrate_expansion(system, pulse, n_steps=1024, tol=None)
    _, f, g = oracle.integrate_expansion_loop(system, pulse, 1024, oracle._legacy_expansion_rhs)
    corrected_residual = float(su2.norm_defect(corrected.q).max())
    legacy_residual = float(np.max(np.abs(f**2 + np.sum(g**2, axis=-1) - 1.0)))
    return corrected_residual < 1e-8 and legacy_residual > 1e-2, (
        f"corrected residual {corrected_residual:.2e}, legacy residual {legacy_residual:.2e}")


def check_degenerate_two_pi():
    """Hard 2 pi pulse: U(T) = -E, flagged, tracked to 2 pi, and the gap audit fails."""
    system = SpinSystem()
    pulse = calibrate(build_pulse("constant", 1e-3), TWO_PI)
    traj = propagate_interaction(system, pulse, n_steps=1024, tol=1e-10)
    sol = extract_omega(traj)
    end_ok = float(np.linalg.norm(su2.to_matrix(traj.q[:, 0, -1]) + np.eye(2))) < 1e-10
    flagged = bool(sol.ambiguous.any())
    angle_ok = abs(sol.omega_hat[0, -1] - TWO_PI) < 1e-6
    report = explicit_criterion(system, pulse, n_steps=1024, tol=1e-10)
    return end_ok and flagged and angle_ok and not report.magnus_criterion_ok, (
        f"endpoint -E ok={end_ok}, flagged={flagged}, angle ok={angle_ok}, "
        f"gap ok={report.magnus_criterion_ok} at distance {report.magnus_gap_nearest:.1e}"
    )


def check_catalog_verdicts():
    """The criterion reproduces the published verdict of every bundled pulse (SA)."""
    expected_met = {"G4": True, "Q5": True, "E-BURP-2": False, "U-BURP": False,
                    "I-BURP-2": False, "RE-BURP": False, "G3": False, "Q3": False}
    system = SpinSystem(s_count=1, s_offset=TWO_PI * 5.0,
                        i_spins=(ISpin(offset=TWO_PI * 30.0, j_to_s=6.0),))
    for entry in list_catalog():
        report = explicit_criterion(system, calibrate(entry.build(), entry.nominal_flip),
                                    n_steps=1024, tol=1e-6)
        if report.criterion23_met != expected_met[entry.name]:
            return False, f"{entry.name}: I(T)={report.i_total:.3f} contradicts expected verdict"
    return True, "all eight verdicts reproduced"


def check_weak_field():
    """Each amplitude halving cuts the flip-angle estimate's error below 0.6x (SAX)."""
    system, pulse = _sax(), _gaussian90()
    errors = []
    for _ in range(6):
        sol = extract_omega(propagate_interaction(system, pulse, n_steps=1024, tol=1e-9))
        approx = midpoint_integrals(pulse, pulse.duration, 1024)[0]
        errors.append(float(np.max(np.abs(approx - sol.omega_hat[:, -1]))))
        pulse = scale_amplitude(pulse, 0.5)
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    return all(r < 0.6 for r in ratios), "error ratios " + ", ".join(f"{r:.3f}" for r in ratios)


def check_partial_sums():
    """Third-order exponent beats first order on a 90 degree Gaussian (SA)."""
    system, pulse = _sa(), _gaussian90()
    exact = propagate_interaction(system, pulse, n_steps=1024, tol=1e-9).q[..., -1]
    sums = magnus_partial_sums(system, pulse, n_steps=384)
    errors = (np.linalg.norm(su2.exp(sums[..., m]) - exact, axis=0) for m in (0, 2))
    for ci, (e1, e3) in enumerate(zip(*errors)):
        if not e3 < e1:
            return False, f"config {ci}: order-3 error {e3:.2e} not below order-1 {e1:.2e}"
    return True, "order-3 below order-1 on every configuration"


CHECKS = [
    ("su2-closed-form", check_su2_closed_form),
    ("unitarity", check_unitarity),
    ("dense-oracle", check_dense_oracle),
    ("criterion-integrals", check_criterion_integrals),
    ("log-reconstruction", check_log_reconstruction),
    ("bound-and-gap-sweep", check_bound_and_gap_sweep),
    ("expansion-equivalence", check_expansion_equivalence),
    ("legacy-equations", check_legacy_equations),
    ("degenerate-two-pi", check_degenerate_two_pi),
    ("catalog-verdicts", check_catalog_verdicts),
    ("weak-field", check_weak_field),
    ("partial-sums", check_partial_sums),
]

