"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything completes in well under a minute on a laptop.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from magnuspulse import (
    ISpin,
    SpinSystem,
    abs_amplitude_integral,
    assemble_full_matrix,
    build_pulse,
    calibrate,
    explicit_criterion,
    extract_omega,
    flip_angle,
    integrate_expansion,
    list_catalog,
    magnus_gap_check,
    magnus_partial_sums,
    omega_eigenvalues,
    propagate_interaction,
    resolve_pulse,
    scale_amplitude,
)
from magnuspulse.expansion import _legacy_expansion_rhs, reconstruct_blocks
from magnuspulse.magnus import ExtractionError

import oracle
from conftest import random_fourier_pulse, random_small_system

TWO_PI = 2.0 * math.pi


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {description} {detail}".rstrip())
    assert ok, f"criterion {num} ({description}) {detail}"


def _criterion_with_retry(system, pulse, n_steps, tol):
    for n in (n_steps, 4 * n_steps, 16 * n_steps, 64 * n_steps):
        try:
            return explicit_criterion(system, pulse, n_steps=n, tol=tol)
        except ExtractionError:
            continue
    raise AssertionError("extraction failed on every retry grid")


@pytest.fixture(scope="module")
def sweep_reports():
    """Shared 100-case randomized sweep used by criteria 4 and 9.

    Criterion integrals are capped at U-BURP intensity (2.8 * 2 pi); hotter
    envelopes push the exponent arbitrarily close to the 2 pi degeneracy,
    where branch tracking needs impractically dense grids (the module treats
    those as pathological, per its documented precondition).
    """
    rng = np.random.default_rng(42)
    reports = []
    for _ in range(100):
        system = random_small_system(rng)
        pulse = random_fourier_pulse(
            rng, target=rng.uniform(0.3, 1.8) * math.pi, max_criterion=2.8 * TWO_PI
        )
        reports.append(_criterion_with_retry(system, pulse, 384, 1e-6))
    return reports


def test_c01_catalog_verdicts():
    expected_met = {
        "G4": True, "Q5": True,
        "E-BURP-2": False, "U-BURP": False, "I-BURP-2": False, "RE-BURP": False,
        "G3": False, "Q3": False,
    }
    system = SpinSystem(s_count=1, s_offset=TWO_PI * 5.0,
                        i_spins=(ISpin(offset=TWO_PI * 30.0, j_to_s=6.0),))
    results = {}
    for entry in list_catalog():
        pulse = entry.build_calibrated()
        report = _criterion_with_retry(system, pulse, 1024, 1e-6)
        results[entry.name] = (report.criterion23_met, report.i_total)
    mismatches = [
        f"{name}: I(T)={i_t:.3f} met={met}"
        for name, (met, i_t) in results.items()
        if met != expected_met[name]
    ]
    detail = "; ".join(f"{n}: I={v[1]:.2f}" for n, v in sorted(results.items()))
    _report(1, "published verdicts for all eight bundled pulses",
            not mismatches, detail if not mismatches else "; ".join(mismatches))


def test_c02_nonnegative_envelope_identity():
    worst = 0.0
    for family, kwargs in (("gaussian", {"truncation": 0.01}), ("sech", {"beta": 5.3})):
        for flip in (math.pi / 2, 1.5 * math.pi):
            pulse = calibrate(build_pulse(family, 2e-3, **kwargs), flip, 4096)
            gap = abs(
                abs_amplitude_integral(pulse, 2e-3, 4096) - flip_angle(pulse, 2e-3, 4096)
            )
            worst = max(worst, gap)
    _report(2, "I(T) equals the flip angle for non-negative envelopes",
            worst < 1e-9, f"(max |I-theta| = {worst:.2e})")


def test_c03_oracle_equivalence(sax_system, s2ax_system, gaussian90):
    start = time.perf_counter()
    worst = 0.0
    for system in (sax_system, s2ax_system):
        traj = propagate_interaction(system, gaussian90, n_steps=4096, tol=1e-9)
        assembled = assemble_full_matrix(system, traj.endpoint_blocks())
        dense = oracle.dense_propagator(system, gaussian90, 2 * traj.n_steps)
        worst = max(worst, float(np.linalg.norm(assembled - dense)))
    elapsed = time.perf_counter() - start
    _report(3, "SAX and S2AX propagators match the dense full-space oracle",
            worst < 1e-8 and elapsed < 5.0,
            f"(max Frobenius diff = {worst:.2e}, {elapsed:.1f} s)")


def test_c04_exponent_bound_sweep(sweep_reports):
    worst = max(-r.bound21_margin for r in sweep_reports)
    _report(4, "exponent magnitude bounded by I(t) across 100 random cases",
            worst < 1e-6, f"(worst excess = {worst:.2e})")


def test_c05_expansion_equivalence(sax_system):
    worst_diff, worst_residual = 0.0, 0.0
    for entry in list_catalog():
        pulse = entry.build_calibrated()
        state = integrate_expansion(sax_system, pulse, n_steps=1024, tol=1e-8)
        traj = propagate_interaction(sax_system, pulse, n_steps=1024, tol=1e-8)
        diff = np.linalg.norm(
            reconstruct_blocks(state)[:, -1] - traj.endpoint_blocks(), axis=(-2, -1)
        )
        worst_diff = max(worst_diff, float(diff.max()))
        worst_residual = max(worst_residual, float(state.constraint_residual().max()))
    _report(5, "expansion-form propagator matches the exact one for every catalog pulse",
            worst_diff < 1e-6 and worst_residual < 1e-8,
            f"(max endpoint diff = {worst_diff:.2e}, max constraint residual = {worst_residual:.2e})")


def test_c06_legacy_equations_regression(sa_system, gaussian90):
    corrected = integrate_expansion(sa_system, gaussian90, n_steps=1024, tol=None)
    legacy = integrate_expansion(
        sa_system, gaussian90, n_steps=1024, tol=None, _rhs=_legacy_expansion_rhs
    )
    ok = (
        float(corrected.constraint_residual().max()) < 1e-8
        and float(legacy.constraint_residual().max()) > 1e-2
    )
    _report(6, "superseded coefficient equations break the unit-norm constraint",
            ok,
            f"(corrected residual = {float(corrected.constraint_residual().max()):.2e}, "
            f"legacy residual = {float(legacy.constraint_residual().max()):.2e})")


def test_c07_degeneracy_handling(s_only_system):
    pulse = calibrate(build_pulse("constant", 1e-3), TWO_PI)
    traj = propagate_interaction(s_only_system, pulse, n_steps=1024, tol=1e-10)
    solution = extract_omega(traj)
    end_is_minus_identity = (
        float(np.linalg.norm(traj.endpoint_blocks()[0] + np.eye(2))) < 1e-10
    )
    flagged = bool(solution.ambiguous.any())
    angle_ok = abs(solution.omega_hat[0, -1] - TWO_PI) < 1e-6
    gap_ok, nearest = magnus_gap_check(omega_eigenvalues(solution, -1))
    _report(7, "hard 2*pi pulse: -E endpoint, ambiguity flag, tracked angle, gap violation",
            end_is_minus_identity and flagged and angle_ok and not gap_ok,
            f"(angle = {solution.omega_hat[0, -1]:.8f}, gap distance = {nearest:.1e})")


def test_c08_weak_field_limit(sax_system, gaussian90):
    errors = []
    pulse = gaussian90
    for _ in range(6):
        traj = propagate_interaction(sax_system, pulse, n_steps=1024, tol=1e-9)
        solution = extract_omega(traj)
        approx = flip_angle(pulse, pulse.duration, 1024)
        errors.append(float(np.max(np.abs(approx - solution.omega_hat[:, -1]))))
        pulse = scale_amplitude(pulse, 0.5)
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    ok = all(r < 0.6 for r in ratios) and all(b < a for a, b in zip(errors, errors[1:]))
    _report(8, "weak-field estimate error shrinks under amplitude halving",
            ok, "(ratios: " + ", ".join(f"{r:.3f}" for r in ratios) + ")")


def test_c09_implication_property(sweep_reports):
    counterexamples = [
        r for r in sweep_reports if r.criterion23_met and not r.magnus_criterion_ok
    ]
    met = sum(1 for r in sweep_reports if r.criterion23_met)
    _report(9, "criterion met implies the eigenvalue-gap condition holds",
            not counterexamples,
            f"({met}/{len(sweep_reports)} sweep cases met the criterion, "
            f"{len(counterexamples)} counterexamples)")


def test_c10_partial_sums_ordering(sa_system, gaussian90):
    traj = propagate_interaction(sa_system, gaussian90, n_steps=1024, tol=1e-9)
    sums = magnus_partial_sums(sa_system, gaussian90, n_steps=384, order=3)
    ok = True
    details = []
    for ci in range(sums.shape[0]):
        err1 = np.linalg.norm(scipy.linalg.expm(-1j * sums[ci, 0]) - traj.endpoint_blocks()[ci])
        err3 = np.linalg.norm(scipy.linalg.expm(-1j * sums[ci, 2]) - traj.endpoint_blocks()[ci])
        ok = ok and err3 < err1
        details.append(f"{err3:.1e} < {err1:.1e}")
    _report(10, "third-order exponent beats first order on a 90 degree Gaussian",
            ok, "(" + "; ".join(details) + ")")
