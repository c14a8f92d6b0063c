"""
Self-contained cross-module invariant suite, run by the `verify` CLI command.

Each check exercises one contract that ties two independent computation
routes together (closed-form slice exponentials vs dense eigendecomposition,
block propagation vs expansion-form integration, quadrature bounds vs
extracted exponents). Everything runs in a few seconds on a laptop with no
external data or packages beyond numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .expansion import integrate_expansion, reconstruct_blocks as expansion_blocks
from .magnus import explicit_criterion, extract_omega, magnus_gap_check, magnus_partial_sums
from .magnus import reconstruct_blocks as magnus_blocks
from .propagation import propagate_interaction, su2_step, unitarity_defect
from .pulses import abs_amplitude_integral, build_pulse, calibrate, flip_angle, list_catalog
from .su2 import SX, SY, SZ
from .system import ISpin, SpinSystem, assemble_full_matrix

TWO_PI = 2.0 * math.pi


def _sax():
    return SpinSystem(
        s_count=1,
        s_offset=TWO_PI * 10.0,
        i_spins=(ISpin(offset=TWO_PI * 35.0, j_to_s=8.0), ISpin(offset=-TWO_PI * 55.0, j_to_s=4.0)),
        j_ii={(0, 1): 5.0},
    )


def _gaussian90():
    return calibrate(build_pulse("gaussian", 2e-3, truncation=0.01), math.pi / 2)


def _expm_eigh(h, dt):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def check_su2_closed_form():
    """su2_step agrees with an eigendecomposition exponential."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=3) * 2000.0
        h = a[0] * SX + a[1] * SY + a[2] * SZ
        dt = rng.uniform(1e-6, 1e-3)
        worst = max(worst, float(np.linalg.norm(su2_step(h, dt) - _expm_eigh(h, dt))))
    return worst < 1e-11, f"max deviation {worst:.2e}"


def check_unitarity():
    """Propagated blocks stay unitary to 1e-10 along a 4096-step trajectory."""
    traj = propagate_interaction(_sax(), _gaussian90(), n_steps=4096, tol=None)
    defect = unitarity_defect(traj.blocks)
    return defect < 1e-10, f"max defect {defect:.2e}"


def check_dense_oracle():
    """Assembled block propagator matches brute-force dense stepping (SAX)."""
    system, pulse = _sax(), _gaussian90()
    traj = propagate_interaction(system, pulse, n_steps=1024, tol=None)
    assembled = assemble_full_matrix(system, traj.endpoint_blocks())

    n_fine = 2 * traj.n_steps
    dt = pulse.duration / n_fine
    mids = (np.arange(n_fine) + 0.5) * dt
    amps = np.asarray(pulse.amplitude_fn(mids), dtype=float)
    from .system import energy_diagonal, offset_diagonal

    energies = energy_diagonal(system).values
    offsets = offset_diagonal(system).values
    h0 = np.zeros((8, 8))
    for ci in range(4):
        for s_bit, m_s in ((0, 0.5), (1, -0.5)):
            idx = s_bit * 4 + ci
            h0[idx, idx] = energies[ci] + offsets[ci] * m_s
    # zero-phase pulse: the drive is purely along Sx of the S qubit
    sx_full = np.kron(np.array([[0, 0.5], [0.5, 0]], dtype=complex), np.eye(4))
    u0 = np.exp(1j * np.diag(h0)[None, :] * mids[:, None])
    h_int = (u0[:, :, None] * (amps[:, None, None] * sx_full)) * np.conj(u0)[:, None, :]
    u = _expm_eigh(h_int, dt)
    while len(u) > 1:  # time-ordered pairwise products; n_fine is a power of two
        u = u[1::2] @ u[0::2]
    err = float(np.linalg.norm(assembled - u[0]))
    return err < 1e-6, f"Frobenius difference {err:.2e}"


def check_criterion_integrals():
    """I(t) >= |theta(t)| on random Fourier envelopes; equality for non-negative shapes."""
    rng = np.random.default_rng(2)
    for _ in range(25):
        pulse = build_pulse(
            "fourier", 1e-3,
            a0=rng.uniform(-1, 1),
            cos_coeffs=tuple(rng.normal(0, 0.5, 3)),
            sin_coeffs=tuple(rng.normal(0, 0.5, 3)),
        )
        t = rng.uniform(0.1, 1.0) * 1e-3
        if abs_amplitude_integral(pulse, t, 256) < abs(flip_angle(pulse, t, 256)) - 1e-12:
            return False, "triangle inequality violated"
    g = _gaussian90()
    gap = abs(abs_amplitude_integral(g, g.duration) - flip_angle(g, g.duration))
    return gap < 1e-12, f"non-negative identity gap {gap:.2e}"


def check_log_reconstruction():
    """exp(-i Omega) rebuilt from the extracted exponent matches the trajectory."""
    traj = propagate_interaction(_sax(), _gaussian90(), n_steps=1024, tol=1e-8)
    sol = extract_omega(traj)
    err = np.linalg.norm(magnus_blocks(sol) - traj.blocks, axis=(-2, -1))
    worst = float(err[~sol.ambiguous].max())
    return worst < 1e-8, f"max reconstruction error {worst:.2e}"


def check_exponent_bound():
    """|omega_hat(t)| <= I(t) pointwise on a small random sweep."""
    from .magnus import ExtractionError

    rng = np.random.default_rng(3)
    worst = -math.inf
    for _ in range(10):
        system = SpinSystem(
            s_count=1,
            s_offset=TWO_PI * rng.uniform(-50, 50),
            i_spins=(ISpin(offset=TWO_PI * rng.uniform(-80, 80), j_to_s=rng.uniform(0, 12)),),
        )
        pulse = calibrate(
            build_pulse(
                "fourier", 1e-3,
                a0=rng.uniform(0.2, 1.0),
                cos_coeffs=tuple(rng.normal(0, 0.6, 4)),
                sin_coeffs=tuple(rng.normal(0, 0.6, 4)),
            ),
            rng.uniform(0.3, 1.8) * math.pi,
        )
        # exponents grazing the 2 pi degeneracy need denser sampling to track
        for n_steps in (512, 4096, 32768):
            try:
                report = explicit_criterion(system, pulse, n_steps=n_steps, tol=1e-6)
                break
            except ExtractionError:
                continue
        else:
            return False, "extraction failed even on the finest retry grid"
        worst = max(worst, -report.bound21_margin)
    return worst < 1e-6, f"worst bound excess {worst:.2e}"


def check_expansion_equivalence():
    """Expansion-form propagator matches the exact one for a criterion violator."""
    system = _sax()
    violator = None
    for entry in list_catalog():
        if entry.name == "RE-BURP":
            violator = entry
    pulse = violator.build_calibrated()
    state = integrate_expansion(system, pulse, n_steps=1024, tol=1e-8)
    traj = propagate_interaction(system, pulse, n_steps=1024, tol=1e-8)
    err = float(
        np.max(np.linalg.norm(expansion_blocks(state)[:, -1] - traj.endpoint_blocks(), axis=(-2, -1)))
    )
    residual = float(state.constraint_residual().max())
    return err < 1e-6 and residual < 1e-8, f"endpoint error {err:.2e}, constraint {residual:.2e}"


def check_degenerate_two_pi():
    """Hard 2 pi pulse: U(T) = -E, flagged, gap violation at the first multiple."""
    system = SpinSystem(s_count=1, s_offset=0.0)
    pulse = calibrate(build_pulse("constant", 1e-3), TWO_PI)
    traj = propagate_interaction(system, pulse, n_steps=256, tol=1e-10)
    sol = extract_omega(traj)
    end_ok = float(np.linalg.norm(traj.endpoint_blocks()[0] + np.eye(2))) < 1e-10
    flagged = bool(sol.ambiguous.any())
    angle_ok = abs(sol.omega_hat[0, -1] - TWO_PI) < 1e-6
    ok_gap, nearest = magnus_gap_check([math.pi, -math.pi])
    return end_ok and flagged and angle_ok and not ok_gap, (
        f"endpoint -E ok={end_ok}, flagged={flagged}, angle ok={angle_ok}, "
        f"gap distance {nearest:.1e}"
    )


def check_catalog_verdicts():
    """Bundled catalog reproduces the published criterion verdict signs."""
    expected_met = {"G4": True, "Q5": True, "E-BURP-2": False, "U-BURP": False,
                    "I-BURP-2": False, "RE-BURP": False, "G3": False, "Q3": False}
    for entry in list_catalog():
        pulse = entry.build_calibrated()
        i_total = abs_amplitude_integral(pulse, entry.duration)
        if (i_total < TWO_PI) != expected_met[entry.name]:
            return False, f"{entry.name}: I(T)={i_total:.3f} contradicts expected verdict"
    return True, "all eight verdicts reproduced"


def check_partial_sums():
    """Third-order exponent beats first order on a 90 degree Gaussian (SA)."""
    system = SpinSystem(s_count=1, s_offset=TWO_PI * 12.0,
                        i_spins=(ISpin(offset=TWO_PI * 40.0, j_to_s=7.0),))
    pulse = _gaussian90()
    traj = propagate_interaction(system, pulse, n_steps=1024, tol=1e-9)
    sums = magnus_partial_sums(system, pulse, n_steps=256, order=3)
    for ci in range(sums.shape[0]):
        e1 = np.linalg.norm(_expm_eigh(sums[ci, 0], 1.0) - traj.endpoint_blocks()[ci])
        e3 = np.linalg.norm(_expm_eigh(sums[ci, 2], 1.0) - traj.endpoint_blocks()[ci])
        if not e3 < e1:
            return False, f"config {ci}: order-3 error {e3:.2e} not below order-1 {e1:.2e}"
    return True, "order-3 below order-1 on every configuration"


CHECKS = [
    ("su2-closed-form", check_su2_closed_form),
    ("unitarity", check_unitarity),
    ("dense-oracle", check_dense_oracle),
    ("criterion-integrals", check_criterion_integrals),
    ("log-reconstruction", check_log_reconstruction),
    ("exponent-bound", check_exponent_bound),
    ("expansion-equivalence", check_expansion_equivalence),
    ("degenerate-two-pi", check_degenerate_two_pi),
    ("catalog-verdicts", check_catalog_verdicts),
    ("partial-sums", check_partial_sums),
]


def run_all(stream=None) -> int:
    """Run every check, print one line each, return the number of failures."""
    import sys

    out = stream or sys.stdout
    failures = 0
    for name, fn in CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok" if passed else "FAIL"
        print(f"[{status:4s}] {name}: {detail}", file=out)
        failures += 0 if passed else 1
    total = len(CHECKS)
    print(f"{total - failures}/{total} checks passed", file=out)
    return failures
